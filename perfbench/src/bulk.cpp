/// \file bulk.cpp
/// \brief Workload `bulk`: Communicator::allreduce(vector<double>, op_sum)
/// on 4 ranks. One op is one allreduce, timed barrier to barrier in the
/// OSU style (the op's latency is the slowest rank's). Sizes come from a
/// fixed deck of 64 KiB (tree), 1 MiB and 16 MiB (ring) bodies dealt in
/// seeded order; values are small integers, so every sum must be exact.

#include <algorithm>
#include <array>
#include <optional>
#include <random>

#include "gates.hpp"
#include "mp/mp.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;

struct Size {
  std::size_t doubles;
  int per_deck;       ///< Ops of this size in one episode.
  const char* span;   ///< Span name around the call.
  const char* label;  ///< Per-layer metric suffix.
};

constexpr std::array<Size, 3> kSizes{{
    {8 * 1024, 24, "mp.coll.allreduce.64KiB", "64KiB"},
    {128 * 1024, 6, "mp.coll.allreduce.1MiB", "1MiB"},
    {2 * 1024 * 1024, 2, "mp.coll.allreduce.16MiB", "16MiB"},
}};

class Bulk final : public Workload {
 public:
  void setup(std::uint64_t seed, bool quick) override {
    rng_.seed(seed);
    std::uniform_int_distribution<int> value(0, (1 << 20) - 1);
    base_.assign(kSizes.back().doubles, 0.0);
    check_base_.clear();
    for (double& x : base_) x = value(rng_);
    deck_.clear();
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      const int n = quick ? 1 : kSizes[s].per_deck;
      deck_.insert(deck_.end(), static_cast<std::size_t>(n), static_cast<int>(s));
    }
    OpStats warm;
    episode(Mode::kPlain, warm);
    if (warm.failed != 0) throw std::runtime_error("bulk: warm-up episode failed");
  }

  void episode(Mode mode, OpStats& out) override {
    // Deal this episode's order and salts (rank r adds (r + 1) * salt).
    std::shuffle(deck_.begin(), deck_.end(), rng_);
    std::uniform_int_distribution<int> salt_of(1, 7);
    std::vector<double> salts(deck_.size());
    for (double& s : salts) s = salt_of(rng_);

    Tooling tooling(mode);

    const std::size_t ops = deck_.size();
    out.attempted += static_cast<long>(ops);
    std::vector<std::vector<double>> op_ms(kRanks, std::vector<double>(ops, 0.0));
    std::vector<std::vector<char>> ok(kRanks, std::vector<char>(ops, 0));
    try {
      run_job(mode, tooling.options, salts, op_ms, ok);
    } catch (const std::exception&) {
      out.failed += static_cast<long>(ops);
      return;
    }
    tooling.finish(static_cast<long>(ops), last_profile_, last_counts_);

    for (std::size_t k = 0; k < ops; ++k) {
      double slowest = 0.0;
      bool good = true;
      for (int r = 0; r < kRanks; ++r) {
        slowest = std::max(slowest, op_ms[r][k]);
        good = good && ok[r][k] != 0;
      }
      if (!good) ++out.failed;
      out.latency_ms.push_back(slowest);
      out.window_s += slowest * 1e-3;
      // Computed: tree and ring alike move 2(p-1) bodies' worth of bytes
      // (reduce + broadcast of N, or 2(p-1) blocks of N/p on each of p ranks).
      out.payload_bytes += 2.0 * (kRanks - 1) *
                           static_cast<double>(kSizes[deck_[k]].doubles * sizeof(double));
    }
  }

  Counts count_pass() override {
    // One deck: the order and salts differ between passes, the op set not.
    OpStats pass;
    episode(Mode::kTraced, pass);
    if (pass.failed != 0) throw std::runtime_error("bulk: traced episode failed");
    return last_counts_;
  }

  void perturb_reference() override {
    check_base_ = base_;
    check_base_[0] += 1.0;
  }

  void layer_metrics(std::vector<Metric>& out) override {
    std::vector<SpanRec> spans;
    {
      Recording rec;
      OpStats pass;
      episode(Mode::kPlain, pass);
      episode(Mode::kPlain, pass);
      if (pass.failed != 0) throw std::runtime_error("bulk: spanned episode failed");
      spans = collect();
    }
    for (const Size& s : kSizes) {
      std::vector<double> ms = durations_us(spans, s.span);
      for (double& x : ms) x *= 1e-3;
      out.push_back({std::string("mp.coll.allreduce_p50_ms.") + s.label, median(ms), "ms"});
    }
  }

 private:
  void run_job(Mode mode, const pml::mp::RunOptions& options, const std::vector<double>& salts,
               std::vector<std::vector<double>>& op_ms, std::vector<std::vector<char>>& ok) {
    const Span episode_span("bulk.episode");
    const std::uint64_t parent = episode_span.id();
    pml::mp::run(
        kRanks,
        [&](pml::mp::Communicator& comm) {
          check_untraced(mode, options.message_trace);
          const Adopt adopt(parent);
          const int rank = comm.rank();
          for (std::size_t k = 0; k < deck_.size(); ++k) {
            const Size& size = kSizes[static_cast<std::size_t>(deck_[k])];
            const double add = (rank + 1) * salts[k];
            std::vector<double> in(size.doubles);
            for (std::size_t i = 0; i < in.size(); ++i) in[i] = base_[i] + add;
            comm.barrier();
            const std::uint64_t t0 = now_ns();
            std::vector<double> sum;
            {
              const Span span(size.span, static_cast<std::int64_t>(k));
              sum = comm.allreduce(std::move(in), pml::mp::op_sum<double>());
            }
            op_ms[rank][k] = static_cast<double>(now_ns() - t0) * 1e-6;
            const std::vector<double>& ref = check_base_.empty() ? base_ : check_base_;
            ok[rank][k] = sum.size() == size.doubles && sums_exact(sum, ref, kRanks, salts[k]);
          }
        },
        options);
  }

  std::mt19937_64 rng_;
  std::vector<double> base_;
  std::vector<double> check_base_;  ///< Set only by perturb_reference().
  std::vector<int> deck_;
  std::optional<pml::obs::Profile> last_profile_;
  Counts last_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk() { return std::make_unique<Bulk>(); }

}  // namespace perfbench
