/// \file halo.cpp
/// \brief Workload `halo`: the 1D heat stencil of examples/heat_diffusion.cpp,
/// rewritten here on 4 ranks. One op is one time step on one rank: an
/// 8-byte ghost-cell exchange with each neighbour (exact-match send and
/// receive) and the interior update. An episode is one mp::run of a fixed
/// number of steps, ended by a gather and a reduce, and checked against the
/// sequential solve to 1e-9.

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
constexpr std::size_t kCells = 4096;
constexpr double kAlpha = 0.1;
constexpr int kGhostTag = 11;

void step_range(const std::vector<double>& u, std::vector<double>& next, std::size_t lo,
                std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    next[i] = u[i] + kAlpha * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
  }
}

std::vector<double> solve_sequential(std::vector<double> u, int steps) {
  std::vector<double> next = u;
  for (int s = 0; s < steps; ++s) {
    step_range(u, next, 1, u.size() - 1);
    std::swap(u, next);
  }
  return u;
}

class Halo final : public Workload {
 public:
  void setup(std::uint64_t seed, bool quick) override {
    steps_ = quick ? 40 : 2000;
    // A seeded rod: integer temperatures in [0, 100), ends held at 0.
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> temp(0, 99);
    u0_.assign(kCells, 0.0);
    for (std::size_t i = 1; i + 1 < kCells; ++i) u0_[i] = temp(rng);

    const std::uint64_t t0 = now_ns();
    ref_ = solve_sequential(u0_, steps_);
    serial_step_us_ = static_cast<double>(now_ns() - t0) * 1e-3 / steps_;
    ref_heat_ = 0.0;
    for (double x : ref_) ref_heat_ += x;

    OpStats warm;
    for (int i = 0; i < (quick ? 1 : 3); ++i) episode(Mode::kPlain, warm);
    if (warm.failed != 0) throw std::runtime_error("halo: warm-up episode failed");
  }

  void episode(Mode mode, OpStats& out) override {
    Tooling tooling(mode, std::size_t{1} << 15);

    const long ops = static_cast<long>(steps_) * kRanks;
    out.attempted += ops;
    std::vector<std::vector<double>> step_ms(kRanks);
    const std::uint64_t t0 = now_ns();
    try {
      run_job(mode, tooling.options, step_ms);
    } catch (const std::exception&) {
      out.failed += ops;
      out.window_s += static_cast<double>(now_ns() - t0) * 1e-9;
      return;
    }
    out.window_s += static_cast<double>(now_ns() - t0) * 1e-9;
    tooling.finish(ops, last_profile_, last_counts_);

    const bool ok = halo_matches(rod_, ref_) &&
                    std::fabs(heat_ - ref_heat_) <= 1e-9 * std::max(1.0, ref_heat_);
    if (!ok) out.failed += ops;
    for (const auto& v : step_ms) out.latency_ms.insert(out.latency_ms.end(), v.begin(), v.end());
    // Computed: 8-byte ghost cells both ways across the p-1 rank borders
    // each step, then one slice per non-root rank (gather) and one double
    // per non-root rank (reduce).
    const std::size_t chunk = kCells / kRanks;
    out.payload_bytes += static_cast<double>(steps_) * 2 * (kRanks - 1) * sizeof(double) +
                         static_cast<double>((kRanks - 1) * (chunk + 1) * sizeof(double));
  }

  Counts count_pass() override {
    OpStats pass;
    episode(Mode::kTraced, pass);
    if (pass.failed != 0) throw std::runtime_error("halo: traced episode failed");
    return last_counts_;
  }

  void perturb_reference() override { ref_[kCells / 2] += 1e-6; }

  void layer_metrics(std::vector<Metric>& out) override {
    std::vector<SpanRec> spans;
    {
      Recording rec;
      OpStats pass;
      episode(Mode::kPlain, pass);
      if (pass.failed != 0) throw std::runtime_error("halo: spanned episode failed");
      spans = collect();
    }
    const std::vector<double> send = durations_us(spans, "mp.send");
    const std::vector<double> recv = durations_us(spans, "mp.recv");
    out.push_back({"mp.p2p.send_p50_us", median(send), "us"});
    out.push_back({"mp.p2p.recv_wait_p50_us", median(recv), "us"});
    out.push_back({"mp.p2p.recv_wait_p99_us", quantile(recv, 0.99), "us"});
    out.push_back({"halo.serial_step_us", serial_step_us_, "us"});
  }

 private:
  void run_job(Mode mode, const pml::mp::RunOptions& options,
               std::vector<std::vector<double>>& step_ms) {
    const int steps = steps_;
    const Span episode_span("halo.episode");
    const std::uint64_t parent = episode_span.id();
    const std::size_t chunk = kCells / kRanks;
    std::vector<double> all;
    double total = 0.0;
    pml::mp::run(
        kRanks,
        [&](pml::mp::Communicator& world) {
          check_untraced(mode, options.message_trace);
          const Adopt adopt(parent);
          const int rank = world.rank();
          const int left = rank > 0 ? rank - 1 : -1;
          const int right = rank + 1 < kRanks ? rank + 1 : -1;
          std::vector<double> u(chunk + 2, 0.0);
          std::copy(u0_.begin() + static_cast<std::ptrdiff_t>(rank * chunk),
                    u0_.begin() + static_cast<std::ptrdiff_t>((rank + 1) * chunk),
                    u.begin() + 1);
          std::vector<double> next(chunk + 2, 0.0);
          // The global rod endpoints stay fixed.
          const std::size_t lo = left == -1 ? 2 : 1;
          const std::size_t hi = right == -1 ? chunk : chunk + 1;
          std::vector<double>& times = step_ms[static_cast<std::size_t>(rank)];
          times.reserve(static_cast<std::size_t>(steps));
          for (int s = 0; s < steps; ++s) {
            const std::uint64_t t0 = now_ns();
            {
              const Span step("halo.step", s);
              if (right != -1) {
                const Span span("mp.send", s);
                world.send(u[chunk], right, kGhostTag);
              }
              if (left != -1) {
                const Span span("mp.send", s);
                world.send(u[1], left, kGhostTag);
              }
              if (left != -1) {
                const Span span("mp.recv", s);
                u[0] = world.recv<double>(left, kGhostTag);
              }
              if (right != -1) {
                const Span span("mp.recv", s);
                u[chunk + 1] = world.recv<double>(right, kGhostTag);
              }
              next = u;
              step_range(u, next, lo, hi);
              std::swap(u, next);
            }
            times.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
          }
          const std::vector<double> slice(u.begin() + 1, u.end() - 1);
          std::vector<double> gathered = world.gather(slice, 0);
          double local = 0.0;
          for (double x : slice) local += x;
          const double heat = world.reduce(local, pml::mp::op_sum<double>(), 0);
          if (rank == 0) {
            all = std::move(gathered);
            total = heat;
          }
        },
        options);
    rod_ = std::move(all);
    heat_ = total;
  }

  int steps_ = 0;
  std::vector<double> u0_;
  std::vector<double> ref_;
  double ref_heat_ = 0.0;
  double serial_step_us_ = 0.0;
  std::vector<double> rod_;
  double heat_ = 0.0;
  std::optional<pml::obs::Profile> last_profile_;
  Counts last_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_halo() { return std::make_unique<Halo>(); }

}  // namespace perfbench
