/// \file farm.cpp
/// \brief Workload `farm`: Mandelbrot rows through mp::task_farm, 1 master
/// and 3 workers. One op is one image row. An episode farms the rows of two
/// images of a seeded window in seeded order: a narrow one whose result
/// rows (2 KiB) travel eagerly and a wide one whose rows (12 KiB) cross the
/// 8 KiB threshold and travel by rendezvous, so the master's wildcard
/// fan-in mixes both. Every row must equal the sequential render.

#include <algorithm>
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
constexpr int kMaxIter = 256;

/// One image of the episode.
struct Image {
  int width = 0;
  int height = 0;
  double re0 = 0.0, re1 = 0.0, im0 = 0.0, im1 = 0.0;
};

Row render_row(const Image& img, int row) {
  Row out(static_cast<std::size_t>(img.width));
  const double im = img.im0 + (img.im1 - img.im0) * row / (img.height - 1);
  for (int col = 0; col < img.width; ++col) {
    const double re = img.re0 + (img.re1 - img.re0) * col / (img.width - 1);
    double x = 0.0;
    double y = 0.0;
    int it = 0;
    while (x * x + y * y <= 4.0 && it < kMaxIter) {
      const double nx = x * x - y * y + re;
      y = 2.0 * x * y + im;
      x = nx;
      ++it;
    }
    out[static_cast<std::size_t>(col)] = static_cast<std::uint16_t>(it);
  }
  return out;
}

class Farm final : public Workload {
 public:
  void setup(std::uint64_t seed, bool quick) override {
    // The classic full-set view, nudged by the seed: every seed keeps the
    // same mix of cheap (escaping) and capped (in-set) rows.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> jitter(-0.01, 0.01);
    const double cx = -0.6 + jitter(rng);
    const double cy = jitter(rng);
    const double half_w = 1.5 * (1.0 + jitter(rng));
    const double half_h = 1.2 * (1.0 + jitter(rng));
    const int scale = quick ? 8 : 1;
    images_[0] = Image{1024, 192 / scale, cx - half_w, cx + half_w, cy - half_h, cy + half_h};
    images_[1] = Image{6144, 64 / scale, cx - half_w, cx + half_w, cy - half_h, cy + half_h};

    tasks_.clear();
    for (int i = 0; i < 2; ++i) {
      for (int r = 0; r < images_[i].height; ++r) tasks_.push_back(encode(i, r));
    }
    std::shuffle(tasks_.begin(), tasks_.end(), rng);

    const std::uint64_t t0 = now_ns();
    ref_.clear();
    for (long t : tasks_) ref_.push_back(render(t));
    serial_row_ms_ = static_cast<double>(now_ns() - t0) * 1e-6 / tasks_.size();

    OpStats warm;
    for (int i = 0; i < (quick ? 1 : 3); ++i) episode(Mode::kPlain, warm);
    if (warm.failed != 0) throw std::runtime_error("farm: warm-up episode failed");
  }

  void episode(Mode mode, OpStats& out) override {
    Tooling tooling(mode);

    const long ops = static_cast<long>(tasks_.size());
    out.attempted += ops;
    std::vector<std::vector<double>> row_ms(kRanks);
    std::vector<Row> rows;
    const std::uint64_t t0 = now_ns();
    try {
      rows = run_job(mode, tooling.options, row_ms);
    } catch (const std::exception&) {
      out.failed += ops;
      out.window_s += static_cast<double>(now_ns() - t0) * 1e-9;
      return;
    }
    out.window_s += static_cast<double>(now_ns() - t0) * 1e-9;
    tooling.finish(ops, last_profile_, last_counts_);

    long bad = 0;
    for (std::size_t i = 0; i < ref_.size(); ++i) {
      if (i >= rows.size() || !row_matches(rows[i], ref_[i])) ++bad;
    }
    out.failed += bad;
    for (const auto& v : row_ms) out.latency_ms.insert(out.latency_ms.end(), v.begin(), v.end());
    // Computed: per row a task index, the task body (a long), a result
    // index and the result row; then one stop index per worker.
    double bytes = static_cast<double>((kRanks - 1) * sizeof(long));
    for (const Row& r : ref_) bytes += 3 * sizeof(long) + r.size() * sizeof(std::uint16_t);
    out.payload_bytes += bytes;
  }

  Counts count_pass() override {
    OpStats pass;
    episode(Mode::kTraced, pass);
    if (pass.failed != 0) throw std::runtime_error("farm: traced episode failed");
    return last_counts_;
  }

  void perturb_reference() override { ref_.front().front() ^= 1; }

  void layer_metrics(std::vector<Metric>& out) override {
    double master_recv_ns = 0.0;
    double master_farm_ns = 0.0;
    std::vector<long> per_worker(kRanks, 0);
    std::vector<double> row_ms;
    for (int i = 0; i < 3; ++i) {
      Recording rec;
      OpStats pass;
      episode(Mode::kTraced, pass);
      if (pass.failed != 0) throw std::runtime_error("farm: traced episode failed");
      const std::vector<SpanRec> spans = collect();
      for (const SpanRec& s : spans) {
        const std::string_view name = s.name;
        if (name == "farm.row") row_ms.push_back(s.ms());
        if (name == "farm.task_farm" && s.op == 0) master_farm_ns += s.ms() * 1e6;
      }
      master_recv_ns += static_cast<double>(last_profile_->tasks[0].ns(pml::obs::SpanKind::kRecv));
      for (int r = 1; r < kRanks; ++r) per_worker[r] += last_stats_.tasks_per_worker[r];
    }
    const auto [lo, hi] = std::minmax_element(per_worker.begin() + 1, per_worker.end());
    out.push_back({"mp.farm.master_recv_wait_share", master_recv_ns / master_farm_ns, "ratio"});
    out.push_back({"mp.farm.row_p50_ms", median(row_ms), "ms"});
    out.push_back({"mp.farm.tasks_per_worker_max_over_min",
                   static_cast<double>(*hi) / static_cast<double>(std::max(1L, *lo)), "ratio"});
    out.push_back({"farm.serial_row_ms", serial_row_ms_, "ms"});
  }

 private:
  static long encode(int image, int row) { return static_cast<long>(image) << 20 | row; }

  Row render(long task) const {
    return render_row(images_[static_cast<std::size_t>(task >> 20)],
                      static_cast<int>(task & 0xFFFFF));
  }

  std::vector<Row> run_job(Mode mode, const pml::mp::RunOptions& options,
                           std::vector<std::vector<double>>& row_ms) {
    const Span episode_span("farm.episode");
    const std::uint64_t parent = episode_span.id();
    std::vector<Row> rows;
    pml::mp::FarmStats stats;
    pml::mp::run(
        kRanks,
        [&](pml::mp::Communicator& comm) {
          check_untraced(mode, options.message_trace);
          const Adopt adopt(parent);
          const int rank = comm.rank();
          std::vector<double>& mine = row_ms[static_cast<std::size_t>(rank)];
          // A row's latency on its worker runs from the end of the worker's
          // previous row (or its entry into the farm) to the end of this
          // one: the round trip through the master plus the render.
          std::uint64_t last = now_ns();
          const std::function<Row(const long&)> worker = [&](const long& task) {
            Row row;
            {
              const Span span("farm.row", task);
              row = render(task);
            }
            const std::uint64_t end = now_ns();
            mine.push_back(static_cast<double>(end - last) * 1e-6);
            last = end;
            return row;
          };
          const Span span("farm.task_farm", rank);
          std::vector<Row> got =
              pml::mp::task_farm<long, Row>(comm, tasks_, worker, 0, &stats);
          if (rank == 0) rows = std::move(got);
        },
        options);
    last_stats_ = stats;
    return rows;
  }

  std::array<Image, 2> images_{};
  std::vector<long> tasks_;
  std::vector<Row> ref_;
  double serial_row_ms_ = 0.0;
  std::optional<pml::obs::Profile> last_profile_;
  pml::mp::FarmStats last_stats_;
  Counts last_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_farm() { return std::make_unique<Farm>(); }

}  // namespace perfbench
