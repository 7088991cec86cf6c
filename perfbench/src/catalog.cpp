/// \file catalog.cpp
/// \brief Workload `catalog`: what students and CI run. One op is one
/// pml::run of a registered patternlet. An episode is one sweep of every
/// slug at tasks {1, 2, 4}, in seeded order. Racy slugs run with their
/// RaceDemo fix applied and their lost-update probe must read exact; the
/// two with no fix toggle (omp/race, pthreads/race) and every other slug
/// pass when they throw nothing and print something. Params are scaled so
/// that no slug dominates a sweep.

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <random>

#include "gates.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics_json.hpp"
#include "obs/obs.hpp"
#include "patternlets/patternlets.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr std::array<int, 3> kTasks{1, 2, 4};

/// Param overrides that keep each slug near or below a tenth of a sweep.
/// They apply on top of a racy slug's RaceDemo params.
const std::map<std::string, std::map<std::string, long>>& scaled_params() {
  static const std::map<std::string, std::map<std::string, long>> table{
      {"omp/critical", {{"reps", 5000}}},
      {"omp/critical2", {{"reps", 5000}}},
      {"omp/atomic", {{"reps", 12000}}},
      {"omp/reduction2", {{"size", 40000}}},
      {"pthreads/mutex", {{"reps", 10000}}},
      {"pthreads/race", {{"reps", 10000}}},
      {"hetero/reduction", {{"n", 40000}}},
  };
  return table;
}

/// One op: a patternlet and the configuration it runs under.
struct Config {
  const pml::Patternlet* p = nullptr;
  pml::RunSpec spec;
  bool probe_exact = false;  ///< The RaceDemo fix is on: the probe must be exact.
  double bytes = 0.0;        ///< Message payload bytes, from the setup census.
};

/// Total payload bytes of the messages a profile saw emitted.
double emitted_bytes(const pml::obs::Profile& profile) {
  double bytes = 0.0;
  for (const pml::obs::FlowEvent& f : profile.flows) {
    if (f.phase == pml::obs::FlowPhase::kEmit && !f.dropped) bytes += static_cast<double>(f.bytes);
  }
  return bytes;
}

class Catalog final : public Workload {
 public:
  void setup(std::uint64_t seed, bool quick) override {
    rng_.seed(seed);
    registry_ = std::make_unique<pml::Registry>();
    pml::patternlets::register_all(*registry_);
    configs_.clear();
    for (const pml::Patternlet& p : registry_->all()) {
      for (int tasks : kTasks) {
        Config c;
        c.p = &p;
        c.spec.tasks = tasks;
        if (p.race_demo.has_value()) {
          c.spec.toggle_overrides = p.race_demo->fixed_toggles;
          c.spec.params = p.race_demo->params;
          c.probe_exact = !p.race_demo->fixed_toggles.empty();
        } else {
          c.spec.all_toggles = true;  // every directive uncommented: the working model
        }
        auto scaled = scaled_params().find(p.slug);
        if (scaled != scaled_params().end()) {
          for (const auto& [k, v] : scaled->second) c.spec.params[k] = v;
        }
        configs_.push_back(std::move(c));
      }
    }
    if (quick) configs_.resize(std::min<std::size_t>(configs_.size(), 24));

    // Census: one profiled run per config prices its message payload.
    for (Config& c : configs_) {
      pml::RunSpec spec = c.spec;
      spec.profile = true;
      const pml::RunResult r = pml::run(*c.p, spec);
      c.bytes = emitted_bytes(*r.metrics);
    }
    OpStats warm;
    episode(Mode::kPlain, warm);
    if (warm.failed != 0) throw std::runtime_error("catalog: warm-up sweep failed");
  }

  void episode(Mode mode, OpStats& out) override {
    std::vector<const Config*> order;
    for (const Config& c : configs_) order.push_back(&c);
    std::shuffle(order.begin(), order.end(), rng_);

    Counts counts;
    const std::uint64_t t0 = now_ns();
    for (const Config* c : order) {
      ++out.attempted;
      check_untraced(mode);
      std::optional<pml::obs::Scope> obs;
      if (mode == Mode::kTraced) obs.emplace();
      const std::uint64_t begin = now_ns();
      bool ok = false;
      try {
        const Span span("core.run", out.attempted);
        ok = catalog_ok(pml::run(*c->p, c->spec), c->probe_exact);
      } catch (const std::exception&) {
        ok = false;
      }
      out.latency_ms.push_back(static_cast<double>(now_ns() - begin) * 1e-6);
      if (!ok) ++out.failed;
      out.payload_bytes += c->bytes;
      if (obs) {
        const pml::obs::Profile profile = obs->finish();
        ++counts.ops;
        for (const auto& [task, m] : profile.tasks) {
          counts.msgs += m.value(pml::obs::Counter::kMessagesSent);
        }
        counts.bytes += static_cast<std::uint64_t>(emitted_bytes(profile));
        add_obs_counts(profile, counts);
      }
    }
    out.window_s += static_cast<double>(now_ns() - t0) * 1e-9;
    if (mode == Mode::kTraced) last_counts_ = counts;
  }

  Counts count_pass() override {
    OpStats pass;
    episode(Mode::kTraced, pass);
    if (pass.failed != 0) throw std::runtime_error("catalog: traced sweep failed");
    return last_counts_;
  }

  /// Demands an exact probe from a config whose slug has none.
  void perturb_reference() override {
    for (Config& c : configs_) {
      if (!c.p->race_demo.has_value()) {
        c.probe_exact = true;
        return;
      }
    }
  }

  void layer_metrics(std::vector<Metric>& out) override {
    // Runner overhead and op time by technology, over two spanned sweeps.
    std::vector<double> overhead_us;
    std::map<pml::Tech, std::vector<double>> by_tech;
    {
      Recording rec;
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (const Config& c : configs_) {
          const std::uint64_t t0 = now_ns();
          pml::RunResult r;
          {
            const Span span("core.run");
            r = pml::run(*c.p, c.spec);
          }
          const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
          overhead_us.push_back((wall_s - r.seconds) * 1e6);
          by_tech[c.p->tech].push_back(wall_s * 1e3);
        }
      }
      (void)collect();
    }
    out.push_back({"core.run.overhead_us", median(overhead_us), "us"});
    out.push_back({"core.run.p50_ms.mpi", median(by_tech[pml::Tech::kMPI]), "ms"});
    out.push_back({"core.run.p50_ms.omp", median(by_tech[pml::Tech::kOpenMP]), "ms"});
    out.push_back({"core.run.p50_ms.pthreads", median(by_tech[pml::Tech::kPthreads]), "ms"});
    out.push_back({"core.run.p50_ms.hetero", median(by_tech[pml::Tech::kHeterogeneous]), "ms"});

    // RunSpec::profile on vs off, alternating sweeps; export = critical
    // path + metrics JSON over each profiled run.
    double on_s = 0.0;
    double off_s = 0.0;
    std::vector<double> export_ms;
    for (int round = 0; round < 4; ++round) {
      const bool profile = round % 2 == 1;
      for (const Config& c : configs_) {
        pml::RunSpec spec = c.spec;
        spec.profile = profile;
        const std::uint64_t t0 = now_ns();
        const pml::RunResult r = pml::run(*c.p, spec);
        (profile ? on_s : off_s) += static_cast<double>(now_ns() - t0) * 1e-9;
        if (!profile) continue;
        const std::uint64_t e0 = now_ns();
        const pml::obs::CriticalPath path = pml::obs::critical_path(*r.metrics);
        const std::string json = pml::obs::metrics_json(*r.metrics, c.p->slug);
        export_ms.push_back(static_cast<double>(now_ns() - e0) * 1e-6);
        if (json.empty() || path.attributed_ns != path.wall_ns) {
          throw std::runtime_error("catalog: bad obs export for " + c.p->slug);
        }
      }
    }
    out.push_back({"obs.profile_overhead_pct", (on_s - off_s) / off_s * 100.0, "%"});
    out.push_back({"obs.export_ms", median(export_ms), "ms"});
  }

 private:
  std::mt19937_64 rng_;
  std::unique_ptr<pml::Registry> registry_;
  std::vector<Config> configs_;
  Counts last_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_catalog() { return std::make_unique<Catalog>(); }

}  // namespace perfbench
