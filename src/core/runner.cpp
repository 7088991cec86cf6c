#include "core/runner.hpp"

#include <chrono>
#include <iostream>

#include "analyze/analyze.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"
#include "sched/sched.hpp"

namespace pml {

std::vector<std::string> RunResult::texts() const {
  std::vector<std::string> out;
  out.reserve(output.size());
  for (const auto& l : output) out.push_back(l.text);
  return out;
}

std::string RunResult::output_str() const {
  std::string out;
  for (const auto& l : output) {
    out += l.text;
    out += '\n';
  }
  return out;
}

namespace {

/// Store options a RunSpec's checkpoint flags describe.
ckpt::Options ckpt_options_for(const RunSpec& spec) {
  ckpt::Options copts;
  copts.interval = spec.ckpt_interval;
  copts.max_restarts = spec.ckpt_max_restarts;
  copts.save_path = spec.ckpt_file;
  copts.restart_from = spec.restart_from;
  return copts;
}

/// Binds the store's output-rollback seam to the run's capture, so a
/// restarting job can take per-rank marks at each cut and truncate the
/// replayed prefix's lines instead of printing them twice.
void bind_output_hooks(ckpt::Store& store, OutputCapture& out) {
  store.output_mark = [&out](int rank) { return out.count_for(rank); };
  store.output_total = [&out] { return static_cast<std::uint64_t>(out.size()); };
  store.output_rollback = [&out](const std::map<int, std::uint64_t>& marks) {
    out.truncate_to(marks);
  };
  store.output_rollback_total = [&out](std::uint64_t n) {
    out.truncate(static_cast<std::size_t>(n));
  };
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Runs \p p's body once, on a cleared \p out and \p trace, under the run's
/// obs, fault and ckpt windows, and records in \p r what that execution
/// left: the body's wall time, the probe, the profile, the fault and ckpt
/// tallies, and the RuntimeFault that ended it under injection. A verified
/// run calls this once per explored execution, so every window restarts
/// with the schedule and \p r describes the last execution — the violating
/// one, when there is one.
void execute(const Patternlet& p, const RunSpec& spec, OutputCapture& out,
             Trace& trace, RunResult& r) {
  out.clear();
  trace.clear();
  RunContext ctx{r.tasks, r.toggles, out, trace, spec.params};
  std::optional<obs::Scope> profiling;
  if (spec.profile) profiling.emplace(spec.obs_ring_spans);
  const auto t0 = std::chrono::steady_clock::now();
  // A plain run opens this inside its chaos window, so an unseeded fault
  // spec inherits the chaos seed (fault::effective_seed falls back to
  // sched::seed()). A bad spec throws UsageError here, before the body.
  std::optional<fault::FaultScope> faults;
  if (!spec.fault_spec.empty()) {
    faults.emplace(fault::FaultPlan::parse(spec.fault_spec));
  }
  // Installs the process-wide store mp::run picks up, wired to this run's
  // output capture for replay-prefix rollback.
  std::optional<ckpt::Scope> ckpts;
  if (spec.ckpt || !spec.restart_from.empty()) {
    ckpts.emplace(ckpt_options_for(spec));
    bind_output_hooks(ckpts->store(), out);
  }
  // Runs on every exit, after every team thread and rank joined (the merge
  // contract obs::Scope::finish documents). A scheduler terminal that
  // aborts a verified execution mid-body keeps its spans: they show where
  // every lane stopped.
  const auto collect = [&] {
    r.seconds = seconds_since(t0);
    if (ctx.probe.used()) {
      r.expected_updates = ctx.probe.expected();
      r.observed_updates = ctx.probe.observed();
    } else {
      r.expected_updates.reset();
      r.observed_updates.reset();
    }
    if (faults.has_value()) r.fault_stats = fault::stats();
    if (ckpts.has_value()) r.ckpt_stats = ckpts->store().stats();
    if (profiling.has_value()) r.metrics = profiling->finish();
  };
  r.fault_abort.reset();
  try {
    p.body(ctx);
  } catch (const RuntimeFault& e) {
    // Under injection a runtime fault (deadlock diagnosis, collective
    // timeout, node crash) IS the demonstration: record it as the run's
    // outcome instead of failing the runner. Without injection a
    // patternlet that throws is a bug, and the exception propagates.
    if (!faults.has_value()) {
      collect();
      throw;
    }
    r.fault_abort = e.what();
  } catch (...) {
    collect();
    throw;
  }
  collect();
}

/// Exploration bounds a --verify or --replay run asks for. Verification
/// owns the schedule, so a chaos seed is a usage error.
verify::Options verify_options(const RunSpec& spec) {
  if (spec.chaos_seed != 0) {
    throw UsageError("--verify replaces chaos perturbation; drop --chaos-seed");
  }
  verify::Options vopts;
  if (spec.verify_mode == "chess") {
    vopts.mode = verify::Mode::kChess;
  } else if (spec.verify_mode == "dpor") {
    vopts.mode = verify::Mode::kDpor;
  } else {
    throw UsageError("--verify-mode must be 'dpor' or 'chess', got '" +
                     spec.verify_mode + "'");
  }
  vopts.preemption_bound = spec.verify_bound;
  vopts.max_executions = spec.verify_budget;
  vopts.fault_dimension = !spec.fault_spec.empty();
  return vopts;
}

}  // namespace

RunResult run(const Patternlet& p, const RunSpec& spec) {
  RunResult result;
  result.slug = p.slug;
  result.tasks = spec.tasks > 0 ? spec.tasks : p.default_tasks;
  if (result.tasks <= 0) {
    throw UsageError("patternlet '" + p.slug + "': task count must be positive");
  }
  result.toggles = ToggleSet{p.toggles};
  if (spec.all_toggles.has_value()) result.toggles.set_all(*spec.all_toggles);
  for (const auto& [name, value] : spec.toggle_overrides) result.toggles.set(name, value);
  result.chaos_seed = spec.chaos_seed;

  OutputCapture out;
  if (spec.mirror_stdout) out.mirror_to(&std::cout);
  Trace trace;
  const auto execute_once = [&] { execute(p, spec, out, trace, result); };

  if (spec.verify || !spec.replay_schedule.empty()) {
    // pml::verify executes the body repeatedly under controlled scheduling
    // and opens the analyze window of every execution itself.
    const verify::Options vopts = verify_options(spec);
    const auto t0 = std::chrono::steady_clock::now();
    verify::Result vr =
        spec.replay_schedule.empty()
            ? verify::explore(execute_once, vopts)
            : verify::replay(execute_once, verify::Schedule::parse(spec.replay_schedule),
                             vopts);
    result.seconds = seconds_since(t0);
    if (vr.found) {
      // Stamp the counterexample with the full configuration so --replay can
      // reconstruct this exact run from the file alone.
      vr.counterexample.slug = p.slug;
      vr.counterexample.tasks = result.tasks;
      vr.counterexample.toggles = result.toggles.values();
      for (const auto& [name, value] : spec.params) {
        vr.counterexample.params.emplace_back(name, value);
      }
      vr.counterexample.fault_spec = spec.fault_spec;
      result.counterexample = vr.counterexample.to_string();
    }
    if (!vr.analysis.findings.empty()) result.analysis = vr.analysis;
    result.verification = std::move(vr);
  } else {
    // The analysis and perturbation windows cover exactly the body; the
    // chaos scope restores the previous seed even if the body throws.
    std::optional<analyze::Scope> analysis;
    if (spec.analyze) analysis.emplace();
    {
      sched::ChaosScope chaos{spec.chaos_seed};
      execute_once();
    }
    if (analysis.has_value()) result.analysis = analysis->finish();
  }

  if (result.metrics.has_value()) {
    result.critical_path = obs::critical_path(*result.metrics);
  }
  // The probe and the findings ride the same trace channel as the schedule
  // figures, on task -1 (the orchestrator): "lost-updates" with key =
  // expected updates and aux = observed, and one "finding:<checker>" per
  // finding with key = its index and aux = 1 for errors / 0 for notes.
  if (result.expected_updates.has_value()) {
    trace.record(-1, "lost-updates", *result.expected_updates, *result.observed_updates);
  }
  if (result.analysis.has_value()) {
    std::int64_t index = 0;
    for (const auto& f : result.analysis->findings) {
      trace.record(-1, std::string("finding:") + analyze::to_string(f.checker), index++,
                   f.severity == analyze::Severity::kError ? 1 : 0);
    }
  }
  result.output = out.lines();
  result.trace = trace.events();
  return result;
}

RunResult run(const std::string& slug, const RunSpec& spec) {
  return run(Registry::instance().get(slug), spec);
}

std::string remediation_for(const Patternlet& p) {
  if (!p.race_demo.has_value()) {
    return "remediation: no staged fix is declared for '" + p.slug +
           "'; add the missing synchronization by hand.";
  }
  const RaceDemo& demo = *p.race_demo;
  if (demo.fixed_toggles.empty()) {
    return "remediation: '" + p.slug +
           "' stages this bug on purpose and declares no fixing toggle — its "
           "lesson *is* the unprotected update; compare with its protected "
           "sibling patternlet.";
  }
  // Phrased as the runner's own flags so the line is copy-pasteable.
  std::string out = "remediation: re-enable the protective line(s):";
  for (const auto& [name, value] : demo.fixed_toggles) {
    out += value ? " --on \"" : " --off \"";
    out += name;
    out += "\"";
  }
  return out;
}

}  // namespace pml
