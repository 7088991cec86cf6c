#pragma once

/// \file runner.hpp
/// \brief Executes a patternlet under a chosen configuration and collects
/// its observable behavior.
///
/// This is the classroom projector: "run it with 1 thread; now uncomment the
/// pragma; now run with 4". A RunSpec names the configuration, run() executes
/// the body, and RunResult carries everything the paper's figures show —
/// the captured output lines, the work trace, and the wall time.

#include <optional>
#include <string>

#include "analyze/report.hpp"
#include "ckpt/ckpt.hpp"
#include "core/output.hpp"
#include "core/registry.hpp"
#include "core/toggle.hpp"
#include "core/trace.hpp"
#include "fault/fault.hpp"
#include "obs/critical_path.hpp"
#include "obs/profile.hpp"
#include "verify/verify.hpp"

namespace pml {

/// Requested configuration for one patternlet execution.
struct RunSpec {
  int tasks = 0;  ///< 0 = use the patternlet's default_tasks.
  /// (name, value) overrides applied on top of the declared defaults.
  std::vector<std::pair<std::string, bool>> toggle_overrides;
  /// If set, *every* declared toggle is forced to this value first
  /// (then toggle_overrides apply). Mirrors "uncomment everything".
  std::optional<bool> all_toggles;
  std::map<std::string, long> params;  ///< Numeric parameter overrides.
  bool mirror_stdout = false;          ///< Live-echo output (classroom mode).
  /// Nonzero: run under pml::sched schedule perturbation with this seed, so
  /// staged races manifest reproducibly (`--chaos-seed` in the runner).
  /// The perturbation window covers exactly the body's execution.
  std::uint64_t chaos_seed = 0;
  /// Run the body under pml::analyze (`--analyze` in the runner): the
  /// happens-before race detector, lock-order deadlock predictor, and
  /// worksharing/communication lints collect over exactly the body's
  /// execution and report into RunResult::analysis. Unlike chaos mode this
  /// needs no lucky schedule — a racy config reports on every run.
  bool analyze = false;
  /// Run the body under pml::obs (`--profile` in the runner): substrate
  /// span hooks record per-task intervals (region, chunk, barrier wait,
  /// lock wait, send/recv, ...) and wait-time/counter aggregates into
  /// RunResult::metrics. Off, the hooks cost one relaxed load each.
  bool profile = false;
  /// Non-empty: run the body under pml::fault deterministic fault
  /// injection (`--fault` in the runner), e.g. "drop:1,seed:42" or
  /// "crash:node-02@3". The window covers exactly the body; the seed
  /// defaults to chaos_seed when the spec names none. A RuntimeFault the
  /// body lets escape (a job the injected faults killed) is captured into
  /// RunResult::fault_abort instead of propagating — the run "failed as
  /// demonstrated", which is the lesson.
  std::string fault_spec;
  /// Run under pml::verify systematic schedule exploration (`--verify`):
  /// the body executes repeatedly, one runnable lane at a time, while the
  /// explorer enumerates interleavings under the bound policy. Every
  /// execution runs the analyze checkers; the first violation stops the
  /// search and serializes a replayable counterexample. Verify owns the
  /// schedule and the analyze window, so chaos_seed must be 0 and analyze
  /// adds nothing; the profile, fault and ckpt windows open per execution
  /// and RunResult reports the last one, as a plain run reports its only one.
  bool verify = false;
  int verify_bound = 2;              ///< Preemption bound (chess mode).
  std::uint64_t verify_budget = 200; ///< Max executions to explore.
  std::string verify_mode = "dpor";  ///< "dpor" or "chess".
  /// Non-empty: re-execute this serialized `.pmlsched` schedule exactly
  /// (`--replay FILE` in the runner). The caller configures tasks /
  /// toggles / params / fault_spec from the schedule's metadata.
  std::string replay_schedule;
  /// Nonzero: per-thread obs span-ring capacity for this run
  /// (`--obs-ring-spans` in the runner). 0 defers to PML_OBS_RING_SPANS,
  /// then the built-in default; overflow is counted in
  /// RunResult::metrics->spans_dropped either way.
  std::size_t obs_ring_spans = 0;
  /// Run the body with checkpoint/restart enabled (`--ckpt`): mp jobs
  /// inside the body commit a consistent cut every ckpt_interval-th
  /// Communicator::checkpoint() call, and an injected node crash recovers
  /// by re-hosting the dead ranks and replaying from the last cut instead
  /// of degrading to a partial result.
  bool ckpt = false;
  std::uint32_t ckpt_interval = 1;  ///< Commit every Nth checkpoint() call.
  int ckpt_max_restarts = 4;        ///< Recovery attempts before giving up.
  std::string ckpt_file;      ///< `--ckpt-file`: persist committed cuts here.
  std::string restart_from;   ///< `--restart-from`: adopt this snapshot file.
};

/// Everything observable from one patternlet execution.
struct RunResult {
  std::string slug;                ///< Which patternlet ran.
  int tasks = 0;                   ///< Task count actually used.
  ToggleSet toggles;               ///< The configuration it ran with.
  std::vector<OutputLine> output;  ///< Captured lines, arrival order.
  std::vector<TraceEvent> trace;   ///< Work-assignment events.
  double seconds = 0.0;            ///< Wall time of the body (of the whole
                                   ///< exploration under verify or replay).
  std::uint64_t chaos_seed = 0;    ///< Perturbation seed used (0 = none).
  /// Lost-update report when the patternlet drove its probe: updates a
  /// correct run would make, updates observed. Absent otherwise.
  std::optional<long> expected_updates;
  std::optional<long> observed_updates;
  /// Analysis report when RunSpec::analyze was set. Absent otherwise.
  std::optional<analyze::Report> analysis;
  /// Span/metric profile when RunSpec::profile was set. Absent otherwise.
  /// metrics->table() is the `--profile` report; obs::write_chrome_trace()
  /// exports it for Perfetto.
  std::optional<obs::Profile> metrics;
  /// Critical-path analysis over metrics (same condition: profile was on).
  /// critical_path->report() is the `--explain` report.
  std::optional<obs::CriticalPath> critical_path;
  /// Injection tallies when RunSpec::fault_spec was set. Absent otherwise.
  std::optional<fault::Stats> fault_stats;
  /// Checkpoint/restart tallies when RunSpec::ckpt (or restart_from) was
  /// set: cuts committed, recovery attempts, bytes, ranks restored.
  std::optional<ckpt::Stats> ckpt_stats;
  /// The RuntimeFault that ended the body under fault injection (deadlock
  /// diagnosis, collective timeout, ...). Absent when the body survived or
  /// no faults were injected.
  std::optional<std::string> fault_abort;
  /// Exploration outcome when RunSpec::verify or replay_schedule was set.
  std::optional<verify::Result> verification;
  /// Serialized `.pmlsched` counterexample when verification found a
  /// violation — write it to a file and `--replay` it.
  std::optional<std::string> counterexample;

  /// True iff the probe saw the staged race fire (some updates lost).
  bool race_manifested() const {
    return expected_updates.has_value() && *expected_updates != *observed_updates;
  }
  /// Updates the race ate (0 when exact or unprobed).
  long lost_updates() const {
    return expected_updates.has_value() ? *expected_updates - *observed_updates : 0;
  }

  /// Output texts only, arrival order.
  std::vector<std::string> texts() const;
  /// Output joined with newlines.
  std::string output_str() const;
};

/// Runs \p p under \p spec. Exceptions from the body propagate (a patternlet
/// that throws is a bug; tests rely on this).
RunResult run(const Patternlet& p, const RunSpec& spec = {});

/// Convenience: looks up the slug in the global Registry and runs it.
RunResult run(const std::string& slug, const RunSpec& spec = {});

/// Remediation line for a finding-laden analysis of \p p: names the fixing
/// toggles from the RaceDemo annotation when the patternlet declares them
/// ("the protective line to uncomment"), or says there is none to name.
std::string remediation_for(const Patternlet& p);

}  // namespace pml
