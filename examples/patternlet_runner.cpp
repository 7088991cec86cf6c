/// \file patternlet_runner.cpp
/// \brief Command-line front end to the collection — the "folder with a
/// Makefile" experience of the original distribution, for all 44 programs.
///
/// Usage:
///   patternlet_runner --list                      # the whole collection
///   patternlet_runner --show omp/reduction        # metadata + exercise
///   patternlet_runner omp/spmd                    # run as shipped
///   patternlet_runner omp/spmd -t 8 --on "omp parallel"
///   patternlet_runner omp/reduction -t 4 --all-on -p size=100000
///   patternlet_runner mpi/gather -t 6
///   patternlet_runner omp/barrier -t 4 --on "omp barrier" --timeline
///   patternlet_runner --listing omp/reduction  # the paper's original C
///   patternlet_runner --list-racy                 # patternlets staging a race
///   patternlet_runner omp/reduction --on "omp parallel for" --chaos-seed 42
///   patternlet_runner omp/private --analyze       # explain the race
///
/// --chaos-seed N runs the body under pml::sched schedule perturbation so the
/// staged race manifests reproducibly (same seed, same interleaving nudges) —
/// even on a single-core machine where the natural schedule almost never
/// exposes it. Setting the PML_CHAOS environment variable to N is equivalent
/// (the flag wins when both are given).
///
/// --analyze runs the body under pml::analyze: the happens-before race
/// detector, lock-order deadlock predictor, and worksharing/communication
/// lints. Where chaos mode makes a race *happen*, the analyzer *explains*
/// it — and reports on every run, no lucky schedule needed. Exit status 3
/// when the analysis finds errors.
///
/// --fault SPEC runs the body under pml::fault deterministic fault
/// injection: drop, delay, or duplicate messages, crash a named virtual
/// node, or slow one down — same spec + same seed, same fault sequence.
/// Try `mpi/message-passing --fault=drop:1` and watch the deadlock
/// diagnosis name the retry/timeout toggle that fixes it. The PML_FAULT
/// environment variable supplies a default spec (the flag wins).
///
/// --profile runs the body under pml::obs: per-task spans (region, loop
/// chunk, barrier wait, lock wait, send/recv, collective) plus counters
/// (chunks, steals, combines, message traffic) are collected and printed as
/// a per-task table. --trace-json FILE (implies --profile) additionally
/// writes the spans as Chrome trace-event JSON — open it at
/// ui.perfetto.dev to see the run as a zoomable per-node, per-task
/// timeline, with flow arrows linking every message send to its receive.
/// FILE may be '-' for stdout (program output is then suppressed so stdout
/// is exactly one JSON document).
///
/// --explain (implies --profile) prints the run's critical path: the
/// longest causal chain from start to finish, every nanosecond attributed
/// to compute / barrier-wait / lock-wait / message-latency / rendezvous /
/// runtime, plus the Amdahl speedup bound the decomposition admits. This is
/// the "why wasn't it N× faster?" report.
///
/// --metrics-json FILE (implies --profile) writes the metrics registry —
/// log-bucketed latency/wait/duration histograms with p50/p90/p99, per task
/// and cluster-wide — as JSON ('-' for stdout, same suppression rule).

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <system_error>

#include "core/env.hpp"
#include "core/runner.hpp"
#include "core/timeline.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_json.hpp"
#include "patternlets/listings.hpp"
#include "patternlets/patternlets.hpp"

namespace {

int list_collection(const pml::Registry& reg) {
  const pml::Census c = reg.census();
  std::printf("%d patternlets (%d MPI, %d OpenMP, %d Pthreads, %d heterogeneous)\n\n",
              c.total(), c.mpi, c.openmp, c.pthreads, c.heterogeneous);
  for (const auto& p : reg.all()) {
    std::printf("  %-30s %-14s", p.slug.c_str(), pml::to_string(p.tech));
    for (const auto& name : p.patterns) std::printf(" [%s]", name.c_str());
    std::printf("\n");
  }
  std::printf("\nRun one with: patternlet_runner <slug> [-t N] [--on TOGGLE] "
              "[--off TOGGLE] [--all-on] [-p key=value]\n");
  return 0;
}

int show(const pml::Patternlet& p) {
  std::printf("%s  (%s)\n", p.slug.c_str(), p.title.c_str());
  std::printf("technology: %s\n", pml::to_string(p.tech));
  std::printf("patterns:  ");
  for (const auto& name : p.patterns) std::printf(" %s", name.c_str());
  std::printf("\ndefault tasks: %d\n\n", p.default_tasks);
  std::printf("%s\n\nEXERCISE\n%s\n", p.summary.c_str(), p.exercise.c_str());
  if (!p.toggles.empty()) {
    std::printf("\nTOGGLES (the 'uncomment this directive' steps)\n");
    for (const auto& t : p.toggles) {
      std::printf("  %-24s default %-3s  %s\n", t.name.c_str(),
                  t.default_on ? "on" : "off", t.description.c_str());
    }
  }
  return 0;
}

int list_racy(const pml::Registry& reg) {
  std::printf("Patternlets that stage a race (see --chaos-seed):\n\n");
  for (const pml::Patternlet* p : reg.racy()) {
    const pml::RaceDemo& demo = *p->race_demo;
    std::printf("  %-20s races with:", p->slug.c_str());
    if (demo.racy_toggles.empty()) {
      std::printf(" (defaults)");
    } else {
      for (const auto& [name, on] : demo.racy_toggles) {
        std::printf(" %s=%s", name.c_str(), on ? "on" : "off");
      }
    }
    if (demo.fixed_toggles.empty()) {
      std::printf("; no fix toggle");
    } else {
      std::printf("; fixed by:");
      for (const auto& [name, on] : demo.fixed_toggles) {
        std::printf(" %s=%s", name.c_str(), on ? "on" : "off");
      }
    }
    std::printf("\n");
  }
  std::printf("\nDemo: patternlet_runner <slug> --chaos-seed 42\n");
  return 0;
}

int help() {
  std::printf(
      "patternlet_runner — run the patternlet collection\n\n"
      "  patternlet_runner --list                 list the whole collection\n"
      "  patternlet_runner --list-racy            patternlets staging a race\n"
      "  patternlet_runner --show SLUG            metadata + student exercise\n"
      "  patternlet_runner --listing SLUG         the paper's original C\n"
      "  patternlet_runner SLUG [options]         run one patternlet\n\n"
      "options:\n"
      "  -t, --tasks N       task (thread/rank) count\n"
      "  --on TOGGLE         enable a directive toggle (repeatable)\n"
      "  --off TOGGLE        disable a directive toggle (repeatable)\n"
      "  --all-on / --all-off  force every declared toggle\n"
      "  -p, --param K=V     numeric parameter override (repeatable)\n"
      "  --timeline          render the output as a per-task timeline\n"
      "  --timeline-lane-program  include the program (task -1) lane in the\n"
      "                      timeline rendering\n"
      "  --chaos-seed N      run under seeded schedule perturbation so the\n"
      "                      staged race manifests (PML_CHAOS env equivalent)\n"
      "  --fault SPEC        run under deterministic fault injection, e.g.\n"
      "                      drop:1 | drop:25%% | dup:1 | delay:5 |\n"
      "                      crash:node-02@3 | slow:node-01@10, comma-joined,\n"
      "                      with seed:N for reproducibility (PML_FAULT env\n"
      "                      equivalent)\n"
      "  --ckpt              enable checkpoint/restart: mp patternlets commit\n"
      "                      a consistent cut at each Communicator::checkpoint\n"
      "                      call and recover injected node crashes by\n"
      "                      re-hosting the dead ranks + replaying from the\n"
      "                      last cut (PML_CKPT env equivalent; its value is\n"
      "                      the commit interval)\n"
      "  --ckpt-interval N   commit every Nth checkpoint call (implies --ckpt)\n"
      "  --ckpt-file FILE    persist every committed cut to FILE (implies\n"
      "                      --ckpt)\n"
      "  --restart-from FILE adopt a saved cut: ranks resume from it at their\n"
      "                      first checkpoint call\n"
      "  --analyze           run under the happens-before race detector,\n"
      "                      deadlock predictor, and comm/worksharing lints;\n"
      "                      exit 3 if the analysis reports errors\n"
      "  --profile           collect per-task spans and metrics (barrier/lock\n"
      "                      waits, chunks, combines, messages) and print a\n"
      "                      per-task table\n"
      "  --trace-json FILE   write the profile as Chrome trace-event JSON for\n"
      "                      Perfetto, flow arrows linking sends to receives\n"
      "                      (implies --profile; '-' writes to stdout)\n"
      "  --explain           print the critical path: the longest causal\n"
      "                      chain, attributed to compute/barrier/lock/\n"
      "                      message/rendezvous/runtime, and the implied\n"
      "                      speedup bound (implies --profile)\n"
      "  --metrics-json FILE write the metrics registry (histograms with\n"
      "                      p50/p90/p99, per task and cluster-wide) as JSON\n"
      "                      (implies --profile; '-' writes to stdout)\n"
      "  --obs-ring-spans N  per-thread span/flow ring capacity under\n"
      "                      --profile (default 16384, or PML_OBS_RING_SPANS;\n"
      "                      overflow counts into spans_dropped)\n"
      "  --verify            systematically explore the body's schedules\n"
      "                      (bounded model checking): one runnable lane at a\n"
      "                      time, every execution race-checked; the first\n"
      "                      violation prints a replayable counterexample and\n"
      "                      exits 3, exhausting the bound cleanly exits 0\n"
      "  --verify-bound N    preemption bound for chess mode (default 2)\n"
      "  --verify-budget N   max executions to explore (default 200)\n"
      "  --verify-mode M     'dpor' (default) or 'chess'\n"
      "  --verify-out FILE   write the counterexample schedule to FILE\n"
      "                      (default: <slug>.pmlsched with '/' -> '_')\n"
      "  --replay FILE       deterministically re-execute a .pmlsched\n"
      "                      counterexample written by --verify\n"
      "  -h, --help          this text\n");
  return 0;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(try --list)\n", message.c_str());
  std::exit(2);
}

/// Strict parse of a count or seed given as \p name (a flag or an
/// environment variable): a decimal digit string in [lo, hi], else exit 2
/// naming \p name.
std::uint64_t parse_count(const std::string& name, const std::string& text,
                          std::uint64_t lo = 0,
                          std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t n = 0;
  try {
    n = pml::env::parse_u64(name, text);
  } catch (const pml::UsageError& e) {
    usage_error(e.what());
  }
  if (n < lo || n > hi) {
    usage_error(name + " must be between " + std::to_string(lo) + " and " +
                std::to_string(hi) + ", got " + text);
  }
  return n;
}

/// Strict parse of a signed -p value: the whole text is one decimal long.
long parse_param(const std::string& kv, std::size_t eq) {
  long value = 0;
  const char* first = kv.data() + eq + 1;
  const char* last = kv.data() + kv.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (first == last || ec != std::errc() || end != last) {
    usage_error("-p " + kv + ": expected key=<decimal integer>");
  }
  return value;
}

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

}  // namespace

int main(int argc, char** argv) {
  pml::Registry& reg = pml::patternlets::ensure_registered();
  if (argc < 2) return list_collection(reg);

  std::string slug;
  bool show_only = false;
  bool listing_only = false;
  bool timeline = false;
  bool explain = false;
  pml::TimelineOptions timeline_options;
  std::string trace_json_path;
  std::string metrics_json_path;
  std::string verify_out_path;
  std::string replay_path;
  pml::RunSpec spec;
  spec.mirror_stdout = false;
  // PML_CHAOS in the environment supplies a default chaos seed so whole
  // classroom sessions (or CI sweeps) can run perturbed without editing
  // every command line; --chaos-seed overrides it.
  if (const char* env = std::getenv("PML_CHAOS")) {
    spec.chaos_seed = parse_count("PML_CHAOS", env);
  }
  // PML_FAULT likewise supplies a default fault spec (CI fault sweeps);
  // --fault overrides it.
  if (const char* env = std::getenv("PML_FAULT")) {
    spec.fault_spec = env;
  }
  // PML_CKPT enables checkpoint/restart (CI crash+restart sweeps); its
  // value is the commit interval ("1" = commit every checkpoint call).
  if (const char* env = std::getenv("PML_CKPT")) {
    spec.ckpt = true;
    spec.ckpt_interval =
        static_cast<std::uint32_t>(parse_count("PML_CKPT", env, 1, 0xffffffffULL));
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) usage_error(std::string(what) + " needs an argument");
      return argv[++i];
    };
    if (arg == "--list") return list_collection(reg);
    if (arg == "--list-racy") return list_racy(reg);
    if (arg == "-h" || arg == "--help") return help();
    if (arg == "--show") {
      show_only = true;
      slug = next("--show");
    } else if (arg == "--listing") {
      listing_only = true;
      slug = next("--listing");
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--timeline-lane-program") {
      timeline = true;
      timeline_options.include_program_lane = true;
    } else if (arg == "--profile") {
      spec.profile = true;
    } else if (arg == "--trace-json") {
      trace_json_path = next("--trace-json");
      spec.profile = true;
    } else if (arg == "--explain") {
      explain = true;
      spec.profile = true;
    } else if (arg == "--metrics-json") {
      metrics_json_path = next("--metrics-json");
      spec.profile = true;
    } else if (arg == "--obs-ring-spans") {
      spec.obs_ring_spans =
          static_cast<std::size_t>(parse_count(arg, next("--obs-ring-spans"), 1));
    } else if (arg == "-t" || arg == "--tasks") {
      spec.tasks = static_cast<int>(parse_count(arg, next("-t"), 1, kIntMax));
    } else if (arg == "--on") {
      spec.toggle_overrides.emplace_back(next("--on"), true);
    } else if (arg == "--off") {
      spec.toggle_overrides.emplace_back(next("--off"), false);
    } else if (arg == "--all-on") {
      spec.all_toggles = true;
    } else if (arg == "--all-off") {
      spec.all_toggles = false;
    } else if (arg == "--analyze") {
      spec.analyze = true;
    } else if (arg == "--fault") {
      spec.fault_spec = next("--fault");
    } else if (arg.rfind("--fault=", 0) == 0) {
      spec.fault_spec = arg.substr(8);
    } else if (arg == "--ckpt") {
      spec.ckpt = true;
    } else if (arg == "--ckpt-interval") {
      spec.ckpt_interval = static_cast<std::uint32_t>(
          parse_count(arg, next("--ckpt-interval"), 1, 0xffffffffULL));
      spec.ckpt = true;
    } else if (arg == "--ckpt-file") {
      spec.ckpt_file = next("--ckpt-file");
      spec.ckpt = true;
    } else if (arg == "--restart-from") {
      spec.restart_from = next("--restart-from");
    } else if (arg == "--verify") {
      spec.verify = true;
    } else if (arg == "--verify-bound") {
      spec.verify_bound =
          static_cast<int>(parse_count(arg, next("--verify-bound"), 0, kIntMax));
    } else if (arg == "--verify-budget") {
      spec.verify_budget = parse_count(arg, next("--verify-budget"), 1);
    } else if (arg == "--verify-mode") {
      spec.verify_mode = next("--verify-mode");
    } else if (arg == "--verify-out") {
      verify_out_path = next("--verify-out");
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--chaos-seed") {
      spec.chaos_seed = parse_count(arg, next("--chaos-seed"));
    } else if (arg == "-p" || arg == "--param") {
      const std::string kv = next("-p");
      const auto eq = kv.find('=');
      if (eq == std::string::npos) usage_error("-p expects key=value");
      spec.params[kv.substr(0, eq)] = parse_param(kv, eq);
    } else if (!arg.empty() && arg[0] != '-') {
      slug = arg;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  if (!replay_path.empty()) {
    // Load the counterexample and reconstruct the exact configuration it
    // was found under; command-line config flags are ignored on replay.
    std::ifstream in(replay_path);
    if (!in) usage_error("cannot read schedule file: " + replay_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
      const pml::verify::Schedule schedule = pml::verify::Schedule::parse(text);
      if (slug.empty()) slug = schedule.slug;
      spec.tasks = schedule.tasks;
      spec.toggle_overrides = schedule.toggles;
      spec.all_toggles.reset();
      spec.params.clear();
      for (const auto& [name, value] : schedule.params) spec.params[name] = value;
      spec.fault_spec = schedule.fault_spec;
      spec.verify_bound = schedule.bound;
      spec.verify_mode = schedule.mode;
      spec.chaos_seed = 0;
    } catch (const pml::UsageError& e) {
      usage_error(std::string("bad schedule file: ") + e.what());
    }
    spec.replay_schedule = std::move(text);
  }

  if (slug.empty()) usage_error("no patternlet named");
  const pml::Patternlet* p = reg.find(slug);
  if (p == nullptr) usage_error("no such patternlet: " + slug);
  if (show_only) return show(*p);
  if (listing_only) {
    const auto listing = pml::patternlets::listing_for(slug);
    if (!listing) {
      std::fprintf(stderr, "the paper prints no full listing for %s\n", slug.c_str());
      return 1;
    }
    std::printf("// %s — %s (paper %s)\n%s", listing->filename.c_str(),
                p->title.c_str(), listing->figure.c_str(), listing->code.c_str());
    return 0;
  }

  if (trace_json_path == "-" && metrics_json_path == "-") {
    usage_error("--trace-json - and --metrics-json - both claim stdout; "
                "write at least one to a file");
  }
  // '-' turns stdout into the JSON document itself, so the program's own
  // output must not precede it.
  const bool stdout_is_json = trace_json_path == "-" || metrics_json_path == "-";

  try {
    const pml::RunResult result = pml::run(*p, spec);
    if (!stdout_is_json) {
      for (const auto& line : result.output) std::printf("%s\n", line.text.c_str());
    }
    if (timeline) {
      std::printf("\n%s", pml::render_timeline(result.output, timeline_options).c_str());
    }
    std::fprintf(stderr, "\n[%s | %d tasks | %s | %.3f ms]\n", p->slug.c_str(),
                 result.tasks, result.toggles.to_string().c_str(),
                 result.seconds * 1e3);
    if (result.chaos_seed != 0 || result.expected_updates.has_value()) {
      if (result.expected_updates.has_value()) {
        std::fprintf(stderr,
                     "[chaos seed %llu | expected %ld, observed %ld | %s]\n",
                     static_cast<unsigned long long>(result.chaos_seed),
                     *result.expected_updates, *result.observed_updates,
                     result.race_manifested()
                         ? (std::to_string(result.lost_updates()) +
                            " updates lost — the race fired")
                               .c_str()
                         : "exact — no race manifested");
      } else {
        std::fprintf(stderr, "[chaos seed %llu | no race probe in this patternlet]\n",
                     static_cast<unsigned long long>(result.chaos_seed));
      }
    }
    if (result.fault_stats.has_value()) {
      const pml::fault::Stats& fs = *result.fault_stats;
      std::fprintf(stderr,
                   "[fault: %s | seed %llu | dropped %llu delayed %llu "
                   "duplicated %llu crashed %llu]\n",
                   spec.fault_spec.c_str(),
                   static_cast<unsigned long long>(fs.seed),
                   static_cast<unsigned long long>(fs.dropped),
                   static_cast<unsigned long long>(fs.delayed),
                   static_cast<unsigned long long>(fs.duplicated),
                   static_cast<unsigned long long>(fs.crashed));
      if (result.fault_abort.has_value()) {
        std::fprintf(stderr, "[fault] job aborted: %s\n",
                     result.fault_abort->c_str());
      }
    }
    if (result.ckpt_stats.has_value()) {
      const pml::ckpt::Stats& cs = *result.ckpt_stats;
      std::fprintf(stderr,
                   "[ckpt: interval %u | commits %llu restarts %llu | "
                   "%llu bytes in %llu us | restored ranks %llu]\n",
                   spec.ckpt_interval,
                   static_cast<unsigned long long>(cs.commits),
                   static_cast<unsigned long long>(cs.restarts),
                   static_cast<unsigned long long>(cs.bytes),
                   static_cast<unsigned long long>(cs.write_micros),
                   static_cast<unsigned long long>(cs.restored_ranks));
    }
    if (result.metrics.has_value()) {
      std::fprintf(stderr, "\n%s", result.metrics->table().c_str());
      if (!trace_json_path.empty()) {
        if (trace_json_path == "-") {
          pml::obs::write_chrome_trace(std::cout, *result.metrics);
        } else {
          std::ofstream out(trace_json_path);
          if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n", trace_json_path.c_str());
            return 1;
          }
          pml::obs::write_chrome_trace(out, *result.metrics);
          std::fprintf(stderr,
                       "[trace: %zu spans, %zu flow events -> %s | load at "
                       "ui.perfetto.dev]\n",
                       result.metrics->spans.size(),
                       result.metrics->flows.size(), trace_json_path.c_str());
        }
      }
      if (!metrics_json_path.empty()) {
        if (metrics_json_path == "-") {
          pml::obs::write_metrics_json(std::cout, *result.metrics, p->slug);
        } else {
          std::ofstream out(metrics_json_path);
          if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         metrics_json_path.c_str());
            return 1;
          }
          pml::obs::write_metrics_json(out, *result.metrics, p->slug);
          std::fprintf(stderr, "[metrics -> %s]\n", metrics_json_path.c_str());
        }
      }
      if (explain && result.critical_path.has_value()) {
        std::printf("\n%s", result.critical_path->report().c_str());
      }
    }
    if (result.verification.has_value()) {
      const pml::verify::Result& vr = *result.verification;
      std::fprintf(stderr,
                   "[verify: %s | %llu execution(s), %llu decision(s), "
                   "%llu deduped, %llu step-capped]\n",
                   spec.verify_mode.c_str(),
                   static_cast<unsigned long long>(vr.executions),
                   static_cast<unsigned long long>(vr.decisions),
                   static_cast<unsigned long long>(vr.deduped),
                   static_cast<unsigned long long>(vr.step_capped));
      if (vr.replay_diverged) {
        std::fprintf(stderr,
                     "replay: execution diverged from the schedule — the "
                     "configuration no longer matches the counterexample\n");
        return 1;
      }
      if (vr.found) {
        std::fprintf(stderr, "verify: VIOLATION — %s: %s\n",
                     vr.finding.kind.c_str(), vr.finding.detail.c_str());
        if (!vr.analysis.findings.empty()) {
          std::fprintf(stderr, "\n%s", vr.analysis.to_string().c_str());
        }
        std::fprintf(stderr, "%s\n", pml::remediation_for(*p).c_str());
        if (result.counterexample.has_value() && spec.replay_schedule.empty()) {
          std::string path = verify_out_path;
          if (path.empty()) {
            path = p->slug;
            for (char& c : path) {
              if (c == '/') c = '_';
            }
            path += ".pmlsched";
          }
          std::ofstream sched_out(path);
          if (!sched_out) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
          } else {
            sched_out << *result.counterexample;
            std::fprintf(stderr,
                         "[counterexample -> %s | replay with: "
                         "patternlet_runner --replay %s]\n",
                         path.c_str(), path.c_str());
          }
        }
        return 3;
      }
      if (spec.replay_schedule.empty()) {
        std::fprintf(stderr,
                     vr.quiesced
                         ? "verify: quiesced — no violation in the bounded "
                           "schedule space\n"
                         : "verify: budget exhausted without a violation "
                           "(raise --verify-budget to keep searching)\n");
      } else {
        std::fprintf(stderr, "replay: schedule re-executed, no violation\n");
      }
    } else if (result.analysis.has_value()) {
      const pml::analyze::Report& report = *result.analysis;
      std::fprintf(stderr, "\n%s", report.to_string().c_str());
      if (report.error_count() > 0) {
        std::fprintf(stderr, "%s\n", pml::remediation_for(*p).c_str());
        return 3;
      }
      std::fprintf(stderr, "analyze: no errors found in this configuration\n");
    }
  } catch (const pml::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
