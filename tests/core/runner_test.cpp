/// \file runner_test.cpp
/// \brief Unit tests for the patternlet runner.

#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.hpp"
#include "patternlets/patternlets.hpp"

namespace pml {
namespace {

Patternlet probe_patternlet() {
  Patternlet p;
  p.slug = "test/probe";
  p.title = "probe";
  p.tech = Tech::kOpenMP;
  p.default_tasks = 3;
  p.toggles = {{"flag", "a toggle", false}};
  p.body = [](RunContext& ctx) {
    ctx.out.program("tasks=" + std::to_string(ctx.tasks));
    ctx.out.program(std::string("flag=") + (ctx.toggles.on("flag") ? "on" : "off"));
    ctx.out.program("reps=" + std::to_string(ctx.param("reps", 8)));
    ctx.trace.record(0, "ran", 1);
  };
  return p;
}

TEST(Runner, UsesDefaultTasksWhenUnspecified) {
  const RunResult r = run(probe_patternlet());
  EXPECT_EQ(r.tasks, 3);
  EXPECT_EQ(r.texts()[0], "tasks=3");
}

TEST(Runner, SpecOverridesTasksTogglesParams) {
  RunSpec spec;
  spec.tasks = 7;
  spec.toggle_overrides = {{"flag", true}};
  spec.params = {{"reps", 99}};
  const RunResult r = run(probe_patternlet(), spec);
  EXPECT_EQ(r.texts(), (std::vector<std::string>{"tasks=7", "flag=on", "reps=99"}));
}

TEST(Runner, AllTogglesForcesEverything) {
  RunSpec spec;
  spec.all_toggles = true;
  const RunResult r = run(probe_patternlet(), spec);
  EXPECT_EQ(r.texts()[1], "flag=on");
  EXPECT_TRUE(r.toggles.on("flag"));
}

TEST(Runner, AllTogglesThenOverride) {
  RunSpec spec;
  spec.all_toggles = true;
  spec.toggle_overrides = {{"flag", false}};
  const RunResult r = run(probe_patternlet(), spec);
  EXPECT_EQ(r.texts()[1], "flag=off");
}

TEST(Runner, CollectsTraceAndTiming) {
  const RunResult r = run(probe_patternlet());
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0].kind, "ran");
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_EQ(r.slug, "test/probe");
}

TEST(Runner, UnknownToggleOverrideThrows) {
  RunSpec spec;
  spec.toggle_overrides = {{"nope", true}};
  EXPECT_THROW(run(probe_patternlet(), spec), UsageError);
}

TEST(Runner, NonpositiveTaskCountThrows) {
  Patternlet p = probe_patternlet();
  p.default_tasks = 0;
  EXPECT_THROW(run(p), UsageError);
}

TEST(Runner, BodyExceptionsPropagate) {
  Patternlet p = probe_patternlet();
  p.body = [](RunContext&) { throw RuntimeFault("boom"); };
  EXPECT_THROW(run(p), RuntimeFault);
}

TEST(Runner, VerifiedRunReportsFaultStats) {
  // Under injection a RuntimeFault that ends the body is the run's outcome:
  // a verified run records it, with the injection tallies, as a plain run
  // of the same spec does.
  Patternlet p = probe_patternlet();
  p.body = [](RunContext&) { throw RuntimeFault("killed by the injected faults"); };
  RunSpec spec;
  spec.fault_spec = "drop:1,seed:42";
  const RunResult plain = run(p, spec);
  spec.verify = true;
  const RunResult verified = run(p, spec);
  for (const RunResult* r : {&plain, &verified}) {
    ASSERT_TRUE(r->fault_stats.has_value());
    EXPECT_EQ(r->fault_stats->seed, 42u);
    ASSERT_TRUE(r->fault_abort.has_value());
    EXPECT_EQ(*r->fault_abort, "killed by the injected faults");
  }
  ASSERT_TRUE(verified.verification.has_value());
  EXPECT_FALSE(verified.verification->found);

  // The same record from a message-passing patternlet explored with drops.
  spec.verify_budget = 4;
  const RunResult mp =
      run(patternlets::ensure_registered().get("mpi/messagePassing"), spec);
  ASSERT_TRUE(mp.verification.has_value());
  ASSERT_TRUE(mp.fault_stats.has_value());
  EXPECT_EQ(mp.fault_stats->seed, 42u);
}

TEST(Runner, VerifiedRunRecordsProbeAndFindingsInTheTrace) {
  const Patternlet& p = patternlets::ensure_registered().get("omp/critical");
  const RaceDemo& demo = *p.race_demo;
  RunSpec spec;
  spec.verify = true;
  spec.verify_budget = 25;
  spec.toggle_overrides = demo.racy_toggles;
  spec.params = demo.params;
  for (auto& [name, value] : spec.params) {
    if (value > 200) value = 200;
  }
  const RunResult r = run(p, spec);
  ASSERT_TRUE(r.verification.has_value());
  ASSERT_TRUE(r.verification->found) << "exploration found no violation";

  // The probe rides the trace on the orchestrator's task, as in a plain run.
  ASSERT_TRUE(r.expected_updates.has_value());
  std::vector<TraceEvent> probe;
  std::vector<TraceEvent> findings;
  for (const TraceEvent& e : r.trace) {
    if (e.kind == "lost-updates") probe.push_back(e);
    if (e.kind.substr(0, 8) == "finding:") findings.push_back(e);
  }
  ASSERT_EQ(probe.size(), 1u);
  EXPECT_EQ(probe[0].task, -1);
  EXPECT_EQ(probe[0].key, *r.expected_updates);
  EXPECT_EQ(probe[0].aux, *r.observed_updates);

  // One finding event per finding of the violating execution, in order.
  ASSERT_TRUE(r.analysis.has_value());
  ASSERT_FALSE(r.analysis->findings.empty());
  ASSERT_EQ(findings.size(), r.analysis->findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const analyze::Finding& f = r.analysis->findings[i];
    EXPECT_EQ(findings[i].task, -1);
    EXPECT_EQ(findings[i].kind,
              std::string("finding:") + analyze::to_string(f.checker));
    EXPECT_EQ(findings[i].key, static_cast<std::int64_t>(i));
    EXPECT_EQ(findings[i].aux, f.severity == analyze::Severity::kError ? 1 : 0);
  }
}

TEST(RunResult, OutputStrJoinsLines) {
  const RunResult r = run(probe_patternlet());
  EXPECT_EQ(r.output_str(), "tasks=3\nflag=off\nreps=8\n");
}

}  // namespace
}  // namespace pml
