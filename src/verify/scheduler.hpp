#pragma once

/// \file scheduler.hpp
/// \brief verify::Scheduler — one controlled, serialized execution.
///
/// The Scheduler implements sched::CoopSink: while installed, the
/// substrates run *cooperatively* — exactly one lane (thread) executes
/// between any two scheduling decisions, every other lane is parked on a
/// per-lane condition variable under one scheduler mutex. Each decision
/// (a sched point, a blocking wait, a lane death, a fault choice) consumes
/// one global decision index, and the choice made at that index is either
/// the *default policy* (continue the current lane at a point; lowest-slot
/// ready lane at a block; value 0 at a fault choice) or a *forced
/// divergence* injected by the explorer / replayer. The full step log —
/// who ran, what kind of step, which footprint address, who was ready —
/// is recorded for the explorer's backtracking analysis.
///
/// Blocking model: every substrate wait is a `while (!pred()) coop_block`
/// re-poll loop, so explicit wake() hints are an optimization, not a
/// correctness requirement. When no lane is ready the scheduler *sweeps*:
/// all blocked lanes become ready and re-poll their predicates one at a
/// time. A sweep that completes with the progress counter unchanged proves
/// no lane can advance — that is the deadlock terminal (or, if some lane
/// blocked with a timeout escape, the moment its timeout is granted).
///
/// Abort protocol: on a terminal (deadlock, budget, divergence) the
/// scheduler sets the abort flag and notifies every parked lane. Lanes
/// unwinding from point()/block()/choice() throw sched::CoopAbort; the
/// registration calls (lane_begin/lane_end/join) never throw — they are
/// reached from thread entry/exit paths and destructors where an exception
/// would terminate the process.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sched/coop.hpp"
#include "verify/schedule.hpp"

namespace pml::verify {

/// What kind of scheduling step a log entry records.
enum class StepKind : int {
  kPoint = 0,   ///< A sched::Point serialization point.
  kBlock,       ///< A lane blocked on a resource (footprint = resource).
  kLaneEnd,     ///< A lane died and the successor was chosen.
  kChoice,      ///< An enumerated (fault) decision.
};

/// One scheduling decision, as recorded for the explorer.
struct Step {
  std::uint64_t index = 0;       ///< Global decision index.
  std::uint32_t lane = 0;        ///< Lane that took the step.
  StepKind kind = StepKind::kPoint;
  sched::Point point = sched::Point::kSharedRead;  ///< Valid for kPoint.
  const void* addr = nullptr;    ///< Footprint address (kPoint/kBlock).
  bool write_like = false;       ///< Footprint conflicts with any access.
  std::uint32_t chosen = 0;      ///< Lane scheduled next / choice value.
  std::uint32_t arity = 0;       ///< Valid for kChoice.
  std::uint32_t preemptions_before = 0;  ///< Forced preemptions so far.
  std::uint32_t faults_before = 0;       ///< Nonzero choices so far.
  std::vector<std::uint32_t> ready;      ///< Ready lanes at decision time.
};

/// Terminal state of one execution (empty kind = ran to completion).
struct Terminal {
  std::string kind;    ///< "deadlock", "lost-signal", "budget", "divergence".
  std::string detail;  ///< Human-readable description.
};

class Scheduler final : public sched::CoopSink {
 public:
  /// Lanes a single execution may create (main + every spawned thread,
  /// no slot recycling). Exceeding it is a "lane-overflow" terminal.
  static constexpr std::uint32_t kMaxLanes = 192;

  /// \p forced: the schedule's divergences. \p max_steps: decision budget
  /// before the "budget" terminal fires.
  Scheduler(const std::vector<Divergence>& forced, std::uint64_t max_steps);

  /// Registers the calling thread as lane 0 (running). Call once, before
  /// installing the scheduler and entering the body.
  void begin_main();

  // CoopSink interface --------------------------------------------------
  void point(sched::Point kind, const void* addr) override;
  bool block(const void* resource, std::unique_lock<std::mutex>* held,
             bool timed) override;
  void wake(const void* resource) override;
  void spawned(const void* token, std::uint32_t id_span,
               std::uint32_t count) override;
  void lane_begin(const void* token, std::uint32_t id) override;
  void lane_end(const void* token) override;
  void join(const void* token) override;
  std::uint32_t choice(std::uint32_t arity, const char* site) override;

  // Results (read after the body has returned and the sink is removed) --
  const std::vector<Step>& log() const { return log_; }
  const Terminal& terminal() const { return terminal_; }
  bool aborted() const { return abort_; }
  std::uint64_t decisions() const { return index_; }
  /// Hash of the (lane, kind, addr, chosen) step sequence — used by the
  /// explorer to dedup schedules that collapse to the same execution.
  /// Addresses enter as first-touch indices, so the hash does not depend
  /// on heap layout or ASLR.
  std::uint64_t signature() const;

 private:
  enum class LaneState : int { kUnused, kReady, kRunning, kBlocked, kDone };

  struct Lane {
    LaneState state = LaneState::kUnused;
    std::condition_variable cv;
    const void* resource = nullptr;    ///< Blocked-on resource.
    const void* last_block = nullptr;  ///< For fruitless-re-poll detection.
    bool timed = false;
    bool timeout_granted = false;
  };

  struct Token {
    std::uint32_t base = 0;     ///< Slot base of the latest spawn batch.
    std::uint32_t active = 0;   ///< Lanes registered or promised, not ended.
    std::uint32_t pending = 0;  ///< Promised but not yet registered.
  };

  /// Blocks scheduling decisions until every promised lane has registered,
  /// so the ready set at a decision is deterministic.
  void wait_registrations(std::unique_lock<std::mutex>& lk);
  /// Ready-lane slots, lowest first (excludes the running lane).
  std::vector<std::uint32_t> ready_lanes() const;
  /// Picks the next lane to run at decision \p index (honoring a forced
  /// switch), sweeping blocked lanes into re-polls when none is ready and
  /// declaring the deadlock/timeout terminal when a sweep is fruitless.
  /// Throws CoopAbort after aborting (unless \p nothrow).
  std::uint32_t pick_next(std::unique_lock<std::mutex>& lk,
                          std::uint32_t blocking_lane, bool nothrow);
  /// Hands execution to \p next and parks lane \p me until rescheduled.
  /// Returns false if it un-parked because of an abort (never throws).
  bool hand_off_and_park(std::unique_lock<std::mutex>& lk, std::uint32_t me,
                         std::uint32_t next);
  /// Sets the terminal, flips the abort flag and wakes every parked lane.
  void abort_all(const std::string& kind, const std::string& detail);
  /// Budget check at a decision; aborts + throws when exhausted.
  void charge_step(std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::array<Lane, kMaxLanes> lanes_;
  std::uint32_t next_slot_ = 0;
  std::uint32_t current_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t progress_ = 1;
  std::uint64_t sweep_progress_ = ~std::uint64_t{0};
  std::uint32_t consecutive_ = 0;
  std::uint32_t preemptions_ = 0;
  std::uint32_t faults_used_ = 0;
  bool abort_ = false;
  std::uint64_t max_steps_;
  std::map<std::uint64_t, Divergence> forced_;
  std::vector<Step> log_;
  std::unordered_map<const void*, Token> tokens_;
  std::uint32_t pending_total_ = 0;
  std::condition_variable reg_cv_;
  std::condition_variable join_cv_;
  std::unordered_set<const void*> woken_;
  Terminal terminal_;
};

/// True iff footprint kind \p p conflicts with any concurrent access to
/// the same address (reads only conflict with writes).
inline bool write_like(sched::Point p) {
  return p != sched::Point::kSharedRead;
}

}  // namespace pml::verify
