#pragma once

/// \file profile.hpp
/// \brief The observability data model: spans, per-task metrics, Profile.
///
/// A Span is one timestamped begin/end interval recorded by a substrate
/// hook (see obs.hpp for the taxonomy). A Profile is everything one
/// profiling Scope collected: the merged span list, per-task aggregates
/// (wait-time totals and counters), and run-wide gauges. RunResult::metrics
/// carries it; `patternlet_runner --profile` prints table(), and
/// chrome_trace.hpp exports the spans for Perfetto.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/flow.hpp"
#include "obs/histogram.hpp"

namespace pml::obs {

/// What interval a span measures.
enum class SpanKind : std::uint8_t {
  kRegion = 0,  ///< A team thread's / rank's whole parallel body.
  kChunk,       ///< One worksharing loop chunk.
  kTask,        ///< One explicit task / pool task execution.
  kBarrier,     ///< Barrier wait, arrival to departure.
  kLockWait,    ///< Contended lock / critical acquisition wait.
  kSend,        ///< Blocking (synchronous) send wait.
  kRecv,        ///< Blocking receive wait.
  kCollective,  ///< A collective call (barrier, broadcast, reduce, ...).
  kRendezvous,  ///< Large-message park (sender) or claim (receiver).
  kCkpt,        ///< One Communicator::checkpoint commit (cut + seal).
};

/// Number of distinct SpanKind values (array sizing).
inline constexpr int kSpanKinds = 10;

/// Printable name ("region", "chunk", "barrier-wait", ...).
const char* to_string(SpanKind k) noexcept;

/// Named event counters aggregated per task.
enum class Counter : std::uint8_t {
  kChunks = 0,         ///< Worksharing chunks this task executed.
  kSteals,             ///< Tasks stolen from a sibling's deque.
  kTasksRun,           ///< Explicit / pool tasks executed.
  kCombines,           ///< Reduction combine operations performed.
  kAtomicUpdates,      ///< atomic_update/atomic_add CAS updates.
  kMessagesSent,       ///< Envelopes this task delivered.
  kMessagesReceived,   ///< Envelopes this task matched.
  kFaultDropped,       ///< Messages pml::fault dropped (sender's lane).
  kFaultDelayed,       ///< Messages pml::fault held back (delay/slow node).
  kFaultDuplicated,    ///< Messages pml::fault deposited twice.
  kRetryAttempts,      ///< send_with_retry resends + recv_retry re-waits.
  kRdvParked,          ///< Large bodies parked in the rendezvous table.
  kRdvBytes,           ///< Bytes claimed pointer-for-pointer (zero-copy).
  kRdvStale,           ///< Stale RTS envelopes skipped (dup/withdrawn).
  kPayloadBytesCopied, ///< Spilled-body bytes memcpy'd on the payload plane.
  kCollSegments,       ///< Ring collective blocks sent.
  kCkptBytes,          ///< Serialized checkpoint-cut bytes committed.
  kCkptMicros,         ///< Microseconds spent sealing checkpoint cuts.
};

/// Number of distinct Counter values (array sizing).
inline constexpr int kCounterKinds = 18;

/// Printable name ("chunks", "steals", "combines", ...).
const char* to_string(Counter c) noexcept;

/// One recorded interval. Timestamps are steady-clock nanoseconds (same
/// clock as TraceEvent::ns); subtract Profile::origin_ns for run-relative
/// time. \p label points at a string literal or interned string — valid for
/// the process lifetime, never owned.
struct Span {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t key = 0;           ///< Kind-specific: chunk begin, lock id, ...
  std::int64_t aux = 0;           ///< Kind-specific: chunk end, partner, ...
  const char* label = nullptr;    ///< Optional display name.
  int task = -1;                  ///< Team-relative thread id or rank.
  SpanKind kind = SpanKind::kRegion;

  std::uint64_t duration_ns() const noexcept { return end_ns - begin_ns; }
};

/// Per-task aggregates: span totals by kind, the event counters, and the
/// task's slice of the metrics registry (one log-bucketed histogram per
/// Metric, merged from the lanes that identified as this task).
struct TaskMetrics {
  std::array<std::uint64_t, kSpanKinds> span_count{};  ///< Spans by kind.
  std::array<std::uint64_t, kSpanKinds> span_ns{};     ///< Total ns by kind.
  std::array<std::uint64_t, kCounterKinds> counters{};
  std::array<Histogram, kMetricKinds> hist{};          ///< Registry slice.
  std::uint64_t spans_dropped = 0;  ///< Ring-buffer overflow on this task.

  std::uint64_t spans(SpanKind k) const noexcept {
    return span_count[static_cast<std::size_t>(k)];
  }
  std::uint64_t ns(SpanKind k) const noexcept {
    return span_ns[static_cast<std::size_t>(k)];
  }
  std::uint64_t value(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  const Histogram& metric(Metric m) const noexcept {
    return hist[static_cast<std::size_t>(m)];
  }
};

/// Everything one profiling Scope collected.
struct Profile {
  std::uint64_t origin_ns = 0;  ///< Scope begin (steady-clock ns).
  std::uint64_t finish_ns = 0;  ///< Scope end.
  /// All spans, merged across threads, sorted by begin_ns.
  std::vector<Span> spans;
  /// Aggregates keyed by task id. Task ids are the team-relative thread ids
  /// / ranks students see in the output; threads that never bound a lane
  /// (e.g. pool workers) get synthetic ids starting at kUnboundTaskBase.
  std::map<int, TaskMetrics> tasks;
  /// Virtual cluster node hosting each task (mp runs only).
  std::map<int, std::string> task_node;
  /// Causal flow edges (mp message halves), merged across tasks and sorted
  /// by timestamp. Pair events by FlowEvent::id; an emit with no recv is a
  /// message that was dropped or never matched.
  std::vector<FlowEvent> flows;
  /// Cluster-wide metrics registry: every task's histograms merged.
  std::array<Histogram, kMetricKinds> hist{};
  /// Deepest any mailbox queue got during the run.
  std::size_t mailbox_high_water = 0;
  /// Spans lost to ring-buffer overflow, all tasks.
  std::uint64_t spans_dropped = 0;
  /// Flow events lost to ring-buffer overflow, all tasks.
  std::uint64_t flows_dropped = 0;

  /// Profiled window length in seconds.
  double seconds() const noexcept {
    return static_cast<double>(finish_ns - origin_ns) * 1e-9;
  }

  /// Cluster-wide histogram for one registry metric.
  const Histogram& metric(Metric m) const noexcept {
    return hist[static_cast<std::size_t>(m)];
  }

  /// Renders the per-task metrics table `--profile` prints: one row per
  /// task with region time, chunk count, barrier-wait ns, lock waits,
  /// combine counts, and message traffic.
  std::string table() const;
};

/// First synthetic task id handed to threads that never bound a sched lane.
inline constexpr int kUnboundTaskBase = 1000;

}  // namespace pml::obs
