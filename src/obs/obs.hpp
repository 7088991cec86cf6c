#pragma once

/// \file obs.hpp
/// \brief pml::obs — per-task spans, substrate metrics, and the profiling
/// Scope.
///
/// The paper's figures are claims about where time and work go: which thread
/// ran which iteration, how partials combine, how barriers separate phases.
/// pml::trace records *assignment*; this layer records *cost*. The
/// substrates (pml::thread, pml::smp, pml::mp) are compiled with span hooks
/// at the same places pml::sched perturbs and pml::analyze observes:
///
///   - kRegion   one per team thread / rank, covering its whole body;
///   - kChunk    one per worksharing loop chunk;
///   - kTask     one per explicit task / pool task execution;
///   - kBarrier  arrival-to-departure of a barrier wait;
///   - kLockWait contended lock / critical-section acquisition;
///   - kSend     blocking synchronous-send wait (pml::mp ssend);
///   - kRecv     blocking receive wait (pml::mp mailbox);
///   - kCollective  a collective call (barrier, broadcast, reduce, ...).
///
/// Hot-path contract ("free when off", the same bar sched::point() and
/// pml::analyze meet): with no Scope active a hook is one relaxed atomic
/// load and an untaken branch. With a Scope active, a span is two steady-
/// clock reads and a handful of stores into a per-thread buffer that only
/// its owning thread writes — no locks, no allocation after the buffer's
/// one-time reservation. Buffers merge into a Profile at Scope::finish(),
/// after every instrumented thread has joined.
///
/// The runner plumbs the Profile into RunResult::metrics
/// (`RunSpec::profile`, `patternlet_runner --profile`), and
/// obs::write_chrome_trace() exports it as Chrome trace-event JSON
/// (`--trace-json FILE`) that opens directly in Perfetto.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/profile.hpp"

namespace pml::obs {

namespace detail {

/// Nonzero while a Scope is active. Relaxed reads on the hot path.
extern std::atomic<int> g_active;

// Out-of-line slow paths (obs.cpp); only reached while a Scope is live.
void record_span(SpanKind kind, std::uint64_t begin_ns, std::uint64_t end_ns,
                 const char* label, std::int64_t key, std::int64_t aux) noexcept;
void add_counter(Counter c, std::uint64_t delta) noexcept;
void observe_metric(Metric m, std::uint64_t value) noexcept;
std::uint64_t flow_emit(int dest, int tag, std::uint64_t bytes, bool rts,
                        bool dropped) noexcept;
void flow_recv(std::uint64_t id, int source, int tag, std::uint64_t bytes,
               bool rts) noexcept;
void note_queue_depth(std::size_t depth) noexcept;
void bind_task_node(int task, std::string_view node_name) noexcept;
const char* intern_label(std::string_view label) noexcept;

/// Monotonic nanosecond clock shared by every span.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

/// True iff a profiling Scope is active.
inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed) != 0;
}

/// \name Counter hooks
/// One relaxed load when profiling is off; a thread-local increment when on.
/// @{
inline void count(Counter c, std::uint64_t delta = 1) noexcept {
  if (active()) detail::add_counter(c, delta);
}
/// Mailbox depth accounting: tracks the run-wide high-water mark.
inline void on_queue_depth(std::size_t depth) noexcept {
  if (active()) detail::note_queue_depth(depth);
}
/// Records one observation into the calling task's registry histogram for
/// \p m (see histogram.hpp). Wait metrics are fed automatically from span
/// recording; call this for source-site metrics (message latency, retry
/// attempt counts). Off, it is one relaxed load and an untaken branch.
inline void observe(Metric m, std::uint64_t value) noexcept {
  if (active()) detail::observe_metric(m, value);
}
/// @}

/// \name Causal flow hooks (pml::mp message edges)
/// The sender stamps each deposited envelope with flow_emit()'s id; the
/// matching receive completes the edge with flow_recv(). Off-path cost is
/// one relaxed load + branch per hook (flow_emit returns 0, which
/// flow_recv ignores without touching the collector).
/// @{
inline std::uint64_t flow_emit(int dest, int tag, std::uint64_t bytes,
                               bool rts = false, bool dropped = false) noexcept {
  return active() ? detail::flow_emit(dest, tag, bytes, rts, dropped) : 0;
}
inline void flow_recv(std::uint64_t id, int source, int tag,
                      std::uint64_t bytes, bool rts = false) noexcept {
  if (id != 0 && active()) detail::flow_recv(id, source, tag, bytes, rts);
}
/// @}

/// Records which virtual cluster node hosts \p task (mp ranks). Cold path;
/// the Chrome trace export uses it as the Perfetto pid/process name.
inline void on_task_placed(int task, std::string_view node_name) noexcept {
  if (active()) detail::bind_task_node(task, node_name);
}

/// Detaches the calling thread from its lane, so its next event registers a
/// new one, as a new thread's would: a lane's counters go to the task it
/// last saw, and a reused thread must not carry one task's counts into the
/// next. Pooled host threads call this at task start.
void reset_thread() noexcept;

/// RAII span: stamps begin at construction, records [begin, now] at
/// destruction. When profiling is off both ends are a relaxed load and an
/// untaken branch. \p label must be a string literal or an interned string
/// (see intern()); it is stored by pointer, not copied.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, const char* label = nullptr,
                     std::int64_t key = 0, std::int64_t aux = 0) noexcept
      : begin_(active() ? detail::now_ns() : 0),
        key_(key),
        aux_(aux),
        label_(label),
        kind_(kind) {}

  ~SpanScope() {
    if (begin_ != 0 && active()) {
      detail::record_span(kind_, begin_, detail::now_ns(), label_, key_, aux_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Updates the payload after construction (e.g. once the chunk is known).
  void set_payload(std::int64_t key, std::int64_t aux) noexcept {
    key_ = key;
    aux_ = aux;
  }

 private:
  std::uint64_t begin_;
  std::int64_t key_;
  std::int64_t aux_;
  const char* label_;
  SpanKind kind_;
};

/// Interns a dynamically-built label so a Span can reference it for the
/// process lifetime (e.g. "critical(name)"). Returns a stable pointer;
/// repeated calls with equal content return the same pointer. Only call
/// while a Scope is active (it is a no-op returning nullptr otherwise).
inline const char* intern(std::string_view label) noexcept {
  return active() ? detail::intern_label(label) : nullptr;
}

/// RAII profiling window. Exactly one may be active process-wide; nesting
/// throws. finish() merges every thread's span buffer and returns the
/// Profile (idempotent: later calls return the same data). Call it only
/// after the instrumented threads have joined — the runner's contract.
///
/// \p ring_spans caps how many spans (and flow events) each participating
/// thread buffers before counting drops; 0 resolves the PML_OBS_RING_SPANS
/// environment variable, then the built-in default (16 Ki). Overflow
/// accounting is exact either way (Profile::spans_dropped / flows_dropped).
class Scope {
 public:
  explicit Scope(std::size_t ring_spans = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Profile finish();

 private:
  bool finished_ = false;
  Profile profile_;
};

}  // namespace pml::obs
