#include "obs/obs.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "sched/sched.hpp"

namespace pml::obs {

namespace detail {
std::atomic<int> g_active{0};
}  // namespace detail

namespace {

/// Default spans a single thread can record per scope before dropping.
/// 16 Ki spans * 48 B is ~0.75 MiB per participating thread — enough for
/// every patternlet at its teaching sizes; overflow is counted, never
/// silent. Scope(ring_spans) / PML_OBS_RING_SPANS override it.
constexpr std::size_t kDefaultLaneCapacity = std::size_t{1} << 14;

/// Which registry histogram a span kind's duration feeds (kMetricKinds =
/// "none"): recording a wait span IS the wait-site histogram hook.
constexpr int metric_for(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kBarrier: return static_cast<int>(Metric::kBarrierWait);
    case SpanKind::kLockWait: return static_cast<int>(Metric::kLockWait);
    case SpanKind::kRecv: return static_cast<int>(Metric::kRecvWait);
    case SpanKind::kSend: return static_cast<int>(Metric::kSendWait);
    case SpanKind::kCollective: return static_cast<int>(Metric::kCollectiveWait);
    case SpanKind::kRendezvous: return static_cast<int>(Metric::kRendezvousPark);
    case SpanKind::kTask: return static_cast<int>(Metric::kTaskDuration);
    case SpanKind::kChunk: return static_cast<int>(Metric::kChunkDuration);
    case SpanKind::kRegion: return kMetricKinds;
    case SpanKind::kCkpt: return kMetricKinds;
  }
  return kMetricKinds;
}

/// One thread's span buffer. Only its owning thread writes spans/counters/
/// histograms/flows (merge happens after that thread joined), so no
/// per-event locking.
struct Lane {
  std::vector<Span> spans;
  std::vector<FlowEvent> flows;
  std::array<std::uint64_t, kCounterKinds> counters{};
  std::array<Histogram, kMetricKinds> hist{};
  std::uint64_t dropped = 0;
  std::uint64_t flows_dropped = 0;
  std::size_t capacity;
  int fallback_task;   ///< Used when the thread never bound a sched lane.
  int observed_task;   ///< Task id as of the last event (set by the owner;
                       ///< the merge must not query the owner's TLS).

  Lane(int fallback, std::size_t cap)
      : capacity(cap), fallback_task(fallback), observed_task(fallback) {
    spans.reserve(capacity);
  }

  /// Owning-thread only: resolves the current task id and remembers it for
  /// the merge.
  int task() noexcept {
    const int lane = sched::bound_lane();
    observed_task = lane >= 0 ? lane : fallback_task;
    return observed_task;
  }
};

/// The calling thread's lane, valid while `gen` is the current scope's.
struct LaneCache {
  Lane* lane = nullptr;
  std::uint64_t gen = 0;
};

LaneCache& lane_cache() {
  thread_local LaneCache tl;
  return tl;
}

/// All shared profiling state. The mutex guards registration and scope
/// transitions only — never the per-event hot path — and is a strict leaf:
/// nothing here takes a substrate lock.
class Collector {
 public:
  static Collector& instance() {
    static Collector c;
    return c;
  }

  void begin_scope(std::size_t ring_spans) {
    std::lock_guard lock(mu_);
    if (detail::g_active.load(std::memory_order_relaxed) != 0) {
      throw std::logic_error("obs::Scope: a scope is already active");
    }
    lane_capacity_ = resolve_capacity(ring_spans);  // may throw: before any reset
    lanes_.clear();
    task_node_.clear();
    high_water_.store(0, std::memory_order_relaxed);
    // next_flow_ is deliberately NOT reset: ids stay unique across scopes,
    // so an envelope stamped under an earlier scope can never alias a fresh
    // id if it is matched under this one.
    origin_ns_ = detail::now_ns();
    generation_.fetch_add(1, std::memory_order_relaxed);
    detail::g_active.store(1, std::memory_order_release);
  }

  Profile end_scope() {
    std::lock_guard lock(mu_);
    detail::g_active.store(0, std::memory_order_release);
    Profile p;
    p.origin_ns = origin_ns_;
    p.finish_ns = detail::now_ns();
    p.task_node = task_node_;
    p.mailbox_high_water = high_water_.load(std::memory_order_relaxed);
    for (const auto& lane : lanes_) {
      p.spans.insert(p.spans.end(), lane->spans.begin(), lane->spans.end());
      p.flows.insert(p.flows.end(), lane->flows.begin(), lane->flows.end());
      p.spans_dropped += lane->dropped;
      p.flows_dropped += lane->flows_dropped;
      // A lane's counters belong to the task its thread last identified as
      // (its bound lane is sticky; unbound threads keep their synthetic id).
      TaskMetrics& tm = p.tasks[lane->observed_task];
      for (std::size_t i = 0; i < kCounterKinds; ++i) {
        tm.counters[i] += lane->counters[i];
      }
      for (std::size_t i = 0; i < kMetricKinds; ++i) {
        tm.hist[i].merge(lane->hist[i]);
        p.hist[i].merge(lane->hist[i]);
      }
      tm.spans_dropped += lane->dropped;
    }
    std::sort(p.flows.begin(), p.flows.end(),
              [](const FlowEvent& a, const FlowEvent& b) {
                return a.ns != b.ns ? a.ns < b.ns : a.id < b.id;
              });
    std::sort(p.spans.begin(), p.spans.end(), [](const Span& a, const Span& b) {
      return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                      : a.end_ns < b.end_ns;
    });
    for (const Span& s : p.spans) {
      TaskMetrics& tm = p.tasks[s.task];
      ++tm.span_count[static_cast<std::size_t>(s.kind)];
      tm.span_ns[static_cast<std::size_t>(s.kind)] += s.duration_ns();
    }
    return p;
  }

  /// The calling thread's lane for the current scope, registering on first
  /// use (the only locking event on a profiled thread's lifetime).
  Lane& self() {
    LaneCache& cache = lane_cache();
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (cache.lane == nullptr || cache.gen != gen) {
      std::lock_guard lock(mu_);
      auto lane = std::make_unique<Lane>(
          kUnboundTaskBase + static_cast<int>(lanes_.size()), lane_capacity_);
      cache.lane = lane.get();
      cache.gen = gen;
      lanes_.push_back(std::move(lane));
    }
    return *cache.lane;
  }

  void record_span(SpanKind kind, std::uint64_t begin_ns, std::uint64_t end_ns,
                   const char* label, std::int64_t key, std::int64_t aux) {
    Lane& lane = self();
    // The registry histogram records even when the span ring is full:
    // aggregates are bounded by construction, so they never drop.
    const int m = metric_for(kind);
    if (m != kMetricKinds) {
      lane.hist[static_cast<std::size_t>(m)].record(end_ns - begin_ns);
    }
    if (lane.spans.size() >= lane.capacity) {
      ++lane.dropped;
      (void)lane.task();
      return;
    }
    lane.spans.push_back(
        Span{begin_ns, end_ns, key, aux, label, lane.task(), kind});
  }

  void add_counter(Counter c, std::uint64_t delta) {
    Lane& lane = self();
    (void)lane.task();  // refresh observed_task for the merge
    lane.counters[static_cast<std::size_t>(c)] += delta;
  }

  void observe_metric(Metric m, std::uint64_t value) {
    Lane& lane = self();
    (void)lane.task();
    lane.hist[static_cast<std::size_t>(m)].record(value);
  }

  std::uint64_t flow_emit(int dest, int tag, std::uint64_t bytes, bool rts,
                          bool dropped) {
    // One global counter: ids restricted to any (src, dst, context) channel
    // are still monotonically increasing (a rank's sends on a channel are
    // program-ordered), and every id is trace-unique for Perfetto.
    const std::uint64_t id = next_flow_.fetch_add(1, std::memory_order_relaxed);
    record_flow(FlowEvent{id, detail::now_ns(), bytes, /*task=*/0, dest, tag,
                          FlowPhase::kEmit, rts, dropped});
    return id;
  }

  void flow_recv(std::uint64_t id, int source, int tag, std::uint64_t bytes,
                 bool rts) {
    record_flow(FlowEvent{id, detail::now_ns(), bytes, /*task=*/0, source, tag,
                          FlowPhase::kRecv, rts, false});
  }

  void note_queue_depth(std::size_t depth) {
    std::size_t seen = high_water_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !high_water_.compare_exchange_weak(seen, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  void bind_task_node(int task, std::string_view node) {
    std::lock_guard lock(mu_);
    task_node_[task] = std::string(node);
  }

  const char* intern_label(std::string_view label) {
    std::lock_guard lock(mu_);
    return interned_.emplace(label).first->c_str();
  }

 private:
  /// Explicit capacity wins, then PML_OBS_RING_SPANS, then the default.
  /// The variable is parsed strictly: "-5", "8kb" or an empty value throws
  /// a UsageError naming it, and "0" means the default.
  static std::size_t resolve_capacity(std::size_t explicit_spans) {
    if (explicit_spans != 0) return explicit_spans;
    if (const auto n = env::u64("PML_OBS_RING_SPANS"); n && *n != 0) {
      return static_cast<std::size_t>(*n);
    }
    return kDefaultLaneCapacity;
  }

  void record_flow(FlowEvent e) {
    Lane& lane = self();
    e.task = lane.task();
    if (lane.flows.size() >= lane.capacity) {
      ++lane.flows_dropped;
      return;
    }
    lane.flows.push_back(e);
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::map<int, std::string> task_node_;
  /// Interned dynamic labels. Never cleared: node-based, so c_str() stays
  /// valid for the process lifetime even across scopes.
  std::set<std::string, std::less<>> interned_;
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> next_flow_{1};
  std::size_t lane_capacity_ = kDefaultLaneCapacity;
  std::uint64_t origin_ns_ = 0;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace

namespace detail {

void record_span(SpanKind kind, std::uint64_t begin_ns, std::uint64_t end_ns,
                 const char* label, std::int64_t key, std::int64_t aux) noexcept {
  Collector::instance().record_span(kind, begin_ns, end_ns, label, key, aux);
}
void add_counter(Counter c, std::uint64_t delta) noexcept {
  Collector::instance().add_counter(c, delta);
}
void observe_metric(Metric m, std::uint64_t value) noexcept {
  Collector::instance().observe_metric(m, value);
}
std::uint64_t flow_emit(int dest, int tag, std::uint64_t bytes, bool rts,
                        bool dropped) noexcept {
  return Collector::instance().flow_emit(dest, tag, bytes, rts, dropped);
}
void flow_recv(std::uint64_t id, int source, int tag, std::uint64_t bytes,
               bool rts) noexcept {
  Collector::instance().flow_recv(id, source, tag, bytes, rts);
}
void note_queue_depth(std::size_t depth) noexcept {
  Collector::instance().note_queue_depth(depth);
}
void bind_task_node(int task, std::string_view node_name) noexcept {
  Collector::instance().bind_task_node(task, node_name);
}
const char* intern_label(std::string_view label) noexcept {
  return Collector::instance().intern_label(label);
}

}  // namespace detail

void reset_thread() noexcept { lane_cache() = LaneCache{}; }

Scope::Scope(std::size_t ring_spans) {
  Collector::instance().begin_scope(ring_spans);
}

Scope::~Scope() {
  if (!finished_) (void)finish();
}

Profile Scope::finish() {
  if (!finished_) {
    profile_ = Collector::instance().end_scope();
    finished_ = true;
  }
  return profile_;
}

}  // namespace pml::obs
