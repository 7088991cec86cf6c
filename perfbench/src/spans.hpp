#pragma once

/// \file spans.hpp
/// \brief The benchmark's own spans, recorded around each call it makes
/// into a layer's public functions during a traced run.
///
/// A span is (name, start, end, parent, op id). Each thread appends to its
/// own buffer, so recording takes no lock after the thread's first span;
/// buffers outlive their threads and are merged by collect() once the
/// threads that wrote them have joined. Recording is off unless a
/// Recording scope is live, so the untraced run pays one relaxed load per
/// span site.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span. Ids are unique within a process; parent is 0 for a
/// root span.
struct SpanRec {
  const char* name = nullptr;  ///< String literal; never owned.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t op = -1;  ///< Op the span belongs to (-1: none).
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

  double us() const noexcept { return static_cast<double>(end_ns - begin_ns) * 1e-3; }
  double ms() const noexcept { return static_cast<double>(end_ns - begin_ns) * 1e-6; }
};

/// Steady-clock nanoseconds.
std::uint64_t now_ns() noexcept;

namespace detail {
extern std::atomic<bool> g_recording;
}  // namespace detail

/// True while a Recording scope is live.
inline bool recording() noexcept {
  return detail::g_recording.load(std::memory_order_relaxed);
}

/// RAII span. Parent is the innermost open span on this thread, or the
/// thread's adopted parent (see Adopt) when none is open.
class Span {
 public:
  explicit Span(const char* name, std::int64_t op = -1) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when recording is off).
  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::int64_t op_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t begin_ = 0;
};

/// Makes \p parent the parent of root spans opened on this thread while
/// the guard lives: rank and worker threads adopt the span of the episode
/// that spawned them.
class Adopt {
 public:
  explicit Adopt(std::uint64_t parent) noexcept;
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  std::uint64_t saved_;
};

/// Turns span recording on for its lifetime. Not nestable.
class Recording {
 public:
  Recording() noexcept;
  ~Recording();
  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;
};

/// Moves every span recorded so far out of the thread buffers. Call only
/// after the threads that recorded them have joined or gone idle.
std::vector<SpanRec> collect();

/// Spans not kept because a thread buffer was full, since process start.
std::uint64_t spans_dropped();

/// Durations of the spans named \p name, in microseconds.
std::vector<double> durations_us(const std::vector<SpanRec>& spans, const char* name);

/// Per-name totals: count, inclusive time and self time (a span's duration
/// minus the part of it its children cover), in milliseconds.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SelfTime> self_times(const std::vector<SpanRec>& spans);

/// What collect() has returned since process start, for the span file:
/// the first spans verbatim (a bounded number) and self-time totals per
/// name over all of them.
struct Archive {
  std::vector<SpanRec> spans;
  std::vector<SelfTime> self;
  std::uint64_t total = 0;  ///< Spans collected, kept or not.
};
Archive archived();

}  // namespace perfbench
