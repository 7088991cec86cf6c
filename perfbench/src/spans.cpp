#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace detail {
std::atomic<bool> g_recording{false};
}  // namespace detail

namespace {

/// Spans one thread buffer keeps between collect() calls; beyond it spans
/// are counted, not stored, so a long traced window stays bounded.
constexpr std::size_t kMaxSpansPerBuffer = std::size_t{1} << 17;

/// One thread's span buffer. Reused by a later thread once its owner
/// exits, so short-lived rank threads do not grow the pool without bound.
struct Buffer {
  std::vector<SpanRec> spans;
  std::uint64_t index = 0;  ///< High bits of the ids this buffer hands out.
  std::uint64_t next = 0;   ///< Low bits of the next id.
  std::vector<std::uint64_t> open;  ///< Ids of the spans open on the owner.
  std::uint64_t adopted = 0;
  std::uint64_t dropped = 0;
};

/// Spans the archive keeps verbatim.
constexpr std::size_t kArchiveSpans = 50000;

struct Pool {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> all;
  std::vector<Buffer*> idle;
  std::vector<SpanRec> archive;
  std::map<std::string, SelfTime> self;
  std::uint64_t archived = 0;

  static Pool& instance() {
    static Pool p;
    return p;
  }
};

/// Hands the buffer back to the pool when its thread exits.
struct Holder {
  Buffer* buf = nullptr;
  ~Holder() {
    if (buf == nullptr) return;
    buf->open.clear();
    buf->adopted = 0;
    Pool& pool = Pool::instance();
    std::lock_guard lock(pool.mu);
    pool.idle.push_back(buf);
  }
};

Buffer& self() {
  thread_local Holder holder;
  if (holder.buf == nullptr) {
    Pool& pool = Pool::instance();
    std::lock_guard lock(pool.mu);
    if (!pool.idle.empty()) {
      holder.buf = pool.idle.back();
      pool.idle.pop_back();
    } else {
      pool.all.push_back(std::make_unique<Buffer>());
      holder.buf = pool.all.back().get();
      holder.buf->index = pool.all.size();
    }
  }
  return *holder.buf;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(const char* name, std::int64_t op) noexcept : name_(name), op_(op) {
  if (!recording()) return;
  Buffer& b = self();
  id_ = (b.index << 40) | ++b.next;
  parent_ = b.open.empty() ? b.adopted : b.open.back();
  b.open.push_back(id_);
  begin_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t end = now_ns();
  Buffer& b = self();
  if (!b.open.empty()) b.open.pop_back();
  if (b.spans.size() >= kMaxSpansPerBuffer) {
    ++b.dropped;
    return;
  }
  b.spans.push_back(SpanRec{name_, id_, parent_, op_, begin_, end});
}

Adopt::Adopt(std::uint64_t parent) noexcept {
  Buffer& b = self();
  saved_ = b.adopted;
  b.adopted = parent;
}

Adopt::~Adopt() { self().adopted = saved_; }

Recording::Recording() noexcept { detail::g_recording.store(true, std::memory_order_relaxed); }

Recording::~Recording() { detail::g_recording.store(false, std::memory_order_relaxed); }

std::vector<SpanRec> collect() {
  Pool& pool = Pool::instance();
  std::lock_guard lock(pool.mu);
  std::vector<SpanRec> out;
  for (auto& b : pool.all) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
    b->spans.shrink_to_fit();
  }
  std::sort(out.begin(), out.end(), [](const SpanRec& a, const SpanRec& b) {
    return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns : a.id < b.id;
  });
  for (const SelfTime& t : self_times(out)) {
    SelfTime& acc = pool.self[t.name];
    acc.name = t.name;
    acc.count += t.count;
    acc.total_ms += t.total_ms;
    acc.self_ms += t.self_ms;
  }
  const std::size_t room = kArchiveSpans - std::min(kArchiveSpans, pool.archive.size());
  pool.archive.insert(pool.archive.end(), out.begin(),
                      out.begin() + static_cast<std::ptrdiff_t>(std::min(room, out.size())));
  pool.archived += out.size();
  return out;
}

Archive archived() {
  Pool& pool = Pool::instance();
  std::lock_guard lock(pool.mu);
  Archive a{pool.archive, {}, pool.archived};
  for (const auto& [name, t] : pool.self) a.self.push_back(t);
  return a;
}

std::uint64_t spans_dropped() {
  Pool& pool = Pool::instance();
  std::lock_guard lock(pool.mu);
  std::uint64_t n = 0;
  for (const auto& b : pool.all) n += b->dropped;
  return n;
}

std::vector<double> durations_us(const std::vector<SpanRec>& spans, const char* name) {
  std::vector<double> out;
  for (const SpanRec& s : spans) {
    if (std::string_view(s.name) == name) out.push_back(s.us());
  }
  return out;
}

std::vector<SelfTime> self_times(const std::vector<SpanRec>& spans) {
  // Children grouped by parent, as [begin, end) intervals.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.begin_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRec& s : spans) {
    // Covered = union of the children's intervals clipped to this span.
    std::uint64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      for (auto [b, e] : iv) {
        b = std::clamp(b, s.begin_ns, s.end_ns);
        e = std::clamp(e, s.begin_ns, s.end_ns);
        if (b >= hi) {
          covered += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      covered += hi - lo;
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += s.ms();
    t.self_ms += static_cast<double>(s.end_ns - s.begin_ns - covered) * 1e-6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

}  // namespace perfbench
