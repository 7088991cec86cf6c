#include "obs/profile.hpp"

#include <cstdio>

namespace pml::obs {

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kRegion: return "region";
    case SpanKind::kChunk: return "chunk";
    case SpanKind::kTask: return "task";
    case SpanKind::kBarrier: return "barrier-wait";
    case SpanKind::kLockWait: return "lock-wait";
    case SpanKind::kSend: return "send-wait";
    case SpanKind::kRecv: return "recv-wait";
    case SpanKind::kCollective: return "collective";
    case SpanKind::kRendezvous: return "rendezvous";
    case SpanKind::kCkpt: return "checkpoint";
  }
  return "?";
}

const char* to_string(Counter c) noexcept {
  switch (c) {
    case Counter::kChunks: return "chunks";
    case Counter::kSteals: return "steals";
    case Counter::kTasksRun: return "tasks-run";
    case Counter::kCombines: return "combines";
    case Counter::kAtomicUpdates: return "atomic-updates";
    case Counter::kMessagesSent: return "msgs-sent";
    case Counter::kMessagesReceived: return "msgs-received";
    case Counter::kFaultDropped: return "fault-dropped";
    case Counter::kFaultDelayed: return "fault-delayed";
    case Counter::kFaultDuplicated: return "fault-duplicated";
    case Counter::kRetryAttempts: return "retry-attempts";
    case Counter::kRdvParked: return "rdv-parked";
    case Counter::kRdvBytes: return "rdv-bytes";
    case Counter::kRdvStale: return "rdv-stale";
    case Counter::kPayloadBytesCopied: return "payload-copied-bytes";
    case Counter::kCollSegments: return "coll-segments";
    case Counter::kCkptBytes: return "ckpt-bytes";
    case Counter::kCkptMicros: return "ckpt-micros";
  }
  return "?";
}

namespace {

/// "12345" -> "12.3us"-style compact nanosecond rendering for the table.
std::string pretty_ns(std::uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lluns", static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

std::string task_label(int task) {
  if (task >= kUnboundTaskBase) {
    return "aux " + std::to_string(task - kUnboundTaskBase);
  }
  return "task " + std::to_string(task);
}

}  // namespace

std::string Profile::table() const {
  char row[256];
  std::string out;
  out += "profile: " + std::to_string(spans.size()) + " spans over " +
         pretty_ns(finish_ns - origin_ns) + " across " +
         std::to_string(tasks.size()) + " task(s)";
  if (mailbox_high_water > 0) {
    out += "; mailbox depth high-water " + std::to_string(mailbox_high_water);
  }
  if (spans_dropped > 0) {
    out += "; " + std::to_string(spans_dropped) + " spans DROPPED (buffer full)";
  }
  out += "\n";
  std::snprintf(row, sizeof(row),
                "  %-9s %10s %7s %12s %7s %12s %9s %6s %6s %6s %12s\n", "task",
                "busy", "chunks", "barrier-wait", "lk-wait", "lock-wait-ns",
                "combines", "tasks", "sent", "recvd", "recv-wait");
  out += row;
  for (const auto& [task, m] : tasks) {
    const std::uint64_t busy =
        m.ns(SpanKind::kRegion) != 0 ? m.ns(SpanKind::kRegion)
                                     : m.ns(SpanKind::kChunk) + m.ns(SpanKind::kTask);
    std::snprintf(
        row, sizeof(row), "  %-9s %10s %7llu %12s %7llu %12s %9llu %6llu %6llu %6llu %12s\n",
        task_label(task).c_str(), pretty_ns(busy).c_str(),
        static_cast<unsigned long long>(m.value(Counter::kChunks)),
        pretty_ns(m.ns(SpanKind::kBarrier)).c_str(),
        static_cast<unsigned long long>(m.spans(SpanKind::kLockWait)),
        pretty_ns(m.ns(SpanKind::kLockWait)).c_str(),
        static_cast<unsigned long long>(m.value(Counter::kCombines)),
        static_cast<unsigned long long>(m.value(Counter::kTasksRun)),
        static_cast<unsigned long long>(m.value(Counter::kMessagesSent)),
        static_cast<unsigned long long>(m.value(Counter::kMessagesReceived)),
        pretty_ns(m.ns(SpanKind::kRecv)).c_str());
    out += row;
  }
  // Counters without a fixed column (fault injection, retries, rendezvous,
  // copy accounting) appear as one whole-run totals line when nonzero, so
  // quiet runs stay a clean table.
  static constexpr Counter kExtras[] = {
      Counter::kSteals,          Counter::kAtomicUpdates,
      Counter::kFaultDropped,    Counter::kFaultDelayed,
      Counter::kFaultDuplicated, Counter::kRetryAttempts,
      Counter::kRdvParked,       Counter::kRdvBytes,
      Counter::kRdvStale,        Counter::kPayloadBytesCopied,
      Counter::kCollSegments,    Counter::kCkptBytes,
      Counter::kCkptMicros,
  };
  std::string extras;
  for (const Counter c : kExtras) {
    std::uint64_t sum = 0;
    for (const auto& [task, m] : tasks) sum += m.value(c);
    if (sum == 0) continue;
    std::snprintf(row, sizeof(row), "%s%s %llu", extras.empty() ? "" : "  ",
                  to_string(c), static_cast<unsigned long long>(sum));
    extras += row;
  }
  if (!extras.empty()) out += "  counters: " + extras + "\n";
  return out;
}

}  // namespace pml::obs
