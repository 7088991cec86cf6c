#include <stdexcept>

#include "workload.hpp"

namespace perfbench {

void check_untraced(Mode mode, const pml::Trace* message_trace) {
  if (mode == Mode::kTraced) return;
  if (pml::obs::active()) {
    throw std::logic_error("untraced op ran with an obs::Scope open");
  }
  if (message_trace != nullptr) {
    throw std::logic_error("untraced op attached a message trace");
  }
}

void add_obs_counts(const pml::obs::Profile& profile, Counts& c) {
  for (const auto& [task, m] : profile.tasks) {
    c.rdv_parked += m.value(pml::obs::Counter::kRdvParked);
    c.bytes_copied += m.value(pml::obs::Counter::kPayloadBytesCopied);
  }
}

Tooling::Tooling(Mode mode, std::size_t ring_spans) {
  if (mode == Mode::kPlain) return;
  messages_.emplace();
  options.message_trace = &*messages_;
  scope_.emplace(ring_spans);
}

void Tooling::finish(long ops, std::optional<pml::obs::Profile>& profile, Counts& counts) {
  if (!scope_) return;
  profile = scope_->finish();
  counts = Counts{.ops = ops};
  for (const pml::TraceEvent& e : messages_->events("message")) {
    ++counts.msgs;
    counts.bytes += static_cast<std::uint64_t>(e.aux);
  }
  add_obs_counts(*profile, counts);
}

}  // namespace perfbench
