#include "mp/rendezvous.hpp"

#include <utility>

#include "ckpt/ckpt.hpp"
#include "thread/adaptive_wait.hpp"

namespace pml::mp {

std::uint64_t RendezvousTable::park(Parked body) {
  thread::lock_briefly(mu_);
  std::lock_guard lock(mu_, std::adopt_lock);
  const std::uint64_t ticket = next_ticket_++;
  parked_.emplace(ticket, std::move(body));
  return ticket;
}

std::optional<RendezvousTable::Parked> RendezvousTable::claim(
    std::uint64_t ticket) {
  thread::lock_briefly(mu_);
  std::lock_guard lock(mu_, std::adopt_lock);
  auto it = parked_.find(ticket);
  if (it == parked_.end()) return std::nullopt;
  Parked body = std::move(it->second);
  parked_.erase(it);
  return body;
}

std::vector<RendezvousTable::Parked> RendezvousTable::drain() {
  std::lock_guard lock(mu_);
  std::vector<Parked> stalled;
  stalled.reserve(parked_.size());
  for (auto& [ticket, body] : parked_) stalled.push_back(std::move(body));
  parked_.clear();
  return stalled;
}

std::size_t RendezvousTable::parked() const {
  std::lock_guard lock(mu_);
  return parked_.size();
}

std::vector<ckpt::ParkedCopy> RendezvousTable::snapshot_for_sender(
    int sender) const {
  std::lock_guard lock(mu_);
  std::vector<ckpt::ParkedCopy> out;
  for (const auto& [ticket, body] : parked_) {
    if (body.sender != sender) continue;
    // Copied under the lock: a claim may free the live body any time after
    // it drops.
    out.push_back({ticket, body.sender, body.dest, body.tag, body.context,
                   std::vector<std::byte>(body.data, body.data + body.bytes)});
  }
  return out;
}

void RendezvousTable::restore(std::uint64_t ticket, Parked body) {
  std::lock_guard lock(mu_);
  parked_.insert_or_assign(ticket, std::move(body));
  if (next_ticket_ <= ticket) next_ticket_ = ticket + 1;
}

}  // namespace pml::mp
