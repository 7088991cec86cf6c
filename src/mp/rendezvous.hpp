#pragma once

/// \file rendezvous.hpp
/// \brief The large-message rendezvous table: ownership transfer for bodies
/// above the eager threshold.
///
/// Bodies at or below the eager threshold travel *inside* their envelope
/// (the eager path: one deposit, the payload moves through the mailbox).
/// Larger bodies would drag megabytes through the matching plane on every
/// hop, so they move by **ownership transfer** instead — the in-process
/// analogue of MPI's RTS/CTS rendezvous protocol, in the spirit of
/// lorenzhs/unsafe_mpi's pointer-passing transfers:
///
///   1. the sender *parks* the owned buffer here and deposits a small
///      ready-to-send (RTS) control envelope whose body is a
///      RendezvousHandle (ticket + byte count) instead of the data;
///   2. the RTS envelope matches like any tagged message — the same
///      (context, source, tag) coordinates, the same per-bucket FIFO — so
///      non-overtaking and the two-queue matcher are untouched;
///   3. the matched receiver *claims* the parked buffer by ticket,
///      pointer-for-pointer. A typed claim whose requested type matches
///      the parked one (a std::vector<T> moved into send) hands the very
///      same heap allocation to the receiver: zero copies end to end.
///
/// The table is deliberately a small, self-contained seam — park / claim /
/// drain over an opaque owned box — because the planned multi-process
/// transport replaces exactly this class with a shared-memory region plus
/// a cross-process handle, leaving the protocol above it untouched.
///
/// Fault interplay (see fault/fault.hpp): a dropped RTS leaves its buffer
/// parked. A retrying sender (send_with_retry) re-publishes the *same*
/// ticket, so the eventual claim still succeeds; a buffer still parked at
/// finalize is drained, freed, and reported to the analyze comm lint as a
/// stalled rendezvous. A *duplicated* RTS finds its ticket already
/// claimed; receivers treat such stale control envelopes as never
/// delivered and keep waiting.

#include <any>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace pml::mp {

/// Default eager/rendezvous threshold: bodies over 8 KiB park instead of
/// riding their envelope. Tunable per job via RunOptions::eager_bytes or
/// the PML_MP_EAGER_BYTES environment variable.
inline constexpr std::size_t kDefaultEagerBytes = 8 * 1024;

/// One job's parked large-message buffers, keyed by claim ticket. All
/// methods are thread-safe; tickets are unique for the table's lifetime.
class RendezvousTable {
 public:
  /// One parked body: the owning box (a moved-in std::vector<T>,
  /// std::string, or Payload), a raw view of its contiguous bytes, and the
  /// routing coordinates the finalize-time lint reports for stalls.
  struct Parked {
    std::any storage;               ///< Owns the buffer; type-erased.
    const std::byte* data = nullptr;  ///< Contiguous view into storage.
    std::size_t bytes = 0;            ///< View length.
    int sender = -1;
    int dest = -1;
    int tag = 0;
    int context = 0;
  };

  /// Parks \p body and returns its claim ticket (never 0).
  std::uint64_t park(Parked body);

  /// Claims and removes the buffer parked under \p ticket. Empty when the
  /// ticket was already claimed (a duplicated RTS — the caller should keep
  /// waiting) or withdrawn (a retrying sender that gave up).
  std::optional<Parked> claim(std::uint64_t ticket);

  /// Removes and returns every parked buffer — finalize-time cleanup, so a
  /// lost RTS can never leak its body. The caller reports each entry.
  std::vector<Parked> drain();

  /// Number of currently parked buffers (tests and diagnostics).
  std::size_t parked() const;

  /// Byte copies of every buffer \p sender currently has parked, with
  /// their tickets. Part of a checkpoint cut's channel state: an RTS
  /// envelope snapshot from a mailbox is useless without the parked body
  /// its ticket points at. Copies (not moves) — the live table keeps
  /// ownership until the real claim.
  std::vector<std::pair<std::uint64_t, Parked>> snapshot_for_sender(
      int sender) const;

  /// Re-parks a buffer under its original \p ticket (checkpoint restore).
  /// Advances the ticket counter past \p ticket so post-restore parks can
  /// never collide with restored ones.
  void restore(std::uint64_t ticket, Parked body);

 private:
  /// Held for one hash-map insert or erase; park and claim, which senders
  /// and receivers race on every large message, take it through
  /// thread::lock_briefly.
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Parked> parked_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace pml::mp
