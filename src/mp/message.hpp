#pragma once

/// \file message.hpp
/// \brief Message envelopes, matching constants, and receive status.

#include <cstdint>
#include <limits>

#include "mp/payload.hpp"

namespace pml::mp {

/// Wildcard source for receives (MPI_ANY_SOURCE analogue).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receives (MPI_ANY_TAG analogue).
inline constexpr int kAnyTag = -1;
/// Largest user tag. Tags above this are reserved for collectives.
inline constexpr int kMaxUserTag = (1 << 20) - 1;

/// One in-flight message.
struct Envelope {
  int context = 0;       ///< Communicator context id (tag namespace).
  int source = -1;       ///< Sending rank (within the context's group).
  int tag = 0;           ///< Message tag.
  Payload data;          ///< Serialized body, or a RendezvousHandle when rts.
  bool wants_ack = false;        ///< Synchronous send: receiver must ack.
  /// Ready-to-send control envelope: data holds a serialized
  /// RendezvousHandle and the real body is parked in the job's rendezvous
  /// table (see mp/rendezvous.hpp). RTS envelopes match like any tagged
  /// message, so non-overtaking is preserved across eager/rendezvous mixes.
  bool rts = false;
  std::uint64_t ack_id = 0;      ///< Ack key when wants_ack.
  std::uint64_t analyze_id = 0;  ///< pml::analyze delivery token (0 = off).
  std::uint64_t send_ns = 0;     ///< pml::obs delivery timestamp (0 = off).
  std::uint64_t flow = 0;        ///< pml::obs causal flow id (0 = off).
  std::uint64_t seq = 0;         ///< Mailbox arrival stamp (wildcard ordering).

  /// Size of the message *body* in bytes: the payload itself on the eager
  /// path, the parked buffer's size for an RTS envelope. This is what
  /// probe() and Status report — the size a receiver will actually get.
  std::size_t body_bytes() const {
    if (!rts) return data.size();
    return static_cast<std::size_t>(Codec<RendezvousHandle>::decode(data).bytes);
  }
};

/// Outcome of a receive (MPI_Status analogue).
struct Status {
  int source = -1;        ///< Actual source (useful with kAnySource).
  int tag = -1;           ///< Actual tag (useful with kAnyTag).
  std::size_t bytes = 0;  ///< Payload size in bytes.

  /// Element count for type T (MPI_Get_count).
  template <typename T>
  std::size_t count() const noexcept {
    return bytes / sizeof(T);
  }
};

/// True iff envelope (context, source, tag) matches a receive request.
inline bool matches(const Envelope& e, int context, int source, int tag) noexcept {
  return e.context == context && (source == kAnySource || e.source == source) &&
         (tag == kAnyTag || e.tag == tag);
}

}  // namespace pml::mp
