#pragma once

/// \file snapshot.hpp
/// \brief Versioned on-disk format for a committed global checkpoint cut.
///
/// Layout (all integers little-endian):
///
///   magic   "PMLCKPT1"                     8 bytes
///   version u32 (currently 2; version 1 carried one more flag byte per
///                 mailbox envelope and is rejected)
///   seq     u64   commit sequence number (checkpoint call index)
///   calls   u64   per-rank checkpoint() call count after this commit
///   nprocs  u32
///   key     u32 length + bytes
///   per rank (nprocs times):
///     state            u64 length + bytes   (Codec-encoded user state)
///     fault_deliveries u64
///     fault_checkpoints u64
///     output_lines     u64
///     mailbox          u32 count, then per envelope:
///       context u32, source i32, tag i32, rts u8,
///       body u64 length + bytes
///     parks            u32 count, then per parked send:
///       ticket u64, sender i32, dest i32, tag i32, context u32,
///       body u64 length + bytes
///
/// Acks are deliberately not serialized: a restored job starts a fresh ack
/// table, and replaying stale ack ids could falsely complete new ssends.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pml::ckpt {

struct GlobalCut;

/// Serialize \p cut into the versioned byte format above.
std::vector<std::byte> encode(const GlobalCut& cut);

/// Parse a byte image produced by encode(). Throws UsageError on a bad
/// magic, unknown version, or truncated input.
GlobalCut decode(const std::vector<std::byte>& bytes);

/// Atomically write encode(cut) to \p path (tmp file + rename).
/// Throws RuntimeFault on I/O failure.
void save(const std::string& path, const GlobalCut& cut);

/// Read and decode a snapshot file. Throws UsageError when the file is
/// missing or malformed.
GlobalCut load(const std::string& path);

}  // namespace pml::ckpt
