#include "ckpt/snapshot.hpp"

#include <cstdio>
#include <cstring>

#include "ckpt/ckpt.hpp"
#include "core/error.hpp"

namespace pml::ckpt {

namespace {

constexpr char kMagic[8] = {'P', 'M', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kVersion = 2;

/// Append-only little-endian writer.
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(int v) { u32(static_cast<std::uint32_t>(v)); }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  void blob64(const void* p, std::size_t n) {
    u64(n);
    bytes(p, n);
  }

 private:
  std::vector<std::byte>& out_;
};

/// Bounds-checked little-endian reader.
class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  int i32() { return static_cast<int>(u32()); }
  std::vector<std::byte> blob64() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::byte> out(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
  }

 private:
  void need(std::uint64_t n) const {
    if (pos_ + n > in_.size()) {
      throw UsageError("checkpoint snapshot: truncated input");
    }
  }
  const std::vector<std::byte>& in_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::byte> encode(const GlobalCut& cut) {
  std::vector<std::byte> out;
  Writer w(out);
  w.bytes(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u64(cut.seq);
  w.u64(cut.calls);
  w.u32(static_cast<std::uint32_t>(cut.nprocs));
  w.u32(static_cast<std::uint32_t>(cut.key.size()));
  w.bytes(cut.key.data(), cut.key.size());
  for (const RankState& rs : cut.ranks) {
    w.blob64(rs.state.data(), rs.state.size());
    w.u64(rs.fault_deliveries);
    w.u64(rs.fault_checkpoints);
    w.u64(rs.output_lines);
    w.u32(static_cast<std::uint32_t>(rs.mailbox.size()));
    for (const mp::Envelope& e : rs.mailbox) {
      w.i32(e.context);
      w.i32(e.source);
      w.i32(e.tag);
      w.u8(e.rts ? 1 : 0);
      w.blob64(e.data.data(), e.data.size());
    }
    w.u32(static_cast<std::uint32_t>(rs.parks.size()));
    for (const ParkedCopy& p : rs.parks) {
      w.u64(p.ticket);
      w.i32(p.sender);
      w.i32(p.dest);
      w.i32(p.tag);
      w.i32(p.context);
      w.blob64(p.bytes.data(), p.bytes.size());
    }
  }
  return out;
}

GlobalCut decode(const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  char magic[8];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw UsageError("checkpoint snapshot: bad magic (not a PMLCKPT1 file)");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw UsageError("checkpoint snapshot: unknown version " +
                     std::to_string(version));
  }
  GlobalCut cut;
  cut.seq = r.u64();
  cut.calls = r.u64();
  cut.nprocs = static_cast<int>(r.u32());
  const std::uint32_t key_len = r.u32();
  cut.key.resize(key_len);
  if (key_len > 0) r.raw(cut.key.data(), key_len);
  cut.ranks.resize(static_cast<std::size_t>(cut.nprocs));
  for (RankState& rs : cut.ranks) {
    rs.state = r.blob64();
    rs.fault_deliveries = r.u64();
    rs.fault_checkpoints = r.u64();
    rs.output_lines = r.u64();
    const std::uint32_t n_mail = r.u32();
    rs.mailbox.resize(n_mail);
    for (mp::Envelope& e : rs.mailbox) {
      e.context = r.i32();
      e.source = r.i32();
      e.tag = r.i32();
      e.rts = r.u8() != 0;
      const std::vector<std::byte> body = r.blob64();
      e.data.append(body.data(), body.size());
    }
    const std::uint32_t n_parks = r.u32();
    rs.parks.resize(n_parks);
    for (ParkedCopy& p : rs.parks) {
      p.ticket = r.u64();
      p.sender = r.i32();
      p.dest = r.i32();
      p.tag = r.i32();
      p.context = r.i32();
      p.bytes = r.blob64();
    }
  }
  return cut;
}

void save(const std::string& path, const GlobalCut& cut) {
  const std::vector<std::byte> bytes = encode(cut);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw RuntimeFault("checkpoint snapshot: cannot open " + tmp);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw RuntimeFault("checkpoint snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw RuntimeFault("checkpoint snapshot: cannot rename " + tmp + " -> " +
                       path);
  }
}

GlobalCut load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw UsageError("checkpoint snapshot: cannot open " + path);
  }
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return decode(bytes);
}

}  // namespace pml::ckpt
