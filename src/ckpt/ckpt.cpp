#include "ckpt/ckpt.hpp"

#include <chrono>
#include <utility>

#include "ckpt/snapshot.hpp"
#include "core/error.hpp"
#include "obs/obs.hpp"

namespace pml::ckpt {

namespace {
Store* g_current = nullptr;
}  // namespace

Store::Store(Options opts) : opts_(std::move(opts)) {
  if (opts_.interval == 0) {
    throw UsageError("ckpt: checkpoint interval must be >= 1");
  }
  if (opts_.max_restarts < 0) {
    throw UsageError("ckpt: max_restarts must be >= 0");
  }
}

void Store::begin_job() {
  std::lock_guard<std::mutex> lock(mu_);
  staged_.clear();
  committed_.reset();
  key_.clear();
  if (!adopted_restart_ && !opts_.restart_from.empty()) {
    // Only the first job adopts the preload; later jobs in the same
    // process (a patternlet body calling mp::run twice) start fresh.
    adopted_restart_ = true;
    auto cut = std::make_shared<GlobalCut>(load(opts_.restart_from));
    key_ = cut->key;
    committed_ = std::move(cut);
  }
}

void Store::stage(std::uint64_t seq, const std::string& key, int rank,
                  RankState rs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (key_.empty()) {
    key_ = key;
  } else if (key_ != key) {
    throw UsageError("ckpt: checkpoint key mismatch: store holds \"" + key_ +
                     "\" but rank " + std::to_string(rank) +
                     " checkpointed \"" + key + "\"");
  }
  staged_[seq][rank] = std::move(rs);
}

void Store::seal(std::uint64_t seq, int nprocs, std::uint64_t calls) {
  auto cut = std::make_shared<GlobalCut>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = staged_.find(seq);
    if (it == staged_.end() || static_cast<int>(it->second.size()) != nprocs) {
      throw RuntimeFault("ckpt: seal(" + std::to_string(seq) +
                         ") with incomplete staging");
    }
    cut->seq = seq;
    cut->calls = calls;
    cut->nprocs = nprocs;
    cut->key = key_;
    cut->ranks.resize(static_cast<std::size_t>(nprocs));
    for (auto& [rank, rs] : it->second) {
      cut->ranks[static_cast<std::size_t>(rank)] = std::move(rs);
    }
    staged_.erase(it);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (opts_.write_hook) opts_.write_hook();
  const std::vector<std::byte> bytes = encode(*cut);
  if (!opts_.save_path.empty()) save(opts_.save_path, bytes);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    committed_ = std::move(cut);
    ++stats_.commits;
    stats_.bytes += bytes.size();
    stats_.write_micros += static_cast<std::uint64_t>(micros);
  }
  if (obs::active()) {
    obs::count(obs::Counter::kCkptBytes, bytes.size());
    obs::count(obs::Counter::kCkptMicros,
               static_cast<std::uint64_t>(micros));
  }
}

std::shared_ptr<const GlobalCut> Store::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

void Store::drop_staged() {
  std::lock_guard<std::mutex> lock(mu_);
  staged_.clear();
}

void Store::note_restart() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.restarts;
}

void Store::note_restored_ranks(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.restored_ranks += static_cast<std::uint64_t>(n);
}

Stats Store::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Scope::Scope(Options opts) {
  if (g_current != nullptr) {
    throw UsageError("ckpt: nested ckpt::Scope");
  }
  store_ = std::make_unique<Store>(std::move(opts));
  g_current = store_.get();
}

Scope::~Scope() { g_current = nullptr; }

bool active() noexcept { return g_current != nullptr; }

Store* current() noexcept { return g_current; }

}  // namespace pml::ckpt
