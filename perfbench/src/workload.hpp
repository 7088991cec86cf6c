#pragma once

/// \file workload.hpp
/// \brief What every benchmark workload provides, and the records it fills.
///
/// A workload is a closed loop with one client: it runs one *episode* (a
/// batch of ops — a catalog sweep, a stencil job, a farmed image, a deck of
/// allreduces), checks the episode's outputs against references built in
/// setup(), and only then starts the next. Timing, correctness and the
/// computed payload bytes land in OpStats.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "mp/runtime.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"

namespace perfbench {

/// Untraced ops run with every tooling layer off; traced ops add an
/// obs::Scope and (for mp jobs) a message trace. The benchmark's own spans
/// record in either mode while a Recording scope (spans.hpp) is live.
enum class Mode { kPlain, kTraced };

/// One block of consecutive episodes holding at least OpStats::kBlockOps
/// ops, summarized. The end-to-end metrics are medians over blocks, so a
/// stretch of the run that a noisy neighbour slowed moves them little.
struct Block {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double payload_GBps = 0.0;
};

/// What a run of episodes measured. Episodes add to the running totals and
/// to latency_ms; end_episode() closes a block once it holds enough ops.
struct OpStats {
  /// Ops per block: enough that each block's p99 has ten samples beyond it.
  static constexpr long kBlockOps = 1000;

  std::vector<double> latency_ms;  ///< Op latencies of the open block.
  long attempted = 0;              ///< Ops started.
  long failed = 0;                 ///< Wrong result, exception or timeout.
  double window_s = 0.0;           ///< Timed window the ops ran in.
  double payload_bytes = 0.0;      ///< Computed from the body sizes sent.
  std::vector<Block> blocks;       ///< Closed blocks.

  /// \p force closes a short block too (the smoke check's tiny windows).
  void end_episode(bool force = false) {
    const long ops = attempted - open_.attempted;
    if (ops < (force ? 1 : kBlockOps)) return;
    const double window = window_s - open_.window_s;
    blocks.push_back(Block{
        static_cast<double>(ops - (failed - open_.failed)) / window,
        quantile(latency_ms, 0.50),
        quantile(latency_ms, 0.90),
        quantile(latency_ms, 0.99),
        (payload_bytes - open_.payload_bytes) / window * 1e-9,
    });
    latency_ms.clear();
    open_ = Mark{attempted, failed, window_s, payload_bytes};
  }

 private:
  struct Mark {
    long attempted = 0;
    long failed = 0;
    double window_s = 0.0;
    double payload_bytes = 0.0;
  };
  Mark open_;  ///< Totals when the open block began.
};

/// Exact counts over a fixed op set, from a traced pass.
struct Counts {
  long ops = 0;
  std::uint64_t msgs = 0;          ///< Delivered envelopes.
  std::uint64_t bytes = 0;         ///< Their payload bytes.
  std::uint64_t rdv_parked = 0;    ///< Bodies parked for rendezvous.
  std::uint64_t bytes_copied = 0;  ///< Payload bytes memcpy'd by the runtime.

  bool operator==(const Counts&) const = default;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the seeded inputs and sequential references and warms up.
  /// Repeatable: each call starts from scratch. \p quick shrinks the
  /// episode and warm-up sizes for the smoke check.
  virtual void setup(std::uint64_t seed, bool quick) = 0;

  /// Runs one episode, appending to \p out.
  virtual void episode(Mode mode, OpStats& out) = 0;

  /// Traced pass over a fixed op set, returning exact counts.
  virtual Counts count_pass() = 0;

  /// Per-layer metrics this workload owns, from fixed-size passes.
  virtual void layer_metrics(std::vector<Metric>& out) = 0;

  /// Corrupts the reference the correctness gate checks against, so a
  /// test can show that the next episode counts failures.
  virtual void perturb_reference() = 0;
};

std::unique_ptr<Workload> make_catalog();
std::unique_ptr<Workload> make_halo();
std::unique_ptr<Workload> make_farm();
std::unique_ptr<Workload> make_bulk();

/// Throws unless \p mode is traced or no tooling layer is recording: the
/// untraced run must open no obs::Scope and attach no message trace.
void check_untraced(Mode mode, const pml::Trace* message_trace = nullptr);

/// Folds a profile's rendezvous-park and payload-copy counters into \p c.
void add_obs_counts(const pml::obs::Profile& profile, Counts& c);

/// The tooling one mp episode runs under. Traced: a message trace in
/// options and an obs::Scope open from construction to finish(). Untraced:
/// default options (no trace, the default watchdog) and no scope.
class Tooling {
 public:
  explicit Tooling(Mode mode, std::size_t ring_spans = 0);

  pml::mp::RunOptions options;

  /// Traced only: closes the scope into \p profile and sets \p counts to
  /// the exact counts of the episode's \p ops ops. Untraced: no-op.
  void finish(long ops, std::optional<pml::obs::Profile>& profile, Counts& counts);

 private:
  std::optional<pml::Trace> messages_;
  std::optional<pml::obs::Scope> scope_;
};

}  // namespace perfbench
