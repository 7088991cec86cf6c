#include "mp/runtime.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "analyze/analyze.hpp"
#include "ckpt/ckpt.hpp"
#include "core/env.hpp"
#include "fault/fault.hpp"
#include "mp/communicator.hpp"
#include "obs/obs.hpp"
#include "sched/coop.hpp"
#include "sched/sched.hpp"
#include "smp/wtime.hpp"
#include "thread/hosts.hpp"

namespace pml::mp {

namespace detail {

RuntimeState::RuntimeState(int np, Cluster c, pml::Trace* message_trace)
    : nprocs(np), cluster(std::move(c)) {
  mailboxes.reserve(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    mailboxes.push_back(std::make_unique<Mailbox>(r, blocked, deliveries, message_trace));
  }
}

std::shared_ptr<pml::thread::Event> RuntimeState::register_ack(std::uint64_t id) {
  auto event = std::make_shared<pml::thread::Event>();
  std::lock_guard lock(ack_mu);
  if (acks_closed) {
    throw RuntimeFault("synchronous send aborted: message-passing runtime shut down");
  }
  acks.emplace(id, event);
  return event;
}

void RuntimeState::acknowledge(std::uint64_t id) {
  std::shared_ptr<pml::thread::Event> event;
  {
    std::lock_guard lock(ack_mu);
    auto it = acks.find(id);
    if (it == acks.end()) return;  // duplicate ack; ignore
    event = it->second;
    acks.erase(it);
  }
  event->set();
}

void RuntimeState::forget_ack(std::uint64_t id) {
  std::lock_guard lock(ack_mu);
  acks.erase(id);
}

void RuntimeState::poison_all() {
  for (auto& mb : mailboxes) mb->poison();
  // Release any rank blocked in an ssend, too, and fail any later one.
  std::lock_guard lock(ack_mu);
  acks_closed = true;
  for (auto& [id, event] : acks) event->set();
  acks.clear();
}

}  // namespace detail

namespace {

/// The deadlock watchdog, run by the launcher while it waits for the
/// ranks: if every still-running rank sits in an indefinite wait and no
/// message is delivered for the whole grace period, nothing can ever make
/// progress (only ranks produce messages) — poison the job so it aborts
/// with a diagnosis instead of hanging the process. Returns once every rank
/// has finished or the job is poisoned.
void watch_for_deadlock(detail::RuntimeState& state, pml::thread::TaskGroup& ranks,
                        std::chrono::milliseconds grace) {
  const auto tick = std::chrono::milliseconds(50);
  const long needed_ticks = std::max<long>(1, grace.count() / tick.count());
  long stuck_ticks = 0;
  std::uint64_t last_deliveries = state.deliveries.load();
  // wait_for returns true once every rank has finished (no 50ms teardown
  // penalty for short jobs); false means one tick elapsed — inspect.
  while (!ranks.wait_for(tick)) {
    const int live = state.nprocs - state.finished.load(std::memory_order_relaxed);
    const int blocked = state.blocked.load(std::memory_order_relaxed);
    const std::uint64_t delivered = state.deliveries.load();
    if (live > 0 && blocked == live && delivered == last_deliveries) {
      if (++stuck_ticks >= needed_ticks) {
        state.deadlock_detected.store(true);
        state.poison_all();
        return;
      }
    } else {
      stuck_ticks = 0;
      last_deliveries = delivered;
    }
  }
}

}  // namespace

void run(int nprocs, const std::function<void(Communicator&)>& program,
         const RunOptions& options) {
  if (nprocs <= 0) throw UsageError("mp::run: nprocs must be positive");
  if (!program) throw UsageError("mp::run: program must be callable");

  // Resolve the env-tunable knobs once, up front, with the strict parser:
  // "PML_MP_EAGER_BYTES=8kb" or a negative timeout fails loudly naming the
  // variable instead of silently becoming 8 or wrapping around.
  auto collective_timeout = options.collective_timeout;
  if (collective_timeout.count() == 0) {
    if (const auto ms = env::u64("PML_MP_COLLECTIVE_TIMEOUT_MS")) {
      collective_timeout = std::chrono::milliseconds(static_cast<long long>(*ms));
    }
  }
  std::size_t eager_bytes = kDefaultEagerBytes;
  if (options.eager_bytes.has_value()) {
    eager_bytes = *options.eager_bytes;
  } else if (const auto bytes = env::u64("PML_MP_EAGER_BYTES")) {
    // The threshold is a size, and an explicit "0" (route every non-empty
    // body through the rendezvous) is meaningful.
    eager_bytes = static_cast<std::size_t>(*bytes);
  }

  // Checkpoint store: a process-wide ckpt::Scope (the runner's --ckpt)
  // wins; otherwise RunOptions::checkpoint_interval builds a job-local
  // in-memory store. Either way begin_job() drops cuts left over from a
  // previous job sharing the store (and adopts --restart-from once).
  std::unique_ptr<ckpt::Store> local_store;
  ckpt::Store* store = ckpt::current();
  if (store == nullptr && options.checkpoint_interval.has_value()) {
    ckpt::Options copts;
    copts.interval = *options.checkpoint_interval;
    copts.max_restarts = options.max_restarts;
    local_store = std::make_unique<ckpt::Store>(copts);
    store = local_store.get();
  }
  if (store != nullptr) store->begin_job();
  const std::uint64_t baseline_lines =
      (store != nullptr && store->output_total) ? store->output_total() : 0;
  const int max_restarts = store != nullptr ? store->options().max_restarts : 0;

  // Elastic recovery bookkeeping, accumulated across attempts: nodes the
  // crash action has killed so far, and the rank -> surviving-node
  // overrides the next attempt's cluster is built with.
  std::set<int> dead_nodes;
  std::map<int, int> rehost;

  for (int attempt = 0;; ++attempt) {
    Cluster cluster = options.cluster;
    for (const auto& [r, n] : rehost) cluster.rehost(r, n);

    auto state = std::make_shared<detail::RuntimeState>(nprocs, std::move(cluster),
                                                        options.message_trace);
    state->start_time = pml::smp::wtime();
    state->collective_timeout = collective_timeout;
    state->eager_bytes = eager_bytes;
    if (store != nullptr) {
      state->ckpt_store = store;
      state->ckpt_calls.assign(static_cast<std::size_t>(nprocs), 0);
      state->ckpt_restore_pending.assign(static_cast<std::size_t>(nprocs), 0);
    }

    // Bind an active fault plan to this attempt's topology: node names in
    // the spec resolve against the cluster (a bad name throws UsageError
    // here, before any thread spawns) and a crashing node gets the power to
    // poison its ranks' mailboxes. Declared after `state` so the binding
    // unhooks before the state it points into is torn down. Rebinding per
    // attempt also clears the crashed-rank list, so ranks recovered on a
    // previous attempt are not double-reported to the caller.
    std::optional<fault::JobBinding> fault_binding;
    if (fault::active()) {
      fault::JobHooks hooks;
      hooks.nprocs = nprocs;
      hooks.resolve_node = [cl = &state->cluster](const std::string& name) {
        return cl->find_node(name);
      };
      hooks.node_of = [cl = &state->cluster, nprocs](int r) {
        return cl->node_of(r, nprocs);
      };
      hooks.node_name = [cl = &state->cluster](int n) { return cl->node_name(n); };
      hooks.poison_rank = [st = state.get()](int r) {
        st->mailboxes[static_cast<std::size_t>(r)]->poison();
      };
      fault_binding.emplace(std::move(hooks));
    }

    // Restore from the committed cut when there is one: after a crash on a
    // previous attempt, or on the very first attempt when the store adopted
    // a --restart-from snapshot. Each rank's serialized state is handed
    // back by its first checkpoint() call, and its fault lane counters are
    // restored as it starts; the channel state — queued envelopes and
    // parked rendezvous bodies — is replayed into the fresh mailboxes/table
    // here, before any rank runs. A crash that beat the first commit leaves
    // no cut, and the attempt replays from scratch (on the re-hosted
    // cluster, so the crash cannot recur).
    if (store != nullptr) {
      std::shared_ptr<const ckpt::GlobalCut> cut = store->committed();
      if (cut != nullptr && cut->nprocs == nprocs) {
        for (int r = 0; r < nprocs; ++r) {
          const auto idx = static_cast<std::size_t>(r);
          const ckpt::RankState& rs = cut->ranks[idx];
          state->ckpt_restore_pending[idx] = 1;
          for (const Envelope& queued : rs.mailbox) {
            Envelope e = queued;
            // This job stamps its own ack/analyze/obs ids; a stale ack id
            // could complete the wrong ssend. The original sender's ack
            // already fired (or it gave up) before the cut.
            e.wants_ack = false;
            e.ack_id = 0;
            e.analyze_id = 0;
            e.send_ns = 0;
            e.flow = 0;
            e.seq = 0;
            state->mailboxes[idx]->restore(std::move(e));
          }
          for (const ckpt::ParkedCopy& pc : rs.parks) {
            auto parked = RendezvousTable::Parked::owning(pc.bytes);
            parked.sender = pc.sender;
            parked.dest = pc.dest;
            parked.tag = pc.tag;
            parked.context = pc.context;
            state->rendezvous.restore(pc.ticket, std::move(parked));
          }
        }
        store->note_restored_ranks(nprocs);
        state->ckpt_restore = std::move(cut);
      }
    }

    std::vector<int> world_group(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) world_group[static_cast<std::size_t>(r)] = r;

    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
    {
      pml::thread::TaskGroup ranks(nprocs, nprocs);
      for (int r = 0; r < nprocs; ++r) {
        ranks.start(r, [&, r] {
          // The rank's lane is its world rank, as fork_join's is the team id:
          // a chaos seed replays the same per-rank schedule, and fault
          // decisions, crash targeting and the profile's task ids read it.
          sched::bind_lane(static_cast<std::uint32_t>(r));
          if (state->ckpt_restore != nullptr && fault::active()) {
            // Resume the fault decision stream where the cut froze it, so a
            // seeded run replays the identical injections across a restart.
            const ckpt::RankState& rs =
                state->ckpt_restore->ranks[static_cast<std::size_t>(r)];
            fault::lane_restore({rs.fault_deliveries, rs.fault_checkpoints});
          }
          Communicator world(state, /*context=*/0, world_group, r);
          // Topology for the profile: which virtual node hosts this rank
          // (the Perfetto process lane), plus one region span per rank.
          if (obs::active()) {
            obs::on_task_placed(
                r, state->cluster.node_name(state->cluster.node_of(r, nprocs)));
          }
          try {
            obs::SpanScope region{obs::SpanKind::kRegion, "rank", r, nprocs};
            program(world);
          } catch (const sched::CoopAbort&) {
            // Verification run aborted mid-wait; unwind quietly.
          } catch (const fault::NodeCrashFault&) {
            // A contained failure: the crash already poisoned exactly the
            // mailboxes on the dead node, so healthy ranks keep running —
            // that is the whole point of injecting a node crash. No
            // poison_all; finished++ below still keeps the watchdog honest.
            errors[static_cast<std::size_t>(r)] = std::current_exception();
          } catch (...) {
            errors[static_cast<std::size_t>(r)] = std::current_exception();
            // A dead rank would leave peers blocked forever; wake them so the
            // job aborts instead of hanging.
            state->poison_all();
          }
          state->finished.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // Under cooperative verification the scheduler itself proves
      // deadlocks (a fruitless sweep over all blocked lanes), so the
      // wall-clock watchdog would only add false timing.
      if (options.deadlock_grace.count() > 0 && !sched::coop_active()) {
        watch_for_deadlock(*state, ranks, options.deadlock_grace);
      }
      ranks.join();
    }

    // Elastic recovery: an injected node crash with a checkpoint store and
    // attempts to spare is not a failure — it is the scenario the store
    // exists for. Move the dead node's ranks onto survivors, roll the
    // captured output back to the committed cut (or to the job's start when
    // none committed yet), invalidate half-staged snapshots, and go again.
    bool node_crash = false;
    for (const auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const fault::NodeCrashFault& f) {
        node_crash = true;
        dead_nodes.insert(f.node());
      } catch (...) {
      }
    }
    if (store != nullptr && node_crash && attempt < max_restarts) {
      std::vector<int> survivors;
      for (int n = 0; n < state->cluster.node_count(); ++n) {
        if (dead_nodes.find(n) == dead_nodes.end()) survivors.push_back(n);
      }
      if (!survivors.empty()) {
        std::size_t next = 0;
        for (int r = 0; r < nprocs; ++r) {
          if (dead_nodes.count(state->cluster.node_of(r, nprocs)) != 0) {
            rehost[r] = survivors[next++ % survivors.size()];
          }
        }
        const std::shared_ptr<const ckpt::GlobalCut> cut = store->committed();
        if (cut != nullptr && cut->nprocs == nprocs) {
          if (store->output_rollback) {
            std::map<int, std::uint64_t> marks;
            for (int r = 0; r < nprocs; ++r) {
              marks[r] = cut->ranks[static_cast<std::size_t>(r)].output_lines;
            }
            store->output_rollback(marks);
          }
        } else if (store->output_rollback_total) {
          store->output_rollback_total(baseline_lines);
        }
        store->drop_staged();
        store->note_restart();
        continue;
      }
      // Every node is dead: nothing to re-host onto; report the crash.
    }

    // Finalize-time comm lint: any message still queued was sent but never
    // received — the MPI "unmatched send" bug class.
    if (analyze::active()) {
      for (int dest = 0; dest < nprocs; ++dest) {
        for (const Envelope& e :
             state->mailboxes[static_cast<std::size_t>(dest)]->snapshot()) {
          analyze::on_mp_leftover(dest, e.source, e.tag, e.context);
        }
      }
    }

    // Drain the rendezvous table: a body parked for an RTS that was dropped
    // (or never received) must not outlive the job. Freeing happens here by
    // construction — `stalled` owns the buffers — and the comm lint names
    // each stall so `--analyze --fault` explains the recovery toggle.
    {
      const auto stalled = state->rendezvous.drain();
      if (analyze::active()) {
        for (const auto& p : stalled) {
          analyze::on_mp_rdv_stalled(p.sender, p.dest, p.tag, p.context, p.bytes);
        }
      }
    }

    if (state->deadlock_detected.load()) {
      std::string msg =
          "deadlock detected: all live ranks were blocked in indefinite "
          "receives/synchronous sends with no message in flight for " +
          std::to_string(options.deadlock_grace.count()) + " ms";
      if (fault::active()) {
        // The hang is (probably) induced, not inherent: say so, and teach
        // the recovery toggles. The analyze lint gets the same event so
        // `--analyze --fault` names the fix in its findings.
        const fault::Stats fs = fault::stats();
        if (fs.dropped > 0) {
          analyze::on_mp_fault_stall(fs.dropped, options.deadlock_grace.count());
          msg += " (fault injection dropped " + std::to_string(fs.dropped) +
                 " message(s); make the pattern fault-tolerant with "
                 "Communicator::send_with_retry / recv_retry, or set "
                 "RunOptions::collective_timeout so collectives degrade "
                 "instead of hanging)";
        }
        const std::vector<int> dead = fault::crashed_ranks();
        if (!dead.empty()) {
          msg += " [crashed ranks:";
          for (int r : dead) msg += " " + std::to_string(r);
          msg += "]";
        }
      }
      throw DeadlockError(msg);
    }

    // Prefer the root cause over secondary "runtime shut down" faults that
    // the poison pill induced in otherwise-healthy ranks. An injected node
    // crash outranks those secondaries (it is why they happened) but never
    // masks a genuine program error.
    std::exception_ptr chosen;
    int chosen_rank = 0;  // 0 none, 1 generic RuntimeFault, 2 crash, 3 other
    for (const auto& e : errors) {
      if (!e) continue;
      int rank_class = 1;
      try {
        std::rethrow_exception(e);
      } catch (const fault::NodeCrashFault&) {
        rank_class = 2;
      } catch (const RuntimeFault&) {
        rank_class = 1;
      } catch (...) {
        rank_class = 3;
      }
      if (rank_class > chosen_rank) {
        chosen = e;
        chosen_rank = rank_class;
        if (rank_class == 3) break;
      }
    }
    if (chosen) std::rethrow_exception(chosen);
    return;
  }
}

}  // namespace pml::mp
