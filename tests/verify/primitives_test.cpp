// Every blocking primitive explored to quiescence under the cooperative
// scheduler, with the search's size pinned. No patternlet drives RwLock,
// Spinlock, Monitor, OrderedTicket, StealingPool, Latch, smp tasks or
// Event::wait_for, so without these bodies no test would notice a wait
// that blocks, wakes or re-polls differently under a sink. Exploration is
// deterministic (Explore.DeterministicAcrossRuns), so `executions` and
// `decisions` are exact counts, and a coop call added to or dropped from
// an explored path changes them.

#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <stdexcept>
#include <utility>

#include "mp/mp.hpp"
#include "smp/smp.hpp"
#include "thread/condvar.hpp"
#include "thread/latch.hpp"
#include "thread/mutex.hpp"
#include "thread/pool.hpp"
#include "thread/semaphore.hpp"
#include "thread/stealing.hpp"
#include "thread/thread.hpp"

namespace pml::verify {
namespace {

using pml::smp::atomic_read;
using pml::smp::atomic_write;
using pml::thread::fork_join;

struct Pinned {
  std::uint64_t executions;
  std::uint64_t decisions;
};

/// Explores \p body to quiescence in both search modes and checks the size
/// of each search. The explorer skips an execution whose signature it has
/// seen, and signatures hash each footprint address as its first-touch
/// index within the execution, so how many DPOR executions coincide does
/// not depend on where the allocator puts a body's heap footprints (a
/// team's task pool, a job's mailboxes) — under ASan's quarantine too.
void expect_pinned(const std::function<void()>& body, Pinned dpor, Pinned chess) {
  for (const auto& [mode, want] :
       {std::pair{Mode::kDpor, dpor}, std::pair{Mode::kChess, chess}}) {
    SCOPED_TRACE(to_string(mode));
    Options o;
    o.mode = mode;
    o.max_executions = 400;
    const Result r = explore(body, o);
    EXPECT_FALSE(r.found) << r.finding.kind << ": " << r.finding.detail;
    EXPECT_TRUE(r.quiesced);
    EXPECT_EQ(r.executions, want.executions);
    EXPECT_EQ(r.decisions, want.decisions);
  }
}

TEST(ExplorePrimitive, Mutex) {
  expect_pinned(
      [] {
        long shared = 0;
        pml::thread::Mutex mu;
        fork_join(2, [&](int) {
          pml::thread::LockGuard guard(mu);
          atomic_write(shared, atomic_read(shared, "shared") + 1, "shared");
        });
      },
      Pinned{6, 58}, {18, 170});
}

TEST(ExplorePrimitive, Spinlock) {
  expect_pinned(
      [] {
        long shared = 0;
        pml::thread::Spinlock spin;
        fork_join(2, [&](int) {
          spin.lock();
          atomic_write(shared, atomic_read(shared, "shared") + 1, "shared");
          spin.unlock();
        });
      },
      Pinned{6, 58}, {18, 170});
}

TEST(ExplorePrimitive, RwLock) {
  // One writer, two readers: readers also queue behind a waiting writer.
  expect_pinned(
      [] {
        long shared = 0;
        pml::thread::RwLock rw;
        fork_join(3, [&](int id) {
          if (id == 0) {
            rw.lock();
            atomic_write(shared, 1L, "shared");
            rw.unlock();
          } else {
            pml::thread::SharedGuard guard(rw);
            (void)atomic_read(shared, "shared");
          }
        });
      },
      Pinned{17, 193}, {222, 2406});
}

TEST(ExplorePrimitive, Semaphore) {
  expect_pinned(
      [] {
        long item = 0;
        pml::thread::Semaphore full(0);
        fork_join(2, [&](int id) {
          if (id == 0) {
            full.wait();
            if (atomic_read(item, "item") != 7) throw std::logic_error("lost item");
          } else {
            atomic_write(item, 7L, "item");
            full.post();
          }
        });
      },
      Pinned{1, 6}, {3, 17});
}

TEST(ExplorePrimitive, EventWaitFor) {
  expect_pinned(
      [] {
        long item = 0;
        pml::thread::Event ready;
        pml::thread::Event never;
        fork_join(2, [&](int id) {
          if (id == 0) {
            if (ready.wait_for(std::chrono::milliseconds(5)) &&
                atomic_read(item, "item") != 7) {
              throw std::logic_error("lost item");
            }
            // Nobody sets this one: its timeout is granted once no untimed
            // lane can progress.
            if (never.wait_for(std::chrono::milliseconds(5))) {
              throw std::logic_error("woken without a set");
            }
          } else {
            atomic_write(item, 7L, "item");
            ready.set();
          }
        });
      },
      Pinned{1, 9}, {3, 26});
}

TEST(ExplorePrimitive, Monitor) {
  expect_pinned(
      [] {
        long shared = 0;
        pml::thread::Monitor<int> m(0);
        fork_join(2, [&](int id) {
          if (id == 0) {
            m.wait_then([](int v) { return v == 1; }, [&](int& v) {
              atomic_write(shared, atomic_read(shared, "shared") + 1, "shared");
              v = 2;
            });
          } else {
            m.with_lock([&](int& v) {
              atomic_write(shared, atomic_read(shared, "shared") + 1, "shared");
              v = 1;
            });
          }
        });
        if (m.load() != 2) throw std::logic_error("monitor lost the update");
      },
      Pinned{1, 8}, {4, 31});
}

TEST(ExplorePrimitive, Latch) {
  expect_pinned(
      [] {
        long slots[2] = {0, 0};
        pml::thread::Latch latch(2);
        fork_join(2, [&](int id) {
          atomic_write(slots[id], 1L, "slot");
          latch.arrive_and_wait();
          if (atomic_read(slots[1 - id], "slot") != 1) throw std::logic_error("early exit");
        });
      },
      Pinned{3, 24}, {12, 96});
}

TEST(ExplorePrimitive, OrderedTicket) {
  expect_pinned(
      [] {
        long last = -1;
        pml::smp::OrderedTicket ticket;
        fork_join(3, [&](int id) {
          const long turn = 2 - id;
          ticket.run_in_order(turn, [&] {
            if (atomic_read(last, "last") != turn - 1) throw std::logic_error("out of order");
            atomic_write(last, turn, "last");
          });
        });
      },
      Pinned{2, 26}, {72, 885});
}

TEST(ExplorePrimitive, Pool) {
  expect_pinned(
      [] {
        long sum = 0;
        pml::thread::Pool pool(2);
        pool.submit([&](int) { pml::smp::atomic_add(sum, 1L, "sum"); });
        pool.submit([&](int) { pml::smp::atomic_add(sum, 2L, "sum"); });
        pool.wait_idle();
        if (atomic_read(sum, "sum") != 3) throw std::logic_error("lost task");
      },
      Pinned{1, 8}, {24, 212});
}

TEST(ExplorePrimitive, StealingPool) {
  expect_pinned(
      [] {
        long sum = 0;
        pml::thread::StealingPool pool(2);
        pool.submit([&] { pml::smp::atomic_add(sum, 1L, "sum"); });
        pool.submit([&] { pml::smp::atomic_add(sum, 2L, "sum"); });
        pool.wait_idle();
        if (atomic_read(sum, "sum") != 3) throw std::logic_error("lost task");
      },
      Pinned{1, 10}, {336, 4224});
}

TEST(ExplorePrimitive, CriticalAndTasks) {
  expect_pinned(
      [] {
        long shared = 0;
        pml::smp::parallel(2, [&](pml::smp::Region& r) {
          r.single([&] {
            r.task([&] {
              r.critical([&] {
                atomic_write(shared, atomic_read(shared, "shared") + 1, "shared");
              });
            });
          });
          r.critical([&] {
            atomic_write(shared, atomic_read(shared, "shared") + 1, "shared");
          });
        });
      },
      Pinned{19, 243}, {21, 259});
}

TEST(ExplorePrimitive, MailboxReceives) {
  expect_pinned(
      [] {
        // Rank 0 takes two wildcard receives, one untimed and one timed,
        // from two racing senders.
        pml::mp::run(3, [](pml::mp::Communicator& world) {
          if (world.rank() == 0) {
            (void)world.recv<int>(pml::mp::kAnySource, 0);
            if (!world.recv_for<int>(std::chrono::milliseconds(5), pml::mp::kAnySource, 0)) {
              throw std::logic_error("timed receive missed a sent message");
            }
          } else {
            world.send(world.rank(), 0, 0);
          }
        });
      },
      Pinned{3, 24}, {50, 364});
}

}  // namespace
}  // namespace pml::verify
