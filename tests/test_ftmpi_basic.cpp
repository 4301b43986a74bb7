// Smoke tests of the ftmpi runtime: launch, rank/size, point-to-point,
// virtual clocks, and basic collectives without failures.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "ftmpi/spin_sleep_lock.hpp"

using namespace ftmpi;

namespace {

Runtime::Options small_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  return opt;
}

int cores() { return static_cast<int>(std::max(1U, std::thread::hardware_concurrency())); }

/// Recurses `n` frames of 4 KiB each (not a tail call, nothing elided).
int deep(int n) {
  volatile char pad[4096];
  pad[0] = static_cast<char>(n);
  return n == 0 ? pad[0] : deep(n - 1) + pad[0];
}

/// True when a 16- and a 64-byte-aligned local of a fresh frame are
/// aligned: a stack that a switch entered off the ABI's call alignment
/// misplaces the 16-byte one, which the compiler does not realign.
[[gnu::noinline]] bool frame_locals_aligned() {
  alignas(16) volatile char a16[16];
  alignas(64) volatile char a64[64];
  a16[0] = 1;
  a64[0] = 1;
  return reinterpret_cast<std::uintptr_t>(&a16[0]) % 16 == 0 &&
         reinterpret_cast<std::uintptr_t>(&a64[0]) % 64 == 0;
}

/// The floating-point control state a rank can set: the rounding mode and,
/// on x86-64, MXCSR's control bits (rounding, flush-to-zero, masks).
struct FpControl {
  int round = FE_TONEAREST;
  unsigned mxcsr = 0x1F80;  ///< MXCSR without its six status flags

  static FpControl now() {
    FpControl c;
    c.round = std::fegetround();
#if defined(__x86_64__)
    c.mxcsr = _mm_getcsr() & ~0x3FU;
#endif
    return c;
  }
  bool operator==(const FpControl&) const = default;
};

/// The process's OS thread count (the Threads: line of /proc/self/status).
int os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace

TEST(FtmpiBasic, WorldRankAndSize) {
  Runtime rt(small_opts());
  std::atomic<int> rank_sum{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    EXPECT_EQ(w.size(), 6);
    rank_sum += w.rank();
  });
  const int killed = rt.run("main", 6);
  EXPECT_EQ(killed, 0);
  EXPECT_EQ(rank_sum.load(), 0 + 1 + 2 + 3 + 4 + 5);
}

TEST(FtmpiBasic, HostPlacementFollowsSlots) {
  Runtime rt(small_opts());  // 4 slots per host
  std::atomic<bool> ok{true};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    const int r = world().rank();
    if (runtime().host_of(self_pid()) != r / 4) ok = false;
  });
  rt.run("main", 10);
  EXPECT_TRUE(ok.load());
}

TEST(FtmpiBasic, SendRecvRoundTrip) {
  Runtime rt(small_opts());
  std::atomic<int> received{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      const int v = 42;
      ASSERT_EQ(send(&v, 1, 1, 7, w), kSuccess);
    } else {
      int v = 0;
      Status st;
      ASSERT_EQ(recv(&v, 1, 0, 7, w, &st), kSuccess);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      received = v;
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(received.load(), 42);
}

TEST(FtmpiBasic, AnySourceAnyTag) {
  Runtime rt(small_opts());
  std::atomic<int> total{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      for (int i = 1; i < w.size(); ++i) {
        int v = 0;
        Status st;
        ASSERT_EQ(recv(&v, 1, kAnySource, kAnyTag, w, &st), kSuccess);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        total += v;
      }
    } else {
      const int v = w.rank() * 10 + w.rank();
      ASSERT_EQ(send(&v, 1, 0, w.rank(), w), kSuccess);
    }
  });
  rt.run("main", 4);
  EXPECT_EQ(total.load(), 11 + 22 + 33);
}

TEST(FtmpiBasic, VirtualClockAdvancesWithTraffic) {
  Runtime rt(small_opts());
  std::atomic<double> t_end{0.0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const double t0 = wtime();
    EXPECT_EQ(t0, 0.0);
    if (w.rank() == 0) {
      std::vector<double> buf(1000, 1.0);
      (void)send(buf.data(), 1000, 1, 0, w);
    } else {
      std::vector<double> buf(1000);
      (void)recv(buf.data(), 1000, 0, 0, w);
      t_end = wtime();
    }
  });
  rt.run("main", 2);
  EXPECT_GT(t_end.load(), 0.0);
  EXPECT_LT(t_end.load(), 1.0);  // microseconds of modeled time, not seconds
}

TEST(FtmpiBasic, AdvanceChargesComputeTime) {
  Runtime rt(small_opts());
  std::atomic<double> t{0.0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    advance(1.5);
    t = wtime();
  });
  rt.run("main", 1);
  EXPECT_DOUBLE_EQ(t.load(), 1.5);
}

TEST(FtmpiBasic, BarrierSynchronizesClocks) {
  Runtime rt(small_opts());
  std::atomic<double> fast_after{0.0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 2) advance(5.0);  // one slow rank
    ASSERT_EQ(barrier(w), kSuccess);
    if (w.rank() == 0) fast_after = wtime();
  });
  rt.run("main", 4);
  // After the barrier, every rank's clock is at least the slowest rank's.
  EXPECT_GE(fast_after.load(), 5.0);
}

TEST(FtmpiBasic, BcastDeliversToAll) {
  Runtime rt(small_opts());
  std::atomic<int> sum{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    int v = w.rank() == 1 ? 99 : 0;
    ASSERT_EQ(bcast(&v, 1, 1, w), kSuccess);
    sum += v;
  });
  rt.run("main", 5);
  EXPECT_EQ(sum.load(), 99 * 5);
}

TEST(FtmpiBasic, GatherCollectsInRankOrder) {
  Runtime rt(small_opts());
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int v = w.rank() * w.rank();
    std::vector<int> all(static_cast<size_t>(w.size()));
    ASSERT_EQ(gather(&v, 1, all.data(), 0, w), kSuccess);
    if (w.rank() == 0) {
      bool good = true;
      for (int r = 0; r < w.size(); ++r) {
        good = good && all[static_cast<size_t>(r)] == r * r;
      }
      ok = good;
    }
  });
  rt.run("main", 6);
  EXPECT_TRUE(ok.load());
}

TEST(FtmpiBasic, AllreduceSum) {
  Runtime rt(small_opts());
  std::atomic<int> wrong{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const double v = static_cast<double>(w.rank() + 1);
    double out = 0;
    ASSERT_EQ(allreduce(&v, &out, 1, ReduceOp::Sum, w), kSuccess);
    if (out != 1 + 2 + 3 + 4 + 5 + 6.0) ++wrong;
  });
  rt.run("main", 6);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(FtmpiBasic, AllreduceRejectsIntercommAndNullComm) {
  // allreduce is an intracommunicator collective: an intercommunicator and
  // a null handle both fail with kErrComm instead of reducing anything.
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const bool low = w.rank() < w.size() / 2;
    Comm half;
    ASSERT_EQ(comm_split(w, low ? 0 : 1, w.rank(), &half), kSuccess);
    Comm inter;
    ASSERT_EQ(intercomm_create(half, 0, w, low ? w.size() / 2 : 0, 7, &inter), kSuccess);
    ASSERT_TRUE(inter.is_inter());
    const int v = 1;
    int out = 0;
    if (allreduce(&v, &out, 1, ReduceOp::Sum, inter) != kErrComm) ++bad;
    if (allreduce(&v, &out, 1, ReduceOp::Sum, Comm{}) != kErrComm) ++bad;
  });
  rt.run("main", 6);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiBasic, CommSplitByParity) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm half;
    ASSERT_EQ(comm_split(w, w.rank() % 2, w.rank(), &half), kSuccess);
    ASSERT_FALSE(half.is_null());
    if (half.size() != 3) ++bad;
    if (half.rank() != w.rank() / 2) ++bad;
    // The new communicator must carry traffic independently of world.
    int token = w.rank();
    ASSERT_EQ(bcast(&token, 1, 0, half), kSuccess);
    if (token != w.rank() % 2) ++bad;  // rank 0 of each half is world rank 0 or 1
  });
  rt.run("main", 6);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiBasic, CommSplitUndefinedYieldsNull) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm sub;
    const int color = w.rank() == 0 ? kUndefinedColor : 1;
    ASSERT_EQ(comm_split(w, color, 0, &sub), kSuccess);
    if (w.rank() == 0 && !sub.is_null()) ++bad;
    if (w.rank() != 0 && (sub.is_null() || sub.size() != 3)) ++bad;
  });
  rt.run("main", 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiBasic, ResultsBlackboard) {
  Runtime rt(small_opts());
  rt.register_app("main", [&](const std::vector<std::string>&) {
    if (world().rank() == 0) runtime().put("answer", 42.0);
    runtime().add("count", 1.0);
  });
  rt.run("main", 3);
  EXPECT_DOUBLE_EQ(rt.get("answer", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(rt.get("count", 0.0), 3.0);
}

TEST(FtmpiBasic, SequentialRunsOnOneRuntime) {
  Runtime rt(small_opts());
  std::atomic<int> launches{0};
  rt.register_app("main", [&](const std::vector<std::string>&) { ++launches; });
  rt.run("main", 3);
  rt.run("main", 5);
  EXPECT_EQ(launches.load(), 8);
  EXPECT_EQ(rt.total_processes(), 8);
}

// Pid lookups take no lock: the process table grows in fixed chunks whose
// slots never move.  The world is larger than one 1024-slot chunk, and rank
// 0's spawn crosses the next chunk boundary while every other rank is still
// looking up every pid.
TEST(FtmpiBasic, ProcessTableGrowsPastChunksUnderConcurrentLookups) {
  constexpr int kSlots = 12;
  constexpr int kWorld = 2040;   // 170 full hosts
  constexpr int kChildren = 16;  // pids 2040..2055 cross 2048
  constexpr int kTotal = kWorld + kChildren;
  Runtime::Options opt;
  opt.slots_per_host = kSlots;
  opt.real_time_limit_sec = 120.0;
  Runtime rt(opt);
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Runtime& r = runtime();
    const int n = r.total_processes();
    if (n < kWorld || n > kTotal) ++bad;
    for (ProcId p = 0; p < n; ++p) {
      if (r.is_dead(p) || r.proc(p).pid != p || r.host_of(p) != p / kSlots) ++bad;
    }
    if (!argv.empty() && argv[0] == "child") return;
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, kChildren, -1};
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, world(), &inter), kSuccess);
    ASSERT_EQ(comm_free(&inter), kSuccess);
  });
  EXPECT_EQ(rt.run("main", kWorld), 0);
  EXPECT_EQ(bad.load(), 0);
  ASSERT_EQ(rt.total_processes(), kTotal);
  // Children fill the next free slots, so every pid sits on host pid / SLOTS.
  for (ProcId p = 0; p < kTotal; ++p) EXPECT_EQ(rt.host_of(p), p / kSlots) << "pid " << p;
  EXPECT_TRUE(rt.is_dead(kTotal));
  EXPECT_TRUE(rt.is_dead(-1));
  EXPECT_THROW((void)rt.proc(kTotal), std::out_of_range);
}

TEST(FtmpiBasic, ArgvReachesApplication) {
  Runtime rt(small_opts());
  std::atomic<int> good{0};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    if (argv.size() == 2 && argv[0] == "alpha" && argv[1] == "beta") ++good;
  });
  rt.run("main", 2, {"alpha", "beta"});
  EXPECT_EQ(good.load(), 2);
}

TEST(FtmpiBasic, LargePayloadTransfersIntact) {
  Runtime rt(small_opts());
  std::atomic<bool> ok{false};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const size_t n = 1 << 16;
    if (w.rank() == 0) {
      std::vector<double> buf(n);
      std::iota(buf.begin(), buf.end(), 0.0);
      (void)send(buf.data(), static_cast<int>(n), 1, 3, w);
    } else {
      std::vector<double> buf(n, -1.0);
      (void)recv(buf.data(), static_cast<int>(n), 0, 3, w);
      bool good = true;
      for (size_t i = 0; i < n; ++i) good = good && buf[i] == static_cast<double>(i);
      ok = good;
    }
  });
  rt.run("main", 2);
  EXPECT_TRUE(ok.load());
}

// Ranks are fibers on one worker thread per core: a 4864-rank world (the
// Table I scale) runs its collectives on the workers and the driver thread
// alone.  Rank 0 counts threads once every rank has reached the barrier.
// TSan's vector clocks grow with the number of fibers, which makes each
// synchronisation O(N) there, so its build runs a quarter of the world.
TEST(FtmpiBasic, WorldOf4864RanksRunsOnOneThreadPerCore) {
#if defined(__SANITIZE_THREAD__)
  constexpr int kWorld = 1216;
#else
  constexpr int kWorld = 4864;
#endif
  Runtime::Options opt;
  opt.slots_per_host = 12;
  opt.real_time_limit_sec = 120.0;
  Runtime rt(opt);
  std::atomic<int> threads{-1};
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (barrier(w) != kSuccess) ++bad;
    if (w.rank() == 0) threads = os_threads();
    const long long mine = w.rank();
    long long sum = 0;
    if (allreduce(&mine, &sum, 1, ReduceOp::Sum, w) != kSuccess ||
        sum != static_cast<long long>(kWorld) * (kWorld - 1) / 2) {
      ++bad;
    }
  });
  EXPECT_EQ(rt.run("main", kWorld), 0);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(threads.load(), 0);
  EXPECT_LE(threads.load(), cores() + 2);
}

// A rank that polls shared state must yield its worker.  Eight ranks per
// worker rendezvous on a counter: each arrives and yields until all have,
// which can finish only if every yield lets the queued ranks run.
TEST(FtmpiBasic, YieldingRanksRendezvousBeyondTheWorkerCount) {
  const int n = 8 * cores();
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 30.0;
  Runtime rt(opt);
  std::atomic<int> arrived{0};
  std::atomic<int> done{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ++arrived;
    while (arrived.load() < n) ftmpi::yield();
    ++done;
  });
  EXPECT_EQ(rt.run("main", n), 0);
  EXPECT_EQ(done.load(), n);
}

// Children spawned from a rank through comm_spawn_multiple start and finish
// on the same workers as their parents, never on a thread of their own.
TEST(FtmpiBasic, SpawnedChildrenRunOnTheWorkers) {
  constexpr int kWorld = 4;
  constexpr int kChildren = 8;
  Runtime rt(small_opts());
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> children_done{0};
  std::atomic<int> child_threads{-1};
  auto note_thread = [&] {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  };
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    note_thread();
    if (!argv.empty() && argv[0] == "child") {
      ASSERT_EQ(barrier(world()), kSuccess);
      if (world().rank() == 0) child_threads = os_threads();
      note_thread();
      ++children_done;
      return;
    }
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, kChildren, -1};
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, world(), &inter), kSuccess);
    ASSERT_EQ(comm_free(&inter), kSuccess);
    note_thread();
  });
  EXPECT_EQ(rt.run("main", kWorld), 0);
  EXPECT_EQ(children_done.load(), kChildren);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0U) << "a rank ran on the driver thread";
  EXPECT_LE(static_cast<int>(ids.size()), cores());
  EXPECT_GT(child_threads.load(), 0);
  EXPECT_LE(child_threads.load(), cores() + 2);
}

// A fiber switch saves and restores the floating-point control state with
// the registers: a rank that sets rounding toward zero, or flush-to-zero,
// keeps it across every park on whichever worker resumes it, and no other
// rank sees it.  Each pair of ranks plays 1000 rounds of ping-pong, so the
// ranks park and resume on the workers about a thousand times each; every
// round checks the control registers and a division whose result the mode
// decides.  A second run on the pooled fibers starts every rank at the
// default again.
TEST(FiberSwitch, EachRankKeepsItsFloatingPointControlAcrossParks) {
  constexpr int kWorld = 8;
  constexpr int kRounds = 1000;
  const FpControl nearest;
  FpControl toward_zero;
  toward_zero.round = FE_TOWARDZERO;
#if defined(__x86_64__)
  toward_zero.mxcsr = 0x1F80 | 0x6000;  // RC = round toward zero
  FpControl flush_to_zero;
  flush_to_zero.mxcsr = 0x1F80 | 0x8000;  // FTZ
#endif
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  std::atomic<int> rounds{0};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Comm& w = world();
    const bool set_modes = argv.empty();
    FpControl mine = nearest;
    if (set_modes && w.rank() == 0) {
      ASSERT_EQ(std::fesetround(FE_TOWARDZERO), 0);
      mine = toward_zero;
    }
#if defined(__x86_64__)
    if (set_modes && w.rank() == 1) {
      _mm_setcsr(_mm_getcsr() | 0x8000);
      mine = flush_to_zero;
    }
#endif
    const int peer = w.rank() ^ 1;
    volatile double one = 1.0;
    volatile double ten = 10.0;
    volatile double tiny = 1e-300;
    for (int r = 0; r < kRounds; ++r) {
      int token = r;
      if (w.rank() % 2 == 0) {
        ASSERT_EQ(send(&token, 1, peer, 0, w), kSuccess);
        ASSERT_EQ(recv(&token, 1, peer, 0, w), kSuccess);
      } else {
        ASSERT_EQ(recv(&token, 1, peer, 0, w), kSuccess);
        ASSERT_EQ(send(&token, 1, peer, 0, w), kSuccess);
      }
      ftmpi::yield();
      if (!(FpControl::now() == mine)) ++bad;
      // 1/10 rounds up to nearest and down toward zero; 1e-310 is subnormal.
      const double tenth = one / ten;
      if (tenth != (mine.round == FE_TOWARDZERO ? std::nextafter(0.1, 0.0) : 0.1)) ++bad;
      const bool flushed = tiny * 1e-10 == 0.0;
      if (flushed != ((mine.mxcsr & 0x8000U) != 0)) ++bad;
      ++rounds;
    }
  });
  EXPECT_EQ(rt.run("main", kWorld), 0);
  EXPECT_EQ(rounds.load(), kWorld * kRounds);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(FpControl::now() == nearest) << "a rank's mode leaked to the driver thread";
  rounds = 0;
  EXPECT_EQ(rt.run("main", kWorld, {"defaults"}), 0);
  EXPECT_EQ(rounds.load(), kWorld * kRounds);
  EXPECT_EQ(bad.load(), 0);
}

// A fresh fiber enters its first frame as a call would, 16-byte aligned
// below its return address, and so does a fiber taken from the pool.  The
// first run's ranks start on fresh stacks (ctest runs each test in a
// process of its own); the second run's start on the first run's pooled
// stacks and on fresh ones.
TEST(FiberSwitch, FreshAndPooledFibersEnterCallAligned) {
  Runtime rt(small_opts());
  std::atomic<int> aligned{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    if (frame_locals_aligned()) ++aligned;
    ftmpi::yield();
    if (frame_locals_aligned()) ++aligned;
  });
  const int first = 2 * cores();
  EXPECT_EQ(rt.run("main", first), 0);
  EXPECT_EQ(aligned.load(), 2 * first);
  aligned = 0;
  EXPECT_EQ(rt.run("main", 2 * first), 0);
  EXPECT_EQ(aligned.load(), 4 * first);
}

// The runtime's lock keeps mutual exclusion on the contended path too.
// Thread 0 now and then holds it for a millisecond, far longer than the
// others poll, so they sleep on the lock word and its unlock wakes them.
TEST(SpinSleepLock, MutualExclusionWhileAHolderSleeps) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100000;
  SpinSleepLock mu;
  long long counter = 0;  // guarded by mu
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter, t] {
      for (int i = 0; i < kIncrements; ++i) {
        std::lock_guard<SpinSleepLock> lock(mu);
        if (t == 0 && i % 1000 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIncrements);
  mu.lock();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

// A rank that overflows its fiber stack hits the guard page below it and
// the process dies on the fault, instead of writing into whatever memory
// lies below the stack (another rank's stack, say).
TEST(FtmpiBasicDeathTest, StackOverflowFaultsOnTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [](const std::vector<std::string>&) { (void)deep(256); });
        rt.run("main", 1);
      },
      "");
}

// A stack keeps its guard page when it is pooled: a spawned child that
// starts on a stack an exited rank left behind still faults on overflow.
// The first run pools two stacks, so the second run's rank and its child
// both start on pooled ones.
TEST(FtmpiBasicDeathTest, ChildOnAPooledStackFaultsOnTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        rt.register_app("main", [](const std::vector<std::string>& argv) {
          if (!argv.empty() && argv[0] == "child") (void)deep(256);
        });
        rt.run("main", 2);
        rt.register_app("parent", [](const std::vector<std::string>&) {
          Comm inter;
          if (comm_spawn_multiple({{"main", {"child"}, 1, -1}}, 0, world(), &inter) == kSuccess) {
            (void)comm_free(&inter);
          }
        });
        rt.run("parent", 1);
      },
      "");
}
