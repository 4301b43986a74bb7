// Smoke tests of the ftmpi runtime: launch, rank/size, point-to-point,
// virtual clocks, and basic collectives without failures.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftmpi;

namespace {

Runtime::Options small_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  return opt;
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
