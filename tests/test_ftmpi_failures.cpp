// Failure-semantics tests of the ftmpi runtime: fail-stop kill, failure
// detection by point-to-point and collectives, revoke, shrink, agree,
// failure acknowledgement, spawn and intercommunicator merge — the ULFM
// building blocks of the paper's recovery protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/runtime.hpp"
#include "race_runs.hpp"

using namespace ftmpi;

namespace {

Runtime::Options small_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  return opt;
}

}  // namespace

TEST(FtmpiFailures, SelfKillUnwindsAndCounts) {
  Runtime rt(small_opts());
  std::atomic<int> after_abort{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    if (world().rank() == 1) {
      abort_self();
      ++after_abort;  // must be unreachable
    }
  });
  const int killed = rt.run("main", 3);
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(after_abort.load(), 0);
}

TEST(FtmpiFailures, RecvFromDeadPeerFails) {
  Runtime rt(small_opts());
  std::atomic<int> code{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    if (w.rank() == 0) {
      int v = 0;
      code = recv(&v, 1, 1, 0, w);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(code.load(), kErrProcFailed);
}

TEST(FtmpiFailures, SendToDeadPeerFails) {
  Runtime rt(small_opts());
  std::atomic<int> code{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    if (w.rank() == 0) {
      // Wait until the failure is visible, then send.
      while (!runtime().is_dead(w.group().pids[1])) {}
      const int v = 1;
      code = send(&v, 1, 1, 0, w);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(code.load(), kErrProcFailed);
}

TEST(FtmpiFailures, MessageSentBeforeDeathIsDelivered) {
  Runtime rt(small_opts());
  std::atomic<int> got{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) {
      const int v = 7;
      (void)send(&v, 1, 0, 0, w);
      abort_self();
    }
    if (w.rank() == 0) {
      int v = 0;
      if (recv(&v, 1, 1, 0, w) == kSuccess) got = v;
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(got.load(), 7);
}

TEST(FtmpiFailures, BarrierDetectsFailureAtAllSurvivors) {
  // The paper's detection step (Fig. 3 line 13) needs the barrier to report
  // the failure at every survivor, which our root-aggregated barrier does.
  Runtime rt(small_opts());
  std::atomic<int> errors{0};
  std::atomic<int> successes{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 2) abort_self();
    const int rc = barrier(w);
    (rc == kErrProcFailed ? errors : successes)++;
  });
  rt.run("main", 5);
  EXPECT_EQ(errors.load(), 4);
  EXPECT_EQ(successes.load(), 0);
}

TEST(FtmpiFailures, ErrhandlerInvokedOnError) {
  Runtime rt(small_opts());
  std::atomic<int> handler_calls{0};
  std::atomic<int> handler_code{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    (void)comm_set_errhandler(w, [&](Comm&, int& code) {
      ++handler_calls;
      handler_code = code;
    });
    if (w.rank() == 1) abort_self();
    (void)barrier(w);
  });
  rt.run("main", 3);
  EXPECT_EQ(handler_calls.load(), 2);
  EXPECT_EQ(handler_code.load(), kErrProcFailed);
}

TEST(FtmpiFailures, FailureAckAndGetAcked) {
  Runtime rt(small_opts());
  std::atomic<int> acked_size{-1};
  std::atomic<int> acked_rank{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 2) abort_self();
    if (w.rank() == 0) {
      (void)barrier(w);  // returns an error; failure now known
      (void)comm_failure_ack(w);
      Group failed;
      (void)comm_failure_get_acked(w, &failed);
      acked_size = failed.size();
      if (failed.size() == 1) acked_rank = w.group().rank_of(failed.pids[0]);
    } else {
      (void)barrier(w);
    }
  });
  rt.run("main", 4);
  EXPECT_EQ(acked_size.load(), 1);
  EXPECT_EQ(acked_rank.load(), 2);
}

TEST(FtmpiFailures, RevokeInterruptsPendingRecv) {
  Runtime rt(small_opts());
  std::atomic<int> code{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      int v = 0;
      code = recv(&v, 1, 1, 0, w);  // rank 1 never sends; revoke must wake us
    } else {
      advance(0.001);
      (void)comm_revoke(w);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(code.load(), kErrRevoked);
}

// Unlike RevokeInterruptsPendingRecv, the revoker stays alive after its one
// revoke, blocked on a dup until rank 0 answers, so no exit notification can
// rescue a waiter that missed the revoke's wake-up.  A lost wake-up parks
// both ranks and the 5 s watchdog aborts the binary.
TEST(FtmpiFailures, RevokeWakesPendingRecvWhileRevokerLives) {
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> code{-1};
    std::atomic<int> answer{-1};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      Comm dup;
      ASSERT_EQ(comm_dup(w, &dup), kSuccess);
      int v = 0;
      if (w.rank() == 0) {
        code = recv(&v, 1, 1, 0, w);  // rank 1 never sends on w
        v = 1;
        ASSERT_EQ(send(&v, 1, 1, 0, dup), kSuccess);
      } else {
        ASSERT_EQ(comm_revoke(w), kSuccess);
        ASSERT_EQ(recv(&v, 1, 0, 0, dup), kSuccess);
        answer = v;
      }
      ASSERT_EQ(comm_free(&dup), kSuccess);
    });
    rt.run("main", 2);
    ASSERT_EQ(code.load(), kErrRevoked) << "run " << run;
    ASSERT_EQ(answer.load(), 1) << "run " << run;
  }
}

TEST(FtmpiFailures, PeerExitWakesItsWaiterWhileBystandersStayParked) {
  // An exit wakes only the waits it can end.  Rank 1 returns without
  // sending, which must end rank 0's receive from it; rank 2 waits on rank
  // 3 across that exit and must still get its message, which rank 3 sends
  // only after rank 0 has reported.
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> code{-1};
    std::atomic<int> answer{-1};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      int v = 0;
      if (w.rank() == 0) {
        code = recv(&v, 1, 1, 0, w);  // rank 1 never sends
      } else if (w.rank() == 2) {
        ASSERT_EQ(recv(&v, 1, 3, 0, w), kSuccess);
        answer = v;
      } else if (w.rank() == 3) {
        while (code.load() < 0) ftmpi::yield();
        v = 7;
        ASSERT_EQ(send(&v, 1, 2, 0, w), kSuccess);
      }
    });
    rt.run("main", 4);
    ASSERT_EQ(code.load(), kErrProcFailed) << "run " << run;
    ASSERT_EQ(answer.load(), 7) << "run " << run;
  }
}

// A parked receive can be woken three ways, and each is hunted over
// kRaceRuns runs with a 5 s watchdog, so a wake-up that misses a rank
// between its last predicate check and its switch to the worker hangs the
// run.  First: a delivery from a rank running on another worker.  Both
// ranks hold their workers without yielding until the other has started,
// so they run on two workers at once when rank 0 parks.
TEST(FtmpiFailures, ParkedRecvWokenByDeliveryFromAnotherWorker) {
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "needs two workers";
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> started{0};
    std::atomic<int> got{-1};
    std::thread::id receiver;
    std::thread::id sender;
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      ++started;
      while (started.load() < 2) {
      }
      int v = 0;
      if (w.rank() == 0) {
        receiver = std::this_thread::get_id();
        ASSERT_EQ(recv(&v, 1, 1, 0, w), kSuccess);
        got = v;
      } else {
        const ProcessState& peer = runtime().proc(w.group().pids[0]);
        while (peer.parked.load() == 0) {
        }
        sender = std::this_thread::get_id();
        v = 42;
        ASSERT_EQ(send(&v, 1, 0, 0, w), kSuccess);
      }
    });
    rt.run("main", 2);
    ASSERT_EQ(got.load(), 42) << "run " << run;
    ASSERT_NE(receiver, sender) << "run " << run;
  }
}

// Second: a kill from a thread outside the rank world.  Rank 1 stays alive
// until rank 0 has finished, so no exit can end rank 0's receive instead.
TEST(FtmpiFailures, ParkedRecvWokenByKillFromHarnessThread) {
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<ProcId> victim{kNullProc};
    std::atomic<int> returned{0};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      if (w.rank() == 0) {
        victim = self_pid();
        int v = 0;
        (void)recv(&v, 1, 1, 0, w);  // only the kill ends this receive
        ++returned;                  // unreachable: the kill unwinds it
      } else {
        const ProcessState& peer = runtime().proc(w.group().pids[0]);
        while (!peer.finished.load()) ftmpi::yield();
      }
    });
    std::thread killer([&] {
      while (victim.load() == kNullProc || rt.proc(victim.load()).parked.load() == 0) {
        std::this_thread::yield();
      }
      rt.kill(victim.load());
    });
    const int killed = rt.run("main", 2);
    killer.join();
    ASSERT_EQ(killed, 1) << "run " << run;
    ASSERT_EQ(returned.load(), 0) << "run " << run;
  }
}

// Third: a revoke by a rank that stays alive until the receive returns.
TEST(FtmpiFailures, ParkedRecvWokenByRevoke) {
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> code{-1};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      if (w.rank() == 0) {
        int v = 0;
        code = recv(&v, 1, 1, 0, w);  // rank 1 never sends on w
      } else {
        const ProcessState& peer = runtime().proc(w.group().pids[0]);
        while (peer.parked.load() == 0) ftmpi::yield();
        ASSERT_EQ(comm_revoke(w), kSuccess);
        while (code.load() < 0) ftmpi::yield();
      }
    });
    rt.run("main", 2);
    ASSERT_EQ(code.load(), kErrRevoked) << "run " << run;
  }
}

// Fourth: the exit of the last live peer a wait on several peers watches.
// Rank 0 waits for a message from rank 1 or 2, and both exit without
// sending once it is parked.  Across those exits rank 3 stays parked in a
// receive from rank 4, which sends only after rank 0's wait has returned.
TEST(FtmpiFailures, ParkedRecvWokenByExitOfTheLastOfSeveralPeers) {
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> code{-1};
    std::atomic<int> answer{-1};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      const std::vector<ProcId>& pids = w.group().pids;
      const std::uint64_t ctx = w.context()->id;
      int v = 0;
      if (w.rank() == 0) {
        code = detail::ctrl_recv_any({pids[1], pids[2]}, ctx, tags::kShrinkUp, nullptr, nullptr);
      } else if (w.rank() <= 2) {
        const ProcessState& waiter = runtime().proc(pids[0]);
        while (waiter.parked.load() == 0) ftmpi::yield();
      } else if (w.rank() == 3) {
        ASSERT_EQ(recv(&v, 1, 4, 0, w), kSuccess);
        answer = v;
      } else {
        while (code.load() < 0) ftmpi::yield();
        v = 7;
        ASSERT_EQ(send(&v, 1, 3, 0, w), kSuccess);
      }
    });
    rt.run("main", 5);
    ASSERT_EQ(code.load(), kErrProcFailed) << "run " << run;
    ASSERT_EQ(answer.load(), 7) << "run " << run;
  }
}

// Fifth: an exit that a wait watching the membership epoch must see, as
// the tree agreement's waits do.  Rank 0 waits on rank 1, which stays
// alive and silent until the wait has returned; only rank 2's exit, from
// outside the wait, can end it.
TEST(FtmpiFailures, ParkedRecvWokenByExitThroughTheMembershipEpoch) {
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> code{-1};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      const std::vector<ProcId>& pids = w.group().pids;
      if (w.rank() == 0) {
        detail::RecvOpts opts;
        opts.interrupt2 = &runtime().membership_epoch();
        opts.interrupt2_expect = opts.interrupt2->load();
        code = detail::ctrl_recv(pids[1], w.context()->id, tags::kAgreeTreeUp, nullptr, opts);
      } else if (w.rank() == 1) {
        while (code.load() < 0) ftmpi::yield();
      } else {
        const ProcessState& waiter = runtime().proc(pids[0]);
        while (waiter.parked.load() == 0) ftmpi::yield();
      }
    });
    rt.run("main", 3);
    ASSERT_EQ(code.load(), kErrPending) << "run " << run;
  }
}

// The dead members a failure ack and the agreement root report come from
// the runtime's failure log, whatever order the deaths were logged in: a
// kill, a host failure, and a spawn rollback's released children (which
// belong to no communicator of the world until a group names them).
TEST(FtmpiFailures, FailureAckAndDeadMembersListTheLoggedDeadInRankOrder) {
  Runtime::Options opt = small_opts();  // four slots per host
  opt.max_hosts = 4;                    // the world fills three
  Runtime rt(opt);
  std::atomic<int> checked{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm mine;
    ASSERT_EQ(comm_split(w, w.rank() == 0 ? 0 : 1, 0, &mine), kSuccess);
    const std::vector<ProcId> pids = w.group().pids;
    if (w.rank() != 0) {
      int v = 0;
      (void)recv(&v, 1, 0, 0, w);  // released by rank 0, or killed
      return;
    }
    Runtime& r = runtime();
    r.kill(pids[9]);
    r.fail_host(1);  // ranks 4-7
    // Rank 9's freed slot and host 3 take five of the six children and the
    // bound refuses the sixth, so the five placed are released unstarted.
    Comm inter;
    const std::vector<SpawnUnit> units{{"main", {}, 6, -1}};
    ASSERT_EQ(comm_spawn_multiple(units, 0, mine, &inter), kErrSpawn);
    const auto total = static_cast<ProcId>(r.total_processes());
    ASSERT_EQ(total, 17);
    const std::vector<ProcId> released{12, 13, 14, 15, 16};
    for (ProcId p : released) ASSERT_TRUE(r.is_dead(p));

    const std::vector<ProcId> expect{pids[4], pids[5], pids[6], pids[7], pids[9]};
    ASSERT_EQ(comm_failure_ack(w), kSuccess);
    Group acked;
    ASSERT_EQ(comm_failure_get_acked(w, &acked), kSuccess);
    EXPECT_EQ(acked.pids, expect);
    EXPECT_EQ(r.dead_members(*w.context()), expect);
    EXPECT_EQ(r.dead_ranks(*w.context()), (std::vector<int>{4, 5, 6, 7, 9}));

    // A group in no pid order with a released child, and both sides of an
    // intercommunicator (side 1 follows side 0 in the agreement ranks).
    const auto g = r.create_context(Group{{pids[10], released[2], pids[3], pids[9], pids[0]}});
    EXPECT_EQ(r.dead_members(*g), (std::vector<ProcId>{released[2], pids[9]}));
    const auto ic = r.create_context(Group{{pids[0], pids[5]}},
                                     Group{{pids[9], pids[1], released[0]}}, /*inter=*/true);
    EXPECT_EQ(r.dead_members(*ic), (std::vector<ProcId>{pids[5], pids[9], released[0]}));
    const Comm side1(ic, 1, pids[1]);
    ASSERT_EQ(comm_failure_ack(side1), kSuccess);
    EXPECT_EQ(side1.local().acked.pids, (std::vector<ProcId>{pids[9], released[0]}));
    EXPECT_EQ(side1.rank(), 1);

    const int v = 1;
    for (int rank : {1, 2, 3, 8, 10, 11}) EXPECT_EQ(send(&v, 1, rank, 0, w), kSuccess);
    ++checked;
  });
  EXPECT_EQ(rt.run("main", 12), 5);
  EXPECT_EQ(checked.load(), 1);
}

TEST(FtmpiFailures, TreeAllreduceReportsAMidCallDeathToEverySurvivor) {
  // An interior tree node dies while the others wait in the allreduce:
  // every survivor returns kErrProcFailed and none hangs.
  constexpr int kRanks = 16;
  constexpr int kVictim = 2;
  Runtime::Options opt = small_opts();
  opt.real_time_limit_sec = 10.0;
  for (int run = 0; run < 50; ++run) {
    Runtime rt(opt);
    std::atomic<int> entering{0};
    std::atomic<int> failed{0};
    std::atomic<int> other{0};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      if (w.rank() == kVictim) {
        while (entering.load() < kRanks - 1) ftmpi::yield();
        ftmpi::yield();
        abort_self();
      }
      const long long mine = w.rank();
      long long sum = 0;
      ++entering;
      ++(allreduce(&mine, &sum, 1, ReduceOp::Sum, w) == kErrProcFailed ? failed : other);
    });
    EXPECT_EQ(rt.run("main", kRanks), 1);
    ASSERT_EQ(failed.load(), kRanks - 1) << "run " << run;
    ASSERT_EQ(other.load(), 0) << "run " << run;
  }
}

TEST(FtmpiFailures, TreeAllreduceSumsWhileRanksExitAsTheyReturn) {
  // Every rank exits as soon as its own allreduce returns, while the rest of
  // the tree is still being released.  An exit is no failure: every rank
  // gets the full sum.
  constexpr int kRanks = 64;
  for (int run = 0; run < 20; ++run) {
    Runtime rt(small_opts());
    std::atomic<int> correct{0};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      const long long mine = w.rank();
      long long sum = 0;
      if (allreduce(&mine, &sum, 1, ReduceOp::Sum, w) == kSuccess &&
          sum == kRanks * (kRanks - 1) / 2) {
        ++correct;
      }
    });
    EXPECT_EQ(rt.run("main", kRanks), 0);
    ASSERT_EQ(correct.load(), kRanks) << "run " << run;
  }
}

TEST(FtmpiFailures, OpsOnRevokedCommFail) {
#ifdef FTR_PSAN
  // This test deliberately keeps using the communicator after its own
  // revoke — the exact FTL006 violation the protocol sanitizer aborts on
  // (pinned by PsanDeath.UseAfterObservedRevokeAborts).  Here we only want
  // the error codes of the plain runtime.
  GTEST_SKIP() << "intentional use-after-revoke; aborts by design under "
                  "FTR_SANITIZE=protocol";
#endif
  Runtime rt(small_opts());
  std::atomic<int> send_code{-1}, barrier_code{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    (void)comm_revoke(w);
    const int v = 0;
    send_code = send(&v, 1, (w.rank() + 1) % w.size(), 0, w);
    barrier_code = barrier(w);
  });
  rt.run("main", 2);
  EXPECT_EQ(send_code.load(), kErrRevoked);
  EXPECT_EQ(barrier_code.load(), kErrRevoked);
}

TEST(FtmpiFailures, ShrinkRemovesDeadPreservingOrder) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1 || w.rank() == 3) abort_self();
    (void)barrier(w);  // observe the failure
    Comm s;
    ASSERT_EQ(comm_shrink(w, &s), kSuccess);
    if (s.size() != 3) ++bad;
    // world ranks 0,2,4 must become shrink ranks 0,1,2
    const int expect = w.rank() == 0 ? 0 : (w.rank() == 2 ? 1 : 2);
    if (s.rank() != expect) ++bad;
    // The shrunken communicator must be fully operational.
    int token = s.rank() == 0 ? 5 : 0;
    if (bcast(&token, 1, 0, s) != kSuccess || token != 5) ++bad;
  });
  rt.run("main", 5);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiFailures, ShrinkWorksOnRevokedComm) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 2) abort_self();
    (void)barrier(w);
    (void)comm_revoke(w);
    Comm s;
    if (comm_shrink(w, &s) != kSuccess) ++bad;
    if (s.size() != 3) ++bad;
    if (s.is_revoked()) ++bad;  // the shrunken comm is fresh
  });
  rt.run("main", 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiFailures, AgreeReturnsAndOfFlags) {
  Runtime rt(small_opts());
  std::atomic<int> flag_at_0{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    int flag = w.rank() == 3 ? 0 : 1;
    ASSERT_EQ(comm_agree(w, &flag), kSuccess);
    if (w.rank() == 0) flag_at_0 = flag;
  });
  rt.run("main", 5);
  EXPECT_EQ(flag_at_0.load(), 0);
}

TEST(FtmpiFailures, AgreeReportsUnackedFailuresUniformly) {
  Runtime rt(small_opts());
  std::atomic<int> errors{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    (void)barrier(w);  // failure becomes known; not acked yet
    int flag = 1;
    if (comm_agree(w, &flag) == kErrProcFailed) ++errors;
  });
  rt.run("main", 4);
  EXPECT_EQ(errors.load(), 3);
}

TEST(FtmpiFailures, AgreeSucceedsAfterAck) {
  Runtime rt(small_opts());
  std::atomic<int> codes_ok{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    (void)barrier(w);
    (void)comm_failure_ack(w);
    int flag = 1;
    if (comm_agree(w, &flag) == kSuccess && flag == 1) ++codes_ok;
  });
  rt.run("main", 4);
  EXPECT_EQ(codes_ok.load(), 3);
}

TEST(FtmpiFailures, SpawnCreatesChildrenWithParentIntercomm) {
  Runtime rt(small_opts());
  std::atomic<int> child_world_size{-1};
  std::atomic<int> child_remote_size{-1};
  std::atomic<int> parent_remote_size{-1};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Comm& w = world();
    if (!argv.empty() && argv[0] == "child") {
      child_world_size = w.size();
      child_remote_size = get_parent().remote_size();
      return;
    }
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, 2, -1};
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, w, &inter), kSuccess);
    if (w.rank() == 0) parent_remote_size = inter.remote_size();
  });
  rt.run("main", 3);
  EXPECT_EQ(child_world_size.load(), 2);   // spawned group's own world
  EXPECT_EQ(child_remote_size.load(), 3);  // the parents
  EXPECT_EQ(parent_remote_size.load(), 2);
}

TEST(FtmpiFailures, SpawnPlacesOnRequestedHost) {
  Runtime rt(small_opts());  // 4 slots/host
  std::atomic<int> child_host{-1};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Comm& w = world();
    if (!argv.empty() && argv[0] == "child") {
      child_host = runtime().host_of(self_pid());
      return;
    }
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, 1, 2};  // host 2 has free slots
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, w, &inter), kSuccess);
  });
  rt.run("main", 4);  // occupies host 0 fully
  EXPECT_EQ(child_host.load(), 2);
}

TEST(FtmpiFailures, KillFreesSlotForRespawn) {
  Runtime rt(small_opts());  // 4 slots/host
  std::atomic<int> child_host{-1};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Comm& w = world();
    if (!argv.empty() && argv[0] == "child") {
      child_host = runtime().host_of(self_pid());
      return;
    }
    if (w.rank() == 1) abort_self();  // frees a slot on host 0
    (void)barrier(w);
    Comm s;
    ASSERT_EQ(comm_shrink(w, &s), kSuccess);
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, 1, 0};  // respawn on host 0
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, s, &inter), kSuccess);
  });
  rt.run("main", 4);  // world fills host 0 exactly
  EXPECT_EQ(child_host.load(), 0);
}

TEST(FtmpiFailures, IntercommMergeOrdersLowSideFirst) {
  Runtime rt(small_opts());
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Comm& w = world();
    if (!argv.empty() && argv[0] == "child") {
      Comm merged;
      ASSERT_EQ(intercomm_merge(get_parent(), /*high=*/true, &merged), kSuccess);
      // Children land after the 3 parents.
      if (merged.size() != 5) ++bad;
      if (merged.rank() != 3 + w.rank()) ++bad;
      int token = 0;
      if (bcast(&token, 1, 0, merged) != kSuccess || token != 17) ++bad;
      return;
    }
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, 2, -1};
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, w, &inter), kSuccess);
    Comm merged;
    ASSERT_EQ(intercomm_merge(inter, /*high=*/false, &merged), kSuccess);
    if (merged.rank() != w.rank()) ++bad;
    int token = merged.rank() == 0 ? 17 : 0;
    if (bcast(&token, 1, 0, merged) != kSuccess || token != 17) ++bad;
  });
  rt.run("main", 3);
  EXPECT_EQ(bad.load(), 0);
}

TEST(FtmpiFailures, P2pBetweenParentAndChildOverIntercomm) {
  Runtime rt(small_opts());
  std::atomic<int> got{0};
  rt.register_app("main", [&](const std::vector<std::string>& argv) {
    Comm& w = world();
    if (!argv.empty() && argv[0] == "child") {
      int v = 0;
      // Source rank names the sender in the remote (parent) group.
      ASSERT_EQ(recv(&v, 1, 1, 9, get_parent()), kSuccess);
      got = v;
      return;
    }
    std::vector<SpawnUnit> units(1);
    units[0] = {"main", {"child"}, 1, -1};
    Comm inter;
    ASSERT_EQ(comm_spawn_multiple(units, 0, w, &inter), kSuccess);
    if (w.rank() == 1) {
      const int v = 123;
      ASSERT_EQ(send(&v, 1, 0, 9, inter), kSuccess);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(got.load(), 123);
}

TEST(FtmpiFailures, MultipleFailuresShrinkCostsMoreVirtualTime) {
  // The paper's Table I observation: repairing after two failures is
  // disproportionately slower.  Our cost model reproduces the trend.
  auto shrink_time = [](int kills) {
    Runtime rt(small_opts());
    std::atomic<double> t{0.0};
    rt.register_app("main", [&, kills](const std::vector<std::string>&) {
      Comm& w = world();
      if (w.rank() >= 1 && w.rank() <= kills) abort_self();
      (void)barrier(w);
      const double t0 = wtime();
      Comm s;
      (void)comm_shrink(w, &s);
      if (w.rank() == 0) t = wtime() - t0;
    });
    rt.run("main", 8);
    return t.load();
  };
  const double t1 = shrink_time(1);
  const double t2 = shrink_time(2);
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t2, t1);
}

TEST(FtmpiFailures, ExternalKillFromHarnessThread) {
  Runtime rt(small_opts());
  std::atomic<int> code{-1};
  std::atomic<ProcId> victim{kNullProc};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) {
      victim = self_pid();
      // Spin in recv; the harness kills us while blocked.
      int v = 0;
      (void)recv(&v, 1, 0, 0, w);  // never satisfied
      ADD_FAILURE() << "dead process kept running";
    } else {
      while (victim.load() == kNullProc) ftmpi::yield();
      runtime().kill(victim.load());
      int v = 0;
      code = recv(&v, 1, 1, 0, w);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(code.load(), kErrProcFailed);
}
