// Tests of the nonblocking point-to-point layer: isend/irecv/wait/waitall,
// test, probe/iprobe, sendrecv, and their failure behaviour.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/request.hpp"
#include "ftmpi/runtime.hpp"
#include "race_runs.hpp"

using namespace ftmpi;

TEST(Nonblocking, IsendIrecvWaitRoundTrip) {
  Runtime rt;
  std::atomic<int> got{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      const int v = 55;
      Request req;
      ASSERT_EQ(isend(&v, 1, 1, 3, w, &req), kSuccess);
      ASSERT_EQ(wait(&req), kSuccess);
    } else {
      int v = 0;
      Request req;
      ASSERT_EQ(irecv(&v, 1, 0, 3, w, &req), kSuccess);
      Status st;
      ASSERT_EQ(wait(&req, &st), kSuccess);
      EXPECT_TRUE(req.is_null());
      EXPECT_EQ(st.source, 0);
      got = v;
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(got.load(), 55);
}

TEST(Nonblocking, WaitallCompletesPostedExchange) {
  // The MPI-idiomatic halo pattern: post all receives, send, waitall.
  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int n = w.size();
    const int left = (w.rank() + n - 1) % n;
    const int right = (w.rank() + 1) % n;
    int from_left = -1, from_right = -1;
    Request reqs[2];
    ASSERT_EQ(irecv(&from_left, 1, left, 1, w, &reqs[0]), kSuccess);
    ASSERT_EQ(irecv(&from_right, 1, right, 2, w, &reqs[1]), kSuccess);
    const int me = w.rank();
    ASSERT_EQ(send(&me, 1, right, 1, w), kSuccess);  // to right = its "left" msg
    ASSERT_EQ(send(&me, 1, left, 2, w), kSuccess);
    ASSERT_EQ(waitall(reqs, 2), kSuccess);
    if (from_left != left || from_right != right) ++bad;
  });
  rt.run("main", 5);
  EXPECT_EQ(bad.load(), 0);
}

TEST(Nonblocking, TestPollsUntilMessageArrives) {
  Runtime rt;
  std::atomic<int> polls{0};
  std::atomic<int> got{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      int v = 0;
      Request req;
      ASSERT_EQ(irecv(&v, 1, 1, 0, w, &req), kSuccess);
      int flag = 0;
      // First poll very likely incomplete (rank 1 waits for our token).
      (void)test(&req, &flag);
      const int token = 1;
      (void)send(&token, 1, 1, 9, w);
      while (!flag) {
        ++polls;
        ASSERT_EQ(test(&req, &flag), kSuccess);
      }
      got = v;
    } else {
      int token = 0;
      (void)recv(&token, 1, 0, 9, w);
      const int v = 88;
      (void)send(&v, 1, 0, 0, w);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(got.load(), 88);
  EXPECT_GE(polls.load(), 1);
}

TEST(Nonblocking, IprobeReportsSizeWithoutConsuming) {
  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      const double v[3] = {1, 2, 3};
      (void)send(v, 3, 1, 5, w);
    } else {
      Status st;
      ASSERT_EQ(probe(0, 5, w, &st), kSuccess);
      if (st.count != 3 * static_cast<int>(sizeof(double))) ++bad;
      int flag = 0;
      ASSERT_EQ(iprobe(0, 5, w, &flag, &st), kSuccess);
      if (!flag) ++bad;  // probe must not consume
      double buf[3];
      ASSERT_EQ(recv(buf, 3, 0, 5, w), kSuccess);
      if (buf[2] != 3.0) ++bad;
      // After consuming: either nothing pending, or — if the sender has
      // already exited — the probe reports the unreachable peer.
      const int rc = iprobe(0, 5, w, &flag, &st);
      if (rc == kSuccess && flag) ++bad;
      if (rc != kSuccess && rc != kErrProcFailed) ++bad;
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(bad.load(), 0);
}

TEST(Nonblocking, IprobeReportsDeadNamedPeer) {
  Runtime rt;
  std::atomic<int> code{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    while (!runtime().is_dead(w.group().pids[1])) {}
    int flag = 0;
    code = iprobe(1, 0, w, &flag, nullptr);
  });
  rt.run("main", 2);
  EXPECT_EQ(code.load(), kErrProcFailed);
}

TEST(Nonblocking, WaitOnRecvFromDeadPeerFails) {
  Runtime rt;
  std::atomic<int> code{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    int v = 0;
    Request req;
    (void)irecv(&v, 1, 1, 0, w, &req);
    code = wait(&req);
  });
  rt.run("main", 2);
  EXPECT_EQ(code.load(), kErrProcFailed);
}

TEST(Nonblocking, SendrecvExchangesPairwise) {
  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int partner = 1 - w.rank();
    const int mine = w.rank() * 10;
    int theirs = -1;
    ASSERT_EQ(sendrecv(&mine, 1, partner, 7, &theirs, 1, partner, 7, w), kSuccess);
    if (theirs != partner * 10) ++bad;
  });
  rt.run("main", 2);
  EXPECT_EQ(bad.load(), 0);
}

TEST(Nonblocking, ProbeWakesOnLateMessage) {
  Runtime rt;
  std::atomic<int> src{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      Status st;
      ASSERT_EQ(probe(kAnySource, kAnyTag, w, &st), kSuccess);
      src = st.source;
      int v;
      (void)recv(&v, 1, st.source, st.tag, w);
    } else {
      advance(0.01);
      const int v = 1;
      (void)send(&v, 1, 0, 2, w);
    }
  });
  rt.run("main", 2);
  EXPECT_EQ(src.load(), 1);
}

// Unlike ProbeWakesOnLateMessage, the sender stays alive after its one send,
// blocked on a dup until rank 0 answers, so no exit notification can rescue
// a probe that missed the delivery.  A lost wake-up parks both ranks and the
// 5 s watchdog aborts the binary.
TEST(Nonblocking, ProbeWakesOnLateMessageWhileSenderLives) {
  Runtime::Options opt;
  opt.real_time_limit_sec = 5.0;
  for (int run = 0; run < ftr_test::kRaceRuns; ++run) {
    Runtime rt(opt);
    std::atomic<int> answer{-1};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      Comm& w = world();
      Comm dup;
      ASSERT_EQ(comm_dup(w, &dup), kSuccess);
      int v = 0;
      if (w.rank() == 0) {
        Status st;
        ASSERT_EQ(probe(kAnySource, kAnyTag, w, &st), kSuccess);
        ASSERT_EQ(recv(&v, 1, st.source, st.tag, w), kSuccess);
        ASSERT_EQ(send(&v, 1, 1, 0, dup), kSuccess);
      } else {
        v = 7;
        ASSERT_EQ(send(&v, 1, 0, 2, w), kSuccess);
        ASSERT_EQ(recv(&v, 1, 0, 0, dup), kSuccess);
        answer = v;
      }
      ASSERT_EQ(comm_free(&dup), kSuccess);
    });
    rt.run("main", 2);
    ASSERT_EQ(answer.load(), 7) << "run " << run;
  }
}

// A receive that test() completes with a failure must run the request's
// communicator error handler once, as wait() on the same request does.
TEST(Nonblocking, TestRunsTheErrorHandlerLikeWait) {
  Runtime rt;
  std::atomic<int> test_rc{-1}, test_flag{-1}, test_null{-1}, test_calls{-1};
  std::atomic<int> wait_rc{-1}, wait_calls{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 1) abort_self();
    while (!runtime().is_dead(w.group().pids[1])) yield();
    int calls = 0;
    ASSERT_EQ(comm_set_errhandler(w, [&calls](Comm&, int&) { ++calls; }), kSuccess);
    int v = 0;
    Request req;
    ASSERT_EQ(irecv(&v, 1, 1, 0, w, &req), kSuccess);
    int flag = 0;
    test_rc = test(&req, &flag);
    test_flag = flag;
    test_null = req.is_null() ? 1 : 0;
    test_calls = calls;
    Request again;
    ASSERT_EQ(irecv(&v, 1, 1, 0, w, &again), kSuccess);
    wait_rc = wait(&again);
    wait_calls = calls - test_calls.load();
  });
  rt.run("main", 2);
  EXPECT_EQ(test_rc.load(), kErrProcFailed);
  EXPECT_EQ(test_flag.load(), 1);
  EXPECT_EQ(test_null.load(), 1);
  EXPECT_EQ(test_calls.load(), 1);
  EXPECT_EQ(wait_rc.load(), kErrProcFailed);
  EXPECT_EQ(wait_calls.load(), 1);
}

// --- payloads passed by ownership --------------------------------------------

namespace {

std::vector<std::byte> numbered_payload(std::size_t n, int seed) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::byte>((i * 7 + seed) & 0xff);
  return p;
}

}  // namespace

// A payload sent by move arrives in the buffer the sender filled: the same
// data() pointer through send_bytes and isend_bytes into recv_bytes and
// recv_buffered, the last also on a revoked communicator.
TEST(MovedPayload, ArrivesInTheBufferTheSenderFilled) {
  Runtime rt;
  constexpr int kMsgs = 4;
  std::atomic<const std::byte*> sent[kMsgs] = {};
  std::atomic<const std::byte*> got[kMsgs] = {};
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm dup;
    ASSERT_EQ(comm_dup(w, &dup), kSuccess);
    if (w.rank() == 0) {
      for (int m = 0; m < kMsgs; ++m) {
        auto p = numbered_payload(1000 + 100 * static_cast<std::size_t>(m), m);
        sent[m] = p.data();
        int rc = kSuccess;
        if (m % 2 == 0) {
          rc = send_bytes(std::move(p), 1, m, dup);
        } else {
          Request req;
          rc = isend_bytes(std::move(p), 1, m, dup, &req);
          if (rc == kSuccess) rc = wait(&req);
        }
        bad += rc != kSuccess;
        bad += !p.empty();  // the buffer went with the message
      }
    }
    ASSERT_EQ(barrier(w), kSuccess);
    if (w.rank() == 1) {
      for (int m = 0; m < kMsgs; ++m) {
        if (m == kMsgs - 1) {
          ASSERT_EQ(comm_revoke(dup), kSuccess);
        }
        std::vector<std::byte> p(3);  // whatever it held is released
        Status st;
        const int rc = m < 2 ? recv_bytes(&p, 0, m, dup, &st) : recv_buffered(&p, 0, m, dup, &st);
        bad += rc != kSuccess;
        bad += p != numbered_payload(1000 + 100 * static_cast<std::size_t>(m), m);
        bad += st.count != static_cast<int>(p.size()) || st.source != 0 || st.tag != m;
        got[m] = p.data();
      }
    }
    ASSERT_EQ(barrier(w), kSuccess);
    ASSERT_EQ(comm_free(&dup), kSuccess);
  });
  rt.run("main", 2);
  EXPECT_EQ(bad.load(), 0);
  for (int m = 0; m < kMsgs; ++m) {
    EXPECT_NE(sent[m].load(), nullptr) << "message " << m;
    EXPECT_EQ(got[m].load(), sent[m].load()) << "message " << m;
  }
}

// The pointer forms copy once and keep their rules: a payload longer than
// the buffer fills it, returns kErrArg and runs the error handler (the
// buffered salvage form runs none), and a shorter one fills a prefix.
TEST(MovedPayload, PointerFormsKeepTheirRules) {
  Runtime rt;
  std::atomic<int> bad{0};
  std::atomic<int> calls_after_long{-1}, calls_at_end{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm dup;
    ASSERT_EQ(comm_dup(w, &dup), kSuccess);
    if (w.rank() == 0) {
      const int eight[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      ASSERT_EQ(send(eight, 8, 1, 1, dup), kSuccess);
      ASSERT_EQ(send(eight, 2, 1, 2, dup), kSuccess);
      ASSERT_EQ(send(eight, 8, 1, 3, dup), kSuccess);
    }
    ASSERT_EQ(barrier(w), kSuccess);
    if (w.rank() == 1) {
      int calls = 0;
      ASSERT_EQ(comm_set_errhandler(dup, [&calls](Comm&, int&) { ++calls; }), kSuccess);
      int four[4] = {-1, -1, -1, -1};
      Status st;
      bad += recv(four, 4, 0, 1, dup, &st) != kErrArg;
      bad += four[0] != 1 || four[3] != 4;
      bad += st.count != 4 * static_cast<int>(sizeof(int)) || st.error != kErrArg;
      calls_after_long = calls;
      int prefix[4] = {-1, -1, -1, -1};
      bad += recv(prefix, 4, 0, 2, dup, &st) != kSuccess;
      bad += prefix[0] != 1 || prefix[1] != 2 || prefix[2] != -1 || prefix[3] != -1;
      bad += st.count != 2 * static_cast<int>(sizeof(int)) || st.error != kSuccess;
      int salvage[4] = {-1, -1, -1, -1};
      bad += recv_buffered(salvage, sizeof(salvage), 0, 3, dup, &st) != kErrArg;
      bad += salvage[3] != 4 || st.count != static_cast<int>(sizeof(salvage));
      calls_at_end = calls;
    }
    ASSERT_EQ(barrier(w), kSuccess);
    ASSERT_EQ(comm_free(&dup), kSuccess);
  });
  rt.run("main", 2);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(calls_after_long.load(), 1);
  EXPECT_EQ(calls_at_end.load(), 1);
}
