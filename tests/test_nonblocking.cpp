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
