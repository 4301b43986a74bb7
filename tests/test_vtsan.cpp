// Tests for the virtual-time happens-before sanitizer (FTR_SANITIZE=vtsan).
//
// The sanitizer is the dynamic cross-check for ftlint's fiber-readiness
// rules FTL008-FTL010: two ranks touching an instrumented shared runtime
// structure (the results blackboard, the communicator-context registry)
// with no message chain ordering the accesses must abort with a
// "ftmpi-vtsan:" diagnostic naming both call sites.  The positive tests
// pin that message-ordered accesses, spawn inheritance, and back-to-back
// run() invocations stay silent; the death tests seed the two conflict
// classes (write-write and read-write) and match their distinct pinned
// diagnostics.  Without FTR_VTSAN the whole suite is a single explicit
// skip, so a plain build still registers (and documents) the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "ftmpi/vtsan.hpp"

#ifndef FTR_VTSAN

TEST(Vtsan, RequiresVtsanBuild) {
  GTEST_SKIP() << "built without FTR_SANITIZE=vtsan; the virtual-time "
                  "happens-before tracker is compiled out";
}

#else

using namespace ftmpi;

namespace {

/// Detector heartbeats carry vector clocks like any other message, so they
/// can accidentally order two otherwise-unsynchronized accesses.  The death
/// tests need the conflict to be deterministic, so they run detector-less.
Runtime::Options quiet_opts() {
  Runtime::Options opt;
  opt.slots_per_host = 4;
  opt.real_time_limit_sec = 60.0;
  opt.detector.enabled = false;
  return opt;
}

}  // namespace

TEST(Vtsan, MessageOrderedHandoffStaysSilent) {
  // The sanctioned ownership-transfer idiom: rank 0 writes the key, then a
  // message to rank 1 carries rank 0's clock, so rank 1's overwrite is
  // ordered after rank 0's and the tracker must stay silent.
  Runtime rt(quiet_opts());
  std::atomic<int> failures{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      runtime().put("vtsan_handoff", 1.0);
      const double token = 1.0;
      if (send(&token, 1, 1, 5, w) != kSuccess) ++failures;
    } else if (w.rank() == 1) {
      double token = 0.0;
      if (recv(&token, 1, 0, 5, w) != kSuccess) ++failures;
      runtime().put("vtsan_handoff", 2.0);
    }
  });
  EXPECT_EQ(rt.run("main", 2), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rt.get("vtsan_handoff", 0.0), 2.0);
}

TEST(Vtsan, CollectiveOrderedAccessesStaySilent) {
  // A barrier's message exchange is a clock join for every rank, so
  // write-then-barrier-then-read across ranks is ordered.  Also exercises
  // the context registry instrumentation: every collective looks the world
  // context up, and those reads are all ordered after its creation.
  Runtime rt(quiet_opts());
  std::atomic<int> failures{0};
  std::atomic<int> observed{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) runtime().put("vtsan_bcast", 4.25);
    if (barrier(w) != kSuccess) ++failures;
    if (w.rank() != 0 && runtime().get("vtsan_bcast", 0.0) == 4.25) ++observed;
  });
  EXPECT_EQ(rt.run("main", 4), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(observed.load(), 3);
}

TEST(Vtsan, SequentialRunsInheritTheDriverClock) {
  // Back-to-back run() calls on one Runtime reuse blackboard keys all the
  // time (the bench harnesses do exactly this).  The driver clock folds the
  // first run's history into the second run's start snapshots, so the
  // second write to the same key is ordered, not a race.
  Runtime rt(quiet_opts());
  rt.register_app("main", [&](const std::vector<std::string>&) {
    if (world().rank() == 0) {
      runtime().put("vtsan_reused", runtime().get("vtsan_reused", 0.0) + 1.0);
    }
  });
  EXPECT_EQ(rt.run("main", 2), 0);
  EXPECT_EQ(rt.run("main", 2), 0);
  EXPECT_EQ(rt.get("vtsan_reused", 0.0), 2.0);
}

using VtsanDeath = ::testing::Test;

TEST(VtsanDeath, UnorderedWritesToOneKeyAbort) {
  // Two ranks write the same blackboard key and never exchange a message:
  // nothing orders the writes, so the surviving value is decided by which
  // rank got the mutex last.  The tracker must abort the second write
  // with the write-write diagnostic naming both sites.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(quiet_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          runtime().put("vtsan_ww", static_cast<double>(world().rank()));
        });
        rt.run("main", 2);
      },
      "ftmpi-vtsan: write-write race on blackboard key 'vtsan_ww'");
}

TEST(VtsanDeath, UnorderedReadOfAWrittenKeyAborts) {
  // Rank 0 writes, rank 1 reads, no message between them: whichever access
  // runs second conflicts with the first, and in both interleavings the
  // pair is a read-write conflict.  Distinct diagnostic from the
  // write-write class above.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(quiet_opts());
        rt.register_app("main", [&](const std::vector<std::string>&) {
          Comm& w = world();
          if (w.rank() == 0) runtime().put("vtsan_rw", 3.5);
          if (w.rank() == 1) (void)runtime().get("vtsan_rw", 0.0);
        });
        rt.run("main", 2);
      },
      "ftmpi-vtsan: read-write race on blackboard key 'vtsan_rw'");
}

#endif  // FTR_VTSAN
