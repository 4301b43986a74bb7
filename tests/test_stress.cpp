// Property/stress tests: randomized failure patterns against the ULFM
// layer's invariants, traffic statistics, and repeated repair cycles.

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftmpi;

TEST(Stats, MessageCountersIncrease) {
  Runtime rt;
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    double v = 1.0;
    (void)allreduce(&v, &v, 1, ReduceOp::Sum, w);
    (void)barrier(w);
  });
  rt.run("main", 6);
  const auto s = rt.stats();
  // allreduce (gather up + release + bcast) + barrier: >= 4 messages per
  // non-root rank.
  EXPECT_GE(s.messages, 20);
  EXPECT_GT(s.bytes, 0);
}

TEST(Stats, CrossHostCountedSeparately) {
  Runtime::Options o;
  o.slots_per_host = 2;
  Runtime rt(o);
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int v = 0;
    if (w.rank() == 0) {
      (void)send(&v, 1, 1, 0, w);  // same host
      (void)send(&v, 1, 2, 0, w);  // cross host
    } else {
      int r;
      (void)recv(&r, 1, 0, 0, w);
    }
  });
  rt.run("main", 3);
  const auto s = rt.stats();
  EXPECT_EQ(s.messages, 2);
  EXPECT_EQ(s.cross_host, 1);
}

// Every message is counted once, on its sender, and stats() sums them all:
// the user sends the ranks count here, and each rank's heartbeats and
// gossip, also those of the two ranks that kill themselves during the run
// (each at a step of its own, so both kills land however the ranks
// interleave).  One rank per host makes every message cross a host
// boundary.
TEST(Stats, EqualTheSumOfEverySendDetectorIncluded) {
  constexpr int kWorld = 8;
  constexpr int kSteps = 300;
  static_assert(sizeof(detector::HeartbeatWire) == sizeof(detector::GossipWire));
  constexpr long long kDetectorBytes = sizeof(detector::HeartbeatWire);
  Runtime::Options o;
  o.slots_per_host = 1;
  o.real_time_limit_sec = 60.0;
  Runtime rt(o);
  std::atomic<long long> sent{0};
  std::atomic<long long> sent_bytes{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    const int me = w.rank();
    const std::vector<double> payload(static_cast<std::size_t>(me + 1), 1.0);
    for (int step = 0; step < kSteps; ++step) {
      if ((me == 3 && step == 50) || (me == 5 && step == 120)) abort_self();
      const int to = (me + 1 + step % (kWorld - 1)) % kWorld;
      if (send(payload.data(), me + 1, to, 0, w) == kSuccess) {
        ++sent;
        sent_bytes += static_cast<long long>(payload.size() * sizeof(double));
      }
      advance(0.01);  // 3 virtual seconds in all: a heartbeat every 25 steps
    }
  });
  EXPECT_EQ(rt.run("main", kWorld), 2);
  long long detector_msgs = 0;
  for (ProcId p = 0; p < rt.total_processes(); ++p) {
    const detector::State& st = rt.proc(p).det;
    detector_msgs += st.heartbeats_sent + st.gossip_sent;
  }
  EXPECT_GT(detector_msgs, 0);
  const auto s = rt.stats();
  EXPECT_EQ(s.messages, sent.load() + detector_msgs);
  EXPECT_EQ(s.bytes, sent_bytes.load() + detector_msgs * kDetectorBytes);
  EXPECT_EQ(s.cross_host, s.messages);
}

// Randomized shrink/agree invariants: for any failure subset (never rank 0),
// shrink yields exactly the survivors in order, and agree converges on the
// AND of the survivors' flags.
class RandomFailures : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RandomFailures, ShrinkAndAgreeInvariants) {
  const auto [world_size, failures, seed] = GetParam();
  ftr::Xoshiro256 rng(static_cast<uint64_t>(seed));
  std::vector<int> victims;
  while (static_cast<int>(victims.size()) < failures) {
    const int r = 1 + static_cast<int>(rng.bounded(static_cast<uint64_t>(world_size - 1)));
    if (std::find(victims.begin(), victims.end(), r) == victims.end()) victims.push_back(r);
  }
  std::sort(victims.begin(), victims.end());

  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&, victims](const std::vector<std::string>&) {
    Comm& w = world();
    const int r = w.rank();
    if (std::find(victims.begin(), victims.end(), r) != victims.end()) abort_self();
    (void)barrier(w);  // observe failures
    (void)comm_failure_ack(w);

    Comm s;
    if (comm_shrink(w, &s) != kSuccess) ++bad;
    if (s.size() != w.size() - static_cast<int>(victims.size())) ++bad;
    // Survivor order preserved: my shrink rank = my rank minus the number
    // of failed ranks below me.
    int below = 0;
    for (int v : victims) below += v < r ? 1 : 0;
    if (s.rank() != r - below) ++bad;

    int flag = (r % 3 == 0) ? 0 : 1;
    if (comm_agree(w, &flag) != kSuccess) ++bad;
    // Some survivor has rank % 3 == 0 (rank 0 always survives) => AND = 0.
    if (flag != 0) ++bad;
  });
  rt.run("main", world_size);
  EXPECT_EQ(bad.load(), 0) << "world=" << world_size << " failures=" << failures
                           << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomFailures,
    ::testing::Values(std::tuple{6, 1, 1}, std::tuple{6, 2, 2}, std::tuple{9, 3, 3},
                      std::tuple{12, 1, 4}, std::tuple{12, 4, 5}, std::tuple{16, 5, 6},
                      std::tuple{16, 2, 7}, std::tuple{24, 6, 8}));

// Repeated repair cycles: kill -> reconstruct -> verify, several times in
// one run, with respawned processes participating in later episodes.
TEST(Stress, ThreeSequentialRepairEpisodes) {
  Runtime rt;
  std::atomic<int> bad{0};
  constexpr int kWorld = 6;
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    ftr::core::Reconstructor recon({"app", argv});
    Comm w;
    int episode = 0;
    if (!get_parent().is_null()) {
      w = recon.reconstruct({}).comm;
      if (bcast(&episode, 1, 0, w) != kSuccess) ++bad;
    } else {
      w = world();
    }
    for (; episode < 3; ++episode) {
      // The victim of this episode: an original process at rank episode+1.
      const int victim_rank = episode + 1;
      if (w.rank() == victim_rank && get_parent().is_null() &&
          runtime().total_processes() < kWorld + episode + 1) {
        abort_self();
      }
      const auto res = recon.reconstruct(w);
      w = res.comm;
      if (w.size() != kWorld) ++bad;
      int next = episode + 1;
      if (bcast(&next, 1, 0, w) != kSuccess) ++bad;
      if (next != episode + 1) ++bad;
    }
    // Final sanity: a gather across the fully repaired world.
    const int v = w.rank();
    std::vector<int> all(static_cast<size_t>(w.size()));
    if (gather(&v, 1, all.data(), 0, w) != kSuccess) ++bad;
    if (w.rank() == 0) {
      for (int i = 0; i < w.size(); ++i) {
        if (all[static_cast<size_t>(i)] != i) ++bad;
      }
    }
  });
  const int killed = rt.run("app", kWorld);
  EXPECT_EQ(killed, 3);
  EXPECT_EQ(bad.load(), 0);
}

// Collectives on communicators derived by split must be isolated from
// failures in sibling groups until the ranks interact through world.
TEST(Stress, SiblingGroupUnaffectedByFailureElsewhere) {
  Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    Comm half;
    (void)comm_split(w, w.rank() < 3 ? 0 : 1, w.rank(), &half);
    if (w.rank() == 4) abort_self();
    if (w.rank() < 3) {
      // Group 0 is failure-free; its collectives keep working.
      for (int i = 0; i < 5; ++i) {
        double v = 1;
        if (allreduce(&v, &v, 1, ReduceOp::Sum, half) != kSuccess || v != 3.0) ++bad;
      }
    } else if (w.rank() != 4) {
      // Group 1 observes the failure.
      if (barrier(half) != kErrProcFailed) ++bad;
    }
  });
  rt.run("main", 6);
  EXPECT_EQ(bad.load(), 0);
}
