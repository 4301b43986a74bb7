// Failure-detector tests: heartbeat-ring detection, gossip propagation,
// chaos kills at the detector's own phase boundaries, the tree agreement
// under chaos, and the detector.enabled = false legacy fallback.
//
// The detector is a zero virtual-cost overlay, but *when* knowledge arrives
// at a rank depends on real message timing.  Tests therefore assert virtual
// upper bounds and convergence, never exact learn times.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "core/chaos.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/detector.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftmpi;
using ftr::comb::Scheme;
using ftr::comb::Technique;
using ftr::core::AppConfig;
using ftr::core::ChaosInjector;
using ftr::core::FtApp;
using ftr::core::LayoutConfig;

namespace {

Runtime::Options det_opts(int slots = 8) {
  Runtime::Options o;
  o.slots_per_host = slots;
  o.real_time_limit_sec = 120.0;
  return o;
}

/// Tick the virtual clock in small increments (each increment runs the
/// detector's maybe_tick hook) until `stop` is set or `max_ticks` pass.
/// Each tick yields a little real time: rank threads are real threads, and
/// without pacing the scheduler can run one rank's entire loop before its
/// peers get a single slice — no ring can form over such a schedule.
/// Returns the number of ticks spent.
int tick_until(const std::atomic<bool>& stop, int max_ticks, double dt = 0.05) {
  int t = 0;
  for (; t < max_ticks && !stop.load(); ++t) {
    advance(dt);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  return t;
}

/// Real-time startup rendezvous.  Runtime::run starts rank threads
/// sequentially, and the scheduler may run an early thread's entire
/// observation loop before a later thread exists; every ring test must
/// therefore hold all ranks at the line until the full ring is up.
void rendezvous(std::atomic<int>& arrived, int expected) {
  ++arrived;
  while (arrived.load() < expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace

// Satellite regression: the idle-rank blind spot.  A rank that performs no
// communication at all must still learn of a remote death within a bounded
// number of virtual-clock ticks — via ring timeout at the victim's
// neighbour and O(log N) gossip from there, never by touching the dead
// process itself.
TEST(Detector, IdleRankLearnsRemoteDeathWithinBoundedTicks) {
  constexpr int kWorld = 6;
  constexpr int kVictim = 3;
  constexpr int kIdle = 0;
  // 400 ticks x 0.05s = 20 virtual seconds, far above the expected
  // detect-plus-gossip latency (~2s with the default thresholds).
  constexpr int kMaxTicks = 400;
  constexpr double kLearnBound = 6.0;

  Runtime rt(det_opts());
  std::atomic<int> arrived{0};
  std::atomic<bool> learned{false};
  std::atomic<int> bad{0};
  std::atomic<double> learn_when{-1.0};
  std::atomic<int> learn_source{-1};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    Comm w = world();
    const ProcId vpid = w.group().pids[static_cast<size_t>(kVictim)];
    rendezvous(arrived, kWorld);
    if (w.rank() == kVictim) abort_self();
    if (w.rank() == kIdle) {
      // The idle rank: no sends, no receives, no collectives — only local
      // work (virtual-time charges).  Detection must come to *it*.
      for (int t = 0; t < kMaxTicks && !learned.load(); ++t) {
        advance(0.05);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        if (detector_knows_failure_in(w)) {
          for (const auto& r : detector_records()) {
            if (r.dead == vpid) {
              learn_when.store(r.when);
              learn_source.store(static_cast<int>(r.how));
            }
          }
          learned.store(true);
        }
      }
      if (!learned.load()) ++bad;
    } else {
      // Other survivors only run their ring duties (the victim's ring
      // successor is the one whose timeout fires first).
      tick_until(learned, kMaxTicks);
    }
  });
  rt.run("app", kWorld);
  EXPECT_EQ(bad.load(), 0) << "idle rank never learned of the remote death";
  ASSERT_TRUE(learned.load());
  EXPECT_LE(learn_when.load(), kLearnBound);
  // The idle rank is not a ring neighbour of the victim and never touched
  // it, so its knowledge can only have arrived by gossip.
  EXPECT_EQ(learn_source.load(), static_cast<int>(detector::Source::kGossip));
}

// A slow-but-alive rank (silent beyond the suspicion threshold) must be
// suspected, probed, and cleared — never declared dead.
TEST(Detector, SlowButAliveRankIsNeverDeclaredDead) {
  constexpr int kWorld = 3;
  constexpr int kSlow = 1;
  Runtime rt(det_opts(4));
  std::atomic<int> arrived{0};
  std::atomic<int> observers_done{0};
  std::atomic<long> false_alarms{0};
  std::atomic<int> wrongly_declared{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    Comm w = world();
    rendezvous(arrived, kWorld);
    if (w.rank() == kSlow) {
      // Stalled: no virtual-time progress, hence no heartbeats, for the
      // whole observation window — but alive the entire time.  It must not
      // leave until *both* observers finish judging, or it would drop out
      // of their rings as a clean exit before the window closes.
      while (observers_done.load() < kWorld - 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return;
    }
    // 120 ticks x 0.05s = 6 virtual seconds of silence from the slow rank,
    // several times the confirm threshold (1.25s).
    for (int t = 0; t < 120; ++t) {
      advance(0.05);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    if (!detector_known_failed().empty()) ++wrongly_declared;
    // The slow rank's ring successor is the judge; it must have probed at
    // least once (suspect -> probe -> alive -> cleared).
    const ProcId slow_pid = w.group().pids[kSlow];
    if (w.group().pids[(static_cast<size_t>(w.rank()) + kWorld - 1) % kWorld] == slow_pid) {
      false_alarms.store(detail::self().det.false_alarms);
    }
    ++observers_done;
  });
  rt.run("app", kWorld);
  EXPECT_EQ(wrongly_declared.load(), 0) << "slow-but-alive rank declared dead";
  EXPECT_GE(false_alarms.load(), 1) << "judge never probed the silent rank";
}

// Chaos at "detector.gossip": the first informed rank dies *mid fan-out*.
// Knowledge of the original failure must still reach every survivor (the
// relay's own death is detected by the same ring), i.e. propagation has no
// single point of failure.
TEST(Detector, FailureDuringGossipPropagationStillConverges) {
  constexpr int kWorld = 8;
  constexpr int kVictim = 5;
  // The victim's ring successor confirms the death first and is killed at
  // its own first gossip fan-out.
  constexpr int kRelay = 6;
  Runtime rt(det_opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "detector.gossip", .victim = kRelay, .occurrence = 1});

  std::atomic<int> arrived{0};
  std::atomic<int> converged{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    Comm w = world();
    rendezvous(arrived, kWorld);
    if (w.rank() == kVictim) abort_self();
    const ProcId vpid = w.group().pids[kVictim];
    const ProcId rpid = w.group().pids[kRelay];
    for (int t = 0; t < 800; ++t) {
      advance(0.05);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      const auto known = detector_known_failed();
      const std::set<ProcId> k(known.begin(), known.end());
      if (k.count(vpid) > 0 && k.count(rpid) > 0) {
        ++converged;
        break;
      }
    }
  });
  rt.run("app", kWorld);
  EXPECT_EQ(chaos.kills_fired(), 1);
  // All survivors (everyone but victim and relay) know both deaths.
  EXPECT_EQ(converged.load(), kWorld - 2);
}

// Chaos at "detector.heartbeat": a rank dies at its own heartbeat boundary.
// Its ring successor must detect it by timeout and the ring must converge.
TEST(Detector, HeartbeatChaosKillIsDetectedByRing) {
  constexpr int kWorld = 6;
  constexpr int kVictim = 2;
  Runtime rt(det_opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "detector.heartbeat", .victim = kVictim, .occurrence = 2});

  std::atomic<int> arrived{0};
  std::atomic<int> converged{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    Comm w = world();
    const ProcId vpid = w.group().pids[kVictim];
    rendezvous(arrived, kWorld);
    for (int t = 0; t < 800; ++t) {
      advance(0.05);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      if (w.rank() != kVictim && detector_known_failed().size() == 1 &&
          detector_known_failed()[0] == vpid) {
        ++converged;
        break;
      }
    }
  });
  rt.run("app", kWorld);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_EQ(converged.load(), kWorld - 1);
}

// Chaos at "agree.tree": a participant dies at its first entry into the
// tree agreement.  All survivors must still decide, uniformly: first the
// failure error, then (after acknowledging) success.
TEST(Detector, TreeAgreeUniformUnderChaosKill) {
  constexpr int kWorld = 8;
  constexpr int kVictim = 3;
  Runtime rt(det_opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "agree.tree", .victim = kVictim, .occurrence = 1});

  std::atomic<int> first_failed{0}, first_ok{0}, second_ok{0}, bad{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    Comm w = world();
    int flag = 1;
    const int rc1 = comm_agree(w, &flag);
    if (rc1 == kSuccess) {
      ++first_ok;
    } else if (rc1 == kErrProcFailed) {
      ++first_failed;
    } else {
      ++bad;
    }
    if (rc1 != kSuccess) {
      if (comm_failure_ack(w) != kSuccess) ++bad;
    }
    int flag2 = 1;
    if (comm_agree(w, &flag2) == kSuccess && flag2 == 1) {
      ++second_ok;
    } else {
      ++bad;
    }
  });
  rt.run("app", kWorld);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_EQ(bad.load(), 0);
  // Uniformity: every survivor reports the same outcome per round.  The
  // kill fires at the victim's *entry*, before it participates, so every
  // survivor must observe the failure in round one.
  EXPECT_EQ(first_ok.load(), 0);
  EXPECT_EQ(first_failed.load(), kWorld - 1);
  EXPECT_EQ(second_ok.load(), kWorld - 1);
}

// --- application-level wiring ----------------------------------------------

namespace {

LayoutConfig small_layout(Technique t) {
  LayoutConfig cfg;
  cfg.scheme = Scheme{6, 3};
  cfg.technique = t;
  cfg.procs_diagonal = 4;
  cfg.procs_lower = 2;
  cfg.procs_extra_upper = 2;
  cfg.procs_extra_lower = 1;
  return cfg;
}

Runtime::Options app_opts(bool detector_on = true) {
  Runtime::Options o;
  o.slots_per_host = 12;
  o.real_time_limit_sec = 120.0;
  o.detector.enabled = detector_on;
  return o;
}

}  // namespace

// Detector-off fallback: with the detector disabled the runtime must
// behave *bit-for-bit* like the pre-detector code — and because the
// detector is a zero virtual-cost overlay, enabling it must not move any
// result either.
//
// The failure-free run is fully deterministic, so there the comparison is
// exact on every metric.  A *failing* run's total time was racy before the
// detector existed (which blocked rank wakes first and eats the
// failure-detect latency varies with the OS schedule), so for the failing
// case the comparison covers the deterministic outputs: solution error,
// kill count, and repair count.
TEST(Detector, OffFallbackMatchesLegacyBitForBit) {
  AppConfig cfg;
  cfg.layout = small_layout(Technique::CheckpointRestart);
  cfg.timesteps = 24;
  cfg.checkpoints = 2;

  double total[2], err[2];
  for (const bool on : {false, true}) {
    Runtime rt(app_opts(on));
    FtApp app(cfg);
    ASSERT_EQ(app.launch(rt), 0);
    total[on] = rt.get(ftr::core::keys::kTotalTime, -1.0);
    err[on] = rt.get(ftr::core::keys::kErrorL1, -1.0);
  }
  EXPECT_EQ(total[0], total[1]);
  EXPECT_EQ(err[0], err[1]);
  EXPECT_GT(total[0], 0.0);
  EXPECT_GE(err[0], 0.0);

  cfg.failures.kill_at_step[3] = 7;
  double ferr[2], repairs[2];
  for (const bool on : {false, true}) {
    Runtime rt(app_opts(on));
    FtApp app(cfg);
    ASSERT_EQ(app.launch(rt), 1);
    ferr[on] = rt.get(ftr::core::keys::kErrorL1, -1.0);
    repairs[on] = rt.get(ftr::core::keys::kRepairs, 0.0);
    EXPECT_GT(rt.get(ftr::core::keys::kRecoveryTime, -1.0), 0.0);
  }
  EXPECT_EQ(ferr[0], ferr[1]);
  EXPECT_EQ(repairs[0], repairs[1]);
  // CR rollback restores exactly: the recovered error equals failure-free.
  EXPECT_EQ(ferr[0], err[0]);
}

// Proactive exits (RecoveryPolicy::Overlap): a detector notification lets
// ranks whose collectives never touch the dead process leave the solve loop
// and enter the repair early.  A chaos kill of the repair leader at
// "repair.split" makes the overlap attempt fall back, so the proactive exits
// lead into the classic stop-the-world reconstruct().  Correctness must
// hold on every run regardless of whether the race fires; the counter must
// fire at least once across a few attempts.
TEST(Detector, ProactiveRecoveryKeepsResultsCorrect) {
  AppConfig base;
  base.layout = small_layout(Technique::CheckpointRestart);
  base.timesteps = 24;
  base.checkpoints = 2;

  // Failure-free baseline error (CR restores exactly, so every repaired
  // run must reproduce it).
  double base_err = 0.0;
  {
    Runtime rt(app_opts());
    FtApp app(base);
    ASSERT_EQ(app.launch(rt), 0);
    base_err = rt.get(ftr::core::keys::kErrorL1, -1.0);
    ASSERT_GE(base_err, 0.0);
  }

  AppConfig cfg = base;
  cfg.recovery = ftr::core::RecoveryPolicy::Overlap;
  cfg.failures.kill_at_step[5] = 2;  // grid 1 loses a member early in the interval
  bool saw_proactive = false;
  for (int attempt = 0; attempt < 12 && !saw_proactive; ++attempt) {
    // Aggressive detector thresholds widen the proactive window: the ring
    // confirms the death while other grids still have most of the interval
    // ahead of them, so gossip reaches ranks that are still stepping.
    Runtime::Options o = app_opts();
    o.detector.period = 0.02;
    o.detector.suspect_after = 0.06;
    o.detector.confirm_after = 0.1;
    Runtime rt(o);
    // Rank 4 leads grid 1's repair side: its death fails the continuation/
    // repair split, and the classic reconstruct repairs both dead ranks.
    ChaosInjector chaos(rt);
    chaos.schedule({.phase = "repair.split", .victim = 4, .occurrence = 1});
    FtApp app(cfg);
    ASSERT_EQ(app.launch(rt), 2);
    EXPECT_EQ(rt.get(ftr::core::keys::kRepairs, 0.0), 1.0);
    const double err = rt.get(ftr::core::keys::kErrorL1, -1.0);
    // CR rollback restores the exact pre-failure state, so the recovered
    // error must match the failure-free baseline whether or not any rank
    // left the loop proactively (the catch-up in post_repair re-solves
    // short grids before restoration).
    EXPECT_NEAR(err, base_err, 1e-12);
    if (rt.get(ftr::core::keys::kProactiveExits, 0.0) > 0.0) {
      EXPECT_GE(rt.get("recon.detector_preknown", 0.0), 1.0);
      saw_proactive = true;
    }
  }
  EXPECT_TRUE(saw_proactive)
      << "no rank ever left the solve loop proactively in 12 attempts";
}
