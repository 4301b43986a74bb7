// Non-blocking overlapped recovery (RecoveryPolicy::Overlap): survivors of
// unaffected grids keep time-stepping on a continuation sub-communicator
// while the affected grids' survivors rebuild the world in the background,
// meeting again at the doorbell handoff.  Covers the happy path (handoff,
// overlapped steps, exact recovery), the planner-policy pin (overlap
// machinery fully disengaged), and chaos kills at the overlap protocol
// boundaries "repair.split", "repair.doorbell" and "repair.handoff" and
// inside the background respawn ("spawn", "merge") (restart-not-deadlock: the attempt aborts onto the classic fallback and
// the run still completes correctly).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/async_repair.hpp"
#include "core/chaos.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "core/metrics.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftr::core;
using ftr::comb::Scheme;
using ftr::comb::Technique;

namespace {

LayoutConfig small_layout() {
  LayoutConfig cfg;
  cfg.scheme = Scheme{6, 3};  // 3 diagonal + 2 lower-diagonal grids
  cfg.technique = Technique::CheckpointRestart;
  cfg.procs_diagonal = 4;
  cfg.procs_lower = 2;
  cfg.procs_extra_upper = 2;
  cfg.procs_extra_lower = 1;
  return cfg;
}

AppConfig overlap_app() {
  AppConfig cfg;
  cfg.layout = small_layout();
  cfg.timesteps = 24;
  cfg.checkpoints = 2;
  cfg.recovery = RecoveryPolicy::Overlap;
  return cfg;
}

ftmpi::Runtime::Options rt_opts() {
  ftmpi::Runtime::Options o;
  o.slots_per_host = 12;
  o.real_time_limit_sec = 120.0;
  return o;
}

double clean_error(Technique tech = Technique::CheckpointRestart) {
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = overlap_app();
  cfg.layout.technique = tech;
  cfg.recovery = RecoveryPolicy::Technique;
  FtApp app(cfg);
  app.launch(rt);
  return rt.get(keys::kErrorL1, -1);
}

}  // namespace

// --- protocol unit tests ----------------------------------------------------

TEST(OverlapClassify, PartitionsSurvivorsByAffectedGrid) {
  const Layout layout = build_layout(small_layout());
  // Grid 1 spans ranks 4..7; rank 5 died.  Everyone else survives.
  std::vector<int> survivors;
  for (int r = 0; r < layout.total_procs; ++r) {
    if (r != 5) survivors.push_back(r);
  }
  const auto cls = overlap::classify(layout, survivors, {5});
  ASSERT_TRUE(cls.overlappable());
  EXPECT_EQ(cls.failed, std::vector<int>({5}));
  EXPECT_EQ(cls.affected, std::vector<int>({1}));
  EXPECT_EQ(cls.repair, std::vector<int>({4, 6, 7}));
  // rworld = repair + failed, ascending; rank == position after the split.
  EXPECT_EQ(cls.rworld, std::vector<int>({4, 5, 6, 7}));
  EXPECT_EQ(cls.rworld_rank_of(6), 2);
  EXPECT_EQ(cls.rworld_rank_of(0), -1);
  EXPECT_EQ(cls.repair_leader_old, 4);
  // No continuation rank belongs to an affected grid.
  for (int r : cls.continuation) {
    EXPECT_NE(layout.grid_of_rank(r), 1);
  }
}

TEST(OverlapDoorbell, EpochValidation) {
  overlap::DoorbellWire w;
  w.verdict = overlap::kVerdictReady;
  w.repair_epoch = 3;
  w.detector_epoch = 2;
  EXPECT_TRUE(overlap::epoch_ok(w, 3, 1));
  EXPECT_TRUE(overlap::epoch_ok(w, 3, 2));
  // Wrong attempt: a doorbell from an aborted earlier overlap must die.
  EXPECT_FALSE(overlap::epoch_ok(w, 4, 1));
  // Stale failure knowledge: sent before the attempt was armed.
  EXPECT_FALSE(overlap::epoch_ok(w, 3, 3));
  w.verdict = overlap::kVerdictNone;
  EXPECT_FALSE(overlap::epoch_ok(w, 3, 1));
}

TEST(OverlapManifest, PackUnpackRoundTrip) {
  std::vector<ftr::rec::ReplicaMessage> reps(2);
  reps[0].grid = 1;
  reps[0].grank = 0;
  reps[0].step = 12;
  reps[0].wire = ftr::rec::pack_replica(1, 0, 12, {1.0, 2.0, 3.0});
  reps[1].grid = 1;
  reps[1].grank = 1;
  reps[1].step = 12;
  reps[1].wire = ftr::rec::pack_replica(1, 1, 12, {4.0, 5.0});
  const auto bytes = overlap::pack_manifest(reps);
  // [n] then [nbytes][wire] per record.
  ASSERT_EQ(bytes.size(), 3 * sizeof(long) + reps[0].wire.size() + reps[1].wire.size());
  const auto back = overlap::unpack_manifest(bytes.data(), bytes.size());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].grid, 1);
  EXPECT_EQ(back[0].grank, 0);
  EXPECT_EQ(back[0].step, 12);
  EXPECT_EQ(back[0].wire, reps[0].wire);
  EXPECT_EQ(back[1].grank, 1);
  EXPECT_EQ(back[1].wire, reps[1].wire);
  // A record that fails its CRC is dropped and the rest kept.
  auto torn = bytes;
  torn[2 * sizeof(long) + ftr::rec::kReplicaHeaderBytes] ^= std::byte{0x01};
  const auto kept = overlap::unpack_manifest(torn.data(), torn.size());
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].wire, reps[1].wire);
  // The empty manifest is valid wire traffic (every survivor sends one).
  const auto none = overlap::pack_manifest({});
  EXPECT_TRUE(overlap::unpack_manifest(none.data(), none.size()).empty());
}

// --- end-to-end: survivors keep stepping while repair runs -----------------

TEST(OverlapRecovery, MinorityKillHandsOffAndMatchesCleanError) {
  const double err_clean = clean_error();
  ASSERT_GE(err_clean, 0.0);

  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = overlap_app();
  cfg.failures.kill_at_step[5] = 10;  // a rank of grid 1 dies mid-run
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);

  // The background repair completed and both sides swapped onto the
  // repaired world at the doorbell handoff...
  EXPECT_GE(rt.get(keys::kOverlapHandoffs, -1), 1.0);
  // ...while the continuation side made forward progress during the repair.
  EXPECT_GT(rt.get(keys::kOverlapSteps, -1), 0.0);

  // CR restoration is exact, so overlapping it must not change the answer.
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_NEAR(err, err_clean, 1e-12);
}

TEST(OverlapRecovery, AcMinorityKillHandsOffAtItsOnlyDetectionPoint) {
  // The same minority kill on an AC layout: AC runs one interval, so the
  // overlap engages at the single detection point before the combination
  // and hands off there.  Continuation grids hand off on READY wherever
  // they stand and must still reach `timesteps` before the combination;
  // the repair side recomputes the lost grid exactly, so the answer equals
  // the clean AC run's.
  const double err_clean = clean_error(Technique::AlternateCombination);
  ASSERT_GE(err_clean, 0.0);

  AppConfig cfg = overlap_app();
  cfg.layout.technique = Technique::AlternateCombination;
  cfg.failures.kill_at_step[5] = 10;
  ftmpi::Runtime rt(rt_opts());
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 1);
  EXPECT_GE(rt.get(keys::kOverlapHandoffs, -1), 1.0);
  EXPECT_EQ(rt.get(keys::kOverlapAborts, 0), 0.0);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  // The repair leader records the plan it executed: grid 1 has no RC
  // partner on the repair side and no buddy replica, so it rolls back
  // through the disk rung and its block counts as recovery-source bytes.
  EXPECT_DOUBLE_EQ(rt.get(std::string(keys::kPlanPrefix) + "disk", 0), 1.0);
  EXPECT_GT(rt.get(keys::kRecoveryBytes, 0), 0.0);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_NEAR(err, err_clean, 1e-12);
}

TEST(OverlapRecovery, PlannerPolicyPinsClassicPath) {
  // RecoveryPolicy::Planner must reproduce the pre-overlap recovery path
  // bit-for-bit: the overlap machinery never engages (no handoffs, no
  // overlapped steps, no aborts) and the recovered error equals the clean
  // error exactly, as the classic CR pin guarantees.
  const double err_clean = clean_error();

  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = overlap_app();
  cfg.recovery = RecoveryPolicy::Planner;
  cfg.failures.kill_at_step[5] = 10;
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(rt.get(keys::kOverlapHandoffs, 0), 0.0);
  EXPECT_EQ(rt.get(keys::kOverlapSteps, 0), 0.0);
  EXPECT_EQ(rt.get(keys::kOverlapAborts, 0), 0.0);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_NEAR(err, err_clean, 1e-12);
}

// --- chaos: kills at the overlap protocol boundaries -----------------------

namespace {

/// Run the overlap app with one mid-run kill plus a chaos kill of `victim`
/// at overlap phase `label`; the attempt must abort onto the classic
/// stop-the-world fallback and still finish with a correct answer.
/// `expect_killed` counts all deaths: the step-10 self-kill, the chaos
/// victim, and — for kills landing after the background spawn — the
/// aborted overlap replacement child.
void chaos_overlap_run(const char* label, int victim, int expect_killed) {
  ftmpi::Runtime rt(rt_opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = label, .victim = victim, .occurrence = 1});
  AppConfig cfg = overlap_app();
  cfg.failures.kill_at_step[5] = 10;
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, expect_killed) << label;
  EXPECT_EQ(chaos.kills_fired(), 1) << label;
  // The overlap attempt died with the victim; the classic fallback repaired
  // the world and the run completed (restart, not deadlock).
  EXPECT_GE(rt.get(keys::kRepairs, -1), 1.0) << label;
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0) << label;
  EXPECT_LT(err, 0.2) << label;
}

}  // namespace

TEST(OverlapChaos, KillAtSplitFallsBackToClassic) {
  // Victim 4 is the repair leader: it dies entering "repair.split", so the
  // prefix's continuation/repair split fails and everyone falls back.  The
  // kill lands before the background spawn, so only two processes die.
  chaos_overlap_run("repair.split", 4, /*expect_killed=*/2);
}

TEST(OverlapChaos, KillAtDoorbellFallsBackToClassic) {
  // The repair leader dies ringing "repair.doorbell": the continuation side
  // sees the bridge revoke (death of the lone ringer) or times out, aborts
  // the attempt and rejoins the classic repair.  The background replacement
  // was already spawned; it aborts with the attempt (third death).
  chaos_overlap_run("repair.doorbell", 4, /*expect_killed=*/3);
}

TEST(OverlapChaos, KillAtHandoffFallsBackToClassic) {
  // A continuation rank dies entering "repair.handoff": the join collective
  // fails on both sides and the classic fallback repairs the full world.
  // Victim 1, not 0: the classic post-repair run-state broadcast is rooted
  // at world rank 0, a protocol assumption that predates overlapped
  // recovery, so the root stays out of chaos scope here.
  chaos_overlap_run("repair.handoff", 1, /*expect_killed=*/3);
}

TEST(OverlapChaos, KillAtSpawnFallsBackToClassic) {
  // Victim 6, a survivor of grid 1 on the repair side, dies entering the
  // background spawn.  The spawn root (rank 4) still launches the
  // replacement, the intercomm agree fails, the replacement aborts as an
  // orphan (third death) and the classic fallback repairs the world.
  chaos_overlap_run("spawn", 6, /*expect_killed=*/3);
}

TEST(OverlapChaos, KillAtMergeFallsBackToClassic) {
  // Victim 6 dies entering the background merge, after the agree validated
  // the spawn: the ordered split detects it, the replacement aborts.
  chaos_overlap_run("merge", 6, /*expect_killed=*/3);
}
