// Additional end-to-end scenarios for the fault-tolerant application:
// failures before the first checkpoint, losses of duplicate grids, two
// failure episodes in one CR run, lower-diagonal losses, determinism of the
// virtual-time results, and blackboard completeness.

#include <gtest/gtest.h>

#include <cmath>

#include "core/ft_app.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftr::core;
using ftr::comb::Scheme;
using ftr::comb::Technique;

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

AppConfig small_app(Technique t) {
  AppConfig cfg;
  cfg.layout = small_layout(t);
  cfg.timesteps = 24;
  cfg.checkpoints = 2;
  return cfg;
}

ftmpi::Runtime::Options rt_opts() {
  ftmpi::Runtime::Options o;
  o.real_time_limit_sec = 120.0;
  return o;
}

}  // namespace

TEST(FtAppEdge, FailureBeforeFirstCheckpointRestartsFromInitial) {
  // Kill at step 2, before any checkpoint exists: the grid must restart
  // from the initial condition and still end exactly right (CR is exact).
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::CheckpointRestart);
  cfg.failures.kill_at_step[5] = 2;
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 1);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);

  ftmpi::Runtime rt2(rt_opts());
  FtApp clean(small_app(Technique::CheckpointRestart));
  clean.launch(rt2);
  EXPECT_NEAR(err, rt2.get(keys::kErrorL1, -1), 1e-12);
}

TEST(FtAppEdge, FailureOnLastStepIsCaughtByEndDetection) {
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::AlternateCombination);
  cfg.failures.kill_at_step[13] = 23;  // the very last step
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 1);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  EXPECT_GE(rt.get(keys::kErrorL1, -1), 0.0);
}

TEST(FtAppEdge, RcAcIgnoreCheckpointCount) {
  // RC/AC run the interval loop with zero checkpoints whatever
  // cfg.checkpoints says: one detection point at the end, no writes, and
  // the same repair and answer for any configured count.
  for (const Technique t : {Technique::ResamplingCopying, Technique::AlternateCombination}) {
    double err[2], repairs[2];
    for (const long c : {0L, 3L}) {
      ftmpi::Runtime rt(rt_opts());
      AppConfig cfg = small_app(t);
      cfg.checkpoints = c;
      cfg.failures.kill_at_step[5] = 10;
      FtApp app(cfg);
      EXPECT_EQ(app.launch(rt), 1) << technique_name(t);
      EXPECT_EQ(rt.get(keys::kCkptWrites, -1), 0.0) << technique_name(t);
      err[c != 0] = rt.get(keys::kErrorL1, -1);
      repairs[c != 0] = rt.get(keys::kRepairs, -1);
    }
    EXPECT_GE(err[0], 0.0) << technique_name(t);
    EXPECT_EQ(err[0], err[1]) << technique_name(t);
    EXPECT_EQ(repairs[0], 1.0) << technique_name(t);
    EXPECT_EQ(repairs[0], repairs[1]) << technique_name(t);
  }
}

TEST(FtAppEdge, RcSurvivesLossOfDuplicateGrid) {
  // Simulated loss of a duplicate grid: recovered by copying its primary;
  // since duplicates do not enter the combination, the error matches clean.
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::ResamplingCopying);
  const Layout layout = build_layout(cfg.layout);
  int dup_id = -1;
  for (const auto& s : layout.slots) {
    if (s.role == ftr::comb::GridRole::Duplicate) dup_id = s.id;
  }
  ASSERT_GE(dup_id, 0);
  cfg.failures.simulated_lost_grids = {dup_id};
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 0);

  ftmpi::Runtime rt2(rt_opts());
  FtApp clean(small_app(Technique::ResamplingCopying));
  clean.launch(rt2);
  EXPECT_NEAR(rt.get(keys::kErrorL1, -1), rt2.get(keys::kErrorL1, -1), 1e-12);
}

TEST(FtAppEdge, RcLowerDiagonalLossUsesResampling) {
  // Losing a lower-diagonal grid forces the approximate resample path; the
  // error must move away from the clean value but stay bounded.
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::ResamplingCopying);
  const Layout layout = build_layout(cfg.layout);
  int lower_id = -1;
  for (const auto& s : layout.slots) {
    if (s.role == ftr::comb::GridRole::LowerDiagonal) lower_id = s.id;
  }
  ASSERT_GE(lower_id, 0);
  cfg.failures.simulated_lost_grids = {lower_id};
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 0);
  const double err = rt.get(keys::kErrorL1, -1);

  ftmpi::Runtime rt2(rt_opts());
  FtApp clean(small_app(Technique::ResamplingCopying));
  clean.launch(rt2);
  const double clean_err = rt2.get(keys::kErrorL1, -1);
  EXPECT_GT(err, clean_err);
  EXPECT_LT(err, 100.0 * clean_err);
}

TEST(FtAppEdge, TwoFailureEpisodesInOneCrRun) {
  // Failures in different checkpoint intervals: two separate repairs.
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::CheckpointRestart);
  cfg.checkpoints = 2;                  // intervals end at steps 8, 16, 24
  cfg.failures.kill_at_step[5] = 4;     // interval 0
  cfg.failures.kill_at_step[9] = 12;    // interval 1
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 2);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 2.0);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);

  ftmpi::Runtime rt2(rt_opts());
  AppConfig clean_cfg = small_app(Technique::CheckpointRestart);
  clean_cfg.checkpoints = 2;
  FtApp clean(clean_cfg);
  clean.launch(rt2);
  EXPECT_NEAR(err, rt2.get(keys::kErrorL1, -1), 1e-12);
}

TEST(FtAppEdge, VirtualTimeIsDeterministic) {
  auto run_once = [](Technique t) {
    ftmpi::Runtime rt(rt_opts());
    AppConfig cfg = small_app(t);
    cfg.failures.simulated_lost_grids = {1};
    FtApp app(cfg);
    app.launch(rt);
    return std::pair{rt.get(keys::kTotalTime, -1), rt.get(keys::kErrorL1, -1)};
  };
  for (const Technique t :
       {Technique::CheckpointRestart, Technique::AlternateCombination}) {
    const auto a = run_once(t);
    const auto b = run_once(t);
    EXPECT_DOUBLE_EQ(a.first, b.first) << technique_name(t);
    EXPECT_DOUBLE_EQ(a.second, b.second) << technique_name(t);
  }
}

TEST(FtAppEdge, BlackboardIsComplete) {
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::ResamplingCopying);
  cfg.failures.kill_at_step[6] = 10;
  FtApp app(cfg);
  app.launch(rt);
  for (const char* key :
       {keys::kTotalTime, keys::kSolveTime, keys::kCombineTime, keys::kErrorL1,
        keys::kProcs, keys::kRepairs, keys::kReconTotal, keys::kReconFailedList,
        keys::kReconShrink, keys::kReconSpawn, keys::kReconAgree, keys::kReconMerge,
        keys::kReconSplit, keys::kRecoveryTime, keys::kCkptWriteTotal,
        keys::kCkptWrites}) {
    EXPECT_FALSE(std::isnan(rt.get(key, std::nan("")))) << key;
  }
  EXPECT_DOUBLE_EQ(rt.get(keys::kProcs, 0),
                   static_cast<double>(app.layout().total_procs));
}

TEST(FtAppEdge, ScatterRecoveredCanBeDisabled) {
  ftmpi::Runtime rt(rt_opts());
  AppConfig cfg = small_app(Technique::AlternateCombination);
  cfg.scatter_recovered = false;
  cfg.failures.simulated_lost_grids = {2};
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 0);
  EXPECT_GE(rt.get(keys::kErrorL1, -1), 0.0);
}
