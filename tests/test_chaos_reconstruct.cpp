// Cascading-failure tests: chaos kills injected at recovery phase
// boundaries must still end in a correctly repaired (or correctly degraded)
// world, and checkpoint integrity must survive torn and corrupted
// snapshots.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "recovery/checkpoint.hpp"

using namespace ftr::core;
using namespace ftmpi;
using ftr::comb::Scheme;
using ftr::comb::Technique;

namespace {

Runtime::Options opts(int slots = 4) {
  Runtime::Options o;
  o.slots_per_host = slots;
  o.real_time_limit_sec = 120.0;
  return o;
}

/// Register the standard cascading-repair app: `pre_kill_rank` dies before
/// the reconstruct, the chaos schedule (installed by the caller) strikes
/// during it, and every survivor + respawn must end in a fully repaired
/// world of the original size with the original rank order.
void register_repair_app(Runtime& rt, int world_size, int pre_kill_rank,
                         std::atomic<int>& bad, std::atomic<int>& root_attempts) {
  rt.register_app("app", [&, world_size, pre_kill_rank](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    Comm w;
    if (!get_parent().is_null()) {
      // Respawned child.  Orphans of failed attempts never get here: their
      // bring-up protocol fails and they abort inside reconstruct().
      const auto res = recon.reconstruct({});
      if (res.exhausted) {
        ++bad;
        return;
      }
      w = res.comm;
    } else {
      w = world();
      const int original_rank = w.rank();
      if (original_rank == pre_kill_rank) abort_self();
      const auto res = recon.reconstruct(w);
      if (!res.repaired || res.exhausted) ++bad;
      if (res.mode != RecoveryMode::Repaired) ++bad;
      w = res.comm;
      if (w.rank() != original_rank) ++bad;  // survivors keep their rank
      if (original_rank == 0) root_attempts = res.attempts;
    }
    if (w.size() != world_size) ++bad;
    // All-to-root gather proves every rank (survivor and respawn) is
    // functional and sits at the right position.
    const int v = w.rank();
    std::vector<int> all(static_cast<size_t>(w.size()));
    if (gather(&v, 1, all.data(), 0, w) != kSuccess) ++bad;
    if (w.rank() == 0) {
      for (int i = 0; i < w.size(); ++i) {
        if (all[static_cast<size_t>(i)] != i) ++bad;
      }
    }
  });
}

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

Runtime::Options app_opts() {
  Runtime::Options o;
  o.slots_per_host = 12;
  o.real_time_limit_sec = 120.0;
  return o;
}

}  // namespace

// --- kills at each recovery phase boundary ---------------------------------

TEST(ChaosReconstruct, KillDuringShrinkStillRepairs) {
  Runtime rt(opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "shrink", .victim = 1, .occurrence = 1});
  std::atomic<int> bad{0}, attempts{0};
  register_repair_app(rt, 6, /*pre_kill_rank=*/3, bad, attempts);
  rt.run("app", 6);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_GE(attempts.load(), 1);
}

TEST(ChaosReconstruct, KillDuringSpawnForcesRetry) {
  Runtime rt(opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "spawn", .victim = 2, .occurrence = 1});
  std::atomic<int> bad{0}, attempts{0};
  register_repair_app(rt, 6, /*pre_kill_rank=*/3, bad, attempts);
  rt.run("app", 6);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(chaos.kills_fired(), 1);
  // Rank 2 survives the shrink and dies at the spawn boundary, so the first
  // attempt's validation fails and a second attempt must run.
  EXPECT_GE(attempts.load(), 2);
}

TEST(ChaosReconstruct, KillChildBetweenSpawnAndMerge) {
  // World 6 = pids 0..5, so the first respawned child is pid 6.  Killing it
  // at its merge boundary orphans the first repair attempt; the retry
  // respawns a second child that must land on the failed rank.
  Runtime rt(opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "merge", .victim = 6, .occurrence = 1});
  std::atomic<int> bad{0}, attempts{0};
  register_repair_app(rt, 6, /*pre_kill_rank=*/3, bad, attempts);
  rt.run("app", 6);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_GE(attempts.load(), 2);
}

TEST(ChaosReconstruct, KillParentDuringOrderedSplit) {
  Runtime rt(opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "split", .victim = 4, .occurrence = 1});
  std::atomic<int> bad{0}, attempts{0};
  register_repair_app(rt, 6, /*pre_kill_rank=*/3, bad, attempts);
  rt.run("app", 6);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_GE(attempts.load(), 2);
}

TEST(ChaosReconstruct, SeedSweepConvergesAtEveryPhaseBoundary) {
  // Deterministic pseudo-random schedules across every hook point: whatever
  // the phase and victim, the reconstruction must converge to the original
  // size and rank order.
  const std::vector<std::string> phases{"shrink", "agree",      "spawn",
                                        "merge",  "spawn.done", "split"};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Runtime rt(opts());
    ChaosInjector chaos(rt);
    for (const ChaosEvent& ev : ChaosInjector::random_plan(seed, 6, /*kills=*/1, phases)) {
      chaos.schedule(ev);
    }
    std::atomic<int> bad{0}, attempts{0};
    register_repair_app(rt, 6, /*pre_kill_rank=*/4, bad, attempts);
    rt.run("app", 6);
    EXPECT_EQ(bad.load(), 0) << "seed=" << seed;
    EXPECT_GE(attempts.load(), 1) << "seed=" << seed;
  }
}

// --- shrink-mode degradation ----------------------------------------------

TEST(ChaosDegraded, PlacementExhaustionFallsBackToShrink) {
  // Bounded cluster: 3 hosts x 2 slots, fully occupied by the 6-rank world.
  // A whole-host failure takes ranks 4 and 5 down and leaves nowhere to
  // respawn them, so the repair must degrade to the shrunken world.
  Runtime::Options o = opts(/*slots=*/2);
  o.max_hosts = 3;
  Runtime rt(o);
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "agree", .victim = 5, .occurrence = 1, .fail_host = true});
  std::atomic<int> bad{0};
  std::atomic<int> degraded{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    if (!get_parent().is_null()) {
      ++bad;  // no replacement can ever be placed
      return;
    }
    Comm w = world();
    const int original_rank = w.rank();
    const auto res = recon.reconstruct(w);
    if (!res.repaired || res.exhausted) {
      ++bad;
      return;
    }
    if (res.mode == RecoveryMode::Degraded) ++degraded;
    if (res.failed_ranks != std::vector<int>({4, 5})) ++bad;
    w = res.comm;
    if (w.size() != 4) ++bad;
    if (w.rank() != original_rank) ++bad;  // shrink preserves rank order
    const int v = w.rank();
    std::vector<int> all(static_cast<size_t>(w.size()));
    if (gather(&v, 1, all.data(), 0, w) != kSuccess) ++bad;
    if (w.rank() == 0) {
      for (int i = 0; i < w.size(); ++i) {
        if (all[static_cast<size_t>(i)] != i) ++bad;
      }
    }
  });
  rt.run("app", 6);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(degraded.load(), 4);
  EXPECT_EQ(chaos.kills_fired(), 1);
}

TEST(FtAppDegraded, ContinuesOnShrunkenWorldAndCombines) {
  // Every host holds exactly one rank and the cluster cannot grow, so a
  // node failure is unrecoverable by respawn: the app must continue on the
  // shrunken world, idle the survivors of the lost grid, and combine the
  // remaining grids with GCP coefficients.
  AppConfig cfg = small_app(Technique::AlternateCombination);
  const Layout layout = build_layout(cfg.layout);
  Runtime::Options o;
  o.slots_per_host = 1;
  o.max_hosts = layout.total_procs;
  o.real_time_limit_sec = 120.0;
  Runtime rt(o);
  cfg.failures.fail_host_at_step[5] = 10;  // host 5 == rank 5 (grid 1)
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);
  EXPECT_DOUBLE_EQ(rt.get(keys::kReconMode, -1), 2.0);
  EXPECT_DOUBLE_EQ(rt.get(keys::kSurvivors, -1),
                   static_cast<double>(layout.total_procs - 1));
  EXPECT_GE(rt.get(keys::kRepairs, -1), 1.0);
  const double err = rt.get(keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  // Same bound as the simulated-loss AC runs: the GCP combination absorbs
  // the lost diagonal grid.
  EXPECT_LT(err, 0.2);
}

// --- checkpoint integrity under chaos --------------------------------------

TEST(FtAppChaos, KillDuringCheckpointWriteRollsBackGroup) {
  // Rank 5 dies entering its *second* checkpoint write, so its grid holds
  // generations (8) while the group mates also wrote (16).  The
  // group-consistent rollback must agree on step 8 — served from the mates'
  // previous generation — and the recompute makes CR recovery exact.
  Runtime rt1(app_opts());
  FtApp clean(small_app(Technique::CheckpointRestart));
  clean.launch(rt1);
  const double err_clean = rt1.get(keys::kErrorL1, -1);
  ASSERT_GE(err_clean, 0.0);

  Runtime rt(app_opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "ckpt.write", .victim = 5, .occurrence = 2});
  FtApp app(small_app(Technique::CheckpointRestart));
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  EXPECT_DOUBLE_EQ(rt.get(keys::kReconMode, -1), 1.0);
  EXPECT_NEAR(rt.get(keys::kErrorL1, -1), err_clean, 1e-12);
}

TEST(FtAppChaos, CorruptSnapshotFallsBackToPreviousGeneration) {
  Runtime rt1(app_opts());
  FtApp clean(small_app(Technique::CheckpointRestart));
  clean.launch(rt1);
  const double err_clean = rt1.get(keys::kErrorL1, -1);
  ASSERT_GE(err_clean, 0.0);

  // Rank 5 dies in the last interval (both checkpoint generations exist by
  // then); while the survivors run the repair, the newest snapshot of a
  // surviving group mate (grid 1, group rank 2 = world rank 6) is
  // corrupted.  read_latest must detect the damage, fall back to the
  // previous generation, and the group-minimum rollback keeps the grid
  // consistent — recovery stays exact.
  Runtime rt(app_opts());
  AppConfig cfg = small_app(Technique::CheckpointRestart);
  cfg.failures.kill_at_step[5] = 20;
  FtApp app(cfg);
  std::atomic<bool> corrupted{false};
  rt.set_chaos_hook([&](const char* phase, ftmpi::ProcId) {
    if (std::strcmp(phase, "shrink") == 0 && !corrupted.exchange(true)) {
      app.checkpoint_store().corrupt_latest(/*grid=*/1, /*rank=*/2);
    }
  });
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);
  EXPECT_TRUE(corrupted.load());
  EXPECT_GE(app.checkpoint_store().corrupt_detected(), 1);
  EXPECT_GE(app.checkpoint_store().fallback_reads(), 1);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  EXPECT_NEAR(rt.get(keys::kErrorL1, -1), err_clean, 1e-12);
}

// --- CheckpointStore integrity units ---------------------------------------

TEST(CheckpointIntegrity, MemoryCorruptNewestFallsBackToPrev) {
  ftr::rec::CheckpointStore store;
  store.write(1, 0, 8, {1.0, 2.0, 3.0});
  store.write(1, 0, 16, {4.0, 5.0, 6.0});
  store.corrupt_latest(1, 0);
  const auto snap = store.read_latest(1, 0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->step, 8);
  EXPECT_EQ(snap->data, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_GE(store.corrupt_detected(), 1);
  EXPECT_EQ(store.fallback_reads(), 1);
}

TEST(CheckpointIntegrity, MemorySingleCorruptGenerationMeansRecompute) {
  ftr::rec::CheckpointStore store;
  store.write(2, 1, 8, {7.0, 8.0});
  store.corrupt_latest(2, 1);
  EXPECT_FALSE(store.read_latest(2, 1).has_value());
  EXPECT_GE(store.corrupt_detected(), 1);
  EXPECT_EQ(store.fallback_reads(), 0);
}

namespace {

/// The element count stored in a snapshot file (offset 16: magic 4,
/// version 4, step 8).
std::uint64_t file_count(const std::string& path) {
  std::uint64_t n = 0;
  std::ifstream f(path, std::ios::binary);
  f.seekg(16);
  f.read(reinterpret_cast<char*>(&n), sizeof(n));
  return n;
}

}  // namespace

TEST(CheckpointIntegrity, FileCorruptNewestFallsBackToPrev) {
  // 4 KiB payloads, so the folding CRC path computes the rejected checksum.
  const std::string dir = ::testing::TempDir() + "ftr_ckpt_corrupt";
  ftr::rec::CheckpointStore store(dir);
  ASSERT_TRUE(store.file_backed());
  std::vector<double> g8(512), g16(512);
  for (size_t i = 0; i < g8.size(); ++i) {
    g8[i] = 1.5 + static_cast<double>(i);
    g16[i] = 3.5 - static_cast<double>(i);
  }
  store.write(0, 0, 8, g8);
  store.write(0, 0, 16, g16);
  store.corrupt_latest(0, 0);
  // The header and size still match, so only the CRC can reject the file.
  EXPECT_EQ(file_count(store.latest_path(0, 0)), 512u);
  EXPECT_EQ(std::filesystem::file_size(store.latest_path(0, 0)), 24u + 512u * 8u + 4u);
  const auto snap = store.read_latest(0, 0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->step, 8);
  EXPECT_EQ(snap->data, g8);
  EXPECT_GE(store.corrupt_detected(), 1);
  EXPECT_EQ(store.fallback_reads(), 1);
}

TEST(CheckpointIntegrity, FileCountWithAFlippedHighBitFallsBackToPrev) {
  // Bit 61 of the count multiplies by 8 to 2^64, so count * 8 wraps back to
  // the true payload size; the reader must reject the file and fall back
  // rather than try to allocate 2^61 doubles.
  const std::string dir = ::testing::TempDir() + "ftr_ckpt_count_wrap";
  ftr::rec::CheckpointStore store(dir);
  const std::vector<double> g8(16, 1.0);
  store.write(0, 0, 8, g8);
  store.write(0, 0, 16, std::vector<double>(16, 2.0));
  const std::string path = store.latest_path(0, 0);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t n = file_count(path) ^ (std::uint64_t{1} << 61);
    f.seekp(16);
    f.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  ASSERT_EQ(file_count(path), 16u | (std::uint64_t{1} << 61));
  const auto snap = store.read_latest(0, 0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->step, 8);
  EXPECT_EQ(snap->data, g8);
  EXPECT_GE(store.corrupt_detected(), 1);
}

TEST(CheckpointIntegrity, FileTruncatedSnapshotDetected) {
  const std::string dir = ::testing::TempDir() + "ftr_ckpt_torn";
  ftr::rec::CheckpointStore store(dir);
  store.write(0, 0, 8, {1.0});
  store.write(0, 0, 16, {2.0});
  // A torn write that somehow reached the current file: truncate it so the
  // payload no longer matches the header.
  std::filesystem::resize_file(store.latest_path(0, 0), 10);
  const auto snap = store.read_latest(0, 0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->step, 8);
  EXPECT_GE(store.corrupt_detected(), 1);
  EXPECT_EQ(store.fallback_reads(), 1);
}

TEST(CheckpointIntegrity, ReadAtFindsExactGeneration) {
  for (const bool file_backed : {false, true}) {
    ftr::rec::CheckpointStore mem_store;
    ftr::rec::CheckpointStore file_store(::testing::TempDir() + "ftr_ckpt_read_at");
    ftr::rec::CheckpointStore& store = file_backed ? file_store : mem_store;
    store.write(3, 2, 8, {1.0, 2.0});
    store.write(3, 2, 16, {3.0, 4.0});
    const auto prev = store.read_at(3, 2, 8);
    ASSERT_TRUE(prev.has_value()) << "file_backed=" << file_backed;
    EXPECT_EQ(prev->step, 8);
    EXPECT_EQ(prev->data, (std::vector<double>{1.0, 2.0}));
    const auto newest = store.read_at(3, 2, 16);
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->step, 16);
    EXPECT_FALSE(store.read_at(3, 2, 12).has_value());  // never taken
  }
}
