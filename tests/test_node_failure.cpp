// Tests of the whole-node failure extension (the paper's future-work
// scenario): a failed host kills all of its processes; the repair protocol
// respawns every replacement, co-located, on one spare node; and the full
// application survives a node failure with bounded error.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/ft_app.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftmpi;
using ftr::comb::Technique;

namespace {

Runtime::Options opts(int slots) {
  Runtime::Options o;
  o.slots_per_host = slots;
  o.real_time_limit_sec = 120.0;
  return o;
}

}  // namespace

TEST(NodeFailure, FailHostKillsAllResidents) {
  Runtime rt(opts(3));
  std::atomic<int> killed_ranks{0};
  std::atomic<int> survivors{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    Comm& w = world();
    if (w.rank() == 0) {
      rt.fail_host(1);  // hosts: 0 = ranks 0-2, 1 = ranks 3-5
      ++survivors;
      return;
    }
    // Wait until the host either dies or we are told to stop.
    while (!rt.host_failed(1)) {}
    if (runtime().host_of(self_pid()) == 1) {
      // We are dead; the next runtime call unwinds.
      advance(1e-9);
      ++killed_ranks;  // unreachable
    } else {
      ++survivors;
    }
  });
  const int killed = rt.run("main", 6);
  EXPECT_EQ(killed, 3);
  EXPECT_EQ(killed_ranks.load(), 0);
  EXPECT_EQ(survivors.load(), 3);
  EXPECT_TRUE(rt.host_failed(1));
  EXPECT_FALSE(rt.host_failed(0));
}

TEST(NodeFailure, SubstituteHostIsConsistent) {
  Runtime rt(opts(4));
  rt.register_app("noop", [](const std::vector<std::string>&) {});
  rt.run("noop", 4);  // occupies host 0
  rt.fail_host(0);
  // Two placements preferring the failed host land on the SAME spare.
  const ProcId a = rt.create_process("noop", {}, 0, 0.0);
  const ProcId b = rt.create_process("noop", {}, 0, 0.0);
  EXPECT_EQ(rt.host_of(a), rt.host_of(b));
  EXPECT_NE(rt.host_of(a), 0);
  EXPECT_FALSE(rt.host_failed(rt.host_of(a)));
  rt.start_process(a);
  rt.start_process(b);
  // Let them run out; run() was already used, so wait via a fresh run.
  rt.run("noop", 1);
}

TEST(NodeFailure, RepairRespawnsNodeCoLocated) {
  Runtime rt(opts(3));
  std::atomic<int> bad{0};
  std::atomic<int> child_count{0};
  std::set<int> child_hosts;
  std::mutex mu;
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    ftr::core::Reconstructor recon({"app", argv});
    if (!get_parent().is_null()) {
      const auto res = recon.reconstruct({});
      ++child_count;
      {
        std::lock_guard<std::mutex> lock(mu);
        child_hosts.insert(runtime().host_of(self_pid()));
      }
      if (res.comm.size() != 9) ++bad;
      if (res.comm.rank() < 3 || res.comm.rank() > 5) ++bad;  // host 1's ranks
      (void)barrier(res.comm);
      return;
    }
    Comm w = world();  // 9 ranks over hosts 0,1,2
    if (w.rank() == 1) runtime().fail_host(1);
    if (runtime().host_of(self_pid()) == 1) {
      while (true) advance(1e-6);  // die at the next charge once marked dead
    }
    // Survivors wait until the node's processes are really gone before
    // probing, so the repair happens in one deterministic episode.
    while (runtime().killed_count() < 3) ftmpi::yield();
    const auto res = recon.reconstruct(w);
    if (res.comm.size() != 9) ++bad;
    if (res.comm.rank() != w.rank()) ++bad;
    (void)barrier(res.comm);
  });
  rt.run("app", 9);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(child_count.load(), 3);
  // All three replacements co-located on one spare node.
  EXPECT_EQ(child_hosts.size(), 1u);
  EXPECT_EQ(*child_hosts.begin(), 3);  // first spare beyond hosts 0..2
}

TEST(NodeFailure, FtAppSurvivesNodeFailure) {
  // Layout: scheme {6,3} CR with 4/2 procs and 4 slots/host: host 0 carries
  // ranks 0-3 (grid 0), host 1 ranks 4-7 (grid 1), ...
  ftmpi::Runtime::Options o = opts(4);
  ftmpi::Runtime rt(o);
  ftr::core::AppConfig cfg;
  cfg.layout.scheme = ftr::comb::Scheme{6, 3};
  cfg.layout.technique = Technique::CheckpointRestart;
  cfg.layout.procs_diagonal = 4;
  cfg.layout.procs_lower = 2;
  cfg.timesteps = 24;
  cfg.checkpoints = 2;
  cfg.failures.fail_host_at_step[1] = 10;  // grid 1's whole node dies

  ftr::core::FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 4);
  EXPECT_DOUBLE_EQ(rt.get(ftr::core::keys::kRepairs, -1), 1.0);
  const double err = rt.get(ftr::core::keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_LT(err, 0.05);  // CR recovery is exact
  EXPECT_TRUE(rt.host_failed(1));
}

TEST(NodeFailure, AcSurvivesNodeFailure) {
  ftmpi::Runtime rt(opts(4));
  ftr::core::AppConfig cfg;
  cfg.layout.scheme = ftr::comb::Scheme{6, 3};
  cfg.layout.technique = Technique::AlternateCombination;
  cfg.layout.procs_diagonal = 4;
  cfg.layout.procs_lower = 2;
  cfg.layout.procs_extra_upper = 2;
  cfg.layout.procs_extra_lower = 1;
  cfg.timesteps = 24;
  cfg.failures.fail_host_at_step[2] = 9;

  ftr::core::FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 4);
  const double err = rt.get(ftr::core::keys::kErrorL1, -1);
  ASSERT_GE(err, 0.0);
  EXPECT_LT(err, 0.5);
}
