// Tests of the paper's communicator-reconstruction protocol (Figs. 3-7):
// rank/size preservation, host placement, multiple failures, repeated
// repairs, and the pure helper functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <vector>

#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"

using namespace ftr::core;
using namespace ftmpi;

namespace {

Runtime::Options opts(int slots = 4) {
  Runtime::Options o;
  o.slots_per_host = slots;
  o.real_time_limit_sec = 60.0;
  return o;
}

}  // namespace

TEST(SelectRankKey, SurvivorsKeepOriginalRanks) {
  // 8 procs, ranks 2 and 5 failed: survivors 0,1,3,4,6,7 hold merged ranks
  // 0..5 and must get keys equal to their original ranks.
  const std::vector<int> failed{2, 5};
  const std::vector<int> expect{0, 1, 3, 4, 6, 7};
  for (int merged = 0; merged < 6; ++merged) {
    EXPECT_EQ(Reconstructor::select_rank_key(merged, 6, failed, 8),
              expect[static_cast<size_t>(merged)]);
  }
}

// The key walk must agree with Fig. 7's list: the merged rank indexes the
// list of surviving original ranks.  Random worlds and failed sets, plus
// the edges: no failure, rank 0 failed and rank N-1 failed.
TEST(SelectRankKey, MatchesTheFig7SurvivorListForRandomFailedSets) {
  std::mt19937 rng(20140519);
  const auto check = [](int n, const std::vector<int>& failed) {
    std::vector<int> survivors;
    for (int r = 0; r < n; ++r) {
      if (std::find(failed.begin(), failed.end(), r) == failed.end()) survivors.push_back(r);
    }
    const int shrunken = static_cast<int>(survivors.size());
    for (int merged = 0; merged < shrunken; ++merged) {
      ASSERT_EQ(Reconstructor::select_rank_key(merged, shrunken, failed, n),
                survivors[static_cast<size_t>(merged)])
          << "n=" << n << " merged=" << merged << " failures=" << failed.size();
    }
  };
  check(1, {});
  check(8, {});
  check(8, {0});
  check(8, {7});
  check(8, {7, 0});
  check(5, {0, 1, 2, 3});
  for (int trial = 0; trial < 300; ++trial) {
    const int n = std::uniform_int_distribution<int>(2, 200)(rng);
    const int k = std::uniform_int_distribution<int>(0, n - 1)(rng);
    std::vector<int> ranks(static_cast<size_t>(n));
    std::iota(ranks.begin(), ranks.end(), 0);
    std::shuffle(ranks.begin(), ranks.end(), rng);
    // Failed lists arrive in any order (several repair passes merge them).
    check(n, std::vector<int>(ranks.begin(), ranks.begin() + k));
  }
}

TEST(Reconstruct, NoFailureIsCheapProbe) {
  Runtime rt(opts());
  std::atomic<int> repaired{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    const auto res = recon.reconstruct(world());
    if (res.repaired) ++repaired;
    EXPECT_EQ(res.comm.size(), 4);
    EXPECT_EQ(res.iterations, 1);
  });
  rt.run("app", 4);
  EXPECT_EQ(repaired.load(), 0);
}

TEST(Reconstruct, SingleFailurePreservesSizeAndRanks) {
  Runtime rt(opts());
  std::atomic<int> bad{0};
  std::atomic<int> child_checks{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    const bool is_child = !get_parent().is_null();
    Comm w;
    int original_rank = -1;
    if (is_child) {
      const auto res = recon.reconstruct({});
      w = res.comm;
      ++child_checks;
    } else {
      w = world();
      original_rank = w.rank();
      if (w.rank() == 3) abort_self();
      const auto res = recon.reconstruct(w);
      if (!res.repaired) ++bad;
      if (res.failed_ranks != std::vector<int>{3}) ++bad;
      w = res.comm;
      if (w.rank() != original_rank) ++bad;  // survivors keep their rank
    }
    if (w.size() != 6) ++bad;  // global size preserved (not shrunk)
    // The repaired communicator must be fully functional.
    int token = w.rank() == 0 ? 77 : 0;
    if (bcast(&token, 1, 0, w) != kSuccess || token != 77) ++bad;
    // The child must sit at the failed rank.
    if (is_child && w.rank() != 3) ++bad;
  });
  rt.run("app", 6);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(child_checks.load(), 1);
}

TEST(Reconstruct, MultipleFailuresRepairedTogether) {
  Runtime rt(opts());
  std::atomic<int> bad{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    const bool is_child = !get_parent().is_null();
    Comm w;
    if (is_child) {
      w = recon.reconstruct({}).comm;
    } else {
      w = world();
      const int r = w.rank();
      if (r == 1 || r == 4 || r == 6) abort_self();
      const auto res = recon.reconstruct(w);
      if (res.failed_ranks != std::vector<int>({1, 4, 6})) ++bad;
      w = res.comm;
      if (w.rank() != r) ++bad;
    }
    if (w.size() != 8) ++bad;
    // All-to-root gather proves every rank (old and respawned) works.
    const int v = w.rank();
    std::vector<int> all(static_cast<size_t>(w.size()));
    if (gather(&v, 1, all.data(), 0, w) != kSuccess) ++bad;
    if (w.rank() == 0) {
      for (int i = 0; i < w.size(); ++i) {
        if (all[static_cast<size_t>(i)] != i) ++bad;
      }
    }
  });
  rt.run("app", 8);
  EXPECT_EQ(bad.load(), 0);
}

TEST(Reconstruct, RespawnLandsOnOriginalHost) {
  Runtime rt(opts(/*slots=*/3));
  std::atomic<int> child_host{-1};
  std::atomic<int> expected_host{-1};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    if (!get_parent().is_null()) {
      recon.reconstruct({});
      child_host = runtime().host_of(self_pid());
      return;
    }
    Comm w = world();
    if (w.rank() == 4) {
      expected_host = runtime().host_of(self_pid());  // host 1 with slots=3
      abort_self();
    }
    recon.reconstruct(w);
  });
  rt.run("app", 6);
  EXPECT_EQ(expected_host.load(), 4 / 3);
  EXPECT_EQ(child_host.load(), expected_host.load());
}

TEST(Reconstruct, TimingsArePopulated) {
  Runtime rt(opts());
  std::atomic<double> total{0}, spawn{0}, shrink{0}, merge{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    if (!get_parent().is_null()) {
      recon.reconstruct({});
      return;
    }
    Comm w = world();
    if (w.rank() == 2) abort_self();
    const auto res = recon.reconstruct(w);
    if (w.rank() == 0 && res.repaired) {
      total = res.timings.total;
      spawn = res.timings.spawn;
      shrink = res.timings.shrink;
      merge = res.timings.merge;
    }
  });
  rt.run("app", 5);
  EXPECT_GT(total.load(), 0.0);
  EXPECT_GT(spawn.load(), 0.0);
  EXPECT_GT(shrink.load(), 0.0);
  EXPECT_GT(merge.load(), 0.0);
  // The paper's Table I ordering: spawn dominates merge by a wide margin.
  EXPECT_GT(spawn.load(), 10.0 * merge.load());
  EXPECT_LT(spawn.load() + shrink.load() + merge.load(), total.load() + 1e-9);
}

TEST(Reconstruct, SequentialFailuresRepairedTwice) {
  // Two separate failure episodes with a repair in between.
  Runtime rt(opts());
  std::atomic<int> bad{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    const bool is_child = !get_parent().is_null();
    Comm w;
    int phase = 0;  // which episode a child joins
    if (is_child) {
      w = recon.reconstruct({}).comm;
      // Learn the phase from rank 0.
      if (bcast(&phase, 1, 0, w) != kSuccess) ++bad;
    } else {
      w = world();
      if (w.rank() == 1) abort_self();  // first episode
      auto res = recon.reconstruct(w);
      w = res.comm;
      phase = 1;
      int p = phase;
      if (bcast(&p, 1, 0, w) != kSuccess) ++bad;
    }
    if (phase == 1) {
      // Second episode: another rank dies (only if it hasn't already been
      // respawned — rank 2 is an original survivor here).
      if (w.rank() == 2 && get_parent().is_null() && runtime().total_processes() < 7) {
        abort_self();
      }
      auto res = recon.reconstruct(w);
      w = res.comm;
      int p = 2;
      if (bcast(&p, 1, 0, w) != kSuccess) ++bad;
    }
    if (w.size() != 5) ++bad;
  });
  rt.run("app", 5);
  EXPECT_EQ(bad.load(), 0);
}
