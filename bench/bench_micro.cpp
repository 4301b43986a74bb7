// Micro-benchmarks (google-benchmark, real wall time): kernels of the
// library — the Lax-Wendroff sweeps (serial and per-rank), inter-grid
// transfers, combination evaluation, GCP coefficient solving, the
// repair's group bookkeeping, the runtime's message round trip and buddy
// replication.  These
// complement the figure-reproduction benches, which report virtual
// (modeled) time.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "advection/lax_wendroff.hpp"
#include "advection/serial_solver.hpp"
#include "combination/coefficients.hpp"
#include "combination/combine.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/comm.hpp"
#include "ftmpi/runtime.hpp"
#include "grid/decomposition.hpp"
#include "grid/sampling.hpp"
#include "recovery/buddy.hpp"

using ftr::comb::CoefficientProblem;
using ftr::comb::Scheme;
using ftr::grid::Grid2D;
using ftr::grid::Level;

namespace {

void BM_LaxWendroffStep(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const ftr::advection::Problem p{1.0, 0.5};
  ftr::advection::SerialSolver solver(Level{l, l},  p,
                                      ftr::advection::stable_timestep(l, p));
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.grid().data().data());
  }
  state.SetItemsProcessed(state.iterations() * solver.grid().size());
}
BENCHMARK(BM_LaxWendroffStep)->Arg(5)->Arg(7)->Arg(9);

// The sweeps every rank runs in ParallelSolver::step: sweep_x + sweep_y on
// one halo'd block, at the block shapes (width x height) of the end-to-end
// `solve` workload, 16,384 cells each.  The first argument is the kernel's
// lane count; only the widths this CPU runs are registered, so each width
// is gated against its own baseline entry on any runner.  An item is one
// cell update.
void BM_LocalFieldSweep(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  const int h = static_cast<int>(state.range(2));
  ftr::grid::LocalField f(ftr::grid::Block{0, w, 0, h});
  for (int ly = -1; ly <= h; ++ly) {
    for (int lx = -1; lx <= w; ++lx) f.at(lx, ly) = std::sin(0.1 * lx) * std::cos(0.05 * ly);
  }
  for (auto _ : state) {
    ftr::advection::detail::sweep_x_lanes(lanes, f, 0.45);
    ftr::advection::detail::sweep_y_lanes(lanes, f, 0.225);
    benchmark::DoNotOptimize(f.raw().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * w * h);
}
void SweepShapes(benchmark::internal::Benchmark* b) {
  for (const int lanes : ftr::advection::detail::sweep_lanes()) {
    for (const auto& [w, h] : {std::pair{32, 512}, {64, 256}, {128, 128}, {256, 64}}) {
      b->Args({lanes, w, h});
    }
  }
}
BENCHMARK(BM_LocalFieldSweep)->Apply(SweepShapes);

void BM_RestrictInject(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D fine(Level{l, l});
  fine.fill([](double x, double y) { return x * y; });
  Grid2D coarse(Level{l - 2, l - 1});
  for (auto _ : state) {
    ftr::grid::restrict_inject(fine, coarse);
    benchmark::DoNotOptimize(coarse.data().data());
  }
  state.SetItemsProcessed(state.iterations() * coarse.size());
}
BENCHMARK(BM_RestrictInject)->Arg(7)->Arg(9);

void BM_BilinearInterpolate(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D src(Level{l, l - 2});
  src.fill([](double x, double y) { return x + y; });
  Grid2D dst(Level{l - 1, l - 1});
  for (auto _ : state) {
    ftr::grid::interpolate(src, dst);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetItemsProcessed(state.iterations() * dst.size());
}
BENCHMARK(BM_BilinearInterpolate)->Arg(7)->Arg(9);

void BM_CombineFull(benchmark::State& state) {
  const Scheme s{static_cast<int>(state.range(0)), 4};
  std::vector<Grid2D> grids;
  std::vector<ftr::comb::Component> parts;
  const auto levels = s.combination_levels();
  grids.reserve(levels.size());
  for (const Level& lv : levels) {
    Grid2D g(lv);
    g.fill([](double x, double y) { return x - y; });
    grids.push_back(std::move(g));
  }
  for (size_t i = 0; i < grids.size(); ++i) {
    parts.push_back({&grids[i], ftr::comb::classic_coefficient(s, levels[i])});
  }
  for (auto _ : state) {
    Grid2D combined = ftr::comb::combine_full(s, parts);
    benchmark::DoNotOptimize(combined.data().data());
  }
  const int64_t n = (1 << s.n) + 1;
  state.SetItemsProcessed(state.iterations() * n * n *
                          static_cast<int64_t>(parts.size()));
}
BENCHMARK(BM_CombineFull)->Arg(7)->Arg(8)->Arg(9);

void BM_GcpSolve(benchmark::State& state) {
  const Scheme s{13, static_cast<int>(state.range(0))};
  const CoefficientProblem problem(s, 3);
  const auto grids = s.combination_levels();
  const std::vector<Level> lost{grids[1], grids[grids.size() - 2]};
  for (auto _ : state) {
    auto set = problem.solve(lost);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_GcpSolve)->Arg(4)->Arg(6)->Arg(8);

// One survivor's Fig. 6/7 bookkeeping after the Table I failures (the top
// two ranks of the world): the failed list as the group difference of the
// world and its shrunken group, translated back to world ranks, then the
// survivor's split key.  Every survivor of a repair runs this once, so it
// must stay linear in the world size.  An item is one world member.
void BM_GroupDifference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ftmpi::Group world;
  world.pids.resize(static_cast<size_t>(n));
  std::iota(world.pids.begin(), world.pids.end(), 0);
  ftmpi::Group shrunken = world;
  shrunken.pids.resize(static_cast<size_t>(n - 2));
  for (auto _ : state) {
    const ftmpi::Group failed = ftmpi::group_difference(world, shrunken);
    std::vector<int> in_failed(failed.pids.size());
    std::iota(in_failed.begin(), in_failed.end(), 0);
    const std::vector<int> failed_ranks =
        ftmpi::group_translate_ranks(failed, in_failed, world);
    benchmark::DoNotOptimize(
        ftr::core::Reconstructor::select_rank_key(n / 2, n - 2, failed_ranks, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupDifference)->Arg(1216)->Arg(4864);

// Two ranks bounce an 8-byte message back and forth, N round trips in one
// run(): each hop parks the receiver and wakes it from the sender, the
// runtime's hottest path.  Parking is a user-space fiber switch, so a
// regression to an OS wake-up per message shows here.  An item is one
// round trip.
void BM_PingPong(benchmark::State& state) {
  const int trips = static_cast<int>(state.range(0));
  ftmpi::Runtime rt;
  rt.register_app("pingpong", [trips](const std::vector<std::string>&) {
    const ftmpi::Comm& w = ftmpi::world();
    const int peer = 1 - w.rank();
    std::uint64_t v = 0;
    for (int i = 0; i < trips; ++i) {
      if (w.rank() == 0 && ftmpi::send(&v, 1, peer, 0, w) != ftmpi::kSuccess) return;
      if (ftmpi::recv(&v, 1, peer, 0, w) != ftmpi::kSuccess) return;
      ++v;
      if (w.rank() == 1 && ftmpi::send(&v, 1, peer, 0, w) != ftmpi::kSuccess) return;
    }
  });
  for (auto _ : state) rt.run("pingpong", 2);
  state.SetItemsProcessed(state.iterations() * trips);
}
BENCHMARK(BM_PingPong)->Arg(1000)->UseRealTime();

// An owner streams 1000 replicas of a block of range(0) cells (4096: one
// `overlap` replica, 64 x 64) to its buddy, which drains each into a
// BuddyStore: the pack from the field with its CRC, the move through the
// runtime, the drain's CRC check and the store.  The holder acknowledges
// each replica, so one at a time is in flight.  An item is one replica.
void BM_BuddyReplicate(benchmark::State& state) {
  const int side =
      static_cast<int>(std::lround(std::sqrt(static_cast<double>(state.range(0)))));
  constexpr int kReplicas = 1000;
  constexpr int kTagAck = 1;
  ftr::rec::BuddyTopology topo;  // one rank per grid and host: rank 1 holds rank 0
  topo.first_rank = {0, 1};
  topo.procs_per_grid = {1, 1};
  topo.partner_grid = {-1, -1};
  topo.slots_per_host = 1;
  ftmpi::Runtime rt;
  rt.register_app("replicate", [&](const std::vector<std::string>&) {
    const ftmpi::Comm& w = ftmpi::world();
    if (w.rank() == 0) {
      ftr::grid::LocalField f(ftr::grid::Block{0, side, 0, side});
      for (int ly = 0; ly < side; ++ly) {
        for (int lx = 0; lx < side; ++lx) f.at(lx, ly) = 0.5 * lx - 0.25 * ly;
      }
      for (long step = 1; step <= kReplicas; ++step) {
        if (ftr::rec::buddy_send(topo, w, 0, 0, step, f) != ftmpi::kSuccess) return;
        int ack = 0;
        if (ftmpi::recv(&ack, 1, 1, kTagAck, w) != ftmpi::kSuccess) return;
      }
    } else {
      ftr::rec::BuddyStore store;
      for (int i = 0; i < kReplicas; ++i) {
        if (ftmpi::probe(0, ftr::rec::kTagBuddyRepl, w) != ftmpi::kSuccess) return;
        if (ftr::rec::buddy_drain(store, w) != 1) return;
        if (ftmpi::send(&i, 1, 0, kTagAck, w) != ftmpi::kSuccess) return;
      }
    }
  });
  for (auto _ : state) rt.run("replicate", 2);
  state.SetItemsProcessed(state.iterations() * kReplicas);
}
BENCHMARK(BM_BuddyReplicate)->Arg(4096)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
