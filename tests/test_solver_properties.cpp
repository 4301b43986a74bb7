// Parameterized property tests of the PDE solvers: mass conservation,
// convergence across velocities and anisotropies, independence of the
// domain-decomposition shape, and diffusion's amplitude decay.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "advection/diffusion.hpp"
#include "advection/parallel_solver.hpp"
#include "advection/serial_solver.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "grid/decomposition.hpp"

using namespace ftr::advection;
using ftr::grid::Grid2D;
using ftr::grid::Level;

namespace {

/// Sum over the unique (non-duplicated) points — the discrete mass.
double mass(const Grid2D& g) {
  double m = 0;
  for (int iy = 0; iy < g.ny() - 1; ++iy) {
    for (int ix = 0; ix < g.nx() - 1; ++ix) m += g.at(ix, iy);
  }
  return m;
}

}  // namespace

// Lax-Wendroff conserves the discrete mass exactly on a periodic domain.
class LwConservation : public ::testing::TestWithParam<std::tuple<double, double, int, int>> {
};

TEST_P(LwConservation, MassIsConserved) {
  const auto [ax, ay, lx, ly] = GetParam();
  const Problem p{ax, ay};
  const double dt = stable_timestep(std::max(lx, ly), p, 0.9);
  SerialSolver s(Level{lx, ly}, p, dt);
  const double m0 = mass(s.grid());
  s.run(40);
  EXPECT_NEAR(mass(s.grid()), m0, 1e-10 * s.grid().size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LwConservation,
                         ::testing::Values(std::tuple{1.0, 0.5, 5, 5},
                                           std::tuple{-1.0, 0.25, 5, 4},
                                           std::tuple{0.0, 1.0, 4, 6},
                                           std::tuple{2.0, -1.0, 6, 3},
                                           std::tuple{0.7, 0.7, 3, 6}));

// Convergence holds for anisotropic grids too (refining the x level of an
// anisotropic grid reduces the error when x resolution is the bottleneck).
class AnisotropicConvergence : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AnisotropicConvergence, FinerBottleneckReducesError) {
  const auto [ax, ay] = GetParam();
  const Problem p{ax, ay};
  const double dt = stable_timestep(7, p, 0.5);
  SerialSolver coarse(Level{4, 7}, p, dt);
  SerialSolver fine(Level{6, 7}, p, dt);
  coarse.run(48);
  fine.run(48);
  EXPECT_LT(fine.l1_error(), coarse.l1_error());
}

INSTANTIATE_TEST_SUITE_P(Velocities, AnisotropicConvergence,
                         ::testing::Values(std::tuple{1.0, 0.5}, std::tuple{1.5, 0.2},
                                           std::tuple{0.8, 1.0}));

// The parallel result must equal the serial one bit for bit, whatever the
// process grid.  ParallelSolver picks its grid from the level and the rank
// count, so each parameter is the px x py grid a case must run on, and the
// test checks the solver's pick.  The near-square grids for 1, 2, 3, 4, 5, 6,
// 8, 9, 12, 15 and 16 ranks run on Level{5,5}, where px = 3 and px = 5 give
// odd block widths (11 and 7), which run the sweeps' scalar tails.  The
// flatter 4x1 and 8x2 grids come about as in a run: on a level with only py
// rows (Level{5,0} and Level{5,1}), Decomposition flattens the near-square
// grid of 4 or 16 ranks onto them.
class DecompShape : public ::testing::TestWithParam<std::tuple<int, int>> {};

namespace {

/// Runs ParallelSolver on `nprocs` ranks and SerialSolver over `level` for
/// the same steps.  Returns the number of points whose bits differ (plus any
/// failed call) and stores the process grid the solver chose.
int parallel_serial_mismatches(Level level, int nprocs, int* px, int* py) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  const Problem p{1.0, 0.5};
  const double dt = stable_timestep(std::max(level.x, level.y), p, 0.8);
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(level, p, dt, ftmpi::world());
    if (solver.run(16) != ftmpi::kSuccess) ++bad;
    Grid2D full;
    if (solver.gather_full(&full) != ftmpi::kSuccess) ++bad;
    if (ftmpi::world().rank() == 0) {
      *px = solver.decomposition().px();
      *py = solver.decomposition().py();
      SerialSolver ref(level, p, dt);
      ref.run(16);
      for (int iy = 0; iy < full.ny(); ++iy) {
        for (int ix = 0; ix < full.nx(); ++ix) {
          if (std::bit_cast<std::uint64_t>(full.at(ix, iy)) !=
              std::bit_cast<std::uint64_t>(ref.grid().at(ix, iy))) {
            ++bad;
          }
        }
      }
    }
  });
  rt.run("main", nprocs);
  return bad.load();
}

}  // namespace

TEST_P(DecompShape, ResultIndependentOfProcessGrid) {
  const auto [px, py] = GetParam();
  const bool flatter = ftr::grid::near_square_factors(px * py).second > py;
  const Level level{5, flatter ? std::countr_zero(static_cast<unsigned>(py)) : 5};
  int got_px = 0;
  int got_py = 0;
  EXPECT_EQ(parallel_serial_mismatches(level, px * py, &got_px, &got_py), 0)
      << px << "x" << py;
  EXPECT_EQ(got_px, px);
  EXPECT_EQ(got_py, py);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DecompShape,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1},
                                           std::tuple{3, 1}, std::tuple{2, 2},
                                           std::tuple{4, 1}, std::tuple{5, 1},
                                           std::tuple{3, 2}, std::tuple{4, 2},
                                           std::tuple{3, 3}, std::tuple{4, 3},
                                           std::tuple{5, 3}, std::tuple{4, 4},
                                           std::tuple{8, 2}));

// 15 ranks on Level{3,6} split 8 columns 5 ways: block widths 2, 2, 2, 1, 1,
// so a row has a single pair or no pair at all before its scalar tail.
TEST(DecompShapeNarrow, BlockWidthsOneAndTwoMatchSerial) {
  int px = 0;
  int py = 0;
  EXPECT_EQ(parallel_serial_mismatches(Level{3, 6}, 15, &px, &py), 0);
  EXPECT_EQ(px, 5);
  EXPECT_EQ(py, 3);
}

// Diffusion: the amplitude decays monotonically and mass (zero-mean initial
// condition) stays zero.
TEST(DiffusionProperties, MonotoneDecayAndZeroMean) {
  const DiffusionProblem p{0.05};
  const double dt = diffusion_stable_timestep(5, p, 0.8);
  SerialDiffusionSolver s(Level{5, 5}, p, dt);
  double prev = 1e300;
  for (int k = 0; k < 5; ++k) {
    s.run(20);
    double amp = 0;
    for (int iy = 0; iy < s.grid().ny(); ++iy) {
      for (int ix = 0; ix < s.grid().nx(); ++ix) {
        amp = std::max(amp, std::abs(s.grid().at(ix, iy)));
      }
    }
    EXPECT_LT(amp, prev);
    prev = amp;
    EXPECT_NEAR(mass(s.grid()), 0.0, 1e-9);
  }
}

// The virtual cost of a parallel step scales with the local block size:
// more processes => less modeled time per rank per step (compute-bound
// regime; at the default cell rate this size saturates on halo latency,
// which is itself correct strong-scaling behaviour).
TEST(SolverCost, StrongScalingReducesPerRankStepTime) {
  auto step_time = [](int nprocs) {
    ftmpi::Runtime::Options opts;
    opts.cost.cell_update_rate = 1.0e5;  // compute-dominant workload
    ftmpi::Runtime rt(opts);
    std::atomic<double> t{0};
    const Problem p{1.0, 0.5};
    rt.register_app("main", [&](const std::vector<std::string>&) {
      ParallelSolver solver(Level{6, 6}, p, stable_timestep(6, p), ftmpi::world());
      const double t0 = ftmpi::wtime();
      solver.run(4);
      if (ftmpi::world().rank() == 0) t = ftmpi::wtime() - t0;
    });
    rt.run("main", nprocs);
    return t.load();
  };
  const double t1 = step_time(1);
  const double t4 = step_time(4);
  const double t16 = step_time(16);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t16);
  // And the speedup is in the right ballpark for a compute-bound problem.
  EXPECT_GT(t1 / t16, 8.0);
}
