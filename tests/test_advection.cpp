// Tests for the advection solver: exactness properties of the Lax-Wendroff
// update, serial convergence, and parallel-vs-serial agreement.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "advection/parallel_solver.hpp"
#include "advection/serial_solver.hpp"
#include "ftmpi/api.hpp"

using namespace ftr::advection;
using ftr::grid::Grid2D;
using ftr::grid::Level;

TEST(LaxWendroff, UpdatePreservesConstants) {
  EXPECT_DOUBLE_EQ(lw_update(3.0, 3.0, 3.0, 0.7), 3.0);
}

TEST(LaxWendroff, UnitCourantShifts) {
  // With c = 1 the scheme is exact: u_i^{n+1} = u_{i-1}^n.
  EXPECT_DOUBLE_EQ(lw_update(1.0, 2.0, 5.0, 1.0), 1.0);
  // With c = -1 it shifts the other way.
  EXPECT_DOUBLE_EQ(lw_update(1.0, 2.0, 5.0, -1.0), 5.0);
}

TEST(Problem, ExactSolutionTranslates) {
  const Problem p{1.0, 0.5};
  EXPECT_NEAR(p.exact(0.5, 0.5, 0.0), p.initial(0.5, 0.5), 1e-14);
  EXPECT_NEAR(p.exact(0.75, 0.625, 0.25), p.initial(0.5, 0.5), 1e-14);
  // Periodic wrap.
  EXPECT_NEAR(p.exact(0.1, 0.1, 1.0), p.initial(0.1, 0.6), 1e-12);
}

TEST(Problem, ExactL1ErrorMatchesGridL1ErrorBitForBit) {
  // The separable path (one exact_x per column, one exact_y per row) must
  // give grid::l1_error's value for the exact solution bit for bit.
  const Problem p{1.0, 0.5};
  for (const int n : {5, 9, 10}) {
    Grid2D g(Level{n, n});
    // A field that is not the exact solution, so every term counts.
    g.fill([](double x, double y) { return std::cos(3.0 * x + 0.5) * std::sin(5.0 * y) + x * y; });
    for (const double t : {0.0, 0.1234, 0.5, 1.0, 3.7}) {
      const double ref = ftr::grid::l1_error(
          g, [&](double x, double y) { return p.exact(x, y, t); });
      EXPECT_EQ(std::bit_cast<std::uint64_t>(exact_l1_error(g, p, t)),
                std::bit_cast<std::uint64_t>(ref))
          << "level " << n << ", t = " << t;
    }
  }
  // And the serial solver reports that value.
  SerialSolver s(Level{5, 4}, p, stable_timestep(5, p));
  s.run(7);
  const double t = s.time();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.l1_error()),
            std::bit_cast<std::uint64_t>(ftr::grid::l1_error(
                s.grid(), [&](double x, double y) { return p.exact(x, y, t); })));
}

TEST(Problem, StableTimestepRespectsCfl) {
  const Problem p{2.0, 0.5};
  const double dt = stable_timestep(6, p, 0.9);
  EXPECT_LE(dt * 2.0 * 64, 0.9 + 1e-12);
}

TEST(SerialSolver, ErrorSmallAfterManySteps) {
  const Problem p{1.0, 0.5};
  const double dt = stable_timestep(6, p, 0.8);
  SerialSolver s(Level{6, 6}, p, dt);
  s.run(50);
  EXPECT_LT(s.l1_error(), 5e-3);
}

TEST(SerialSolver, SecondOrderConvergence) {
  const Problem p{1.0, 1.0};
  // Solve to the same physical time on successively finer grids with the
  // same (finest-stable) timestep; the spatial error should drop ~4x per
  // refinement once the spatial term dominates.
  const double dt = stable_timestep(7, p, 0.5);
  const long steps = 64;
  double prev = 0;
  std::vector<double> errs;
  for (int l : {4, 5, 6}) {
    SerialSolver s(Level{l, l}, p, dt);
    s.run(steps);
    errs.push_back(s.l1_error());
    (void)prev;
  }
  EXPECT_GT(errs[0] / errs[1], 2.5);
  EXPECT_GT(errs[1] / errs[2], 2.5);
}

TEST(SerialSolver, ResumeConstructorContinues) {
  const Problem p{1.0, 0.5};
  const double dt = stable_timestep(5, p, 0.8);
  SerialSolver full(Level{5, 5}, p, dt);
  full.run(40);

  SerialSolver first(Level{5, 5}, p, dt);
  first.run(25);
  SerialSolver resumed(first.grid(), p, dt, first.steps_done());
  resumed.run(15);
  EXPECT_EQ(resumed.steps_done(), 40);
  for (int iy = 0; iy < full.grid().ny(); ++iy) {
    for (int ix = 0; ix < full.grid().nx(); ++ix) {
      ASSERT_NEAR(resumed.grid().at(ix, iy), full.grid().at(ix, iy), 1e-14);
    }
  }
}

TEST(ParallelSolver, MatchesSerialBitForBit) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  const Problem p{1.0, 0.5};
  const Level level{5, 4};
  const double dt = stable_timestep(5, p, 0.8);
  const long steps = 20;
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(level, p, dt, ftmpi::world());
    if (solver.run(steps) != ftmpi::kSuccess) ++bad;
    Grid2D full;
    if (solver.gather_full(&full) != ftmpi::kSuccess) ++bad;
    if (ftmpi::world().rank() == 0) {
      SerialSolver ref(level, p, dt);
      ref.run(steps);
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
  rt.run("main", 8);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelSolver, ResetToInitialMatchesProblemInitialBitForBit) {
  // Level{5,4} on 15 ranks is a 5x3 process grid with block widths 7, 7, 6,
  // 6, 6 and heights 6, 5, 5: odd widths and blocks away from the origin.
  // Every cell must hold Problem::initial's bits at construction and after
  // a reset (a checkpoint restart without a checkpoint).
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  std::atomic<int> odd_offset_blocks{0};
  const Problem p{1.0, 0.5};
  const Level level{5, 4};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(level, p, stable_timestep(5, p), ftmpi::world());
    const auto& b = solver.field().block();
    if (b.width() % 2 == 1 && b.x0 > 0 && b.y0 > 0) ++odd_offset_blocks;
    const auto mismatches = [&] {
      int n = 0;
      for (int ly = 0; ly < b.height(); ++ly) {
        for (int lx = 0; lx < b.width(); ++lx) {
          const double x = static_cast<double>(b.x0 + lx) * (1.0 / (1 << level.x));
          const double y = static_cast<double>(b.y0 + ly) * (1.0 / (1 << level.y));
          n += std::bit_cast<std::uint64_t>(solver.field().at(lx, ly)) !=
               std::bit_cast<std::uint64_t>(p.initial(x, y));
        }
      }
      return n;
    };
    bad += mismatches();
    if (solver.run(3) != ftmpi::kSuccess) ++bad;
    solver.reset_to_initial();
    bad += mismatches();
  });
  rt.run("main", 15);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(odd_offset_blocks.load(), 0);
}

TEST(ParallelSolver, ScatterThenGatherRoundTrips) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  const Problem p{1.0, 0.5};
  const Level level{4, 4};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(level, p, stable_timestep(4, p), ftmpi::world());
    Grid2D ref(level);
    if (ftmpi::world().rank() == 0) {
      ref.fill([](double x, double y) { return 3 * x - y; });
    }
    if (solver.scatter_full(ref) != ftmpi::kSuccess) ++bad;
    Grid2D back;
    if (solver.gather_full(&back) != ftmpi::kSuccess) ++bad;
    if (ftmpi::world().rank() == 0) {
      ref.enforce_periodicity();
      if (!(ref == back)) ++bad;
    }
  });
  rt.run("main", 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelSolver, StepChargesVirtualComputeTime) {
  ftmpi::Runtime rt;
  std::atomic<double> t{0.0};
  const Problem p{1.0, 0.5};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ParallelSolver solver(Level{5, 5}, p, stable_timestep(5, p), ftmpi::world());
    solver.run(4);
    t = ftmpi::wtime();
  });
  rt.run("main", 1);
  // 4 steps x 2 sweeps x 1024 cells at the modeled rate.
  const double expect = 4.0 * 2.0 * 1024.0 / ftmpi::CostModel{}.cell_update_rate;
  EXPECT_NEAR(t.load(), expect, expect * 0.01);
}

TEST(ParallelSolver, SurfacesFailureDuringStep) {
  ftmpi::Runtime rt;
  std::atomic<int> fail_codes{0};
  const Problem p{1.0, 0.5};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ftmpi::Comm& w = ftmpi::world();
    ParallelSolver solver(Level{5, 5}, p, stable_timestep(5, p), w);
    if (w.rank() == 2) {
      solver.run(3);
      ftmpi::abort_self();
    }
    const int rc = solver.run(100);
    if (rc == ftmpi::kErrProcFailed) ++fail_codes;
  });
  rt.run("main", 4);
  EXPECT_EQ(fail_codes.load(), 3);
}
