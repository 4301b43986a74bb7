// Unit tests for the grid substrate: Grid2D storage/sampling, transfer
// operators, block decomposition, and parallel halo exchange.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "ftmpi/api.hpp"
#include "grid/decomposition.hpp"
#include "grid/grid2d.hpp"
#include "grid/halo.hpp"
#include "grid/sampling.hpp"

using namespace ftr::grid;

TEST(Grid2D, DimensionsAndSpacing) {
  const Grid2D g(Level{3, 5});
  EXPECT_EQ(g.nx(), 9);
  EXPECT_EQ(g.ny(), 33);
  EXPECT_DOUBLE_EQ(g.hx(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(g.hy(), 1.0 / 32.0);
  EXPECT_EQ(g.size(), 9u * 33u);
}

TEST(Grid2D, FillAndAt) {
  Grid2D g(Level{2, 2});
  g.fill([](double x, double y) { return x + 10.0 * y; });
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.at(4, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.at(0, 4), 10.0);
  EXPECT_DOUBLE_EQ(g.at(2, 1), 0.5 + 2.5);
}

TEST(Grid2D, SampleIsExactOnBilinearFunctions) {
  Grid2D g(Level{4, 3});
  g.fill([](double x, double y) { return 2.0 + 3.0 * x - 1.5 * y + 0.5 * x * y; });
  for (double x : {0.0, 0.13, 0.5, 0.77, 1.0}) {
    for (double y : {0.0, 0.21, 0.5, 0.99}) {
      const double want = 2.0 + 3.0 * x - 1.5 * y + 0.5 * x * y;
      EXPECT_NEAR(g.sample(x, y), want, 1e-12) << "x=" << x << " y=" << y;
    }
  }
}

TEST(Grid2D, SampleMatchesNodesExactly) {
  Grid2D g(Level{3, 3});
  g.fill([](double x, double y) { return std::sin(x) * std::cos(y); });
  for (int iy = 0; iy < g.ny(); ++iy) {
    for (int ix = 0; ix < g.nx(); ++ix) {
      EXPECT_NEAR(g.sample(g.x_of(ix), g.y_of(iy)), g.at(ix, iy), 1e-12);
    }
  }
}

TEST(Grid2D, EnforcePeriodicity) {
  Grid2D g(Level{2, 2});
  g.fill([](double x, double y) { return x * y; });
  g.at(0, 1) = 7.0;
  g.enforce_periodicity();
  EXPECT_DOUBLE_EQ(g.at(g.nx() - 1, 1), 7.0);
  EXPECT_DOUBLE_EQ(g.at(2, g.ny() - 1), g.at(2, 0));
}

TEST(Grid2D, ErrorNorms) {
  Grid2D g(Level{3, 3});
  g.fill([](double, double) { return 1.0; });
  const auto ref = [](double, double) { return 0.0; };
  EXPECT_DOUBLE_EQ(l1_error(g, ref), 1.0);
  EXPECT_DOUBLE_EQ(linf_error(g, ref), 1.0);
  EXPECT_DOUBLE_EQ(l2_error(g, ref), 1.0);
}

TEST(Sampling, RestrictInjectTakesFinePoints) {
  Grid2D fine(Level{4, 4});
  fine.fill([](double x, double y) { return std::sin(x + 2 * y); });
  Grid2D coarse(Level{2, 3});
  restrict_inject(fine, coarse);
  for (int iy = 0; iy < coarse.ny(); ++iy) {
    for (int ix = 0; ix < coarse.nx(); ++ix) {
      EXPECT_DOUBLE_EQ(coarse.at(ix, iy), fine.at(ix * 4, iy * 2));
    }
  }
}

TEST(Sampling, InterpolateIsExactFromRefinement) {
  // Interpolating from a refining grid hits shared points exactly, so a
  // restriction followed by interpolation back reproduces the coarse grid.
  Grid2D fine(Level{5, 5});
  fine.fill([](double x, double y) { return std::cos(3 * x) * std::sin(2 * y); });
  Grid2D coarse(Level{3, 4});
  restrict_inject(fine, coarse);
  Grid2D coarse2(Level{3, 4});
  interpolate(fine, coarse2);
  for (int iy = 0; iy < coarse.ny(); ++iy) {
    for (int ix = 0; ix < coarse.nx(); ++ix) {
      EXPECT_NEAR(coarse2.at(ix, iy), coarse.at(ix, iy), 1e-12);
    }
  }
}

TEST(Sampling, AccumulateInterpolated) {
  Grid2D a(Level{3, 3});
  a.fill([](double x, double y) { return x + y; });
  Grid2D dst(Level{2, 2});
  dst.fill([](double, double) { return 1.0; });
  accumulate_interpolated(a, 2.0, dst);
  for (int iy = 0; iy < dst.ny(); ++iy) {
    for (int ix = 0; ix < dst.nx(); ++ix) {
      EXPECT_NEAR(dst.at(ix, iy), 1.0 + 2.0 * (dst.x_of(ix) + dst.y_of(iy)), 1e-12);
    }
  }
}

TEST(Decomposition, NearSquareFactors) {
  EXPECT_EQ(near_square_factors(1), (std::pair{1, 1}));
  EXPECT_EQ(near_square_factors(4), (std::pair{2, 2}));
  EXPECT_EQ(near_square_factors(8), (std::pair{4, 2}));
  EXPECT_EQ(near_square_factors(12), (std::pair{4, 3}));
  EXPECT_EQ(near_square_factors(7), (std::pair{7, 1}));
}

TEST(Decomposition, BlocksTileTheDomainExactly) {
  const Decomposition d(Level{5, 4}, 6);
  std::vector<int> covered(static_cast<size_t>(d.unique_nx() * d.unique_ny()), 0);
  long total = 0;
  for (int r = 0; r < d.nprocs(); ++r) {
    const Block b = d.block(r);
    EXPECT_GT(b.width(), 0);
    EXPECT_GT(b.height(), 0);
    total += b.cells();
    for (int y = b.y0; y < b.y1; ++y) {
      for (int x = b.x0; x < b.x1; ++x) {
        ++covered[static_cast<size_t>(y * d.unique_nx() + x)];
      }
    }
  }
  EXPECT_EQ(total, static_cast<long>(d.unique_nx()) * d.unique_ny());
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(Decomposition, PeriodicNeighbors) {
  const Decomposition d(Level{4, 4}, 4, 2);
  // rank 0 at (0,0): west wraps to (3,0) = rank 3, south wraps to (0,1) = 4.
  EXPECT_EQ(d.west(0), 3);
  EXPECT_EQ(d.east(0), 1);
  EXPECT_EQ(d.south(0), 4);
  EXPECT_EQ(d.north(0), 4);
  EXPECT_EQ(d.east(3), 0);
}

TEST(Decomposition, AnisotropicGridFlattensProcessGrid) {
  // A grid with only 2 unique rows cannot host py > 2.
  const Decomposition d(Level{6, 1}, 8);
  EXPECT_LE(d.py(), 2);
  EXPECT_EQ(d.px() * d.py(), 8);
}

TEST(LocalField, LoadStoreRoundTrip) {
  Grid2D g(Level{3, 3});
  g.fill([](double x, double y) { return 5 * x + y; });
  const Decomposition d(Level{3, 3}, 4);
  Grid2D out(Level{3, 3});
  for (int r = 0; r < 4; ++r) {
    LocalField f(d.block(r));
    f.load_from(g);
    f.store_to(out);
  }
  out.enforce_periodicity();
  g.enforce_periodicity();
  EXPECT_TRUE(g == out);
}

TEST(LocalField, InteriorPackIsRowMajorAndLeavesHalosAlone) {
  // Every stored cell, halo and padding included, holds a distinct value,
  // so a pack that reads a halo or padding cell or a wrong row shows up as
  // a wrong value.
  for (const int w : {1, 3, 7}) {
    const int h = 5;
    LocalField f(Block{2, 2 + w, 3, 3 + h});
    auto& raw = f.raw();
    for (size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<double>(i) + 0.5;
    const auto index = [&](int lx, int ly) {
      return static_cast<size_t>(&f.at(lx, ly) - f.raw().data());
    };

    const std::vector<double> packed = f.pack_interior();
    ASSERT_EQ(packed.size(), static_cast<size_t>(w * h)) << "width " << w;
    for (int ly = 0; ly < h; ++ly) {
      for (int lx = 0; lx < w; ++lx) {
        EXPECT_EQ(packed[static_cast<size_t>(ly * w + lx)], f.at(lx, ly))
            << "width " << w << " cell (" << lx << ", " << ly << ")";
      }
    }

    // Unpacking new values writes exactly the interior, in the same order:
    // every halo and padding cell keeps its value.
    std::vector<double> fresh(packed.size());
    for (size_t k = 0; k < fresh.size(); ++k) fresh[k] = -1.0 - static_cast<double>(k);
    auto expected = raw;
    for (int ly = 0; ly < h; ++ly) {
      for (int lx = 0; lx < w; ++lx) {
        expected[index(lx, ly)] = fresh[static_cast<size_t>(ly * w + lx)];
      }
    }
    f.unpack_interior(fresh);
    EXPECT_EQ(f.raw(), expected) << "width " << w;
    EXPECT_EQ(f.pack_interior(), fresh) << "width " << w;
    size_t kept = 0;
    for (size_t i = 0; i < raw.size(); ++i) kept += raw[i] == static_cast<double>(i) + 0.5;
    EXPECT_EQ(kept, raw.size() - static_cast<size_t>(w * h)) << "width " << w;

    // Round trip into a field with other halos: interior restored, halos kept.
    LocalField g(f.block());
    for (double& x : g.raw()) x = 7.25;
    g.unpack_interior(packed);
    EXPECT_EQ(g.pack_interior(), packed) << "width " << w;
    EXPECT_EQ(std::count(g.raw().begin(), g.raw().end(), 7.25),
              static_cast<long>(g.raw().size()) - w * h)
        << "width " << w;
  }
}

TEST(LocalField, InteriorRowsStartOnCacheLines) {
  // Each interior row starts on a 64-byte boundary, its west halo cell in
  // the slot just before, in the field as built and in a copy or a move of
  // it.
  const auto rows_aligned = [](const LocalField& f) {
    const int h = f.block().height();
    for (int ly = -1; ly <= h; ++ly) {
      if (reinterpret_cast<std::uintptr_t>(&f.at(0, ly)) % 64 != 0) return false;
      if (&f.at(-1, ly) + 1 != &f.at(0, ly)) return false;
    }
    return true;
  };
  for (int w = 1; w <= 40; ++w) {
    for (const int h : {1, 2, 5}) {
      LocalField f(Block{3, 3 + w, 1, 1 + h});
      EXPECT_TRUE(rows_aligned(f)) << "width " << w << ", height " << h;
      const LocalField copy = f;
      EXPECT_TRUE(rows_aligned(copy)) << "copy, width " << w << ", height " << h;
      LocalField assigned(Block{0, 1, 0, 1});
      assigned = f;
      EXPECT_TRUE(rows_aligned(assigned)) << "assigned, width " << w << ", height " << h;
      const LocalField moved = std::move(f);
      EXPECT_TRUE(rows_aligned(moved)) << "move, width " << w << ", height " << h;
    }
  }
}

TEST(HaloExchange, MatchesPeriodicNeighborsAcrossRanks) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ftmpi::Comm& w = ftmpi::world();
    const Level level{4, 4};
    const Decomposition d(level, w.size());
    Grid2D g(level);
    g.fill([](double x, double y) { return 100.0 * x + y; });
    LocalField f(d.block(w.rank()));
    f.load_from(g);
    if (exchange_x(f, d, w) != ftmpi::kSuccess) ++bad;
    if (exchange_y(f, d, w) != ftmpi::kSuccess) ++bad;
    // Halo values must equal the periodic global field.
    const Block& b = f.block();
    const int N = d.unique_nx(), M = d.unique_ny();
    auto global = [&](int gx, int gy) {
      return g.at((gx + N) % N, (gy + M) % M);
    };
    for (int ly = 0; ly < b.height(); ++ly) {
      if (f.at(-1, ly) != global(b.x0 - 1, b.y0 + ly)) ++bad;
      if (f.at(b.width(), ly) != global(b.x1, b.y0 + ly)) ++bad;
    }
    for (int lx = 0; lx < b.width(); ++lx) {
      if (f.at(lx, -1) != global(b.x0 + lx, b.y0 - 1)) ++bad;
      if (f.at(lx, b.height()) != global(b.x0 + lx, b.y1)) ++bad;
    }
  });
  rt.run("main", 8);
  EXPECT_EQ(bad.load(), 0);
}

TEST(HaloExchange, SingleRankWrapsLocally) {
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    const Level level{3, 3};
    const Decomposition d(level, 1);
    Grid2D g(level);
    g.fill([](double x, double y) { return x * 7 + y * 3; });
    LocalField f(d.block(0));
    f.load_from(g);
    if (exchange_x(f, d, ftmpi::world()) != ftmpi::kSuccess) ++bad;
    const int N = d.unique_nx();
    for (int ly = 0; ly < f.block().height(); ++ly) {
      if (f.at(-1, ly) != g.at(N - 1, ly)) ++bad;
      if (f.at(N, ly) != g.at(0, ly)) ++bad;
    }
  });
  rt.run("main", 1);
  EXPECT_EQ(bad.load(), 0);
}
