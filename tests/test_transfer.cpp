// Unit tests for the separable transfer engine: axis-map exactness and
// caching, equivalence with the legacy per-point Grid2D::sample() path,
// fused-vs-sequential combination identity, and the allocation-free sweep
// rewrites.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "advection/lax_wendroff.hpp"
#include "combination/combine.hpp"
#include "grid/decomposition.hpp"
#include "grid/grid2d.hpp"
#include "grid/sampling.hpp"
#include "grid/transfer.hpp"

using namespace ftr::grid;

namespace {

double wavy(double x, double y) {
  return std::sin(2.0 * M_PI * x) * std::cos(4.0 * M_PI * y) + 0.25 * x - 0.5 * y * y;
}

/// The legacy transfer: per-point bilinear sample() at every destination
/// point, exactly as interpolate() was implemented before the engine.
Grid2D legacy_interpolate(const Grid2D& src, Level target) {
  Grid2D dst(target);
  for (int iy = 0; iy < dst.ny(); ++iy) {
    for (int ix = 0; ix < dst.nx(); ++ix) {
      dst.at(ix, iy) = src.sample(dst.x_of(ix), dst.y_of(iy));
    }
  }
  return dst;
}

double max_abs_diff(const Grid2D& a, const Grid2D& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace

TEST(AxisMap, RefinementMapsAreExactlyInjective) {
  // Coarsening a dyadic axis lands every destination point on a source
  // point: weights must be exactly 0 (or exactly 1 at the clamped last
  // index), with the gather table resolving the stride.
  const AxisMap& m = axis_map(6, 4);
  ASSERT_TRUE(m.injective);
  ASSERT_EQ(m.dst_n, 17);
  ASSERT_EQ(static_cast<int>(m.gather.size()), m.dst_n);
  for (int i = 0; i < m.dst_n; ++i) {
    EXPECT_EQ(m.gather[static_cast<size_t>(i)], i * 4) << "dst index " << i;
  }
}

TEST(AxisMap, IdentityAndUpsampleWeights) {
  const AxisMap& id = axis_map(5, 5);
  EXPECT_TRUE(id.injective);
  for (int i = 0; i < id.dst_n; ++i) EXPECT_EQ(id.gather[static_cast<size_t>(i)], i);

  // Upsampling by one level: odd destination points sit halfway between
  // source points; dyadic spacings make the weight exactly 0.5.
  const AxisMap& up = axis_map(4, 5);
  EXPECT_FALSE(up.injective);
  for (int i = 0; i < up.dst_n - 1; ++i) {
    const double w = up.w[static_cast<size_t>(i)];
    EXPECT_EQ(i % 2 == 0 ? 0.0 : 0.5, w) << "dst index " << i;
    EXPECT_EQ(up.i0[static_cast<size_t>(i)], i / 2);
  }
}

TEST(AxisMap, CacheHitsAndMisses) {
  axis_map_cache_clear();
  auto s0 = axis_map_cache_stats();
  EXPECT_EQ(s0.hits, 0u);
  EXPECT_EQ(s0.misses, 0u);
  EXPECT_EQ(s0.entries, 0u);

  (void)axis_map(7, 5);
  auto s1 = axis_map_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.entries, 1u);

  const AxisMap& a = axis_map(7, 5);
  const AxisMap& b = axis_map(7, 5);
  EXPECT_EQ(&a, &b);  // cached maps are shared, not rebuilt
  auto s2 = axis_map_cache_stats();
  EXPECT_EQ(s2.misses, 1u);
  EXPECT_EQ(s2.hits, 2u);
  EXPECT_EQ(s2.entries, 1u);

  // The reverse pair is a distinct key, not a hit.
  (void)axis_map(5, 7);
  auto s3 = axis_map_cache_stats();
  EXPECT_EQ(s3.misses, 2u);
  EXPECT_EQ(s3.entries, 2u);
}

TEST(Transfer, MatchesLegacySampleAcrossLevelPairs) {
  // Up- and down-sampling, isotropic and anisotropic, including mixed
  // directions (finer in x, coarser in y).
  const std::vector<std::pair<Level, Level>> pairs = {
      {{3, 3}, {5, 5}},  // isotropic upsample
      {{5, 5}, {3, 3}},  // isotropic downsample (refinement)
      {{5, 2}, {2, 5}},  // anisotropic crossover
      {{2, 5}, {5, 2}},
      {{4, 4}, {4, 4}},  // identity
      {{6, 3}, {4, 6}},  // mixed up/down
      {{3, 6}, {6, 4}},
      {{0, 4}, {3, 3}},  // degenerate axis (2 points)
      {{4, 4}, {0, 5}},
  };
  for (const auto& [src_level, dst_level] : pairs) {
    Grid2D src(src_level);
    src.fill(wavy);
    Grid2D dst(dst_level);
    transfer(src, dst);
    const Grid2D ref = legacy_interpolate(src, dst_level);
    EXPECT_LE(max_abs_diff(dst, ref), 1e-12)
        << "src (" << src_level.x << "," << src_level.y << ") dst (" << dst_level.x
        << "," << dst_level.y << ")";
  }
}

TEST(Transfer, AccumulateMatchesLegacy) {
  Grid2D src(Level{5, 3});
  src.fill(wavy);
  Grid2D dst(Level{4, 4});
  dst.fill([](double x, double y) { return x - y; });
  Grid2D ref = dst;

  transfer_accumulate(src, -1.5, dst);
  for (int iy = 0; iy < ref.ny(); ++iy) {
    for (int ix = 0; ix < ref.nx(); ++ix) {
      ref.at(ix, iy) += -1.5 * src.sample(ref.x_of(ix), ref.y_of(iy));
    }
  }
  EXPECT_LE(max_abs_diff(dst, ref), 1e-12);
}

TEST(Transfer, RestrictInjectIsExactOnRefinement) {
  Grid2D fine(Level{6, 5});
  fine.fill(wavy);
  Grid2D coarse(Level{4, 3});
  restrict_inject(fine, coarse);
  const int sx = 1 << 2;
  const int sy = 1 << 2;
  for (int iy = 0; iy < coarse.ny(); ++iy) {
    for (int ix = 0; ix < coarse.nx(); ++ix) {
      EXPECT_EQ(coarse.at(ix, iy), fine.at(ix * sx, iy * sy));  // bitwise: pure gather
    }
  }
}

TEST(Transfer, ProlongateIsExactOnCoarsePoints) {
  Grid2D coarse(Level{3, 4});
  coarse.fill(wavy);
  Grid2D fine(Level{5, 6});
  prolongate(coarse, fine);
  Grid2D back(Level{3, 4});
  restrict_inject(fine, back);
  EXPECT_LE(max_abs_diff(coarse, back), 1e-13);
}

TEST(Combine, FusedMatchesSequentialAccumulate) {
  const ftr::comb::Scheme s{6, 4};
  const auto levels = s.combination_levels();
  std::vector<Grid2D> grids;
  grids.reserve(levels.size());
  for (const Level& lv : levels) {
    Grid2D g(lv);
    g.fill(wavy);
    grids.push_back(std::move(g));
  }
  std::vector<ftr::comb::Component> parts;
  for (size_t i = 0; i < grids.size(); ++i) {
    parts.push_back({&grids[i], ftr::comb::classic_coefficient(s, levels[i])});
  }

  // Fused single-pass engine vs. one sequential accumulate per component.
  const Grid2D fused = ftr::comb::combine_to(Level{6, 6}, parts);
  Grid2D sequential(Level{6, 6});
  for (const auto& p : parts) {
    transfer_accumulate(*p.grid, p.coefficient, sequential);
  }
  // Same per-point summation order over components: identical results.
  EXPECT_LE(max_abs_diff(fused, sequential), 1e-13);

  // And both match the legacy per-point sample() combination.
  Grid2D legacy(Level{6, 6});
  for (const auto& p : parts) {
    if (p.coefficient == 0.0) continue;
    for (int iy = 0; iy < legacy.ny(); ++iy) {
      for (int ix = 0; ix < legacy.nx(); ++ix) {
        legacy.at(ix, iy) +=
            p.coefficient * p.grid->sample(legacy.x_of(ix), legacy.y_of(iy));
      }
    }
  }
  EXPECT_LE(max_abs_diff(fused, legacy), 1e-12);
}

TEST(Sweeps, SerialXMatchesBufferedReference) {
  Grid2D g(Level{4, 5});
  g.fill(wavy);
  g.enforce_periodicity();
  Grid2D ref = g;

  // Reference: the old implementation's semantics — compute each row into a
  // buffer from old values, then write back.
  const int n = ref.nx() - 1;
  std::vector<double> row(static_cast<size_t>(n));
  for (int iy = 0; iy < ref.ny() - 1; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      const double w = ref.at((ix - 1 + n) % n, iy);
      const double e = ref.at((ix + 1) % n, iy);
      row[static_cast<size_t>(ix)] = ftr::advection::lw_update(w, ref.at(ix, iy), e, 0.4);
    }
    for (int ix = 0; ix < n; ++ix) ref.at(ix, iy) = row[static_cast<size_t>(ix)];
  }
  ref.enforce_periodicity();

  ftr::advection::sweep_x_serial(g, 0.4);
  EXPECT_EQ(max_abs_diff(g, ref), 0.0);  // identical operands -> bitwise equal
}

TEST(Sweeps, SerialYMatchesBufferedReference) {
  Grid2D g(Level{5, 4});
  g.fill(wavy);
  g.enforce_periodicity();
  Grid2D ref = g;

  const int n = ref.ny() - 1;
  std::vector<double> col(static_cast<size_t>(n));
  for (int ix = 0; ix < ref.nx() - 1; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      const double s = ref.at(ix, (iy - 1 + n) % n);
      const double nn = ref.at(ix, (iy + 1) % n);
      col[static_cast<size_t>(iy)] = ftr::advection::lw_update(s, ref.at(ix, iy), nn, 0.3);
    }
    for (int iy = 0; iy < n; ++iy) ref.at(ix, iy) = col[static_cast<size_t>(iy)];
  }
  ref.enforce_periodicity();

  ftr::advection::sweep_y_serial(g, 0.3);
  EXPECT_EQ(max_abs_diff(g, ref), 0.0);
}

TEST(Sweeps, LocalFieldSweepsMatchSerialOnSingleBlock) {
  // One halo'd block covering the whole grid must reproduce the serial
  // sweeps after a periodic halo fill.
  Grid2D g(Level{4, 4});
  g.fill(wavy);
  g.enforce_periodicity();
  Grid2D serial = g;
  ftr::advection::sweep_x_serial(serial, 0.25);
  ftr::advection::sweep_y_serial(serial, 0.35);

  const int nx = g.nx() - 1;
  const int ny = g.ny() - 1;
  LocalField f(Block{0, nx, 0, ny});
  f.load_from(g);
  auto& hs = f.halo_scratch();
  f.pack_column_into(nx - 1, hs.send[0]);
  f.unpack_halo_column(-1, hs.send[0]);
  f.pack_column_into(0, hs.send[1]);
  f.unpack_halo_column(nx, hs.send[1]);
  ftr::advection::sweep_x(f, 0.25);
  f.pack_row_into(ny - 1, hs.send[0]);
  f.unpack_halo_row(-1, hs.send[0]);
  f.pack_row_into(0, hs.send[1]);
  f.unpack_halo_row(ny, hs.send[1]);
  ftr::advection::sweep_y(f, 0.35);

  Grid2D out(Level{4, 4});
  f.store_to(out);
  out.enforce_periodicity();
  EXPECT_EQ(max_abs_diff(out, serial), 0.0);
}

TEST(Sweeps, LocalFieldSweepsMatchScalarUpdateAtEveryWidth) {
  // Every sweep width this CPU runs updates n cells at a time and ends each
  // row with a scalar tail of fewer than n cells.  Against lw_update applied
  // cell by cell to a snapshot of the old values, every block width from 1
  // to 40 (several chunks and every tail length at 8 lanes) and height from
  // 1 to 4 must agree in every bit, halos and row padding included
  // (non-periodic values, so a wrong neighbour shows).  The dispatched
  // sweep_x/sweep_y must agree too.
  const auto run = [](int lanes, int w, int h) {
    LocalField f(Block{0, w, 0, h});
    for (int ly = -1; ly <= h; ++ly) {
      for (int lx = -1; lx <= w; ++lx) f.at(lx, ly) = wavy(0.11 * lx, 0.07 * ly) + 0.01 * lx;
    }
    const auto sweep_ref = [&](LocalField& g, int dx, int dy, double c) {
      const LocalField old = g;
      for (int ly = 0; ly < h; ++ly) {
        for (int lx = 0; lx < w; ++lx) {
          g.at(lx, ly) = ftr::advection::lw_update(old.at(lx - dx, ly - dy), old.at(lx, ly),
                                                   old.at(lx + dx, ly + dy), c);
        }
      }
    };
    LocalField ref = f;
    sweep_ref(ref, 1, 0, 0.45);
    sweep_ref(ref, 0, 1, 0.3);
    if (lanes == 0) {
      ftr::advection::sweep_x(f, 0.45);
      ftr::advection::sweep_y(f, 0.3);
    } else {
      ftr::advection::detail::sweep_x_lanes(lanes, f, 0.45);
      ftr::advection::detail::sweep_y_lanes(lanes, f, 0.3);
    }
    int mismatches = 0;
    for (size_t i = 0; i < f.raw().size(); ++i) {
      mismatches += std::bit_cast<std::uint64_t>(f.raw()[i]) !=
                    std::bit_cast<std::uint64_t>(ref.raw()[i]);
    }
    return mismatches;
  };
  std::vector<int> lanes(ftr::advection::detail::sweep_lanes().begin(),
                         ftr::advection::detail::sweep_lanes().end());
  lanes.push_back(0);  // the dispatched sweeps
  for (const int n : lanes) {
    for (int w = 1; w <= 40; ++w) {
      for (int h = 1; h <= 4; ++h) {
        EXPECT_EQ(run(n, w, h), 0) << "lanes " << n << " (0: dispatched), width " << w
                                   << ", height " << h;
      }
    }
  }
}

TEST(Sweeps, DispatchRunsTheWidestWidthTheCpuHas) {
  // 2 lanes everywhere, 4 with AVX2, 8 with AVX-512F; sweep_x and sweep_y
  // run the last of sweep_lanes().
  std::vector<int> expected{2};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) expected.push_back(4);
  if (__builtin_cpu_supports("avx512f")) expected.push_back(8);
#endif
  const auto lanes = ftr::advection::detail::sweep_lanes();
  EXPECT_EQ(std::vector<int>(lanes.begin(), lanes.end()), expected);
}

TEST(HaloScratch, PackIntoReusesCapacity) {
  LocalField f(Block{0, 8, 0, 6});
  for (int ly = 0; ly < 6; ++ly) {
    for (int lx = 0; lx < 8; ++lx) f.at(lx, ly) = lx + 100.0 * ly;
  }
  auto& hs = f.halo_scratch();
  f.pack_column_into(3, hs.send[0]);
  ASSERT_EQ(hs.send[0].size(), 6u);
  for (int ly = 0; ly < 6; ++ly) EXPECT_EQ(hs.send[0][static_cast<size_t>(ly)], 3 + 100.0 * ly);
  const double* before = hs.send[0].data();
  f.pack_column_into(5, hs.send[0]);  // same size: no reallocation
  EXPECT_EQ(hs.send[0].data(), before);
  for (int ly = 0; ly < 6; ++ly) EXPECT_EQ(hs.send[0][static_cast<size_t>(ly)], 5 + 100.0 * ly);

  f.pack_row_into(2, hs.send[1]);
  ASSERT_EQ(hs.send[1].size(), 8u);
  for (int lx = 0; lx < 8; ++lx) EXPECT_EQ(hs.send[1][static_cast<size_t>(lx)], lx + 200.0);
}
