// Unit tests for the separable transfer engine: axis-map exactness and
// caching, equivalence with the legacy per-point Grid2D::sample() path,
// fused-vs-sequential combination identity, and the allocation-free sweep
// rewrites.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "advection/lax_wendroff.hpp"
#include "alloc_counter.hpp"
#include "combination/combine.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/runtime.hpp"
#include "grid/decomposition.hpp"
#include "grid/grid2d.hpp"
#include "grid/halo.hpp"
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
  f.wrap_x();
  ftr::advection::sweep_x(f, 0.25);
  f.wrap_y();
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
  const auto value = [](const std::vector<std::byte>& p, int i) {
    double v = 0;
    std::memcpy(&v, p.data() + static_cast<size_t>(i) * sizeof(double), sizeof(double));
    return v;
  };
  std::vector<std::byte> column;
  f.pack_column_bytes(3, column);
  ASSERT_EQ(column.size(), 6 * sizeof(double));
  for (int ly = 0; ly < 6; ++ly) EXPECT_EQ(value(column, ly), 3 + 100.0 * ly);
  const std::byte* before = column.data();
  f.pack_column_bytes(5, column);  // same size: no reallocation
  EXPECT_EQ(column.data(), before);
  for (int ly = 0; ly < 6; ++ly) EXPECT_EQ(value(column, ly), 5 + 100.0 * ly);

  std::vector<std::byte> row;
  f.pack_row_bytes(2, row);
  ASSERT_EQ(row.size(), 8 * sizeof(double));
  for (int lx = 0; lx < 8; ++lx) EXPECT_EQ(value(row, lx), lx + 200.0);

  // The payloads land in the halo ring only: a full payload fills the whole
  // halo column / row, a shorter one a prefix.
  f.fill_halo_column(-1, column);
  f.fill_halo_row(6, row);
  for (int ly = 0; ly < 6; ++ly) EXPECT_EQ(f.at(-1, ly), 5 + 100.0 * ly);
  for (int lx = 0; lx < 8; ++lx) EXPECT_EQ(f.at(lx, 6), lx + 200.0);
  column.resize(2 * sizeof(double));
  f.fill_halo_column(8, column);
  EXPECT_EQ(f.at(8, 0), 5.0);
  EXPECT_EQ(f.at(8, 1), 105.0);
  EXPECT_EQ(f.at(8, 2), 0.0);
  EXPECT_EQ(f.at(-1, -1), 0.0);  // corners untouched
  EXPECT_EQ(f.at(8, 6), 0.0);
}

TEST(HaloExchange, SteadyStateAllocatesNoEdgeBuffer) {
  // 2 x 2 ranks over 512 x 512 points: every edge is 256 doubles (2 KiB),
  // more than any message bookkeeping allocates.  After one warm-up
  // exchange each payload circulates at its edge's size, so 100 rounds of
  // exchange_x plus exchange_y allocate no buffer that large.  Each round
  // is checked against the neighbours' edges.
  const Decomposition d(Level{9, 9}, 2, 2);
  const std::size_t edge_bytes = 256 * sizeof(double);
  ftmpi::Runtime rt;
  std::atomic<int> bad{0};
  std::atomic<long> big_allocs{-1};
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ftmpi::Comm& w = ftmpi::world();
    const int me = w.rank();
    LocalField f(d.block(me));
    const auto fill = [&](int round) {
      for (int ly = 0; ly < f.block().height(); ++ly) {
        for (int lx = 0; lx < f.block().width(); ++lx) {
          f.at(lx, ly) = 1e6 * round + 1e4 * me + 100.0 * ly + lx;
        }
      }
    };
    const auto check = [&](int round) {
      const int wr = d.west(me), er = d.east(me), sr = d.south(me), nr = d.north(me);
      const int last = 255;
      for (int i = 0; i < 256; ++i) {
        bad += f.at(-1, i) != 1e6 * round + 1e4 * wr + 100.0 * i + last;
        bad += f.at(256, i) != 1e6 * round + 1e4 * er + 100.0 * i;
        bad += f.at(i, -1) != 1e6 * round + 1e4 * sr + 100.0 * last + i;
        bad += f.at(i, 256) != 1e6 * round + 1e4 * nr + i;
      }
    };
    const auto exchange = [&] {
      bad += ftr::grid::exchange_x(f, d, w) != ftmpi::kSuccess;
      bad += ftr::grid::exchange_y(f, d, w) != ftmpi::kSuccess;
    };
    fill(0);
    exchange();  // warm-up: the payloads take their edge sizes
    check(0);
    ASSERT_EQ(ftmpi::barrier(w), ftmpi::kSuccess);
    if (me == 0) ftr_test::arm_alloc_count(edge_bytes);
    ASSERT_EQ(ftmpi::barrier(w), ftmpi::kSuccess);
    for (int round = 1; round <= 100; ++round) {
      fill(round);
      exchange();
      check(round);
    }
    ASSERT_EQ(ftmpi::barrier(w), ftmpi::kSuccess);
    if (me == 0) big_allocs = ftr_test::disarm_alloc_count();
  });
  rt.run("main", 4);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(big_allocs.load(), 0);
}
