// Micro-benchmarks for the separable transfer engine and the hot paths it
// replaced: table-driven transfers vs the legacy per-point sample() loop,
// fused vs sequential combination, axis-map cache lookups, halo pack/unpack
// with persistent scratch, and the CRC-32 (carry-less-multiply folding where
// the CPU has PCLMULQDQ, slicing-by-8 otherwise).  Together with
// bench_micro these feed BENCH_micro.json (see tools/bench_to_json.py).

#include <benchmark/benchmark.h>

#include <vector>

#include "combination/combine.hpp"
#include "common/crc32.hpp"
#include "grid/decomposition.hpp"
#include "grid/grid2d.hpp"
#include "grid/sampling.hpp"
#include "grid/transfer.hpp"

using ftr::comb::Scheme;
using ftr::grid::Grid2D;
using ftr::grid::Level;

namespace {

double fill_fn(double x, double y) { return x * (1.0 - y) + 0.5 * y; }

// src two levels coarser in x, one finer in y: both axes fractional.
void BM_TransferUpsample(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D src(Level{l - 2, l - 1});
  src.fill(fill_fn);
  Grid2D dst(Level{l, l});
  for (auto _ : state) {
    ftr::grid::transfer(src, dst);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dst.size()));
}
BENCHMARK(BM_TransferUpsample)->Arg(7)->Arg(9);

void BM_TransferDownsample(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D src(Level{l, l});
  src.fill(fill_fn);
  Grid2D dst(Level{l - 2, l - 1});
  for (auto _ : state) {
    ftr::grid::transfer(src, dst);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dst.size()));
}
BENCHMARK(BM_TransferDownsample)->Arg(7)->Arg(9);

// The pre-engine path, kept as the comparison anchor for the engine's
// speedup trajectory: per-point clamp + divide + floor via Grid2D::sample().
void BM_TransferLegacyPointwise(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  Grid2D src(Level{l - 2, l - 1});
  src.fill(fill_fn);
  Grid2D dst(Level{l, l});
  for (auto _ : state) {
    for (int iy = 0; iy < dst.ny(); ++iy) {
      for (int ix = 0; ix < dst.nx(); ++ix) {
        dst.at(ix, iy) = src.sample(dst.x_of(ix), dst.y_of(iy));
      }
    }
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dst.size()));
}
BENCHMARK(BM_TransferLegacyPointwise)->Arg(7)->Arg(9);

void combine_inputs(const Scheme& s, std::vector<Grid2D>& grids,
                    std::vector<ftr::comb::Component>& parts) {
  const auto levels = s.combination_levels();
  grids.reserve(levels.size());
  for (const Level& lv : levels) {
    Grid2D g(lv);
    g.fill(fill_fn);
    grids.push_back(std::move(g));
  }
  for (size_t i = 0; i < grids.size(); ++i) {
    parts.push_back({&grids[i], ftr::comb::classic_coefficient(s, levels[i])});
  }
}

void BM_CombineFused(benchmark::State& state) {
  const Scheme s{static_cast<int>(state.range(0)), 4};
  std::vector<Grid2D> grids;
  std::vector<ftr::comb::Component> parts;
  combine_inputs(s, grids, parts);
  for (auto _ : state) {
    Grid2D combined = ftr::comb::combine_full(s, parts);
    benchmark::DoNotOptimize(combined.data().data());
  }
  const int64_t n = (1 << s.n) + 1;
  state.SetItemsProcessed(state.iterations() * n * n *
                          static_cast<int64_t>(parts.size()));
}
BENCHMARK(BM_CombineFused)->Arg(8)->Arg(9);

// One engine pass per component with the destination re-streamed each time:
// isolates the value of fusing from the value of the table-driven kernels.
void BM_CombineSequential(benchmark::State& state) {
  const Scheme s{static_cast<int>(state.range(0)), 4};
  std::vector<Grid2D> grids;
  std::vector<ftr::comb::Component> parts;
  combine_inputs(s, grids, parts);
  for (auto _ : state) {
    Grid2D combined(Level{s.n, s.n});
    for (const auto& p : parts) {
      ftr::grid::transfer_accumulate(*p.grid, p.coefficient, combined);
    }
    benchmark::DoNotOptimize(combined.data().data());
  }
  const int64_t n = (1 << s.n) + 1;
  state.SetItemsProcessed(state.iterations() * n * n *
                          static_cast<int64_t>(parts.size()));
}
BENCHMARK(BM_CombineSequential)->Arg(8)->Arg(9);

void BM_AxisMapCachedLookup(benchmark::State& state) {
  (void)ftr::grid::axis_map(9, 7);  // warm the entry
  for (auto _ : state) {
    const auto& m = ftr::grid::axis_map(9, 7);
    benchmark::DoNotOptimize(&m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AxisMapCachedLookup);

void BM_HaloPackUnpack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ftr::grid::LocalField f(ftr::grid::Block{0, n, 0, n});
  for (int ly = 0; ly < n; ++ly) {
    for (int lx = 0; lx < n; ++lx) f.at(lx, ly) = lx + ly;
  }
  std::vector<std::byte> column, row;
  for (auto _ : state) {
    f.pack_column_bytes(n - 1, column);
    f.fill_halo_column(-1, column);
    f.pack_row_bytes(n - 1, row);
    f.fill_halo_row(-1, row);
    benchmark::DoNotOptimize(f.raw().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_HaloPackUnpack)->Arg(256)->Arg(512);

void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> buf(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftr::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
// 1 << 15 is one `overlap` replica payload (4096 doubles).
BENCHMARK(BM_Crc32)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
