#include "advection/lax_wendroff.hpp"
#include "common/annotations.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__x86_64__)
// The wider kernels' instruction sets; the rest of the program is built
// without them and calls those kernels only after CPUID says they are there.
#define FTR_SWEEP_WIDE 1
#define FTR_AVX2 [[gnu::target("avx2")]]
#define FTR_AVX512 [[gnu::target("avx512f")]]
#endif

namespace ftr::advection {

using ftr::grid::Grid2D;
using ftr::grid::LocalField;

namespace {

/// Persistent per-worker sweep scratch.  A sweep never suspends its rank,
/// so the ranks that share a worker thread never share these rows midway;
/// capacity persists across steps, so the hot path stops allocating after
/// the first step on a given grid size.  The rows start on a cache line,
/// as LocalField rows do.
LocalField::Storage& sweep_scratch(int which, std::size_t n) {
  FTR_PER_RANK("per-worker sweep scratch rows; safe because a sweep never suspends its rank")
  thread_local LocalField::Storage rows[3];
  auto& r = rows[which];
  // ftlint:allow(FTL003 warm-up growth of persistent thread_local scratch)
  if (r.size() < n) r.resize(n);
  return r;
}

// The kernels' vector types, each declared with a literal size: GCC ignores
// vector_size on a template-dependent size without a diagnostic.  Lane
// arithmetic rounds exactly like scalar double arithmetic.  The 2-lane
// type is SSE2 on x86-64, part of its baseline.
using V2 = double __attribute__((vector_size(16)));
#ifdef FTR_SWEEP_WIDE
using V4 = double __attribute__((vector_size(32)));
using V8 = double __attribute__((vector_size(64)));
#endif

/// Names a kernel's vector type in a call, so that the call deduces it and
/// stays a plain call by name, which ftlint's FTL003 follows.
template <typename V>
struct Lanes {
  static constexpr int kCount = sizeof(V) / sizeof(double);
};

// Vectors move through references only: see lw_update.
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// The two kernels are always inlined into one function per width, which
// carries that width's instruction set.

template <typename V>
FTR_HOT [[gnu::always_inline]] inline void sweep_x_kernel(LocalField& f, double c, Lanes<V>) {
  // The update at lx needs the *old* values at lx-1, lx, lx+1.  Walking east
  // a chunk of n cells at a time, the chunk's west, centre and east operands
  // all load in place, because the previous chunk's result, which overwrites
  // this chunk's first west operand, is stored only after those loads.  The
  // last chunk's result is stored once the scalar tail has read the old
  // value west of it; the tail carries its west operand from cell to cell.
  constexpr int n = Lanes<V>::kCount;
  const auto& b = f.block();
  const int w = b.width();
  const int h = b.height();
  for (int ly = 0; ly < h; ++ly) {
    double* row = &f.at(0, ly);  // row[-1] and row[w] are the halo cells
    double west = row[-1];
    int lx = 0;
    if (w >= n) {
      V west_v, center_v, east_v, out;
      load(west_v, row - 1);
      load(center_v, row);
      load(east_v, row + 1);
      lw_update(out, west_v, center_v, east_v, c);
      for (lx = n; lx + n <= w; lx += n) {
        load(west_v, row + lx - 1);
        load(center_v, row + lx);
        load(east_v, row + lx + 1);
        store(row + lx - n, out);
        lw_update(out, west_v, center_v, east_v, c);
      }
      west = row[lx - 1];
      store(row + lx - n, out);
    }
    for (; lx < w; ++lx) {
      const double center = row[lx];
      row[lx] = lw_update(west, center, row[lx + 1], c);
      west = center;
    }
  }
}

template <typename V>
FTR_HOT [[gnu::always_inline]] inline void sweep_y_kernel(LocalField& f, double c, Lanes<V>) {
  // Row-major, n cells at a time.  Row ly needs the old rows ly-1, ly and
  // ly+1.  Row ly+1 is still untouched and is read in place.  Old row ly-1
  // was overwritten one row earlier, so one scratch row carries it: as each
  // chunk of row ly is read, its old values replace the south values just
  // used, and the buffer holds old row ly by the time row ly+1 needs it.
  // Each row ends with a scalar tail of fewer than n cells.
  constexpr int n = Lanes<V>::kCount;
  const auto& b = f.block();
  const int w = b.width();
  const int h = b.height();
  double* south = sweep_scratch(0, static_cast<std::size_t>(w)).data();
  std::copy_n(&f.at(0, -1), w, south);
  for (int ly = 0; ly < h; ++ly) {
    double* row = &f.at(0, ly);
    const double* north = &f.at(0, ly + 1);
    int lx = 0;
    for (; lx + n <= w; lx += n) {
      V south_v, center_v, north_v, out;
      load(south_v, south + lx);
      load(center_v, row + lx);
      load(north_v, north + lx);
      lw_update(out, south_v, center_v, north_v, c);
      store(row + lx, out);
      store(south + lx, center_v);
    }
    for (; lx < w; ++lx) {
      const double center = row[lx];
      row[lx] = lw_update(south[lx], center, north[lx], c);
      south[lx] = center;
    }
  }
}

FTR_HOT void sweep_x2(LocalField& f, double c) { sweep_x_kernel(f, c, Lanes<V2>{}); }
FTR_HOT void sweep_y2(LocalField& f, double c) { sweep_y_kernel(f, c, Lanes<V2>{}); }

#ifdef FTR_SWEEP_WIDE

FTR_AVX2 FTR_HOT void sweep_x4(LocalField& f, double c) { sweep_x_kernel(f, c, Lanes<V4>{}); }
FTR_AVX2 FTR_HOT void sweep_y4(LocalField& f, double c) { sweep_y_kernel(f, c, Lanes<V4>{}); }
FTR_AVX512 FTR_HOT void sweep_x8(LocalField& f, double c) { sweep_x_kernel(f, c, Lanes<V8>{}); }
FTR_AVX512 FTR_HOT void sweep_y8(LocalField& f, double c) { sweep_y_kernel(f, c, Lanes<V8>{}); }

#endif  // FTR_SWEEP_WIDE

struct LaneSet {
  int lanes[3];
  std::size_t count;
};

LaneSet read_cpu_lanes() {
  LaneSet s{{2, 0, 0}, 1};
#ifdef FTR_SWEEP_WIDE
  __builtin_cpu_init();  // the first sweep may run from a static initializer
  if (__builtin_cpu_supports("avx2")) s.lanes[s.count++] = 4;
  if (__builtin_cpu_supports("avx512f")) s.lanes[s.count++] = 8;
#endif
  return s;
}

}  // namespace

std::span<const int> detail::sweep_lanes() {
  static const LaneSet s = read_cpu_lanes();  // CPUID, once per process
  return {s.lanes, s.count};
}

FTR_HOT void detail::sweep_x_lanes(int lanes, LocalField& f, double courant_x) {
  switch (lanes) {
#ifdef FTR_SWEEP_WIDE
    case 8:
      sweep_x8(f, courant_x);
      return;
    case 4:
      sweep_x4(f, courant_x);
      return;
#endif
    default:
      assert(lanes == 2);
      sweep_x2(f, courant_x);
  }
}

FTR_HOT void detail::sweep_y_lanes(int lanes, LocalField& f, double courant_y) {
  switch (lanes) {
#ifdef FTR_SWEEP_WIDE
    case 8:
      sweep_y8(f, courant_y);
      return;
    case 4:
      sweep_y4(f, courant_y);
      return;
#endif
    default:
      assert(lanes == 2);
      sweep_y2(f, courant_y);
  }
}

FTR_HOT void sweep_x(LocalField& f, double courant_x) {
  detail::sweep_x_lanes(detail::sweep_lanes().back(), f, courant_x);
}

FTR_HOT void sweep_y(LocalField& f, double courant_y) {
  detail::sweep_y_lanes(detail::sweep_lanes().back(), f, courant_y);
}

FTR_HOT void sweep_x_serial(Grid2D& g, double courant_x) {
  const int n = g.nx() - 1;  // unique points
  for (int iy = 0; iy < g.ny() - 1; ++iy) {
    // Periodic ring update with carried scalars: row point n-1 is updated
    // last, so it is still old when point 0 reads it as its west neighbor;
    // point 0's old value is saved up front for point n-1's east neighbor.
    const double first_old = g.at(0, iy);
    double west = g.at(n - 1, iy);
    for (int ix = 0; ix < n; ++ix) {
      const double center = g.at(ix, iy);
      const double east = (ix + 1 < n) ? g.at(ix + 1, iy) : first_old;
      g.at(ix, iy) = lw_update(west, center, east, courant_x);
      west = center;
    }
  }
  g.enforce_periodicity();
}

FTR_HOT void sweep_y_serial(Grid2D& g, double courant_y) {
  // Row-major with periodic wrap: like sweep_y, plus a saved copy of old
  // row 0 (already updated by the time row n-1 needs it as north neighbor).
  // Row n-1 is updated last, so row 0 reads it in place as its south
  // neighbor via south_old's initial fill.
  const int n = g.ny() - 1;  // unique rows
  const int w = g.nx() - 1;  // unique points per row
  const std::size_t wn = static_cast<std::size_t>(w);
  auto& south_old = sweep_scratch(0, wn);
  auto& center_old = sweep_scratch(1, wn);
  auto& row0_old = sweep_scratch(2, wn);
  for (int ix = 0; ix < w; ++ix) row0_old[static_cast<std::size_t>(ix)] = g.at(ix, 0);
  for (int ix = 0; ix < w; ++ix) south_old[static_cast<std::size_t>(ix)] = g.at(ix, n - 1);
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < w; ++ix) center_old[static_cast<std::size_t>(ix)] = g.at(ix, iy);
    const bool last_row = (iy + 1 == n);
    for (int ix = 0; ix < w; ++ix) {
      const double north =
          last_row ? row0_old[static_cast<std::size_t>(ix)] : g.at(ix, iy + 1);
      g.at(ix, iy) = lw_update(south_old[static_cast<std::size_t>(ix)],
                               center_old[static_cast<std::size_t>(ix)], north, courant_y);
    }
    std::swap(south_old, center_old);
  }
  g.enforce_periodicity();
}

}  // namespace ftr::advection
