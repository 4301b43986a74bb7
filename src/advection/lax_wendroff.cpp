#include "advection/lax_wendroff.hpp"
#include "common/annotations.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace ftr::advection {

using ftr::grid::Grid2D;
using ftr::grid::LocalField;

namespace {

/// Persistent per-worker sweep scratch.  A sweep never suspends its rank,
/// so the ranks that share a worker thread never share these rows midway;
/// capacity persists across steps, so the hot path stops allocating after
/// the first step on a given grid size.
std::vector<double>& sweep_scratch(int which, std::size_t n) {
  FTR_PER_RANK("per-worker sweep scratch rows; safe because a sweep never suspends its rank")
  thread_local std::vector<double> rows[3];
  auto& r = rows[which];
  // ftlint:allow(FTL003 warm-up growth of persistent thread_local scratch)
  if (r.size() < n) r.resize(n);
  return r;
}

/// Two neighbouring cells of a row in one register.  x86-64 has SSE2 in its
/// baseline, so this needs no target flag, and lane arithmetic rounds exactly
/// like scalar double arithmetic.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

FTR_HOT void sweep_x(LocalField& f, double courant_x) {
  // The update at lx needs the *old* values at lx-1, lx, lx+1.  Walking east
  // a pair of cells at a time, the pair and its east neighbours are still
  // untouched and load in place.  The west neighbour of the pair's first cell
  // was overwritten by the previous pair, so the previous pair's old values
  // ride along in `prev` and a shuffle of prev and the current pair yields
  // the west operands.  An odd width ends with one scalar update.
  const auto& b = f.block();
  const int w = b.width();
  const int h = b.height();
  for (int ly = 0; ly < h; ++ly) {
    double* row = &f.at(0, ly);  // row[-1] and row[w] are the halo cells
    Pair prev{row[-1], row[-1]};  // only lane 1, the west halo cell, is read
    int lx = 0;
    for (; lx + 1 < w; lx += 2) {
      const Pair center = load_pair(row + lx);
      const Pair west{prev[1], center[0]};
      store_pair(row + lx, lw_update(west, center, load_pair(row + lx + 1), courant_x));
      prev = center;
    }
    if (lx < w) row[lx] = lw_update(prev[1], row[lx], row[lx + 1], courant_x);
  }
}

FTR_HOT void sweep_y(LocalField& f, double courant_y) {
  // Row-major, a pair of cells at a time.  Row ly needs the old rows ly-1,
  // ly and ly+1.  Row ly+1 is still untouched and is read in place.  Old row
  // ly-1 was overwritten one row earlier, so one scratch row carries it: as
  // each pair of row ly is read, its old values replace the south values
  // just used, and the buffer holds old row ly by the time row ly+1 needs
  // it.  An odd width ends each row with one scalar update.
  const auto& b = f.block();
  const int w = b.width();
  const int h = b.height();
  double* south = sweep_scratch(0, static_cast<std::size_t>(w)).data();
  std::copy_n(&f.at(0, -1), w, south);
  for (int ly = 0; ly < h; ++ly) {
    double* row = &f.at(0, ly);
    const double* north = &f.at(0, ly + 1);
    int lx = 0;
    for (; lx + 1 < w; lx += 2) {
      const Pair center = load_pair(row + lx);
      store_pair(row + lx,
                 lw_update(load_pair(south + lx), center, load_pair(north + lx), courant_y));
      store_pair(south + lx, center);
    }
    if (lx < w) {
      const double center = row[lx];
      row[lx] = lw_update(south[lx], center, north[lx], courant_y);
      south[lx] = center;
    }
  }
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
