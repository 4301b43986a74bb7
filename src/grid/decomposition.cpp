#include "grid/decomposition.hpp"
#include "common/annotations.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace ftr::grid {

std::pair<int, int> near_square_factors(int nprocs) {
  assert(nprocs >= 1);
  int best_py = 1;
  for (int py = 1; py * py <= nprocs; ++py) {
    if (nprocs % py == 0) best_py = py;
  }
  return {nprocs / best_py, best_py};  // px >= py
}

Decomposition::Decomposition(Level level, int px, int py) : level_(level), px_(px), py_(py) {
  assert(px >= 1 && py >= 1);
  assert(px <= unique_nx() && py <= unique_ny());
}

Decomposition::Decomposition(Level level, int nprocs) : level_(level) {
  auto [px, py] = near_square_factors(nprocs);
  // A very anisotropic grid may not accommodate a near-square layout;
  // flatten the process grid along the thin dimension if needed.
  if (py > (1 << level.y)) {
    py = 1 << level.y;
    px = nprocs / py;
  }
  if (px > (1 << level.x)) {
    px = 1 << level.x;
    py = nprocs / px;
  }
  px_ = px;
  py_ = py;
  assert(px_ * py_ == nprocs && "process count must factor onto the grid");
}

std::pair<int, int> Decomposition::split_range(int n, int parts, int idx) {
  const int base = n / parts;
  const int rem = n % parts;
  const int lo = idx * base + std::min(idx, rem);
  const int hi = lo + base + (idx < rem ? 1 : 0);
  return {lo, hi};
}

Block Decomposition::block(int rank) const {
  const auto [cx, cy] = coords(rank);
  const auto [x0, x1] = split_range(unique_nx(), px_, cx);
  const auto [y0, y1] = split_range(unique_ny(), py_, cy);
  return Block{x0, x1, y0, y1};
}

int Decomposition::west(int rank) const {
  const auto [cx, cy] = coords(rank);
  return rank_at(cx - 1, cy);
}
int Decomposition::east(int rank) const {
  const auto [cx, cy] = coords(rank);
  return rank_at(cx + 1, cy);
}
int Decomposition::south(int rank) const {
  const auto [cx, cy] = coords(rank);
  return rank_at(cx, cy - 1);
}
int Decomposition::north(int rank) const {
  const auto [cx, cy] = coords(rank);
  return rank_at(cx, cy + 1);
}

void LocalField::load_from(const Grid2D& full) {
  for (int ly = 0; ly < block_.height(); ++ly) {
    for (int lx = 0; lx < block_.width(); ++lx) {
      at(lx, ly) = full.at(block_.x0 + lx, block_.y0 + ly);
    }
  }
}

void LocalField::store_to(Grid2D& full) const {
  for (int ly = 0; ly < block_.height(); ++ly) {
    for (int lx = 0; lx < block_.width(); ++lx) {
      full.at(block_.x0 + lx, block_.y0 + ly) = at(lx, ly);
    }
  }
}

std::vector<double> LocalField::pack_interior() const {
  const int w = block_.width();
  std::vector<double> v;
  v.reserve(static_cast<size_t>(block_.cells()));
  for (int ly = 0; ly < block_.height(); ++ly) {
    const double* row = &at(0, ly);
    v.insert(v.end(), row, row + w);
  }
  return v;
}

void LocalField::unpack_interior(const std::vector<double>& v) {
  assert(v.size() == static_cast<size_t>(block_.cells()));
  const auto w = static_cast<std::ptrdiff_t>(block_.width());
  for (int ly = 0; ly < block_.height(); ++ly) std::copy_n(v.begin() + ly * w, w, &at(0, ly));
}

std::vector<double> LocalField::pack_column(int lx) const {
  std::vector<double> v;
  pack_column_into(lx, v);
  return v;
}

std::vector<double> LocalField::pack_row(int ly) const {
  std::vector<double> v;
  pack_row_into(ly, v);
  return v;
}

FTR_HOT void LocalField::pack_column_into(int lx, std::vector<double>& v) const {
  // ftlint:allow(FTL003 warm-up growth of persistent halo scratch)
  v.resize(static_cast<size_t>(block_.height()));
  for (int ly = 0; ly < block_.height(); ++ly) v[static_cast<size_t>(ly)] = at(lx, ly);
}

FTR_HOT void LocalField::pack_row_into(int ly, std::vector<double>& v) const {
  // ftlint:allow(FTL003 warm-up growth of persistent halo scratch)
  v.resize(static_cast<size_t>(block_.width()));
  for (int lx = 0; lx < block_.width(); ++lx) v[static_cast<size_t>(lx)] = at(lx, ly);
}

FTR_HOT void LocalField::unpack_halo_column(int lx, const std::vector<double>& v) {
  for (int ly = 0; ly < block_.height(); ++ly) at(lx, ly) = v[static_cast<size_t>(ly)];
}

FTR_HOT void LocalField::unpack_halo_row(int ly, const std::vector<double>& v) {
  for (int lx = 0; lx < block_.width(); ++lx) at(lx, ly) = v[static_cast<size_t>(lx)];
}

}  // namespace ftr::grid
