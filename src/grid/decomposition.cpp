#include "grid/decomposition.hpp"
#include "common/annotations.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>

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

FTR_HOT void LocalField::append_interior(std::vector<std::byte>& out) const {
  const auto row_bytes = static_cast<std::size_t>(block_.width()) * sizeof(double);
  for (int ly = 0; ly < block_.height(); ++ly) {
    const auto* row = reinterpret_cast<const std::byte*>(&at(0, ly));
    // ftlint:allow(FTL003 appends into the capacity the caller reserved)
    out.insert(out.end(), row, row + row_bytes);
  }
}

FTR_HOT void LocalField::unpack_interior(const std::byte* bytes) {
  const auto row_bytes = static_cast<std::size_t>(block_.width()) * sizeof(double);
  for (int ly = 0; ly < block_.height(); ++ly) {
    std::memcpy(&at(0, ly), bytes + static_cast<std::size_t>(ly) * row_bytes, row_bytes);
  }
}

// The column copies keep the payload pointer, the field pointer and the
// stride in locals: a byte store may alias any member, so the compiler
// would otherwise reload all three for every cell.
FTR_HOT void LocalField::pack_column_bytes(int lx, std::vector<std::byte>& out) const {
  const auto h = static_cast<std::size_t>(block_.height());
  // ftlint:allow(FTL003 sizes a payload that already holds an edge after the first exchange)
  out.resize(h * sizeof(double));
  std::byte* dst = out.data();
  const double* src = &at(lx, 0);
  const auto stride = static_cast<std::size_t>(stride_);
  for (std::size_t ly = 0; ly < h; ++ly) {
    std::memcpy(dst + ly * sizeof(double), src + ly * stride, sizeof(double));
  }
}

FTR_HOT void LocalField::pack_row_bytes(int ly, std::vector<std::byte>& out) const {
  // ftlint:allow(FTL003 sizes a payload that already holds an edge after the first exchange)
  out.resize(static_cast<std::size_t>(block_.width()) * sizeof(double));
  std::memcpy(out.data(), &at(0, ly), out.size());
}

FTR_HOT void LocalField::fill_halo_column(int lx, const std::vector<std::byte>& in) {
  const std::size_t n =
      std::min(static_cast<std::size_t>(block_.height()), in.size() / sizeof(double));
  double* dst = &at(lx, 0);
  const std::byte* src = in.data();
  const auto stride = static_cast<std::size_t>(stride_);
  for (std::size_t ly = 0; ly < n; ++ly) {
    std::memcpy(dst + ly * stride, src + ly * sizeof(double), sizeof(double));
  }
}

FTR_HOT void LocalField::fill_halo_row(int ly, const std::vector<std::byte>& in) {
  const std::size_t n =
      std::min(static_cast<std::size_t>(block_.width()), in.size() / sizeof(double));
  if (n > 0) std::memcpy(&at(0, ly), in.data(), n * sizeof(double));
}

FTR_HOT void LocalField::wrap_x() {
  const int w = block_.width();
  for (int ly = 0; ly < block_.height(); ++ly) {
    at(-1, ly) = at(w - 1, ly);
    at(w, ly) = at(0, ly);
  }
}

FTR_HOT void LocalField::wrap_y() {
  const auto row_bytes = static_cast<std::size_t>(block_.width()) * sizeof(double);
  std::memcpy(&at(0, -1), &at(0, block_.height() - 1), row_bytes);
  std::memcpy(&at(0, block_.height()), &at(0, 0), row_bytes);
}

}  // namespace ftr::grid
