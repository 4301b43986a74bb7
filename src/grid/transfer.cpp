#include "grid/transfer.hpp"
#include "common/annotations.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace ftr::grid {

namespace {

// Dyadic levels above ~26 would need gigabytes per axis row; the assert
// bounds the packed cache key as well.
constexpr int kMaxLevel = 26;

std::unique_ptr<AxisMap> build_axis_map(int src_level, int dst_level) {
  auto m = std::make_unique<AxisMap>();
  m->src_level = src_level;
  m->dst_level = dst_level;
  m->src_n = (1 << src_level) + 1;
  m->dst_n = (1 << dst_level) + 1;
  // Replay Grid2D::sample()'s exact arithmetic so indices and weights are
  // bitwise identical to the legacy per-point path.
  const double src_h = 1.0 / static_cast<double>(m->src_n - 1);
  const double dst_h = 1.0 / static_cast<double>(m->dst_n - 1);
  m->i0.resize(static_cast<size_t>(m->dst_n));
  m->w.resize(static_cast<size_t>(m->dst_n));
  bool injective = true;
  for (int i = 0; i < m->dst_n; ++i) {
    const double x = std::clamp(static_cast<double>(i) * dst_h, 0.0, 1.0);
    const double f = x / src_h;
    int j = std::min(static_cast<int>(f), m->src_n - 2);
    const double t = f - static_cast<double>(j);
    m->i0[static_cast<size_t>(i)] = j;
    m->w[static_cast<size_t>(i)] = t;
    injective = injective && (t == 0.0 || t == 1.0);
  }
  m->injective = injective;
  if (injective) {
    m->gather.resize(static_cast<size_t>(m->dst_n));
    for (int i = 0; i < m->dst_n; ++i) {
      m->gather[static_cast<size_t>(i)] =
          m->i0[static_cast<size_t>(i)] + (m->w[static_cast<size_t>(i)] == 1.0 ? 1 : 0);
    }
  }
  return m;
}

struct Cache {
  std::mutex mu;
  std::unordered_map<std::uint32_t, std::unique_ptr<AxisMap>> maps;
  AxisMapCacheStats stats;
};

Cache& cache() {
  static Cache c;
  return c;
}

/// Blend the two source rows feeding destination row `iy` into a single
/// contiguous row.  Returns a pointer directly into the source grid when the
/// y weight is exactly 0 or 1 (always the case for refinement maps), so the
/// scratch row is only touched on genuinely fractional rows.
FTR_HOT const double* blend_rows(const Grid2D& src, const AxisMap& ym, int iy,
                         std::vector<double>& scratch) {
  const int snx = src.nx();
  const double* r0 = src.data().data() +
                     static_cast<size_t>(ym.i0[static_cast<size_t>(iy)]) *
                         static_cast<size_t>(snx);
  const double wy = ym.w[static_cast<size_t>(iy)];
  if (wy == 0.0) return r0;
  const double* r1 = r0 + snx;
  if (wy == 1.0) return r1;
  // ftlint:allow(FTL003 warm-up growth of persistent thread_local scratch)
  if (scratch.size() < static_cast<size_t>(snx)) scratch.resize(static_cast<size_t>(snx));
  double* s = scratch.data();
  const double a = 1.0 - wy;
  for (int j = 0; j < snx; ++j) s[j] = a * r0[j] + wy * r1[j];
  return scratch.data();
}

FTR_HOT void gather_row(const double* __restrict s, const AxisMap& xm, double* __restrict out) {
  const int n = xm.dst_n;
  if (xm.injective) {
    if (xm.src_level == xm.dst_level) {
      std::copy(s, s + n, out);
      return;
    }
    const int* g = xm.gather.data();
    for (int i = 0; i < n; ++i) out[i] = s[g[i]];
    return;
  }
  const int* i0 = xm.i0.data();
  const double* w = xm.w.data();
  for (int i = 0; i < n; ++i) {
    const double t = w[i];
    out[i] = (1.0 - t) * s[i0[i]] + t * s[i0[i] + 1];
  }
}

FTR_HOT void gather_row_accumulate(const double* __restrict s, const AxisMap& xm, double c,
                           double* __restrict out) {
  const int n = xm.dst_n;
  if (xm.injective) {
    const int* g = xm.gather.data();
    for (int i = 0; i < n; ++i) out[i] += c * s[g[i]];
    return;
  }
  const int* i0 = xm.i0.data();
  const double* w = xm.w.data();
  for (int i = 0; i < n; ++i) {
    const double t = w[i];
    out[i] += c * ((1.0 - t) * s[i0[i]] + t * s[i0[i] + 1]);
  }
}

/// Per-worker blend scratch: a transfer never suspends its rank, so the
/// ranks that share a worker thread never share it midway, and the capacity
/// persists across calls (allocation-free after warm-up).
std::vector<double>& blend_scratch() {
  FTR_PER_RANK("per-worker blend scratch; safe because a transfer never suspends its rank")
  thread_local std::vector<double> s;
  return s;
}

}  // namespace

const AxisMap& axis_map(int src_level, int dst_level) {
  assert(src_level >= 0 && src_level <= kMaxLevel);
  assert(dst_level >= 0 && dst_level <= kMaxLevel);
  const auto key = static_cast<std::uint32_t>((src_level << 5) | dst_level);
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.maps.find(key);
  if (it != c.maps.end()) {
    ++c.stats.hits;
    return *it->second;
  }
  ++c.stats.misses;
  auto inserted = c.maps.emplace(key, build_axis_map(src_level, dst_level));
  return *inserted.first->second;
}

AxisMapCacheStats axis_map_cache_stats() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  AxisMapCacheStats s = c.stats;
  s.entries = c.maps.size();
  return s;
}

void axis_map_cache_clear() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.maps.clear();
  c.stats = AxisMapCacheStats{};
}

void transfer(const Grid2D& src, Grid2D& dst) {
  const AxisMap& xm = axis_map(src.level().x, dst.level().x);
  const AxisMap& ym = axis_map(src.level().y, dst.level().y);
  assert(xm.src_n == src.nx() && ym.src_n == src.ny());
  assert(xm.dst_n == dst.nx() && ym.dst_n == dst.ny());
  auto& scratch = blend_scratch();
  double* out = dst.data().data();
  const int dnx = dst.nx();
  for (int iy = 0; iy < dst.ny(); ++iy, out += dnx) {
    gather_row(blend_rows(src, ym, iy, scratch), xm, out);
  }
}

void transfer_accumulate(const Grid2D& src, double coefficient, Grid2D& dst) {
  if (coefficient == 0.0) return;
  const AxisMap& xm = axis_map(src.level().x, dst.level().x);
  const AxisMap& ym = axis_map(src.level().y, dst.level().y);
  assert(xm.src_n == src.nx() && ym.src_n == src.ny());
  assert(xm.dst_n == dst.nx() && ym.dst_n == dst.ny());
  auto& scratch = blend_scratch();
  double* out = dst.data().data();
  const int dnx = dst.nx();
  for (int iy = 0; iy < dst.ny(); ++iy, out += dnx) {
    gather_row_accumulate(blend_rows(src, ym, iy, scratch), xm, coefficient, out);
  }
}

void transfer_combine(const Grid2D* const* srcs, const double* coeffs, std::size_t count,
                      Grid2D& dst) {
  struct Part {
    const Grid2D* g;
    double c;
    const AxisMap* xm;
    const AxisMap* ym;
  };
  // Resolve the axis maps once per component (one cache lookup each), and
  // drop zero-coefficient components so the summation order over k matches
  // sequential transfer_accumulate() exactly.
  std::vector<Part> parts;
  parts.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    assert(srcs[k] != nullptr);
    if (coeffs[k] == 0.0) continue;
    const AxisMap& xm = axis_map(srcs[k]->level().x, dst.level().x);
    const AxisMap& ym = axis_map(srcs[k]->level().y, dst.level().y);
    assert(xm.src_n == srcs[k]->nx() && ym.src_n == srcs[k]->ny());
    parts.push_back(Part{srcs[k], coeffs[k], &xm, &ym});
  }
  auto& scratch = blend_scratch();
  double* out = dst.data().data();
  const int dnx = dst.nx();
  for (int iy = 0; iy < dst.ny(); ++iy, out += dnx) {
    std::fill(out, out + dnx, 0.0);
    for (const Part& p : parts) {
      gather_row_accumulate(blend_rows(*p.g, *p.ym, iy, scratch), *p.xm, p.c, out);
    }
  }
}

}  // namespace ftr::grid
