#pragma once
// Lax-Wendroff scheme for 2D advection, dimensionally split.
//
// For constant-velocity advection the x- and y-transport operators commute,
// so Godunov splitting L_x L_y incurs no splitting error in the operator
// sense and each sweep is the classical second-order 1D Lax-Wendroff update
//
//   u_i^{n+1} = u_i - (c/2)(u_{i+1} - u_{i-1}) + (c^2/2)(u_{i+1} - 2 u_i + u_{i-1}),
//
// with Courant number c = a dt / h, stable for |c| <= 1.  The split form
// needs only one ghost point per direction, which keeps the parallel halo
// exchange one column/row wide.

#include <span>

#include "grid/decomposition.hpp"
#include "common/annotations.hpp"
#include "grid/grid2d.hpp"

namespace ftr::advection {

/// One 1D Lax-Wendroff update, written to `out`.  `V` is double, or a
/// GCC/Clang vector of doubles when a sweep updates several cells at once:
/// the operations and their order are the same either way, so every lane
/// rounds exactly like the scalar update (src/ is built with
/// -ffp-contract=off, so no width fuses a multiply and an add).  The result
/// leaves through a reference because the ABI of a function that returns a
/// 32- or 64-byte vector depends on the instruction set it is compiled for;
/// always inlined, a vector instantiation runs in its caller's.
template <typename V>
FTR_HOT [[gnu::always_inline]] inline void lw_update(V& out, const V& west, const V& center,
                                                     const V& east, double c) {
  out = center - 0.5 * c * (east - west) + 0.5 * c * c * (east - 2.0 * center + west);
}

/// The scalar update, by value.
FTR_HOT [[nodiscard]] inline double lw_update(double west, double center, double east, double c) {
  double out;
  lw_update(out, west, center, east, c);
  return out;
}

/// In-place x sweep over the interior of a halo'd local field (halos must
/// be current), at the widest vector width this CPU runs; bit-identical to
/// sweep_x_serial.
void sweep_x(ftr::grid::LocalField& f, double courant_x);

/// In-place y sweep over the interior of a halo'd local field, at the
/// widest vector width this CPU runs; bit-identical to sweep_y_serial.
void sweep_y(ftr::grid::LocalField& f, double courant_y);

/// Serial sweeps over a full periodic grid (unique points 0 .. 2^l - 1; the
/// duplicate last row/column is refreshed afterwards).  Scalar, one cell at
/// a time: the reference the parallel sweeps are tested against.
void sweep_x_serial(ftr::grid::Grid2D& g, double courant_x);
void sweep_y_serial(ftr::grid::Grid2D& g, double courant_y);

namespace detail {

/// Lane counts of the LocalField sweep kernels this CPU runs, narrowest
/// first: 2 everywhere, then 4 with AVX2 and 8 with AVX-512F on x86-64, as
/// CPUID reports them once per process.  sweep_x/sweep_y run the last.
[[nodiscard]] std::span<const int> sweep_lanes();

/// The LocalField sweeps at `lanes` lanes, one of sweep_lanes().
void sweep_x_lanes(int lanes, ftr::grid::LocalField& f, double courant_x);
void sweep_y_lanes(int lanes, ftr::grid::LocalField& f, double courant_y);

}  // namespace detail

}  // namespace ftr::advection
