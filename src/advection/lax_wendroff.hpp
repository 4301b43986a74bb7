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

#include "grid/decomposition.hpp"
#include "common/annotations.hpp"
#include "grid/grid2d.hpp"

namespace ftr::advection {

/// One 1D Lax-Wendroff update.  `V` is double, or a GCC/Clang vector of
/// doubles when a sweep updates two cells at once: the operations and their
/// order are the same either way, so every lane rounds exactly like the
/// scalar update.
template <typename V>
FTR_HOT [[nodiscard]] inline V lw_update(V west, V center, V east, double c) {
  return center - 0.5 * c * (east - west) + 0.5 * c * c * (east - 2.0 * center + west);
}

/// In-place x sweep over the interior of a halo'd local field (halos must
/// be current).  Two cells per step; bit-identical to sweep_x_serial.
void sweep_x(ftr::grid::LocalField& f, double courant_x);

/// In-place y sweep over the interior of a halo'd local field.  Two cells
/// per step; bit-identical to sweep_y_serial.
void sweep_y(ftr::grid::LocalField& f, double courant_y);

/// Serial sweeps over a full periodic grid (unique points 0 .. 2^l - 1; the
/// duplicate last row/column is refreshed afterwards).  Scalar, one cell at
/// a time: the reference the parallel sweeps are tested against.
void sweep_x_serial(ftr::grid::Grid2D& g, double courant_x);
void sweep_y_serial(ftr::grid::Grid2D& g, double courant_y);

}  // namespace ftr::advection
