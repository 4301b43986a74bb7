#pragma once
// The model problem of the paper: the scalar advection equation in two
// spatial dimensions,
//
//     du/dt + a_x du/dx + a_y du/dy = 0   on the periodic unit square,
//
// with a smooth periodic initial condition.  The exact solution is the
// translated initial condition, which the paper uses as the reference for
// the approximation-error study (Fig. 10).

#include <cmath>
#include <cstddef>
#include <vector>

#include "grid/grid2d.hpp"

namespace ftr::advection {

struct Problem {
  double ax = 1.0;   ///< advection velocity, x component
  double ay = 0.5;   ///< advection velocity, y component

  /// Smooth periodic initial condition: the product of its x and y factors.
  [[nodiscard]] double initial(double x, double y) const { return initial_x(x) * initial_y(y); }
  [[nodiscard]] double initial_x(double x) const { return std::sin(kTwoPi * x); }
  [[nodiscard]] double initial_y(double y) const { return std::sin(kTwoPi * y); }

  /// Exact solution at time t (translation of the initial condition): the
  /// product of its x and y factors.
  [[nodiscard]] double exact(double x, double y, double t) const {
    return exact_x(x, t) * exact_y(y, t);
  }
  [[nodiscard]] double exact_x(double x, double t) const {
    return std::sin(kTwoPi * wrap(x - ax * t));
  }
  [[nodiscard]] double exact_y(double y, double t) const {
    return std::sin(kTwoPi * wrap(y - ay * t));
  }

 private:
  static constexpr double kTwoPi = 6.283185307179586476925286766559;
  static double wrap(double v) { return v - std::floor(v); }
};

/// Average l1 error of `g` against p.exact(x, y, t): grid::l1_error's value
/// for that reference, bit for bit (the same terms summed in the same
/// order), with one exact_x per column and one exact_y per row instead of
/// two sines per point.
[[nodiscard]] inline double exact_l1_error(const ftr::grid::Grid2D& g, const Problem& p,
                                           double t) {
  std::vector<double> fx(static_cast<std::size_t>(g.nx()));
  for (int ix = 0; ix < g.nx(); ++ix) fx[static_cast<std::size_t>(ix)] = p.exact_x(g.x_of(ix), t);
  double sum = 0.0;
  for (int iy = 0; iy < g.ny(); ++iy) {
    const double fy = p.exact_y(g.y_of(iy), t);
    for (int ix = 0; ix < g.nx(); ++ix) {
      sum += std::abs(g.at(ix, iy) - fx[static_cast<std::size_t>(ix)] * fy);
    }
  }
  return sum / static_cast<double>(g.size());
}

/// The paper uses one fixed timestep across all sub-grids for stability:
/// the step must satisfy the CFL condition of the *finest* resolution that
/// occurs in any grid of the combination, which for full grid size n is
/// spacing 2^-n in each direction.
[[nodiscard]] inline double stable_timestep(int finest_level, const Problem& p,
                                            double cfl = 0.9) {
  const double h = 1.0 / static_cast<double>(1 << finest_level);
  const double amax = std::max(std::abs(p.ax), std::abs(p.ay));
  return amax > 0 ? cfl * h / amax : cfl * h;
}

}  // namespace ftr::advection
