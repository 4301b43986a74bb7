#pragma once
// Serial reference solver: one sub-grid, no parallelism.  Used by unit
// tests (convergence), by the combination-technique reference path, and by
// the checkpoint-recovery recomputation when a grid is recovered serially.

#include "advection/lax_wendroff.hpp"
#include "advection/problem.hpp"
#include "grid/grid2d.hpp"

namespace ftr::advection {

class SerialSolver {
 public:
  SerialSolver(ftr::grid::Level level, Problem problem, double dt)
      : problem_(problem), dt_(dt), grid_(level) {
    grid_.fill([this](double x, double y) { return problem_.initial(x, y); });
  }

  /// Resume from existing data at a given step count (checkpoint restart).
  SerialSolver(ftr::grid::Grid2D grid, Problem problem, double dt, long step)
      : problem_(problem), dt_(dt), grid_(std::move(grid)), step_(step) {}

  void step() {
    sweep_x_serial(grid_, problem_.ax * dt_ / grid_.hx());
    sweep_y_serial(grid_, problem_.ay * dt_ / grid_.hy());
    ++step_;
  }

  void run(long steps) {
    for (long s = 0; s < steps; ++s) step();
  }

  [[nodiscard]] double time() const { return static_cast<double>(step_) * dt_; }
  [[nodiscard]] long steps_done() const { return step_; }
  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const ftr::grid::Grid2D& grid() const { return grid_; }
  [[nodiscard]] ftr::grid::Grid2D& grid() { return grid_; }
  [[nodiscard]] const Problem& problem() const { return problem_; }

  /// Average l1 error against the exact solution at the current time.
  [[nodiscard]] double l1_error() const { return exact_l1_error(grid_, problem_, time()); }

 private:
  Problem problem_;
  double dt_ = 0.0;
  ftr::grid::Grid2D grid_;
  long step_ = 0;
};

}  // namespace ftr::advection
