#include "advection/parallel_solver.hpp"

#include <vector>

namespace ftr::advection {

using ftr::grid::Block;
using ftr::grid::Grid2D;

namespace {
constexpr int kTagGather = 201;
constexpr int kTagScatter = 202;
}  // namespace

ParallelSolver::ParallelSolver(ftr::grid::Level level, Problem problem, double dt,
                               ftmpi::Comm comm)
    : problem_(problem), dt_(dt), comm_(std::move(comm)), decomp_(level, comm_.size()),
      field_(decomp_.block(comm_.rank())) {
  reset_to_initial();
}

void ParallelSolver::reset_to_initial() {
  const Block& b = field_.block();
  const double hx = 1.0 / static_cast<double>(decomp_.unique_nx());
  const double hy = 1.0 / static_cast<double>(decomp_.unique_ny());
  std::vector<double> fx(static_cast<size_t>(b.width()));
  for (int lx = 0; lx < b.width(); ++lx) {
    fx[static_cast<size_t>(lx)] = problem_.initial_x(static_cast<double>(b.x0 + lx) * hx);
  }
  for (int ly = 0; ly < b.height(); ++ly) {
    const double fy = problem_.initial_y(static_cast<double>(b.y0 + ly) * hy);
    double* row = &field_.at(0, ly);
    for (int lx = 0; lx < b.width(); ++lx) row[lx] = fx[static_cast<size_t>(lx)] * fy;
  }
}

int ParallelSolver::step() {
  const double hx = 1.0 / static_cast<double>(decomp_.unique_nx());
  const double hy = 1.0 / static_cast<double>(decomp_.unique_ny());
  int rc = ftr::grid::exchange_x(field_, decomp_, comm_);
  if (rc != ftmpi::kSuccess) return rc;
  torn_ = true;  // the x sweep mutates the field; until the step completes,
                 // an error leaves a half-updated state behind
  sweep_x(field_, problem_.ax * dt_ / hx);
  rc = ftr::grid::exchange_y(field_, decomp_, comm_);
  if (rc != ftmpi::kSuccess) return rc;
  sweep_y(field_, problem_.ay * dt_ / hy);
  // Charge the modeled compute cost: two sweeps over the owned cells.
  ftmpi::advance(2.0 * static_cast<double>(field_.block().cells()) /
                 ftmpi::runtime().cost().cell_update_rate);
  ++step_;
  torn_ = false;
  return ftmpi::kSuccess;
}

int ParallelSolver::run(long steps) {
  for (long s = 0; s < steps; ++s) {
    const int rc = step();
    if (rc != ftmpi::kSuccess) return rc;
  }
  return ftmpi::kSuccess;
}

int ParallelSolver::gather_full(Grid2D* out) {
  return ftr::grid::gather_blocks(field_, decomp_, comm_, kTagGather, out);
}

int ParallelSolver::scatter_full(const Grid2D& full_at_root) {
  return ftr::grid::scatter_blocks(field_, decomp_, comm_, kTagScatter, full_at_root);
}

}  // namespace ftr::advection
