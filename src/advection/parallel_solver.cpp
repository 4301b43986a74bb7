#include "advection/parallel_solver.hpp"

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
  fill_local([this](double x, double y) { return problem_.initial(x, y); });
}

void ParallelSolver::fill_local(const std::function<double(double, double)>& f) {
  const Block& b = field_.block();
  const double hx = 1.0 / static_cast<double>(decomp_.unique_nx());
  const double hy = 1.0 / static_cast<double>(decomp_.unique_ny());
  for (int ly = 0; ly < b.height(); ++ly) {
    for (int lx = 0; lx < b.width(); ++lx) {
      field_.at(lx, ly) = f(static_cast<double>(b.x0 + lx) * hx,
                            static_cast<double>(b.y0 + ly) * hy);
    }
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
  if (comm_.rank() == 0) {
    *out = Grid2D(decomp_.level());
    field_.store_to(*out);  // own block first
    for (int r = 1; r < comm_.size(); ++r) {
      const Block b = decomp_.block(r);
      std::vector<double> buf(static_cast<size_t>(b.cells()));
      const int rc = ftmpi::recv(buf.data(), static_cast<int>(buf.size()), r, kTagGather,
                                 comm_);
      if (rc != ftmpi::kSuccess) return rc;
      size_t k = 0;
      for (int ly = 0; ly < b.height(); ++ly) {
        for (int lx = 0; lx < b.width(); ++lx) out->at(b.x0 + lx, b.y0 + ly) = buf[k++];
      }
    }
    out->enforce_periodicity();
    return ftmpi::kSuccess;
  }
  if (out != nullptr) *out = Grid2D{};
  const std::vector<double> interior = field_.pack_interior();
  return ftmpi::send(interior.data(), static_cast<int>(interior.size()), 0, kTagGather,
                     comm_);
}

int ParallelSolver::scatter_full(const Grid2D& full_at_root) {
  if (comm_.rank() == 0) {
    for (int r = 1; r < comm_.size(); ++r) {
      const Block b = decomp_.block(r);
      std::vector<double> buf(static_cast<size_t>(b.cells()));
      size_t k = 0;
      for (int ly = 0; ly < b.height(); ++ly) {
        for (int lx = 0; lx < b.width(); ++lx) buf[k++] = full_at_root.at(b.x0 + lx, b.y0 + ly);
      }
      const int rc = ftmpi::send(buf.data(), static_cast<int>(buf.size()), r, kTagScatter,
                                 comm_);
      if (rc != ftmpi::kSuccess) return rc;
    }
    field_.load_from(full_at_root);
    return ftmpi::kSuccess;
  }
  std::vector<double> buf(static_cast<size_t>(field_.block().cells()));
  const int rc = ftmpi::recv(buf.data(), static_cast<int>(buf.size()), 0, kTagScatter, comm_);
  if (rc != ftmpi::kSuccess) return rc;
  field_.unpack_interior(buf);
  return ftmpi::kSuccess;
}

}  // namespace ftr::advection
