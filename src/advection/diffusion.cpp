#include "advection/diffusion.hpp"

#include <vector>

#include "common/annotations.hpp"

namespace ftr::advection {

using ftr::grid::Grid2D;
using ftr::grid::LocalField;

void ftcs_step(LocalField& f, double rx, double ry) {
  const auto& b = f.block();
  // Per-thread persistent scratch: each simulated rank steps on its own
  // thread, so the buffer is reused allocation-free across steps.
  FTR_PER_RANK("per-rank FTCS scratch; move into a ProcessState-owned scratch arena when ranks become fibers")
  thread_local std::vector<double> next;
  next.resize(static_cast<size_t>(b.cells()));
  size_t k = 0;
  for (int ly = 0; ly < b.height(); ++ly) {
    for (int lx = 0; lx < b.width(); ++lx) {
      const double u = f.at(lx, ly);
      next[k++] = u + rx * (f.at(lx + 1, ly) - 2.0 * u + f.at(lx - 1, ly)) +
                  ry * (f.at(lx, ly + 1) - 2.0 * u + f.at(lx, ly - 1));
    }
  }
  k = 0;
  for (int ly = 0; ly < b.height(); ++ly) {
    for (int lx = 0; lx < b.width(); ++lx) f.at(lx, ly) = next[k++];
  }
}

SerialDiffusionSolver::SerialDiffusionSolver(ftr::grid::Level level, DiffusionProblem problem,
                                             double dt)
    : problem_(problem), dt_(dt), grid_(level) {
  grid_.fill([this](double x, double y) { return problem_.initial(x, y); });
}

void SerialDiffusionSolver::step() {
  // Serial path: wrap the grid into a single halo'd block, fill halos
  // periodically, and apply the same FTCS kernel as the parallel solver.
  const int nx = grid_.nx() - 1;
  const int ny = grid_.ny() - 1;
  LocalField f(ftr::grid::Block{0, nx, 0, ny});
  f.load_from(grid_);
  auto& hs = f.halo_scratch();
  f.pack_column_into(nx - 1, hs.send[0]);
  f.unpack_halo_column(-1, hs.send[0]);
  f.pack_column_into(0, hs.send[1]);
  f.unpack_halo_column(nx, hs.send[1]);
  f.pack_row_into(ny - 1, hs.send[0]);
  f.unpack_halo_row(-1, hs.send[0]);
  f.pack_row_into(0, hs.send[1]);
  f.unpack_halo_row(ny, hs.send[1]);
  const double rx = problem_.kappa * dt_ / (grid_.hx() * grid_.hx());
  const double ry = problem_.kappa * dt_ / (grid_.hy() * grid_.hy());
  ftcs_step(f, rx, ry);
  f.store_to(grid_);
  grid_.enforce_periodicity();
  ++step_;
}

double SerialDiffusionSolver::l1_error() const {
  const double t = time();
  return ftr::grid::l1_error(grid_,
                             [&](double x, double y) { return problem_.exact(x, y, t); });
}

ParallelDiffusionSolver::ParallelDiffusionSolver(ftr::grid::Level level,
                                                 DiffusionProblem problem, double dt,
                                                 ftmpi::Comm comm)
    : problem_(problem), dt_(dt), comm_(std::move(comm)), decomp_(level, comm_.size()),
      field_(decomp_.block(comm_.rank())) {
  const ftr::grid::Block& b = field_.block();
  const double hx = 1.0 / static_cast<double>(decomp_.unique_nx());
  const double hy = 1.0 / static_cast<double>(decomp_.unique_ny());
  for (int ly = 0; ly < b.height(); ++ly) {
    for (int lx = 0; lx < b.width(); ++lx) {
      field_.at(lx, ly) = problem_.initial(static_cast<double>(b.x0 + lx) * hx,
                                           static_cast<double>(b.y0 + ly) * hy);
    }
  }
}

int ParallelDiffusionSolver::step() {
  // The 5-point stencil needs both halo pairs before one update.
  int rc = ftr::grid::exchange_x(field_, decomp_, comm_);
  if (rc != ftmpi::kSuccess) return rc;
  rc = ftr::grid::exchange_y(field_, decomp_, comm_);
  if (rc != ftmpi::kSuccess) return rc;
  const double hx = 1.0 / static_cast<double>(decomp_.unique_nx());
  const double hy = 1.0 / static_cast<double>(decomp_.unique_ny());
  ftcs_step(field_, problem_.kappa * dt_ / (hx * hx), problem_.kappa * dt_ / (hy * hy));
  ftmpi::advance(static_cast<double>(field_.block().cells()) /
                 ftmpi::runtime().cost().cell_update_rate);
  ++step_;
  return ftmpi::kSuccess;
}

int ParallelDiffusionSolver::run(long steps) {
  for (long s = 0; s < steps; ++s) {
    const int rc = step();
    if (rc != ftmpi::kSuccess) return rc;
  }
  return ftmpi::kSuccess;
}

int ParallelDiffusionSolver::gather_full(Grid2D* out) {
  constexpr int kTag = 211;
  if (comm_.rank() == 0) {
    *out = Grid2D(decomp_.level());
    field_.store_to(*out);  // own block first
    for (int r = 1; r < comm_.size(); ++r) {
      const ftr::grid::Block b = decomp_.block(r);
      std::vector<double> buf(static_cast<size_t>(b.cells()));
      const int rc = ftmpi::recv(buf.data(), static_cast<int>(buf.size()), r, kTag, comm_);
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
  return ftmpi::send(interior.data(), static_cast<int>(interior.size()), 0, kTag, comm_);
}

}  // namespace ftr::advection
