#pragma once
// Parallel advection solver for one sub-grid over its process group.
//
// Each rank of the group owns one block of the decomposition; a timestep is
// halo-exchange + x sweep, halo-exchange + y sweep.  Every ftmpi call can
// report a process failure, which the fault-tolerant application layer
// (src/core) turns into the paper's detect-repair-recover sequence; the
// solver itself just surfaces the error code.

#include "advection/lax_wendroff.hpp"
#include "advection/problem.hpp"
#include "ftmpi/api.hpp"
#include "grid/decomposition.hpp"
#include "grid/grid2d.hpp"
#include "grid/halo.hpp"

namespace ftr::advection {

class ParallelSolver {
 public:
  /// Build the solver for `level` over the full group of `comm` and set the
  /// initial condition.
  ParallelSolver(ftr::grid::Level level, Problem problem, double dt, ftmpi::Comm comm);

  /// One split Lax-Wendroff timestep.  Returns the first ftmpi error code
  /// encountered; on error the step is torn (the field may hold partial
  /// updates) and the caller must recover the whole sub-grid, exactly the
  /// situation the paper's data-recovery techniques address.
  int step();

  /// Run `steps` timesteps; stops early on error.
  int run(long steps);

  [[nodiscard]] long steps_done() const { return step_; }
  void set_steps_done(long s) {
    step_ = s;
    torn_ = false;  // the caller just installed a consistent state
  }
  /// True when the last step() failed *after* the field was partially
  /// updated (the x sweep ran but the step did not complete).  steps_done()
  /// alone cannot distinguish this state from a clean inter-step boundary;
  /// recovery paths that want to keep stepping instead of rolling back must
  /// check it.  Cleared by set_steps_done() and by a completed step.
  [[nodiscard]] bool torn() const { return torn_; }
  [[nodiscard]] double time() const { return static_cast<double>(step_) * dt_; }
  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const ftmpi::Comm& comm() const { return comm_; }
  void set_comm(ftmpi::Comm comm) { comm_ = std::move(comm); }
  [[nodiscard]] const ftr::grid::Decomposition& decomposition() const { return decomp_; }
  [[nodiscard]] ftr::grid::LocalField& field() { return field_; }
  [[nodiscard]] const ftr::grid::LocalField& field() const { return field_; }
  [[nodiscard]] const Problem& problem() const { return problem_; }
  [[nodiscard]] ftr::grid::Level level() const { return decomp_.level(); }

  /// Assemble the full sub-grid at group rank 0 (others receive an empty
  /// grid).  Collective over the group.
  int gather_full(ftr::grid::Grid2D* out);

  /// Replace every rank's block from a full grid held at group rank 0
  /// (data recovery / checkpoint restart).  Collective over the group.
  int scatter_full(const ftr::grid::Grid2D& full_at_root);

  /// Reset the local block from an arbitrary function (used by restart).
  void fill_local(const std::function<double(double, double)>& f);

 private:
  Problem problem_;
  double dt_ = 0.0;
  ftmpi::Comm comm_;
  ftr::grid::Decomposition decomp_;
  ftr::grid::LocalField field_;
  long step_ = 0;
  bool torn_ = false;
};

}  // namespace ftr::advection
