#pragma once
// The unified recovery planner.
//
// The paper treats CR, RC and AC as three separate modes, each with a hard
// failure condition: RC aborts when a grid and its partner die together,
// CR needs a (shared) checkpoint store, AC gives up when the GCP has no
// solution over the survivors.  The planner replaces the per-technique
// switch with an explicit *preference lattice*, evaluated per lost grid
// from cheapest to most expensive:
//
//     RC copy -> RC resample -> buddy snapshot -> disk checkpoint
//              -> AC/GCP re-combination -> shrink-mode idling
//
// so any loss pattern recoverable by *any* technique is recovered by the
// cheapest feasible one, and unrecoverable patterns degrade (the grid is
// excluded from the combination) instead of aborting.
//
// plan_recovery() is a pure function of the loss facts — no communication —
// so once the facts are agreed (the application gathers buddy availability
// to world rank 0 and broadcasts the plan), every rank executes the same
// plan deterministically.  Legacy per-technique behaviour is the Force*
// modes, whose plans depend only on locally-known facts and need no
// negotiation round.

#include <vector>

#include "combination/index_set.hpp"

namespace ftr::rec {

/// One rung of the preference lattice, cheapest first.
enum class RecoveryAction {
  RcCopy = 0,    ///< exact copy from the RC partner (duplicate pair)
  RcResample,    ///< approximate restriction from the finer diagonal
  Buddy,         ///< fetch the in-memory buddy snapshot, recompute the tail
  Disk,          ///< CR rollback: checkpoint read (or initial condition) + recompute
  Gcp,           ///< no data recovery; GCP coefficients absorb the grid
  Idle           ///< not even the GCP has a solution; the grid idles
};
const char* action_name(RecoveryAction a);

/// Which rungs of the lattice a plan may use.  Lattice = all of them;
/// the Force* modes reproduce the paper's single-technique behaviour
/// (with GCP/idle as the degrade path instead of a crash).  Overlap is the
/// background-repair restriction: the repair group restores its grids on
/// the partial repaired world, where the RC partners (continuation grids)
/// are unreachable — only the staged buddy replicas and the disk store are
/// local to the repair side, so the lattice shrinks to Buddy -> Disk.
enum class PlannerMode { Lattice, ForceCr, ForceRc, ForceAc, Overlap };

/// Per-lost-grid facts the planner decides from.
struct GridFacts {
  int id = -1;
  /// The grid's process group is complete (repaired or untouched).  False
  /// in shrink-mode degradation — there is nobody to restore data onto, so
  /// only Gcp/Idle apply.
  bool group_complete = true;
  /// Every member's block is held by a live buddy at a common generation.
  bool buddy_available = false;
  long buddy_step = -1;  ///< the common buddy generation (valid when available)
};

struct PlanEntry {
  int grid = -1;
  RecoveryAction action = RecoveryAction::Idle;
  long step = -1;    ///< Buddy: generation to restore
  int partner = -1;  ///< RcCopy/RcResample: source grid
};

struct RecoveryPlan {
  std::vector<PlanEntry> entries;  ///< one per lost grid, ascending grid id
  /// False when the Gcp remainder had no coefficient solution and was
  /// demoted to Idle (the run still completes; the combination may not).
  bool gcp_feasible = true;

  [[nodiscard]] int count(RecoveryAction a) const;
  /// True when every lost grid gets its data back (no Gcp/Idle entries).
  [[nodiscard]] bool fully_restored() const {
    return count(RecoveryAction::Gcp) == 0 && count(RecoveryAction::Idle) == 0;
  }
};

/// Compute the plan.  `lost` carries one fact record per lost grid;
/// `already_lost` are grids from earlier repairs that were never restored
/// (they stay lost, block RC partner use, and join the GCP feasibility
/// check).  `gcp_max_depth` must match the depth the combination will use.
/// Never throws on any loss pattern: infeasibility degrades to Gcp/Idle.
RecoveryPlan plan_recovery(const std::vector<ftr::comb::GridSlot>& slots,
                           const ftr::comb::Scheme& scheme, int gcp_max_depth,
                           PlannerMode mode, const std::vector<GridFacts>& lost,
                           const std::vector<int>& already_lost = {});

}  // namespace ftr::rec
