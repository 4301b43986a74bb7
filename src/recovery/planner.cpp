#include "recovery/planner.hpp"

#include <algorithm>
#include <set>

#include "combination/coefficients.hpp"
#include "recovery/replication.hpp"

namespace ftr::rec {

using ftr::comb::GridRole;
using ftr::grid::Level;

const char* action_name(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::RcCopy: return "rc_copy";
    case RecoveryAction::RcResample: return "rc_resample";
    case RecoveryAction::Buddy: return "buddy";
    case RecoveryAction::Disk: return "disk";
    case RecoveryAction::Gcp: return "gcp";
    case RecoveryAction::Idle: return "idle";
  }
  return "?";
}

int RecoveryPlan::count(RecoveryAction a) const {
  int n = 0;
  for (const PlanEntry& e : entries) {
    if (e.action == a) ++n;
  }
  return n;
}

RecoveryPlan plan_recovery(const std::vector<ftr::comb::GridSlot>& slots,
                           const ftr::comb::Scheme& scheme, int gcp_max_depth,
                           PlannerMode mode, const std::vector<GridFacts>& lost,
                           const std::vector<int>& already_lost) {
  std::vector<GridFacts> facts = lost;
  std::sort(facts.begin(), facts.end(),
            [](const GridFacts& a, const GridFacts& b) { return a.id < b.id; });

  // Everything lost right now blocks RC partner use and joins the GCP set.
  std::set<int> lost_set(already_lost.begin(), already_lost.end());
  for (const GridFacts& f : facts) lost_set.insert(f.id);

  // Overlap plans run on the partial repaired world: RC partners live on
  // the continuation side and are unreachable, so only the staged buddy
  // replicas and the (shared) disk store are on the menu.
  const bool allow_rc = mode == PlannerMode::Lattice || mode == PlannerMode::ForceRc;
  const bool allow_buddy = mode == PlannerMode::Lattice || mode == PlannerMode::Overlap;
  const bool allow_disk = mode == PlannerMode::Lattice || mode == PlannerMode::ForceCr ||
                          mode == PlannerMode::Overlap;

  RecoveryPlan plan;
  std::vector<size_t> gcp_entries;  // indices into plan.entries
  for (const GridFacts& f : facts) {
    PlanEntry e;
    e.grid = f.id;
    const auto partner = rc_partner(slots, f.id);
    const bool rc_feasible = f.group_complete && partner.has_value() &&
                             lost_set.count(*partner) == 0;
    if (allow_rc && rc_feasible) {
      e.action = slots[static_cast<size_t>(f.id)].role == GridRole::LowerDiagonal
                     ? RecoveryAction::RcResample
                     : RecoveryAction::RcCopy;
      e.partner = *partner;
    } else if (allow_buddy && f.group_complete && f.buddy_available && f.buddy_step >= 0) {
      e.action = RecoveryAction::Buddy;
      e.step = f.buddy_step;
    } else if (allow_disk && f.group_complete) {
      // Disk is feasible for any complete group: CR rollback falls back to
      // a full recompute from the initial condition when no (consistent)
      // checkpoint generation exists.
      e.action = RecoveryAction::Disk;
    } else {
      e.action = RecoveryAction::Gcp;
      gcp_entries.push_back(plan.entries.size());
    }
    plan.entries.push_back(e);
  }

  // GCP feasibility is a *joint* property of everything left unrestored:
  // the combination will solve one coefficient problem over the whole set.
  if (!gcp_entries.empty()) {
    std::set<int> gcp_ids(already_lost.begin(), already_lost.end());
    for (size_t i : gcp_entries) gcp_ids.insert(plan.entries[i].grid);
    std::vector<Level> levels;
    for (int id : gcp_ids) {
      if (id >= 0 && id < static_cast<int>(slots.size())) {
        levels.push_back(slots[static_cast<size_t>(id)].level);
      }
    }
    const ftr::comb::CoefficientProblem gcp(scheme, gcp_max_depth);
    if (!gcp.solve(levels).has_value()) {
      plan.gcp_feasible = false;
      for (size_t i : gcp_entries) plan.entries[i].action = RecoveryAction::Idle;
    }
  }
  return plan;
}

}  // namespace ftr::rec
