#include "core/failure_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "recovery/replication.hpp"

namespace ftr::core {

using ftr::comb::GridRole;
using ftr::comb::Technique;

FailurePlan random_real_failures(const Layout& layout, int count, long max_step,
                                 ftr::Xoshiro256& rng) {
  assert(count < layout.total_procs);
  FailurePlan plan;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    plan.kill_at_step.clear();
    std::vector<int> victims;
    while (static_cast<int>(victims.size()) < count) {
      // Rank 0 is the controlling process and must not fail (paper Sec. III).
      const int r = 1 + static_cast<int>(rng.bounded(
                            static_cast<std::uint64_t>(layout.total_procs - 1)));
      if (std::find(victims.begin(), victims.end(), r) == victims.end()) {
        victims.push_back(r);
      }
    }
    if (layout.config.technique == Technique::ResamplingCopying) {
      const auto lost = layout.grids_of_ranks(victims);
      std::vector<int> lost_ids(lost.begin(), lost.end());
      if (!ftr::rec::rc_loss_allowed(layout.slots, lost_ids)) continue;
    }
    const long step = max_step <= 1 ? 1 : 1 + static_cast<long>(rng.bounded(
                                              static_cast<std::uint64_t>(max_step - 1)));
    for (int r : victims) plan.kill_at_step[r] = step;
    return plan;
  }
  return plan;  // unreachable at the paper's scales
}

FailurePlan random_simulated_losses(const Layout& layout, int count, ftr::Xoshiro256& rng) {
  // Eligible grids: the combination-layer grids and (for RC) duplicates.
  std::vector<int> eligible;
  for (const auto& slot : layout.slots) {
    if (slot.role != GridRole::ExtraLayer) eligible.push_back(slot.id);
  }
  assert(count <= static_cast<int>(eligible.size()));

  FailurePlan plan;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    plan.simulated_lost_grids.clear();
    std::vector<int> pool = eligible;
    for (int k = 0; k < count; ++k) {
      const size_t idx = rng.bounded(pool.size());
      plan.simulated_lost_grids.push_back(pool[idx]);
      pool.erase(pool.begin() + static_cast<long>(idx));
    }
    std::sort(plan.simulated_lost_grids.begin(), plan.simulated_lost_grids.end());
    if (layout.config.technique == Technique::ResamplingCopying &&
        !ftr::rec::rc_loss_allowed(layout.slots, plan.simulated_lost_grids)) {
      continue;
    }
    return plan;
  }
  return plan;
}

double draw_interarrival(const ArrivalModel& m, ftr::Xoshiro256& rng) {
  // Inverse-CDF sampling; 1 - uniform() keeps u in (0, 1] so ln is finite.
  const double u = 1.0 - rng.uniform();
  const double e = -std::log(u);
  if (m.dist == FailureDist::Weibull) return m.scale * std::pow(e, 1.0 / m.shape);
  return m.scale * e;
}

FailurePlan scheduled_real_failures(const Layout& layout, int count, long max_step,
                                    const ArrivalModel& model, ftr::Xoshiro256& rng) {
  assert(count < layout.total_procs);
  FailurePlan plan;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    plan.kill_at_step.clear();
    std::vector<int> victims;
    while (static_cast<int>(victims.size()) < count) {
      // Rank 0 is the controlling process and must not fail (paper Sec. III).
      const int r = 1 + static_cast<int>(rng.bounded(
                            static_cast<std::uint64_t>(layout.total_procs - 1)));
      if (std::find(victims.begin(), victims.end(), r) == victims.end()) {
        victims.push_back(r);
      }
    }
    if (layout.config.technique == Technique::ResamplingCopying) {
      const auto lost = layout.grids_of_ranks(victims);
      std::vector<int> lost_ids(lost.begin(), lost.end());
      if (!ftr::rec::rc_loss_allowed(layout.slots, lost_ids)) continue;
    }
    double arrival = 0.0;
    for (int v : victims) {
      arrival += draw_interarrival(model, rng);
      const long step =
          std::clamp(static_cast<long>(std::llround(arrival)), 1l, std::max(max_step - 1, 1l));
      plan.kill_at_step[v] = step;
    }
    return plan;
  }
  return plan;  // unreachable at the paper's scales
}

}  // namespace ftr::core
