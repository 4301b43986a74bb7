#pragma once
// Failure injection.
//
// The paper injects faults with a generator that aborts random MPI
// processes via kill(getpid(), SIGKILL) at some point before the
// combination of sub-grid solutions ("real" failures: Figs. 8, 11,
// Table I), and separately studies "simulated" failures where a grid's
// data is simply treated as lost at recovery time (Figs. 9, 10).
// FailurePlan carries both forms; the application consults it during the
// timestep loop (real) and at the recovery stage (simulated).
//
// Constraints honored, as in the paper: world rank 0 never fails, and for
// Resampling & Copying a grid and its recovery partner are never lost
// together.

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/layout.hpp"

namespace ftr::core {

struct FailurePlan {
  /// Real failures: world rank -> timestep at which the process self-kills
  /// (the paper's SIGKILL before combination).
  std::map<int, long> kill_at_step;
  /// Whole-node failures (the paper's future-work scenario): host index ->
  /// timestep.  Every process on the host dies; replacements are respawned
  /// together on a spare node.  Host 0 (which carries rank 0) must not fail.
  std::map<int, long> fail_host_at_step;
  /// Simulated failures: grid ids whose data is treated as lost.
  std::vector<int> simulated_lost_grids;

  [[nodiscard]] bool empty() const {
    return kill_at_step.empty() && fail_host_at_step.empty() &&
           simulated_lost_grids.empty();
  }
  [[nodiscard]] std::vector<int> real_victim_ranks() const {
    std::vector<int> out;
    out.reserve(kill_at_step.size());
    for (const auto& [r, s] : kill_at_step) out.push_back(r);
    return out;
  }
};

/// Draw `count` distinct victim ranks (never rank 0) and a random kill step
/// in [1, max_step).  For RC layouts the draw is repeated until the lost
/// grids satisfy the partner constraint.
FailurePlan random_real_failures(const Layout& layout, int count, long max_step,
                                 ftr::Xoshiro256& rng);

/// Draw `count` distinct lost grid ids among the technique's recoverable
/// grids (combination layers and duplicates; AC's extra layers are kept as
/// survivors, matching the paper's experiments).
FailurePlan random_simulated_losses(const Layout& layout, int count, ftr::Xoshiro256& rng);

// --- failure inter-arrival model --------------------------------------------
//
// random_real_failures() draws one uniform kill step, which is fine for the
// paper's single-failure experiments but cannot express failure *timing*
// structure.  The arrival model draws inter-arrival gaps instead:
// exponential gaps reproduce the classic memoryless MTBF process, Weibull
// gaps with shape < 1 produce the bursty, clustered arrivals observed in
// real HPC failure logs — exactly the regime where a second failure lands
// while a background repair is still in flight (the overlapped-recovery
// stress case).

enum class FailureDist {
  Exponential,  ///< gap = -scale * ln(u); scale is the MTBF
  Weibull,      ///< gap = scale * (-ln(u))^(1/shape)
};

struct ArrivalModel {
  FailureDist dist = FailureDist::Exponential;
  double scale = 8.0;  ///< exp: mean gap (MTBF); weibull: scale lambda
  double shape = 1.0;  ///< weibull shape k (< 1 bursty, 1 = exp, > 1 aging)
};

/// One inter-arrival gap in timesteps (continuous; callers quantize).
[[nodiscard]] double draw_interarrival(const ArrivalModel& m, ftr::Xoshiro256& rng);

/// Real-failure plan with victim draw as random_real_failures() (distinct,
/// never rank 0, RC partner constraint) but kill steps from cumulative
/// inter-arrival gaps: victim i dies at round(sum of the first i+1 gaps),
/// clamped to [1, max_step).  Bursty models thus produce victims dying in
/// adjacent steps — several failures inside one repair window.
FailurePlan scheduled_real_failures(const Layout& layout, int count, long max_step,
                                    const ArrivalModel& model, ftr::Xoshiro256& rng);

}  // namespace ftr::core
