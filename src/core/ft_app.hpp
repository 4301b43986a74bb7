#pragma once
// The fault-tolerant 2D advection application (the paper's Sec. II).
//
// Structure per run:
//   1. setup: split MPI_COMM_WORLD into one group per sub-grid (layout.hpp)
//      and build a ParallelSolver per group;
//   2. solve: all groups advance the same fixed timestep.  The run is
//      divided into C+1 intervals with a detection point after each, where
//      every rank probes for failures (communicatorReconstruct).
//      - CR: C is the configured checkpoint count; after each of the first
//        C detection points every rank writes a checkpoint — detection
//        happens *before* the write, as in the paper;
//      - RC/AC: the zero-checkpoint case — the solver runs straight through
//        and failure detection is tested once, at the end, before the
//        combination;
//   3. repair: on detection, the world is reconstructed (same size, same
//      ranks, children respawned on the original hosts), grid communicators
//      are rebuilt by the same comm_split, and the run state is broadcast
//      so respawned children fast-forward to the right program point;
//   4. recover: lost sub-grids are restored per technique (checkpoint
//      read + recompute / partner copy + resample / alternate-combination
//      sampling);
//   5. combine: grid roots ship their solutions to world rank 0, which
//      forms the combined solution (classic or GCP coefficients) and
//      reports its l1 error against the exact advection solution.
//
// Real failures (SIGKILL-style self-aborts at a planned timestep) and
// simulated failures (grid data treated as lost) are both supported,
// mirroring the paper's two experimental modes.
//
// Results are published on the Runtime blackboard under the keys below.

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "advection/parallel_solver.hpp"
#include "advection/problem.hpp"
#include "core/async_repair.hpp"
#include "core/failure_gen.hpp"
#include "core/layout.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/runtime.hpp"
#include "recovery/buddy.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/planner.hpp"

namespace ftr::core {

namespace keys {
inline constexpr const char* kTotalTime = "app.total_time";
inline constexpr const char* kSolveTime = "app.solve_time";
inline constexpr const char* kCombineTime = "combine.time";
inline constexpr const char* kErrorL1 = "error.l1";
inline constexpr const char* kProcs = "app.procs";
inline constexpr const char* kReconTotal = "recon.total";
inline constexpr const char* kReconFailedList = "recon.failed_list";
inline constexpr const char* kReconShrink = "recon.shrink";
inline constexpr const char* kReconSpawn = "recon.spawn";
inline constexpr const char* kReconAgree = "recon.agree";
inline constexpr const char* kReconMerge = "recon.merge";
inline constexpr const char* kReconSplit = "recon.split";
inline constexpr const char* kRecoveryTime = "recovery.time";
inline constexpr const char* kCkptWriteTotal = "ckpt.write_total";
inline constexpr const char* kCkptWrites = "ckpt.writes";
inline constexpr const char* kRepairs = "app.repairs";
/// How the run recovered: 0 = no failure, 1 = full repair (original size and
/// rank order restored), 2 = shrink-mode degradation (continued on the
/// shrunken world; see RecoveryMode).
inline constexpr const char* kReconMode = "recon.mode";
/// Total repair attempts (retries included) across every reconstruction.
inline constexpr const char* kReconAttempts = "recon.attempts";
/// World size the run finished with (== app.procs unless degraded).
inline constexpr const char* kSurvivors = "app.survivors";
/// Bytes of recovery-source data moved to restore lost grids (partner
/// copies, buddy fetches, checkpoint reads).
inline constexpr const char* kRecoveryBytes = "recon.recovery_bytes";
/// Per-action plan decision counts, e.g. "recon.plan.rc_copy",
/// "recon.plan.buddy", "recon.plan.disk", "recon.plan.gcp",
/// "recon.plan.idle"; per grid, "recon.plan.grid<N>" holds the
/// RecoveryAction enum value chosen for grid N.
inline constexpr const char* kPlanPrefix = "recon.plan.";
/// Diskless buddy replication totals (store-wide) and the virtual time
/// rank 0 spent in its replication ticks.
inline constexpr const char* kBuddyReplications = "recon.buddy.replications";
inline constexpr const char* kBuddyReplBytes = "recon.buddy.repl_bytes";
inline constexpr const char* kBuddyReplTime = "recon.buddy.repl_time";
/// Proactive detection (runtime-wide counter, accumulated across ranks):
/// solve-loop exits armed by the failure detector before any collective
/// failed (RecoveryPolicy::Overlap only).
inline constexpr const char* kProactiveExits = "recon.proactive.exits";
/// Overlapped recovery (RecoveryPolicy::Overlap): successful doorbell handoffs
/// onto a background-repaired world, attempts aborted back to the classic
/// stop-the-world path, and the timesteps continuation ranks computed while
/// a repair was in flight (the steps the classic path would have lost).
inline constexpr const char* kOverlapHandoffs = "recon.overlap.handoffs";
inline constexpr const char* kOverlapAborts = "recon.overlap.aborts";
inline constexpr const char* kOverlapSteps = "recon.overlap.steps";
}  // namespace keys

/// How lost grids are restored after a repair.
///   Technique — the paper's behaviour: the layout's technique dictates the
///               restoration (CR reads checkpoints, RC copies partners, AC
///               recombines; infeasible patterns degrade to GCP/idle);
///   Planner   — the unified preference lattice (RC copy -> RC resample ->
///               buddy snapshot -> disk checkpoint -> GCP -> idle), picking
///               the cheapest feasible source per lost grid;
///   Overlap   — non-blocking overlapped recovery: survivors of unaffected
///               grids keep time-stepping on a continuation sub-communicator
///               while the affected grids' survivors rebuild the world in
///               the background (spawn/merge/split + buddy/disk restore);
///               the sides rejoin at a versioned doorbell handoff.  Any
///               failure of the overlap falls back to the classic
///               stop-the-world reconstruct.  Restoration follows the
///               planner lattice.  A rank whose failure detector knows of a
///               death leaves the solve loop at the next step boundary
///               (a proactive exit) instead of waiting for a collective on
///               the broken communicator to fail.  *When* gossip arrives
///               depends on real message timing, so Overlap runs are not
///               reproducible from run to run; Technique and Planner runs
///               are.
enum class RecoveryPolicy { Technique, Planner, Overlap };

struct AppConfig {
  LayoutConfig layout;
  ftr::advection::Problem problem{};
  long timesteps = 128;
  double cfl = 0.9;
  /// CR: number of checkpoints C (paper Eq. 2; benches compute it from the
  /// policy).  The run is split into C+1 intervals with a detection point
  /// and a write after each of the first C.  Ignored by RC/AC, which run
  /// one interval.
  long checkpoints = 3;
  FailurePlan failures;
  /// Non-empty: back the checkpoint store with real files under this
  /// directory (removed on destruction) instead of memory.  I/O *costs*
  /// are identical — they come from the cluster profile either way.
  std::string checkpoint_dir;
  std::string app_name = "ft_pde_app";
  /// Restoration policy (see RecoveryPolicy).
  RecoveryPolicy recovery = RecoveryPolicy::Technique;
  /// Diskless buddy replication interval in timesteps (0 = off): every
  /// `buddy_every` steps each rank streams its block to its buddy rank.
  long buddy_every = 0;
};

class FtApp {
 public:
  explicit FtApp(AppConfig cfg);

  /// Register this app with the runtime and run it on the layout's process
  /// count.  Returns the number of killed processes.  Results are on the
  /// runtime blackboard.
  int launch(ftmpi::Runtime& rt);

  [[nodiscard]] const Layout& layout() const { return layout_; }
  [[nodiscard]] const AppConfig& config() const { return cfg_; }
  [[nodiscard]] ftr::rec::CheckpointStore& checkpoint_store() { return *store_; }
  [[nodiscard]] ftr::rec::BuddyStore& buddy_store() { return *buddy_; }

  /// The per-rank entry point (public so tests can drive it directly).
  void entry(const std::vector<std::string>& argv);

 private:
  struct RankState;  // defined in ft_app.cpp

  /// Run the interval loop starting at `start_interval` (non-zero for
  /// respawned children fast-forwarding): solve, detect, and for CR write a
  /// checkpoint after each of the first checkpoint_count() intervals.
  void run_intervals_from(RankState& st, long start_interval);

  /// Checkpoint count C of the run: cfg_.checkpoints for CR, 0 for RC/AC.
  [[nodiscard]] long checkpoint_count() const;
  /// Step boundary of interval i (timesteps for i >= checkpoint_count()).
  [[nodiscard]] long interval_target(long interval) const;

  /// Advance to `target` steps, firing planned kills; errors fall through
  /// to the next detection point.  Under RecoveryPolicy::Overlap, outside an
  /// overlap attempt, a failure the detector knows of in the current world
  /// ends the loop early with kErrProcFailed (a proactive exit).
  int solve_to(RankState& st, long target);

  /// Record the outcome of one reconstruct() on the rank state (world swap,
  /// failed-rank bookkeeping incl. degraded-rank translation, rank-0
  /// metrics).  Returns false when the reconstruction exhausted its budget
  /// and the run must stop.
  bool adopt_reconstruction(RankState& st, const ReconstructResult& res);

  /// Everything that happens right after a repair: broadcast of the run
  /// state to the (possibly respawned) world, grid-communicator rebuild,
  /// and per-technique restoration of the lost grids.  In degraded mode the
  /// grids that lost members stay lost (their survivors idle) and recovery
  /// is deferred to the GCP combination.
  void post_repair(RankState& st, long interval_index, bool is_child);

  /// Planner-driven restoration of lost grids (both real and simulated
  /// losses): agree on the facts, compute the plan over the preference
  /// lattice, broadcast it, execute it.  Grids whose entries end in
  /// Gcp/Idle join st.unrestored and are absorbed by the combination.
  void restore_lost_grids(RankState& st, const std::vector<int>& lost, long target,
                          bool charge_gcp_coeffs);
  /// Gather buddy availability to world rank 0, plan there, broadcast
  /// (Lattice mode only — the Force* plans need no negotiation round).
  ftr::rec::RecoveryPlan negotiate_plan(RankState& st, const std::vector<int>& lost);
  /// Buddy generations known to be held, per (grid, group rank).
  using GenerationMap = std::map<std::pair<int, int>, std::set<long>>;
  /// Plan the restoration of `lost` under `mode`: group completeness from
  /// the degraded view, the buddy rung at the newest generation every
  /// member's block is held at (ftr::rec::newest_common_generation).
  [[nodiscard]] ftr::rec::RecoveryPlan plan_lost_grids(const RankState& st,
                                                       const std::vector<int>& lost,
                                                       const GenerationMap& gens,
                                                       ftr::rec::PlannerMode mode) const;
  void execute_plan(RankState& st, const ftr::rec::RecoveryPlan& plan, long target,
                    bool charge_gcp_coeffs);
  /// Plan bookkeeping on the blackboard: per-action counts, the per-grid
  /// decision and the modeled recovery-source bytes.  Called once per
  /// executed plan, by one rank.
  void record_plan(const ftr::rec::RecoveryPlan& plan) const;

  /// One rung of the lattice each: CR rollback of one grid's group,
  /// partner copy/resample, buddy-snapshot fetch + recompute.
  void cr_restore(RankState& st, const std::vector<int>& lost, long target);
  void rc_restore_one(RankState& st, int lost_id, int partner, long target);
  void buddy_restore_one(RankState& st, int grid, long step, long target);
  /// Shared tail of both buddy restores: accept the fetched replica only
  /// as generation `step` of this rank's block, unpack it and recompute to
  /// `target`.  False on a missing/mismatched replica or a failed
  /// recompute; the caller decides how to abort.
  bool restore_replica(RankState& st, const std::optional<ftr::rec::ReplicaMessage>& msg,
                       long step, long target);
  /// Collective over st.gcomm: the group's lowest steps_done in *lo and
  /// whether every member sits at it with no step torn by a revoke (the
  /// state plain catch-up stepping needs).  Returns the first reduction
  /// error.
  FTR_NODISCARD int group_steps(RankState& st, long* lo, bool* uniform);

  /// The planner mode the configured policy maps to.
  [[nodiscard]] ftr::rec::PlannerMode planner_mode() const;
  /// GCP depth the combination will solve with (must match the planner's).
  [[nodiscard]] int gcp_depth() const;
  /// Replication tick: drain incoming replicas, stream our block out.
  void buddy_tick(RankState& st);
  /// Harvest in-flight replicas before the world communicator is replaced.
  void drain_buddies(RankState& st);

  /// Recovery of simulated losses + final combination and error report.
  void recovery_and_combine(RankState& st);

  // --- non-blocking overlapped recovery (RecoveryPolicy::Overlap) ----------
  struct OverlapView;  // defined in ft_app.cpp

  /// Collective over the (possibly broken) world at a detection point.
  /// Runs the uniform suspicion probe; when a failure is confirmed and the
  /// loss pattern is overlappable, splits the survivors into continuation
  /// and repair sides and drives them to a doorbell handoff.  Returns true
  /// iff the repaired world was adopted (the caller skips the classic
  /// reconstruct); false means "no failure" or "overlap aborted" — either
  /// way the classic detection point right after sorts it out.
  bool try_overlap_recovery(RankState& st, long interval, int step_rc);
  /// Continuation side: keep time-stepping to the interval target, polling
  /// the doorbell group-consistently at step boundaries.
  bool overlap_continuation(RankState& st, long interval,
                            const overlap::Classification& cls, const ftmpi::Comm& bridge,
                            const ftmpi::Comm& ccomm, std::uint64_t epoch);
  /// Count the abort and revoke the overlap communicators so both sides
  /// converge on the classic fallback.
  bool overlap_abort_continuation(RankState& st, const ftmpi::Comm& ccomm,
                                  const ftmpi::Comm& bridge);
  /// Repair-side abort: ring the ABORT doorbell, then revoke the bridge and
  /// the repair sub-communicator so both sides (and any children parked in
  /// the protocol) converge on the classic fallback.
  bool overlap_abort_repair(RankState& st, const ftmpi::Comm& bridge,
                            const ftmpi::Comm& rcomm, const overlap::Classification& cls,
                            std::uint64_t epoch, const char* why);
  /// Restoration abort: revoke the partial repaired world, flushing every
  /// member (children included) out of the protocol; survivors then run the
  /// repair-side abort, children abort and get respawned classically.
  bool overlap_abort_restore(RankState& st, const ftmpi::Comm& rworld, const char* why);
  /// Repair side (survivors): spawn/merge/ordered-split the partial world,
  /// verify it in lockstep with the children, ship them the run state,
  /// drain the staged replica manifests, then restore and hand off.
  bool overlap_repair(RankState& st, long interval, const overlap::Classification& cls,
                      const ftmpi::Comm& bridge, const ftmpi::Comm& rcomm,
                      std::uint64_t epoch, std::vector<ftr::rec::ReplicaMessage> staged);
  /// Shared by repair survivors and respawned children: grid communicators
  /// over the partial world, plan + restore the affected grids, completion
  /// barrier, doorbell, handoff, adoption.
  bool overlap_repair_world(RankState& st, ftmpi::Comm rworld, const OverlapView& view,
                            const ftmpi::Comm& bridge, int cont_leader_shrunken,
                            std::uint64_t epoch, bool is_child,
                            std::vector<ftr::rec::ReplicaMessage> staged);
  /// Child entry: receive the run state from the repair leader on the
  /// partial world and join overlap_repair_world.  Aborts the process on
  /// any failure (the classic fallback respawns it).
  void overlap_child(RankState& st);
  /// Swap onto the repaired full world (rank == original rank) and agree on
  /// the unrestored set.
  bool overlap_adopt(RankState& st, ftmpi::Comm nworld, int leader_old,
                     std::uint64_t epoch);

  void maybe_self_kill(const RankState& st, long step);

  AppConfig cfg_;
  Layout layout_;
  std::shared_ptr<ftr::rec::CheckpointStore> store_;
  std::shared_ptr<ftr::rec::BuddyStore> buddy_;

  // Kill bookkeeping shared by all rank threads: each planned kill fires
  // exactly once (a respawned process re-runs the same timesteps and must
  // not die again).
  std::mutex kill_mu_;
  std::set<int> fired_kills_;
  std::set<int> fired_host_fails_;
};

}  // namespace ftr::core
