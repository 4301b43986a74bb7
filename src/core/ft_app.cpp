#include "core/ft_app.hpp"

#include <algorithm>
#include <map>

#include "advection/serial_solver.hpp"
#include "combination/combine.hpp"
#include "common/errors.hpp"
#include "common/logging.hpp"
#include "ftmpi/psan.hpp"
#include "recovery/alternate.hpp"
#include "grid/sampling.hpp"
#include "recovery/replication.hpp"

namespace ftr::core {

using ftr::advection::ParallelSolver;
using ftr::comb::GridRole;
using ftr::comb::Technique;
using ftr::grid::Grid2D;
using ftr::grid::Level;
using ftmpi::Comm;
using ftmpi::kSuccess;

namespace {
constexpr int kTagGridToRoot = 300;   ///< grid root -> world rank 0 (combination)
constexpr int kTagRecovered = 400;    ///< world rank 0 -> lost grid root (AC scatter)
constexpr int kTagPartner = 500;      ///< partner root -> lost grid root (RC)

/// Broadcast the root's recovery plan over `comm`: a header [n,
/// gcp_feasible], then 4 longs {grid, action, step, partner} per entry.
/// Collective; *plan is significant at `root` only and holds the agreed
/// plan everywhere on success.  Returns the first bcast error.
int bcast_plan(ftr::rec::RecoveryPlan* plan, int root, const ftmpi::Comm& comm) {
  std::vector<long> body;
  for (const auto& e : plan->entries) {
    body.insert(body.end(), {e.grid, static_cast<long>(e.action), e.step, e.partner});
  }
  long hdr[2] = {static_cast<long>(plan->entries.size()), plan->gcp_feasible ? 1 : 0};
  int rc = ftmpi::bcast(hdr, 2, root, comm);
  if (rc != ftmpi::kSuccess) return rc;
  body.resize(static_cast<size_t>(std::max<long>(hdr[0], 0)) * 4);
  if (!body.empty()) {
    rc = ftmpi::bcast(body.data(), static_cast<int>(body.size()), root, comm);
    if (rc != ftmpi::kSuccess) return rc;
  }
  plan->gcp_feasible = hdr[1] != 0;
  plan->entries.clear();
  for (size_t i = 0; i + 3 < body.size(); i += 4) {
    ftr::rec::PlanEntry e;
    e.grid = static_cast<int>(body[i]);
    e.action = static_cast<ftr::rec::RecoveryAction>(body[i + 1]);
    e.step = body[i + 2];
    e.partner = static_cast<int>(body[i + 3]);
    plan->entries.push_back(e);
  }
  return ftmpi::kSuccess;
}
}  // namespace

struct FtApp::RankState {
  Comm world;
  Comm gcomm;
  int wrank = -1;
  int grid = -1;
  double dt = 0.0;
  std::unique_ptr<ParallelSolver> solver;
  Reconstructor recon;
  std::vector<int> last_failed_ranks;  // survivors: from the last repair
  long bcast_interval = -1;            // interval index from the last post-repair broadcast
  // Shrink-mode degradation: once replacements cannot be placed, the run
  // continues on the shrunken world.  `wrank` keeps the ORIGINAL world rank
  // (layout identity); `dview` translates to the compacted ranks.  A rank
  // whose grid lost a member idles (no solver) until the final combination.
  bool degraded = false;
  DegradedView dview;
  // Overlapped recovery: the in-overlap flag (gates proactive exits and
  // buddy ticks, whose rank->pid bookkeeping assumes the full world), and
  // the attempt counter stamped on doorbells.
  bool overlap_active = false;
  std::uint64_t overlap_epoch = 0;
  std::set<int> failed_union;  // original ranks failed so far, all repairs
  // Buddy placement map (deterministic, identical on every rank).
  ftr::rec::BuddyTopology btopo;
  // Grids whose recovery plan ended in Gcp/Idle: they keep no usable data
  // and the GCP combination absorbs them (uniform across ranks — filled
  // from the agreed plan).
  std::set<int> unrestored;
  // rank-0 metrics
  ReconstructTimings recon_sum{};
  int repairs = 0;
  int recon_attempts = 0;
  double recovery_time = 0.0;
  double buddy_repl_time = 0.0;
  double ckpt_write_total = 0.0;
  double solve_time = 0.0;

  explicit RankState(Reconstructor r) : recon(std::move(r)) {}
};

FtApp::FtApp(AppConfig cfg) : cfg_(std::move(cfg)), layout_(build_layout(cfg_.layout)) {
  store_ = cfg_.checkpoint_dir.empty()
               ? std::make_shared<ftr::rec::CheckpointStore>()
               : std::make_shared<ftr::rec::CheckpointStore>(cfg_.checkpoint_dir);
  buddy_ = std::make_shared<ftr::rec::BuddyStore>();
}

ftr::rec::PlannerMode FtApp::planner_mode() const {
  switch (cfg_.recovery) {
    case RecoveryPolicy::Planner: return ftr::rec::PlannerMode::Lattice;
    // Overlap restores through the full lattice at the classic detection
    // points; PlannerMode::Overlap is only used for the restricted plan the
    // background repair computes on the partial world (overlap_repair_world).
    case RecoveryPolicy::Overlap: return ftr::rec::PlannerMode::Lattice;
    case RecoveryPolicy::Technique: break;
  }
  switch (cfg_.layout.technique) {
    case Technique::ResamplingCopying: return ftr::rec::PlannerMode::ForceRc;
    case Technique::AlternateCombination: return ftr::rec::PlannerMode::ForceAc;
    case Technique::CheckpointRestart: break;
  }
  return ftr::rec::PlannerMode::ForceCr;
}

int FtApp::gcp_depth() const {
  return cfg_.layout.technique == Technique::AlternateCombination ? 1 + cfg_.layout.extra_layers
                                                                  : 1;
}

int FtApp::launch(ftmpi::Runtime& rt) {
  rt.register_app(cfg_.app_name, [this](const std::vector<std::string>& argv) { entry(argv); });
  rt.clear_results();
  return rt.run(cfg_.app_name, layout_.total_procs);
}

// --- small helpers -----------------------------------------------------------

void FtApp::maybe_self_kill(const RankState& st, long step) {
  // Whole-node failure: the first resident process whose step reaches the
  // planned time takes the node down (killing itself and its co-residents).
  if (!cfg_.failures.fail_host_at_step.empty()) {
    const int host = ftmpi::runtime().host_of(ftmpi::self_pid());
    const auto hit = cfg_.failures.fail_host_at_step.find(host);
    if (hit != cfg_.failures.fail_host_at_step.end() && step >= hit->second) {
      bool fire = false;
      {
        std::lock_guard<std::mutex> lock(kill_mu_);
        fire = fired_host_fails_.insert(host).second;
      }
      if (fire) {
        FTR_DEBUG("ft_app: node failure on host %d at step %ld", host, step);
        ftmpi::runtime().fail_host(host);  // marks us dead too
        throw ftmpi::ProcessKilled{ftmpi::self_pid()};
      }
    }
  }
  const auto it = cfg_.failures.kill_at_step.find(st.wrank);
  if (it == cfg_.failures.kill_at_step.end() || step < it->second) return;
  {
    std::lock_guard<std::mutex> lock(kill_mu_);
    if (fired_kills_.count(st.wrank) != 0) return;  // respawned replacement
    fired_kills_.insert(st.wrank);
  }
  FTR_DEBUG("ft_app: rank %d self-kills at step %ld", st.wrank, step);
  ftmpi::abort_self();
}

int FtApp::solve_to(RankState& st, long target) {
  // Overlapped recovery leaves the solve loop for the detection point as
  // soon as the detector knows of a failure in the world, instead of
  // solving on until a collective on the broken communicator fails (a
  // continuation rank stuck in halo exchange would otherwise only learn of
  // it reactively).  Not inside an attempt, where the world is the
  // pre-repair one, and not in a degraded world, which takes no overlap.
  const bool proactive = cfg_.recovery == RecoveryPolicy::Overlap && !st.overlap_active &&
                         !st.degraded && ftmpi::detector_enabled() && !st.world.is_null();
  while (st.solver->steps_done() < target) {
    maybe_self_kill(st, st.solver->steps_done());
    if (proactive && ftmpi::detector_knows_failure_in(st.world)) {
      ftmpi::runtime().add(keys::kProactiveExits, 1.0);
      FTR_DEBUG("ft_app: rank %d leaves the solve loop proactively", st.wrank);
      return ftmpi::kErrProcFailed;
    }
    const int rc = st.solver->step();
    if (rc != kSuccess) return rc;
    buddy_tick(st);
  }
  return kSuccess;
}

// --- main flow ---------------------------------------------------------------

void FtApp::entry(const std::vector<std::string>& argv) {
  RankState st{Reconstructor{{cfg_.app_name, argv}}};
  st.btopo = make_buddy_topology(layout_, ftmpi::runtime().slots_per_host());
  st.dt = ftr::advection::stable_timestep(cfg_.layout.scheme.n, cfg_.problem, cfg_.cfl);
  const bool is_child = !ftmpi::get_parent().is_null();

  long resume_interval = 0;
  if (is_child) {
    const auto res = st.recon.reconstruct({});
    st.world = res.comm;
    if (cfg_.recovery == RecoveryPolicy::Overlap && !st.world.is_null() &&
        res.mode == RecoveryMode::Repaired && st.world.size() < layout_.total_procs) {
      // A background repair spawned us: the "world" is the *partial*
      // repaired world (repair survivors + replacements).  Join the overlap
      // protocol — it restores our grid, hands off onto the full world and
      // fills in the run state; on any failure it aborts this process and
      // the classic fallback respawns it.
      overlap_child(st);
      resume_interval = st.bcast_interval + 1;
    } else {
      st.wrank = st.world.rank();
      st.grid = layout_.grid_of_rank(st.wrank);
      // The broadcast inside post_repair tells us which interval to resume at.
      post_repair(st, /*interval_index=*/-1, /*is_child=*/true);
      resume_interval = st.bcast_interval + 1;
    }
  } else {
    st.world = ftmpi::world();
    st.wrank = st.world.rank();
    st.grid = layout_.grid_of_rank(st.wrank);
    int rc = ftmpi::comm_split(st.world, st.grid, st.wrank, &st.gcomm);
    if (rc != kSuccess) return;
    st.solver = std::make_unique<ParallelSolver>(layout_.slots[static_cast<size_t>(st.grid)].level,
                                                 cfg_.problem, st.dt, st.gcomm);
  }

  run_intervals_from(st, resume_interval);
  recovery_and_combine(st);
}

long FtApp::checkpoint_count() const {
  if (cfg_.layout.technique != Technique::CheckpointRestart) return 0;
  return std::max<long>(cfg_.checkpoints, 0);
}

long FtApp::interval_target(long interval) const {
  const long c = checkpoint_count();
  if (interval >= c) return cfg_.timesteps;
  return cfg_.timesteps * (interval + 1) / (c + 1);
}

void FtApp::run_intervals_from(RankState& st, long start_interval) {
  const long c = checkpoint_count();
  for (long i = start_interval; i <= c; ++i) {
    const long target = interval_target(i);
    FTR_DEBUG("ft_app: rank %d interval %ld target %ld", st.wrank, i, target);
    int step_rc = kSuccess;
    if (st.solver) {  // idle (degraded) ranks skip straight to detection
      const double t0 = ftmpi::wtime();
      step_rc = solve_to(st, target);
      st.solve_time += ftmpi::wtime() - t0;
    }
    // ULFM practice: a rank that observed the failure revokes the group
    // communicator so group mates blocked in halo exchange learn of it and
    // reach the detection point too (otherwise they would wait forever on a
    // survivor that has already left the solve loop).
    if (step_rc != kSuccess && !st.gcomm.is_null()) {
      ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.cr.revoke");
    }

    // Overlapped recovery: when the loss pattern allows it, unaffected
    // grids keep stepping this interval while the repair runs behind them;
    // on a successful handoff the interval is complete once the continuation
    // grids, which hand off on READY wherever they stand, catch up to
    // `target` (after the final interval nothing else would).  A false
    // return (no failure, non-overlappable pattern, or aborted overlap)
    // falls through to the classic stop-the-world detection point.
    if (cfg_.recovery == RecoveryPolicy::Overlap && try_overlap_recovery(st, i, step_rc)) {
      const double t0 = ftmpi::wtime();
      const int crc = solve_to(st, target);
      st.solve_time += ftmpi::wtime() - t0;
      if (crc != kSuccess) {
        ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.overlap.revoke");
      }
      continue;
    }

    // Detection is tested before the checkpoint write (paper Sec. III);
    // for RC/AC this is the single detection point before the combination.
    const auto res = st.recon.reconstruct(st.world);
    if (res.repaired) {
      // Harvest in-flight buddy replicas while the pre-repair world is
      // still in hand: reconstruct() only returns once every survivor has
      // entered it, so all pre-repair replication sends are buffered by
      // now — and the world swap would orphan them.
      drain_buddies(st);
      if (!adopt_reconstruction(st, res)) return;
      post_repair(st, i, /*is_child=*/false);
      // The failed grid restarted from the recent checkpoint instead of
      // writing a new one (paper); no write this interval.
      continue;
    }
    if (res.exhausted) return;  // budget spent without a usable world
    if (i == c) break;  // final interval has no checkpoint write
    const double tw = ftmpi::wtime();
    if (st.solver) {
      store_->write(st.grid, st.gcomm.rank(), st.solver->steps_done(),
                    st.solver->field().pack_interior());
    }
    // A chaos kill inside the write surfaces here (or at the next solve);
    // the next detection point repairs and the grid rolls back, so a failed
    // barrier is tolerated rather than acted on.
    ftr::observe_error(ftmpi::barrier(st.world), "ft_app.ckpt.barrier");
    if (st.wrank == 0) st.ckpt_write_total += ftmpi::wtime() - tw;
  }
}

bool FtApp::adopt_reconstruction(RankState& st, const ReconstructResult& res) {
  if (res.exhausted) {
    FTR_ERROR("ft_app: reconstruction exhausted its budget (rank %d); stopping", st.wrank);
    return false;
  }
  st.world = res.comm;
  // Failed ranks reported from an already-degraded world are compacted
  // ranks; translate back to original ranks before any layout bookkeeping.
  std::vector<int> orig_failed = res.failed_ranks;
  if (st.degraded) {
    for (int& r : orig_failed) r = st.dview.original_rank_of(r);
  }
  st.last_failed_ranks = orig_failed;
  for (int r : orig_failed) st.failed_union.insert(r);
  if (res.mode == RecoveryMode::Degraded) st.degraded = true;
  if (st.degraded) {
    // Degradation is sticky: it only triggers when the cluster has no free
    // slots, and failed hosts never come back, so later failures degrade
    // further rather than repairing.
    st.dview = build_degraded_view(
        layout_, std::vector<int>(st.failed_union.begin(), st.failed_union.end()));
  }
  if (st.wrank == 0) {
    ++st.repairs;
    st.recon_attempts += res.attempts;
    st.recon_sum += res.timings;
  }
  return true;
}

void FtApp::post_repair(RankState& st, long interval, bool is_child) {
  FTR_DEBUG("ft_app: rank %d post_repair interval %ld child=%d", st.wrank, interval,
            static_cast<int>(is_child));
  // 1. Run-state broadcast so respawned children can fast-forward:
  //    [interval, #lost, lost grid ids...].
  long header[2] = {interval, 0};
  std::vector<long> lost_ids;
  if (st.wrank == 0) {
    const auto lost = layout_.grids_of_ranks(st.last_failed_ranks);
    lost_ids.assign(lost.begin(), lost.end());
    header[1] = static_cast<long>(lost_ids.size());
  }
  int brc = ftmpi::bcast(header, 2, 0, st.world);
  if (brc != kSuccess) {
    // A failure inside the run-state broadcast means the repaired world is
    // already broken again; bail and let the next detection point replan
    // rather than fast-forwarding from a garbage header.
    FTR_WARN("ft_app: post-repair state bcast failed (%s)", ftmpi::error_string(brc));
    return;
  }
  lost_ids.resize(static_cast<size_t>(header[1]));
  if (header[1] > 0) {
    brc = ftmpi::bcast(lost_ids.data(), static_cast<int>(lost_ids.size()), 0, st.world);
    if (brc != kSuccess) {
      FTR_WARN("ft_app: post-repair lost-id bcast failed (%s)", ftmpi::error_string(brc));
      return;
    }
  }
  st.bcast_interval = header[0];

  // 2. Rebuild the per-grid communicators over the repaired world; ranks
  //    are unchanged, so the same split reproduces the original groups.
  //    Degraded mode: grids that lost a member stay lost — their surviving
  //    ranks idle (undefined color, no solver) but keep joining world
  //    collectives; complete grids keep their exact groups.
  const bool my_grid_lost = st.degraded && st.dview.grid_lost(st.grid);
  const int color = my_grid_lost ? ftmpi::kUndefinedColor : st.grid;
  int rc = ftmpi::comm_split(st.world, color, st.wrank, &st.gcomm);
  if (rc != kSuccess) {
    FTR_ERROR("ft_app: grid comm rebuild failed (%s)", ftmpi::error_string(rc));
    return;
  }
  if (my_grid_lost) {
    if (st.solver) {
      FTR_WARN("ft_app: rank %d idles — grid %d lost a member in degraded mode", st.wrank,
               st.grid);
    }
    st.solver.reset();
  } else if (is_child || !st.solver) {
    st.solver = std::make_unique<ParallelSolver>(
        layout_.slots[static_cast<size_t>(st.grid)].level, cfg_.problem, st.dt, st.gcomm);
  } else {
    st.solver->set_comm(st.gcomm);
  }

  // 2b. Overlapped recovery's proactive exits can leave grids *untouched* by
  //     the failure short of the target they were solving to (a rank leaves
  //     as soon as gossip reaches it), and — because gossip lands at
  //     different times — with members at *different* step counts; an
  //     aborted overlap attempt leaves continuation ranks stepped past the
  //     failure point.  Catch up before the restoration below: RC transfers
  //     read the partner grid at `target`, so the reactive-path invariant
  //     (every complete grid is at `target` when restoration starts) must be
  //     re-established.  Group-local: only this grid's communicator is
  //     involved, and the world barrier below resynchronizes everyone.
  if (cfg_.recovery == RecoveryPolicy::Overlap && st.solver && !is_child &&
      std::find(lost_ids.begin(), lost_ids.end(), static_cast<long>(st.grid)) ==
          lost_ids.end()) {
    const long target = interval_target(header[0]);
    long lo = 0;
    bool uniform = false;
    if (group_steps(st, &lo, &uniform) != kSuccess) {
      // A fresh failure during catch-up: tolerated, the next detection
      // point replans (same idiom as the restoration paths below).
      ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.proactive.revoke");
    } else if (!uniform) {
      // The group rolls back to its most recent group-consistent snapshot
      // (or the initial condition) and recomputes, exactly like a failed
      // grid.
      cr_restore(st, std::vector<int>{st.grid}, target);
    } else if (lo < target) {
      const int crc = solve_to(st, target);
      if (crc != kSuccess) {
        ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.proactive.revoke");
      }
    }
  }

  // 3. Planner-driven restoration of the really-lost grids, timed as a
  //    barrier-delimited window on rank 0's (synchronized) virtual clock.
  //    Degraded grids have no complete group to restore onto; the planner
  //    marks them Gcp/Idle and the GCP combination absorbs them, while
  //    every rank still runs the delimiting barriers.
  std::vector<int> lost(lost_ids.begin(), lost_ids.end());
  ftr::observe_error(ftmpi::barrier(st.world), "ft_app.recovery.barrier");
  const double t0 = ftmpi::wtime();
  restore_lost_grids(st, lost, interval_target(header[0]),
                     /*charge_gcp_coeffs=*/planner_mode() == ftr::rec::PlannerMode::Lattice);
  ftr::observe_error(ftmpi::barrier(st.world), "ft_app.recovery.barrier");
  if (st.wrank == 0) st.recovery_time += ftmpi::wtime() - t0;
}

void FtApp::cr_restore(RankState& st, const std::vector<int>& lost, long target) {
  if (!st.solver) return;  // idle (degraded) ranks have nothing to restore
  if (std::find(lost.begin(), lost.end(), st.grid) == lost.end()) return;
  // The whole group of a failed grid rolls back to its most recent
  // checkpoint (survivors' local updates are unusable, paper Sec. II-D)
  // and recomputes the lost timesteps.  "Most recent" must be *group
  // consistent*: a member that died during its write, or whose newest
  // snapshot failed CRC validation, only has an older generation, so the
  // group agrees on the minimum available step and everyone restores that
  // generation.  If any member cannot produce it, the whole group restarts
  // from the initial condition (full recompute).
  auto snap = store_->read_latest(st.grid, st.gcomm.rank());
  int my_step = snap.has_value() ? static_cast<int>(snap->step) : -1;
  int group_step = my_step;
  int rc = ftmpi::allreduce(&my_step, &group_step, 1, ftmpi::ReduceOp::Min, st.gcomm);
  if (rc != kSuccess) {
    // Next detection point repairs.
    ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.cr.revoke");
    return;
  }
  if (group_step >= 0 && snap.has_value() && snap->step != group_step) {
    snap = store_->read_at(st.grid, st.gcomm.rank(), group_step);
  }
  int have = (group_step >= 0 && snap.has_value() && snap->step == group_step) ? 1 : 0;
  int all_have = have;
  rc = ftmpi::allreduce(&have, &all_have, 1, ftmpi::ReduceOp::Min, st.gcomm);
  if (rc != kSuccess) {
    ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.cr.revoke");
    return;
  }
  if (all_have == 1) {
    st.solver->field().unpack_interior(snap->data);
    st.solver->set_steps_done(snap->step);
  } else {
    st.solver->fill_local([this](double x, double y) { return cfg_.problem.initial(x, y); });
    st.solver->set_steps_done(0);
  }
  const int solve_rc = solve_to(st, target);
  if (solve_rc != kSuccess) {
    FTR_WARN("ft_app: failure during CR recompute (rank %d)", st.wrank);
    ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.cr.revoke");
  }
}

void FtApp::rc_restore_one(RankState& st, int lost_id, int partner, long target) {
  // One RC transfer: exact copy from the duplicate for diagonal grids,
  // resampling from the finer diagonal for lower-diagonal grids.  Only the
  // partner group and the lost group take part; the partner group is at
  // `target` steps, so the restored grid resumes there.
  if (partner < 0 || partner >= static_cast<int>(layout_.slots.size())) {
    FTR_ERROR("ft_app: lost grid %d has no usable RC partner", lost_id);
    return;
  }
  if (!st.solver) return;  // idle (degraded) ranks take no part
  const Level p_level = layout_.slots[static_cast<size_t>(partner)].level;
  if (st.grid == partner) {
    Grid2D full;
    if (st.solver->gather_full(&full) != kSuccess) return;
    if (st.gcomm.rank() == 0) {
      // A failed ship means the lost-grid root died again; its group revokes
      // and the next detection point replans, so the send error is tolerated.
      ftr::observe_error(
          ftmpi::send(full.data().data(), static_cast<int>(full.data().size()),
                      layout_.root_rank_of_grid(lost_id), kTagPartner + lost_id, st.world),
          "ft_app.rc.ship");
    }
  }
  if (st.grid == lost_id) {
    Grid2D recovered;
    if (st.gcomm.rank() == 0) {
      Grid2D partner_grid(p_level);
      const int rrc =
          ftmpi::recv(partner_grid.data().data(), static_cast<int>(partner_grid.data().size()),
                      layout_.root_rank_of_grid(partner), kTagPartner + lost_id, st.world);
      if (rrc != kSuccess) {
        // Dead partner root: revoke so the next detection point replans;
        // proceed with the zeroed grid to keep the group's scatter uniform.
        FTR_WARN("ft_app: RC fetch for grid %d failed (%s)", lost_id, ftmpi::error_string(rrc));
        ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.rc.revoke");
      }
      auto rec = ftr::rec::rc_recover(layout_.slots, lost_id, partner_grid);
      if (rec.has_value()) {
        recovered = std::move(*rec);
      } else {
        // Unreachable when the planner built the pair; keep the group
        // consistent (zero data) instead of crashing.
        FTR_ERROR("ft_app: RC recovery of grid %d from %d failed", lost_id, partner);
        recovered = Grid2D(layout_.slots[static_cast<size_t>(lost_id)].level);
      }
    }
    st.solver->scatter_full(recovered);
    st.solver->set_steps_done(target);
  }
}

void FtApp::buddy_restore_one(RankState& st, int grid, long step, long target) {
  const auto& topo = st.btopo;
  if (grid < 0 || grid >= topo.num_grids()) return;
  // Holders ship first (eager sends complete immediately, so send-then-
  // receive cannot deadlock); members receive, restore and recompute the
  // tail.  A holder whose generation vanished still sends — a count-0
  // marker — so the member never hangs on a message that will not come.
  const int first = topo.first_rank[static_cast<size_t>(grid)];
  const int nprocs = topo.procs_per_grid[static_cast<size_t>(grid)];
  for (int gr = 0; gr < nprocs; ++gr) {
    const int owner = first + gr;
    if (ftr::rec::buddy_rank_of(topo, owner) != st.wrank) continue;
    const auto rep = buddy_->read_at(ftmpi::self_pid(), grid, gr, step);
    if (!rep.has_value()) {
      FTR_WARN("ft_app: buddy replica of grid %d/%d step %ld unavailable on rank %d", grid,
               gr, step, st.wrank);
    }
    const auto buf = ftr::rec::pack_replica(
        grid, gr, step, rep.has_value() ? rep->data : std::vector<double>{});
    // A failed ship means the owner died again; its group revokes and the
    // next detection point replans, so the send error is tolerated here.
    ftr::observe_error(
        ftmpi::send_bytes(buf.data(), buf.size(), owner, ftr::rec::kTagBuddyFetch, st.world),
        "ft_app.buddy.ship");
  }
  if (st.grid != grid || !st.solver) return;
  const int holder = ftr::rec::buddy_rank_of(topo, st.wrank);
  const auto& blk = st.solver->field().block();
  const size_t cells = static_cast<size_t>(blk.cells());
  std::vector<std::byte> buf(5 * sizeof(long) + cells * sizeof(double));
  ftmpi::Status stat;
  const int rc = ftmpi::recv_bytes(buf.data(), buf.size(), holder, ftr::rec::kTagBuddyFetch,
                                   st.world, &stat);
  std::optional<ftr::rec::ReplicaMessage> msg;
  if (rc == kSuccess) msg = ftr::rec::unpack_replica(buf.data(), static_cast<size_t>(stat.count));
  if (!restore_replica(st, msg, step, target)) {
    // Dead holder, corrupt replica, vanished generation or a failure during
    // the recompute: this grid cannot come back through the buddy rung.
    // Revoke so group mates bail out of the restore; the next detection
    // point repairs and replans.
    FTR_WARN("ft_app: buddy restore of grid %d failed on rank %d (%s)", grid, st.wrank,
             ftmpi::error_string(rc));
    ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.buddy.revoke");
  }
}

bool FtApp::restore_replica(RankState& st, const std::optional<ftr::rec::ReplicaMessage>& msg,
                            long step, long target) {
  const size_t cells = static_cast<size_t>(st.solver->field().block().cells());
  if (!msg.has_value() || msg->step != step || msg->data.size() != cells) return false;
  st.solver->field().unpack_interior(msg->data);
  st.solver->set_steps_done(step);
  return solve_to(st, target) == kSuccess;
}

int FtApp::group_steps(RankState& st, long* lo, bool* uniform) {
  // Two ways the group's state can be unusable for plain catch-up
  // stepping: members at different step counts (halo generations no
  // longer pair), or a member whose last step was torn mid-sweep by the
  // revoke (steps_done alone cannot see that).  Either condition is
  // group-fatal, so it is agreed by reduction.
  int mine[2] = {static_cast<int>(st.solver->steps_done()), st.solver->torn() ? 1 : 0};
  int low = mine[0], hi_torn[2] = {mine[0], mine[1]};
  int rc = ftmpi::allreduce(&mine[0], &low, 1, ftmpi::ReduceOp::Min, st.gcomm);
  if (rc == kSuccess) rc = ftmpi::allreduce(mine, hi_torn, 2, ftmpi::ReduceOp::Max, st.gcomm);
  *lo = low;
  *uniform = low == hi_torn[0] && hi_torn[1] == 0;
  return rc;
}

void FtApp::buddy_tick(RankState& st) {
  // During an overlap the world is partial (or st.world is the pre-repair
  // world the continuation side no longer steps on), so the buddy topology's
  // rank addressing is invalid; replication resumes after the handoff.
  if (cfg_.buddy_every <= 0 || st.degraded || st.overlap_active || !st.solver ||
      st.gcomm.is_null()) {
    return;
  }
  const long s = st.solver->steps_done();
  if (s <= 0 || s >= cfg_.timesteps || s % cfg_.buddy_every != 0) return;
  const double t0 = ftmpi::wtime();
  // Drain replicas addressed to us first, then stream our block out.  The
  // nonblocking eager send charges only its injection overhead, so the
  // replication overlaps the next timesteps.
  ftr::rec::buddy_drain(*buddy_, st.world);
  const int brc = ftr::rec::buddy_send(st.btopo, st.world, st.grid, st.gcomm.rank(), s,
                                       st.solver->field().pack_interior());
  if (brc != kSuccess) {
    // The replica did not land: the planner's buddy rung will see this
    // generation as unavailable at restore time, so surface it now.
    FTR_WARN("ft_app: buddy replication of grid %d step %ld failed on rank %d (%s)", st.grid,
             s, st.wrank, ftmpi::error_string(brc));
  }
  if (st.wrank == 0) st.buddy_repl_time += ftmpi::wtime() - t0;
}

void FtApp::drain_buddies(RankState& st) {
  if (cfg_.buddy_every <= 0 || st.degraded || st.world.is_null()) return;
  ftr::rec::buddy_drain(*buddy_, st.world);
}

void FtApp::restore_lost_grids(RankState& st, const std::vector<int>& lost, long target,
                               bool charge_gcp_coeffs) {
  std::set<int> lset(lost.begin(), lost.end());
  if (st.degraded) {
    for (int g : st.dview.lost_grids) lset.insert(g);
  }
  if (lset.empty()) return;
  const std::vector<int> all_lost(lset.begin(), lset.end());
  ftr::rec::RecoveryPlan plan;
  if (planner_mode() == ftr::rec::PlannerMode::Lattice) {
    plan = negotiate_plan(st, all_lost);
  } else {
    // The Force* plans are a pure function of uniformly-known facts, so
    // every rank computes the same plan locally — the legacy paths keep
    // their exact communication pattern, with no negotiation round.
    std::vector<ftr::rec::GridFacts> facts;
    for (int g : all_lost) {
      ftr::rec::GridFacts f;
      f.id = g;
      f.group_complete = !st.degraded || !st.dview.grid_lost(g);
      facts.push_back(f);
    }
    plan = ftr::rec::plan_recovery(layout_.slots, cfg_.layout.scheme, gcp_depth(),
                                   planner_mode(), facts,
                                   std::vector<int>(st.unrestored.begin(), st.unrestored.end()));
  }
  execute_plan(st, plan, target, charge_gcp_coeffs);
}

ftr::rec::RecoveryPlan FtApp::negotiate_plan(RankState& st, const std::vector<int>& lost) {
  // 1. Every rank reports the buddy generations it holds for members of the
  //    lost grids: records of 4 longs {grid, group rank, newest, prev}.
  const bool buddies = cfg_.buddy_every > 0 && !st.degraded;
  std::vector<long> mine;
  if (buddies) {
    ftr::rec::buddy_drain(*buddy_, st.world);
    for (int g : lost) {
      const int nprocs = st.btopo.procs_per_grid[static_cast<size_t>(g)];
      for (int gr = 0; gr < nprocs; ++gr) {
        const int owner = st.btopo.first_rank[static_cast<size_t>(g)] + gr;
        if (ftr::rec::buddy_rank_of(st.btopo, owner) != st.wrank) continue;
        const auto h = buddy_->holding(ftmpi::self_pid(), g, gr);
        if (h.newest < 0) continue;
        mine.push_back(g);
        mine.push_back(gr);
        mine.push_back(h.newest);
        mine.push_back(h.prev);
      }
    }
  }
  std::vector<std::vector<long>> parts;
  const int grc = ftmpi::gatherv(mine, &parts, 0, st.world);

  // 2. World rank 0 plans over the full lattice; 3. broadcast the agreed
  //    plan.  A failure mid-negotiation yields an empty plan; the next
  //    detection point repairs and replans.
  ftr::rec::RecoveryPlan plan;
  if (st.wrank == 0) {
    GenerationMap gens;
    if (grc == kSuccess) {
      for (const auto& p : parts) {
        for (size_t i = 0; i + 3 < p.size(); i += 4) {
          auto& held = gens[{static_cast<int>(p[i]), static_cast<int>(p[i + 1])}];
          for (const long s : {p[i + 2], p[i + 3]}) {
            if (s > 0) held.insert(s);
          }
        }
      }
    }
    plan = plan_lost_grids(st, lost, gens, ftr::rec::PlannerMode::Lattice);
  }
  if (bcast_plan(&plan, 0, st.world) != kSuccess) return {};
  return plan;
}

ftr::rec::RecoveryPlan FtApp::plan_lost_grids(const RankState& st, const std::vector<int>& lost,
                                              const GenerationMap& gens,
                                              ftr::rec::PlannerMode mode) const {
  std::vector<ftr::rec::GridFacts> facts;
  for (int g : lost) {
    ftr::rec::GridFacts f;
    f.id = g;
    f.group_complete = !st.degraded || !st.dview.grid_lost(g);
    if (f.group_complete) {
      // The buddy rung is on iff every member's block is held at a common
      // generation; the newest such generation is restored.
      std::vector<std::set<long>> held(
          static_cast<size_t>(st.btopo.procs_per_grid[static_cast<size_t>(g)]));
      for (size_t gr = 0; gr < held.size(); ++gr) {
        const auto it = gens.find({g, static_cast<int>(gr)});
        if (it != gens.end()) held[gr] = it->second;
      }
      f.buddy_step = ftr::rec::newest_common_generation(held);
      f.buddy_available = f.buddy_step > 0;
    }
    facts.push_back(f);
  }
  return ftr::rec::plan_recovery(layout_.slots, cfg_.layout.scheme, gcp_depth(), mode, facts,
                                 std::vector<int>(st.unrestored.begin(), st.unrestored.end()));
}

void FtApp::execute_plan(RankState& st, const ftr::rec::RecoveryPlan& plan, long target,
                         bool charge_gcp_coeffs) {
  using ftr::rec::RecoveryAction;
  const int ngrids = static_cast<int>(layout_.slots.size());
  // Entries are in ascending grid id on every rank, so the per-entry
  // transfers pair up without cross-entry deadlock (holders only post
  // eager sends; each group's blocking work is confined to its own entry).
  for (const auto& e : plan.entries) {
    if (e.grid < 0 || e.grid >= ngrids) continue;
    switch (e.action) {
      case RecoveryAction::RcCopy:
      case RecoveryAction::RcResample:
        rc_restore_one(st, e.grid, e.partner, target);
        break;
      case RecoveryAction::Buddy:
        buddy_restore_one(st, e.grid, e.step, target);
        break;
      case RecoveryAction::Disk:
        cr_restore(st, {e.grid}, target);
        break;
      case RecoveryAction::Gcp:
      case RecoveryAction::Idle:
        st.unrestored.insert(e.grid);
        break;
    }
  }
  if (st.wrank != 0) return;
  record_plan(plan);
  if (!plan.gcp_feasible) {
    FTR_WARN("ft_app: no GCP solution absorbs the unrestored grids; they idle");
  }
  const auto mode = planner_mode();
  if (charge_gcp_coeffs && plan.count(RecoveryAction::Gcp) > 0 &&
      (mode == ftr::rec::PlannerMode::ForceAc || mode == ftr::rec::PlannerMode::Lattice)) {
    // The only recovery overhead of re-combination is deriving the GCP
    // coefficients (paper Sec. III-B); the sampling rides the compulsory
    // combination stage anyway.
    ftmpi::charge_flops(ftr::rec::ac_coefficient_flops(cfg_.layout.scheme, gcp_depth()));
  }
}

void FtApp::record_plan(const ftr::rec::RecoveryPlan& plan) const {
  using ftr::rec::RecoveryAction;
  ftmpi::Runtime& rt = ftmpi::runtime();
  const int ngrids = static_cast<int>(layout_.slots.size());
  const auto level_bytes = [&](int grid) {
    const Level lv = layout_.slots[static_cast<size_t>(grid)].level;
    return 8.0 * static_cast<double>((1 << lv.x) + 1) * static_cast<double>((1 << lv.y) + 1);
  };
  double bytes = 0.0;
  for (const auto& e : plan.entries) {
    if (e.grid < 0 || e.grid >= ngrids) continue;
    rt.add(std::string(keys::kPlanPrefix) + ftr::rec::action_name(e.action), 1.0);
    rt.put(std::string(keys::kPlanPrefix) + "grid" + std::to_string(e.grid),
           static_cast<double>(e.action));
    switch (e.action) {
      case RecoveryAction::RcCopy:
      case RecoveryAction::RcResample:
        if (e.partner >= 0 && e.partner < ngrids) bytes += level_bytes(e.partner);
        break;
      case RecoveryAction::Buddy:
      case RecoveryAction::Disk:
        bytes += level_bytes(e.grid);
        break;
      case RecoveryAction::Gcp:
      case RecoveryAction::Idle:
        break;
    }
  }
  rt.add(keys::kRecoveryBytes, bytes);
}

// --- non-blocking overlapped recovery ----------------------------------------

/// Run state the repair leader ships to respawned children and both repair
/// parties need for the restoration: which interval broke, the step target,
/// who leads the partial world, and its membership in original world ranks.
struct FtApp::OverlapView {
  long interval = -1;
  long target = 0;
  int leader_rworld = -1;        ///< repair leader's rank in the partial world
  std::vector<int> member_olds;  ///< original rank of each partial-world rank
};

bool FtApp::try_overlap_recovery(RankState& st, long interval, int step_rc) {
  if (st.degraded || st.world.is_null()) return false;

  // Uniform suspicion probe.  comm_agree's *flag* is uniform across the
  // survivors but its return code is not (it depends on each rank's local
  // acked set), and a barrier's outcome can differ between root and members
  // when a death races the release — so the verdict here is decided purely
  // from the agreed flags.  Two rounds: round 1 collects "my interval went
  // clean", round 2 re-ANDs after every survivor has seen round 1's
  // outcome, so a failure racing round 1 lands uniformly by round 2, and a
  // unanimous round-2 "clean" means nobody diverges into the overlap prefix
  // on a half-seen failure.  Anything racing round 2 itself is deferred to
  // the classic detection point right after (which re-probes from scratch).
  int clean = (step_rc == kSuccess && !st.world.is_revoked()) ? 1 : 0;
  const int a1 = ftmpi::comm_agree(st.world, &clean);
  int sus = (a1 == kSuccess && clean == 1 && !st.world.is_revoked()) ? 1 : 0;
  ftr::observe_error(ftmpi::comm_agree(st.world, &sus), "ft_app.overlap.probe");
  if (sus == 1) return false;  // uniformly: no failure this interval

  // A failure is uniformly suspected: arm this attempt.  The world is NOT
  // revoked here — the probe guarantees every survivor has left its world
  // collectives, and a classic fallback must still be able to run its own
  // detection barrier on this world.
  const std::uint64_t epoch = ++st.overlap_epoch;
  drain_buddies(st);  // harvest in-flight replicas while the full world is in hand

  Comm shrunken;
  if (ftmpi::comm_shrink(st.world, &shrunken) != kSuccess) return false;
  const std::vector<int> failed = Reconstructor::failed_procs_list(st.world, shrunken);
  if (failed.empty()) return false;  // spurious suspicion (e.g. a bare revoke)
  std::vector<int> survivors;
  survivors.reserve(static_cast<size_t>(shrunken.size()));
  for (const ftmpi::ProcId pid : shrunken.group().pids) {
    survivors.push_back(st.world.group().rank_of(pid));
  }
  const overlap::Classification cls = overlap::classify(layout_, survivors, failed);
  if (!cls.overlappable()) return false;  // deterministic: uniform bail-out

  // Fold the confirmed failures into the detector so the doorbell wires of
  // this attempt always carry a post-failure epoch (the heartbeat ring may
  // not have timed the dead ranks out yet).
  for (int r : failed) {
    ftmpi::detector_note_failed(st.world.group().pids.at(static_cast<size_t>(r)));
  }
  st.last_failed_ranks = failed;
  for (int r : failed) st.failed_union.insert(r);

  // Stage the buddy generations this rank holds for members of the affected
  // grids.  Eager sends complete at injection cost, so a continuation rank
  // pays almost nothing and the repair leader drains the manifests while
  // the continuation side is already stepping again.
  std::vector<ftr::rec::ReplicaMessage> mine_reps;
  if (cfg_.buddy_every > 0) {
    for (int g : cls.affected) {
      const int nprocs = st.btopo.procs_per_grid[static_cast<size_t>(g)];
      const int first = st.btopo.first_rank[static_cast<size_t>(g)];
      for (int gr = 0; gr < nprocs; ++gr) {
        if (ftr::rec::buddy_rank_of(st.btopo, first + gr) != st.wrank) continue;
        const auto h = buddy_->holding(ftmpi::self_pid(), g, gr);
        for (const long s : {h.newest, h.prev}) {
          if (s <= 0) continue;
          const auto rep = buddy_->read_at(ftmpi::self_pid(), g, gr, s);
          if (!rep.has_value()) continue;  // CRC-invalid generation
          mine_reps.push_back({.grid = g, .grank = gr, .step = s, .data = rep->data});
        }
      }
    }
  }
  if (shrunken.rank() != cls.repair_leader_shrunken) {
    // Every non-leader survivor sends exactly one manifest (possibly empty),
    // so the leader never waits on a message that will not come.
    const auto buf = overlap::pack_manifest(mine_reps);
    ftr::observe_error(ftmpi::send_bytes(buf.data(), buf.size(), cls.repair_leader_shrunken,
                                         overlap::kTagStage, shrunken),
                       "ft_app.overlap.stage");
    mine_reps.clear();
  }

  ftmpi::chaos_point("repair.split");
  const bool continuation =
      std::binary_search(cls.continuation.begin(), cls.continuation.end(), st.wrank);
  Comm side;
  if (ftmpi::comm_split(shrunken, continuation ? 0 : 1, st.wrank, &side) != kSuccess) {
    // The prefix itself broke (another failure): flush everyone out of the
    // overlap machinery and fall back.
    ftr::observe_error(ftmpi::comm_revoke(shrunken), "ft_app.overlap.prefix");
    return false;
  }
  FTR_PSAN_OVERLAP_SPLIT(side, epoch);

  st.overlap_active = true;
  if (continuation) {
    const bool ok = overlap_continuation(st, interval, cls, shrunken, side, epoch);
    st.overlap_active = false;
    return ok;
  }
  const bool ok = overlap_repair(st, interval, cls, shrunken, side, epoch, std::move(mine_reps));
  st.overlap_active = false;
  return ok;
}

bool FtApp::overlap_continuation(RankState& st, long interval,
                                 const overlap::Classification& cls, const ftmpi::Comm& bridge,
                                 const ftmpi::Comm& ccomm, std::uint64_t epoch) {
  const long target = interval_target(interval);
  // Rebuild this grid's communicator inside the continuation world: the old
  // one was revoked to flush group mates out of the solve loop.  Every exit
  // from here on meets at the closing agreement below, so a rank that fails
  // early only marks the attempt aborted.
  Comm gc;
  bool aborted = ftmpi::comm_split(ccomm, st.grid, st.wrank, &gc) != kSuccess || !st.solver;
  if (!aborted) {
    st.gcomm = gc;
    st.solver->set_comm(st.gcomm);

    // Re-establish the group invariant before stepping on: the exits from
    // the solve loop were staggered (proactive exits land when gossip
    // does), so members may disagree on steps_done, and a revoke can have
    // torn a step mid-sweep.  Same repair as the classic path's post-repair
    // catch-up.
    long lo = 0;
    bool uniform = false;
    aborted = group_steps(st, &lo, &uniform) != kSuccess;
    if (!aborted && !uniform) {
      cr_restore(st, std::vector<int>{st.grid}, std::max<long>(lo, 0));
      aborted = st.gcomm.is_revoked();
    }
  }

  // The overlapped solve: keep stepping toward the interval target, poll
  // the doorbell after every step, and reduce the verdict over the
  // continuation world.  Once the target is reached the side idles in small
  // virtual ticks; a bounded idle budget turns a silent repair (e.g. every
  // repair survivor died before ringing or revoking) into an abort.
  const std::uint64_t armed = ftmpi::detector_enabled() ? 1 : 0;
  constexpr double kIdleTick = 50e-6;
  constexpr double kIdleBudget = 30.0;
  long stepped = 0;
  int verdict = overlap::kVerdictNone;
  double idle_since = -1.0;
  const double t0 = ftmpi::wtime();
  while (!aborted && verdict == overlap::kVerdictNone) {
    if (st.solver->steps_done() < target) {
      if (solve_to(st, st.solver->steps_done() + 1) != kSuccess) {
        aborted = true;  // a failure on the continuation side itself
      } else {
        ++stepped;
      }
    } else {
      ftmpi::advance(kIdleTick);
    }
    int v = aborted ? overlap::kVerdictAbort : overlap::kVerdictNone;
    if (!aborted && ccomm.rank() == 0 &&
        overlap::poll_doorbell(bridge, epoch, armed, &v) != kSuccess) {
      v = overlap::kVerdictAbort;
    }
    if (!aborted && v == overlap::kVerdictNone && st.solver->steps_done() >= target) {
      if (idle_since < 0.0) {
        idle_since = ftmpi::wtime();
      } else if (ftmpi::wtime() - idle_since > kIdleBudget) {
        FTR_WARN("ft_app: overlap idle budget exhausted on rank %d; aborting the attempt",
                 st.wrank);
        v = overlap::kVerdictAbort;
      }
    }
    int agreed = v;
    if (ftmpi::allreduce(&v, &agreed, 1, ftmpi::ReduceOp::Max, ccomm) != kSuccess) {
      aborted = true;
      break;
    }
    verdict = agreed;
    if (verdict == overlap::kVerdictAbort) aborted = true;
  }
  st.solve_time += ftmpi::wtime() - t0;

  // The allreduce is not an agreement: a death racing it can hand READY to
  // some ranks and an error to others, and a rank that entered the handoff
  // alone would wait there forever for mates already back on the classic
  // path.  A rank that failed revokes the side (flushing mates still
  // stepping or reducing), then one comm_agree — uniform among survivors —
  // decides the handoff or the abort for everyone.
  if (aborted) {
    ftr::observe_error(ftmpi::comm_revoke(ccomm), "ft_app.overlap.abort");
    if (!st.gcomm.is_null()) {
      ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.overlap.abort");
    }
  }
  int go = (!aborted && verdict == overlap::kVerdictReady) ? 1 : 0;
  ftr::observe_error(ftmpi::comm_agree(ccomm, &go), "ft_app.overlap.verdict");
  if (go != 1) return overlap_abort_continuation(st, ccomm, bridge);
  ftmpi::runtime().add(keys::kOverlapSteps, static_cast<double>(stepped));
  Comm nworld;
  const int hrc = overlap::handoff(ccomm, /*local_leader=*/0, /*continuation_side=*/true,
                                   st.wrank, bridge, cls.repair_leader_shrunken, &nworld);
  if (hrc != kSuccess) {
    return overlap_abort_continuation(st, ccomm, bridge);
  }
  if (!overlap_adopt(st, std::move(nworld), cls.repair_leader_old, epoch)) {
    return overlap_abort_continuation(st, ccomm, bridge);
  }
  return true;
}

bool FtApp::overlap_abort_continuation(RankState& st, const ftmpi::Comm& ccomm,
                                       const ftmpi::Comm& bridge) {
  if (!ccomm.is_null() && ccomm.rank() == 0) ftmpi::runtime().add(keys::kOverlapAborts, 1.0);
  // Revocation is the convergence mechanism: the bridge revoke aborts the
  // repair side's doorbell/handoff (and through it the children), the
  // ccomm/gcomm revokes flush continuation mates out of whatever overlap
  // collective they are parked in.  Everyone then meets at the classic
  // stop-the-world reconstruct of the (unrevoked) old world.
  ftr::observe_error(ftmpi::comm_revoke(bridge), "ft_app.overlap.abort");
  ftr::observe_error(ftmpi::comm_revoke(ccomm), "ft_app.overlap.abort");
  if (!st.gcomm.is_null()) {
    ftr::observe_error(ftmpi::comm_revoke(st.gcomm), "ft_app.overlap.abort");
  }
  return false;
}

bool FtApp::overlap_abort_repair(RankState& st, const ftmpi::Comm& bridge,
                                 const ftmpi::Comm& rcomm,
                                 const overlap::Classification& cls, std::uint64_t epoch,
                                 const char* why) {
  FTR_WARN("ft_app: overlap repair failed at %s (rank %d); falling back", why, st.wrank);
  // Every failing repair survivor rings ABORT itself (the poll drains all
  // senders and ABORT outranks READY), then revokes the overlap comms so
  // both sides — and any children parked in the protocol — converge on
  // the classic fallback.
  ftr::observe_error(overlap::ring_doorbell(bridge, cls.continuation_leader_shrunken,
                                            overlap::kVerdictAbort, epoch),
                     "ft_app.overlap.abort_ring");
  ftr::observe_error(ftmpi::comm_revoke(bridge), "ft_app.overlap.abort");
  ftr::observe_error(ftmpi::comm_revoke(rcomm), "ft_app.overlap.abort");
  return false;
}

bool FtApp::overlap_repair(RankState& st, long interval, const overlap::Classification& cls,
                           const ftmpi::Comm& bridge, const ftmpi::Comm& rcomm,
                           std::uint64_t epoch, std::vector<ftr::rec::ReplicaMessage> staged) {
  // The classic respawn (spawn on the failed ranks' hosts -> agree -> merge
  // -> ship old ranks -> ordered split), over the repair group only — the
  // continuation side is already stepping while this runs.  Its timings
  // stay out of the classic recon.* keys.
  ReconstructTimings unused;
  Comm rworld;
  const int rrc = st.recon.respawn(rcomm, cls.failed, st.wrank, unused, &rworld);
  if (rrc != kSuccess) {
    return overlap_abort_repair(st, bridge, rcomm, cls, epoch, "respawn");
  }

  // Verify the partial world in lockstep with the children's reconstruct()
  // iteration (errhandler + agree + barrier).  A *further* failure during
  // the verify respawns children with a membership this attempt's
  // bookkeeping no longer describes — treated as an overlap abort rather
  // than patched up mid-flight.
  const auto vres = st.recon.reconstruct(rworld);
  if (vres.exhausted || vres.repaired || vres.mode == RecoveryMode::Degraded) {
    ftr::observe_error(ftmpi::comm_revoke(vres.comm.is_null() ? rworld : vres.comm),
                       "ft_app.overlap.abort");
    return overlap_abort_repair(st, bridge, rcomm, cls, epoch, "verify");
  }
  rworld = vres.comm;

  OverlapView view;
  view.interval = interval;
  view.target = interval_target(interval);
  view.leader_rworld = cls.repair_leader_rworld();
  view.member_olds = cls.rworld;

  if (rworld.rank() == view.leader_rworld) {
    // Ship the run state to the children (they know nothing but their
    // partial world), then drain the staged manifests off the bridge.
    const std::set<int> fset(cls.failed.begin(), cls.failed.end());
    for (int p = 0; p < static_cast<int>(view.member_olds.size()); ++p) {
      if (fset.count(view.member_olds[static_cast<size_t>(p)]) == 0) continue;
      std::vector<long> wire;
      wire.push_back(view.interval);
      wire.push_back(view.target);
      wire.push_back(view.leader_rworld);
      wire.push_back(static_cast<long>(view.member_olds.size()));
      for (int m : view.member_olds) wire.push_back(m);
      if (ftmpi::send(wire.data(), static_cast<int>(wire.size()), p, overlap::kTagChildInfo,
                      rworld) != kSuccess) {
        ftr::observe_error(ftmpi::comm_revoke(rworld), "ft_app.overlap.abort");
        return overlap_abort_repair(st, bridge, rcomm, cls, epoch, "child_info");
      }
    }
    for (int r = 0; r < bridge.size(); ++r) {
      if (r == cls.repair_leader_shrunken) continue;
      ftmpi::Status stat;
      if (ftmpi::probe(r, overlap::kTagStage, bridge, &stat) != kSuccess) continue;
      std::vector<std::byte> buf(static_cast<size_t>(stat.count));
      if (ftmpi::recv_bytes(buf.data(), buf.size(), r, overlap::kTagStage, bridge, &stat) !=
          kSuccess) {
        continue;  // dead sender: its replicas are simply unavailable
      }
      auto reps = overlap::unpack_manifest(buf.data(), static_cast<size_t>(stat.count));
      staged.insert(staged.end(), std::make_move_iterator(reps.begin()),
                    std::make_move_iterator(reps.end()));
    }
  }

  if (!overlap_repair_world(st, std::move(rworld), view, bridge,
                            cls.continuation_leader_shrunken, epoch, /*is_child=*/false,
                            std::move(staged))) {
    return overlap_abort_repair(st, bridge, rcomm, cls, epoch, "repair_world");
  }
  return true;
}

bool FtApp::overlap_abort_restore(RankState& st, const ftmpi::Comm& rworld, const char* why) {
  // The revoke flushes every partial-world member (children included) out
  // of the protocol; survivors then run the abort convergence in
  // overlap_abort_repair(), children abort and get respawned classically.
  FTR_WARN("ft_app: overlap restoration failed at %s (rank %d)", why, st.wrank);
  ftr::observe_error(ftmpi::comm_revoke(rworld), "ft_app.overlap.abort");
  return false;
}

bool FtApp::overlap_repair_world(RankState& st, ftmpi::Comm rworld, const OverlapView& view,
                                 const ftmpi::Comm& bridge, int cont_leader_shrunken,
                                 std::uint64_t epoch, bool is_child,
                                 std::vector<ftr::rec::ReplicaMessage> staged) {
  Comm gc;
  const int split_rc = ftmpi::comm_split(rworld, st.grid, st.wrank, &gc);
  if (split_rc != kSuccess) {
    return overlap_abort_restore(st, rworld, "split");
  }
  st.gcomm = gc;
  if (is_child || !st.solver) {
    st.solver = std::make_unique<ParallelSolver>(
        layout_.slots[static_cast<size_t>(st.grid)].level, cfg_.problem, st.dt, st.gcomm);
  } else {
    st.solver->set_comm(st.gcomm);
  }

  // The leader plans the restoration from the staged manifests (the only
  // buddy knowledge that crossed the split) and broadcasts it like the
  // classic negotiation does; the lattice is restricted to Buddy -> Disk because
  // the RC partners live on the unreachable continuation side.
  ftr::rec::RecoveryPlan plan;
  if (rworld.rank() == view.leader_rworld) {
    GenerationMap gens;
    for (const auto& r : staged) gens[{r.grid, r.grank}].insert(r.step);
    plan = plan_lost_grids(st, layout_.grids_of_ranks(view.member_olds), gens,
                           ftr::rec::PlannerMode::Overlap);
  }
  if (bcast_plan(&plan, view.leader_rworld, rworld) != kSuccess) {
    return overlap_abort_restore(st, rworld, "plan");
  }

  // The leader pre-ships every Buddy replica with eager sends before anyone
  // blocks in its own grid's restore, so cross-grid restores cannot
  // deadlock on the leader being busy.
  const auto rank_of_old = [&](int old_rank) {
    const auto it =
        std::lower_bound(view.member_olds.begin(), view.member_olds.end(), old_rank);
    if (it == view.member_olds.end() || *it != old_rank) return -1;
    return static_cast<int>(it - view.member_olds.begin());
  };
  if (rworld.rank() == view.leader_rworld) {
    for (const auto& e : plan.entries) {
      if (e.action != ftr::rec::RecoveryAction::Buddy) continue;
      const int first = st.btopo.first_rank[static_cast<size_t>(e.grid)];
      const int nprocs = st.btopo.procs_per_grid[static_cast<size_t>(e.grid)];
      for (int gr = 0; gr < nprocs; ++gr) {
        const int dst = rank_of_old(first + gr);
        if (dst < 0 || dst == rworld.rank()) continue;
        const auto hit = std::find_if(staged.begin(), staged.end(), [&](const auto& r) {
          return r.grid == e.grid && r.grank == gr && r.step == e.step;
        });
        if (hit == staged.end()) continue;  // member detects the gap and revokes
        const auto buf = ftr::rec::pack_replica(e.grid, gr, e.step, hit->data);
        ftr::observe_error(ftmpi::send_bytes(buf.data(), buf.size(), dst,
                                             overlap::kTagRestore, rworld),
                           "ft_app.overlap.restore_ship");
      }
    }
  }

  // Execute this rank's own entry.
  for (const auto& e : plan.entries) {
    if (e.action == ftr::rec::RecoveryAction::Gcp || e.action == ftr::rec::RecoveryAction::Idle) {
      st.unrestored.insert(e.grid);  // uniform: from the agreed plan
      continue;
    }
    if (e.grid != st.grid) continue;
    if (e.action == ftr::rec::RecoveryAction::Buddy) {
      std::optional<ftr::rec::ReplicaMessage> msg;
      if (rworld.rank() == view.leader_rworld) {
        const auto hit = std::find_if(staged.begin(), staged.end(), [&](const auto& r) {
          return r.grid == e.grid && r.grank == st.gcomm.rank() && r.step == e.step;
        });
        if (hit != staged.end()) msg = *hit;
      } else {
        const size_t cells = static_cast<size_t>(st.solver->field().block().cells());
        std::vector<std::byte> buf(5 * sizeof(long) + cells * sizeof(double));
        ftmpi::Status stat;
        const int rc = ftmpi::recv_bytes(buf.data(), buf.size(), view.leader_rworld,
                                         overlap::kTagRestore, rworld, &stat);
        if (rc == kSuccess) {
          msg = ftr::rec::unpack_replica(buf.data(), static_cast<size_t>(stat.count));
        }
      }
      if (!restore_replica(st, msg, e.step, view.target)) {
        return overlap_abort_restore(st, rworld, "buddy_restore");
      }
    } else {  // Disk (RC rungs are gated off in PlannerMode::Overlap)
      cr_restore(st, std::vector<int>{st.grid}, view.target);
      if (st.gcomm.is_revoked()) {
        return overlap_abort_restore(st, rworld, "disk_restore");
      }
    }
  }

  // Completion barrier over the partial world, then the doorbell and the
  // handoff back onto the full-world rank layout.
  if (ftmpi::barrier(rworld) != kSuccess) {
    return overlap_abort_restore(st, rworld, "sync");
  }
  if (rworld.rank() == view.leader_rworld) {
    if (overlap::ring_doorbell(bridge, cont_leader_shrunken, overlap::kVerdictReady, epoch) !=
        kSuccess) {
      return overlap_abort_restore(st, rworld, "doorbell");
    }
  }
  Comm nworld;
  const int hrc = overlap::handoff(rworld, view.leader_rworld, /*continuation_side=*/false,
                                   st.wrank, bridge, cont_leader_shrunken, &nworld);
  if (hrc != kSuccess) {
    return overlap_abort_restore(st, rworld, "handoff");
  }
  if (!overlap_adopt(st, std::move(nworld),
                     view.member_olds[static_cast<size_t>(view.leader_rworld)], epoch)) {
    return overlap_abort_restore(st, rworld, "adopt");
  }
  if (rworld.rank() == view.leader_rworld) {
    ftmpi::runtime().add(keys::kOverlapHandoffs, 1.0);
    record_plan(plan);
  }
  return true;
}

void FtApp::overlap_child(RankState& st) {
  // We only know our partial world; the repair leader ships everything else.
  // The info wait is a bounded non-blocking loop: iprobe with kAnySource
  // never reports dead peers, so a repair group that died entirely before
  // sending would otherwise hang us forever — after the budget we abort and
  // the classic fallback (driven by the continuation side's timeout)
  // respawns us.
  const Comm rworld = st.world;
  constexpr double kWaitTick = 50e-6;
  constexpr double kWaitBudget = 30.0;
  const double t0 = ftmpi::wtime();
  ftmpi::Status stat;
  for (;;) {
    int flag = 0;
    if (ftmpi::iprobe(ftmpi::kAnySource, overlap::kTagChildInfo, rworld, &flag, &stat) !=
        kSuccess) {
      ftmpi::abort_self();
    }
    if (flag != 0) break;
    if (ftmpi::wtime() - t0 > kWaitBudget) {
      FTR_WARN("ft_app: overlap child timed out waiting for run state; aborting orphan");
      ftmpi::abort_self();
    }
    ftmpi::advance(kWaitTick);
  }
  // Probe counts are payload bytes; the wire is longs.
  std::vector<long> wire(static_cast<size_t>(std::max(stat.count, 0)) / sizeof(long));
  if (ftmpi::recv(wire.data(), static_cast<int>(wire.size()), stat.source,
                  overlap::kTagChildInfo, rworld) != kSuccess ||
      wire.size() < 4 ||
      wire.size() < 4 + static_cast<size_t>(std::max<long>(wire[3], 0))) {
    ftmpi::abort_self();
  }
  OverlapView view;
  view.interval = wire[0];
  view.target = wire[1];
  view.leader_rworld = static_cast<int>(wire[2]);
  for (long i = 0; i < wire[3]; ++i) {
    view.member_olds.push_back(static_cast<int>(wire[4 + static_cast<size_t>(i)]));
  }
  if (rworld.rank() < 0 ||
      rworld.rank() >= static_cast<int>(view.member_olds.size())) {
    ftmpi::abort_self();
  }
  st.wrank = view.member_olds[static_cast<size_t>(rworld.rank())];
  st.grid = layout_.grid_of_rank(st.wrank);
  st.bcast_interval = view.interval;

  st.overlap_active = true;
  const bool ok = overlap_repair_world(st, rworld, view, Comm{}, -1, /*epoch=*/0,
                                       /*is_child=*/true, {});
  st.overlap_active = false;
  if (!ok) ftmpi::abort_self();
}

bool FtApp::overlap_adopt(RankState& st, ftmpi::Comm nworld, int leader_old,
                          [[maybe_unused]] std::uint64_t epoch) {
  // This rank has acked the doorbell: the pre-handoff world (and the side
  // comm of the attempt) is dead weight from here on.  Under FTR_PSAN a
  // straggler collective on either context aborts with a pinned diagnostic.
  FTR_PSAN_HANDOFF(st.world, epoch);
  st.world = std::move(nworld);
  st.wrank = st.world.rank();
  // Agree on the unrestored set (the continuation side has not seen the
  // repair plan's Gcp/Idle outcomes).  Failure tolerated non-uniformly,
  // same idiom as the classic post-repair broadcast: a fresh failure here
  // surfaces at the next detection point.
  long n = static_cast<long>(st.unrestored.size());
  std::vector<long> ids(st.unrestored.begin(), st.unrestored.end());
  if (ftmpi::bcast(&n, 1, leader_old, st.world) != kSuccess) return false;
  ids.resize(static_cast<size_t>(std::max<long>(n, 0)));
  if (!ids.empty() &&
      ftmpi::bcast(ids.data(), static_cast<int>(ids.size()), leader_old, st.world) !=
          kSuccess) {
    return false;
  }
  for (long id : ids) st.unrestored.insert(static_cast<int>(id));
  if (st.wrank == 0) {
    ++st.repairs;
    ++st.recon_attempts;
  }
  return true;
}

void FtApp::recovery_and_combine(RankState& st) {
  const Technique tech = cfg_.layout.technique;
  const auto& sim = cfg_.failures.simulated_lost_grids;

  // --- simulated-loss recovery (Figs. 9 and 10 mode) -----------------------
  if (!sim.empty()) {
    ftr::observe_error(ftmpi::barrier(st.world), "ft_app.sim.barrier");
    const double t0 = ftmpi::wtime();
    restore_lost_grids(st, sim, cfg_.timesteps, /*charge_gcp_coeffs=*/true);
    ftr::observe_error(ftmpi::barrier(st.world), "ft_app.sim.barrier");
    if (st.wrank == 0) st.recovery_time += ftmpi::wtime() - t0;
  }

  // --- combination ----------------------------------------------------------
  // The combination excludes exactly the grids no lattice rung restored
  // (st.unrestored, agreed through the plan): the classic combination when
  // everything came back, GCP coefficients around the remainder otherwise
  // (AC's deliberate choice, and every technique's shrink-mode fallback).
  const std::set<int> lost_now = st.unrestored;

  ftr::observe_error(ftmpi::barrier(st.world), "ft_app.combine.barrier");
  const double t_comb = ftmpi::wtime();
  std::map<int, Grid2D> rank0_grids;      // world rank 0 only
  std::map<int, Grid2D> rank0_recovered;  // world rank 0 only

  // Deterministic contributor set, computable by every rank.
  std::vector<Level> lost_levels;
  for (int id : lost_now) {
    lost_levels.push_back(layout_.slots[static_cast<size_t>(id)].level);
  }
  const ftr::comb::CoefficientProblem gcp(cfg_.layout.scheme, gcp_depth());
  const auto coeffs = gcp.solve(lost_levels);
  std::vector<std::pair<int, double>> contributors;  // grid id, coefficient
  if (coeffs.has_value()) {
    for (const auto& slot : layout_.slots) {
      if (slot.role == GridRole::Duplicate) continue;
      if (lost_now.count(slot.id) != 0) continue;
      const double c = coeffs->coefficient_of(slot.level);
      if (c != 0.0) contributors.emplace_back(slot.id, c);
    }
  } else if (st.wrank == 0) {
    FTR_ERROR("ft_app: loss pattern infeasible for the available layers");
  }

  // Grid groups gather their solution; roots ship it to world rank 0.
  for (const auto& [gid, coeff] : contributors) {
    (void)coeff;
    if (st.grid != gid) continue;
    Grid2D full;
    if (st.solver->gather_full(&full) != kSuccess) continue;
    if (st.gcomm.rank() == 0 && st.wrank != 0) {
      const int src_rc = ftmpi::send(full.data().data(), static_cast<int>(full.data().size()),
                                     0, kTagGridToRoot + gid, st.world);
      if (src_rc != kSuccess) {
        // World rank 0 gone this late means no combined report at all;
        // nothing useful to do beyond surfacing it.
        FTR_WARN("ft_app: combination ship of grid %d failed (%s)", gid,
                 ftmpi::error_string(src_rc));
      }
    } else if (st.wrank == 0) {
      rank0_grids[gid] = std::move(full);  // rank 0 is grid 0's root
    }
  }

  Grid2D combined;
  if (st.wrank == 0) {
    std::vector<ftr::comb::Component> parts;
    for (const auto& [gid, coeff] : contributors) {
      auto it = rank0_grids.find(gid);
      if (it == rank0_grids.end()) {
        Grid2D g(layout_.slots[static_cast<size_t>(gid)].level);
        // Degraded worlds are compacted: translate the grid root's original
        // rank to its shrunken-communicator rank.
        const int orig_root = layout_.root_rank_of_grid(gid);
        const int src = st.degraded ? st.dview.new_rank_of(orig_root) : orig_root;
        const int crc = ftmpi::recv(g.data().data(), static_cast<int>(g.data().size()), src,
                                    kTagGridToRoot + gid, st.world);
        if (crc != kSuccess) {
          // The contributor died after the last detection point; its slot
          // stays zeroed and the combination degrades rather than hangs.
          FTR_WARN("ft_app: combination input from grid %d missing (%s)", gid,
                   ftmpi::error_string(crc));
        }
        it = rank0_grids.emplace(gid, std::move(g)).first;
      }
      parts.push_back(ftr::comb::Component{&it->second, coeff});
    }
    combined = ftr::comb::combine_full(cfg_.layout.scheme, parts);
    // Charge the interpolation work of the combination.
    ftmpi::charge_flops(10.0 * static_cast<double>(combined.size()) *
                        static_cast<double>(parts.size()));
  }

  // AC: recovered data for the lost grids is a sample of the combined
  // solution; push it back onto the lost groups.  Degraded runs skip this:
  // the lost groups are incomplete (their survivors idle), so the recovered
  // data lives only in the combined solution.
  if (tech == Technique::AlternateCombination && !st.degraded) {
    for (int gid : lost_now) {
      const Level lv = layout_.slots[static_cast<size_t>(gid)].level;
      if (st.wrank == 0) {
        Grid2D rec(lv);
        ftr::grid::interpolate(combined, rec);
        if (layout_.root_rank_of_grid(gid) == 0) {
          rank0_recovered[gid] = std::move(rec);
        } else {
          // Failed push-back: the lost group revokes on its matching recv
          // error and the next detection point replans.
          ftr::observe_error(
              ftmpi::send(rec.data().data(), static_cast<int>(rec.data().size()),
                          layout_.root_rank_of_grid(gid), kTagRecovered + gid, st.world),
              "ft_app.ac.scatter");
        }
      }
      if (st.grid == gid) {
        Grid2D rec(lv);
        if (st.gcomm.rank() == 0) {
          if (st.wrank == 0) {
            rec = std::move(rank0_recovered[gid]);
          } else {
            const int arc = ftmpi::recv(rec.data().data(), static_cast<int>(rec.data().size()),
                                        0, kTagRecovered + gid, st.world);
            if (arc != kSuccess) {
              // Keep the group's scatter uniform with zeroed data; the run is
              // ending, so there is no later detection point to lean on.
              FTR_WARN("ft_app: recovered-data fetch for grid %d failed (%s)", gid,
                       ftmpi::error_string(arc));
            }
          }
        }
        st.solver->scatter_full(rec);
        st.solver->set_steps_done(cfg_.timesteps);
      }
    }
  }

  ftr::observe_error(ftmpi::barrier(st.world), "ft_app.combine.barrier");

  // --- final report (rank 0) -------------------------------------------------
  if (st.wrank == 0) {
    ftmpi::Runtime& rt = ftmpi::runtime();
    rt.put(keys::kCombineTime, ftmpi::wtime() - t_comb);
    if (!combined.data().empty()) {
      const double t_final = static_cast<double>(cfg_.timesteps) * st.dt;
      const double err = ftr::grid::l1_error(combined, [&](double x, double y) {
        return cfg_.problem.exact(x, y, t_final);
      });
      rt.put(keys::kErrorL1, err);
    }
    rt.put(keys::kTotalTime, ftmpi::wtime());
    rt.put(keys::kSolveTime, st.solve_time);
    rt.put(keys::kProcs, static_cast<double>(layout_.total_procs));
    rt.put(keys::kRepairs, static_cast<double>(st.repairs));
    rt.put(keys::kReconTotal, st.recon_sum.total);
    rt.put(keys::kReconFailedList, st.recon_sum.failed_list);
    rt.put(keys::kReconShrink, st.recon_sum.shrink);
    rt.put(keys::kReconSpawn, st.recon_sum.spawn);
    rt.put(keys::kReconAgree, st.recon_sum.agree);
    rt.put(keys::kReconMerge, st.recon_sum.merge);
    rt.put(keys::kReconSplit, st.recon_sum.split);
    rt.put(keys::kRecoveryTime, st.recovery_time);
    rt.put(keys::kCkptWriteTotal, st.ckpt_write_total);
    rt.put(keys::kCkptWrites, static_cast<double>(store_->writes()));
    rt.put(keys::kReconMode,
           st.degraded ? 2.0 : (st.repairs > 0 ? 1.0 : 0.0));
    rt.put(keys::kReconAttempts, static_cast<double>(st.recon_attempts));
    rt.put(keys::kSurvivors, static_cast<double>(st.world.size()));
    rt.put(keys::kBuddyReplications, static_cast<double>(buddy_->replications()));
    rt.put(keys::kBuddyReplBytes, static_cast<double>(buddy_->replicated_bytes()));
    rt.put(keys::kBuddyReplTime, st.buddy_repl_time);
  }
}

}  // namespace ftr::core
