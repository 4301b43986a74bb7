#include "core/reconstruct.hpp"

#include <algorithm>
#include <cassert>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "core/raii.hpp"
#include "ftmpi/mpi_compat.hpp"

namespace ftr::core {

using namespace ftmpi::compat;

namespace {

/// Retry budget of repair(): how many times one failure detection may
/// restart from revoke when the repair itself is hit by further failures.
constexpr int kMaxRepairAttempts = 10;
/// Virtual-time backoff before the second repair attempt; multiplied by
/// kBackoffFactor after each further attempt.  Identical on every survivor,
/// so the backoff keeps their virtual clocks in step.
constexpr double kBackoffBase = 1e-4;
constexpr double kBackoffFactor = 2.0;
/// Bound on the Fig. 3 do-while: each verified-then-failed-again
/// communicator consumes one iteration.
constexpr int kMaxReconstructIterations = 32;

/// The paper's mpiErrorHandler (Fig. 4): acknowledge the failures known on
/// the communicator.  (The paper notes a small delay is sometimes needed in
/// the beta ULFM; our runtime has no such race.)
void mpi_error_handler(MPI_Comm* comm, int* /*error_code*/) {
  // The handler runs while the communicator is already erroring; ack/get
  // failures here cannot be acted on, only observed.
  ftr::observe_error(OMPI_Comm_failure_ack(*comm), "errhandler.ack");
  MPI_Group failed_group;
  ftr::observe_error(OMPI_Comm_failure_get_acked(*comm, &failed_group), "errhandler.acked");
}

void merge_failed_ranks(std::vector<int>* acc, const std::vector<int>& more) {
  for (int r : more) {
    if (std::find(acc->begin(), acc->end(), r) == acc->end()) acc->push_back(r);
  }
  std::sort(acc->begin(), acc->end());
}

}  // namespace

std::vector<int> Reconstructor::failed_procs_list(const ftmpi::Comm& broken,
                                                  const ftmpi::Comm& shrunken) {
  // Fig. 6: compare the old and shrunken groups, take the difference, and
  // translate its members back to ranks of the broken communicator.
  MPI_Group old_group, shrink_group;
  MPI_Comm_group(broken, &old_group);
  MPI_Comm_group(shrunken, &shrink_group);

  int result = MPI_IDENT;
  MPI_Group_compare(old_group, shrink_group, &result);
  if (result == MPI_IDENT) return {};

  MPI_Group failed_group;
  MPI_Group_difference(old_group, shrink_group, &failed_group);
  int total_failed = 0;
  MPI_Group_size(failed_group, &total_failed);

  std::vector<int> temp_ranks(static_cast<size_t>(total_failed));
  for (int i = 0; i < total_failed; ++i) temp_ranks[static_cast<size_t>(i)] = i;
  std::vector<int> failed_ranks(static_cast<size_t>(total_failed));
  MPI_Group_translate_ranks(failed_group, total_failed, temp_ranks.data(), old_group,
                            failed_ranks.data());
  return failed_ranks;
}

int Reconstructor::select_rank_key(int merged_rank, [[maybe_unused]] int shrunken_size,
                                   const std::vector<int>& failed_ranks, int total_procs) {
  // Fig. 7: survivors keep their original rank as the split key.  Build the
  // list of surviving original ranks in order; merged rank i (a survivor,
  // i < shrunken_size) originally held the i-th surviving rank.
  std::vector<int> shrink_merge_list;
  shrink_merge_list.reserve(static_cast<size_t>(total_procs));
  for (int r = 0; r < total_procs; ++r) {
    bool failed = false;
    for (int f : failed_ranks) failed = failed || f == r;
    if (!failed) shrink_merge_list.push_back(r);
  }
  assert(merged_rank < shrunken_size);
  assert(static_cast<size_t>(shrunken_size) == shrink_merge_list.size());
  return shrink_merge_list[static_cast<size_t>(merged_rank)];
}

int Reconstructor::respawn(const ftmpi::Comm& group, const std::vector<int>& failed,
                           int my_key, ReconstructTimings& t, ftmpi::Comm* out) {
  const int slots = ftmpi::runtime().slots_per_host();
  const int total_failed = static_cast<int>(failed.size());
  // Spawn the replacements on the hosts the failed ranks occupied
  // (hostfile line = rank / SLOTS), preserving load balance.
  std::vector<std::string> commands;
  std::vector<std::vector<std::string>> argvs;
  std::vector<int> maxprocs;
  std::vector<MPI_Info> infos;
  for (int i = 0; i < total_failed; ++i) {
    commands.push_back(cfg_.app_name);
    argvs.push_back(cfg_.argv);
    maxprocs.push_back(1);
    MPI_Info info;
    MPI_Info_create(&info);
    MPI_Info_set_host(&info, failed[static_cast<size_t>(i)] / slots);
    infos.push_back(info);
  }
  double t0 = MPI_Wtime();
  MPI_Comm temp_intercomm;
  int rc = MPI_Comm_spawn_multiple(total_failed, commands, argvs, maxprocs, infos, 0, group,
                                   &temp_intercomm, MPI_ERRCODES_IGNORE);
  t.spawn += MPI_Wtime() - t0;
  for (MPI_Info& info : infos) MPI_Info_free(&info);
  if (rc != MPI_SUCCESS) return rc;
  CommGuard inter_guard(&temp_intercomm);

  // Synchronize with the children over the intercommunicator (parent part).
  // Note: agree precedes merge on both sides (see header).  The agreement
  // also *validates* the spawn: if any parent or child died between spawn
  // and here, every participant observes the same failure and restarts
  // from revoke (parents) or aborts (children).
  t0 = MPI_Wtime();
  int flag = 1;
  FTR_DEBUG("repair: pid %d spawn done, entering inter agree", ftmpi::self_pid());
  rc = OMPI_Comm_agree(temp_intercomm, &flag);
  t.agree += MPI_Wtime() - t0;
  FTR_DEBUG("repair: pid %d inter agree rc=%d", ftmpi::self_pid(), rc);
  if (rc != MPI_SUCCESS) return rc;

  t0 = MPI_Wtime();
  MPI_Comm unorder_intracomm;
  rc = MPI_Intercomm_merge(temp_intercomm, /*high=*/0, &unorder_intracomm);
  t.merge += MPI_Wtime() - t0;
  FTR_DEBUG("repair: pid %d merge rc=%d", ftmpi::self_pid(), rc);
  if (rc != MPI_SUCCESS) return rc;
  CommGuard merged_guard(&unorder_intracomm);

  // Rank 0 ships each child its old (failed) rank.  A failed send means the
  // child just died; do NOT return early — the peers are already headed
  // into the ordered split, which detects the death uniformly and sends
  // everyone back to revoke together.
  int new_rank = 0;
  MPI_Comm_rank(unorder_intracomm, &new_rank);
  if (new_rank == 0) {
    for (int i = 0; i < total_failed; ++i) {
      const int child = group.size() + i;
      rc = MPI_Send(&failed[static_cast<size_t>(i)], 1, MPI_INT, child, kMergeTag,
                    unorder_intracomm);
      if (rc != MPI_SUCCESS) {
        FTR_WARN("repair: old-rank send to child %d failed (%s); split will detect it",
                 child, ftmpi::error_string(rc));
      }
    }
  }

  // Ordered split restores the original rank layout (Fig. 7 keys).
  t0 = MPI_Wtime();
  rc = MPI_Comm_split(unorder_intracomm, 0, my_key, out);
  t.split += MPI_Wtime() - t0;
  FTR_DEBUG("repair: pid %d ordered split rc=%d", ftmpi::self_pid(), rc);
  return rc;
}

int Reconstructor::repair_once(ftmpi::Comm& broken, ReconstructResult& out) {
  // Fig. 5: repairComm, one restartable pass.
  double t0 = MPI_Wtime();
  // A revoke racing another revoke (or a dead comm) is fine: the pass only
  // needs everyone out of blocking calls, which either outcome achieves.
  ftr::observe_error(OMPI_Comm_revoke(&broken), "repair.revoke");
  out.timings.revoke += MPI_Wtime() - t0;

  t0 = MPI_Wtime();
  MPI_Comm shrunken;
  FTR_DEBUG("repair: pid %d entering shrink", ftmpi::self_pid());
  int rc = OMPI_Comm_shrink(broken, &shrunken);
  out.timings.shrink += MPI_Wtime() - t0;
  if (rc != MPI_SUCCESS) return rc;
  CommGuard shrunken_guard(&shrunken);

  t0 = MPI_Wtime();
  const std::vector<int> failed_ranks = failed_procs_list(broken, shrunken);
  out.timings.failed_list += MPI_Wtime() - t0;
  merge_failed_ranks(&out.failed_ranks, failed_ranks);
  if (failed_ranks.empty()) {
    out.comm = shrunken_guard.release();  // nothing to repair (spurious detection)
    return MPI_SUCCESS;
  }
  int total_procs = 0;
  MPI_Comm_size(broken, &total_procs);

  // Parents are merged low, in shrunken order, so merged rank == shrunken
  // rank selects the survivor's original rank as its split key.
  const int rank_key =
      select_rank_key(shrunken.rank(), shrunken.size(), failed_ranks, total_procs);
  rc = respawn(shrunken, failed_ranks, rank_key, out.timings, &out.comm);
  if (rc == MPI_ERR_SPAWN) {
    // Graceful degradation: the cluster has no room for replacements
    // (kErrSpawn is decided by the spawn root and delivered uniformly), so
    // recovery continues on the shrunken communicator itself.  The caller
    // re-derives grid layout and combination coefficients over the
    // survivors.
    FTR_WARN("repair: cannot place %d replacements (%s); degrading to shrink-mode recovery "
             "with %d survivors",
             static_cast<int>(failed_ranks.size()), ftmpi::error_string(rc), shrunken.size());
    out.mode = RecoveryMode::Degraded;
    out.comm = shrunken_guard.release();
    return MPI_SUCCESS;
  }
  if (rc != MPI_SUCCESS) return rc;
  if (out.mode != RecoveryMode::Degraded) out.mode = RecoveryMode::Repaired;
  return MPI_SUCCESS;
}

int Reconstructor::repair(ftmpi::Comm& broken, ReconstructResult& out) {
  // Bounded retry around repair_once: every failure mode of the pass is
  // observed uniformly by all survivors (see ARCHITECTURE.md), so they
  // restart from revoke in lockstep.  The backoff is charged to virtual
  // time, mirroring a real implementation yielding before re-probing.
  double backoff = kBackoffBase;
  int rc = MPI_ERR_PROC_FAILED;
  for (int attempt = 1; attempt <= kMaxRepairAttempts; ++attempt) {
    ++out.attempts;
    rc = repair_once(broken, out);
    if (rc == MPI_SUCCESS) return rc;
    FTR_WARN("repair: attempt %d/%d failed (%s); restarting from revoke after %.2e s",
             attempt, kMaxRepairAttempts, ftmpi::error_string(rc), backoff);
    ftmpi::advance(backoff);
    backoff *= kBackoffFactor;
  }
  out.exhausted = true;
  return rc;
}

ReconstructResult Reconstructor::reconstruct(ftmpi::Comm my_world) {
  // Fig. 3: communicatorReconstruct.
  ReconstructResult out;
  const double t_start = MPI_Wtime();

  // Attribution for the failure-detector work: when the detector already
  // knows of a dead member at entry, the barrier below merely confirms it —
  // this rank reached the repair proactively (or a peer's knowledge beat
  // the collective's own failure).  Recorded runtime-wide so runs can
  // compare proactive vs reactive repair entries; free in virtual time.
  if (!my_world.is_null() && ftmpi::detector_knows_failure_in(my_world)) {
    ftmpi::runtime().add("recon.detector_preknown", 1.0);
  }

  MPI_Errhandler new_err_hand;
  MPI_Comm_create_errhandler(mpi_error_handler, &new_err_hand);
  MPI_Comm parent;
  MPI_Comm_get_parent(&parent);

  MPI_Comm reconstructed = my_world;
  int iter_counter = 0;
  bool failure = false;
  do {
    failure = false;
    int return_value = MPI_SUCCESS;
    if (parent.is_null()) {
      // Parent path.
      if (iter_counter == 0) reconstructed = my_world;
      ftr::observe_error(MPI_Comm_set_errhandler(reconstructed, new_err_hand),
                         "reconstruct.errhandler");
      int flag = 1;
      const double t_detect = MPI_Wtime();
      // The agree only synchronizes entry; detection is the barrier's job,
      // so an agree error here is deliberately left to the barrier.
      ftr::observe_error(OMPI_Comm_agree(reconstructed, &flag), "reconstruct.sync.agree");
      return_value = MPI_Barrier(reconstructed);       // detect failure
      FTR_DEBUG("reconstruct: pid %d sync barrier rc=%d", ftmpi::self_pid(), return_value);
      if (return_value != MPI_SUCCESS) {
        // Failure identification (Fig. 8a): the collective work of reaching
        // globally consistent failure knowledge — agree + the detecting
        // barrier + the error-handler acks — plus the group-difference
        // bookkeeping added by repair() below.
        out.timings.failed_list += MPI_Wtime() - t_detect;
        const int rc = repair(reconstructed, out);
        if (rc == MPI_SUCCESS) {
          // Drop the broken handle.
          ftr::observe_error(MPI_Comm_free(&reconstructed), "reconstruct.free");
          reconstructed = out.comm;
          out.repaired = true;
        } else {
          FTR_ERROR("reconstruct: repair failed after %d attempts: %s", out.attempts,
                    ftmpi::error_string(rc));
          out.exhausted = true;
          break;  // give up; the caller inspects `exhausted`
        }
        failure = true;
      }
    } else {
      // Child path: a freshly spawned replacement process.  Any protocol
      // failure here means the repair pass we belong to is being abandoned
      // (the parents observe the same failure and restart from revoke, which
      // respawns us) — an orphaned child simply aborts.
      ftr::observe_error(MPI_Comm_set_errhandler(parent, new_err_hand),
                         "reconstruct.errhandler");
      int flag = 1;
      return_value = OMPI_Comm_agree(parent, &flag);  // synchronize (child part)
      if (return_value != MPI_SUCCESS) {
        FTR_WARN("reconstruct(child): intercomm agree failed (%s); aborting orphan",
                 ftmpi::error_string(return_value));
        ftmpi::abort_self();
      }

      MPI_Comm unorder_intracomm;
      return_value = MPI_Intercomm_merge(parent, /*high=*/1, &unorder_intracomm);
      if (return_value != MPI_SUCCESS) {
        FTR_WARN("reconstruct(child): merge failed (%s); aborting orphan",
                 ftmpi::error_string(return_value));
        ftmpi::abort_self();
      }

      int old_rank = -1;
      MPI_Status status;
      return_value =
          MPI_Recv(&old_rank, 1, MPI_INT, 0, kMergeTag, unorder_intracomm, &status);
      if (return_value != MPI_SUCCESS) {
        FTR_WARN("reconstruct(child): old-rank recv failed (%s); aborting orphan",
                 ftmpi::error_string(return_value));
        ftmpi::abort_self();
      }

      MPI_Comm temp_intracomm;
      return_value = MPI_Comm_split(unorder_intracomm, 0, old_rank, &temp_intracomm);
      ftr::observe_error(MPI_Comm_free(&unorder_intracomm), "reconstruct.free");
      if (return_value != MPI_SUCCESS) {
        FTR_WARN("reconstruct(child): ordered split failed (%s); aborting orphan",
                 ftmpi::error_string(return_value));
        ftmpi::abort_self();
      }
      reconstructed = temp_intracomm;
      out.repaired = true;
      if (out.mode == RecoveryMode::None) out.mode = RecoveryMode::Repaired;

      // Become a parent: next iteration verifies the repaired communicator.
      parent = MPI_COMM_NULL;
      ftmpi::set_parent(MPI_COMM_NULL);
      failure = true;
    }
    ++iter_counter;
    if (failure && iter_counter >= kMaxReconstructIterations) {
      FTR_ERROR("reconstruct: iteration budget exhausted (%d); giving up",
                kMaxReconstructIterations);
      out.exhausted = true;
      break;
    }
  } while (failure);

  out.comm = reconstructed;
  out.iterations = iter_counter;
  out.timings.total = MPI_Wtime() - t_start;
  return out;
}

}  // namespace ftr::core
