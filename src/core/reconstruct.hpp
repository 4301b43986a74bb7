#pragma once
// Communicator reconstruction after process failure — the paper's central
// protocol (Figs. 3-7).
//
// Unlike shrink-and-continue approaches, the repaired communicator has the
// *same size and rank order* as before the failure: failed ranks are
// re-spawned on the hosts they occupied (hostfile index = rank / SLOTS) and
// re-assigned their old ranks through an ordered comm-split, preserving the
// application's communication pattern and load balance.
//
// The sequence, per Fig. 3 / Fig. 5:
//
//   parents:  errhandler -> agree -> barrier (detect)
//             on failure: revoke -> shrink -> failed-list (group diff)
//                         -> spawn on original hosts -> agree (intercomm)
//                         -> intercomm merge -> send old ranks to children
//                         -> ordered split -> repaired comm
//   children: errhandler -> agree (parent intercomm) -> merge
//             -> recv old rank -> ordered split -> become parents
//
// Deviation from the paper's listing: Fig. 5 merges the intercommunicator
// (line 14) before agreeing on it (line 15) while children agree first
// (line 21); in a strictly synchronous runtime those orders deadlock
// against each other, so both sides here agree before merging.  See
// DESIGN.md.
//
// Cascading failures — a process dying *during* the repair itself — are
// handled by making repair() re-entrant: any protocol step that fails
// (observed uniformly by all survivors, see docs/ARCHITECTURE.md, "Failure
// model and recovery state machine") sends the survivors back to revoke
// with an exponential virtual-time backoff, up to a bounded retry budget.
// Respawned children whose bring-up protocol fails simply abort; the next
// repair attempt respawns them.  When replacements cannot be *placed* at
// all (bounded cluster, kErrSpawn), repair degrades to shrink-mode
// recovery: the shrunken communicator itself becomes the result and the
// caller recomputes its layout over the survivors.
//
// Every ULFM primitive is timed (virtual clocks), which is what the Fig. 8
// and Table I benches report.

#include <string>
#include <vector>

#include "ftmpi/api.hpp"

namespace ftr::core {

/// Per-primitive timings of one reconstruction (virtual seconds).
struct ReconstructTimings {
  double total = 0;         ///< whole communicatorReconstruct (Fig. 3)
  /// Failure identification (Fig. 8a): the agree + detecting barrier that
  /// establish globally consistent failure knowledge, plus the
  /// failedProcsList group difference (Fig. 6).
  double failed_list = 0;
  double revoke = 0;
  double shrink = 0;        ///< OMPI_Comm_shrink, Table I
  double spawn = 0;         ///< MPI_Comm_spawn_multiple, Table I
  double agree = 0;         ///< OMPI_Comm_agree (intercomm), Table I
  double merge = 0;         ///< MPI_Intercomm_merge, Table I
  double split = 0;         ///< ordered MPI_Comm_split

  ReconstructTimings& operator+=(const ReconstructTimings& o) {
    total += o.total;
    failed_list += o.failed_list;
    revoke += o.revoke;
    shrink += o.shrink;
    spawn += o.spawn;
    agree += o.agree;
    merge += o.merge;
    split += o.split;
    return *this;
  }
};

/// How a reconstruction concluded.
enum class RecoveryMode {
  None,      ///< no failure was detected
  Repaired,  ///< full repair: original size and rank order restored
  /// Replacements could not be placed; execution continues on the shrunken
  /// communicator and the caller re-derives its layout over the survivors.
  Degraded,
};

struct ReconstructResult {
  ftmpi::Comm comm;              ///< the repaired (or degraded) communicator
  bool repaired = false;         ///< false when no failure was detected
  RecoveryMode mode = RecoveryMode::None;
  int iterations = 0;            ///< Fig. 3 do-while iterations
  int attempts = 0;              ///< repair attempts, all iterations combined
  /// True when the retry or iteration budget ran out before a verified
  /// communicator was produced; `comm` is then not usable.
  bool exhausted = false;
  /// Union of the original ranks replaced (or lost, in degraded mode)
  /// across every repair of this reconstruction.
  std::vector<int> failed_ranks;
  ReconstructTimings timings;
};

class Reconstructor {
 public:
  struct Config {
    /// Registered application name to re-exec for replacement processes
    /// (the paper's "./ApplicationName").
    std::string app_name;
    /// argv passed to respawned processes (the paper forwards argv).
    std::vector<std::string> argv;
  };

  explicit Reconstructor(Config cfg) : cfg_(std::move(cfg)) {}

  /// The paper's communicatorReconstruct (Fig. 3).  Parents call it with
  /// their current world when a failure is suspected (or to probe);
  /// children (respawned processes) call it with a null comm immediately
  /// after startup.  Loops until a barrier over the reconstructed
  /// communicator succeeds, within a bounded iteration budget.
  ReconstructResult reconstruct(ftmpi::Comm my_world);

  /// The paper's failedProcsList (Fig. 6): identify failed ranks by group
  /// difference between the broken and the shrunken communicator.
  static std::vector<int> failed_procs_list(const ftmpi::Comm& broken,
                                            const ftmpi::Comm& shrunken);

  /// The paper's selectRankKey (Fig. 7): the split key that restores a
  /// survivor's original rank (children use their received old rank).
  static int select_rank_key(int merged_rank, int shrunken_size,
                             const std::vector<int>& failed_ranks, int total_procs);

  /// Respawn `failed` into `group` (the parent side of Fig. 5 after the
  /// shrink): spawn one replacement per failed rank on host
  /// failed[i] / SLOTS -> intercomm agree -> merge (parents low) -> merged
  /// rank 0 ships child i its old rank failed[i] (kMergeTag) -> ordered
  /// split keyed by `my_key`.  Collective over `group`; the children run
  /// reconstruct()'s child path.  Adds each primitive's virtual time to
  /// `t` and returns the first error code (kErrSpawn when the replacements
  /// cannot be placed); on success *out is the merged, reordered comm.
  /// The classic repair calls it on the whole shrunken world, overlapped
  /// recovery on its repair sub-communicator.
  FTR_NODISCARD int respawn(const ftmpi::Comm& group, const std::vector<int>& failed,
                            int my_key, ReconstructTimings& t, ftmpi::Comm* out);

 private:
  /// The paper's repairComm (Fig. 5) wrapped in the bounded retry loop:
  /// calls repair_once() until it succeeds (possibly degraded) or the retry
  /// budget is spent, backing off between attempts.
  int repair(ftmpi::Comm& broken, ReconstructResult& out);
  /// One pass of Fig. 5, restartable: revoke -> shrink -> respawn().
  /// Intermediate communicators and Info objects are released on every
  /// exit path.
  int repair_once(ftmpi::Comm& broken, ReconstructResult& out);

  Config cfg_;
};

/// The paper's MERGE_TAG used to ship old ranks to the spawned children.
inline constexpr int kMergeTag = 900;

}  // namespace ftr::core
