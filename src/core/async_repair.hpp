#pragma once
// Non-blocking overlapped recovery (the background-repair state machine).
//
// The paper's recovery path — and our classic reconstruct() — is
// stop-the-world: every survivor parks in shrink/spawn/merge while the
// failed minority is rebuilt.  This module turns repair into a *background
// task*.  On a detector-confirmed failure (or a tripped collective), the
// survivors run one cheap synchronous prefix on the revoked world:
//
//   revoke -> shrink -> failed-rank classification -> continuation/repair
//   split ("repair.split" chaos point)
//
// and then diverge.  Survivors whose grids lost no member move onto a
// derived *continuation* sub-communicator and keep time-stepping; the
// survivors of the affected grids form the *repair* group and run the
// expensive part — spawn/merge/ordered-split plus data restoration —
// asynchronously behind that compute.  Buddy replicas held by continuation
// ranks are staged to the repair leader during the prefix with eager sends
// (injection cost only), so the repair group's restoration never blocks a
// continuation rank.
//
// The two sides meet again at the *doorbell handoff*: the repair leader
// rings a versioned DoorbellWire (repair epoch + detector epoch) over the
// still-live shrunken bridge; continuation ranks poll it group-consistently
// at step boundaries and, on READY, both sides join the repaired full world
// via intercomm_create + intercomm_merge + an ordered split back to the
// original rank layout.  Any failure during the overlap converges every
// survivor onto the classic stop-the-world reconstruct() of the old revoked
// world (ABORT doorbell or bridge revocation; orphaned children abort).
//
// This header holds the protocol pieces (classification, staging wire
// format, doorbell, handoff); the per-rank orchestration lives in
// ft_app.cpp, which owns the solver and recovery state.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.hpp"
#include "core/layout.hpp"
#include "ftmpi/api.hpp"
#include "recovery/buddy.hpp"

namespace ftr::core::overlap {

/// User-plane tags of the overlap protocol on the shrunken bridge and the
/// partial repaired world (well clear of the app's 300..500 range and the
/// buddy store's 9100/9200 range).
inline constexpr int kTagDoorbell = 9300;  ///< repair group -> continuation leader
inline constexpr int kTagStage = 9310;     ///< survivor -> repair leader (replica manifest)
inline constexpr int kTagRestore = 9320;   ///< repair leader -> grid member (+grid id)
inline constexpr int kTagChildInfo = 9330;  ///< repair leader -> respawned child (run state)

/// Doorbell verdicts.
enum Verdict : int {
  kVerdictNone = 0,   ///< no doorbell yet (keep stepping / keep waiting)
  kVerdictReady = 1,  ///< repaired partial world is complete; hand off now
  kVerdictAbort = 2,  ///< background repair failed; fall back to stop-the-world
};

/// The versioned repaired-world announcement.  `repair_epoch` identifies
/// the overlap attempt it belongs to (a doorbell from an aborted earlier
/// attempt must never trigger a handoff); `detector_epoch` carries the
/// sender's failure-knowledge version for the detector-freshness check,
/// exactly like the heartbeat/gossip wires.
struct DoorbellWire {
  std::int32_t verdict = kVerdictNone;
  std::int32_t pad = 0;
  std::uint64_t repair_epoch = 0;
  std::uint64_t detector_epoch = 0;
};

/// Freshness check every DoorbellWire unpack site must observe (ftlint
/// FTL007, same contract as the detector wires): the verdict is meaningful,
/// belongs to this overlap attempt, and was sent under failure knowledge at
/// least as fresh as when the attempt was armed.
FTR_NODISCARD bool epoch_ok(const DoorbellWire& w, std::uint64_t repair_epoch,
                            std::uint64_t armed_detector_epoch);

/// The deterministic continuation/repair partition, computable by every
/// survivor from the shrink outcome alone (no extra communication).
struct Classification {
  std::vector<int> failed;        ///< failed ORIGINAL world ranks, ascending
  std::vector<int> affected;      ///< grids that lost a member, ascending
  std::vector<int> continuation;  ///< surviving original ranks, unaffected grids
  std::vector<int> repair;        ///< surviving original ranks, affected grids
  std::vector<int> rworld;        ///< original ranks of the repaired partial
                                  ///< world (repair + failed), ascending ==
                                  ///< its rank order after the ordered split

  /// Indices into the ascending survivor list == ranks in the shrunken comm.
  int continuation_leader_shrunken = -1;
  int repair_leader_shrunken = -1;
  int repair_leader_old = -1;  ///< original rank of the repair leader

  /// Overlap needs both a non-empty continuation group (someone to keep
  /// stepping) and a repair group with a surviving leader (someone to run
  /// the background protocol and hold the bridge end of the handoff).
  [[nodiscard]] bool overlappable() const {
    return !continuation.empty() && !repair.empty() && !failed.empty();
  }
  /// Rank of `old_rank` in the repaired partial world, -1 if not a member.
  [[nodiscard]] int rworld_rank_of(int old_rank) const;
  /// Rank of the repair leader in the partial repaired world.
  [[nodiscard]] int repair_leader_rworld() const {
    return rworld_rank_of(repair_leader_old);
  }
};

/// Partition the survivors.  `survivor_old_ranks` is the shrunken comm's
/// membership translated to original world ranks (ascending, the shrink
/// preserves relative order); `failed_old_ranks` comes from the
/// failed-procs-list comparison.
[[nodiscard]] Classification classify(const Layout& layout,
                                      const std::vector<int>& survivor_old_ranks,
                                      const std::vector<int>& failed_old_ranks);

/// A survivor's manifest stages the buddy replicas (generations it holds for
/// members of affected grids) to the repair leader during the prefix.
/// Wire format: [long n] then n records, each [long nbytes] + the
/// pack_replica() bytes of one generation (a stored wire buffer as is).  An empty manifest (n = 0) is
/// valid — every survivor sends exactly one, so the leader never waits on a
/// message that will not come.  Unpacking drops CRC-corrupt records.
[[nodiscard]] std::vector<std::byte> pack_manifest(
    const std::vector<ftr::rec::ReplicaMessage>& reps);
[[nodiscard]] std::vector<ftr::rec::ReplicaMessage> unpack_manifest(const std::byte* bytes,
                                                                    std::size_t n);

/// Ring the doorbell: eager-send `verdict` to `dst` (a shrunken-comm rank)
/// over the bridge, stamped with this attempt's epoch and the sender's
/// current detector epoch.  Fires the "repair.doorbell" chaos point.
FTR_NODISCARD int ring_doorbell(const ftmpi::Comm& bridge, int dst, int verdict,
                                std::uint64_t repair_epoch);

/// Non-blocking doorbell poll on the bridge (any sender: the leader rings
/// READY, but any repair survivor may ring ABORT).  Drains stale wires;
/// *verdict receives kVerdictNone when no fresh doorbell is buffered.  A
/// revoked bridge reads as ABORT — revocation is the abort channel of last
/// resort when the ringer itself died.
FTR_NODISCARD int poll_doorbell(const ftmpi::Comm& bridge, std::uint64_t repair_epoch,
                                std::uint64_t armed_detector_epoch, int* verdict);

/// The handoff: join this side's sub-communicator with the other side over
/// the bridge and restore the original full-world rank layout.  Collective
/// over `side`; the bridge and leader ranks are significant at the leader
/// only (children of the repair group pass a null bridge).  Fires the
/// "repair.handoff" chaos point.  On success *world_out is the repaired
/// full world with rank == original rank.
FTR_NODISCARD int handoff(const ftmpi::Comm& side, int local_leader, bool continuation_side,
                          int my_old_rank, const ftmpi::Comm& bridge,
                          int remote_leader_shrunken, ftmpi::Comm* world_out);

}  // namespace ftr::core::overlap
