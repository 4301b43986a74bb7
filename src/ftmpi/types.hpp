#pragma once
// Fundamental types and constants of the simulated fault-tolerant MPI
// runtime ("ftmpi").
//
// ftmpi reproduces the subset of MPI + the draft ULFM (User Level Failure
// Mitigation) extensions that the paper's recovery protocol (Figs. 3-7)
// uses, with fail-stop process-failure semantics: a killed rank unwinds at
// its next MPI call, and its peers observe MPI_ERR_PROC_FAILED.

#include <cstdint>

namespace ftmpi {

/// Global, never-reused identifier of a simulated process within a Runtime.
/// Distinct from a rank: ranks are positions within a communicator.
using ProcId = int;

inline constexpr ProcId kNullProc = -1;

/// Error codes.  Values mirror the spirit of MPI/ULFM return classes; the
/// compat layer exposes them under their MPI_* names.
enum ErrCode : int {
  kSuccess = 0,
  kErrComm = 5,        // invalid communicator (MPI_ERR_COMM)
  kErrArg = 12,        // invalid argument
  kErrProcFailed = 75, // a peer process has failed (MPI_ERR_PROC_FAILED)
  kErrRevoked = 76,    // the communicator has been revoked (MPI_ERR_REVOKED)
  kErrPending = 77,
  kErrSpawn = 78,      // replacement processes could not be placed (MPI_ERR_SPAWN)
  kErrOther = 15,
};

/// Wildcards (match any sender / any user tag).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Tags below this bound are reserved for runtime-internal protocols
/// (collectives, spawn handshakes, shrink/agree coordination).  kAnyTag
/// never matches a reserved tag, so user receives cannot swallow protocol
/// traffic.
inline constexpr int kReservedTagBound = -1000;

namespace tags {
// Internal protocol tags.  One tag per protocol step keeps matching simple
// and makes traces readable.
inline constexpr int kBarrierArrive = kReservedTagBound - 1;
inline constexpr int kBarrierRelease = kReservedTagBound - 2;
inline constexpr int kBcast = kReservedTagBound - 3;
inline constexpr int kGather = kReservedTagBound - 4;
inline constexpr int kScatter = kReservedTagBound - 5;
inline constexpr int kReduceUp = kReservedTagBound - 6;
inline constexpr int kReduceDown = kReservedTagBound - 7;
inline constexpr int kSplitUp = kReservedTagBound - 8;
inline constexpr int kSplitDown = kReservedTagBound - 9;
inline constexpr int kShrinkUp = kReservedTagBound - 10;
inline constexpr int kShrinkDown = kReservedTagBound - 11;
inline constexpr int kSpawnInfo = kReservedTagBound - 14;
inline constexpr int kSpawnAck = kReservedTagBound - 15;
inline constexpr int kMergeInfo = kReservedTagBound - 16;
inline constexpr int kMergeCross = kReservedTagBound - 17;
inline constexpr int kAllgather = kReservedTagBound - 18;
// Failure-detector channel (heartbeat ring + gossip propagation).
inline constexpr int kHeartbeat = kReservedTagBound - 19;
inline constexpr int kGossip = kReservedTagBound - 20;
// Tree-structured agreement and fault-tolerant allreduce.
inline constexpr int kAgreeTreeUp = kReservedTagBound - 21;
inline constexpr int kAgreeTreeDown = kReservedTagBound - 22;
inline constexpr int kCollTreeUp = kReservedTagBound - 23;
inline constexpr int kCollTreeDown = kReservedTagBound - 24;
// Intercommunicator construction over a bridge communicator
// (MPI_Intercomm_create) and the overlapped-recovery doorbell handoff.
inline constexpr int kInterCreateCross = kReservedTagBound - 25;
inline constexpr int kInterCreateInfo = kReservedTagBound - 26;
inline constexpr int kDoorbell = kReservedTagBound - 27;
}  // namespace tags

/// Version counter of a process's local failure knowledge.  Every detector
/// message (heartbeat or gossip) carries the sender's epoch; receivers must
/// validate it (see detector::epoch_ok) and discard stale notifications
/// instead of acting on them.
using DetectorEpoch = std::uint64_t;

/// Receive status, analogous to MPI_Status.
struct Status {
  int source = kAnySource;  ///< rank of the sender in the communicator
  int tag = kAnyTag;
  int error = kSuccess;
  int count = 0;  ///< number of elements actually received
};

/// Reduction operators supported by reduce/allreduce.
enum class ReduceOp { Sum, Max, Min, LogicalAnd, LogicalOr };

/// Thrown inside a rank thread when that process has been killed; unwinds
/// to the runtime's thread wrapper.  Application code must not catch it
/// (fail-stop semantics: a dead process executes nothing further).
struct ProcessKilled {
  ProcId pid;
};

}  // namespace ftmpi
