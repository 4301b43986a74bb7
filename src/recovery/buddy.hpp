#pragma once
// Diskless buddy checkpointing.
//
// Each rank periodically streams a snapshot of its sub-grid block to a
// *buddy* rank that keeps it in memory (no filesystem involved).  The buddy
// is chosen deterministically on a different host than the owner's grid and,
// when possible, host-disjoint from the grid's RC recovery partner — so a
// single host failure can never take out a grid together with both of its
// recovery sources.  Replication rides the nonblocking p2p layer (eager
// isend), so it overlaps time-stepping; the receiver drains pending replicas
// opportunistically at its own replication ticks and before planning.
//
// Like the disk checkpoint store, the in-memory store keeps two CRC-32
// verified generations per block, so a group whose members hold different
// newest steps can still agree on a common restorable generation.  Replicas
// are keyed by the *holder's pid*: a holder that dies loses its replicas,
// and its respawned replacement starts empty — the diskless semantics.
//
// The wire buffer is the generation.  The owner packs each replica once,
// straight from its field's rows into one byte vector (header, payload,
// CRC), and sends it by move; the holder's drain takes the payload whole,
// checks count and CRC in place and keeps that same vector in the store.
// Steady-state replication therefore copies a block once and zero-fills
// nothing.  A restore copies the stored bytes out once (the ship) and the
// restored member copies them into its field once.
//
// The "buddy.send" chaos point fires at the entry of every replication
// send, so chaos schedules can kill a process exactly at the replication
// boundary.

#include <cstddef>
#include "common/annotations.hpp"
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "ftmpi/comm.hpp"
#include "ftmpi/types.hpp"
#include "grid/decomposition.hpp"

namespace ftr::rec {

/// User-plane tags of the buddy protocol (well above the application's
/// 300/400/500-range combination tags).
inline constexpr int kTagBuddyRepl = 9100;   ///< owner -> buddy (replication)
inline constexpr int kTagBuddyFetch = 9200;  ///< buddy -> restored owner (fetch)

/// The minimal process-placement facts the buddy subsystem needs.  Built by
/// core from its Layout (recovery must not depend on core): contiguous rank
/// ranges per grid, the RC partner map, and the host geometry.  Initial
/// placement allocates slots sequentially, so world rank r sits on host
/// r / slots_per_host; the reconstructor respawns replacements on their
/// original hosts, so the map stays valid across repairs.
struct BuddyTopology {
  std::vector<int> first_rank;      ///< grid id -> first world rank
  std::vector<int> procs_per_grid;  ///< grid id -> group size
  std::vector<int> partner_grid;    ///< grid id -> RC partner grid, -1 = none
  int slots_per_host = 12;

  [[nodiscard]] int num_grids() const { return static_cast<int>(first_rank.size()); }
  [[nodiscard]] int total_procs() const;
  [[nodiscard]] int grid_of_rank(int world_rank) const;  ///< -1 when out of range
  [[nodiscard]] int group_rank(int world_rank) const;
  [[nodiscard]] int host_of_rank(int world_rank) const {
    return world_rank / (slots_per_host > 0 ? slots_per_host : 1);
  }
};

/// The world rank that holds `world_rank`'s in-memory replica, or -1 when
/// the topology has no other rank.  Placement rule, relaxed in order until
/// a candidate exists:
///   1. a different grid, on a host disjoint from the owner's grid AND from
///      the grid's RC partner group (the documented buddy placement rule);
///   2. a different grid, on a host disjoint from the owner's grid;
///   3. any rank of a different grid;
///   4. any other rank.
/// Deterministic: every rank computes the same map with no communication.
int buddy_rank_of(const BuddyTopology& topo, int world_rank);

/// The ranks whose replicas `holder` keeps (the inverse of buddy_rank_of).
std::vector<int> buddy_clients_of(const BuddyTopology& topo, int holder);

/// Wire format of one replica message: a fixed header of 5 longs
/// {grid, group rank, step, count, crc} followed by `count` doubles, with
/// crc = snapshot_crc(step, payload).  An empty payload (count 0) is a
/// valid "generation unavailable" marker.
inline constexpr std::size_t kReplicaHeaderBytes = 5 * sizeof(long);

std::vector<std::byte> pack_replica(int grid, int grank, long step,
                                    const std::vector<double>& data);

/// The same bytes as pack_replica(grid, grank, step, f.pack_interior()),
/// packed straight from the field's rows: one reserved buffer, the header
/// and rows appended, the CRC written into the header last.
FTR_HOT std::vector<std::byte> pack_field_replica(int grid, int grank, long step,
                                                  const ftr::grid::LocalField& f);

/// The header of a replica wire buffer.
struct ReplicaHeader {
  int grid = -1;
  int grank = -1;
  long step = -1;
  long count = 0;  ///< payload doubles, at bytes + kReplicaHeaderBytes
  std::uint32_t crc = 0;
};
/// Decode the header of `n` wire bytes and check count and CRC in place;
/// nullopt on malformed or corrupt buffers (a count-0 marker checks out).
FTR_HOT std::optional<ReplicaHeader> check_replica(const std::byte* bytes, std::size_t n);

/// One staged replica generation: its key and its checked wire buffer.
struct ReplicaMessage {
  int grid = -1;
  int grank = -1;
  long step = -1;
  std::vector<std::byte> wire;  ///< pack_replica bytes, header included
};

/// Thread-safe in-memory replica store shared by all simulated processes of
/// a Runtime.  Keyed by (holder pid, grid, group rank) with two generations
/// per key; replicas held by a dead pid are unreachable by construction
/// (its respawned replacement runs under a fresh pid).  A generation is the
/// replica's wire buffer itself.
class BuddyStore {
 public:
  struct Holding {
    long newest = -1;  ///< step of the newest generation, -1 = none
    long prev = -1;    ///< step of the previous generation, -1 = none
  };

  /// Keep the wire buffer `wire` (pack_replica layout, checked by the
  /// caller) under `holder` as the newest generation of the (grid, group
  /// rank) in its header, demoting the current newest to the previous slot.
  /// The vector itself is kept; no byte is copied.  Buffers shorter than
  /// the header are ignored.
  void put(ftmpi::ProcId holder, std::vector<std::byte> wire);

  /// Steps of the generations `holder` keeps for (grid, grank).
  [[nodiscard]] Holding holding(ftmpi::ProcId holder, int grid, int grank) const;

  /// A copy of the wire buffer of the generation taken exactly at `step`
  /// (newest or previous), CRC-verified; nullopt when neither generation
  /// matches and validates.
  [[nodiscard]] std::optional<std::vector<std::byte>> read_at(ftmpi::ProcId holder, int grid,
                                                              int grank, long step) const;

  /// Flip payload bytes of the newest generation so CRC validation fails
  /// (tests and chaos drills).
  void corrupt_newest(ftmpi::ProcId holder, int grid, int grank);

  [[nodiscard]] long replications() const;      ///< generations stored
  [[nodiscard]] long replicated_bytes() const;  ///< payload bytes stored
  [[nodiscard]] long corrupt_detected() const;  ///< CRC failures on read

 private:
  struct Generation {
    long step = -1;
    std::vector<std::byte> wire;
  };
  struct Slot {
    Generation newest;
    Generation prev;
  };
  using Key = std::tuple<ftmpi::ProcId, int, int>;

  mutable std::mutex mu_;
  std::map<Key, Slot> slots_;
  long replications_ = 0;
  long replicated_bytes_ = 0;
  mutable long corrupt_detected_ = 0;
};

/// The buddy generation a grid restores from: the newest step every member
/// holds, i.e. the largest step in the intersection of `held` (one set of
/// held steps per member).  -1 when some member holds nothing or the sets
/// share no step.  Equal to the minimum of the members' newest steps when
/// replication ran every tick; after a lost replication ({8,4} and {12,4})
/// it is the older generation every member still holds (4).
[[nodiscard]] long newest_common_generation(const std::vector<std::set<long>>& held);

/// Stream the caller's block `f` to its buddy over `world`: pack it with
/// pack_field_replica and send that buffer by move (nonblocking eager
/// send: only the injection overhead is charged to the caller, the wire
/// time overlaps).  Fires the "buddy.send" chaos point at entry.  Errors
/// are returned but safe to ignore — replication is best-effort and a
/// failed buddy surfaces at the next detection point.
FTR_NODISCARD int buddy_send(const BuddyTopology& topo, const ftmpi::Comm& world, int grid, int grank,
               long step, const ftr::grid::LocalField& f);

/// Drain pending replica messages addressed to the caller into `store`
/// under the caller's pid: each recv_buffered payload is checked in place
/// and kept as the generation.  Non-blocking; returns the number of
/// replicas stored.  Must run on the communicator the replicas were sent
/// on — the caller drains before any world swap.
int buddy_drain(BuddyStore& store, const ftmpi::Comm& world);

}  // namespace ftr::rec
