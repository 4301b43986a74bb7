#pragma once
// Decentralized failure detection: heartbeat observation ring + gossip.
//
// Without a detector, ftmpi only observes a death when an operation happens
// to touch the dead peer — an idle rank never learns anything, and detection
// latency is unbounded.  This subsystem gives every rank always-on failure
// knowledge at O(1) steady-state cost per rank:
//
//   alive ──(silence > suspect_after)──> suspected
//   suspected ──(silence > confirm_after, probe confirms)──> confirmed
//   confirmed ──(gossip fan-out, O(log N) rounds)──> propagated
//
// Ring: the started, unfinished, not-known-failed pids in pid order, read
// from the runtime's shared roster (RingView), never copied.  Each rank
// heartbeats its ring successor once per period and observes its ring
// predecessor.  A suspect is never declared dead on silence alone: the
// observer pays for a direct probe round-trip first, so a slow-but-alive
// rank costs a false alarm, never a false positive.
//
// Gossip: a confirmed failure is forwarded to the members at ring distance
// 1, 2, 4, ... (doubling ring), and every receiver of *fresh* information
// forwards the same way, reaching all survivors in O(log N) hops without
// ever touching the dead peer.  Every detector message carries the sender's
// DetectorEpoch; receivers validate it with epoch_ok() and discard stale
// notifications instead of acting on them (lint rule FTL007).
//
// All timing runs on the runtime's virtual clocks, so detection behaviour
// is deterministic.  Progress is piggybacked on the runtime entry points
// (detail::charge and the blocking wait loop): there is no background
// thread or fiber.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "ftmpi/types.hpp"

namespace ftmpi {

struct Group;
struct ProcessState;
class Runtime;

namespace detector {

/// Tuning knobs (Runtime::Options::detector).  All times are virtual
/// seconds.
struct Options {
  /// Run the heartbeat ring (default).  Off short-circuits every hook: no
  /// heartbeats or gossip are sent, and failures are learned from the
  /// transport alone.
  bool enabled = true;
  /// Heartbeat period.  Deliberately long relative to microsecond-scale
  /// unit-test workloads: a run whose virtual clocks never cross a period
  /// boundary sends no heartbeats and is untouched by the detector.
  double period = 0.25;
  /// Silence after which the observed predecessor becomes *suspected*.
  double suspect_after = 0.75;
  /// Silence after which a suspect is probed and, if truly dead, confirmed.
  double confirm_after = 1.25;
};

/// How a process came to know about a failure.
enum class Source : int {
  kRing = 0,       ///< own ring observation (timeout + probe)
  kGossip = 1,     ///< propagated knowledge from a peer
  kTransport = 2,  ///< a send/wait tripped over the dead peer
};

/// One learned failure: which pid, when (observer's virtual clock), how.
struct Record {
  ProcId dead = kNullProc;
  double when = 0.0;
  Source how = Source::kRing;
};

/// Heartbeat wire format (tags::kHeartbeat).
struct HeartbeatWire {
  std::int32_t src = kNullProc;
  std::int32_t pad = 0;
  DetectorEpoch epoch = 0;  ///< sender's failure-knowledge version
  std::uint64_t seq = 0;
};

/// Gossip wire format (tags::kGossip): one confirmed failure being
/// propagated.
struct GossipWire {
  std::int32_t dead = kNullProc;
  std::int32_t origin = kNullProc;  ///< rank that confirmed the failure
  DetectorEpoch epoch = 0;          ///< sender's epoch *after* learning; >= 1
  std::uint32_t hops = 0;
  std::uint32_t pad = 0;
};

/// Per-process detector state, embedded in ProcessState.  Only the owning
/// rank reads or writes it (the cross-thread signal is the separate
/// ProcessState::det_pending atomic).
struct State {
  bool ring_joined = false;
  double hb_next = 0.0;           ///< virtual deadline of the next heartbeat
  std::uint64_t hb_seq = 0;
  DetectorEpoch epoch = 0;        ///< bumped on every newly learned failure
  std::map<ProcId, double> last_heard;  ///< sender pid -> latest arrival time
  std::set<ProcId> suspected;
  std::set<ProcId> known_failed;
  std::vector<Record> records;    ///< learn log, in learn order
  // Counters for tests and the bench harness.
  long heartbeats_sent = 0;
  long gossip_sent = 0;
  long gossip_received = 0;
  long stale_discarded = 0;
  long false_alarms = 0;          ///< suspects that answered the probe
};

/// One rank's view of the observation ring: the shared roster
/// (Runtime::roster) minus the failures the rank knows of, both in pid
/// order, without copying the roster.  Construction costs O(F log N) for F
/// known failures, index_of O(log N) and at O(F).  The roster must outlive
/// the view.
class RingView {
 public:
  RingView(const std::vector<ProcId>& roster, const std::set<ProcId>& known_failed);
  [[nodiscard]] std::size_t size() const { return roster_.size() - skipped_.size(); }
  /// Ring position of pid, or -1 when pid is not a member.
  [[nodiscard]] int index_of(ProcId pid) const;
  /// The member at ring position i < size().
  [[nodiscard]] ProcId at(std::size_t i) const;
  struct Neighbours {
    ProcId pred = kNullProc;
    ProcId succ = kNullProc;
  };
  /// self's ring predecessor and successor; both kNullProc when self is no
  /// member or the ring has fewer than two.
  [[nodiscard]] Neighbours neighbours(ProcId self) const;

 private:
  const std::vector<ProcId>& roster_;
  std::vector<std::size_t> skipped_;  ///< roster indices of known failures, ascending
};

/// True when ps's runtime runs the detector (Options::enabled).
[[nodiscard]] bool enabled(const ProcessState& ps);

/// Progress hook called from detail::charge(): cheap early-out unless a
/// heartbeat period boundary was crossed or detector messages are pending.
void maybe_tick(ProcessState& ps);

/// Absorb any queued detector messages (heartbeats update last_heard,
/// fresh gossip is learned and forwarded).  Called with ps.mu NOT held.
void drain(ProcessState& ps);

/// Freshness validation of incoming detector messages — the FTL007
/// invariant.  A stale message (heartbeat from a pid already known failed;
/// gossip about an already-known failure or with a zero epoch) must be
/// discarded by the caller, never acted on or forwarded.
[[nodiscard]] bool epoch_ok(const State& st, const HeartbeatWire& w);
[[nodiscard]] bool epoch_ok(const State& st, const GossipWire& w);

/// Fold a transport-level failure observation (a send bounced off a dead
/// peer) into detector knowledge; starts gossip if the failure is news.
void note_transport_failure(ProcessState& ps, ProcId dead);

/// Terminal handling of a blocking wait whose watched peers are all gone:
/// charges exactly the legacy failure-detection latency (unconditionally —
/// whether the detector had already announced the death depends on real
/// delivery races, so a conditional charge would break virtual-time
/// determinism), folds the deaths into detector knowledge so they gossip,
/// and returns kErrProcFailed.
[[nodiscard]] int observe_hopeless_wait(ProcessState& ps,
                                        const std::vector<ProcessState*>& watch);

/// True when ps already learned that pid failed.
[[nodiscard]] bool knows(const ProcessState& ps, ProcId pid);
/// True when ps already learned of a failure of any member of g.
[[nodiscard]] bool knows_any_in(const ProcessState& ps, const Group& g);

}  // namespace detector

// --- public API (callable from rank threads; see api.hpp) -------------------

/// True when the calling rank's runtime runs the failure detector.
[[nodiscard]] bool detector_enabled();
/// The calling rank's failure-knowledge version (0 = no known failures).
[[nodiscard]] DetectorEpoch detector_epoch();
/// Pids the calling rank has learned are dead, in pid order.
[[nodiscard]] std::vector<ProcId> detector_known_failed();
/// The calling rank's learn log (pid, virtual learn time, source).
[[nodiscard]] std::vector<detector::Record> detector_records();
/// Fold an application-level failure confirmation (e.g. a shrink's
/// failed-procs list) into the calling rank's detector knowledge, bumping
/// its epoch and gossiping if the failure is news.  No-op when the detector
/// is off.  Overlapped recovery uses this so doorbell wires always carry a
/// post-failure epoch even when the detector has not yet timed out the dead
/// peer on its own.
void detector_note_failed(ProcId dead);
/// True when the calling rank knows of a dead member of c's group without
/// touching the dead peer — the trigger for proactive recovery.
class Comm;
[[nodiscard]] bool detector_knows_failure_in(const Comm& c);

}  // namespace ftmpi
