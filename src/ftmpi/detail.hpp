#pragma once
// Internal plumbing shared by the ftmpi API translation units.  Not part of
// the public surface.
//
// Two message planes share each process mailbox:
//   - the *control plane* (ctrl_send / ctrl_recv): pid-addressed, reserved
//     tags, used by every internal protocol (collectives, split, shrink,
//     agree, spawn, merge);
//   - the *user plane* (send_bytes / recv_bytes in api.hpp): rank-addressed
//     with user tags >= 0.
// Keeping the planes separate means a user wildcard receive can never
// swallow protocol traffic.

#include <cstring>
#include <vector>
#include "common/annotations.hpp"

#include "ftmpi/runtime.hpp"
#include "ftmpi/types.hpp"

namespace ftmpi::detail {

/// The calling rank's process state; aborts if called off the ranks.
ProcessState& self();

/// The calling rank's runtime.
Runtime& rt();

/// Throw ProcessKilled if this process has been killed (fail-stop unwind).
void check_alive();

/// Charge `seconds` of virtual time to the calling process.  A designated
/// yield point (ftlint FTL008), like the FTR_YIELD wait loops that park: a
/// rank that charges twice in one slice yields here when another rank is
/// runnable (Runtime::preempt_point).
FTR_YIELD void charge(double seconds);

/// Current virtual time of the calling process.
double now();

/// Publishes, for the lifetime of a blocking wait loop, that the calling
/// rank is parked (ProcessState::parked), and registers the wait for the
/// exits that can end it (Runtime::watch_exits) before it first parks.
/// Construct it under ps.mu before the loop's first predicate check; end
/// it before anything else can wait on the rank (an error handler, say).
class ParkedScope {
 public:
  /// `peer` is the one sender whose exit can end the wait (nullptr for
  /// none); with `any_exit`, every exit can (a wait on several peers, or
  /// one that the membership epoch interrupts).
  ParkedScope(ProcessState& ps, ProcessState* peer, bool any_exit)
      : ps_(ps), peer_(peer), any_exit_(any_exit) {
    ps_.parked.store(1);
  }
  ParkedScope(const ParkedScope&) = delete;
  ParkedScope& operator=(const ParkedScope&) = delete;
  ~ParkedScope() {
    Runtime::unwatch_exits(ps_, watch_);
    ps_.parked.store(0);
  }
  /// Call under ps.mu before parking.  The first call registers the wait
  /// for its exits and returns true when it did: the caller then checks its
  /// predicates once more before it parks.  A wait that never parks never
  /// registers.
  bool watch_exits() {
    if (watching_) return false;
    watching_ = true;
    watch_ = ps_.rt->watch_exits(ps_, peer_, any_exit_);
    return watch_.list != nullptr;
  }

 private:
  ProcessState& ps_;
  ProcessState* peer_;
  bool any_exit_;
  bool watching_ = false;
  Runtime::ExitWatch watch_;
};

struct RecvOpts {
  /// When set, a revocation of `revoke_ctx` interrupts the wait with
  /// kErrRevoked (user-facing operations).  Shrink/agree, which must operate
  /// on revoked communicators, leave it null.
  CommContext* revoke_ctx = nullptr;
  /// When set, the wait returns kErrPending as soon as *interrupt no longer
  /// equals interrupt_expect.  The tree-structured agreement uses this to
  /// restart every in-flight participant when any of them observes a
  /// failure (the generation counter lives on the CommContext).
  const std::atomic<std::uint64_t>* interrupt = nullptr;
  std::uint64_t interrupt_expect = 0;
  /// Optional second interrupt, same contract as `interrupt`.  Tree
  /// protocols watch the runtime membership epoch here alongside the
  /// agreement generation, so a wait also unblocks when the active-process
  /// set shrinks and the caller's topology snapshot may be stale.
  const std::atomic<std::uint64_t>* interrupt2 = nullptr;
  std::uint64_t interrupt2_expect = 0;
  /// When set, only messages whose payload begins with this exact 8-byte
  /// value match.  Tree protocols stamp every message with its generation
  /// (or collective sequence number) as the leading std::uint64_t; exact
  /// matching keeps a restarting participant from consuming a message that
  /// belongs to a future round it has not reached yet.
  bool match_payload_head = false;
  std::uint64_t payload_head = 0;
};

/// Eagerly send a control message to `dst`.  Returns kErrProcFailed when the
/// destination is already dead.  Never blocks.
FTR_NODISCARD int ctrl_send(ProcId dst, std::uint64_t ctx, int tag, const void* data, std::size_t n);

/// Blocking control receive matched by exact (ctx, tag, src pid).
/// Fails with kErrProcFailed when `src` is (or becomes) dead and no matching
/// message is buffered, after charging the failure-detection latency.
FTR_NODISCARD int ctrl_recv(ProcId src, std::uint64_t ctx, int tag, std::vector<std::byte>* out,
              const RecvOpts& opts = {});

/// Blocking control receive from any source on (ctx, tag).
/// `watch` lists the pids that may legitimately send; the call fails if all
/// of them are dead and nothing matched.
FTR_NODISCARD int ctrl_recv_any(const std::vector<ProcId>& watch, std::uint64_t ctx, int tag,
                  std::vector<std::byte>* out, ProcId* src, const RecvOpts& opts = {});

/// The pointer-form receives' copy out of an owned payload: at most
/// `max_bytes` into `buf`, Status::count the bytes copied.  kErrArg when the
/// payload was longer than `max_bytes`, else kSuccess; the caller decides
/// whether the error handler runs.
int copy_out(const std::vector<std::byte>& payload, void* buf, std::size_t max_bytes,
             Status* status);

// --- trivially-copyable packing helpers -----------------------------------

template <class T>
std::vector<std::byte> pack(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &v, sizeof(T));
  return out;
}

template <class T>
T unpack(const std::vector<std::byte>& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  std::memcpy(&v, bytes.data(), std::min(sizeof(T), bytes.size()));
  return v;
}

template <class T>
std::vector<T> unpack_vec(const std::vector<std::byte>& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> v(bytes.size() / sizeof(T));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(T));
  return v;
}

/// The member snapshot of ctx's agreement group for the epochs the caller
/// loaded: the cached one when it was taken for the same two values, else a
/// fresh scan that replaces it, so a tree protocol's members share one O(N)
/// scan per membership change.  `rescan` forces a fresh scan.
[[nodiscard]] std::shared_ptr<const MemberSnapshot> member_snapshot(CommContext& ctx,
                                                                    std::uint64_t fepoch,
                                                                    std::uint64_t mepoch,
                                                                    bool rescan = false);

/// Charge the virtual cost of `rounds` full gather+release exchanges between
/// a coordinator and `nprocs-1` peers without sending real messages.  The
/// coordinator calls this before distributing results, so the inflated clock
/// propagates to every peer through the arrival time of the result message.
/// Used to model chatty draft-ULFM internals (shrink consensus rounds, spawn
/// handshakes) at the right asymptotic cost.
void charge_coordinator_rounds(int rounds, int nprocs, bool cross_host = true);

}  // namespace ftmpi::detail
