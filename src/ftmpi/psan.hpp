#pragma once
// Protocol sanitizer (FTR_SANITIZE=protocol, compile definition FTR_PSAN).
//
// A runtime cross-check for the invariants ftlint enforces statically
// (FTL005 collective matching, FTL006 communicator lifecycle).  Because the
// whole cluster is simulated inside one process, the sanitizer keeps shadow
// state for every (process, communicator-context) pair in a global table:
//
//   - lifecycle bits.  A rank that *itself revoked* a context may only run
//     the sanctioned salvage set on it afterwards (iprobe_buffered /
//     recv_buffered / shrink / agree / free / the local accessors); any
//     other operation aborts with the call site of the use and of the
//     revoke.  This mirrors ftlint's FTL006, which flags uses that follow a
//     comm_revoke call in the source.  A *passively* observed revocation
//     (an operation returned kErrRevoked) is recorded and cited in later
//     diagnostics but does not arm the abort: every operation on a revoked
//     context fails fast without side effects here, and the application's
//     documented idiom — observe the error, warn, carry on to the next
//     detection point — legitimately issues further failing operations
//     while it unwinds.  A second comm_free of the same context by the
//     same rank aborts as a double-free.  (Use-after-free is deliberately
//     NOT flagged: contexts are reference counted and handle copies are
//     pervasive — reconstruct frees its own copy of the broken world while
//     world() remains a live alias of the same context.)
//
//   - a rolling FNV-1a hash of the collective-call sequence issued on the
//     context, plus a short ring of recent call sites.  comm_agree
//     piggybacks {flag, hash, failure-epoch} on its existing payload; the
//     agree root compares the streams of all members and aborts with
//     a per-rank divergence trace on mismatch.  Verification is skipped
//     (never faked) whenever the result could be stale: a dead member, a
//     revoked communicator, an unconfirmed member, or members that sent
//     their hash under different failure epochs.  A successful verification
//     resets every member's stream while they are still blocked waiting for
//     the agree reply, so the next window starts aligned.
//
// Everything here compiles to nothing unless FTR_PSAN is defined; the
// instrumentation macros below keep the hot paths free of even argument
// evaluation in normal builds.

#include <cstdint>
#include <vector>

#include "ftmpi/types.hpp"

namespace ftmpi {

class Comm;
struct Group;

namespace psan {

/// One member's report as collected by the agree root.
struct AgreeReport {
  int rank = -1;
  ProcId pid = kNullProc;
  std::uint64_t hash = 0;
  std::uint64_t epoch = 0;
};

#ifdef FTR_PSAN

/// Lifecycle check for a non-sanctioned operation on `c`.  Aborts with a
/// diagnostic if this rank itself revoked the context earlier.  No-op off
/// the ranks and for null comms.
void on_use(const Comm& c, const char* op, const char* file, int line);

/// on_use plus an append of (op, root) to this rank's collective stream on
/// the context.  Every collective entry point calls this once, before any
/// early return, so a rank that enters is a rank that is counted.
void on_collective(const Comm& c, const char* op, int root, const char* file, int line);

/// Record that the calling rank observed the revocation of `c`.  `self` is
/// true when the rank revoked the context itself (which arms the strict
/// salvage-set check) and false for a passive observation (an operation
/// returned kErrRevoked; recorded for diagnostics only).
void on_revoke_observed(const Comm& c, const char* op, bool self, const char* file, int line);

/// Record a comm_free of `c` by the calling rank.  Aborts on double-free.
void on_free(const Comm& c, const char* file, int line);

/// This rank's current stream hash on `c` (for the agree uplink).
std::uint64_t stream_hash(const Comm& c);

/// The runtime's current failure epoch as seen by the calling rank.
std::uint64_t current_epoch();

/// Root-side hash comparison at agree.  `reports` must include the root's
/// own entry; `no_dead` is the emptiness of the dead-member list the root
/// just computed for the agreement group.  Aborts with
/// a per-rank divergence trace on mismatch; on a verified match resets every
/// member's stream (callers are still blocked on the agree reply, so their
/// streams are quiescent).
void verify_at_agree(const Comm& c, const Group& g, const std::vector<AgreeReport>& reports,
                     bool no_dead);

/// Record the side communicator the overlapped-recovery split handed this
/// rank (the continuation sub-communicator, or the repair group's comm) and
/// the doorbell epoch the attempt was armed under.  The recorded context is
/// superseded together with the pre-handoff world once on_handoff fires.
void on_overlap_split(const Comm& side, std::uint64_t epoch, const char* file, int line);

/// The calling rank acked the repaired-world doorbell: mark the pre-handoff
/// world `old_world` (and the side context recorded by on_overlap_split, if
/// any) superseded under `epoch`.  Any later *collective* on a superseded
/// context aborts with a pinned use-after-handoff diagnostic; point-to-point
/// drains and frees stay allowed — dropping the old handles after the
/// handoff is the documented idiom, issuing collectives on them is the bug
/// (half the job lands on a world nobody else is in any more).
void on_handoff(const Comm& old_world, std::uint64_t epoch, const char* file, int line);

/// Drop every shadow entry belonging to `rt`.  Called from ~Runtime: pids
/// and context ids both restart per Runtime instance (and stack-allocated
/// Runtimes can reuse the same address), so stale entries would otherwise
/// bleed observations and stream hashes into the next simulated cluster.
void on_runtime_destroyed(const void* rt);

#define FTR_PSAN_USE(c, op) ::ftmpi::psan::on_use((c), (op), __FILE__, __LINE__)
#define FTR_PSAN_COLLECTIVE(c, op, root) \
  ::ftmpi::psan::on_collective((c), (op), (root), __FILE__, __LINE__)
#define FTR_PSAN_REVOKE_OBSERVED(c, op) \
  ::ftmpi::psan::on_revoke_observed((c), (op), false, __FILE__, __LINE__)
#define FTR_PSAN_SELF_REVOKE(c, op) \
  ::ftmpi::psan::on_revoke_observed((c), (op), true, __FILE__, __LINE__)
#define FTR_PSAN_FREE(c) ::ftmpi::psan::on_free((c), __FILE__, __LINE__)
#define FTR_PSAN_OVERLAP_SPLIT(c, epoch) \
  ::ftmpi::psan::on_overlap_split((c), (epoch), __FILE__, __LINE__)
#define FTR_PSAN_HANDOFF(oldc, epoch) \
  ::ftmpi::psan::on_handoff((oldc), (epoch), __FILE__, __LINE__)
#define FTR_PSAN_RUNTIME_DESTROYED(rt) ::ftmpi::psan::on_runtime_destroyed((rt))

#else

#define FTR_PSAN_USE(c, op) ((void)0)
#define FTR_PSAN_COLLECTIVE(c, op, root) ((void)0)
#define FTR_PSAN_REVOKE_OBSERVED(c, op) ((void)0)
#define FTR_PSAN_SELF_REVOKE(c, op) ((void)0)
#define FTR_PSAN_FREE(c) ((void)0)
#define FTR_PSAN_OVERLAP_SPLIT(c, epoch) ((void)0)
#define FTR_PSAN_HANDOFF(oldc, epoch) ((void)0)
#define FTR_PSAN_RUNTIME_DESTROYED(rt) ((void)0)

#endif  // FTR_PSAN

}  // namespace psan
}  // namespace ftmpi
