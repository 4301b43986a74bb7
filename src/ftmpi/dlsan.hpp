#pragma once
// Virtual-time deadlock sanitizer (FTR_SANITIZE=deadlock, compile
// definition FTR_DLSAN).
//
// The runtime cross-check for ftlint's message-flow rules (FTL011/FTL013).
// Those rules ask, statically, "can a rank-dependent send/recv pairing or
// an unbounded wait loop block forever after a failure?"  This sanitizer
// asks the same question dynamically: every blocking transition registers
// a wait descriptor (who blocks, on which channel, watching which peers,
// with which interrupt/revoke exits), and each registration runs a
// stuck-set analysis over the runtime's real wait-for graph on the virtual
// clock.  When every live rank of a runtime is registered blocked, no
// real-time waker (async failure injector) is armed, and no recorded wait
// has a fireable exit event — no queued detector message, no tripped
// interrupt or revoke flag, no already-hopeless peer watch — the run can
// never advance, and the sanitizer aborts with a pinned diagnostic:
//
//   ftmpi-dlsan: deadlock cycle ...   (every wait-for edge of the cycle)
//   ftmpi-dlsan: no-progress ...      (all ranks blocked, no cycle through
//                                      peer watches, e.g. a wildcard probe
//                                      with no sender left)
//
// Soundness rests on the runtime's own wake discipline: every event that
// could satisfy a recorded wait (message delivery, kill, revoke,
// interrupt, peer exit) notifies the waiter's condition variable, and
// on_wake clears that waiter's registration first, so a rank that is
// registered blocked at analysis time really has nothing pending.  A
// notify that skips a rank (an exit it does not watch) leaves it
// registered: the event cannot change its wait.
//
// Everything here compiles to nothing unless FTR_DLSAN is defined; the
// macros below keep the hot paths free of even argument evaluation in
// normal builds.

#include <atomic>
#include <cstdint>
#include <vector>

#include "ftmpi/types.hpp"

namespace ftmpi {

struct CommContext;
struct ProcessState;
class Comm;

namespace dlsan {

#ifdef FTR_DLSAN

/// Pre-register a created process as live and unblocked (create_process(),
/// under the runtime lock, before its thread exists).  Registration at
/// creation — not thread start — is what makes the analysis sound during
/// launch: run() creates the whole world before starting any rank, so a
/// rank that blocks immediately still sees every peer as a live rank that
/// can make progress, not as an absent one.
void on_proc_created(const void* rt, ProcessState* ps);

/// Un-register a created-but-never-started process (release_unstarted():
/// a spawn negotiation that failed after allocation).
void on_proc_released(const void* rt, ProcId pid);

/// Mark the calling rank live (thread_main(), before the entry runs).
void on_thread_start();

/// Mark the calling rank gone (thread_main(), before the exit notify —
/// peers re-evaluate their predicates against the shrunk live set).
void on_thread_exit();

/// Register the calling rank as blocked in `op` and run the stuck-set
/// analysis; aborts with a pinned diagnostic when no live rank of this
/// runtime can ever advance.  Must be called with the caller's mailbox
/// mutex held, immediately before the cv wait it describes.
void on_block(const char* op, std::uint64_t ctx, int tag,
              const std::vector<ProcessState*>& watch, CommContext* revoke_ctx,
              bool drains_detector, const std::atomic<std::uint64_t>* intr,
              std::uint64_t intr_expect, const std::atomic<std::uint64_t>* intr2,
              std::uint64_t intr2_expect, const char* file, int line);

/// on_block for the blocking probe loop: watches the named sender (or
/// nothing, for kAnySource) and has no interrupt/revoke exits.
void on_block_probe(const Comm& c, int src, int tag, const char* file, int line);

/// Clear the calling rank's registration (immediately after the cv wait).
void on_unblock();

/// `dst` of runtime `rt` is being woken (a message delivered to it, or a
/// kill, revoke, agreement restart or exit notify that reaches it): its
/// wait predicate may now pass, so its registration is no longer a blocked
/// fact.
void on_wake(const void* rt, ProcId dst);

/// A real-time waker (async failure injector thread) is armed/disarmed:
/// while any is armed, wall-clock events can unblock ranks behind the
/// virtual clock's back, so the analysis stands down.
void on_waker_arm();
void on_waker_disarm();

/// Drop all state belonging to `rt` (~Runtime): pids restart per Runtime
/// instance, and a stack address can be reused.
void on_runtime_destroyed(const void* rt);

#define FTR_DLSAN_PROC_CREATED(rt, ps) ::ftmpi::dlsan::on_proc_created((rt), (ps))
#define FTR_DLSAN_PROC_RELEASED(rt, pid) ::ftmpi::dlsan::on_proc_released((rt), (pid))
#define FTR_DLSAN_THREAD_START() ::ftmpi::dlsan::on_thread_start()
#define FTR_DLSAN_THREAD_EXIT() ::ftmpi::dlsan::on_thread_exit()
#define FTR_DLSAN_BLOCK(op, ctx, tag, watch, rctx, det, i1, e1, i2, e2)      \
  ::ftmpi::dlsan::on_block((op), (ctx), (tag), (watch), (rctx), (det), (i1), \
                           (e1), (i2), (e2), __FILE__, __LINE__)
#define FTR_DLSAN_BLOCK_PROBE(c, src, tag) \
  ::ftmpi::dlsan::on_block_probe((c), (src), (tag), __FILE__, __LINE__)
#define FTR_DLSAN_UNBLOCK() ::ftmpi::dlsan::on_unblock()
#define FTR_DLSAN_WAKE(rt, dst) ::ftmpi::dlsan::on_wake((rt), (dst))
#define FTR_DLSAN_WAKER_ARM() ::ftmpi::dlsan::on_waker_arm()
#define FTR_DLSAN_WAKER_DISARM() ::ftmpi::dlsan::on_waker_disarm()
#define FTR_DLSAN_RUNTIME_DESTROYED(rt) ::ftmpi::dlsan::on_runtime_destroyed((rt))

#else

#define FTR_DLSAN_PROC_CREATED(rt, ps) ((void)0)
#define FTR_DLSAN_PROC_RELEASED(rt, pid) ((void)0)
#define FTR_DLSAN_THREAD_START() ((void)0)
#define FTR_DLSAN_THREAD_EXIT() ((void)0)
#define FTR_DLSAN_BLOCK(op, ctx, tag, watch, rctx, det, i1, e1, i2, e2) ((void)0)
#define FTR_DLSAN_BLOCK_PROBE(c, src, tag) ((void)0)
#define FTR_DLSAN_UNBLOCK() ((void)0)
#define FTR_DLSAN_WAKE(rt, dst) ((void)0)
#define FTR_DLSAN_WAKER_ARM() ((void)0)
#define FTR_DLSAN_WAKER_DISARM() ((void)0)
#define FTR_DLSAN_RUNTIME_DESTROYED(rt) ((void)0)

#endif  // FTR_DLSAN

}  // namespace dlsan
}  // namespace ftmpi
