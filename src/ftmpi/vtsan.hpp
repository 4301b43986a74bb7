#pragma once
// Virtual-time happens-before sanitizer (FTR_SANITIZE=vtsan, compile
// definition FTR_VTSAN).
//
// The runtime cross-check for ftlint's fiber rules (FTL008-FTL010).  Those
// rules ask, statically, "which code still assumes every simulated rank is
// a dedicated OS thread?"  This sanitizer asks the same question
// dynamically: every rank carries a vector clock, ticked on
// each instrumented event; a message is stamped with the sender's clock at
// deliver() and joined into the receiver's clock at each mailbox
// extraction (wait_for_message / recv_buffered / detector drain), and a
// spawned process inherits its creator's clock.  Accesses to instrumented
// shared runtime structures — the results blackboard and the
// communicator-context registry — are recorded as (clock, rank, object)
// events.  Two conflicting accesses (at least one write) by different
// ranks with neither ordered before the other in that happens-before
// relation abort the run with a pinned diagnostic naming both call sites:
//
//   ftmpi-vtsan: write-write race on ...   (unordered write vs. write)
//   ftmpi-vtsan: read-write race on ...    (unordered read vs. write)
//
// Such a pair is exactly what the fiber scheduler does not order: the
// structure's mutex serializes the two accesses in whatever order the
// workers happen to run the two ranks, but no message chain orders them,
// so another interleaving (or a scheduler ordered by virtual clock) could
// run them in either order and observe either outcome.
//
// Runtime::add() on the blackboard is deliberately NOT checked: it is a
// commutative accumulation and "every rank adds its share" is the
// documented idiom.  Sequential Runtime::run() invocations on one Runtime
// are ordered through a per-runtime driver clock (joined from every rank
// at the end of run(), inherited by the next run's processes), so
// back-to-back runs that reuse a blackboard key stay silent.
//
// Everything here compiles to nothing unless FTR_VTSAN is defined; the
// macros below keep the hot paths free of even argument evaluation in
// normal builds.

#include <string>

#include "ftmpi/types.hpp"

namespace ftmpi {

struct Message;

namespace vtsan {

#ifdef FTR_VTSAN

/// Record an access to the instrumented shared object (`kind`, `name`) by
/// the calling rank; aborts with a pinned diagnostic when it conflicts with
/// an earlier unordered access by another rank.  No-op off the ranks.
void on_access(bool is_write, const char* kind, const std::string& name, const char* file,
               int line);

/// Tick the sender's clock and stamp a copy into `msg` (deliver()).
void stamp_send(Message& msg);

/// Join the sender clock carried by `msg` into the calling rank's clock
/// (every mailbox-extraction site).
void join_receive(const Message& msg);

/// Record the creator's clock for `child` (start_process()).  From the
/// driver thread the per-runtime driver clock is used instead, which is
/// what orders successive run() calls.
void on_spawn(const void* rt, ProcId child);

/// Join the creator snapshot recorded by on_spawn (fiber_main(), on the
/// new rank's fiber, before the application entry runs).
void on_thread_start();

/// Fold every rank clock of `rt` into its driver clock (end of run(); every
/// rank has finished, so their clocks are final).
void on_run_complete(const void* rt);

/// Drop all state belonging to `rt` (~Runtime): pids and context ids
/// restart per Runtime instance, and a stack address can be reused.
void on_runtime_destroyed(const void* rt);

#define FTR_VTSAN_WRITE(kind, name) \
  ::ftmpi::vtsan::on_access(true, (kind), (name), __FILE__, __LINE__)
#define FTR_VTSAN_READ(kind, name) \
  ::ftmpi::vtsan::on_access(false, (kind), (name), __FILE__, __LINE__)
#define FTR_VTSAN_STAMP(msg) ::ftmpi::vtsan::stamp_send((msg))
#define FTR_VTSAN_JOIN(msg) ::ftmpi::vtsan::join_receive((msg))
#define FTR_VTSAN_SPAWN(rt, child) ::ftmpi::vtsan::on_spawn((rt), (child))
#define FTR_VTSAN_THREAD_START() ::ftmpi::vtsan::on_thread_start()
#define FTR_VTSAN_RUN_COMPLETE(rt) ::ftmpi::vtsan::on_run_complete((rt))
#define FTR_VTSAN_RUNTIME_DESTROYED(rt) ::ftmpi::vtsan::on_runtime_destroyed((rt))

#else

#define FTR_VTSAN_WRITE(kind, name) ((void)0)
#define FTR_VTSAN_READ(kind, name) ((void)0)
#define FTR_VTSAN_STAMP(msg) ((void)0)
#define FTR_VTSAN_JOIN(msg) ((void)0)
#define FTR_VTSAN_SPAWN(rt, child) ((void)0)
#define FTR_VTSAN_THREAD_START() ((void)0)
#define FTR_VTSAN_RUN_COMPLETE(rt) ((void)0)
#define FTR_VTSAN_RUNTIME_DESTROYED(rt) ((void)0)

#endif  // FTR_VTSAN

}  // namespace vtsan
}  // namespace ftmpi
