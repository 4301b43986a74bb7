#pragma once
// Repo-wide attribute macros.  These are the anchors the static checker
// (tools/ftlint) keys on, so the invariants they mark are machine-checked:
//
//   FTR_NODISCARD  error-returning API.  Every call site must observe the
//                  result (assign, compare, return, or pass it on) — ftlint
//                  rule FTL001.  Expands to [[nodiscard]] so the compiler
//                  flags plain discards too; ftlint additionally flags
//                  `(void)` casts that dodge the compiler.
//
//   FTR_HOT        allocation-free hot-path kernel.  The function and
//                  everything it (transitively) calls must not allocate —
//                  no new/malloc, no container growth — ftlint rule FTL003.
//                  Expands to the compiler's hot-placement attribute where
//                  available.
//
//   FTR_YIELD      designated yield point of the fiber scheduler (ranks are
//                  fibers on one worker thread per core).  The only places
//                  a rank may suspend are the marked wait loops (which
//                  park through Runtime::park), ftmpi::yield() and
//                  detail::charge; a blocking primitive (cv.wait/sleep_for)
//                  anywhere else stalls the whole worker — ftlint rule
//                  FTL008.  Expands to nothing; it is a marker for the
//                  checker and for `ftlint --report=fiber`.
//
//   FTR_LOCK_SLEEP the contended path of a lock that sleeps on its lock
//                  word (SpinSleepLock, src/ftmpi/spin_sleep_lock.hpp).  A
//                  worker thread sleeps there only while another runs the
//                  critical section and will release it; no rank suspends.
//                  FTL008 therefore does not count a blocking primitive in
//                  a marked function, neither as a finding nor as making it
//                  may-yield.  A call from it to a may-yield function still
//                  makes it may-yield.  Expands to nothing.
//
//   FTR_PER_RANK   thread_local registry (ftlint rule FTL009).  Ranks share
//                  worker threads and a parked rank may resume on another
//                  worker, so a `thread_local` is per worker: right for
//                  scratch that no suspension splits, wrong for anything a
//                  rank keeps across a wait (that belongs on ProcessState).
//                  The macro registers the declaration with a mandatory
//                  note saying which, e.g.:
//                    FTR_PER_RANK("per-worker scratch; no kernel suspends")
//                    thread_local std::vector<double> buf;
//                  `ftlint --report=fiber` emits the registry.

#if defined(__has_cpp_attribute)
#if __has_cpp_attribute(nodiscard)
#define FTR_NODISCARD [[nodiscard]]
#endif
#endif
#ifndef FTR_NODISCARD
#define FTR_NODISCARD
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FTR_HOT [[gnu::hot]]
#else
#define FTR_HOT
#endif

// Markers only — the compiler sees nothing; ftlint (FTL008/FTL009) and
// `ftlint --report=fiber` key on the tokens.
#define FTR_YIELD
#define FTR_LOCK_SLEEP
#define FTR_PER_RANK(note)
