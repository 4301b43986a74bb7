#pragma once
// Deterministic chaos injection for the recovery protocol.
//
// The paper injects failures with kill(getpid(), SIGKILL) *before* recovery
// starts; this subsystem extends that to failures *during* recovery — the
// cascading case.  A ChaosInjector installs a Runtime hook that fires at
// named protocol phase boundaries (see ftmpi::chaos_point): "shrink",
// "agree", "agree.tree" (the tree-structured agreement), "spawn",
// "spawn.done", "merge", "split", "ckpt.write", "buddy.send" (the diskless
// buddy replication boundary), and the failure-detector duties
// "detector.heartbeat" / "detector.gossip".  Each
// scheduled event names a victim pid, a phase, and an occurrence number; the
// victim is killed at the entry of the occurrence-th time *it* reaches that
// phase.  Occurrences are counted per (pid, phase) by the victim itself,
// so a schedule is deterministic regardless of how the ranks
// interleave — the same seed always kills the same process at the same
// protocol step.
//
// Kills happen at phase *entries* (and before any checkpoint state is
// touched for "ckpt.write").  This keeps every injected death equivalent to
// a fail-stop crash between two protocol steps, which is the failure model
// the recovery protocol is hardened against; mid-message deaths inside a
// primitive are modeled by the runtime's fail-stop delivery rules instead.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ftmpi/runtime.hpp"

namespace ftr::core {

/// One scheduled kill: when `victim` enters `phase` for the `occurrence`-th
/// time (1-based, counted per victim and phase), it dies at that boundary.
struct ChaosEvent {
  std::string phase;
  ftmpi::ProcId victim = -1;
  int occurrence = 1;
  /// Kill the victim's whole host (Runtime::fail_host) instead of the single
  /// process.  Failed hosts never free their slots, so on a bounded cluster
  /// (Runtime::Options::max_hosts) this is what exhausts placement and
  /// forces the shrink-mode recovery fallback.
  bool fail_host = false;
};

/// Installs a chaos schedule on a Runtime.  Construct and schedule() before
/// Runtime::run(); the injector must outlive the run.
class ChaosInjector {
 public:
  explicit ChaosInjector(ftmpi::Runtime& rt);
  ~ChaosInjector();

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// Add one event to the schedule.  Not thread-safe against a running
  /// Runtime — schedule everything up front.
  void schedule(ChaosEvent ev);

  /// Number of scheduled events that have fired so far.
  [[nodiscard]] int kills_fired() const;
  /// The events that fired, in firing order (phase/victim/occurrence copies).
  [[nodiscard]] std::vector<ChaosEvent> fired() const;

  /// Deterministic pseudo-random schedule: `kills` events over victims
  /// 1..world_size-1 (never pid 0, so tests can always read results from
  /// rank 0) drawn from `phases`, all with occurrence 1.  The same seed
  /// always yields the same plan.
  static std::vector<ChaosEvent> random_plan(std::uint64_t seed, int world_size, int kills,
                                             const std::vector<std::string>& phases);

 private:
  void on_phase(const char* phase, ftmpi::ProcId pid);

  ftmpi::Runtime& rt_;
  mutable std::mutex mu_;
  std::vector<ChaosEvent> schedule_;
  std::vector<bool> fired_flags_;
  std::vector<ChaosEvent> fired_log_;
  /// Per-(pid, phase) visit counts, keyed on the victim's own thread.
  std::map<std::pair<ftmpi::ProcId, std::string>, int> visits_;
};

}  // namespace ftr::core
