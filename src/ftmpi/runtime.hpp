#pragma once
// The simulated MPI runtime: a "cluster in a process".
//
// Each simulated MPI process is a std::thread with its own mailbox and
// virtual clock.  The Runtime owns the process table, the hosts-and-slots
// placement model (the paper's hostfile with SLOTS=12 per node), the
// communicator-context registry, the failure epoch used to wake blocked
// operations when a process is killed, and a results blackboard through
// which applications report measurements to the bench harnesses.
//
// Failure semantics are fail-stop, as in the paper: Runtime::kill() marks a
// process dead and frees its host slot; the victim's thread unwinds (via
// ProcessKilled) at its next runtime call, and every operation by a peer
// that depends on the victim eventually returns kErrProcFailed.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ftmpi/comm.hpp"
#include "ftmpi/cost_model.hpp"
#include "ftmpi/detector.hpp"
#include "ftmpi/trace.hpp"
#include "ftmpi/types.hpp"

namespace ftmpi {

/// An in-flight message.  Control-plane messages (internal protocols) are
/// matched by exact (context, tag, source pid); user point-to-point
/// messages by (context, tag-or-any, source-rank-or-any, side).
struct Message {
  std::uint64_t ctx = 0;
  int tag = 0;
  ProcId src_pid = kNullProc;
  int src_rank = -1;
  int src_side = 0;
  bool ctrl = false;
  std::vector<std::byte> payload;
  double arrive = 0.0;  ///< virtual arrival time at the destination
#ifdef FTR_VTSAN
  /// Sender's vector clock at deliver() time; joined into the receiver's
  /// clock at extraction (the vtsan happens-before edge for messages).
  std::map<ProcId, std::uint64_t> vt;
#endif
};

class Runtime;

/// Per-process runtime state.  The owning thread is the only writer of
/// vclock; the mailbox and flags are guarded by mu.
struct ProcessState {
  Runtime* rt = nullptr;
  ProcId pid = kNullProc;
  int host = 0;
  int slot = 0;
  std::string app;
  std::vector<std::string> argv;
  std::thread thread;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> mailbox;
  std::atomic<bool> dead{false};
  std::atomic<bool> finished{false};
  /// Set by start_process(); created-but-unstarted processes are invisible
  /// to the detector ring.
  std::atomic<bool> started{false};

  double vclock = 0.0;

  /// Number of detector-channel messages (heartbeats/gossip) queued in the
  /// mailbox; bumped by deliver() under mu, reset by detector::drain().
  /// Lets the owner thread skip mailbox locking when nothing is pending.
  std::atomic<int> det_pending{0};
  /// Failure-detector state; touched only by the owning rank thread.
  detector::State det;

  std::uint64_t world_ctx = 0;   ///< context id of this process's COMM_WORLD
  std::uint64_t parent_ctx = 0;  ///< intercommunicator to the spawner (0 = none)
  int world_rank = -1;

  // Cached handles so that error handlers / acked state set on the world
  // or parent communicator persist across world()/get_parent() calls.
  std::optional<Comm> world_handle;
  std::optional<Comm> parent_handle;
};

class Runtime {
 public:
  struct Options {
    int slots_per_host = 12;       ///< the paper's SLOTS constant
    CostModel cost{};
    /// Real-time watchdog for Runtime::run(); a stuck protocol aborts with
    /// a state dump rather than hanging a test run forever.
    double real_time_limit_sec = 300.0;
    /// Maximum number of hosts in the simulated cluster (0 = unbounded, the
    /// historical behaviour).  With a bound, process placement can genuinely
    /// fail — comm_spawn_multiple returns kErrSpawn — which is what forces
    /// the shrink-mode recovery fallback.
    int max_hosts = 0;
    /// Failure-detector knobs.  The constructor clamps the thresholds so
    /// that period <= suspect_after < confirm_after.
    detector::Options detector{};
  };

  /// Entry point of a simulated MPI application; runs on each rank thread.
  using EntryFn = std::function<void(const std::vector<std::string>& argv)>;

  Runtime() : Runtime(Options{}) {}
  explicit Runtime(Options opt);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  /// Register an application binary name -> entry function.  Spawn requests
  /// (MPI_Comm_spawn_multiple) look commands up here, mirroring re-executing
  /// the same executable on a real cluster.
  void register_app(const std::string& name, EntryFn entry);

  /// Launch `world_size` processes running `app` and block until every
  /// process (including ones spawned during the run) has terminated.
  /// Returns the number of processes that were killed.
  int run(const std::string& app, int world_size, std::vector<std::string> argv = {});

  /// Fail-stop kill.  Safe to call from any thread, including the victim.
  void kill(ProcId pid);

  /// Whole-node failure (the paper's future-work scenario): every live
  /// process on `host` is killed and the host is marked failed — its slots
  /// can never be reused.  Later placement requests that prefer the failed
  /// host are redirected to one consistent *spare* host, so all of the
  /// node's replacement processes come up co-located, preserving the
  /// original load-balancing characteristics.
  void fail_host(int host);
  [[nodiscard]] bool host_failed(int host) const;
  /// Pids currently placed on `host` (live or dead).
  [[nodiscard]] std::vector<ProcId> procs_on_host(int host) const;

  // Pid lookups (proc, is_dead, host_of, the group queries, active_pids,
  // total_processes) take no lock: see ProcessTable.
  /// True for a dead process and for a pid that was never created.
  [[nodiscard]] bool is_dead(ProcId pid) const;
  [[nodiscard]] bool any_dead(const Group& g) const;
  [[nodiscard]] std::vector<ProcId> dead_members(const Group& g) const;
  /// Index of the lowest-ranked live member of g, or -1 if none.
  [[nodiscard]] int lowest_live_rank(const Group& g) const;

  [[nodiscard]] int host_of(ProcId pid) const;
  [[nodiscard]] int slots_per_host() const { return opt_.slots_per_host; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] const CostModel& cost() const { return opt_.cost; }
  /// Pids of started processes that have not deregistered cleanly, in pid
  /// order — the RTE-visible membership the detector ring is built over.
  /// Killed processes stay listed (a crash never deregisters; the ring
  /// timeout is what detects it); normally finished processes drop out.
  [[nodiscard]] std::vector<ProcId> active_pids() const;
  [[nodiscard]] std::uint64_t failure_epoch() const { return failure_epoch_.load(); }
  /// Monotonic counter bumped whenever the active-process set shrinks (a
  /// kill *or* a normal exit).  Protocols that build a topology over a
  /// snapshot of the active set watch this atomic to learn that their
  /// snapshot went stale mid-protocol — unlike failure_epoch(), it also
  /// covers peers that finished without failing.
  [[nodiscard]] const std::atomic<std::uint64_t>& membership_epoch() const {
    return membership_epoch_;
  }
  [[nodiscard]] int total_processes() const;
  [[nodiscard]] int killed_count() const { return killed_.load(); }

  /// Aggregate traffic statistics (all processes, whole runtime lifetime).
  struct Stats {
    long long messages = 0;   ///< messages delivered to mailboxes
    long long bytes = 0;      ///< payload bytes carried
    long long cross_host = 0; ///< messages that crossed a host boundary
  };
  [[nodiscard]] Stats stats() const;
  void record_message(std::size_t bytes, bool cross_host);

  /// Event trace (off by default; trace().enable() turns it on).
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // --- communicator contexts ----------------------------------------------
  std::shared_ptr<CommContext> create_context(Group local, Group remote = {},
                                              bool inter = false);
  [[nodiscard]] std::shared_ptr<CommContext> find_context(std::uint64_t id) const;

  // --- process management (used by the spawn protocol) ---------------------
  /// Create a not-yet-started process placed on `preferred_host` (or the
  /// first host with a free slot).  Returns its pid, or kNullProc when the
  /// cluster is bounded (Options::max_hosts) and no slot is available.
  ProcId create_process(const std::string& app, std::vector<std::string> argv,
                        int preferred_host, double start_clock);
  /// Start the thread of a process created by create_process() after its
  /// world/parent contexts have been filled in.
  void start_process(ProcId pid);
  /// Retire a created-but-never-started process (spawn rollback after a
  /// partial placement failure): frees its slot without counting it as a
  /// failure.
  void release_unstarted(ProcId pid);

  // --- chaos injection ------------------------------------------------------
  /// Hook invoked by chaos_point() at named protocol phase boundaries
  /// (shrink/spawn/merge/agree/split entry, checkpoint writes).  The hook
  /// may kill the calling process — chaos_point() re-checks liveness after
  /// the hook returns, so a self-kill unwinds at the phase boundary.
  /// Install before run(); not synchronized against running rank threads.
  using ChaosHook = std::function<void(const char* phase, ProcId pid)>;
  void set_chaos_hook(ChaosHook hook) { chaos_hook_ = std::move(hook); }
  void fire_chaos(const char* phase, ProcId pid) {
    if (chaos_hook_) chaos_hook_(phase, pid);
  }
  [[nodiscard]] bool has_chaos_hook() const { return static_cast<bool>(chaos_hook_); }

  /// The process with this pid; throws std::out_of_range for an unknown one.
  [[nodiscard]] ProcessState& proc(ProcId pid);
  [[nodiscard]] const ProcessState& proc(ProcId pid) const;

  /// Enqueue a message; drops silently if the destination is dead
  /// (matching a network that cannot deliver to a crashed process).
  void deliver(ProcId dst, Message msg);
  /// Wake every blocked process so waiting predicates re-evaluate (used by
  /// kill, exit, revoke and agreement restarts).  Takes each process's mu
  /// in turn, so the caller must hold no ProcessState::mu.
  void notify_all_procs();

  // --- results blackboard ---------------------------------------------------
  // Applications (usually rank 0) publish measurements; bench harnesses read
  // them after run() returns.
  void put(const std::string& key, double value);
  void add(const std::string& key, double value);
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::map<std::string, double> results() const;
  void clear_results();

  // --- thread-local identity -----------------------------------------------
  /// The calling thread's simulated process (nullptr on non-rank threads).
  static ProcessState* current();

 private:
  /// Append-only pid -> process table whose slots never move: 1024-slot
  /// chunks hang off a fixed directory.  append() fills the next slot and
  /// publishes it with a release store of the size; readers load the size
  /// with acquire and touch only the slots below it, so lookups need no
  /// lock.  Appends are serialised by the caller (Runtime::mu_).
  class ProcessTable {
   public:
    [[nodiscard]] std::size_t size() const { return size_.load(std::memory_order_acquire); }
    /// nullptr for a pid that was never appended.
    [[nodiscard]] ProcessState* find(ProcId pid) const {
      if (pid < 0 || static_cast<std::size_t>(pid) >= size()) return nullptr;
      return at(static_cast<std::size_t>(pid));
    }
    /// Like find(), but throws std::out_of_range for an unknown pid.
    [[nodiscard]] ProcessState& get(ProcId pid) const;
    /// Store `ps` under the next pid, which it is given.
    ProcessState& append(std::unique_ptr<ProcessState> ps);
    /// Visit every published process in pid order.
    template <class F>
    void for_each(F&& f) const {
      const std::size_t n = size();
      for (std::size_t i = 0; i < n; ++i) f(*at(i));
    }

   private:
    static constexpr std::size_t kChunkBits = 10;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
    static constexpr std::size_t kMaxChunks = 1024;
    using Chunk = std::array<std::unique_ptr<ProcessState>, kChunkSize>;
    [[nodiscard]] ProcessState* at(std::size_t i) const {
      return (*chunks_[i >> kChunkBits])[i & (kChunkSize - 1)].get();
    }
    std::array<std::unique_ptr<Chunk>, kMaxChunks> chunks_;
    std::atomic<std::size_t> size_{0};
  };

  void thread_main(ProcessState* ps);
  /// Find/extend a host with a free slot; returns {host, slot}.  mu_ held.
  std::pair<int, int> allocate_slot_locked(int preferred_host);
  /// Mark ps dead and free its host slot; false if it already died or
  /// finished.  mu_ held.
  bool mark_dead_locked(ProcessState& ps);
  /// The unlocked half of a kill: counters, trace record, wake-ups.
  void announce_kill(const ProcessState& ps);
  void dump_state() const;

  Options opt_;
  // Serialises appends to procs_ and guards hosts_, host_failed_,
  // host_substitute_, apps_ and active_.  Pid lookups do not take it.
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  ProcessTable procs_;
  std::vector<std::vector<bool>> hosts_;  // hosts_[h][s] = slot occupied
  std::vector<bool> host_failed_;         // failed nodes: slots unusable
  std::map<int, int> host_substitute_;    // failed host -> its spare replacement
  std::map<std::string, EntryFn> apps_;
  int active_ = 0;

  std::atomic<std::uint64_t> failure_epoch_{0};
  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<int> killed_{0};
  std::atomic<long long> msg_count_{0};
  std::atomic<long long> msg_bytes_{0};
  std::atomic<long long> msg_cross_host_{0};

  mutable std::mutex ctx_mu_;
  std::map<std::uint64_t, std::shared_ptr<CommContext>> contexts_;
  std::uint64_t next_ctx_ = 1;

  mutable std::mutex results_mu_;
  std::map<std::string, double> results_;

  ChaosHook chaos_hook_;

  Trace trace_;
};

}  // namespace ftmpi
