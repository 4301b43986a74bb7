#pragma once
// The simulated MPI runtime: a "cluster in a process".
//
// Each simulated MPI process is a fiber with its own stack, mailbox and
// virtual clock.  The fibers run on one worker thread per core, which the
// Runtime owns for its whole lifetime: a rank that waits parks its fiber
// and frees the worker for the next runnable rank, so a message to a
// waiting rank costs a queue push, not an OS wake-up.  A switch between a
// fiber and its worker saves and loads only the callee-saved registers and
// the floating-point control state, with no system call, and the locks
// that a hand-off takes poll before they sleep (SpinSleepLock).  The
// Runtime also owns the process table, the hosts-and-slots placement model
// (the paper's hostfile with SLOTS=12 per node), the
// communicator-context registry, the failure epoch used to wake blocked
// operations when a process is killed, and a results blackboard through
// which applications report measurements to the bench harnesses.
//
// Failure semantics are fail-stop, as in the paper: Runtime::kill() marks a
// process dead and frees its host slot; the victim's fiber unwinds (via
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
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "ftmpi/comm.hpp"
#include "ftmpi/cost_model.hpp"
#include "ftmpi/detector.hpp"
#include "ftmpi/spin_sleep_lock.hpp"
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
struct Worker;

/// A process's execution context: its guard-paged stack (mapped lazily, so
/// only the pages it touches are committed) and, while it is switched out,
/// the stack pointer under which its registers are saved.  The scheduler
/// owns it; when the process exits, the fiber goes to the FiberPool for the
/// next process to start.
struct Fiber {
  /// Map a fresh stack above its guard page.
  Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  void* sp = nullptr;   ///< saved stack pointer while switched out
  void* map = nullptr;  ///< the mapping: guard page, then the stack
  std::size_t map_bytes = 0;
  void* stack_lo = nullptr;  ///< lowest byte of the stack, just above the guard page
  std::size_t stack_bytes = 0;
  Worker* worker = nullptr;  ///< the worker it runs on (or last ran on)
  int slice_charges = 0;     ///< charges of virtual time since it was resumed
  /// The C++ runtime's per-thread exception state (caught-exception chain,
  /// uncaught count), carried with the fiber from worker to worker.
  void* eh_caught = nullptr;
  unsigned eh_uncaught = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

/// Fibers of exited processes, each handed to the next process to start,
/// so that no stack is mapped or unmapped while ranks come and go.  A
/// pooled fiber keeps its mapping, guard page included.  One pool serves
/// every Runtime in the process: a program that builds a Runtime per run
/// maps its stacks once, not once per run.
class FiberPool {
 public:
  [[nodiscard]] static FiberPool& shared();
  /// A pooled fiber, or a freshly mapped one when the pool is empty.
  [[nodiscard]] std::unique_ptr<Fiber> take();
  void put(std::unique_ptr<Fiber> f);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Fiber>> free_;  ///< guarded by mu_
};

struct ProcessState;

/// The parked waits that one kind of event can end, each registered and
/// removed in O(1): a registered rank remembers its slot
/// (ProcessState::wait_slot).  The owner's mutex guards it.
class WaitList {
 public:
  void add(ProcessState& ps);
  void remove(ProcessState& ps);
  [[nodiscard]] const std::vector<ProcessState*>& waits() const { return waits_; }

 private:
  std::vector<ProcessState*> waits_;
};

/// Per-process runtime state.  The owning fiber is the only writer of
/// vclock; the mailbox and flags are guarded by mu.
struct ProcessState {
  Runtime* rt = nullptr;
  ProcId pid = kNullProc;
  int host = 0;
  int slot = 0;
  std::string app;
  std::vector<std::string> argv;
  std::unique_ptr<Fiber> fiber;

  SpinSleepLock mu;
  /// True from the moment the fiber parks (Runtime::park) until a wake-up
  /// claims it and puts it on the ready queue.  Guarded by mu.
  bool asleep = false;
  std::deque<Message> mailbox;
  std::atomic<bool> dead{false};
  std::atomic<bool> finished{false};
  /// Set by start_process(); created-but-unstarted processes are invisible
  /// to the detector ring.
  std::atomic<bool> started{false};

  double vclock = 0.0;
  /// Messages, payload bytes and cross-host messages this process sent
  /// (Runtime::record_message).  Only the owning fiber writes them, so an
  /// update is a load and a store; Runtime::stats() sums them.
  std::atomic<long long> sent_msgs{0};
  std::atomic<long long> sent_bytes{0};
  std::atomic<long long> sent_cross_host{0};

  /// Number of detector-channel messages (heartbeats/gossip) queued in the
  /// mailbox; bumped by deliver() under mu, reset by detector::drain().
  /// Lets the owner skip mailbox locking when nothing is pending.
  std::atomic<int> det_pending{0};
  /// Failure-detector state; touched only by the owning rank.
  detector::State det;

  /// Nonzero while this rank runs a blocking wait loop
  /// (detail::ParkedScope); notify_all_procs() skips ranks at 0.
  std::atomic<int> parked{0};
  /// The parked waits that this process's exit can end: receives and
  /// probes that name it as their one sender.  Guarded by exit_mu, a leaf
  /// lock (a waiter takes it under its own mu).
  SpinSleepLock exit_mu;
  WaitList exit_waiters;
  /// This rank's slot in the WaitList its own parked wait is registered in
  /// (a rank waits on one thing at a time).  Guarded by that list's mutex.
  std::size_t wait_slot = 0;

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

  /// Entry point of a simulated MPI application; runs on each rank's fiber.
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

  // Pid lookups (proc, is_dead, host_of, total_processes) and the failure
  // log (dead_ranks, dead_members) take no lock: see PublishedTable.
  /// True for a dead process and for a pid that was never created.
  [[nodiscard]] bool is_dead(ProcId pid) const;
  /// Ranks in ctx's agreement group of its dead members, ascending: read
  /// from the failure log in O(failures), one rank lookup each.
  [[nodiscard]] std::vector<int> dead_ranks(const CommContext& ctx) const;
  /// The pids of those members, in rank order.
  [[nodiscard]] std::vector<ProcId> dead_members(const CommContext& ctx) const;

  [[nodiscard]] int host_of(ProcId pid) const;
  [[nodiscard]] int slots_per_host() const { return opt_.slots_per_host; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] const CostModel& cost() const { return opt_.cost; }
  /// Pids of started processes that have not deregistered cleanly, in pid
  /// order — the RTE-visible membership the detector ring is built over.
  /// Killed processes stay listed (a crash never deregisters; the ring
  /// timeout is what detects it); normally finished processes drop out.
  /// One roster is shared by every caller and rebuilt, by the first call
  /// after it, at most once per start or exit.
  [[nodiscard]] std::shared_ptr<const std::vector<ProcId>> roster() const;
  /// Monotonic counter bumped by every kill, after the victim is marked
  /// dead.  The tree allreduce watches it to learn of deaths mid-protocol.
  [[nodiscard]] const std::atomic<std::uint64_t>& failure_epoch() const {
    return failure_epoch_;
  }
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
  /// The sum of every process's send counters; exact once run() returns.
  [[nodiscard]] Stats stats() const;
  /// Count a message that `sender`'s own fiber sends.
  static void record_message(ProcessState& sender, std::size_t bytes, bool cross_host);

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
  /// Start the fiber of a process created by create_process() after its
  /// world/parent contexts have been filled in: map its stack and queue it
  /// on the workers.  Works outside run() too; the next run() waits for it.
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
  /// Install before run(); not synchronized against running ranks.
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
  /// Wake every process parked in a wait so its predicates re-evaluate
  /// (kill, revoke and agreement restarts); processes outside a wait are
  /// skipped.  Call it after publishing the state change.  It takes each
  /// woken process's mu in turn, so the caller must hold no
  /// ProcessState::mu.
  void notify_all_procs();

  /// Where a parked wait is registered for the exits that can end it.
  struct ExitWatch {
    SpinSleepLock* mu = nullptr;  ///< guards `list`
    WaitList* list = nullptr;
  };
  /// Register `waiter`'s parked wait for `peer`'s exit, or for every exit
  /// with `any_exit` (a wait that watches several peers, or one that the
  /// membership epoch interrupts).  The caller holds waiter.mu and checks
  /// its predicates once more before it parks.
  ExitWatch watch_exits(ProcessState& waiter, ProcessState* peer, bool any_exit);
  static void unwatch_exits(ProcessState& waiter, const ExitWatch& w);

  // --- the fiber scheduler ---------------------------------------------------
  /// Park the calling rank until a delivery or a notify wakes it.  `lock`
  /// holds the caller's ProcessState::mu, under which it checked its wait
  /// predicates; the worker releases it only after the fiber has switched
  /// out, so a waker that takes mu and finds the rank asleep can queue it
  /// at once.  mu is held again on return.
  FTR_YIELD static void park(std::unique_lock<SpinSleepLock>& lock);
  /// Requeue the calling rank behind every runnable rank (ftmpi::yield()).
  FTR_YIELD static void yield_rank();
  /// Called by every charge of virtual time: a rank that has charged
  /// before in this slice without parking yields here if another rank
  /// waits for a worker, so it advances at most one compute step per turn.
  FTR_YIELD static void preempt_point();

  // --- results blackboard ---------------------------------------------------
  // Applications (usually rank 0) publish measurements; bench harnesses read
  // them after run() returns.
  void put(const std::string& key, double value);
  void add(const std::string& key, double value);
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::map<std::string, double> results() const;
  void clear_results();

  // --- identity -----------------------------------------------------------
  /// The calling rank (nullptr off the rank fibers).  Not inlined: a fiber
  /// can resume on another worker, so the worker-local slot behind it must
  /// be read afresh on every call, never through a cached address.
  [[gnu::noinline]] static ProcessState* current();

 private:
  /// Append-only table whose slots never move: 1024-slot chunks hang off a
  /// fixed directory.  append() fills the next slot and publishes it with
  /// a release store of the size; readers load the size with acquire and
  /// touch only the slots below it, so reads need no lock.  Appends are
  /// serialised by the caller (Runtime::mu_).
  template <class T>
  class PublishedTable {
   public:
    [[nodiscard]] std::size_t size() const { return size_.load(std::memory_order_acquire); }
    /// Slot i, for an i below a size() the caller loaded.
    [[nodiscard]] const T& operator[](std::size_t i) const {
      return (*chunks_[i >> kChunkBits])[i & (kChunkSize - 1)];
    }
    /// Fill the next slot and publish it.
    void append(T v) {
      const std::size_t n = size_.load(std::memory_order_relaxed);
      const std::size_t chunk = n >> kChunkBits;
      if (chunk >= kMaxChunks) throw std::length_error("ftmpi: runtime table full");
      if (!chunks_[chunk]) chunks_[chunk] = std::make_unique<Chunk>();
      (*chunks_[chunk])[n & (kChunkSize - 1)] = std::move(v);
      size_.store(n + 1, std::memory_order_release);
    }

   private:
    static constexpr std::size_t kChunkBits = 10;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
    static constexpr std::size_t kMaxChunks = 1024;
    using Chunk = std::array<T, kChunkSize>;
    std::array<std::unique_ptr<Chunk>, kMaxChunks> chunks_;
    std::atomic<std::size_t> size_{0};
  };

  /// The pid -> process table: slot i holds pid i.
  class ProcessTable {
   public:
    [[nodiscard]] std::size_t size() const { return slots_.size(); }
    /// nullptr for a pid that was never appended.
    [[nodiscard]] ProcessState* find(ProcId pid) const {
      if (pid < 0 || static_cast<std::size_t>(pid) >= size()) return nullptr;
      return slots_[static_cast<std::size_t>(pid)].get();
    }
    /// Like find(), but throws std::out_of_range for an unknown pid.
    [[nodiscard]] ProcessState& get(ProcId pid) const;
    /// Store `ps` under the next pid, which it is given.
    ProcessState& append(std::unique_ptr<ProcessState> ps);
    /// Visit every published process in pid order.
    template <class F>
    void for_each(F&& f) const {
      const std::size_t n = size();
      for (std::size_t i = 0; i < n; ++i) f(*slots_[i]);
    }

   private:
    PublishedTable<std::unique_ptr<ProcessState>> slots_;
  };

  static void fiber_entry();
  /// A rank's whole life on its fiber: the app entry, then the exit
  /// bookkeeping and wake-ups.
  void fiber_main(ProcessState* ps);
  void worker_main();
  /// Switch into `ps` on worker `w` and carry out what it asked for when it
  /// switched back (release its lock, requeue it, or pool its fiber).
  void run_slice(Worker& w, ProcessState& ps);
  /// Put a runnable rank at the back of the ready queue.
  void make_ready(ProcessState* ps);
  /// Queue `ps` if it is asleep.  ps.mu held.
  void wake_locked(ProcessState& ps);
  /// Wake the waits registered for ps's exit: those watching it, those
  /// watching several peers and those interrupted by the membership epoch.
  void notify_exit(ProcessState& ps);
  /// Find/extend a host with a free slot; returns {host, slot}.  mu_ held.
  std::pair<int, int> allocate_slot_locked(int preferred_host);
  /// Count ps as killed, mark it dead, log it and free its host slot; false
  /// if it already died or finished.  mu_ held.
  bool mark_dead_locked(ProcessState& ps);
  /// The unlocked half of a kill: epochs, trace record, wake-ups.
  void announce_kill(const ProcessState& ps);
  void dump_state() const;

  Options opt_;
  // Serialises appends to procs_ and guards hosts_, host_failed_,
  // host_substitute_, apps_ and active_.  Pid lookups do not take it.
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  // The scheduler: one FIFO ready queue shared by the workers.  ready_mu_
  // nests inside ProcessState::mu (a wake-up queues under the rank's lock).
  SpinSleepLock ready_mu_;
  std::condition_variable_any ready_cv_;
  std::deque<ProcessState*> ready_;
  std::atomic<std::size_t> ready_size_{0};  ///< ready_.size(), for spinning workers
  int idle_workers_ = 0;      ///< asleep on ready_cv_
  int spinning_workers_ = 0;  ///< polling ready_size_ before they sleep
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  ProcessTable procs_;
  /// Every pid that died (kill, fail_host, spawn rollback), in the order it
  /// was marked dead; appended under mu_ before the kill's epoch bumps.
  PublishedTable<ProcId> failures_;
  /// Parked waits that any exit can end (watch_exits with any_exit).
  /// Guarded by any_exit_mu_, a leaf lock.
  SpinSleepLock any_exit_mu_;
  WaitList any_exit_waits_;
  /// roster(): bumped after every start and exit; the cached roster and the
  /// version it was built at are guarded by roster_mu_.
  std::atomic<std::uint64_t> roster_version_{0};
  mutable std::mutex roster_mu_;
  mutable std::shared_ptr<const std::vector<ProcId>> roster_;
  mutable std::uint64_t roster_built_ = 0;
  std::vector<std::vector<bool>> hosts_;  // hosts_[h][s] = slot occupied
  std::vector<bool> host_failed_;         // failed nodes: slots unusable
  std::map<int, int> host_substitute_;    // failed host -> its spare replacement
  std::map<std::string, EntryFn> apps_;
  int active_ = 0;

  std::atomic<std::uint64_t> failure_epoch_{0};
  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<int> killed_{0};

  mutable std::mutex ctx_mu_;
  std::map<std::uint64_t, std::shared_ptr<CommContext>> contexts_;
  std::uint64_t next_ctx_ = 1;

  mutable std::mutex results_mu_;
  std::map<std::string, double> results_;

  ChaosHook chaos_hook_;

  Trace trace_;
};

}  // namespace ftmpi
