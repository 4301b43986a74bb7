#include "ftmpi/runtime.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cxxabi.h>
#include <exception>
#include <stdexcept>
#include <system_error>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "ftmpi/dlsan.hpp"
#include "ftmpi/psan.hpp"
#include "ftmpi/vtsan.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define FTR_FIBER_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define FTR_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTR_FIBER_ASAN 1
#elif __has_feature(thread_sanitizer)
#define FTR_FIBER_TSAN 1
#endif
#endif
#ifdef FTR_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef FTR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace ftmpi {

/// One worker thread's side of the scheduler: the context a fiber switches
/// back to, and what the fiber asked for when it did.
struct Worker {
  enum class Handoff { kPark, kYield, kExit };
  ucontext_t ctx{};
  Handoff handoff = Handoff::kYield;
  std::mutex* release = nullptr;  ///< kPark: the rank's mu, unlocked after the switch
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;  ///< the worker thread's own stack (ASan)
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;
};

namespace {

FTR_PER_RANK("the worker's current fiber: the scheduler sets it on every switch, and ranks read it only through Runtime::current()")
thread_local ProcessState* tls_proc = nullptr;

/// Usable stack per fiber, below one guard page: five times the deepest
/// stack the test suite reaches in the Debug ASan build (24 KiB; 16 KiB
/// optimised).  Pages are committed only when touched, so the margin costs
/// address space, not memory.
constexpr std::size_t kStackBytes = std::size_t{128} << 10;

/// How long an idle worker polls the ready queue before it sleeps: about
/// 20-50 us of pause instructions.
constexpr int kSpinPolls = 1000;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The C++ runtime's per-thread exception state (libstdc++ and libc++abi
/// share this layout).  A fiber that parks while unwinding or inside a
/// catch block takes it along to whichever worker resumes it.
struct EhGlobals {
  void* caught;
  unsigned uncaught;
};

EhGlobals& eh_globals() {
  return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

/// Switch the calling fiber back to its worker, which then carries out
/// `handoff`.  Returns when a worker resumes the fiber, which need not be
/// the same one; never returns for kExit.
void switch_to_worker(Fiber& f, Worker::Handoff handoff, std::mutex* release) {
  Worker& w = *f.worker;
  w.handoff = handoff;
  w.release = release;
#ifdef FTR_FIBER_TSAN
  if (release != nullptr) {
    // The worker unlocks `release` for this fiber; hand TSan the ownership.
    __tsan_mutex_pre_unlock(release, 0);
    __tsan_mutex_post_unlock(release, 0);
  }
  __tsan_switch_to_fiber(w.tsan_fiber, 0);
#endif
#ifdef FTR_FIBER_ASAN
  __sanitizer_start_switch_fiber(handoff == Worker::Handoff::kExit ? nullptr : &f.asan_fake_stack,
                                 w.stack_bottom, w.stack_size);
#endif
  swapcontext(&f.ctx, &w.ctx);
#ifdef FTR_FIBER_ASAN
  Worker& now = *f.worker;
  __sanitizer_finish_switch_fiber(f.asan_fake_stack, &now.stack_bottom, &now.stack_size);
#endif
}

}  // namespace

Fiber::Fiber() {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  map_bytes = kStackBytes + page;
  map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) {
    map = nullptr;
    throw std::system_error(errno, std::generic_category(), "ftmpi: fiber stack");
  }
  // The stack grows down onto the guard page, so an overflow faults.
  if (mprotect(map, page, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map, map_bytes);
    map = nullptr;
    throw std::system_error(err, std::generic_category(), "ftmpi: fiber guard page");
  }
  ctx.uc_stack.ss_sp = static_cast<char*>(map) + page;
  ctx.uc_stack.ss_size = kStackBytes;
}

Fiber::~Fiber() {
  if (map != nullptr) munmap(map, map_bytes);
#ifdef FTR_FIBER_TSAN
  if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
#endif
}

FiberPool& FiberPool::shared() {
  // Never destroyed, so that a Runtime ended during static destruction
  // still finds it; the process's exit unmaps the stacks.
  static auto* pool = new FiberPool;
  return *pool;
}

std::unique_ptr<Fiber> FiberPool::take() {
  std::unique_ptr<Fiber> f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      f = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (!f) return std::make_unique<Fiber>();
  // The previous owner's frames are dead: clear what the sanitizers still
  // hold of them (its last frames' redzones, its TSan fiber).
#ifdef FTR_FIBER_ASAN
  ASAN_UNPOISON_MEMORY_REGION(f->ctx.uc_stack.ss_sp, f->ctx.uc_stack.ss_size);
#endif
#ifdef FTR_FIBER_TSAN
  __tsan_destroy_fiber(f->tsan_fiber);
  f->tsan_fiber = nullptr;
#endif
  return f;
}

void FiberPool::put(std::unique_ptr<Fiber> f) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(f));
}

void WaitList::add(ProcessState& ps) {
  ps.wait_slot = waits_.size();
  waits_.push_back(&ps);
}

void WaitList::remove(ProcessState& ps) {
  // Move the last wait into ps's slot.
  ProcessState* last = waits_.back();
  waits_[ps.wait_slot] = last;
  last->wait_slot = ps.wait_slot;
  waits_.pop_back();
}

ProcessState* Runtime::current() { return tls_proc; }

Runtime::Runtime(Options opt) : opt_(std::move(opt)) {
  if (opt_.slots_per_host <= 0) opt_.slots_per_host = 1;
  if (opt_.detector.suspect_after < opt_.detector.period) {
    opt_.detector.suspect_after = opt_.detector.period;
  }
  if (opt_.detector.confirm_after <= opt_.detector.suspect_after) {
    opt_.detector.confirm_after = 2.0 * opt_.detector.suspect_after;
  }
  const unsigned n = std::max(1U, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_main(); });
}

Runtime::~Runtime() {
  {
    // A process started outside run() still finishes before its runtime
    // goes.
    std::unique_lock<std::mutex> lock(mu_);
    // ftlint:allow(FTL008 the destructor runs on the owner's thread, never on a rank fiber)
    done_cv_.wait(lock, [this] { return active_ == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Pids and context ids restart per Runtime (and stack Runtimes can reuse
  // an address), so the sanitizers must forget this instance.
  FTR_PSAN_RUNTIME_DESTROYED(this);
  FTR_VTSAN_RUNTIME_DESTROYED(this);
  FTR_DLSAN_RUNTIME_DESTROYED(this);
}

ProcessState& Runtime::ProcessTable::append(std::unique_ptr<ProcessState> ps) {
  ps->pid = static_cast<ProcId>(slots_.size());
  ProcessState& out = *ps;
  slots_.append(std::move(ps));
  return out;
}

ProcessState& Runtime::ProcessTable::get(ProcId pid) const {
  ProcessState* ps = find(pid);
  if (ps == nullptr) throw std::out_of_range("ftmpi: unknown pid " + std::to_string(pid));
  return *ps;
}

void Runtime::register_app(const std::string& name, EntryFn entry) {
  std::lock_guard<std::mutex> lock(mu_);
  apps_[name] = std::move(entry);
}

std::pair<int, int> Runtime::allocate_slot_locked(int preferred_host) {
  // With a bounded cluster (max_hosts > 0), growth stops at the bound and
  // the allocation can fail ({-1, -1}) — the substrate of spawn placement
  // failure and the shrink-mode recovery fallback.
  auto can_grow_to = [this](int h) {
    return opt_.max_hosts <= 0 || h < opt_.max_hosts;
  };
  auto grow_to = [this, &can_grow_to](int h) {
    if (!can_grow_to(h)) return false;
    while (static_cast<size_t>(h) >= hosts_.size()) {
      hosts_.emplace_back(static_cast<size_t>(opt_.slots_per_host), false);
      host_failed_.push_back(false);
    }
    return true;
  };
  auto find_free = [this](int h) -> int {
    if (host_failed_[static_cast<size_t>(h)]) return -1;
    for (int s = 0; s < opt_.slots_per_host; ++s) {
      if (!hosts_[static_cast<size_t>(h)][static_cast<size_t>(s)]) return s;
    }
    return -1;
  };
  if (preferred_host >= 0 && grow_to(preferred_host)) {
    // A failed node's placement requests are redirected to one consistent
    // spare host, so all of its replacements come up co-located (the
    // paper's future-work node-failure scenario).
    if (host_failed_[static_cast<size_t>(preferred_host)]) {
      const auto it = host_substitute_.find(preferred_host);
      if (it != host_substitute_.end()) {
        preferred_host = it->second;
      } else if (const int spare = static_cast<int>(hosts_.size()); grow_to(spare)) {
        host_substitute_[preferred_host] = spare;
        FTR_INFO("ftmpi: failed host %d substituted by spare host %d", preferred_host,
                 spare);
        preferred_host = spare;
      } else {
        preferred_host = -1;  // cluster bounded and full of failed/occupied hosts
      }
    }
    if (preferred_host >= 0) {
      const int s = find_free(preferred_host);
      if (s >= 0) {
        hosts_[static_cast<size_t>(preferred_host)][static_cast<size_t>(s)] = true;
        return {preferred_host, s};
      }
      FTR_WARN("ftmpi: preferred host %d full; falling back to first free slot",
               preferred_host);
    }
  }
  for (size_t h = 0; h < hosts_.size(); ++h) {
    const int s = find_free(static_cast<int>(h));
    if (s >= 0) {
      hosts_[h][static_cast<size_t>(s)] = true;
      return {static_cast<int>(h), s};
    }
  }
  if (!grow_to(static_cast<int>(hosts_.size()))) {
    FTR_WARN("ftmpi: cluster exhausted (%zu hosts, max %d); placement failed",
             hosts_.size(), opt_.max_hosts);
    return {-1, -1};
  }
  hosts_.back()[0] = true;
  return {static_cast<int>(hosts_.size()) - 1, 0};
}

void Runtime::fail_host(int host) {
  std::vector<const ProcessState*> victims;
  {
    // The residents die under the same lock that marks the host failed, so
    // a resident that observes host_failed() is already dead.
    std::lock_guard<std::mutex> lock(mu_);
    if (host < 0 || static_cast<size_t>(host) >= hosts_.size()) return;
    host_failed_[static_cast<size_t>(host)] = true;
    procs_.for_each([&](ProcessState& ps) {
      if (ps.host == host && mark_dead_locked(ps)) victims.push_back(&ps);
    });
  }
  FTR_INFO("ftmpi: node failure on host %d kills %zu processes", host, victims.size());
  trace_.record(0.0, kNullProc, TraceEvent::HostFail, host);
  for (const ProcessState* ps : victims) announce_kill(*ps);
}

bool Runtime::host_failed(int host) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (host < 0 || static_cast<size_t>(host) >= host_failed_.size()) return false;
  return host_failed_[static_cast<size_t>(host)];
}

ProcId Runtime::create_process(const std::string& app, std::vector<std::string> argv,
                               int preferred_host, double start_clock) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [host, slot] = allocate_slot_locked(preferred_host);
  if (host < 0) return kNullProc;
  auto ps = std::make_unique<ProcessState>();
  ps->rt = this;
  ps->app = app;
  ps->argv = std::move(argv);
  ps->vclock = start_clock;
  ps->host = host;
  ps->slot = slot;
  ProcessState& created = procs_.append(std::move(ps));
  // Registered before any fiber runs: run() creates the whole world
  // before starting rank 0, so the deadlock sanitizer never mistakes a
  // not-yet-started peer for an absent one.
  FTR_DLSAN_PROC_CREATED(this, &created);
  return created.pid;
}

void Runtime::release_unstarted(ProcId pid) {
  ProcessState* found = procs_.find(pid);
  if (found == nullptr) return;
  ProcessState& ps = *found;
  std::lock_guard<std::mutex> lock(mu_);
  if (ps.started.load() || ps.finished.load()) return;
  ps.dead.store(true);
  ps.finished.store(true);
  failures_.append(pid);
  hosts_[static_cast<size_t>(ps.host)][static_cast<size_t>(ps.slot)] = false;
  FTR_DLSAN_PROC_RELEASED(this, pid);
}

void Runtime::start_process(ProcId pid) {
  ProcessState* ps = &proc(pid);
  std::unique_ptr<Fiber> f = FiberPool::shared().take();
  // getcontext and makecontext keep the stack the fiber was given.
  const stack_t stack = f->ctx.uc_stack;
  getcontext(&f->ctx);
  f->ctx.uc_stack = stack;
  f->ctx.uc_link = nullptr;
  makecontext(&f->ctx, &Runtime::fiber_entry, 0);
#ifdef FTR_FIBER_TSAN
  f->tsan_fiber = __tsan_create_fiber(0);
#endif
  ps->fiber = std::move(f);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++active_;
  }
  ps->started.store(true);
  roster_version_.fetch_add(1);
  // The creator's clock (or the driver clock) is what the new rank starts
  // from: spawn is a happens-before edge.
  FTR_VTSAN_SPAWN(this, pid);
  make_ready(ps);
}

void Runtime::fiber_entry() {
  ProcessState* ps = current();
#ifdef FTR_FIBER_ASAN
  Worker& w = *ps->fiber->worker;
  __sanitizer_finish_switch_fiber(nullptr, &w.stack_bottom, &w.stack_size);
#endif
  ps->rt->fiber_main(ps);
  switch_to_worker(*ps->fiber, Worker::Handoff::kExit, nullptr);
}

void Runtime::fiber_main(ProcessState* ps) {
  FTR_VTSAN_THREAD_START();
  FTR_DLSAN_THREAD_START();
  EntryFn entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = apps_.find(ps->app);
    if (it != apps_.end()) entry = it->second;
  }
  if (entry) {
    try {
      entry(ps->argv);
    } catch (const ProcessKilled&) {
      // Fail-stop unwind: the process executes nothing further.
      FTR_DEBUG("ftmpi: pid %d terminated by kill", ps->pid);
    } catch (const std::exception& e) {
      FTR_ERROR("ftmpi: pid %d terminated by exception: %s", ps->pid, e.what());
    }
  } else {
    FTR_ERROR("ftmpi: pid %d: no registered app named '%s'", ps->pid, ps->app.c_str());
  }
  ps->finished.store(true);
  membership_epoch_.fetch_add(1);
  roster_version_.fetch_add(1);
  // Peers blocked on this process must re-evaluate their wait predicates.
  FTR_DLSAN_THREAD_EXIT();
  notify_exit(*ps);
}

void Runtime::worker_main() {
  Worker w;
#ifdef FTR_FIBER_TSAN
  w.tsan_fiber = __tsan_get_current_fiber();
#endif
  std::unique_lock<std::mutex> lock(ready_mu_);
  while (!stopping_ || !ready_.empty()) {
    if (ready_.empty()) {
      // Spin briefly before sleeping: a rank woken a moment from now (the
      // reply in a message exchange) is then picked up without an OS
      // wake-up on either side.
      ++spinning_workers_;
      lock.unlock();
      for (int i = 0; i < kSpinPolls && ready_size_.load(std::memory_order_relaxed) == 0; ++i) {
        cpu_relax();
      }
      lock.lock();
      --spinning_workers_;
      if (!ready_.empty() || stopping_) continue;
      ++idle_workers_;
      // ftlint:allow(FTL008 a worker idles on the OS thread it owns; no fiber is on it here)
      ready_cv_.wait(lock);
      --idle_workers_;
      continue;
    }
    ProcessState* ps = ready_.front();
    ready_.pop_front();
    ready_size_.store(ready_.size(), std::memory_order_relaxed);
    // More work than this worker: pass it on to a sleeping one.
    const bool wake = !ready_.empty() && idle_workers_ > 0 && spinning_workers_ == 0;
    lock.unlock();
    if (wake) ready_cv_.notify_one();
    run_slice(w, *ps);
    lock.lock();
  }
}

void Runtime::run_slice(Worker& w, ProcessState& ps) {
  Fiber& f = *ps.fiber;
  f.worker = &w;
  f.slice_charges = 0;
  tls_proc = &ps;
  EhGlobals& eh = eh_globals();
  eh = {f.eh_caught, f.eh_uncaught};
#ifdef FTR_FIBER_ASAN
  __sanitizer_start_switch_fiber(&w.asan_fake_stack, f.ctx.uc_stack.ss_sp,
                                 f.ctx.uc_stack.ss_size);
#endif
#ifdef FTR_FIBER_TSAN
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  swapcontext(&w.ctx, &f.ctx);
#ifdef FTR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(w.asan_fake_stack, nullptr, nullptr);
#endif
  f.eh_caught = eh.caught;
  f.eh_uncaught = eh.uncaught;
  eh = {nullptr, 0};
  tls_proc = nullptr;
  switch (w.handoff) {
    case Worker::Handoff::kPark:
#ifdef FTR_FIBER_TSAN
      __tsan_mutex_pre_lock(w.release, 0);
      __tsan_mutex_post_lock(w.release, 0, 0);
#endif
      w.release->unlock();
      break;
    case Worker::Handoff::kYield:
      make_ready(&ps);
      break;
    case Worker::Handoff::kExit: {
      // Off its stack at last: pool the fiber, then count the exit, so that
      // run() and the destructor return only once every stack is pooled.
      FiberPool::shared().put(std::move(ps.fiber));
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        last = --active_ == 0;
      }
      // Only the last exit can end run()'s wait, and it comes after every
      // exit's wake-ups.
      if (last) done_cv_.notify_all();
      break;
    }
  }
}

void Runtime::make_ready(ProcessState* ps) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready_.push_back(ps);
    ready_size_.store(ready_.size(), std::memory_order_relaxed);
    // A spinning worker takes it without an OS wake-up.
    wake = idle_workers_ > 0 && spinning_workers_ == 0;
  }
  if (wake) ready_cv_.notify_one();
}

void Runtime::wake_locked(ProcessState& ps) {
  if (!ps.asleep) return;
  ps.asleep = false;
  make_ready(&ps);
}

FTR_YIELD void Runtime::park(std::unique_lock<std::mutex>& lock) {
  ProcessState& ps = *current();
  ps.asleep = true;
  std::mutex* mu = lock.release();
  switch_to_worker(*ps.fiber, Worker::Handoff::kPark, mu);
  lock = std::unique_lock<std::mutex>(*mu);
}

FTR_YIELD void Runtime::yield_rank() {
  switch_to_worker(*current()->fiber, Worker::Handoff::kYield, nullptr);
}

FTR_YIELD void Runtime::preempt_point() {
  // A rank whose halo messages are always there when it looks never parks.
  // Without this cap, ranks that happen to run side by side on the workers
  // race many steps ahead of the ranks that park for every exchange (OS
  // threads get preempted instead), which starves, for instance, the
  // overlapped repair's continuation side of the steps it should take
  // while the repair runs.
  ProcessState& ps = *current();
  if (++ps.fiber->slice_charges < 2 ||
      ps.rt->ready_size_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  switch_to_worker(*ps.fiber, Worker::Handoff::kYield, nullptr);
}

int Runtime::run(const std::string& app, int world_size, std::vector<std::string> argv) {
  if (world_size <= 0) return 0;
  const int killed_before = killed_.load();

  Group world_group;
  std::vector<ProcId> pids;
  pids.reserve(static_cast<size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    // The initial placement follows the paper's hostfile: rank r lands on
    // host r / SLOTS.
    const ProcId pid = create_process(app, argv, r / opt_.slots_per_host, 0.0);
    pids.push_back(pid);
    world_group.pids.push_back(pid);
  }
  const auto world = create_context(world_group);
  for (int r = 0; r < world_size; ++r) {
    auto& ps = proc(pids[static_cast<size_t>(r)]);
    ps.world_ctx = world->id;
    ps.world_rank = r;
  }
  for (ProcId pid : pids) start_process(pid);

  // Wait for completion with a real-time watchdog: a protocol bug that
  // deadlocks ranks cannot be unwound, so fail loudly.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt_.real_time_limit_sec));
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (active_ > 0) {
      // ftlint:allow(FTL008 driver-thread watchdog wait; run() never executes on a rank, so no fiber can park here)
      if (done_cv_.wait_until(lock, deadline) == std::cv_status::timeout && active_ > 0) {
        lock.unlock();
        dump_state();
        FTR_ERROR("ftmpi: watchdog expired after %.0f s with %d processes still active",
                  opt_.real_time_limit_sec, active_);
        std::abort();
      }
    }
  }
  // Fold every rank clock into the driver clock so the next run() on this
  // runtime is ordered after this one (blackboard keys are often reused).
  FTR_VTSAN_RUN_COMPLETE(this);
  return killed_.load() - killed_before;
}

void Runtime::kill(ProcId pid) {
  ProcessState* ps = procs_.find(pid);
  if (ps == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!mark_dead_locked(*ps)) return;
  }
  announce_kill(*ps);
}

bool Runtime::mark_dead_locked(ProcessState& ps) {
  if (ps.dead.load() || ps.finished.load()) return false;
  // Counted before the victim can see it is dead: it may unwind and exit at
  // once, and run() must count the kill when the last exit ends its wait.
  killed_.fetch_add(1);
  ps.dead.store(true);
  failures_.append(ps.pid);
  // Free the host slot so repair can re-spawn on the same node, which is
  // exactly the paper's load-balancing strategy.
  hosts_[static_cast<size_t>(ps.host)][static_cast<size_t>(ps.slot)] = false;
  return true;
}

void Runtime::announce_kill(const ProcessState& ps) {
  failure_epoch_.fetch_add(1);
  membership_epoch_.fetch_add(1);
  // Stamped with the killer's clock: the victim's vclock belongs to its own
  // fiber, which may still be charging time.
  const ProcessState* actor = current();
  trace_.record(actor != nullptr ? actor->vclock : 0.0, ps.pid, TraceEvent::Kill,
                ps.world_rank);
  notify_all_procs();
  FTR_DEBUG("ftmpi: killed pid %d (world rank %d)", ps.pid, ps.world_rank);
}

bool Runtime::is_dead(ProcId pid) const {
  const ProcessState* ps = procs_.find(pid);
  return ps == nullptr || ps->dead.load();
}

std::vector<int> Runtime::dead_ranks(const CommContext& ctx) const {
  std::vector<int> out;
  const std::size_t n = failures_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const int r = ctx.agreement_rank(failures_[i]);
    if (r >= 0) out.push_back(r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ProcId> Runtime::dead_members(const CommContext& ctx) const {
  const Group& g = ctx.agreement_group();
  std::vector<ProcId> out;
  for (int r : dead_ranks(ctx)) out.push_back(g.pids[static_cast<size_t>(r)]);
  return out;
}

int Runtime::host_of(ProcId pid) const { return proc(pid).host; }

int Runtime::total_processes() const { return static_cast<int>(procs_.size()); }

std::shared_ptr<const std::vector<ProcId>> Runtime::roster() const {
  // Any start or exit after this load bumps the version past it, so the
  // next caller rebuilds; a roster built at a later version is fresher.
  const std::uint64_t version = roster_version_.load();
  std::lock_guard<std::mutex> lock(roster_mu_);
  if (roster_ && roster_built_ >= version) return roster_;
  auto pids = std::make_shared<std::vector<ProcId>>();
  procs_.for_each([&](const ProcessState& ps) {
    // A process leaves the RTE-visible membership only by *deregistering
    // cleanly* (finishing without having been killed).  A crashed process
    // stays listed — its silence in the heartbeat ring is exactly what the
    // detector's timeout observes; it leaves each rank's ring view only
    // when that rank learns of the death (known_failed).
    if (ps.started.load() && (ps.dead.load() || !ps.finished.load())) {
      pids->push_back(ps.pid);
    }
  });
  roster_ = std::move(pids);
  roster_built_ = version;
  return roster_;
}

std::shared_ptr<CommContext> Runtime::create_context(Group local, Group remote, bool inter) {
  auto ctx = std::make_shared<CommContext>();
  ctx->is_inter = inter;
  if (inter) {
    ctx->both_sides.pids = local.pids;
    ctx->both_sides.pids.insert(ctx->both_sides.pids.end(), remote.pids.begin(),
                                remote.pids.end());
  }
  ctx->group[0] = std::move(local);
  ctx->group[1] = std::move(remote);
  ctx->index_members();
  std::lock_guard<std::mutex> lock(ctx_mu_);
  ctx->id = next_ctx_++;
  contexts_[ctx->id] = ctx;
  FTR_VTSAN_WRITE("comm context", std::to_string(ctx->id));
  return ctx;
}

std::shared_ptr<CommContext> Runtime::find_context(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(ctx_mu_);
  const auto it = contexts_.find(id);
  if (it != contexts_.end()) FTR_VTSAN_READ("comm context", std::to_string(id));
  return it == contexts_.end() ? nullptr : it->second;
}

ProcessState& Runtime::proc(ProcId pid) { return procs_.get(pid); }

const ProcessState& Runtime::proc(ProcId pid) const { return procs_.get(pid); }

void Runtime::deliver(ProcId dst, Message msg) {
  FTR_VTSAN_STAMP(msg);
  ProcessState* ps = procs_.find(dst);
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(ps->mu);
  if (ps->dead.load()) return;  // the network cannot deliver to a crashed process
  if (msg.ctrl && (msg.tag == tags::kHeartbeat || msg.tag == tags::kGossip)) {
    ps->det_pending.fetch_add(1, std::memory_order_relaxed);
  }
  ps->mailbox.push_back(std::move(msg));
  FTR_DLSAN_WAKE(this, dst);
  wake_locked(*ps);
}

void Runtime::notify_all_procs() {
  procs_.for_each([&](ProcessState& ps) {
    // The caller published its state change before this load, and a waiter
    // publishes `parked` before its first predicate check (both seq_cst):
    // a waiter read here as not parked will see the change when it checks.
    if (ps.parked.load() == 0) return;
    // Taking the waiter's lock orders this wake-up after its predicate
    // check: the waiter either has not checked yet, and will see the new
    // state, or is asleep and is queued here.
    std::lock_guard<std::mutex> lock(ps.mu);
    FTR_DLSAN_WAKE(this, ps.pid);
    wake_locked(ps);
  });
}

Runtime::ExitWatch Runtime::watch_exits(ProcessState& waiter, ProcessState* peer,
                                        bool any_exit) {
  ExitWatch w;
  if (any_exit) {
    w = {&any_exit_mu_, &any_exit_waits_};
  } else if (peer != nullptr) {
    w = {&peer->exit_mu, &peer->exit_waiters};
  } else {
    return w;  // no exit can end this wait
  }
  std::lock_guard<std::mutex> lock(*w.mu);
  w.list->add(waiter);
  return w;
}

void Runtime::unwatch_exits(ProcessState& waiter, const ExitWatch& w) {
  if (w.list == nullptr) return;
  std::lock_guard<std::mutex> lock(*w.mu);
  w.list->remove(waiter);
}

void Runtime::notify_exit(ProcessState& ps) {
  // The exit (finished, the membership epoch) is published before the
  // lists are read, and a wait registers before its last predicate check,
  // both under the list's mutex: a wait missing here was registered after
  // this read, so its check sees the exit.  The waits are copied out, as
  // a waiter takes the list's mutex under its own mu.
  std::vector<ProcessState*> woken;
  {
    std::lock_guard<std::mutex> lock(ps.exit_mu);
    woken = ps.exit_waiters.waits();
  }
  {
    std::lock_guard<std::mutex> lock(any_exit_mu_);
    const std::vector<ProcessState*>& any = any_exit_waits_.waits();
    woken.insert(woken.end(), any.begin(), any.end());
  }
  for (ProcessState* w : woken) {
    std::lock_guard<std::mutex> lock(w->mu);
    FTR_DLSAN_WAKE(this, w->pid);
    wake_locked(*w);
  }
}

Runtime::Stats Runtime::stats() const {
  Stats s;
  s.messages = msg_count_.load();
  s.bytes = msg_bytes_.load();
  s.cross_host = msg_cross_host_.load();
  return s;
}

void Runtime::record_message(std::size_t bytes, bool cross_host) {
  msg_count_.fetch_add(1, std::memory_order_relaxed);
  msg_bytes_.fetch_add(static_cast<long long>(bytes), std::memory_order_relaxed);
  if (cross_host) msg_cross_host_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::put(const std::string& key, double value) {
  FTR_VTSAN_WRITE("blackboard key", key);
  std::lock_guard<std::mutex> lock(results_mu_);
  results_[key] = value;
}

void Runtime::add(const std::string& key, double value) {
  // Deliberately not vtsan-checked: add() is a commutative accumulation and
  // "every rank adds its share" is the documented idiom.
  std::lock_guard<std::mutex> lock(results_mu_);
  results_[key] += value;
}

double Runtime::get(const std::string& key, double fallback) const {
  FTR_VTSAN_READ("blackboard key", key);
  std::lock_guard<std::mutex> lock(results_mu_);
  const auto it = results_.find(key);
  return it == results_.end() ? fallback : it->second;
}

std::map<std::string, double> Runtime::results() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  return results_;
}

void Runtime::clear_results() {
  std::lock_guard<std::mutex> lock(results_mu_);
  results_.clear();
}

void Runtime::dump_state() const {
  procs_.for_each([](ProcessState& ps) {
    std::lock_guard<std::mutex> lock(ps.mu);
    FTR_ERROR("  pid=%d rank=%d host=%d dead=%d finished=%d mailbox=%zu vclock=%.6f",
              ps.pid, ps.world_rank, ps.host, ps.dead.load() ? 1 : 0,
              ps.finished.load() ? 1 : 0, ps.mailbox.size(), ps.vclock);
  });
}

}  // namespace ftmpi
