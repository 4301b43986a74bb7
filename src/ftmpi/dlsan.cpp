// Virtual-time deadlock detector (see dlsan.hpp).  Compiled into the
// library only under FTR_SANITIZE=deadlock; otherwise this translation
// unit is empty.

#include "ftmpi/dlsan.hpp"

#ifdef FTR_DLSAN

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "ftmpi/comm.hpp"
#include "ftmpi/runtime.hpp"

namespace ftmpi::dlsan {

namespace {

/// One registered wait.  Watch peers are recorded by pid and judged
/// against the detector registry's own live set — never by chasing
/// Runtime-internal tables, so no Runtime lock is ever taken under g_mu.
struct Wait {
  const char* op = "";
  std::uint64_t ctx = 0;
  int tag = 0;
  double vtime = 0.0;
  std::vector<ProcId> watch;
  const std::atomic<bool>* revoked = nullptr;
  bool drains_detector = false;
  const std::atomic<std::uint64_t>* intr = nullptr;
  std::uint64_t intr_expect = 0;
  const std::atomic<std::uint64_t>* intr2 = nullptr;
  std::uint64_t intr2_expect = 0;
  const char* file = nullptr;
  int line = 0;
};

struct Entry {
  ProcessState* self = nullptr;
  bool live = false;     ///< thread started, not yet exited
  bool blocked = false;  ///< registered in a cv wait with no pending wake
  Wait w;
};

// The whole simulated cluster lives in one process, so one table sees
// every rank.  Keys lead with the Runtime address: a test binary runs many
// Runtime instances in sequence and pids restart in each one.
std::mutex g_mu;
std::map<std::pair<const void*, ProcId>, Entry> g_ranks;
/// Armed real-time wakers (async failure injector threads).  While any is
/// armed, wall-clock events can unblock ranks behind the virtual clock's
/// back, so the stuck-set analysis stands down entirely.
int g_wakers = 0;

[[noreturn]] void die() {
  std::fflush(stderr);
  std::abort();
}

/// True when the recorded wait has an exit event already pending: the
/// runtime notified (or is about to notify) this rank's cv for it, so the
/// registration does not prove the rank is stuck.
bool fireable(const std::map<std::pair<const void*, ProcId>, Entry>& ranks,
              const void* rt, const Entry& e) {
  if (e.self->dead.load()) return true;  // ProcessKilled unwind pending
  if (e.w.drains_detector &&
      e.self->det_pending.load(std::memory_order_relaxed) > 0) {
    return true;  // queued heartbeats/gossip: the wait loop drains them
  }
  if (e.w.revoked != nullptr && e.w.revoked->load()) return true;
  if (e.w.intr != nullptr && e.w.intr->load() != e.w.intr_expect) return true;
  if (e.w.intr2 != nullptr && e.w.intr2->load() != e.w.intr2_expect) return true;
  if (!e.w.watch.empty()) {
    // Every watched peer already gone: the hopeless-wait return fires on
    // the wake its exit broadcast.
    bool all_gone = true;
    for (ProcId p : e.w.watch) {
      const auto it = ranks.find({rt, p});
      if (it != ranks.end() && it->second.live) {
        all_gone = false;
        break;
      }
    }
    if (all_gone) return true;
  }
  return false;
}

std::string describe(const Entry& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "blocked in %s (ctx %llu, tag %d, vt %.6f) at %s:%d",
                e.w.op, static_cast<unsigned long long>(e.w.ctx), e.w.tag, e.w.vtime,
                e.w.file, e.w.line);
  return buf;
}

/// All live ranks of `rt` are registered blocked with nothing fireable.
/// Walk the wait-for graph from the registering rank: a revisited pid is a
/// cycle (named edge by edge), a dead end — a wait watching nobody who
/// could feed it — is the no-progress shape.
[[noreturn]] void report_stuck(const std::map<std::pair<const void*, ProcId>, Entry>& ranks,
                               const void* rt, ProcId me, int live_count) {
  std::vector<ProcId> path;
  ProcId cur = me;
  for (;;) {
    // First watched peer that is itself a live blocked rank; live-but-
    // unregistered is impossible here (all live ranks are blocked).
    const Entry& e = ranks.at({rt, cur});
    ProcId next = kNullProc;
    for (ProcId p : e.w.watch) {
      const auto it = ranks.find({rt, p});
      if (it != ranks.end() && it->second.live && it->second.blocked) {
        next = p;
        break;
      }
    }
    std::size_t cycle_start = path.size();
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] == cur) {
        cycle_start = i;
        break;
      }
    }
    if (cycle_start < path.size()) {
      std::fprintf(stderr,
                   "ftmpi-dlsan: deadlock cycle over %zu of %d live ranks on the "
                   "virtual clock:\n",
                   path.size() - cycle_start, live_count);
      for (std::size_t i = cycle_start; i < path.size(); ++i) {
        const ProcId from = path[i];
        const ProcId to = i + 1 < path.size() ? path[i + 1] : path[cycle_start];
        std::fprintf(stderr, "ftmpi-dlsan:   pid %d %s waits on pid %d\n", from,
                     describe(ranks.at({rt, from})).c_str(), to);
      }
      std::fprintf(stderr,
                   "ftmpi-dlsan:   no in-flight message, interrupt, revoke or peer "
                   "failure can wake any edge\n");
      die();
    }
    path.push_back(cur);
    if (next == kNullProc) {
      std::fprintf(stderr,
                   "ftmpi-dlsan: no-progress: all %d live ranks are blocked on the "
                   "virtual clock and no event can fire:\n",
                   live_count);
      for (const auto& [key, e2] : ranks) {
        if (key.first != rt || !e2.live) continue;
        std::fprintf(stderr, "ftmpi-dlsan:   pid %d %s\n", key.second,
                     describe(e2).c_str());
      }
      die();
    }
    cur = next;
  }
}

/// The stuck-set analysis, run on every blocking transition with g_mu
/// held.  Aborts iff the runtime can provably never advance.
void analyze(const void* rt, ProcId me) {
  if (g_wakers > 0) return;
  int live_count = 0;
  for (const auto& [key, e] : g_ranks) {
    if (key.first != rt || !e.live) continue;
    ++live_count;
    if (!e.blocked) return;  // somebody still runs: progress is possible
  }
  if (live_count == 0) return;
  for (const auto& [key, e] : g_ranks) {
    if (key.first != rt || !e.live) continue;
    if (fireable(g_ranks, rt, e)) return;  // a wake is already pending
  }
  report_stuck(g_ranks, rt, me, live_count);
}

Entry* self_entry() {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return nullptr;
  // ftlint:allow(FTL010 every caller holds g_mu; the lock scope is one frame up)
  Entry& e = g_ranks[{ps->rt, ps->pid}];
  e.self = ps;
  return &e;
}

}  // namespace

void on_proc_created(const void* rt, ProcessState* ps) {
  std::lock_guard<std::mutex> lock(g_mu);
  Entry& e = g_ranks[{rt, ps->pid}];
  e.self = ps;
  e.live = true;
  e.blocked = false;
}

void on_proc_released(const void* rt, ProcId pid) {
  std::lock_guard<std::mutex> lock(g_mu);
  const auto it = g_ranks.find({rt, pid});
  if (it != g_ranks.end()) {
    it->second.live = false;
    it->second.blocked = false;
  }
}

void on_thread_start() {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  Entry& e = g_ranks[{ps->rt, ps->pid}];
  e.self = ps;
  e.live = true;
  e.blocked = false;
}

void on_thread_exit() {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  Entry& e = g_ranks[{ps->rt, ps->pid}];
  e.live = false;
  e.blocked = false;
}

void on_block(const char* op, std::uint64_t ctx, int tag,
              const std::vector<ProcessState*>& watch, CommContext* revoke_ctx,
              bool drains_detector, const std::atomic<std::uint64_t>* intr,
              std::uint64_t intr_expect, const std::atomic<std::uint64_t>* intr2,
              std::uint64_t intr2_expect, const char* file, int line) {
  std::lock_guard<std::mutex> lock(g_mu);
  Entry* e = self_entry();
  if (e == nullptr) return;
  e->blocked = true;
  e->w = Wait{};
  e->w.op = op;
  e->w.ctx = ctx;
  e->w.tag = tag;
  e->w.vtime = e->self->vclock;
  e->w.watch.reserve(watch.size());
  for (ProcessState* w : watch) {
    // Wildcard receives watch the whole sender group, self included; a
    // rank blocked here can never feed its own wait, so the self edge
    // would only fabricate a one-rank "cycle".
    if (w->pid != e->self->pid) e->w.watch.push_back(w->pid);
  }
  e->w.revoked = revoke_ctx != nullptr ? &revoke_ctx->revoked : nullptr;
  e->w.drains_detector = drains_detector;
  e->w.intr = intr;
  e->w.intr_expect = intr_expect;
  e->w.intr2 = intr2;
  e->w.intr2_expect = intr2_expect;
  e->w.file = file;
  e->w.line = line;
  analyze(e->self->rt, e->self->pid);
}

void on_block_probe(const Comm& c, int src, int tag, const char* file, int line) {
  std::lock_guard<std::mutex> lock(g_mu);
  Entry* e = self_entry();
  if (e == nullptr) return;
  e->blocked = true;
  e->w = Wait{};
  e->w.op = "probe";
  e->w.ctx = c.context() != nullptr ? c.context()->id : 0;
  e->w.tag = tag;
  e->w.vtime = e->self->vclock;
  if (src != kAnySource) {
    const Group& senders = c.is_inter() ? c.remote_group() : c.group();
    e->w.watch.push_back(senders.pids.at(static_cast<size_t>(src)));
  }
  e->w.file = file;
  e->w.line = line;
  analyze(e->self->rt, e->self->pid);
}

void on_unblock() {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mu);
  const auto it = g_ranks.find({ps->rt, ps->pid});
  if (it != g_ranks.end()) it->second.blocked = false;
}

void on_wake(const void* rt, ProcId dst) {
  std::lock_guard<std::mutex> lock(g_mu);
  const auto it = g_ranks.find({rt, dst});
  if (it != g_ranks.end()) it->second.blocked = false;
}

void on_waker_arm() {
  std::lock_guard<std::mutex> lock(g_mu);
  ++g_wakers;
}

void on_waker_disarm() {
  std::lock_guard<std::mutex> lock(g_mu);
  --g_wakers;
}

void on_runtime_destroyed(const void* rt) {
  std::lock_guard<std::mutex> lock(g_mu);
  const auto lo = g_ranks.lower_bound({rt, kNullProc});
  auto hi = lo;
  while (hi != g_ranks.end() && hi->first.first == rt) ++hi;
  g_ranks.erase(lo, hi);
}

}  // namespace ftmpi::dlsan

#endif  // FTR_DLSAN
