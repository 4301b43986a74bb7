// Protocol-sanitizer shadow state (see psan.hpp).  Compiled into the
// library only under FTR_SANITIZE=protocol; otherwise this translation unit
// is empty.

#include "ftmpi/psan.hpp"

#ifdef FTR_PSAN

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "ftmpi/comm.hpp"
#include "ftmpi/runtime.hpp"

namespace ftmpi::psan {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// One recorded event on a (process, context) stream.  `op` and `file`
/// point at string literals from the instrumentation sites.
struct OpRec {
  const char* op = nullptr;
  const char* file = nullptr;
  int line = 0;
  int root = -1;
  std::uint64_t seq = 0;
};

constexpr std::size_t kRing = 8;

struct Shadow {
  // Independent lifecycle bits: a sanctioned free after an observed revoke
  // must not clear the revoke observation (later uses of another alias of
  // the revoked context are still violations).  Only a *self* revoke arms
  // the strict salvage-set check; a passive observation (an operation that
  // returned kErrRevoked) is recorded for diagnostics only — see psan.hpp.
  bool revoke_observed = false;
  bool self_revoked = false;
  OpRec revoke_event;
  bool freed = false;
  OpRec free_event;
  // Overlapped recovery: set once this rank acks the repaired-world doorbell
  // (on_handoff).  Collectives on a superseded context abort; drains and
  // frees of the stale handles stay legitimate.
  bool superseded = false;
  OpRec handoff_event;
  std::uint64_t handoff_epoch = 0;
  std::uint64_t hash = kFnvOffset;
  std::uint64_t count = 0;  ///< collectives recorded since the last reset
  OpRec ring[kRing];
  std::size_t ring_len = 0;
};

// The whole simulated cluster lives in one process, so a single table keyed
// by (runtime, pid, context id) sees every rank — which is what lets the
// agree root print the other side of a divergence.  The runtime
// component matters because a test binary runs many Runtime instances in
// sequence and both pids and context ids restart at the same values in each
// one; without it a fresh cluster would inherit the previous cluster's
// observations and stream hashes.
using Key = std::tuple<const void*, ProcId, std::uint64_t>;
std::mutex g_mu;
std::map<Key, Shadow> g_shadow;

/// Per-rank overlap attempt: the side context the split handed this rank
/// (continuation sub-communicator or repair comm) and the doorbell epoch it
/// was armed under.  Consumed — and the context superseded — at on_handoff.
struct OverlapRec {
  std::uint64_t side_ctx = 0;
  std::uint64_t epoch = 0;
};
std::map<std::pair<const void*, ProcId>, OverlapRec> g_overlap;

void record(Shadow& s, const OpRec& rec) {
  if (s.ring_len < kRing) {
    s.ring[s.ring_len++] = rec;
  } else {
    for (std::size_t i = 1; i < kRing; ++i) s.ring[i - 1] = s.ring[i];
    s.ring[kRing - 1] = rec;
  }
}

void print_ring(const Shadow& s) {
  if (s.ring_len == 0) {
    std::fprintf(stderr, " (no collectives recorded)");
    return;
  }
  for (std::size_t i = 0; i < s.ring_len; ++i) {
    const OpRec& r = s.ring[i];
    std::fprintf(stderr, " #%" PRIu64 " %s", r.seq, r.op);
    if (r.root >= 0) std::fprintf(stderr, "(root=%d)", r.root);
    std::fprintf(stderr, " @%s:%d", r.file, r.line);
  }
}

[[noreturn]] void die() {
  std::fflush(stderr);
  std::abort();
}

/// Lifecycle gate shared by on_use / on_collective: aborts if this rank
/// itself revoked the context earlier.  A freed context is NOT a
/// use-after-free here: contexts are reference counted and handle copies
/// are pervasive (world() stays a live alias after reconstruct frees its
/// own copy of the broken world), so only double-free is checkable.
void check_life(const Shadow& s, ProcId pid, std::uint64_t ctx, const char* op,
                const char* file, int line) {
  if (!s.self_revoked) return;
  std::fprintf(stderr,
               "ftmpi-psan: use-after-revoke: %s on comm ctx %" PRIu64
               " by pid %d (%s:%d)\n"
               "ftmpi-psan:   this rank revoked the context at %s:%d (%s); "
               "after revoking a communicator only the salvage set "
               "(iprobe_buffered/recv_buffered/shrink/agree/free) "
               "may touch it\n",
               op, ctx, pid, file, line, s.revoke_event.file, s.revoke_event.line,
               s.revoke_event.op);
  die();
}

/// Collective-only gate: a rank that acked the repaired-world doorbell must
/// run its collectives on the repaired world.  Enforced from on_collective
/// rather than check_life because point-to-point drains of the stale
/// handles (and their frees) remain sanctioned after the handoff.
void check_handoff(const Shadow& s, ProcId pid, std::uint64_t ctx, const char* op,
                   const char* file, int line) {
  if (!s.superseded) return;
  std::fprintf(stderr,
               "ftmpi-psan: use-after-handoff: %s on pre-handoff comm ctx %" PRIu64
               " by pid %d (%s:%d)\n"
               "ftmpi-psan:   this rank acked the repaired-world doorbell at %s:%d "
               "(repair epoch %" PRIu64 "); collectives must run on the repaired "
               "world — only buffered drains and frees of the superseded handles "
               "remain legitimate\n",
               op, ctx, pid, file, line, s.handoff_event.file, s.handoff_event.line,
               s.handoff_epoch);
  die();
}

}  // namespace

void on_use(const Comm& c, const char* op, const char* file, int line) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || c.is_null()) return;
  const std::uint64_t ctx = c.context()->id;
  std::lock_guard<std::mutex> lock(g_mu);
  Shadow& s = g_shadow[{ps->rt, ps->pid, ctx}];
  check_life(s, ps->pid, ctx, op, file, line);
}

void on_collective(const Comm& c, const char* op, int root, const char* file, int line) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || c.is_null()) return;
  const std::uint64_t ctx = c.context()->id;
  std::lock_guard<std::mutex> lock(g_mu);
  Shadow& s = g_shadow[{ps->rt, ps->pid, ctx}];
  check_life(s, ps->pid, ctx, op, file, line);
  check_handoff(s, ps->pid, ctx, op, file, line);
  s.hash = fnv_bytes(s.hash, op, std::strlen(op) + 1);
  s.hash = fnv_bytes(s.hash, &root, sizeof(root));
  ++s.count;
  record(s, OpRec{op, file, line, root, s.count});
}

void on_revoke_observed(const Comm& c, const char* op, bool self, const char* file, int line) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || c.is_null()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  Shadow& s = g_shadow[{ps->rt, ps->pid, c.context()->id}];
  // A self revoke outranks an earlier passive observation: the abort
  // diagnostic should cite the revoke call, not the error return.
  if (!s.revoke_observed || (self && !s.self_revoked)) {
    s.revoke_observed = true;
    s.revoke_event = OpRec{op, file, line, -1, s.count};
  }
  if (self) s.self_revoked = true;
}

void on_free(const Comm& c, const char* file, int line) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || c.is_null()) return;
  const std::uint64_t ctx = c.context()->id;
  std::lock_guard<std::mutex> lock(g_mu);
  Shadow& s = g_shadow[{ps->rt, ps->pid, ctx}];
  if (s.freed) {
    std::fprintf(stderr,
                 "ftmpi-psan: double-free of comm ctx %" PRIu64 " by pid %d (%s:%d); "
                 "first freed at %s:%d\n",
                 ctx, ps->pid, file, line, s.free_event.file, s.free_event.line);
    die();
  }
  s.freed = true;
  s.free_event = OpRec{"comm_free", file, line, -1, s.count};
}

std::uint64_t stream_hash(const Comm& c) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || c.is_null()) return kFnvOffset;
  std::lock_guard<std::mutex> lock(g_mu);
  return g_shadow[{ps->rt, ps->pid, c.context()->id}].hash;
}

std::uint64_t current_epoch() {
  ProcessState* ps = Runtime::current();
  return ps == nullptr ? 0 : ps->rt->failure_epoch();
}

void verify_at_agree(const Comm& c, const Group& g, const std::vector<AgreeReport>& reports,
                     bool no_dead) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || c.is_null()) return;
  // Skip (never fake) verification whenever a stream may be stale: a member
  // died, the communicator is revoked mid-protocol, a member is
  // unconfirmed, or the reports straddle a failure epoch.
  if (!no_dead || c.is_revoked()) return;
  if (reports.size() != static_cast<std::size_t>(g.size())) return;
  const std::uint64_t epoch = ps->rt->failure_epoch();
  for (const AgreeReport& r : reports) {
    if (r.epoch != epoch) return;
  }
  const std::uint64_t ctx = c.context()->id;
  bool diverged = false;
  for (const AgreeReport& r : reports) {
    if (r.hash != reports.front().hash) diverged = true;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  if (!diverged) {
    // Verified window: reset every member's stream.  The members are still
    // blocked on the agree reply, so their streams are quiescent.
    for (const AgreeReport& r : reports) {
      Shadow& s = g_shadow[{ps->rt, r.pid, ctx}];
      s.hash = kFnvOffset;
      s.count = 0;
      s.ring_len = 0;
    }
    return;
  }
  std::fprintf(stderr,
               "ftmpi-psan: collective sequence divergence on comm ctx %" PRIu64
               " detected at agree by pid %d (epoch %" PRIu64 ")\n",
               ctx, ps->pid, epoch);
  for (const AgreeReport& r : reports) {
    std::fprintf(stderr, "ftmpi-psan:   rank %d (pid %d): hash 0x%016" PRIx64 ", recent:",
                 r.rank, r.pid, r.hash);
    const auto it = g_shadow.find({ps->rt, r.pid, ctx});
    if (it != g_shadow.end()) {
      print_ring(it->second);
    } else {
      std::fprintf(stderr, " (no stream)");
    }
    std::fprintf(stderr, "\n");
  }
  die();
}

void on_overlap_split(const Comm& side, std::uint64_t epoch, const char* file, int line) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || side.is_null()) return;
  const std::uint64_t ctx = side.context()->id;
  std::lock_guard<std::mutex> lock(g_mu);
  // Latest attempt wins: an aborted overlap leaves a stale record behind,
  // and the next split simply replaces it (the stale side context is dead by
  // then, so superseding it at a later handoff is harmless).
  g_overlap[{ps->rt, ps->pid}] = OverlapRec{ctx, epoch};
  Shadow& s = g_shadow[{ps->rt, ps->pid, ctx}];
  record(s, OpRec{"overlap_split", file, line, -1, s.count});
}

void on_handoff(const Comm& old_world, std::uint64_t epoch, const char* file, int line) {
  ProcessState* ps = Runtime::current();
  if (ps == nullptr || old_world.is_null()) return;
  const std::uint64_t ctx = old_world.context()->id;
  std::lock_guard<std::mutex> lock(g_mu);
  Shadow& s = g_shadow[{ps->rt, ps->pid, ctx}];
  s.superseded = true;
  s.handoff_epoch = epoch;
  s.handoff_event = OpRec{"overlap_handoff", file, line, -1, s.count};
  const auto it = g_overlap.find({ps->rt, ps->pid});
  if (it != g_overlap.end()) {
    // The side comm of the acked attempt dies with the old world: the
    // continuation sub-communicator (or repair comm) is a partial-world
    // layout nobody owns after the epoch bump.
    Shadow& side = g_shadow[{ps->rt, ps->pid, it->second.side_ctx}];
    side.superseded = true;
    side.handoff_epoch = epoch;
    side.handoff_event = OpRec{"overlap_handoff", file, line, -1, side.count};
    g_overlap.erase(it);
  }
}

void on_runtime_destroyed(const void* rt) {
  std::lock_guard<std::mutex> lock(g_mu);
  // Keys sort by runtime first, so the doomed range is contiguous.
  const auto lo = g_shadow.lower_bound(Key{rt, kNullProc, 0});
  auto hi = lo;
  while (hi != g_shadow.end() && std::get<0>(hi->first) == rt) ++hi;
  g_shadow.erase(lo, hi);
  for (auto it = g_overlap.begin(); it != g_overlap.end();) {
    if (it->first.first == rt) {
      it = g_overlap.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ftmpi::psan

#endif  // FTR_PSAN
