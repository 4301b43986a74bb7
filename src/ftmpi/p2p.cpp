// Point-to-point messaging: the control plane (pid-addressed) and the user
// plane (rank-addressed), plus the shared blocking wait loop.

#include <cassert>
#include <cstring>

#include "common/logging.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/detector.hpp"
#include "ftmpi/dlsan.hpp"
#include "ftmpi/psan.hpp"
#include "ftmpi/vtsan.hpp"

namespace ftmpi {
namespace detail {

ProcessState& self() {
  ProcessState* ps = Runtime::current();
  assert(ps != nullptr && "ftmpi API called off the ranks");
  return *ps;
}

Runtime& rt() { return *self().rt; }

void check_alive() {
  ProcessState& ps = self();
  if (ps.dead.load()) throw ProcessKilled{ps.pid};
}

FTR_YIELD void charge(double seconds) {
  check_alive();
  ProcessState& ps = self();
  ps.vclock += seconds;
  // The detector has no thread of its own; it progresses whenever this
  // process accounts for virtual time (no-op unless a heartbeat period
  // boundary was crossed or detector messages are queued).
  detector::maybe_tick(ps);
  Runtime::preempt_point();
}

double now() { return self().vclock; }

std::shared_ptr<const MemberSnapshot> member_snapshot(CommContext& ctx, std::uint64_t fepoch,
                                                      std::uint64_t mepoch, bool rescan) {
  std::lock_guard<std::mutex> lock(ctx.snapshot_mu);
  const std::shared_ptr<const MemberSnapshot>& cached = ctx.snapshot;
  if (!rescan && cached && cached->failure_epoch == fepoch &&
      cached->membership_epoch == mepoch) {
    return cached;
  }
  auto snap = std::make_shared<MemberSnapshot>();
  snap->failure_epoch = fepoch;
  snap->membership_epoch = mepoch;
  const Group& g = ctx.agreement_group();
  for (int r = 0; r < g.size(); ++r) {
    const ProcessState& p = rt().proc(g.pids[static_cast<size_t>(r)]);
    if (p.dead.load()) continue;
    snap->alive.push_back(r);
    if (!p.finished.load()) snap->active.push_back(r);
  }
  ctx.snapshot = snap;
  return snap;
}

void charge_coordinator_rounds(int rounds, int nprocs, bool cross_host) {
  if (rounds <= 0 || nprocs <= 1) return;
  const CostModel& cm = rt().cost();
  const double per_round = 2.0 * cm.latency(!cross_host) +
                           2.0 * static_cast<double>(nprocs - 1) *
                               (cm.send_overhead + cm.recv_overhead) +
                           static_cast<double>(nprocs) * cm.consensus_cost_per_proc;
  charge(static_cast<double>(rounds) * per_round);
}

namespace {

/// Compose and deliver one message; charges the sender and stamps the
/// virtual arrival time.  The caller has verified the destination is alive
/// (a late kill simply drops the message at delivery).
void post(ProcId dst, Message msg, std::size_t bytes) {
  ProcessState& ps = self();
  Runtime& r = rt();
  const CostModel& cm = r.cost();
  const bool same_host = ps.host == r.host_of(dst);
  ps.vclock += cm.send_overhead + cm.transfer_time(bytes, same_host);
  msg.src_pid = ps.pid;
  msg.arrive = ps.vclock + cm.latency(same_host);
  r.record_message(bytes, !same_host);
  r.deliver(dst, std::move(msg));
}

using MatchFn = bool (*)(const Message&, const void*);

struct WaitSpec {
  MatchFn match = nullptr;
  const void* match_arg = nullptr;
  /// What this wait is, for the deadlock sanitizer's diagnostics (the
  /// match_arg is opaque here, so the call sites restate the key).
  const char* op = "recv";
  std::uint64_t dbg_ctx = 0;
  int dbg_tag = 0;
  /// Senders whose collective death makes the wait hopeless.
  std::vector<ProcessState*> watch;
  CommContext* revoke_ctx = nullptr;
  const std::atomic<std::uint64_t>* interrupt = nullptr;
  std::uint64_t interrupt_expect = 0;
  const std::atomic<std::uint64_t>* interrupt2 = nullptr;
  std::uint64_t interrupt2_expect = 0;
};

/// The single blocking wait used by every receive path.  Only atomics and
/// the owner's mailbox lock are touched inside the loop (no Runtime mutex),
/// keeping the lock order acyclic with kill()/deliver().
FTR_YIELD int wait_for_message(const WaitSpec& spec, Message* out) {
  ProcessState& ps = self();
  const CostModel& cm = ps.rt->cost();
  const bool det = detector::enabled(ps);
  const std::atomic<std::uint64_t>* membership = &ps.rt->membership_epoch();
  std::unique_lock<std::mutex> lock(ps.mu);
  ParkedScope parked(ps, spec.watch.size() == 1 ? spec.watch.front() : nullptr,
                     spec.watch.size() > 1 || spec.interrupt == membership ||
                         spec.interrupt2 == membership);
  for (;;) {
    if (ps.dead.load()) throw ProcessKilled{ps.pid};
    if (det && ps.det_pending.load(std::memory_order_relaxed) > 0) {
      // Absorb queued heartbeats/gossip before blocking: failure knowledge
      // keeps propagating through ranks that sit in unrelated receives.
      lock.unlock();
      detector::drain(ps);
      lock.lock();
      continue;
    }
    for (auto it = ps.mailbox.begin(); it != ps.mailbox.end(); ++it) {
      if (spec.match(*it, spec.match_arg)) {
        *out = std::move(*it);
        ps.mailbox.erase(it);
        ps.vclock = std::max(ps.vclock, out->arrive) + cm.recv_overhead;
        FTR_VTSAN_JOIN(*out);
        return kSuccess;
      }
    }
    if (spec.revoke_ctx != nullptr && spec.revoke_ctx->revoked.load()) {
      return kErrRevoked;
    }
    if (spec.interrupt != nullptr &&
        spec.interrupt->load() != spec.interrupt_expect) {
      return kErrPending;
    }
    if (spec.interrupt2 != nullptr &&
        spec.interrupt2->load() != spec.interrupt2_expect) {
      return kErrPending;
    }
    if (!spec.watch.empty()) {
      // A peer that exited without sending what we wait for can never
      // satisfy this receive either; the RTE of a real MPI stack reports
      // such peers just like crashed ones.
      bool all_dead = true;
      for (ProcessState* w : spec.watch) {
        if (!w->dead.load() && !w->finished.load()) {
          all_dead = false;
          break;
        }
      }
      if (all_dead) {
        if (det) {
          lock.unlock();
          return detector::observe_hopeless_wait(ps, spec.watch);
        }
        // Model the heartbeat/RTE delay before a real ULFM stack reports
        // a peer as failed.
        ps.vclock += cm.failure_detect_latency;
        return kErrProcFailed;
      }
    }
    if (parked.watch_exits()) continue;
    FTR_DLSAN_BLOCK(spec.op, spec.dbg_ctx, spec.dbg_tag, spec.watch,
                    spec.revoke_ctx, det, spec.interrupt, spec.interrupt_expect,
                    spec.interrupt2, spec.interrupt2_expect);
    Runtime::park(lock);
    FTR_DLSAN_UNBLOCK();
  }
}

struct CtrlKey {
  std::uint64_t ctx;
  int tag;
  ProcId src;  // kNullProc = any
  bool match_payload_head = false;
  std::uint64_t payload_head = 0;
};

bool ctrl_match(const Message& m, const void* arg) {
  const auto* k = static_cast<const CtrlKey*>(arg);
  if (!(m.ctrl && m.ctx == k->ctx && m.tag == k->tag &&
        (k->src == kNullProc || m.src_pid == k->src))) {
    return false;
  }
  if (k->match_payload_head) {
    // Generation-exact matching: a message from another round stays queued
    // for whoever reaches that round instead of being consumed here.
    if (m.payload.size() < sizeof(std::uint64_t)) return false;
    std::uint64_t head = 0;
    std::memcpy(&head, m.payload.data(), sizeof(head));
    if (head != k->payload_head) return false;
  }
  return true;
}

struct UserKey {
  std::uint64_t ctx;
  int tag;   // kAnyTag = any user tag
  int src;   // kAnySource = any rank
  int side;  // receiver's side
  bool inter;
};

bool user_match(const Message& m, const void* arg) {
  const auto* k = static_cast<const UserKey*>(arg);
  if (m.ctrl || m.ctx != k->ctx) return false;
  if (k->tag == kAnyTag ? m.tag < 0 : m.tag != k->tag) return false;
  if (k->src != kAnySource && m.src_rank != k->src) return false;
  // Intercommunicator traffic flows between sides; intracommunicator
  // traffic stays on side 0.
  return k->inter ? (m.src_side != k->side) : (m.src_side == k->side);
}

}  // namespace

int ctrl_send(ProcId dst, std::uint64_t ctx, int tag, const void* data, std::size_t n) {
  check_alive();
  if (rt().is_dead(dst)) {
    // A bounced send is a transport-level failure observation; feed it to
    // the detector so the knowledge gossips instead of staying local.
    detector::note_transport_failure(self(), dst);
    return kErrProcFailed;
  }
  Message msg;
  msg.ctx = ctx;
  msg.tag = tag;
  msg.ctrl = true;
  const auto* bytes = static_cast<const std::byte*>(data);
  if (n > 0) msg.payload.assign(bytes, bytes + n);
  post(dst, std::move(msg), n);
  return kSuccess;
}

int ctrl_recv(ProcId src, std::uint64_t ctx, int tag, std::vector<std::byte>* out,
              const RecvOpts& opts) {
  check_alive();
  const CtrlKey key{ctx, tag, src, opts.match_payload_head, opts.payload_head};
  WaitSpec spec;
  spec.match = ctrl_match;
  spec.match_arg = &key;
  spec.op = "ctrl_recv";
  spec.dbg_ctx = ctx;
  spec.dbg_tag = tag;
  spec.watch.push_back(&rt().proc(src));
  spec.revoke_ctx = opts.revoke_ctx;
  spec.interrupt = opts.interrupt;
  spec.interrupt_expect = opts.interrupt_expect;
  spec.interrupt2 = opts.interrupt2;
  spec.interrupt2_expect = opts.interrupt2_expect;
  Message msg;
  const int rc = wait_for_message(spec, &msg);
  if (rc == kSuccess && out != nullptr) *out = std::move(msg.payload);
  return rc;
}

int ctrl_recv_any(const std::vector<ProcId>& watch, std::uint64_t ctx, int tag,
                  std::vector<std::byte>* out, ProcId* src, const RecvOpts& opts) {
  check_alive();
  const CtrlKey key{ctx, tag, kNullProc, opts.match_payload_head, opts.payload_head};
  WaitSpec spec;
  spec.match = ctrl_match;
  spec.match_arg = &key;
  spec.op = "ctrl_recv_any";
  spec.dbg_ctx = ctx;
  spec.dbg_tag = tag;
  spec.watch.reserve(watch.size());
  for (ProcId p : watch) spec.watch.push_back(&rt().proc(p));
  spec.revoke_ctx = opts.revoke_ctx;
  spec.interrupt = opts.interrupt;
  spec.interrupt_expect = opts.interrupt_expect;
  spec.interrupt2 = opts.interrupt2;
  spec.interrupt2_expect = opts.interrupt2_expect;
  Message msg;
  const int rc = wait_for_message(spec, &msg);
  if (rc == kSuccess) {
    if (out != nullptr) *out = std::move(msg.payload);
    if (src != nullptr) *src = msg.src_pid;
  }
  return rc;
}

int copy_out(const std::vector<std::byte>& payload, void* buf, std::size_t max_bytes,
             Status* status) {
  const std::size_t n = std::min(max_bytes, payload.size());
  if (n > 0) std::memcpy(buf, payload.data(), n);
  const int rc = payload.size() > max_bytes ? kErrArg : kSuccess;
  if (status != nullptr) {
    status->error = rc;
    status->count = static_cast<int>(n);
  }
  return rc;
}

}  // namespace detail

int finish(const Comm& c, int code) {
  // The first kErrRevoked returned to the caller is the rank's *observation*
  // of the revocation; from here on only the salvage set may touch `c`.
  if (code == kErrRevoked) FTR_PSAN_REVOKE_OBSERVED(c, "error return (kErrRevoked)");
  if (code != kSuccess && !c.is_null() && c.local().errhandler) {
    Comm handle = c;
    c.local().errhandler(handle, code);
  }
  return code;
}

int send_bytes(std::vector<std::byte>&& payload, int dest, int tag, const Comm& c) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  FTR_PSAN_USE(c, "send_bytes");
  if (tag < 0 || dest < 0 || dest >= (c.is_inter() ? c.remote_size() : c.size())) {
    return finish(c, kErrArg);
  }
  if (c.is_revoked()) return finish(c, kErrRevoked);
  const ProcId dpid = c.peer_pid(dest);
  if (detail::rt().is_dead(dpid)) {
    detector::note_transport_failure(detail::self(), dpid);
    return finish(c, kErrProcFailed);
  }
  Message msg;
  msg.ctx = c.context()->id;
  msg.tag = tag;
  msg.src_rank = c.rank();
  msg.src_side = c.side();
  msg.ctrl = false;
  const std::size_t n = payload.size();
  msg.payload = std::move(payload);
  detail::post(dpid, std::move(msg), n);
  return kSuccess;
}

int send_bytes(const void* data, std::size_t n, int dest, int tag, const Comm& c) {
  const auto* bytes = static_cast<const std::byte*>(data);
  return send_bytes(std::vector<std::byte>(bytes, bytes + n), dest, tag, c);
}

int recv_bytes(std::vector<std::byte>* out, int src, int tag, const Comm& c, Status* status) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  FTR_PSAN_USE(c, "recv_bytes");
  if (c.is_revoked()) return finish(c, kErrRevoked);
  const Group& senders = c.is_inter() ? c.remote_group() : c.group();
  if (src != kAnySource && (src < 0 || src >= senders.size())) return finish(c, kErrArg);

  const detail::UserKey key{c.context()->id, tag, src, c.side(), c.is_inter()};
  detail::WaitSpec spec;
  spec.match = detail::user_match;
  spec.match_arg = &key;
  spec.op = "recv_bytes";
  spec.dbg_ctx = c.context()->id;
  spec.dbg_tag = tag;
  spec.revoke_ctx = c.context();
  if (src != kAnySource) {
    spec.watch.push_back(&detail::rt().proc(senders.pids[static_cast<size_t>(src)]));
  } else {
    // A wildcard receive is hopeless only once *all* potential senders are
    // dead; ULFM additionally raises an error as soon as any failure exists,
    // but the paper's protocols never block a wildcard on a failed comm.
    for (ProcId p : senders.pids) spec.watch.push_back(&detail::rt().proc(p));
  }
  Message msg;
  const int rc = detail::wait_for_message(spec, &msg);
  if (rc != kSuccess) return finish(c, rc);
  if (status != nullptr) {
    status->source = msg.src_rank;
    status->tag = msg.tag;
    status->error = kSuccess;
    status->count = static_cast<int>(msg.payload.size());
  }
  *out = std::move(msg.payload);
  return kSuccess;
}

int recv_bytes(void* buf, std::size_t max_bytes, int src, int tag, const Comm& c,
               Status* status) {
  std::vector<std::byte> payload;
  const int rc = recv_bytes(&payload, src, tag, c, status);
  if (rc != kSuccess) return rc;
  const int copied = detail::copy_out(payload, buf, max_bytes, status);
  if (copied != kSuccess) return finish(c, copied);
  return kSuccess;
}

}  // namespace ftmpi
