// Root-coordinated collectives: barrier, broadcast, variable-size gather.
//
// A linear star topology is used deliberately: (a) the root aggregates the
// outcome, so failure reporting is near-uniform — the property the paper's
// failure-detection step relies on; (b) the virtual-time cost is O(P) per
// collective, matching the paper's observation that failed-list creation and
// communicator reconstruction grow with the core count.

#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/psan.hpp"

namespace ftmpi {

namespace {

/// Common validation for intracommunicator collectives.
int validate_intra(const Comm& c, int root) {
  if (c.is_null() || c.is_inter()) return kErrComm;
  if (root < 0 || root >= c.size()) return kErrArg;
  return kSuccess;
}

}  // namespace

int allreduce_bytes_tree(void* buf, std::size_t elem_size, int count, ReduceOp op,
                         CombineBytesFn combine, const Comm& c) {
  // Log-depth fault-tolerant allreduce: partial vectors reduce up a binary
  // tree built over the live rank list, the root folds the outcome, and
  // result + outcome flood back down.  Every wait carries a watch list, and
  // every rank releases its children before returning on *any* path, so a
  // death re-routes into error reporting instead of a hang: a dead interior
  // node's children observe the death, adopt the failure outcome and still
  // release their own subtrees.
  detail::check_alive();
  int rc = validate_intra(c, 0);
  if (rc != kSuccess) return finish(c, rc);
  FTR_PSAN_COLLECTIVE(c, "allreduce", 0);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  const std::size_t nbytes = elem_size * static_cast<std::size_t>(count);
  // Every message of this call leads with the per-handle collective sequence
  // number, and receives match on it exactly: a peer that failed out of an
  // earlier call and moved on can never have its next-call traffic consumed
  // by a rank still finishing this one.
  const std::uint64_t seq = c.local().coll_seq++;

  struct Head {
    std::uint64_t seq;
    std::int32_t outcome;
    std::int32_t pad;
  };

  // Load the membership epoch before snapshotting the topology (see
  // agree_tree): a death racing protocol entry interrupts our waits instead
  // of leaving us blocked on a peer whose tree disagrees with ours.
  std::uint64_t mepoch = detail::rt().membership_epoch().load();
  const std::vector<int> alive_entry = detail::live_ranks(g);
  const std::vector<int> live = detail::active_ranks(g);
  int mi = -1;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i] == c.rank()) {
      mi = static_cast<int>(i);
      break;
    }
  }
  if (mi < 0) return finish(c, kErrProcFailed);  // unreachable while alive

  int outcome = kSuccess;
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();
  opts.match_payload_head = true;
  opts.payload_head = seq;

  // Blocking receive that re-arms on benign membership interrupts and
  // converts a mid-call *death* in this group into a failure outcome — the
  // collective reports the error; recovery is the caller's job
  // (revoke/shrink/agree), as in ULFM.  A member that merely finished is
  // benign: in a correct program it can only exit after completing this very
  // collective, so anything we are owed is already en route.
  const auto recv_step = [&](ProcId peer, int tag, std::vector<std::byte>* payload) -> int {
    for (;;) {
      opts.interrupt = &detail::rt().membership_epoch();
      opts.interrupt_expect = mepoch;
      const int st = detail::ctrl_recv(peer, id, tag, payload, opts);
      if (st != kErrPending) return st;
      const std::uint64_t m2 = detail::rt().membership_epoch().load();
      if (detail::live_ranks(g) != alive_entry) return kErrProcFailed;
      mepoch = m2;
    }
  };

  // -- reduce up: fold the children's partial vectors into buf --------------
  for (int k = 1; k <= 2; ++k) {
    const std::size_t ci = 2 * static_cast<size_t>(mi) + static_cast<size_t>(k);
    if (ci >= live.size()) break;
    const ProcId child = g.pids[static_cast<size_t>(live[ci])];
    std::vector<std::byte> payload;
    const int st = recv_step(child, tags::kCollTreeUp, &payload);
    if (st == kErrRevoked) return finish(c, st);
    if (st != kSuccess || payload.size() < sizeof(Head) + nbytes) {
      outcome = kErrProcFailed;  // the dead child's subtree contribution is lost
      continue;
    }
    Head h{};
    std::memcpy(&h, payload.data(), sizeof(h));
    if (h.outcome != kSuccess) outcome = kErrProcFailed;
    combine(buf, payload.data() + sizeof(Head), count, op);
  }

  // -- exchange with the parent (or fold the verdict at the root) -----------
  std::vector<std::byte> down;
  if (mi == 0) {
    // Mirror the linear gather's failure reporting: a member missing from
    // the live snapshot is a failure even if no wait tripped over it.
    if (static_cast<int>(live.size()) != g.size()) outcome = kErrProcFailed;
    down.resize(sizeof(Head) + nbytes);
    const Head dh{seq, outcome, 0};
    std::memcpy(down.data(), &dh, sizeof(dh));
    std::memcpy(down.data() + sizeof(dh), buf, nbytes);
  } else {
    std::vector<std::byte> up(sizeof(Head) + nbytes);
    const Head uh{seq, outcome, 0};
    std::memcpy(up.data(), &uh, sizeof(uh));
    std::memcpy(up.data() + sizeof(uh), buf, nbytes);
    const ProcId parent = g.pids[static_cast<size_t>(live[static_cast<size_t>((mi - 1) / 2)])];
    int st = detail::ctrl_send(parent, id, tags::kCollTreeUp, up.data(), up.size());
    if (st == kSuccess) {
      std::vector<std::byte> payload;
      st = recv_step(parent, tags::kCollTreeDown, &payload);
      if (st == kErrRevoked) return finish(c, st);
      if (st == kSuccess && payload.size() >= sizeof(Head) + nbytes) {
        down = std::move(payload);
      }
    }
    if (down.empty()) {
      // Parent died holding the reduction: report the failure, but still
      // release the children below so no subtree blocks forever.
      outcome = kErrProcFailed;
      down.resize(sizeof(Head) + nbytes);
      const Head dh{seq, outcome, 0};
      std::memcpy(down.data(), &dh, sizeof(dh));
      std::memcpy(down.data() + sizeof(dh), buf, nbytes);
    }
  }

  // -- broadcast down: release the children before returning ----------------
  for (int k = 1; k <= 2; ++k) {
    const std::size_t ci = 2 * static_cast<size_t>(mi) + static_cast<size_t>(k);
    if (ci >= live.size()) break;
    // A child that died after contributing is already reported upward.
    const int sr = detail::ctrl_send(g.pids[static_cast<size_t>(live[ci])], id,
                                     tags::kCollTreeDown, down.data(), down.size());
    if (sr != kSuccess) outcome = kErrProcFailed;
  }

  Head dh{};
  std::memcpy(&dh, down.data(), sizeof(dh));
  if (dh.outcome == kSuccess) {
    std::memcpy(buf, down.data() + sizeof(dh), nbytes);
  }
  const int final_outcome = dh.outcome != kSuccess ? dh.outcome : outcome;
  return finish(c, final_outcome);
}

int barrier(const Comm& c) {
  detail::check_alive();
  int rc = validate_intra(c, 0);
  if (rc != kSuccess) return finish(c, rc);
  FTR_PSAN_COLLECTIVE(c, "barrier", 0);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();

  if (c.rank() == 0) {
    int outcome = kSuccess;
    for (int r = 1; r < g.size(); ++r) {
      const int st = detail::ctrl_recv(g.pids[static_cast<size_t>(r)], id,
                                       tags::kBarrierArrive, nullptr, opts);
      if (st == kErrRevoked) return finish(c, st);
      if (st != kSuccess) outcome = kErrProcFailed;
    }
    int final_outcome = outcome;
    for (int r = 1; r < g.size(); ++r) {
      // A failed release send means that member died after arriving; keep
      // delivering to the rest, but report the death to the caller (it is
      // the freshest failure knowledge the root has).
      const int sr = detail::ctrl_send(g.pids[static_cast<size_t>(r)], id,
                                       tags::kBarrierRelease, &outcome, sizeof(outcome));
      if (sr != kSuccess) final_outcome = kErrProcFailed;
    }
    return finish(c, final_outcome);
  }
  const ProcId root_pid = g.pids[0];
  rc = detail::ctrl_send(root_pid, id, tags::kBarrierArrive, nullptr, 0);
  if (rc != kSuccess) return finish(c, kErrProcFailed);
  std::vector<std::byte> payload;
  rc = detail::ctrl_recv(root_pid, id, tags::kBarrierRelease, &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  return finish(c, detail::unpack<int>(payload));
}

int bcast_bytes(void* buf, std::size_t n, int root, const Comm& c) {
  detail::check_alive();
  int rc = validate_intra(c, root);
  if (rc != kSuccess) return finish(c, rc);
  FTR_PSAN_COLLECTIVE(c, "bcast_bytes", root);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();

  if (c.rank() == root) {
    int outcome = kSuccess;
    for (int r = 0; r < g.size(); ++r) {
      if (r == root) continue;
      const int st = detail::ctrl_send(g.pids[static_cast<size_t>(r)], id, tags::kBcast, buf, n);
      if (st != kSuccess) outcome = kErrProcFailed;  // keep delivering to the rest
    }
    return finish(c, outcome);
  }
  std::vector<std::byte> payload;
  rc = detail::ctrl_recv(g.pids[static_cast<size_t>(root)], id, tags::kBcast, &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  std::memcpy(buf, payload.data(), std::min(n, payload.size()));
  return finish(c, kSuccess);
}

int gather_bytes(const void* data, std::size_t n, std::vector<std::vector<std::byte>>* out,
                 int root, const Comm& c) {
  detail::check_alive();
  int rc = validate_intra(c, root);
  if (rc != kSuccess) return finish(c, rc);
  FTR_PSAN_COLLECTIVE(c, "gather_bytes", root);
  if (c.is_revoked()) return finish(c, kErrRevoked);

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  detail::RecvOpts opts;
  opts.revoke_ctx = c.context();

  if (c.rank() == root) {
    int outcome = kSuccess;
    if (out != nullptr) {
      out->assign(static_cast<size_t>(g.size()), {});
      (*out)[static_cast<size_t>(root)].resize(n);
      if (n > 0) std::memcpy((*out)[static_cast<size_t>(root)].data(), data, n);
    }
    for (int r = 0; r < g.size(); ++r) {
      if (r == root) continue;
      std::vector<std::byte> payload;
      const int st = detail::ctrl_recv(g.pids[static_cast<size_t>(r)], id, tags::kGather,
                                       &payload, opts);
      if (st == kErrRevoked) return finish(c, st);
      if (st != kSuccess) {
        outcome = kErrProcFailed;
        continue;
      }
      if (out != nullptr) (*out)[static_cast<size_t>(r)] = std::move(payload);
    }
    // Release: tells every member the uniform outcome (and doubles as the
    // synchronization point that orders consecutive collectives).  A member
    // that dies mid-release still gets the death reported to the caller.
    int final_outcome = outcome;
    for (int r = 0; r < g.size(); ++r) {
      if (r == root) continue;
      const int sr = detail::ctrl_send(g.pids[static_cast<size_t>(r)], id,
                                       tags::kBarrierRelease, &outcome, sizeof(outcome));
      if (sr != kSuccess) final_outcome = kErrProcFailed;
    }
    return finish(c, final_outcome);
  }
  const ProcId root_pid = g.pids[static_cast<size_t>(root)];
  rc = detail::ctrl_send(root_pid, id, tags::kGather, data, n);
  if (rc != kSuccess) return finish(c, kErrProcFailed);
  std::vector<std::byte> payload;
  rc = detail::ctrl_recv(root_pid, id, tags::kBarrierRelease, &payload, opts);
  if (rc != kSuccess) return finish(c, rc == kErrRevoked ? rc : kErrProcFailed);
  return finish(c, detail::unpack<int>(payload));
}

}  // namespace ftmpi
