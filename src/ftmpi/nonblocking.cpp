// Nonblocking point-to-point, probe, and send-receive.

#include <algorithm>
#include <cstring>

#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/dlsan.hpp"
#include "ftmpi/psan.hpp"
#include "ftmpi/vtsan.hpp"
#include "ftmpi/request.hpp"

namespace ftmpi {

int isend_bytes(std::vector<std::byte>&& payload, int dest, int tag, const Comm& c,
                Request* req) {
  // Eager transport: the send buffers at the destination immediately.  A
  // nonblocking send only charges its injection overhead to the sender's
  // clock — the wire time is already carried by the message's arrival
  // stamp, so the transfer overlaps whatever the sender does next (this is
  // what lets buddy replication overlap time-stepping).
  ProcessState& ps = detail::self();
  const double before = ps.vclock;
  const int rc = send_bytes(std::move(payload), dest, tag, c);
  if (rc == kSuccess) {
    const double charged = ps.vclock - before;
    ps.vclock = before + std::min(charged, detail::rt().cost().send_overhead);
  }
  *req = Request{};
  req->kind_ = Request::Kind::SendComplete;
  req->send_result = rc;
  return rc;
}

int isend_bytes(const void* data, std::size_t n, int dest, int tag, const Comm& c,
                Request* req) {
  const auto* bytes = static_cast<const std::byte*>(data);
  return isend_bytes(std::vector<std::byte>(bytes, bytes + n), dest, tag, c, req);
}

int irecv_bytes(void* buf, std::size_t max_bytes, int src, int tag, const Comm& c,
                Request* req) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  FTR_PSAN_USE(c, "irecv_bytes");
  *req = Request{};
  req->kind_ = Request::Kind::Recv;
  req->comm = c;
  req->buf = buf;
  req->max_bytes = max_bytes;
  req->source = src;
  req->tag = tag;
  return kSuccess;
}

int wait(Request* req, Status* status) {
  detail::check_alive();
  switch (req->kind_) {
    case Request::Kind::Null:
      return kSuccess;
    case Request::Kind::SendComplete: {
      const int rc = req->send_result;
      *req = Request{};
      return rc;
    }
    case Request::Kind::Recv: {
      const int rc =
          recv_bytes(req->buf, req->max_bytes, req->source, req->tag, req->comm, status);
      *req = Request{};
      return rc;
    }
  }
  return kErrArg;
}

int waitall(Request* reqs, int count, Status* statuses) {
  int outcome = kSuccess;
  for (int i = 0; i < count; ++i) {
    const int rc = wait(&reqs[i], statuses != nullptr ? &statuses[i] : nullptr);
    if (rc != kSuccess && outcome == kSuccess) outcome = rc;
  }
  return outcome;
}

int test(Request* req, int* flag, Status* status) {
  detail::check_alive();
  *flag = 0;
  switch (req->kind_) {
    case Request::Kind::Null:
    case Request::Kind::SendComplete:
      *flag = 1;
      return wait(req, status);
    case Request::Kind::Recv: {
      int available = 0;
      const int rc = iprobe(req->source, req->tag, req->comm, &available, nullptr);
      if (rc != kSuccess) {
        // Probe surfaced a definitive condition (failed peer / revoked):
        // complete the request with that outcome, through the handler of
        // the request's communicator as wait() would.
        *flag = 1;
        const Comm comm = std::move(req->comm);
        *req = Request{};
        if (status != nullptr) status->error = rc;
        return finish(comm, rc);
      }
      if (!available) return kSuccess;
      *flag = 1;
      return wait(req, status);
    }
  }
  return kErrArg;
}

namespace {

/// True when message `m` matches a user-plane receive on `c` for (src, tag).
bool buffered_match(const Message& m, const Comm& c, int src, int tag) {
  if (m.ctrl || m.ctx != c.context()->id) return false;
  if (tag == kAnyTag ? m.tag < 0 : m.tag != tag) return false;
  if (src != kAnySource && m.src_rank != src) return false;
  const int side = c.side();
  return c.is_inter() ? (m.src_side != side) : (m.src_side == side);
}

/// iprobe's answer, with ps.mu held by the caller: kErrRevoked for a revoked
/// communicator, *flag = 1 for a buffered match, and kErrProcFailed when
/// nothing matches and the named sender is gone (so callers do not spin on
/// a crashed sender).
int probe_locked(const ProcessState& ps, int src, int tag, const Comm& c, int* flag,
                 Status* status) {
  if (c.is_revoked()) return kErrRevoked;
  for (const Message& m : ps.mailbox) {
    if (!buffered_match(m, c, src, tag)) continue;
    *flag = 1;
    if (status != nullptr) {
      status->source = m.src_rank;
      status->tag = m.tag;
      status->error = kSuccess;
      status->count = static_cast<int>(m.payload.size());
    }
    return kSuccess;
  }
  if (src != kAnySource) {
    const Group& senders = c.is_inter() ? c.remote_group() : c.group();
    const ProcessState& sender = detail::rt().proc(senders.pids.at(static_cast<size_t>(src)));
    if (sender.dead.load() || sender.finished.load()) return kErrProcFailed;
  }
  return kSuccess;
}

}  // namespace

int iprobe(int src, int tag, const Comm& c, int* flag, Status* status) {
  detail::check_alive();
  *flag = 0;
  if (c.is_null()) return kErrComm;
  FTR_PSAN_USE(c, "iprobe");
  ProcessState& ps = detail::self();
  int rc = kSuccess;
  {
    std::lock_guard<SpinSleepLock> lock(ps.mu);
    rc = probe_locked(ps, src, tag, c, flag, status);
  }
  // Returned directly, not via finish(): mark the observation here.
  if (rc == kErrRevoked) FTR_PSAN_REVOKE_OBSERVED(c, "error return (kErrRevoked)");
  return rc;
}

FTR_YIELD int probe(int src, int tag, const Comm& c, Status* status) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  FTR_PSAN_USE(c, "probe");
  ProcessState& ps = detail::self();
  // Only the named sender's exit can make the probe hopeless.
  ProcessState* sender = src == kAnySource ? nullptr : &detail::rt().proc(c.peer_pid(src));
  int rc = kSuccess;
  {
    std::unique_lock<SpinSleepLock> lock(ps.mu);
    detail::ParkedScope parked(ps, sender, /*any_exit=*/false);
    for (;;) {
      if (ps.dead.load()) throw ProcessKilled{ps.pid};
      // Check under the lock the wait parks with: a delivery, revoke or
      // sender exit that lands between a check and the wait would never
      // wake it.
      int flag = 0;
      rc = probe_locked(ps, src, tag, c, &flag, status);
      if (rc != kSuccess) break;
      if (flag) return kSuccess;
      if (parked.watch_exits()) continue;
      FTR_DLSAN_BLOCK_PROBE(c, src, tag);
      Runtime::park(lock);
      FTR_DLSAN_UNBLOCK();
    }
  }
  // The wait is over before the error handler runs, which may wait itself.
  return finish(c, rc);
}

int iprobe_buffered(int src, int tag, const Comm& c, int* flag, Status* status) {
  detail::check_alive();
  *flag = 0;
  if (c.is_null()) return kErrComm;
  // No revoked check and no dead-peer reporting: whether a message already
  // sits in the mailbox is a local question, answerable on a broken world.
  ProcessState& ps = detail::self();
  std::lock_guard<SpinSleepLock> lock(ps.mu);
  for (const Message& m : ps.mailbox) {
    if (!buffered_match(m, c, src, tag)) continue;
    *flag = 1;
    if (status != nullptr) {
      status->source = m.src_rank;
      status->tag = m.tag;
      status->error = kSuccess;
      status->count = static_cast<int>(m.payload.size());
    }
    return kSuccess;
  }
  return kSuccess;
}

int recv_buffered(std::vector<std::byte>* out, int src, int tag, const Comm& c,
                  Status* status) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  ProcessState& ps = detail::self();
  const CostModel& cm = detail::rt().cost();
  std::unique_lock<SpinSleepLock> lock(ps.mu);
  for (auto it = ps.mailbox.begin(); it != ps.mailbox.end(); ++it) {
    if (!buffered_match(*it, c, src, tag)) continue;
    Message msg = std::move(*it);
    ps.mailbox.erase(it);
    ps.vclock = std::max(ps.vclock, msg.arrive) + cm.recv_overhead;
    FTR_VTSAN_JOIN(msg);
    lock.unlock();
    if (status != nullptr) {
      status->source = msg.src_rank;
      status->tag = msg.tag;
      status->error = kSuccess;
      status->count = static_cast<int>(msg.payload.size());
    }
    *out = std::move(msg.payload);
    return kSuccess;
  }
  return kErrPending;  // nothing buffered — this variant never blocks
}

int recv_buffered(void* buf, std::size_t max_bytes, int src, int tag, const Comm& c,
                  Status* status) {
  std::vector<std::byte> payload;
  const int rc = recv_buffered(&payload, src, tag, c, status);
  return rc != kSuccess ? rc : detail::copy_out(payload, buf, max_bytes, status);
}

int sendrecv_bytes(const void* send_data, std::size_t send_n, int dest, int send_tag,
                   void* recv_buf, std::size_t recv_max, int src, int recv_tag,
                   const Comm& c, Status* status) {
  // Eager sends cannot deadlock, so send-then-receive is safe.
  const int src_rc = send_bytes(send_data, send_n, dest, send_tag, c);
  const int rrc = recv_bytes(recv_buf, recv_max, src, recv_tag, c, status);
  return rrc != kSuccess ? rrc : src_rc;
}

}  // namespace ftmpi
