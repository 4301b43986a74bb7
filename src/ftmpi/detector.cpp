// Heartbeat-ring failure detector with gossip propagation (see detector.hpp
// for the state machine).  Everything here runs on the owning rank,
// piggybacked on runtime entry points; the only cross-thread communication
// is the mailbox itself plus the det_pending counter bumped by deliver().

#include "ftmpi/detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/vtsan.hpp"

namespace ftmpi::detector {

namespace {

const Options& opts(const ProcessState& ps) { return ps.rt->options().detector; }

/// Deliver one detector-channel message.  The detector is a *zero
/// virtual-cost* overlay: which rank drains which message first depends on
/// real thread scheduling, so any virtual-time charge here would make the
/// simulated clocks nondeterministic.  Heartbeats model out-of-band RTE
/// traffic; they are counted in the message statistics and stamped with the
/// usual network latency (for the detection-latency records), but never
/// advance any virtual clock.
void send_det(ProcessState& ps, ProcId dst, int tag, std::vector<std::byte> payload) {
  if (dst == ps.pid) return;
  Runtime& rt = *ps.rt;
  const CostModel& cm = rt.cost();
  const bool same_host = rt.host_of(dst) == ps.host;
  Message msg;
  msg.ctx = 0;
  msg.tag = tag;
  msg.ctrl = true;
  msg.src_pid = ps.pid;
  Runtime::record_message(ps, payload.size(), !same_host);
  msg.payload = std::move(payload);
  msg.arrive = ps.vclock + cm.latency(same_host);
  rt.deliver(dst, std::move(msg));
}

/// Forward a (fresh) failure to the ring members at distance 1, 2, 4, ...
/// Every receiver of fresh information fans out the same way, so the whole
/// ring learns in O(log N) hops; stale duplicates die at epoch_ok().
void gossip_fan_out(ProcessState& ps, ProcId dead, ProcId origin, std::uint32_t hops) {
  const std::shared_ptr<const std::vector<ProcId>> roster = ps.rt->roster();
  const RingView ring(*roster, ps.det.known_failed);
  const int mi = ring.index_of(ps.pid);
  if (mi < 0 || ring.size() < 2) return;
  chaos_point("detector.gossip");
  std::set<ProcId> targets;
  for (std::size_t step = 1; step < ring.size(); step *= 2) {
    targets.insert(ring.at((static_cast<std::size_t>(mi) + step) % ring.size()));
  }
  targets.erase(ps.pid);
  const GossipWire w{dead, origin, ps.det.epoch, hops, 0};
  const std::vector<std::byte> payload = detail::pack(w);
  for (ProcId t : targets) {
    send_det(ps, t, tags::kGossip, payload);
    ++ps.det.gossip_sent;
  }
}

/// Record a newly learned failure and start/continue its propagation.
void confirm_failure(ProcessState& ps, ProcId dead, Source how, ProcId origin,
                     std::uint32_t hops) {
  State& st = ps.det;
  if (dead < 0 || dead == ps.pid || st.known_failed.count(dead) > 0) return;
  st.known_failed.insert(dead);
  st.suspected.erase(dead);
  st.last_heard.erase(dead);
  ++st.epoch;
  st.records.push_back({dead, ps.vclock, how});
  FTR_DEBUG("detector: pid %d learned pid %d failed (how=%d, epoch=%llu)", ps.pid, dead,
            static_cast<int>(how), static_cast<unsigned long long>(st.epoch));
  gossip_fan_out(ps, dead, origin, hops);
}

void absorb_one(ProcessState& ps, const Message& msg) {
  State& st = ps.det;
  if (msg.tag == tags::kHeartbeat) {
    const auto w = detail::unpack<HeartbeatWire>(msg.payload);
    if (!epoch_ok(st, w)) {
      ++st.stale_discarded;
      return;
    }
    double& heard = st.last_heard[w.src];
    heard = std::max(heard, msg.arrive);
    st.suspected.erase(w.src);
  } else if (msg.tag == tags::kGossip) {
    const auto w = detail::unpack<GossipWire>(msg.payload);
    ++st.gossip_received;
    if (!epoch_ok(st, w)) {
      // Stale or duplicate knowledge: discarded, never re-forwarded —
      // this (plus the epoch bump in confirm_failure) is what terminates
      // the gossip cascade.
      ++st.stale_discarded;
      return;
    }
    confirm_failure(ps, w.dead, Source::kGossip, w.origin, w.hops + 1);
  }
}

/// Periodic ring duties: heartbeat the successor, judge the predecessor.
void ring_tick(ProcessState& ps) {
  State& st = ps.det;
  const Options& o = opts(ps);
  const std::shared_ptr<const std::vector<ProcId>> roster = ps.rt->roster();
  const RingView::Neighbours nb = RingView(*roster, st.known_failed).neighbours(ps.pid);
  if (nb.succ == kNullProc) return;

  // Heartbeat the ring successor (a blind post: the network drops traffic
  // to a crashed process, which is exactly what starves the observer).
  chaos_point("detector.heartbeat");
  const HeartbeatWire hb{ps.pid, 0, st.epoch, ++st.hb_seq};
  send_det(ps, nb.succ, tags::kHeartbeat, detail::pack(hb));
  ++st.heartbeats_sent;

  // Judge the ring predecessor by the silence since its last heartbeat.
  const ProcId pred = nb.pred;
  const auto it = st.last_heard.find(pred);
  if (it == st.last_heard.end()) {
    st.last_heard[pred] = ps.vclock;  // grace starts at first observation
    return;
  }
  const double silence = ps.vclock - it->second;
  if (silence <= o.suspect_after) {
    st.suspected.erase(pred);
    return;
  }
  if (silence <= o.confirm_after) {
    if (st.suspected.insert(pred).second) {
      FTR_DEBUG("detector: pid %d suspects pid %d (silent %.3fs)", ps.pid, pred, silence);
    }
    return;
  }
  // Confirmation requires a direct probe round-trip (the oracle stands in
  // for the ping/ack of a real RTE), so sustained slowness alone can never
  // produce a false positive.  Like every detector action, the probe is
  // free in virtual time (see send_det).
  if (ps.rt->is_dead(pred)) {
    confirm_failure(ps, pred, Source::kRing, ps.pid, 0);
  } else {
    ++st.false_alarms;
    st.suspected.erase(pred);
    st.last_heard[pred] = ps.vclock;
    FTR_DEBUG("detector: pid %d probed slow-but-alive pid %d (false alarm)", ps.pid, pred);
  }
}

}  // namespace

RingView::RingView(const std::vector<ProcId>& roster, const std::set<ProcId>& known_failed)
    : roster_(roster) {
  // Both are in pid order, so the skipped indices come out ascending.
  for (ProcId p : known_failed) {
    const auto it = std::lower_bound(roster_.begin(), roster_.end(), p);
    if (it != roster_.end() && *it == p) {
      skipped_.push_back(static_cast<std::size_t>(it - roster_.begin()));
    }
  }
}

int RingView::index_of(ProcId pid) const {
  const auto it = std::lower_bound(roster_.begin(), roster_.end(), pid);
  if (it == roster_.end() || *it != pid) return -1;
  const auto j = static_cast<std::size_t>(it - roster_.begin());
  const auto s = std::lower_bound(skipped_.begin(), skipped_.end(), j);
  if (s != skipped_.end() && *s == j) return -1;
  return static_cast<int>(j - static_cast<std::size_t>(s - skipped_.begin()));
}

ProcId RingView::at(std::size_t i) const {
  // Each skipped roster index at or below the candidate pushes it one on.
  std::size_t j = i;
  for (std::size_t s : skipped_) {
    if (s > j) break;
    ++j;
  }
  return roster_[j];
}

RingView::Neighbours RingView::neighbours(ProcId self) const {
  const int mi = index_of(self);
  const std::size_t n = size();
  if (mi < 0 || n < 2) return {};
  const auto i = static_cast<std::size_t>(mi);
  return {at((i + n - 1) % n), at((i + 1) % n)};
}

bool enabled(const ProcessState& ps) {
  return ps.rt != nullptr && ps.rt->options().detector.enabled;
}

bool epoch_ok(const State& st, const HeartbeatWire& w) {
  // A heartbeat from a pid this rank already knows is dead is stale ring
  // traffic from before the failure propagated; it must not resurrect the
  // sender's alive status.
  return w.src >= 0 && st.known_failed.count(w.src) == 0;
}

bool epoch_ok(const State& st, const GossipWire& w) {
  // Gossip is stamped with the sender's epoch *after* it learned the
  // failure, so a zero epoch is malformed, and news about an already-known
  // failure is a duplicate that must die here (termination of the cascade).
  return w.epoch > 0 && w.dead >= 0 && st.known_failed.count(w.dead) == 0;
}

void drain(ProcessState& ps) {
  if (!enabled(ps)) return;
  if (ps.det_pending.load(std::memory_order_acquire) == 0) return;
  std::vector<Message> batch;
  {
    std::lock_guard<SpinSleepLock> lock(ps.mu);
    for (auto it = ps.mailbox.begin(); it != ps.mailbox.end();) {
      if (it->ctrl && (it->tag == tags::kHeartbeat || it->tag == tags::kGossip)) {
        batch.push_back(std::move(*it));
        it = ps.mailbox.erase(it);
      } else {
        ++it;
      }
    }
    ps.det_pending.store(0, std::memory_order_release);
  }
  for (const Message& m : batch) {
    FTR_VTSAN_JOIN(m);
    absorb_one(ps, m);
  }
}

void maybe_tick(ProcessState& ps) {
  if (!enabled(ps)) return;
  State& st = ps.det;
  if (ps.det_pending.load(std::memory_order_relaxed) == 0 && ps.vclock < st.hb_next) {
    return;
  }
  drain(ps);
  if (!st.ring_joined) {
    // First tick only arms the schedule; the first heartbeat goes out at
    // the next period boundary, so sub-period workloads never send any.
    st.ring_joined = true;
    st.hb_next = (std::floor(ps.vclock / opts(ps).period) + 1.0) * opts(ps).period;
    return;
  }
  if (ps.vclock >= st.hb_next) {
    // One heartbeat per tick even if a long charge (e.g. a checkpoint
    // write) crossed several periods; then resynchronize the schedule.
    st.hb_next = (std::floor(ps.vclock / opts(ps).period) + 1.0) * opts(ps).period;
    ring_tick(ps);
  }
}

void note_transport_failure(ProcessState& ps, ProcId dead) {
  if (!enabled(ps)) return;
  confirm_failure(ps, dead, Source::kTransport, ps.pid, 0);
}

int observe_hopeless_wait(ProcessState& ps, std::span<ProcessState* const> watch) {
  // Charge exactly what the legacy path charges: whether the detector had
  // already announced the death depends on real message-delivery races, so
  // any charge conditioned on it would break virtual-time determinism.  The
  // observation still folds into the detector, so the knowledge gossips to
  // ranks that never touch the dead peer.
  ps.vclock += ps.rt->cost().failure_detect_latency;
  for (const ProcessState* w : watch) {
    if (w->dead.load()) note_transport_failure(ps, w->pid);
  }
  return kErrProcFailed;
}

bool knows(const ProcessState& ps, ProcId pid) {
  return ps.det.known_failed.count(pid) > 0;
}

bool knows_any_in(const ProcessState& ps, const Group& g) {
  if (ps.det.known_failed.empty()) return false;
  for (ProcId p : g.pids) {
    if (ps.det.known_failed.count(p) > 0) return true;
  }
  return false;
}

}  // namespace ftmpi::detector

namespace ftmpi {

bool detector_enabled() { return detector::enabled(detail::self()); }

DetectorEpoch detector_epoch() { return detail::self().det.epoch; }

std::vector<ProcId> detector_known_failed() {
  const detector::State& st = detail::self().det;
  return {st.known_failed.begin(), st.known_failed.end()};
}

std::vector<detector::Record> detector_records() { return detail::self().det.records; }

void detector_note_failed(ProcId dead) {
  detector::note_transport_failure(detail::self(), dead);
}

bool detector_knows_failure_in(const Comm& c) {
  ProcessState& ps = detail::self();
  if (!detector::enabled(ps) || c.is_null()) return false;
  detector::drain(ps);
  return detector::knows_any_in(ps, c.group());
}

}  // namespace ftmpi
