#include "core/async_repair.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "ftmpi/detector.hpp"

namespace ftr::core::overlap {

using ftmpi::Comm;
using ftmpi::kSuccess;

bool epoch_ok(const DoorbellWire& w, std::uint64_t repair_epoch,
              std::uint64_t armed_detector_epoch) {
  if (w.verdict != kVerdictReady && w.verdict != kVerdictAbort) return false;
  if (w.repair_epoch != repair_epoch) return false;
  // The doorbell is rung after the failure was confirmed, so its sender's
  // failure knowledge can only be at least as fresh as at arming time; an
  // older epoch identifies a wire from before this attempt's failure.
  return w.detector_epoch >= armed_detector_epoch;
}

int Classification::rworld_rank_of(int old_rank) const {
  const auto it = std::lower_bound(rworld.begin(), rworld.end(), old_rank);
  if (it == rworld.end() || *it != old_rank) return -1;
  return static_cast<int>(it - rworld.begin());
}

Classification classify(const Layout& layout, const std::vector<int>& survivor_old_ranks,
                        const std::vector<int>& failed_old_ranks) {
  Classification out;
  out.failed = failed_old_ranks;
  std::sort(out.failed.begin(), out.failed.end());
  out.affected = layout.grids_of_ranks(out.failed);
  const std::set<int> aff(out.affected.begin(), out.affected.end());

  for (size_t i = 0; i < survivor_old_ranks.size(); ++i) {
    const int r = survivor_old_ranks[i];
    const int g = layout.grid_of_rank(r);
    const bool repairs = g >= 0 && aff.count(g) != 0;
    if (repairs) {
      out.repair.push_back(r);
      if (out.repair_leader_shrunken < 0) {
        out.repair_leader_shrunken = static_cast<int>(i);
        out.repair_leader_old = r;
      }
    } else {
      out.continuation.push_back(r);
      if (out.continuation_leader_shrunken < 0) {
        out.continuation_leader_shrunken = static_cast<int>(i);
      }
    }
  }
  out.rworld = out.repair;
  out.rworld.insert(out.rworld.end(), out.failed.begin(), out.failed.end());
  std::sort(out.rworld.begin(), out.rworld.end());
  return out;
}

std::vector<std::byte> pack_manifest(const std::vector<ftr::rec::ReplicaMessage>& reps) {
  const auto append_long = [](std::vector<std::byte>& out, long v) {
    const auto* bytes = reinterpret_cast<const std::byte*>(&v);
    out.insert(out.end(), bytes, bytes + sizeof(long));
  };
  std::size_t total = sizeof(long);
  for (const auto& r : reps) total += sizeof(long) + r.wire.size();
  std::vector<std::byte> out;
  out.reserve(total);
  append_long(out, static_cast<long>(reps.size()));
  for (const auto& r : reps) {
    append_long(out, static_cast<long>(r.wire.size()));
    out.insert(out.end(), r.wire.begin(), r.wire.end());
  }
  return out;
}

std::vector<ftr::rec::ReplicaMessage> unpack_manifest(const std::byte* bytes, std::size_t n) {
  std::vector<ftr::rec::ReplicaMessage> out;
  if (bytes == nullptr || n < sizeof(long)) return out;
  long count = 0;
  std::memcpy(&count, bytes, sizeof(long));
  size_t at = sizeof(long);
  for (long i = 0; i < count; ++i) {
    if (at + sizeof(long) > n) return {};
    long nbytes = 0;
    std::memcpy(&nbytes, bytes + at, sizeof(long));
    at += sizeof(long);
    if (nbytes < 0 || at + static_cast<size_t>(nbytes) > n) return {};
    const std::byte* rec = bytes + at;
    at += static_cast<size_t>(nbytes);
    const auto head = ftr::rec::check_replica(rec, static_cast<size_t>(nbytes));
    if (!head.has_value()) continue;  // CRC-corrupt record: skip, keep the rest
    out.push_back({.grid = head->grid,
                   .grank = head->grank,
                   .step = head->step,
                   .wire = std::vector<std::byte>(rec, rec + nbytes)});
  }
  return out;
}

int ring_doorbell(const Comm& bridge, int dst, int verdict, std::uint64_t repair_epoch) {
  ftmpi::chaos_point("repair.doorbell");
  DoorbellWire w;
  w.verdict = verdict;
  w.repair_epoch = repair_epoch;
  w.detector_epoch = ftmpi::detector_enabled() ? ftmpi::detector_epoch() : 0;
  // Eager send: the ringer proceeds after the injection overhead; the wire
  // time rides the arrival stamp and overlaps whatever the ringer does next.
  return ftmpi::send_bytes(&w, sizeof(w), dst, kTagDoorbell, bridge);
}

int poll_doorbell(const Comm& bridge, std::uint64_t repair_epoch,
                  std::uint64_t armed_detector_epoch, int* verdict) {
  *verdict = kVerdictNone;
  if (bridge.is_null()) return ftmpi::kErrComm;
  if (bridge.is_revoked()) {
    // Revocation is the abort channel of last resort: a repair survivor
    // that cannot ring (or died mid-ring) revokes the bridge instead.
    *verdict = kVerdictAbort;
    return kSuccess;
  }
  // Drain everything buffered; stale wires (an aborted earlier attempt, a
  // pre-failure epoch) are discarded rather than acted on.
  for (;;) {
    int flag = 0;
    ftmpi::Status stat;
    const int prc = ftmpi::iprobe(ftmpi::kAnySource, kTagDoorbell, bridge, &flag, &stat);
    if (prc != kSuccess) {
      *verdict = kVerdictAbort;  // bridge died under us: converge to fallback
      return kSuccess;
    }
    if (flag == 0) return kSuccess;
    std::vector<std::byte> buf(sizeof(DoorbellWire));
    const int rrc =
        ftmpi::recv_bytes(buf.data(), buf.size(), stat.source, kTagDoorbell, bridge, &stat);
    if (rrc != kSuccess) {
      *verdict = kVerdictAbort;
      return kSuccess;
    }
    if (static_cast<size_t>(stat.count) < sizeof(DoorbellWire)) continue;
    DoorbellWire w;
    std::memcpy(&w, buf.data(), sizeof(DoorbellWire));  // unpack<DoorbellWire>
    if (!epoch_ok(w, repair_epoch, armed_detector_epoch)) {
      FTR_DEBUG("overlap: discarding stale doorbell (verdict %d epoch %llu)", w.verdict,
                static_cast<unsigned long long>(w.repair_epoch));
      continue;
    }
    // ABORT outranks READY: a fresh abort means some repair survivor saw
    // the attempt fail after the leader rang ready.
    if (w.verdict == kVerdictAbort) {
      *verdict = kVerdictAbort;
      return kSuccess;
    }
    *verdict = kVerdictReady;  // keep draining in case an abort follows
  }
}

int handoff(const Comm& side, int local_leader, bool continuation_side, int my_old_rank,
            const Comm& bridge, int remote_leader_shrunken, Comm* world_out) {
  ftmpi::chaos_point("repair.handoff");
  *world_out = Comm{};
  Comm inter;
  int rc = ftmpi::intercomm_create(side, local_leader, bridge, remote_leader_shrunken,
                                   /*tag=*/1, &inter);
  if (rc != kSuccess) return rc;
  Comm merged;
  // The continuation side is ordered low so the merged intracommunicator
  // already interleaves correctly once the ordered split keys by old rank.
  rc = ftmpi::intercomm_merge(inter, /*high=*/!continuation_side, &merged);
  if (rc != kSuccess) return rc;
  rc = ftmpi::comm_split(merged, 0, my_old_rank, world_out);
  if (rc != kSuccess) return rc;
  ftr::observe_error(ftmpi::comm_free(&merged), "overlap.handoff.free");
  return kSuccess;
}

}  // namespace ftr::core::overlap
