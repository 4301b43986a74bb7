#include "recovery/buddy.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/logging.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/request.hpp"
#include "recovery/checkpoint.hpp"

namespace ftr::rec {

// --- topology ---------------------------------------------------------------

int BuddyTopology::total_procs() const {
  int n = 0;
  for (int p : procs_per_grid) n += p;
  return n;
}

int BuddyTopology::grid_of_rank(int world_rank) const {
  for (int g = 0; g < num_grids(); ++g) {
    const int first = first_rank[static_cast<size_t>(g)];
    if (world_rank >= first && world_rank < first + procs_per_grid[static_cast<size_t>(g)]) {
      return g;
    }
  }
  return -1;
}

int BuddyTopology::group_rank(int world_rank) const {
  const int g = grid_of_rank(world_rank);
  return g < 0 ? -1 : world_rank - first_rank[static_cast<size_t>(g)];
}

namespace {

std::set<int> hosts_of_grid(const BuddyTopology& t, int grid) {
  std::set<int> hosts;
  if (grid < 0 || grid >= t.num_grids()) return hosts;
  const int first = t.first_rank[static_cast<size_t>(grid)];
  for (int r = first; r < first + t.procs_per_grid[static_cast<size_t>(grid)]; ++r) {
    hosts.insert(t.host_of_rank(r));
  }
  return hosts;
}

}  // namespace

int buddy_rank_of(const BuddyTopology& topo, int world_rank) {
  const int n = topo.total_procs();
  if (n <= 1 || world_rank < 0 || world_rank >= n) return -1;
  const int g = topo.grid_of_rank(world_rank);
  const std::set<int> own_hosts = hosts_of_grid(topo, g);
  const int partner =
      (g >= 0 && g < static_cast<int>(topo.partner_grid.size())) ? topo.partner_grid[static_cast<size_t>(g)] : -1;
  const std::set<int> partner_hosts = hosts_of_grid(topo, partner);
  // Start the scan just past the owner's grid, offset by the group rank, so
  // the clients of one grid spread over several holders instead of piling
  // onto a single successor rank.
  const int start = g < 0 ? world_rank
                          : topo.first_rank[static_cast<size_t>(g)] +
                                topo.procs_per_grid[static_cast<size_t>(g)] +
                                topo.group_rank(world_rank);
  for (int pass = 0; pass < 4; ++pass) {
    for (int k = 0; k < n; ++k) {
      const int c = ((start + k) % n + n) % n;
      if (c == world_rank) continue;
      if (pass < 3 && topo.grid_of_rank(c) == g) continue;
      const int h = topo.host_of_rank(c);
      if (pass <= 1 && own_hosts.count(h) != 0) continue;
      if (pass == 0 && partner_hosts.count(h) != 0) continue;
      return c;
    }
  }
  return -1;
}

std::vector<int> buddy_clients_of(const BuddyTopology& topo, int holder) {
  std::vector<int> clients;
  const int n = topo.total_procs();
  for (int r = 0; r < n; ++r) {
    if (buddy_rank_of(topo, r) == holder) clients.push_back(r);
  }
  return clients;
}

// --- wire format ------------------------------------------------------------

namespace {

/// Append the header of a `count`-double replica with a zero CRC.
void append_header(std::vector<std::byte>& buf, int grid, int grank, long step, long count) {
  const long header[5] = {static_cast<long>(grid), static_cast<long>(grank), step, count, 0};
  const auto* bytes = reinterpret_cast<const std::byte*>(header);
  // ftlint:allow(FTL003 appends into the capacity the caller reserved)
  buf.insert(buf.end(), bytes, bytes + kReplicaHeaderBytes);
}

/// Write the payload's CRC into the header of a packed buffer.
void seal(std::vector<std::byte>& buf, long step, long count) {
  const auto crc = static_cast<long>(
      snapshot_crc(step, buf.data() + kReplicaHeaderBytes, static_cast<std::size_t>(count)));
  std::memcpy(buf.data() + 4 * sizeof(long), &crc, sizeof(long));
}

}  // namespace

std::vector<std::byte> pack_replica(int grid, int grank, long step,
                                    const std::vector<double>& data) {
  const auto count = static_cast<long>(data.size());
  std::vector<std::byte> buf;
  buf.reserve(kReplicaHeaderBytes + data.size() * sizeof(double));
  append_header(buf, grid, grank, step, count);
  const auto* bytes = reinterpret_cast<const std::byte*>(data.data());
  buf.insert(buf.end(), bytes, bytes + data.size() * sizeof(double));
  seal(buf, step, count);
  return buf;
}

FTR_HOT std::vector<std::byte> pack_field_replica(int grid, int grank, long step,
                                                  const ftr::grid::LocalField& f) {
  const long count = f.block().cells();
  std::vector<std::byte> buf;
  // ftlint:allow(FTL003 the one buffer of a replica; its holder keeps it)
  buf.reserve(kReplicaHeaderBytes + f.interior_bytes());
  append_header(buf, grid, grank, step, count);
  f.append_interior(buf);
  seal(buf, step, count);
  return buf;
}

FTR_HOT std::optional<ReplicaHeader> check_replica(const std::byte* bytes, std::size_t n) {
  if (bytes == nullptr || n < kReplicaHeaderBytes) return std::nullopt;
  long header[5];
  std::memcpy(header, bytes, kReplicaHeaderBytes);
  ReplicaHeader h;
  h.grid = static_cast<int>(header[0]);
  h.grank = static_cast<int>(header[1]);
  h.step = header[2];
  h.count = header[3];
  h.crc = static_cast<std::uint32_t>(header[4]);
  // Compare the count with the payload present rather than multiplying it:
  // a flipped high bit would wrap count * 8 back to the true size.
  const std::size_t payload = n - kReplicaHeaderBytes;
  if (h.count < 0 || payload % sizeof(double) != 0 ||
      static_cast<std::size_t>(h.count) != payload / sizeof(double)) {
    return std::nullopt;
  }
  if (snapshot_crc(h.step, bytes + kReplicaHeaderBytes, static_cast<std::size_t>(h.count)) !=
      h.crc) {
    return std::nullopt;
  }
  return h;
}

// --- store ------------------------------------------------------------------

void BuddyStore::put(ftmpi::ProcId holder, std::vector<std::byte> wire) {
  if (wire.size() < kReplicaHeaderBytes) return;
  long header[3];
  std::memcpy(header, wire.data(), sizeof(header));
  const int grid = static_cast<int>(header[0]);
  const int grank = static_cast<int>(header[1]);
  const long step = header[2];
  const auto payload = static_cast<long>(wire.size() - kReplicaHeaderBytes);
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[Key{holder, grid, grank}];
  if (slot.newest.step != step) slot.prev = std::move(slot.newest);
  slot.newest = Generation{step, std::move(wire)};  // a same-step put refreshes in place
  ++replications_;
  replicated_bytes_ += payload;
}

BuddyStore::Holding BuddyStore::holding(ftmpi::ProcId holder, int grid, int grank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(Key{holder, grid, grank});
  if (it == slots_.end()) return {};
  return Holding{it->second.newest.step, it->second.prev.step};
}

std::optional<std::vector<std::byte>> BuddyStore::read_at(ftmpi::ProcId holder, int grid,
                                                          int grank, long step) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(Key{holder, grid, grank});
  if (it == slots_.end()) return std::nullopt;
  for (const Generation* gen : {&it->second.newest, &it->second.prev}) {
    if (gen->step != step || step < 0) continue;
    if (!check_replica(gen->wire.data(), gen->wire.size()).has_value()) {
      ++corrupt_detected_;
      continue;
    }
    return gen->wire;
  }
  return std::nullopt;
}

void BuddyStore::corrupt_newest(ftmpi::ProcId holder, int grid, int grank) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(Key{holder, grid, grank});
  if (it == slots_.end() || it->second.newest.wire.size() < kReplicaHeaderBytes + sizeof(double)) {
    return;
  }
  std::byte* first = it->second.newest.wire.data() + kReplicaHeaderBytes;
  std::uint64_t bits = 0;
  std::memcpy(&bits, first, sizeof(bits));
  bits ^= 0xdeadbeefcafebabeULL;
  std::memcpy(first, &bits, sizeof(bits));
}

long BuddyStore::replications() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replications_;
}

long BuddyStore::replicated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicated_bytes_;
}

long BuddyStore::corrupt_detected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_detected_;
}

long newest_common_generation(const std::vector<std::set<long>>& held) {
  if (held.empty()) return -1;
  for (auto s = held.front().rbegin(); s != held.front().rend(); ++s) {
    if (std::all_of(held.begin() + 1, held.end(),
                    [&](const std::set<long>& h) { return h.count(*s) != 0; })) {
      return *s;
    }
  }
  return -1;
}

// --- replication / drain ----------------------------------------------------

int buddy_send(const BuddyTopology& topo, const ftmpi::Comm& world, int grid, int grank,
               long step, const ftr::grid::LocalField& f) {
  ftmpi::chaos_point("buddy.send");
  const int me = world.rank();
  const int dest = buddy_rank_of(topo, me);
  // A shrunken (degraded) world invalidates the rank->host map; callers
  // stop replicating then, this is just a belt-and-braces guard.
  if (dest < 0 || dest == me || dest >= world.size()) return ftmpi::kErrArg;
  ftmpi::Request req;
  const int rc = ftmpi::isend_bytes(pack_field_replica(grid, grank, step, f), dest,
                                    kTagBuddyRepl, world, &req);
  // Eager sends complete at wait time; a wait error means the replica never
  // left this rank, which the caller must know about (the planner's buddy
  // rung counts on the generation landing).
  const int wrc = ftmpi::wait(&req);
  return rc != ftmpi::kSuccess ? rc : wrc;
}

int buddy_drain(BuddyStore& store, const ftmpi::Comm& world) {
  // The buffered salvage path (rather than iprobe/recv) matters: after a
  // repair the pre-failure world is revoked, but the replicas delivered on
  // it are still buffered and are exactly what the planner needs.
  int drained = 0;
  std::vector<std::byte> wire;
  while (ftmpi::recv_buffered(&wire, ftmpi::kAnySource, kTagBuddyRepl, world) ==
         ftmpi::kSuccess) {
    if (!check_replica(wire.data(), wire.size()).has_value()) {
      FTR_WARN("buddy: dropping replica that failed CRC/format validation");
      continue;
    }
    store.put(ftmpi::self_pid(), std::move(wire));
    ++drained;
  }
  return drained;
}

}  // namespace ftr::rec
