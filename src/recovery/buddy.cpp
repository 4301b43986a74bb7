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
constexpr std::size_t kHeaderLongs = 5;  // grid, grank, step, count, crc
constexpr std::size_t kHeaderBytes = kHeaderLongs * sizeof(long);
}  // namespace

std::vector<std::byte> pack_replica(int grid, int grank, long step,
                                    const std::vector<double>& data) {
  const long header[kHeaderLongs] = {static_cast<long>(grid), static_cast<long>(grank), step,
                                     static_cast<long>(data.size()),
                                     static_cast<long>(snapshot_crc(step, data))};
  std::vector<std::byte> buf(kHeaderBytes + data.size() * sizeof(double));
  std::memcpy(buf.data(), header, kHeaderBytes);
  if (!data.empty()) {
    std::memcpy(buf.data() + kHeaderBytes, data.data(), data.size() * sizeof(double));
  }
  return buf;
}

std::optional<ReplicaMessage> unpack_replica(const std::byte* bytes, std::size_t n) {
  if (bytes == nullptr || n < kHeaderBytes) return std::nullopt;
  long header[kHeaderLongs];
  std::memcpy(header, bytes, kHeaderBytes);
  ReplicaMessage m;
  m.grid = static_cast<int>(header[0]);
  m.grank = static_cast<int>(header[1]);
  m.step = header[2];
  const long count = header[3];
  m.crc = static_cast<std::uint32_t>(header[4]);
  // Compare the count with the payload present rather than multiplying it:
  // a flipped high bit would wrap count * 8 back to the true size.
  const std::size_t payload = n - kHeaderBytes;
  if (count < 0 || payload % sizeof(double) != 0 ||
      static_cast<std::size_t>(count) != payload / sizeof(double)) {
    return std::nullopt;
  }
  m.data.resize(static_cast<size_t>(count));
  if (count > 0) {
    std::memcpy(m.data.data(), bytes + kHeaderBytes,
                static_cast<std::size_t>(count) * sizeof(double));
  }
  if (snapshot_crc(m.step, m.data) != m.crc) return std::nullopt;
  return m;
}

// --- store ------------------------------------------------------------------

void BuddyStore::put(ftmpi::ProcId holder, int grid, int grank, long step,
                     std::vector<double> data, std::uint32_t crc) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[Key{holder, grid, grank}];
  if (slot.newest.step == step) {
    slot.newest = Generation{step, std::move(data), crc};  // refresh in place
  } else {
    slot.prev = std::move(slot.newest);
    slot.newest = Generation{step, std::move(data), crc};
  }
  ++replications_;
  replicated_bytes_ += static_cast<long>(slot.newest.data.size() * sizeof(double));
}

BuddyStore::Holding BuddyStore::holding(ftmpi::ProcId holder, int grid, int grank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(Key{holder, grid, grank});
  if (it == slots_.end()) return {};
  return Holding{it->second.newest.step, it->second.prev.step};
}

std::optional<BuddyStore::Replica> BuddyStore::read_at(ftmpi::ProcId holder, int grid,
                                                       int grank, long step) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(Key{holder, grid, grank});
  if (it == slots_.end()) return std::nullopt;
  for (const Generation* gen : {&it->second.newest, &it->second.prev}) {
    if (gen->step != step || step < 0) continue;
    if (snapshot_crc(gen->step, gen->data) != gen->crc) {
      ++corrupt_detected_;
      continue;
    }
    return Replica{gen->step, gen->data};
  }
  return std::nullopt;
}

void BuddyStore::corrupt_newest(ftmpi::ProcId holder, int grid, int grank) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(Key{holder, grid, grank});
  if (it == slots_.end() || it->second.newest.data.empty()) return;
  double& first = it->second.newest.data.front();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &first, sizeof(bits));
  bits ^= 0xdeadbeefcafebabeULL;
  std::memcpy(&first, &bits, sizeof(bits));
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
               long step, const std::vector<double>& data) {
  ftmpi::chaos_point("buddy.send");
  const int me = world.rank();
  const int dest = buddy_rank_of(topo, me);
  // A shrunken (degraded) world invalidates the rank->host map; callers
  // stop replicating then, this is just a belt-and-braces guard.
  if (dest < 0 || dest == me || dest >= world.size()) return ftmpi::kErrArg;
  const auto buf = pack_replica(grid, grank, step, data);
  ftmpi::Request req;
  const int rc = ftmpi::isend_bytes(buf.data(), buf.size(), dest, kTagBuddyRepl, world, &req);
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
  for (;;) {
    int flag = 0;
    ftmpi::Status stat;
    if (ftmpi::iprobe_buffered(ftmpi::kAnySource, kTagBuddyRepl, world, &flag, &stat) !=
            ftmpi::kSuccess ||
        flag == 0) {
      break;
    }
    std::vector<std::byte> buf(static_cast<size_t>(stat.count));
    if (ftmpi::recv_buffered(buf.data(), buf.size(), stat.source, kTagBuddyRepl, world,
                             &stat) != ftmpi::kSuccess) {
      break;
    }
    auto msg = unpack_replica(buf.data(), buf.size());
    if (!msg.has_value()) {
      FTR_WARN("buddy: dropping replica that failed CRC/format validation");
      continue;
    }
    store.put(ftmpi::self_pid(), msg->grid, msg->grank, msg->step, std::move(msg->data),
              msg->crc);
    ++drained;
  }
  return drained;
}

}  // namespace ftr::rec
