#include "recovery/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "ftmpi/api.hpp"

namespace ftr::rec {

namespace {

// On-disk snapshot layout: header, payload, trailing CRC-32 over
// (step, count, payload).  The magic/version pair rejects files from
// foreign or torn writes outright; the CRC catches bit flips and
// truncations that keep the header intact.
constexpr std::uint32_t kMagic = 0x4654434Bu;  // "FTCK"
constexpr std::uint32_t kVersion = 2;
// magic 4 + version 4 + step 8 + count 8; the payload starts here.
constexpr std::uint64_t kHeaderBytes = 24;
constexpr std::uint64_t kFramingBytes = kHeaderBytes + sizeof(std::uint32_t);

}  // namespace

long CheckpointPolicy::count(double app_time, double t_io, long max_count) const {
  double c = 1.0;
  switch (kind) {
    case Kind::PaperEq2: {
      // Paper Eq. 2: C = T / T_IO with T = MTBF = half the run time.
      const double mtbf = app_time / 2.0;
      c = mtbf / std::max(t_io, 1e-12);
      break;
    }
    case Kind::Young: {
      // Young's interval: tau = sqrt(2 * MTBF * T_IO)  =>  C = app_time / tau.
      const double mtbf = app_time / 2.0;
      const double tau = std::sqrt(2.0 * mtbf * std::max(t_io, 1e-12));
      c = app_time / std::max(tau, 1e-12);
      break;
    }
  }
  return std::clamp(static_cast<long>(std::floor(c)), 1L, max_count);
}

CheckpointStore::CheckpointStore() = default;

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

CheckpointStore::~CheckpointStore() {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::string CheckpointStore::path_for(int grid_id, int rank) const {
  return dir_ + "/grid" + std::to_string(grid_id) + "_rank" + std::to_string(rank) + ".ckpt";
}

std::string CheckpointStore::prev_path_for(int grid_id, int rank) const {
  return path_for(grid_id, rank) + ".prev";
}

std::string CheckpointStore::latest_path(int grid_id, int rank) const {
  return path_for(grid_id, rank);
}

std::uint32_t snapshot_crc(long step, const std::vector<double>& data) {
  return snapshot_crc(step, reinterpret_cast<const std::byte*>(data.data()), data.size());
}

std::uint32_t snapshot_crc(long step, const std::byte* payload, std::size_t count) {
  const std::uint64_t n = count;
  std::uint32_t c = crc32(&step, sizeof(step));
  c = crc32(&n, sizeof(n), c);
  return crc32(payload, n * sizeof(double), c);
}

void CheckpointStore::write(int grid_id, int rank, long step, std::vector<double> data) {
  // A chaos schedule may kill the writer here — "during a checkpoint
  // write".  Firing before any mutation means the previous snapshot stays
  // intact, which together with write-to-temp-then-rename is the whole
  // torn-write story.
  ftmpi::chaos_point("ckpt.write");
  // Charge the virtual I/O cost to the calling simulated process first;
  // this is the paper's T_IO per checkpoint write.
  ftmpi::charge_disk_write(data.size() * sizeof(double));
  const std::uint32_t crc = snapshot_crc(step, data);
  std::lock_guard<std::mutex> lock(mu_);
  ++writes_;
  if (dir_.empty()) {
    const std::pair<int, int> key{grid_id, rank};
    const auto it = mem_.find(key);
    if (it != mem_.end()) mem_prev_[key] = std::move(it->second);
    mem_[key] = StoredSnapshot{step, std::move(data), crc};
    return;
  }
  const std::string path = path_for(grid_id, rank);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    const std::uint64_t n = data.size();
    f.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    f.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
    f.write(reinterpret_cast<const char*>(&step), sizeof(step));
    f.write(reinterpret_cast<const char*>(&n), sizeof(n));
    f.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!f) {
      FTR_ERROR("checkpoint write failed: %s", tmp.c_str());
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  // Rotate the generations: current -> .prev, temp -> current.  Both are
  // renames, so a crash never leaves a half-written current snapshot.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, prev_path_for(grid_id, rank), ec);
    if (ec) FTR_WARN("checkpoint: generation rotation failed: %s", ec.message().c_str());
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    FTR_ERROR("checkpoint rename failed: %s", ec.message().c_str());
    return;
  }
  steps_[{grid_id, rank}] = step;
}

std::optional<CheckpointStore::Snapshot> CheckpointStore::load_file(const std::string& path,
                                                                    int* corrupt_counter) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::uint32_t magic = 0, version = 0;
  std::uint64_t n = 0;
  Snapshot snap;
  f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  f.read(reinterpret_cast<char*>(&version), sizeof(version));
  f.read(reinterpret_cast<char*>(&snap.step), sizeof(snap.step));
  f.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!f || magic != kMagic || version != kVersion) {
    if (f || magic != 0 || n != 0) ++*corrupt_counter;
    return std::nullopt;
  }
  // The count must describe exactly the payload present.  Bound it by the
  // file size before multiplying: a flipped high bit of a corrupt count
  // would otherwise wrap n * 8 back to the true size and reach resize().
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  if (ec || file_size < kFramingBytes || n > (file_size - kFramingBytes) / sizeof(double) ||
      n * sizeof(double) + kFramingBytes != file_size) {
    ++*corrupt_counter;
    return std::nullopt;
  }
  snap.data.resize(n);
  std::uint32_t stored_crc = 0;
  f.read(reinterpret_cast<char*>(snap.data.data()),
         static_cast<std::streamsize>(n * sizeof(double)));
  f.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  if (!f || stored_crc != snapshot_crc(snap.step, snap.data)) {
    ++*corrupt_counter;
    return std::nullopt;
  }
  return snap;
}

std::optional<CheckpointStore::Snapshot> CheckpointStore::read_latest(int grid_id, int rank) {
  std::unique_lock<std::mutex> lock(mu_);
  if (dir_.empty()) {
    const std::pair<int, int> key{grid_id, rank};
    for (auto* gen : {&mem_, &mem_prev_}) {
      const auto it = gen->find(key);
      if (it == gen->end()) continue;
      if (it->second.crc != snapshot_crc(it->second.step, it->second.data)) {
        ++corrupt_detected_;
        FTR_WARN("checkpoint: corrupt in-memory snapshot grid %d rank %d; falling back",
                 grid_id, rank);
        continue;
      }
      if (gen == &mem_prev_) ++fallback_reads_;
      Snapshot snap{it->second.step, it->second.data};
      lock.unlock();
      ftmpi::charge_disk_read(snap.data.size() * sizeof(double));
      return snap;
    }
    return std::nullopt;
  }
  if (steps_.find({grid_id, rank}) == steps_.end()) return std::nullopt;
  int corrupt = 0;
  bool fell_back = false;
  std::optional<Snapshot> snap = load_file(path_for(grid_id, rank), &corrupt);
  if (!snap.has_value()) {
    FTR_WARN("checkpoint: invalid snapshot %s; trying previous generation",
             path_for(grid_id, rank).c_str());
    snap = load_file(prev_path_for(grid_id, rank), &corrupt);
    fell_back = snap.has_value();
  }
  corrupt_detected_ += corrupt;
  if (fell_back) ++fallback_reads_;
  if (!snap.has_value()) return std::nullopt;
  lock.unlock();
  ftmpi::charge_disk_read(snap->data.size() * sizeof(double));
  return snap;
}

std::optional<CheckpointStore::Snapshot> CheckpointStore::read_at(int grid_id, int rank,
                                                                  long step) {
  std::unique_lock<std::mutex> lock(mu_);
  if (dir_.empty()) {
    const std::pair<int, int> key{grid_id, rank};
    for (auto* gen : {&mem_, &mem_prev_}) {
      const auto it = gen->find(key);
      if (it == gen->end() || it->second.step != step) continue;
      if (it->second.crc != snapshot_crc(it->second.step, it->second.data)) {
        ++corrupt_detected_;
        continue;
      }
      Snapshot snap{it->second.step, it->second.data};
      lock.unlock();
      ftmpi::charge_disk_read(snap.data.size() * sizeof(double));
      return snap;
    }
    return std::nullopt;
  }
  int corrupt = 0;
  for (const std::string& path : {path_for(grid_id, rank), prev_path_for(grid_id, rank)}) {
    std::optional<Snapshot> snap = load_file(path, &corrupt);
    if (snap.has_value() && snap->step == step) {
      corrupt_detected_ += corrupt;
      lock.unlock();
      ftmpi::charge_disk_read(snap->data.size() * sizeof(double));
      return snap;
    }
  }
  corrupt_detected_ += corrupt;
  return std::nullopt;
}

void CheckpointStore::corrupt_latest(int grid_id, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    const auto it = mem_.find({grid_id, rank});
    if (it == mem_.end()) return;
    if (it->second.data.empty()) {
      it->second.crc ^= 0xDEADBEEFu;
    } else {
      it->second.data[it->second.data.size() / 2] += 1.0e6;
    }
    return;
  }
  const std::string path = path_for(grid_id, rank);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return;
  // Flip the first payload byte (the CRC's first byte when the payload is
  // empty): the header stays valid, so only the CRC check can reject it.
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(kHeaderBytes));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(kHeaderBytes));
  f.write(&byte, 1);
}

long CheckpointStore::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

long CheckpointStore::corrupt_detected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_detected_;
}

long CheckpointStore::fallback_reads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_reads_;
}

}  // namespace ftr::rec
