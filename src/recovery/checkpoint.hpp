#pragma once
// Checkpoint/Restart (CR) recovery [paper Sec. II-D].
//
// Every process of every sub-grid group periodically writes its block to
// disk; after a failure the affected sub-grid restarts from the most recent
// checkpoint and recomputes the timesteps taken since.  The store keeps the
// bytes in real files (or in memory for fast tests) while the *cost* of each
// write/read is charged to the calling process's virtual clock with the
// cluster profile's T_IO — that is how the paper's OPL (T_IO = 3.52 s) vs
// Raijin (T_IO = 0.03 s) comparison is reproduced.
//
// Integrity: every snapshot carries a CRC-32 over its header and payload.
// The file backend writes to a temp file and renames it into place (atomic
// on POSIX), keeping the superseded snapshot as a `.prev` generation.  A
// torn or corrupted snapshot is detected by magic/size/checksum validation;
// read_latest() then falls back to the previous generation, and to "no
// checkpoint" (full recompute from the initial condition) when both are
// bad.  Writes fire the "ckpt.write" chaos point, so chaos schedules can
// kill a process mid-checkpoint.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace ftr::rec {

/// Checkpoint count policy.  The paper's Eq. 2 sets the number of
/// checkpoints C = T / T_IO with T the MTBF (half the application run time
/// in their setup).  Young's classical interval is provided as an
/// alternative (see DESIGN.md, "Known deviations").
struct CheckpointPolicy {
  enum class Kind { PaperEq2, Young };
  Kind kind = Kind::PaperEq2;

  /// Number of checkpoints to take over a run of `app_time` virtual seconds
  /// given the single-write time t_io.  At least 1, at most `max_count`.
  [[nodiscard]] long count(double app_time, double t_io, long max_count = 1024) const;
};

/// CRC-32 over (step, element count, payload): the integrity checksum of
/// every stored snapshot, disk checkpoints and buddy replicas alike, and of
/// the replica wire format.
std::uint32_t snapshot_crc(long step, const std::vector<double>& data);
/// The same CRC over `count` doubles stored as raw bytes at `payload`.
std::uint32_t snapshot_crc(long step, const std::byte* payload, std::size_t count);

/// Thread-safe checkpoint store shared by all simulated processes of a
/// Runtime.  Keyed by (grid id, group rank); each write supersedes the
/// previous checkpoint of that key but the superseded snapshot is retained
/// as a fallback generation (the paper restarts from the most recent one;
/// we fall back to the previous one when the most recent is corrupt).
class CheckpointStore {
 public:
  /// In-memory store (used by tests and benches; I/O costs are still
  /// charged to virtual time by the callers below).
  CheckpointStore();
  /// File-backed store rooted at `dir` (created if missing).
  explicit CheckpointStore(std::string dir);
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Write a checkpoint of `data` taken at `step`.  Must be called from a
  /// rank: charges one disk write to the caller's virtual clock and
  /// fires the "ckpt.write" chaos point before touching any state, so an
  /// injected mid-write death leaves the previous snapshot intact.  The
  /// memory backend keeps `data` itself, so pass a temporary or move.
  void write(int grid_id, int rank, long step, std::vector<double> data);

  /// Read the most recent *valid* checkpoint, charging one disk read.
  /// A corrupt newest generation falls back to the previous one; returns
  /// nullopt when no valid snapshot exists (callers recompute from the
  /// initial condition).
  struct Snapshot {
    long step = 0;
    std::vector<double> data;
  };
  [[nodiscard]] std::optional<Snapshot> read_latest(int grid_id, int rank);

  /// Read the stored generation taken exactly at `step` (newest or
  /// previous), or nullopt when neither generation matches and validates.
  /// Used for group-consistent rollback: a member that died mid-write (or
  /// whose newest snapshot is corrupt) only has an older generation, so its
  /// group agrees on the minimum available step and everyone restores that
  /// one.
  [[nodiscard]] std::optional<Snapshot> read_at(int grid_id, int rank, long step);

  [[nodiscard]] long writes() const;
  /// Number of snapshots that failed integrity validation during reads.
  [[nodiscard]] long corrupt_detected() const;
  /// Number of reads that were served by the previous generation after the
  /// newest one failed validation.
  [[nodiscard]] long fallback_reads() const;
  [[nodiscard]] bool file_backed() const { return !dir_.empty(); }

  /// Path of the newest on-disk generation for (grid, rank) — file backend
  /// only; used by integrity tests to corrupt or truncate a snapshot.
  [[nodiscard]] std::string latest_path(int grid_id, int rank) const;

  /// Deliberately corrupt the newest stored snapshot (both backends), for
  /// tests and chaos drills: flips payload bytes so CRC validation fails.
  void corrupt_latest(int grid_id, int rank);

 private:
  struct StoredSnapshot {
    long step = 0;
    std::vector<double> data;
    std::uint32_t crc = 0;
  };

  [[nodiscard]] std::string path_for(int grid_id, int rank) const;
  [[nodiscard]] std::string prev_path_for(int grid_id, int rank) const;
  /// Read + validate one on-disk generation; nullopt on any mismatch.
  std::optional<Snapshot> load_file(const std::string& path, int* corrupt_counter);

  std::string dir_;  // empty = memory backend
  mutable std::mutex mu_;
  std::map<std::pair<int, int>, StoredSnapshot> mem_;       // newest generation
  std::map<std::pair<int, int>, StoredSnapshot> mem_prev_;  // previous generation
  std::map<std::pair<int, int>, long> steps_;  // keys present in the file backend
  long writes_ = 0;
  long corrupt_detected_ = 0;
  long fallback_reads_ = 0;
};

}  // namespace ftr::rec
