#pragma once
// Block domain decomposition of one sub-grid across its process group.
//
// Each sub-grid (level pair) is solved by a px-by-py process grid; every
// rank owns a contiguous block of the 2^lx x 2^ly *unique* points of the
// periodic domain (the duplicate last row/column is reconstructed only when
// gathering the full grid).  Rank r has Cartesian coordinates
// (r % px, r / px).

#include <utility>
#include <vector>

#include "grid/grid2d.hpp"

namespace ftr::grid {

/// Near-square factorization px * py = nprocs with px >= py and px as close
/// to sqrt(nprocs) as possible, biased so the x dimension (typically finer)
/// gets more processes.
std::pair<int, int> near_square_factors(int nprocs);

/// Owned index ranges of one rank: x in [x0, x1), y in [y0, y1) over the
/// unique points.
struct Block {
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  [[nodiscard]] int width() const { return x1 - x0; }
  [[nodiscard]] int height() const { return y1 - y0; }
  [[nodiscard]] long cells() const { return static_cast<long>(width()) * height(); }
  friend bool operator==(const Block&, const Block&) = default;
};

class Decomposition {
 public:
  Decomposition() = default;
  /// Decompose the unique points of `level` over a px-by-py process grid.
  Decomposition(Level level, int px, int py);
  /// Near-square convenience constructor.
  Decomposition(Level level, int nprocs);

  [[nodiscard]] Level level() const { return level_; }
  [[nodiscard]] int px() const { return px_; }
  [[nodiscard]] int py() const { return py_; }
  [[nodiscard]] int nprocs() const { return px_ * py_; }
  [[nodiscard]] int unique_nx() const { return 1 << level_.x; }
  [[nodiscard]] int unique_ny() const { return 1 << level_.y; }

  [[nodiscard]] std::pair<int, int> coords(int rank) const {
    return {rank % px_, rank / px_};
  }
  [[nodiscard]] int rank_at(int cx, int cy) const {
    return ((cy + py_) % py_) * px_ + (cx + px_) % px_;
  }
  [[nodiscard]] Block block(int rank) const;

  /// Periodic neighbors of `rank`.
  [[nodiscard]] int west(int rank) const;
  [[nodiscard]] int east(int rank) const;
  [[nodiscard]] int south(int rank) const;
  [[nodiscard]] int north(int rank) const;

 private:
  [[nodiscard]] static std::pair<int, int> split_range(int n, int parts, int idx);
  Level level_{};
  int px_ = 1;
  int py_ = 1;
};

/// Rank-local storage for a block: (width+2) x (height+2) doubles with a
/// one-point halo ring.  Local indices run -1 .. width / -1 .. height.
class LocalField {
 public:
  LocalField() = default;
  explicit LocalField(Block b)
      : block_(b),
        stride_(b.width() + 2),
        data_(static_cast<size_t>(b.width() + 2) * static_cast<size_t>(b.height() + 2), 0.0) {}

  [[nodiscard]] const Block& block() const { return block_; }

  [[nodiscard]] double& at(int lx, int ly) {
    return data_[static_cast<size_t>(ly + 1) * static_cast<size_t>(stride_) +
                 static_cast<size_t>(lx + 1)];
  }
  [[nodiscard]] double at(int lx, int ly) const {
    return data_[static_cast<size_t>(ly + 1) * static_cast<size_t>(stride_) +
                 static_cast<size_t>(lx + 1)];
  }

  [[nodiscard]] std::vector<double>& raw() { return data_; }
  [[nodiscard]] const std::vector<double>& raw() const { return data_; }
  [[nodiscard]] std::size_t interior_bytes() const {
    return static_cast<size_t>(block_.cells()) * sizeof(double);
  }

  /// Copy the owned interior out of / into a full grid (unique points).
  void load_from(const Grid2D& full);
  void store_to(Grid2D& full) const;
  /// Copy the owned interior to / from a flat row-major vector of
  /// block().cells() values (checkpoints, replicas, gathers).
  [[nodiscard]] std::vector<double> pack_interior() const;
  void unpack_interior(const std::vector<double>& v);

  /// Pack/unpack one edge of the interior (for halo exchange).  The
  /// allocating pack_column/pack_row remain for one-off callers; the per-step
  /// paths use the *_into forms with the field's persistent HaloScratch.
  [[nodiscard]] std::vector<double> pack_column(int lx) const;
  [[nodiscard]] std::vector<double> pack_row(int ly) const;
  void pack_column_into(int lx, std::vector<double>& v) const;
  void pack_row_into(int ly, std::vector<double>& v) const;
  void unpack_halo_column(int lx, const std::vector<double>& v);
  void unpack_halo_row(int ly, const std::vector<double>& v);

  /// Persistent pack/recv buffers owned by the field so the per-step halo
  /// exchange (and the serial periodic wrap) stops allocating.  Buffers are
  /// resized on first use per direction and reused for the field's lifetime.
  struct HaloScratch {
    std::vector<double> send[2];  ///< west/south edge, east/north edge
    std::vector<double> recv[2];  ///< from west/south, from east/north
  };
  [[nodiscard]] HaloScratch& halo_scratch() { return halo_; }

 private:
  Block block_{};
  int stride_ = 0;
  std::vector<double> data_;
  HaloScratch halo_;
};

}  // namespace ftr::grid
