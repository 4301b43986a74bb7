#pragma once
// Block domain decomposition of one sub-grid across its process group.
//
// Each sub-grid (level pair) is solved by a px-by-py process grid; every
// rank owns a contiguous block of the 2^lx x 2^ly *unique* points of the
// periodic domain (the duplicate last row/column is reconstructed only when
// gathering the full grid).  Rank r has Cartesian coordinates
// (r % px, r / px).

#include <cstddef>
#include <new>
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

/// Allocator of 64-byte-aligned storage, so that LocalField rows start on
/// a cache line in every copy of a field, not only in the first.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept { ::operator delete(p, n * sizeof(T), kAlign); }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) = default;
};

/// Rank-local storage for a block with a one-point halo ring.  Local
/// indices run -1 .. width / -1 .. height.  Every interior row starts on a
/// 64-byte boundary, so a vector load or store of up to 8 doubles at a
/// multiple of 8 from the row start never splits a cache line: the row
/// stride is width + 2 rounded up to a multiple of 8 doubles, each row's
/// west halo cell sits in the slot just before its boundary, and the slots
/// between a row's east halo cell and the next row's west halo cell are
/// padding that nothing reads.
class LocalField {
 public:
  /// Doubles per cache line, the alignment of every interior row.
  static constexpr int kRowAlign = 8;
  using Storage = std::vector<double, CacheLineAllocator<double>>;

  LocalField() = default;
  explicit LocalField(Block b)
      : block_(b),
        stride_((b.width() + 2 + kRowAlign - 1) / kRowAlign * kRowAlign),
        data_(static_cast<size_t>(stride_) * static_cast<size_t>(b.height() + 2) + kRowAlign,
              0.0) {}

  [[nodiscard]] const Block& block() const { return block_; }

  // Storage row ly + 1 holds local row ly; its interior starts at kRowAlign.
  [[nodiscard]] double& at(int lx, int ly) {
    return data_[static_cast<size_t>(ly + 1) * static_cast<size_t>(stride_) +
                 static_cast<size_t>(lx + kRowAlign)];
  }
  [[nodiscard]] const double& at(int lx, int ly) const {
    return data_[static_cast<size_t>(ly + 1) * static_cast<size_t>(stride_) +
                 static_cast<size_t>(lx + kRowAlign)];
  }

  /// All storage: interior, halo ring and padding.
  [[nodiscard]] Storage& raw() { return data_; }
  [[nodiscard]] const Storage& raw() const { return data_; }
  [[nodiscard]] std::size_t interior_bytes() const {
    return static_cast<size_t>(block_.cells()) * sizeof(double);
  }

  /// Copy the owned interior out of / into a full grid (unique points).
  void load_from(const Grid2D& full);
  void store_to(Grid2D& full) const;
  /// Copy the owned interior to / from a flat row-major vector of
  /// block().cells() values (checkpoints).
  [[nodiscard]] std::vector<double> pack_interior() const;
  void unpack_interior(const std::vector<double>& v);

  /// Message payloads.  append_interior appends the interior, row-major, as
  /// interior_bytes() raw bytes to `out` (replicas, gathers: the caller
  /// reserves, so nothing is zero-filled); unpack_interior overwrites the
  /// interior from interior_bytes() such bytes.
  void append_interior(std::vector<std::byte>& out) const;
  void unpack_interior(const std::byte* bytes);

  /// Halo payloads.  pack_column_bytes / pack_row_bytes size `out` to one
  /// edge of the interior (column lx: height() doubles, row ly: width()) and
  /// copy the edge into it; sizing a payload that already has the edge's
  /// capacity allocates nothing.  fill_halo_column / fill_halo_row copy a
  /// payload of at most one edge into halo column lx / row ly; a shorter one
  /// fills a prefix.
  void pack_column_bytes(int lx, std::vector<std::byte>& out) const;
  void pack_row_bytes(int ly, std::vector<std::byte>& out) const;
  void fill_halo_column(int lx, const std::vector<std::byte>& in);
  void fill_halo_row(int ly, const std::vector<std::byte>& in);

  /// Periodic wrap within a block that spans its axis: copy the east edge to
  /// the west halo column and the west edge to the east one (wrap_x), and
  /// likewise north/south rows (wrap_y).
  void wrap_x();
  void wrap_y();

  /// The halo exchange's message payloads, one pair per axis: [0] carries
  /// the west/south edge out, [1] the east/north edge.  A sent payload moves
  /// into its message, and the payloads received in return take its place,
  /// so in steady state the exchange allocates nothing.
  struct HaloPayloads {
    std::vector<std::byte> x[2];
    std::vector<std::byte> y[2];
  };
  [[nodiscard]] HaloPayloads& halo_payloads() { return halo_; }

 private:
  Block block_{};
  int stride_ = 0;
  Storage data_;
  HaloPayloads halo_;
};

}  // namespace ftr::grid
