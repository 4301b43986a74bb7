#include "grid/halo.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ftr::grid {

namespace {
// Distinct user tags per direction keep concurrent exchanges unambiguous.
constexpr int kTagWest = 101;   // data travelling westwards (to the west neighbor)
constexpr int kTagEast = 102;   // data travelling eastwards
constexpr int kTagSouth = 103;
constexpr int kTagNorth = 104;

/// One axis of the exchange.  Both edges go out first, each payload moved
/// into its message; then the payload from the high neighbor and the one
/// from the low neighbor are received, in that order, into the two slots
/// the sends emptied, where they wait to carry the next exchange's edges.
/// Both receives run even when the first fails, as a waitall over the two
/// would, and the first error is returned.  A payload longer than its edge
/// is kErrArg, reported through the communicator's error handler.
template <class Pack, class Fill>
int exchange_axis(std::vector<std::byte> (&payload)[2], std::size_t edge_bytes, int low,
                  int high, int tag_low, int tag_high, const ftmpi::Comm& comm, Pack pack,
                  Fill fill) {
  pack(0, payload[0]);
  pack(1, payload[1]);
  int rc = ftmpi::send_bytes(std::move(payload[0]), low, tag_low, comm);
  if (rc != ftmpi::kSuccess) return rc;
  rc = ftmpi::send_bytes(std::move(payload[1]), high, tag_high, comm);
  if (rc != ftmpi::kSuccess) return rc;

  const auto receive = [&](std::vector<std::byte>& into, int src, int tag) {
    const int r = ftmpi::recv_bytes(&into, src, tag, comm);
    if (r != ftmpi::kSuccess) return r;
    return into.size() > edge_bytes ? ftmpi::finish(comm, ftmpi::kErrArg) : ftmpi::kSuccess;
  };
  const int from_high = receive(payload[1], high, tag_low);
  const int from_low = receive(payload[0], low, tag_high);
  rc = from_high != ftmpi::kSuccess ? from_high : from_low;
  if (rc != ftmpi::kSuccess) return rc;
  fill(1, payload[1]);
  fill(0, payload[0]);
  return ftmpi::kSuccess;
}

}  // namespace

int exchange_x(LocalField& f, const Decomposition& d, const ftmpi::Comm& comm) {
  const Block& b = f.block();
  if (d.px() == 1) {
    f.wrap_x();  // periodic wrap within the single owner of every column
    return ftmpi::kSuccess;
  }
  const int rank = comm.rank();
  const int w = b.width();
  return exchange_axis(
      f.halo_payloads().x, static_cast<std::size_t>(b.height()) * sizeof(double),
      d.west(rank), d.east(rank), kTagWest, kTagEast, comm,
      [&](int side, std::vector<std::byte>& out) { f.pack_column_bytes(side == 0 ? 0 : w - 1, out); },
      [&](int side, const std::vector<std::byte>& in) { f.fill_halo_column(side == 0 ? -1 : w, in); });
}

int exchange_y(LocalField& f, const Decomposition& d, const ftmpi::Comm& comm) {
  const Block& b = f.block();
  if (d.py() == 1) {
    f.wrap_y();
    return ftmpi::kSuccess;
  }
  const int rank = comm.rank();
  const int h = b.height();
  return exchange_axis(
      f.halo_payloads().y, static_cast<std::size_t>(b.width()) * sizeof(double),
      d.south(rank), d.north(rank), kTagSouth, kTagNorth, comm,
      [&](int side, std::vector<std::byte>& out) { f.pack_row_bytes(side == 0 ? 0 : h - 1, out); },
      [&](int side, const std::vector<std::byte>& in) { f.fill_halo_row(side == 0 ? -1 : h, in); });
}

int gather_blocks(const LocalField& f, const Decomposition& d, const ftmpi::Comm& comm, int tag,
                  Grid2D* out) {
  if (comm.rank() != 0) {
    if (out != nullptr) *out = Grid2D{};
    std::vector<std::byte> payload;
    payload.reserve(f.interior_bytes());
    f.append_interior(payload);
    return ftmpi::send_bytes(std::move(payload), 0, tag, comm);
  }
  *out = Grid2D(d.level());
  f.store_to(*out);  // own block first
  std::vector<std::byte> payload;
  for (int r = 1; r < comm.size(); ++r) {
    const Block b = d.block(r);
    const int rc = ftmpi::recv_bytes(&payload, r, tag, comm);
    if (rc != ftmpi::kSuccess) return rc;
    const std::size_t row = static_cast<std::size_t>(b.width()) * sizeof(double);
    if (payload.size() > row * static_cast<std::size_t>(b.height())) {
      return ftmpi::finish(comm, ftmpi::kErrArg);
    }
    // A shorter payload fills a prefix of the block; the rest stays zero.
    for (std::size_t at = 0, ly = 0; at < payload.size(); at += row, ++ly) {
      std::memcpy(&out->at(b.x0, b.y0 + static_cast<int>(ly)), payload.data() + at,
                  std::min(row, payload.size() - at));
    }
  }
  out->enforce_periodicity();
  return ftmpi::kSuccess;
}

int scatter_blocks(LocalField& f, const Decomposition& d, const ftmpi::Comm& comm, int tag,
                   const Grid2D& full_at_root) {
  if (comm.rank() == 0) {
    const double* grid = full_at_root.data().data();
    const auto nx = static_cast<std::size_t>(full_at_root.nx());
    for (int r = 1; r < comm.size(); ++r) {
      const Block b = d.block(r);
      const std::size_t row = static_cast<std::size_t>(b.width()) * sizeof(double);
      std::vector<std::byte> payload;
      payload.reserve(row * static_cast<std::size_t>(b.height()));
      for (int y = b.y0; y < b.y1; ++y) {
        const auto* src = reinterpret_cast<const std::byte*>(
            grid + static_cast<std::size_t>(y) * nx + static_cast<std::size_t>(b.x0));
        payload.insert(payload.end(), src, src + row);
      }
      const int rc = ftmpi::send_bytes(std::move(payload), r, tag, comm);
      if (rc != ftmpi::kSuccess) return rc;
    }
    f.load_from(full_at_root);
    return ftmpi::kSuccess;
  }
  std::vector<std::byte> payload;
  const int rc = ftmpi::recv_bytes(&payload, 0, tag, comm);
  if (rc != ftmpi::kSuccess) return rc;
  if (payload.size() > f.interior_bytes()) return ftmpi::finish(comm, ftmpi::kErrArg);
  payload.resize(f.interior_bytes());  // a shorter payload leaves the rest zero
  f.unpack_interior(payload.data());
  return ftmpi::kSuccess;
}

}  // namespace ftr::grid
