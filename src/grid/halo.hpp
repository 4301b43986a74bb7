#pragma once
// Halo exchange between the blocks of one sub-grid's process group.
//
// The Lax-Wendroff sweeps need one ghost point in the sweep direction;
// exchange_x fills the west/east halo columns and exchange_y the
// south/north halo rows, with periodic wrap.  Self-neighboring directions
// (a single process column/row) wrap locally without messages.
//
// All sends are eager (the ftmpi runtime buffers them), so the symmetric
// send-then-receive pattern cannot deadlock.  Every edge travels as its own
// payload, packed straight from the field and moved into its message; the
// payloads received in return carry the next exchange's edges (see
// LocalField::HaloPayloads), so a steady-state exchange allocates nothing.
//
// gather_blocks / scatter_blocks move whole blocks between the group and
// one full grid at rank 0 the same way: one payload per block, packed from
// its source and copied into its destination.

#include "ftmpi/api.hpp"
#include "common/annotations.hpp"
#include "grid/decomposition.hpp"

namespace ftr::grid {

/// Fill the west (-1) and east (width) halo columns.  Returns the first
/// ftmpi error code encountered (failures surface here during a real
/// process-failure run).
FTR_NODISCARD int exchange_x(LocalField& f, const Decomposition& d, const ftmpi::Comm& comm);

/// Fill the south (-1) and north (height) halo rows.
FTR_NODISCARD int exchange_y(LocalField& f, const Decomposition& d, const ftmpi::Comm& comm);

/// Gather every rank's block into the full grid at rank 0, duplicate
/// periodic points included; elsewhere *out (when given) becomes empty.
FTR_NODISCARD int gather_blocks(const LocalField& f, const Decomposition& d,
                                const ftmpi::Comm& comm, int tag, Grid2D* out);

/// Scatter rank 0's full grid into every rank's block (`full_at_root` is
/// read at rank 0 only).
FTR_NODISCARD int scatter_blocks(LocalField& f, const Decomposition& d, const ftmpi::Comm& comm,
                                 int tag, const Grid2D& full_at_root);

}  // namespace ftr::grid
