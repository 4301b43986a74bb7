#pragma once
// Public API of the simulated fault-tolerant MPI runtime.
//
// The surface mirrors the MPI-2 subset plus the draft ULFM extensions used
// by the paper's recovery protocol:
//
//   MPI                      ftmpi
//   ----------------------   ------------------------------------------
//   MPI_Comm_rank/size       Comm::rank()/size(), or compat wrappers
//   MPI_Send/Recv            send()/recv()
//   MPI_Barrier/Bcast/...    barrier()/bcast()/allreduce()/gather()/...
//   MPI_Comm_split/dup       comm_split()/comm_dup()
//   MPI_Comm_spawn_multiple  comm_spawn_multiple()
//   MPI_Intercomm_merge      intercomm_merge()
//   MPI_Comm_get_parent      get_parent()
//   OMPI_Comm_revoke         comm_revoke()
//   OMPI_Comm_shrink         comm_shrink()
//   OMPI_Comm_agree          comm_agree()
//   OMPI_Comm_failure_ack    comm_failure_ack()
//   OMPI_Comm_failure_get_acked  comm_failure_get_acked()
//   MPI_Wtime                wtime()  (virtual time; see cost_model.hpp)
//
// All functions must be called from a rank thread (inside Runtime::run).
// Error handling follows ULFM practice: calls return an error code; if an
// error handler has been attached to the communicator it is invoked first.

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "ftmpi/comm.hpp"
#include "common/annotations.hpp"
#include "ftmpi/runtime.hpp"
#include "ftmpi/types.hpp"

namespace ftmpi {

// --- environment ------------------------------------------------------------

/// This process's MPI_COMM_WORLD handle (cached: error handlers attached to
/// it persist).  For spawned processes this is the world of their spawn
/// group, as in MPI.
Comm& world();

/// The intercommunicator to the spawner, or a null Comm for initial
/// processes (MPI_Comm_get_parent).
Comm& get_parent();

/// Overwrite the cached parent handle (the paper's protocol sets
/// parent = MPI_COMM_NULL when a repaired child becomes a regular parent).
void set_parent(const Comm& parent);

/// Virtual time of the calling process (MPI_Wtime).
double wtime();

/// Charge `seconds` of modeled compute time to the calling process.
void advance(double seconds);

/// Charge `flops / flops_rate` seconds of modeled compute time.
void charge_flops(double flops);

/// Charge one simulated disk write/read of `bytes` (checkpointing I/O).
void charge_disk_write(std::size_t bytes);
void charge_disk_read(std::size_t bytes);

/// Self-kill, equivalent to the paper's kill(getpid(), SIGKILL) failure
/// injection.  Marks the process dead and unwinds immediately; never returns.
[[noreturn]] void abort_self();

/// Pid of the calling process (for Runtime::kill from harness code).
ProcId self_pid();

/// The Runtime the calling rank thread belongs to.
Runtime& runtime();

/// Named protocol phase boundary for chaos injection.  Invokes the
/// Runtime's chaos hook (if any) with the phase name and the calling pid,
/// then re-checks liveness so a hook that kills the caller unwinds it right
/// at the boundary.  No-op off rank threads and when no hook is installed.
/// Phases fired by the runtime: "shrink", "agree", "agree.tree", "spawn",
/// "spawn.done", "merge", "split"; the failure detector fires
/// "detector.heartbeat" before each ring heartbeat and "detector.gossip"
/// before each gossip fan-out; the checkpoint store fires "ckpt.write"; the
/// diskless buddy subsystem fires "buddy.send" before each replication send.
void chaos_point(const char* phase);

// --- failure detector -------------------------------------------------------
// The heartbeat-ring/gossip failure detector (detector.hpp) gives every rank
// always-on failure knowledge.  Its rank-callable surface — detector_enabled,
// detector_epoch, detector_known_failed, detector_records and
// detector_knows_failure_in — is declared in detector.hpp (included via
// runtime.hpp).  Knobs: Runtime::Options::detector (virtual seconds).

// --- error handling -----------------------------------------------------------

/// Attach an error handler (MPI_Comm_set_errhandler with a user handler
/// created by MPI_Comm_create_errhandler).  Pass an empty function for
/// MPI_ERRORS_RETURN (the default).
FTR_NODISCARD int comm_set_errhandler(const Comm& c, ErrhandlerFn handler);

/// Invoke the communicator's error handler for `code` (when != success) and
/// return `code`.  Exposed for protocol code built on top of the raw byte
/// primitives.
FTR_NODISCARD int finish(const Comm& c, int code);

// --- point-to-point -----------------------------------------------------------

FTR_NODISCARD int send_bytes(const void* data, std::size_t n, int dest, int tag, const Comm& c);
FTR_NODISCARD int recv_bytes(void* buf, std::size_t max_bytes, int src, int tag, const Comm& c,
               Status* status = nullptr);

template <class T>
FTR_NODISCARD int send(const T* buf, int count, int dest, int tag, const Comm& c) {
  static_assert(std::is_trivially_copyable_v<T>);
  return send_bytes(buf, sizeof(T) * static_cast<std::size_t>(count), dest, tag, c);
}

template <class T>
FTR_NODISCARD int recv(T* buf, int count, int src, int tag, const Comm& c, Status* status = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  return recv_bytes(buf, sizeof(T) * static_cast<std::size_t>(count), src, tag, c, status);
}

// --- nonblocking point-to-point / probe ------------------------------------------
// Sends are eager, so isend completes immediately; irecv defers matching to
// wait/test (same virtual-time outcome as a progressing receive — see
// request.hpp).

class Request;

FTR_NODISCARD int isend_bytes(const void* data, std::size_t n, int dest, int tag, const Comm& c,
                Request* req);
FTR_NODISCARD int irecv_bytes(void* buf, std::size_t max_bytes, int src, int tag, const Comm& c,
                Request* req);
/// Complete a request (blocking for receives).
FTR_NODISCARD int wait(Request* req, Status* status = nullptr);
FTR_NODISCARD int waitall(Request* reqs, int count, Status* statuses = nullptr);
/// Nonblocking completion check; *flag = 1 when the request completed.
FTR_NODISCARD int test(Request* req, int* flag, Status* status = nullptr);

/// Nonblocking / blocking message probe (MPI_Iprobe / MPI_Probe).
FTR_NODISCARD int iprobe(int src, int tag, const Comm& c, int* flag, Status* status = nullptr);
FTR_NODISCARD int probe(int src, int tag, const Comm& c, Status* status = nullptr);

/// Salvage variants restricted to *already-buffered* traffic: answer "has a
/// matching message already been delivered into my mailbox?" and, if so,
/// hand it over.  That question is purely local, so — unlike iprobe/recv —
/// these work on a revoked communicator and never report peer failures: a
/// revoke fences future traffic but does not claw back eager data the
/// transport delivered before it.  Recovery protocols use them to harvest
/// in-flight replicas after the world broke.  recv_buffered never blocks;
/// with nothing matching it returns kErrPending.
FTR_NODISCARD int iprobe_buffered(int src, int tag, const Comm& c, int* flag, Status* status = nullptr);
FTR_NODISCARD int recv_buffered(void* buf, std::size_t max_bytes, int src, int tag, const Comm& c,
                  Status* status = nullptr);

/// MPI_Sendrecv equivalent.
FTR_NODISCARD int sendrecv_bytes(const void* send_data, std::size_t send_n, int dest, int send_tag,
                   void* recv_buf, std::size_t recv_max, int src, int recv_tag,
                   const Comm& c, Status* status = nullptr);

template <class T>
FTR_NODISCARD int isend(const T* buf, int count, int dest, int tag, const Comm& c, Request* req) {
  static_assert(std::is_trivially_copyable_v<T>);
  return isend_bytes(buf, sizeof(T) * static_cast<std::size_t>(count), dest, tag, c, req);
}

template <class T>
FTR_NODISCARD int irecv(T* buf, int count, int src, int tag, const Comm& c, Request* req) {
  static_assert(std::is_trivially_copyable_v<T>);
  return irecv_bytes(buf, sizeof(T) * static_cast<std::size_t>(count), src, tag, c, req);
}

template <class T>
FTR_NODISCARD int sendrecv(const T* send_buf, int send_count, int dest, int send_tag, T* recv_buf,
             int recv_count, int src, int recv_tag, const Comm& c,
             Status* status = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  return sendrecv_bytes(send_buf, sizeof(T) * static_cast<std::size_t>(send_count), dest,
                        send_tag, recv_buf,
                        sizeof(T) * static_cast<std::size_t>(recv_count), src, recv_tag, c,
                        status);
}

// --- collectives ----------------------------------------------------------------
// Root-coordinated implementations.  Their failure reporting is near-uniform
// (the root aggregates the outcome), which is what the paper's detection
// step (Fig. 3 line 13) relies on.

FTR_NODISCARD int barrier(const Comm& c);

FTR_NODISCARD int bcast_bytes(void* buf, std::size_t n, int root, const Comm& c);
/// Variable-size gather: rank r's payload lands in (*out)[r] at the root.
FTR_NODISCARD int gather_bytes(const void* data, std::size_t n, std::vector<std::vector<std::byte>>* out,
                 int root, const Comm& c);

template <class T>
FTR_NODISCARD int bcast(T* buf, int count, int root, const Comm& c) {
  static_assert(std::is_trivially_copyable_v<T>);
  return bcast_bytes(buf, sizeof(T) * static_cast<std::size_t>(count), root, c);
}

template <class T>
FTR_NODISCARD int gather(const T* sendbuf, int count, T* recvbuf, int root, const Comm& c) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::vector<std::byte>> parts;
  const int rc = gather_bytes(sendbuf, sizeof(T) * static_cast<std::size_t>(count),
                              c.rank() == root ? &parts : nullptr, root, c);
  if (rc == kSuccess && c.rank() == root) {
    for (int r = 0; r < c.size(); ++r) {
      std::memcpy(recvbuf + static_cast<std::size_t>(r) * static_cast<std::size_t>(count),
                  parts[static_cast<size_t>(r)].data(),
                  std::min(parts[static_cast<size_t>(r)].size(),
                           sizeof(T) * static_cast<std::size_t>(count)));
    }
  }
  return rc;
}

/// Gather variable-length vectors (convenience; MPI_Gatherv equivalent).
template <class T>
FTR_NODISCARD int gatherv(const std::vector<T>& sendbuf, std::vector<std::vector<T>>* recv_parts,
            int root, const Comm& c) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::vector<std::byte>> parts;
  const int rc = gather_bytes(sendbuf.data(), sizeof(T) * sendbuf.size(),
                              c.rank() == root ? &parts : nullptr, root, c);
  if (rc == kSuccess && c.rank() == root && recv_parts != nullptr) {
    recv_parts->clear();
    recv_parts->reserve(parts.size());
    for (auto& p : parts) {
      std::vector<T> v(p.size() / sizeof(T));
      // An empty vector's data() may be null, which memcpy must not get.
      if (!v.empty()) std::memcpy(v.data(), p.data(), v.size() * sizeof(T));
      recv_parts->push_back(std::move(v));
    }
  }
  return rc;
}

namespace detail_reduce {
template <class T>
T combine(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::Sum: return static_cast<T>(a + b);
    case ReduceOp::Max: return std::max(a, b);
    case ReduceOp::Min: return std::min(a, b);
    case ReduceOp::LogicalAnd: return static_cast<T>((a != T{}) && (b != T{}));
    case ReduceOp::LogicalOr: return static_cast<T>((a != T{}) || (b != T{}));
  }
  return a;
}

template <class T>
void combine_bytes(void* acc, const void* in, int count, ReduceOp op) {
  T* a = static_cast<T*>(acc);
  for (int i = 0; i < count; ++i) {
    T v{};
    std::memcpy(&v, static_cast<const std::byte*>(in) + sizeof(T) * static_cast<std::size_t>(i),
                sizeof(T));
    a[i] = combine(op, a[i], v);
  }
}
}  // namespace detail_reduce

/// Type-erased element-wise combine used by the tree allreduce.
using CombineBytesFn = void (*)(void* acc, const void* in, int count, ReduceOp op);

/// Fault-tolerant log-depth allreduce: partial vectors reduce up a binary
/// tree built over the live members, the root folds the outcome, and result
/// plus outcome flood back down with re-routing around dead interior nodes.
/// `buf` holds this rank's contribution on entry and the reduced vector on a
/// successful return.
FTR_NODISCARD int allreduce_bytes_tree(void* buf, std::size_t elem_size, int count,
                                       ReduceOp op, CombineBytesFn combine, const Comm& c);

template <class T>
FTR_NODISCARD int allreduce(const T* sendbuf, T* recvbuf, int count, ReduceOp op, const Comm& c) {
  static_assert(std::is_arithmetic_v<T>);
  for (int i = 0; i < count; ++i) recvbuf[i] = sendbuf[i];
  return allreduce_bytes_tree(recvbuf, sizeof(T), count, op, &detail_reduce::combine_bytes<T>,
                              c);
}

template <class T>
FTR_NODISCARD int allgather(const T* sendbuf, int count, T* recvbuf, const Comm& c) {
  int rc = gather(sendbuf, count, recvbuf, 0, c);
  if (rc != kSuccess) return rc;
  return bcast(recvbuf, count * c.size(), 0, c);
}

/// Root distributes fixed-size per-rank slices (MPI_Scatter).  `send` is
/// significant at the root only; each rank receives `per_rank` bytes.
FTR_NODISCARD int scatter_bytes(const void* send, std::size_t per_rank, void* recv, int root,
                  const Comm& c);
/// Variable-size scatter: one buffer per rank at the root (MPI_Scatterv).
FTR_NODISCARD int scatterv_bytes(const std::vector<std::vector<std::byte>>& parts,
                   std::vector<std::byte>* recv, int root, const Comm& c);

template <class T>
FTR_NODISCARD int scatter(const T* sendbuf, int count, T* recvbuf, int root, const Comm& c) {
  static_assert(std::is_trivially_copyable_v<T>);
  return scatter_bytes(sendbuf, sizeof(T) * static_cast<std::size_t>(count), recvbuf, root,
                       c);
}

/// Release a communicator handle (MPI_Comm_free).  Contexts are reference
/// counted through shared ownership; the handle becomes null.
FTR_NODISCARD int comm_free(Comm* c);

/// Human-readable name of an ftmpi error code (MPI_Error_string).
const char* error_string(int code);

// --- communicator management ---------------------------------------------------

inline constexpr int kUndefinedColor = -1;  ///< MPI_UNDEFINED for comm_split

FTR_NODISCARD int comm_split(const Comm& c, int color, int key, Comm* out);
FTR_NODISCARD int comm_dup(const Comm& c, Comm* out);

/// The local group of the communicator (MPI_Comm_group).
Group comm_group(const Comm& c);

// --- dynamic processes ----------------------------------------------------------

/// One command of MPI_Comm_spawn_multiple.
struct SpawnUnit {
  std::string command;             ///< registered application name
  std::vector<std::string> argv;
  int maxprocs = 1;
  int host = -1;                   ///< MPI_Info "host" hint; -1 = any free slot
};

/// Collective over `c`.  The root launches the processes; everyone receives
/// the parent-side intercommunicator in *intercomm.
FTR_NODISCARD int comm_spawn_multiple(const std::vector<SpawnUnit>& units, int root, const Comm& c,
                        Comm* intercomm, std::vector<int>* errcodes = nullptr);

/// MPI_Intercomm_merge.  The side passing high=false is ordered first.
FTR_NODISCARD int intercomm_merge(const Comm& inter, bool high, Comm* out);

/// MPI_Intercomm_create.  Collective over `local`; the two leaders exchange
/// group membership over `bridge` (significant at the leaders only) and the
/// whole of both groups receives the new intercommunicator.  `tag`
/// disambiguates concurrent creates over the same bridge.  Overlapped
/// recovery uses this to join the continuation sub-communicator with the
/// repaired group without a world-wide collective.
FTR_NODISCARD int intercomm_create(const Comm& local, int local_leader, const Comm& bridge,
                                   int remote_leader, int tag, Comm* out);

// --- ULFM extensions -------------------------------------------------------------

/// OMPI_Comm_revoke: mark the communicator revoked everywhere; all pending
/// and future operations on it (except shrink/agree) fail with kErrRevoked.
FTR_NODISCARD int comm_revoke(const Comm& c);

/// OMPI_Comm_shrink: build a new communicator from the surviving members,
/// preserving their relative rank order.  Works on revoked communicators.
FTR_NODISCARD int comm_shrink(const Comm& c, Comm* out);

/// OMPI_Comm_agree: fault-tolerant agreement on the bitwise AND of *flag.
/// Returns kErrProcFailed (uniformly) when the communicator contains dead
/// members not yet acknowledged by this process, but still sets *flag.
FTR_NODISCARD int comm_agree(const Comm& c, int* flag);

/// OMPI_Comm_failure_ack: acknowledge all currently-known failures.
FTR_NODISCARD int comm_failure_ack(const Comm& c);

/// OMPI_Comm_failure_get_acked: group of acknowledged failed processes.
FTR_NODISCARD int comm_failure_get_acked(const Comm& c, Group* failed);

}  // namespace ftmpi
