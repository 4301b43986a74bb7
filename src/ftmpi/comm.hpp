#pragma once
// Communicators and process groups.
//
// A CommContext is the *shared* identity of a communicator: a context id
// plus the ordered member lists (one group for an intracommunicator, two for
// an intercommunicator) and the revoked flag.  Every member process holds
// its own Comm handle referring to the shared context, mirroring how MPI
// implementations separate the communicator object from per-process handle
// state (error handler, acknowledged failures).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "ftmpi/types.hpp"

namespace ftmpi {

/// An ordered set of processes, analogous to MPI_Group.  Rank i of the
/// group is pids[i].
struct Group {
  std::vector<ProcId> pids;

  [[nodiscard]] int size() const { return static_cast<int>(pids.size()); }
  [[nodiscard]] bool contains(ProcId p) const {
    return std::find(pids.begin(), pids.end(), p) != pids.end();
  }
  [[nodiscard]] int rank_of(ProcId p) const {
    const auto it = std::find(pids.begin(), pids.end(), p);
    return it == pids.end() ? -1 : static_cast<int>(it - pids.begin());
  }
};

/// MPI_Group_compare results.
enum class GroupOrder { Ident, Similar, Unequal };

[[nodiscard]] GroupOrder group_compare(const Group& a, const Group& b);

/// Members of `a` that are not in `b`, in the order of `a`
/// (MPI_Group_difference).
[[nodiscard]] Group group_difference(const Group& a, const Group& b);

/// For each rank in `ranks_in_a`, its rank in `b` (or -1, i.e.
/// MPI_UNDEFINED, when not a member) — MPI_Group_translate_ranks.
[[nodiscard]] std::vector<int> group_translate_ranks(const Group& a,
                                                     const std::vector<int>& ranks_in_a,
                                                     const Group& b);

/// Which members of a communicator's agreement group were alive and which
/// were still running, scanned after loading the runtime's failure and
/// membership epochs.  Any death or exit the scan missed bumps an epoch past
/// the stored value, so a rank that loaded the same two values and waits
/// with an interrupt on the matching epoch learns of it.
struct MemberSnapshot {
  std::uint64_t failure_epoch = 0;
  std::uint64_t membership_epoch = 0;
  std::vector<int> alive;   ///< ranks of members not dead
  std::vector<int> active;  ///< ranks of members neither dead nor finished
};

/// Shared communicator identity.  Never mutated after creation except for
/// the revoked flag and the agreement state below.
struct CommContext {
  std::uint64_t id = 0;
  bool is_inter = false;
  Group group[2];  ///< group[0] only for intra; both sides for inter
  Group both_sides;  ///< inter only: group[0] then group[1]
  std::atomic<bool> revoked{false};
  /// Generation counter of the tree-structured agreement.  Any participant
  /// that observes a failure mid-protocol bumps it; every in-flight wait
  /// carrying the old value returns kErrPending and the participant rebuilds
  /// the tree over the current survivors (parent re-routing).  Monotonic for
  /// the context's lifetime, so stale-generation messages are identifiable
  /// and discarded.
  std::atomic<std::uint64_t> agree_gen{0};

  /// Verdict of the most recently decided tree-agreement round, published by
  /// the root *before* it floods the verdict down.  A participant orphaned
  /// by a relay that died mid-flood (its peers may already have returned and
  /// will never re-participate) adopts the cached verdict instead of waiting
  /// forever.  Adoption is sound because the root only decides a round once
  /// every process still running has contributed its flag to that round.
  struct AgreeDecision {
    std::int64_t round = -1;  ///< agreement round this verdict belongs to
    std::int32_t flag = 0;
    std::vector<ProcId> dead;
  };
  std::mutex agree_mu;               ///< guards agree_decision
  AgreeDecision agree_decision;
  std::atomic<std::int64_t> agree_decided_round{-1};  ///< cheap pre-check

  /// The newest member snapshot of the agreement group, shared by every
  /// member's tree agreement and allreduce (detail::member_snapshot).
  std::mutex snapshot_mu;  ///< guards snapshot
  std::shared_ptr<const MemberSnapshot> snapshot;

  /// (pid, rank in the agreement group) of every member, sorted by pid:
  /// the one pid -> rank table all members share.  Built by index_members().
  std::vector<std::pair<ProcId, int>> member_index;

  [[nodiscard]] const Group& local_group(int side) const { return group[side]; }
  [[nodiscard]] const Group& remote_group(int side) const { return group[1 - side]; }
  /// The members an agreement spans: an intracommunicator's group, or both
  /// groups of an intercommunicator (ULFM semantics).
  [[nodiscard]] const Group& agreement_group() const {
    return is_inter ? both_sides : group[0];
  }
  /// Fill member_index from the groups; Runtime::create_context calls it
  /// once, before the context is shared.
  void index_members();
  /// Rank of `pid` in the agreement group, or -1 for a non-member (a
  /// binary search in member_index).
  [[nodiscard]] int agreement_rank(ProcId pid) const;
  /// Rank of `pid` in group[side], or -1 for a non-member.
  [[nodiscard]] int rank_of(int side, ProcId pid) const;
};

class Comm;  // fwd

/// Error handler attached to a communicator handle.  ULFM applications
/// (like the paper's) install a handler that acknowledges failures; the
/// runtime invokes it whenever an operation on the communicator returns an
/// error and then still returns the code (MPI_ERRORS_RETURN semantics).
using ErrhandlerFn = std::function<void(Comm&, int& error_code)>;

/// Per-process, per-handle communicator state.
struct CommLocal {
  ErrhandlerFn errhandler;      ///< empty = MPI_ERRORS_RETURN
  Group acked;                  ///< failures acknowledged via OMPI_Comm_failure_ack
  std::int64_t agree_round = 0; ///< tree-agreement rounds completed on this handle
  std::uint64_t coll_seq = 0;   ///< tree-collective calls completed on this handle
};

/// Per-process communicator handle (value type; copies share local state,
/// matching the aliasing behaviour of an MPI_Comm handle).
class Comm {
 public:
  Comm() = default;  ///< MPI_COMM_NULL

  Comm(std::shared_ptr<CommContext> ctx, int side, ProcId self)
      : ctx_(std::move(ctx)), side_(side), self_(self),
        rank_(ctx_ ? ctx_->rank_of(side, self) : -1),
        local_(std::make_shared<CommLocal>()) {}

  [[nodiscard]] bool is_null() const { return ctx_ == nullptr; }
  [[nodiscard]] bool is_inter() const { return ctx_ && ctx_->is_inter; }
  [[nodiscard]] bool is_revoked() const { return ctx_ && ctx_->revoked.load(); }

  /// Rank of the calling process in the (local) group; -1 if not a member.
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return ctx_ ? ctx_->local_group(side_).size() : 0; }
  [[nodiscard]] int remote_size() const {
    return ctx_ ? ctx_->remote_group(side_).size() : 0;
  }

  [[nodiscard]] const Group& group() const { return ctx_->local_group(side_); }
  [[nodiscard]] const Group& remote_group() const { return ctx_->remote_group(side_); }

  [[nodiscard]] CommContext* context() const { return ctx_.get(); }
  [[nodiscard]] const std::shared_ptr<CommContext>& context_ptr() const { return ctx_; }
  [[nodiscard]] int side() const { return side_; }
  [[nodiscard]] ProcId self() const { return self_; }
  [[nodiscard]] CommLocal& local() const { return *local_; }

  /// Pid of rank r.  For an intercommunicator, point-to-point addresses the
  /// *remote* group, as in MPI.
  [[nodiscard]] ProcId peer_pid(int r) const {
    const Group& g = ctx_->is_inter ? ctx_->remote_group(side_) : ctx_->local_group(side_);
    return g.pids.at(static_cast<size_t>(r));
  }

  friend bool operator==(const Comm& a, const Comm& b) {
    return a.ctx_ == b.ctx_ && a.side_ == b.side_;
  }

 private:
  std::shared_ptr<CommContext> ctx_;
  int side_ = 0;
  ProcId self_ = kNullProc;
  int rank_ = -1;  ///< fixed: a context's groups never change
  std::shared_ptr<CommLocal> local_;
};

}  // namespace ftmpi
