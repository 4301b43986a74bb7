// ULFM extensions: revoke, shrink, agree, failure acknowledgement.
//
// Shrink is coordinator-based: the lowest-ranked *live* member collects a
// message from every survivor and distributes the result.  If the
// coordinator itself dies mid-protocol, survivors detect it (their receive
// fails) and retry with the next-lowest live rank; the retry loop terminates
// because the coordinator index is monotonically increasing and failures are
// finite.  Agree runs over a binary tree of the live members and rebuilds
// the tree around a death (see agree_tree).  Both operations work on revoked
// communicators, as ULFM requires.
//
// The draft-ULFM implementation the paper measured ran disproportionately
// long consensus work per failure (Table I); charge_coordinator_rounds
// models that chatter in virtual time at the shrink coordinator, and the
// inflated clock propagates to every survivor through the result message.

#include <algorithm>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/detail.hpp"
#include "ftmpi/psan.hpp"

namespace ftmpi {

int comm_revoke(const Comm& c) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  // The revoker observes its own revocation immediately.
  FTR_PSAN_SELF_REVOKE(c, "comm_revoke");
  const bool first = !c.context()->revoked.exchange(true);
  // A real implementation floods a revoke token; we charge a comparable
  // virtual cost to every caller.
  const CostModel& cm = detail::rt().cost();
  detail::charge(cm.inter_host_latency +
                 static_cast<double>(c.group().size()) * cm.send_overhead);
  detail::rt().trace().record(detail::now(), detail::self().pid, TraceEvent::Revoke,
                              static_cast<long long>(c.context()->id));
  // Wake every blocked process so operations pending on this communicator
  // observe the revocation.  Only the call that set the flag has anything
  // to interrupt: once it is set, every waiter sees it at its next check.
  if (first) detail::rt().notify_all_procs();
  return kSuccess;
}

int comm_failure_ack(const Comm& c) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  // The local group's dead members, in rank order: the agreement group
  // lists each side's members in their rank order.
  const CommContext& ctx = *c.context();
  Group failed;
  for (ProcId p : detail::rt().dead_members(ctx)) {
    if (ctx.rank_of(c.side(), p) >= 0) failed.pids.push_back(p);
  }
  c.local().acked = std::move(failed);
  return kSuccess;
}

int comm_failure_get_acked(const Comm& c, Group* failed) {
  detail::check_alive();
  if (c.is_null()) return kErrComm;
  *failed = c.local().acked;
  return kSuccess;
}

namespace {

struct ShrinkReply {
  int outcome;
  std::uint64_t ctx_id;
};

// --- tree-structured agreement ---------------------------------------------
//
// The survivors form a binary tree over the live rank list (node i's
// children are 2i+1 and 2i+2, the root is the lowest live rank).  Entries
// flow up the tree, the root computes the verdict (and runs the psan stream
// verification), and the verdict floods back down.  A participant that
// observes a failure bumps the context's agree_gen; every in-flight wait
// carries the old generation and returns kErrPending, so the whole cohort
// rebuilds the tree over the current survivors — the parent re-routing
// rule.  Messages from a previous generation are consumed and discarded,
// never acted on (the same staleness discipline FTL007 enforces for
// detector messages).

struct TreeAgreeUpHead {
  std::uint64_t gen;
  std::int32_t count;  ///< number of TreeAgreeEntry records following
  std::int32_t pad;
};

struct TreeAgreeEntry {
  std::int32_t rank;  ///< rank in the agreement group
  std::int32_t pid;
  std::int32_t flag;
  std::int32_t pad;
  std::uint64_t hash;   ///< psan collective-stream hash (0 without FTR_PSAN)
  std::uint64_t epoch;  ///< psan epoch (0 without FTR_PSAN)
};

struct TreeAgreeDownHead {
  std::uint64_t gen;
  std::int32_t flag;
  std::int32_t num_dead;  ///< ProcId list follows
};

void bump_agree_gen(CommContext* ctx) {
  ctx->agree_gen.fetch_add(1);
  // Wake every in-flight participant so its wait observes the new
  // generation (kErrPending) and re-routes around the failure.
  detail::rt().notify_all_procs();
}

/// bump_agree_gen, unless the generation already moved past `gen`: many
/// members find the same stale snapshot at once, and one fresh generation
/// restarts them all.
void bump_agree_gen_once(CommContext* ctx, std::uint64_t gen) {
  if (ctx->agree_gen.compare_exchange_strong(gen, gen + 1)) detail::rt().notify_all_procs();
}

/// Restart the agreement after this process saw a peer fail.  The killer
/// may not have bumped the epochs yet, so first publish a fresh member
/// snapshot under the epochs as they stand: a peer that restarts on the
/// bump must not be handed the stale tree again.
void restart_after_failure(CommContext* ctx) {
  Runtime& rt = detail::rt();
  (void)detail::member_snapshot(*ctx, rt.failure_epoch().load(), rt.membership_epoch().load(),
                                /*rescan=*/true);
  bump_agree_gen(ctx);
}

/// Publish-then-flood verdict adoption: once the root has decided round r
/// (which it only does after folding a contribution from *every* process
/// still running), any participant stuck at round r may adopt the cached
/// verdict — its own flag is provably part of it.
bool try_adopt_decision(CommContext* ctx, std::int64_t round, int* flag,
                        std::vector<ProcId>* dead) {
  if (ctx->agree_decided_round.load() < round) return false;
  std::lock_guard<std::mutex> lk(ctx->agree_mu);
  if (ctx->agree_decision.round != round) return false;
  *flag = ctx->agree_decision.flag;
  *dead = ctx->agree_decision.dead;
  return true;
}

int agree_tree(const Comm& c, int* flag) {
  chaos_point("agree.tree");
  const std::uint64_t id = c.context()->id;
  CommContext* ctx = c.context();
  const Group& g = ctx->agreement_group();
  const ProcessState& me = detail::self();
  Runtime& rt = detail::rt();
  const CostModel& cm = rt.cost();
  const std::int64_t round = c.local().agree_round;
  const int max_attempts = 4 * g.size() + 8;
  // This process's rank in the agreement group: side 1 of an
  // intercommunicator follows all of side 0.
  const int my_rank = c.side() == 0 ? c.rank() : ctx->group[0].size() + c.rank();

  const auto complete = [&](int agreed, const std::vector<ProcId>& dead) -> int {
    *flag = agreed;
    c.local().agree_round = round + 1;
    // Uniform result: an error is reported iff there are failures this
    // process has not acknowledged yet.
    for (ProcId p : dead) {
      if (!c.local().acked.contains(p)) return finish(c, kErrProcFailed);
    }
    return kSuccess;
  };

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    {
      int adopted_flag = 0;
      std::vector<ProcId> adopted_dead;
      if (try_adopt_decision(ctx, round, &adopted_flag, &adopted_dead)) {
        return complete(adopted_flag, adopted_dead);
      }
    }
    const std::uint64_t gen = ctx->agree_gen.load();
    // Load the epochs *before* taking the member snapshot: any membership
    // change after the snapshot then interrupts our waits, and a spurious
    // extra interrupt is merely a re-validation.  The snapshot is shared by
    // every member that loaded the same epochs.
    std::uint64_t mepoch = rt.membership_epoch().load();
    const std::shared_ptr<const MemberSnapshot> snap =
        detail::member_snapshot(*ctx, rt.failure_epoch().load(), mepoch);
    const std::vector<int>& live = snap->active;
    const auto mine = std::lower_bound(live.begin(), live.end(), my_rank);
    // Unreachable while this process is alive: it is in every snapshot.
    if (mine == live.end() || *mine != my_rank) return kErrComm;
    const int mi = static_cast<int>(mine - live.begin());

    // Handle a wait interrupted by kErrPending.  Returns true when the
    // attempt must restart; false when the interrupt was benign (a process
    // outside this group exited) and the wait should simply be re-armed.
    const auto handle_pending = [&]() {
      if (ctx->agree_gen.load() != gen) return true;  // peers re-routed
      const std::uint64_t m2 = rt.membership_epoch().load();
      const std::shared_ptr<const MemberSnapshot> now =
          detail::member_snapshot(*ctx, rt.failure_epoch().load(), m2);
      if (now != snap && now->active != live) {
        // Our topology snapshot went stale without any of our waits failing
        // (the death/exit raced protocol entry).  Force the whole cohort
        // onto a fresh generation so everyone rebuilds the same tree.
        bump_agree_gen_once(ctx, gen);
        return true;
      }
      mepoch = m2;
      return false;
    };

    // -- reduction up: collect the subtree's entries -------------------------
    std::vector<TreeAgreeEntry> entries;
#ifdef FTR_PSAN
    entries.push_back({my_rank, me.pid, *flag, 0, psan::stream_hash(c), psan::current_epoch()});
#else
    entries.push_back({my_rank, me.pid, *flag, 0, 0, 0});
#endif
    bool restart = false;
    for (int k = 1; k <= 2 && !restart; ++k) {
      const std::size_t ci = 2 * static_cast<size_t>(mi) + static_cast<size_t>(k);
      if (ci >= live.size()) break;
      const ProcId child = g.pids[static_cast<size_t>(live[ci])];
      for (;;) {
        std::vector<std::byte> payload;
        detail::RecvOpts opts;
        opts.interrupt = &ctx->agree_gen;
        opts.interrupt_expect = gen;
        opts.interrupt2 = &rt.membership_epoch();
        opts.interrupt2_expect = mepoch;
        opts.match_payload_head = true;
        opts.payload_head = gen;
        const int rc = detail::ctrl_recv(child, id, tags::kAgreeTreeUp, &payload, opts);
        if (rc == kErrPending) {
          if (handle_pending()) {
            restart = true;
            break;
          }
          continue;
        }
        if (rc != kSuccess) {  // child subtree root died: re-route around it
          restart_after_failure(ctx);
          restart = true;
          break;
        }
        TreeAgreeUpHead head{};
        if (payload.size() < sizeof(head)) continue;
        std::memcpy(&head, payload.data(), sizeof(head));
        for (std::int32_t i = 0; i < head.count; ++i) {
          TreeAgreeEntry e{};
          std::memcpy(&e, payload.data() + sizeof(head) + static_cast<size_t>(i) * sizeof(e),
                      sizeof(e));
          entries.push_back(e);
        }
        break;
      }
    }
    if (restart) continue;

    // Per-node agreement work is proportional to this node's degree — the
    // tree links it matches and folds, not its subtree's population — so the
    // protocol's critical path is O(log N).
    int degree = (mi != 0) ? 1 : 0;  // parent link
    for (int k = 1; k <= 2; ++k) {
      if (2 * static_cast<size_t>(mi) + static_cast<size_t>(k) < live.size()) ++degree;
    }
    detail::charge(cm.consensus_cost_per_proc * static_cast<double>(degree + 1));

    std::vector<std::byte> down;
    if (mi != 0) {
      // Interior node / leaf: hand the subtree up, wait for the verdict.
      std::vector<std::byte> up(sizeof(TreeAgreeUpHead) +
                                entries.size() * sizeof(TreeAgreeEntry));
      const TreeAgreeUpHead uh{gen, static_cast<std::int32_t>(entries.size()), 0};
      std::memcpy(up.data(), &uh, sizeof(uh));
      std::memcpy(up.data() + sizeof(uh), entries.data(),
                  entries.size() * sizeof(TreeAgreeEntry));
      const ProcId parent =
          g.pids[static_cast<size_t>(live[static_cast<size_t>((mi - 1) / 2)])];
      if (detail::ctrl_send(parent, id, tags::kAgreeTreeUp, up.data(), up.size()) !=
          kSuccess) {
        restart_after_failure(ctx);
        continue;
      }
      for (;;) {
        std::vector<std::byte> payload;
        detail::RecvOpts opts;
        opts.interrupt = &ctx->agree_gen;
        opts.interrupt_expect = gen;
        opts.interrupt2 = &rt.membership_epoch();
        opts.interrupt2_expect = mepoch;
        opts.match_payload_head = true;
        opts.payload_head = gen;
        const int rc = detail::ctrl_recv(parent, id, tags::kAgreeTreeDown, &payload, opts);
        if (rc == kErrPending) {
          if (handle_pending()) break;
          continue;
        }
        if (rc != kSuccess) {  // parent died holding our verdict: re-route
          restart_after_failure(ctx);
          break;
        }
        if (payload.size() < sizeof(TreeAgreeDownHead)) continue;
        down = std::move(payload);
        break;
      }
      if (down.empty()) continue;
    } else {
      // Root: only decide once every process still running this round has
      // contributed — with a short count some contribution is still in
      // flight on a differently-shaped tree, so force a consistent rebuild.
      if (entries.size() != live.size()) {
        bump_agree_gen(ctx);
        continue;
      }
      int agreed = ~0;
      for (const TreeAgreeEntry& e : entries) agreed &= e.flag;
      const std::vector<ProcId> dead = rt.dead_members(*ctx);
#ifdef FTR_PSAN
      // Every contributor is still blocked on the verdict, so its stream
      // cannot advance under us.
      std::vector<psan::AgreeReport> reports;
      reports.reserve(entries.size());
      for (const TreeAgreeEntry& e : entries) {
        reports.push_back({e.rank, e.pid, e.hash, e.epoch});
      }
      psan::verify_at_agree(c, g, reports, dead.empty());
#endif
      // Publish the verdict *before* flooding it, so a subtree orphaned by
      // a relay death can adopt it instead of waiting on peers that have
      // already returned.
      {
        std::lock_guard<std::mutex> lk(ctx->agree_mu);
        ctx->agree_decision.round = round;
        ctx->agree_decision.flag = agreed;
        ctx->agree_decision.dead = dead;
      }
      ctx->agree_decided_round.store(round);
      // A participant that restarted into a newer generation before the
      // verdict was visible now waits on a tree nobody else builds: bump
      // again so it restarts and adopts.  A bump after this load is after
      // the publish, so whoever it restarts finds the verdict.
      if (ctx->agree_gen.load() != gen) bump_agree_gen(ctx);
      down.resize(sizeof(TreeAgreeDownHead) + dead.size() * sizeof(ProcId));
      const TreeAgreeDownHead dh{gen, agreed, static_cast<std::int32_t>(dead.size())};
      std::memcpy(down.data(), &dh, sizeof(dh));
      if (!dead.empty()) {
        std::memcpy(down.data() + sizeof(dh), dead.data(), dead.size() * sizeof(ProcId));
      }
      rt.trace().record(detail::now(), me.pid, TraceEvent::Agree, agreed);
    }

    // Broadcast down: forward the verdict to the children before returning.
    // Best-effort — a child that died mid-protocol has a subtree that will
    // re-route and retry; its members are reported through the next agree.
    for (int k = 1; k <= 2; ++k) {
      const std::size_t ci = 2 * static_cast<size_t>(mi) + static_cast<size_t>(k);
      if (ci >= live.size()) break;
      ftr::observe_error(detail::ctrl_send(g.pids[static_cast<size_t>(live[ci])], id,
                                           tags::kAgreeTreeDown, down.data(), down.size()),
                         "agree.tree.down");
    }

    TreeAgreeDownHead head{};
    std::memcpy(&head, down.data(), sizeof(head));
    std::vector<ProcId> dead(static_cast<size_t>(head.num_dead));
    if (head.num_dead > 0) {
      std::memcpy(dead.data(), down.data() + sizeof(head), dead.size() * sizeof(ProcId));
    }
    return complete(head.flag, dead);
  }
  FTR_ERROR("ftmpi: tree agree exhausted retries on ctx %llu",
            static_cast<unsigned long long>(id));
  return kErrComm;
}

}  // namespace

int comm_shrink(const Comm& c, Comm* out) {
  detail::check_alive();
  chaos_point("shrink");
  *out = Comm{};
  if (c.is_null() || c.is_inter()) return kErrComm;

  const std::uint64_t id = c.context()->id;
  const Group& g = c.group();
  const ProcessState& me = detail::self();

  for (int attempt = 0; attempt <= g.size(); ++attempt) {
    // The coordinator is the first rank not in the failure log.  Survivors
    // need no more than that, so they hold only the dead ranks while they
    // wait for the coordinator's reply.
    const std::vector<int> dead = detail::rt().dead_ranks(*c.context());
    int first = 0;
    for (int r : dead) {
      if (r != first) break;
      ++first;
    }
    if (first == g.size()) return kErrComm;
    const ProcId coord = g.pids[static_cast<size_t>(first)];

    if (coord == me.pid) {
      // Collect a hello from every other survivor; members that die while we
      // collect are simply excluded from the shrunken group.
      std::vector<int> confirmed{first};
      auto next_dead = dead.begin();
      for (int r = first + 1; r < g.size(); ++r) {
        while (next_dead != dead.end() && *next_dead < r) ++next_dead;
        if (next_dead != dead.end() && *next_dead == r) continue;
        const ProcId p = g.pids[static_cast<size_t>(r)];
        if (detail::ctrl_recv(p, id, tags::kShrinkUp, nullptr) == kSuccess) {
          confirmed.push_back(r);
        }
      }
      // Model the draft-ULFM consensus chatter: extra rounds per failure.
      const int failures = g.size() - static_cast<int>(confirmed.size());
      const int rounds =
          2 + detail::rt().cost().shrink_rounds_per_failure * std::max(failures, 1);
      detail::charge_coordinator_rounds(rounds, static_cast<int>(confirmed.size()));

      Group ng;
      for (int r : confirmed) ng.pids.push_back(g.pids[static_cast<size_t>(r)]);
      const auto ctx = detail::rt().create_context(std::move(ng));
      detail::rt().trace().record(detail::now(), me.pid, TraceEvent::Shrink,
                                  ctx->group[0].size());
      const ShrinkReply reply{kSuccess, ctx->id};
      for (size_t i = 1; i < confirmed.size(); ++i) {
        // A confirmed member that died before its reply retries with the
        // next coordinator; keep delivering to the rest.
        ftr::observe_error(
            detail::ctrl_send(g.pids[static_cast<size_t>(confirmed[i])], id,
                              tags::kShrinkDown, &reply, sizeof(reply)),
            "shrink.reply");
      }
      *out = Comm(ctx, 0, me.pid);
      return kSuccess;
    }

    // Survivor path: hello to the coordinator, wait for the new context.
    if (detail::ctrl_send(coord, id, tags::kShrinkUp, nullptr, 0) != kSuccess) {
      continue;  // coordinator died before our hello; retry with the next
    }
    std::vector<std::byte> payload;
    if (detail::ctrl_recv(coord, id, tags::kShrinkDown, &payload) != kSuccess) {
      continue;  // coordinator died mid-protocol; retry
    }
    const auto reply = detail::unpack<ShrinkReply>(payload);
    *out = Comm(detail::rt().find_context(reply.ctx_id), 0, me.pid);
    return kSuccess;
  }
  FTR_ERROR("ftmpi: comm_shrink exhausted retries on ctx %llu",
            static_cast<unsigned long long>(id));
  return kErrComm;
}

int comm_agree(const Comm& c, int* flag) {
  detail::check_alive();
  chaos_point("agree");
  if (c.is_null()) return kErrComm;

  // On an intercommunicator, agreement spans both groups (ULFM semantics;
  // the paper's repair protocol calls agree on the parent/child intercomm).
  return agree_tree(c, flag);
}

}  // namespace ftmpi
