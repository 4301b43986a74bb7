// Unified recovery planner + diskless buddy checkpointing.
//
// Unit level: the preference lattice over exhaustive loss patterns (every
// subset of up to 3 grids, partner pairs included) must always produce a
// plan — recover or cleanly degrade, never abort; the buddy placement rule
// must be host-disjoint from the grid and its RC partner; the in-memory
// replica store must be CRC-verified and two-generation.
//
// End-to-end: a loss pattern that violates the paper's RC constraint (grid
// and partner lost together) is recovered via the buddy snapshots with the
// combined-solution error within 1e-10 of a no-failure run, and chaos kills
// at the "buddy.send" boundary still end in exact recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/chaos.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "ftmpi/api.hpp"
#include "ftmpi/request.hpp"
#include "ftmpi/runtime.hpp"
#include "recovery/buddy.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/planner.hpp"
#include "recovery/replication.hpp"

using namespace ftr::core;
using ftr::comb::GridRole;
using ftr::comb::Scheme;
using ftr::comb::Technique;
using ftr::rec::BuddyStore;
using ftr::rec::BuddyTopology;
using ftr::rec::GridFacts;
using ftr::rec::PlannerMode;
using ftr::rec::plan_recovery;
using ftr::rec::RecoveryAction;
using ftr::rec::RecoveryPlan;

namespace {

LayoutConfig small_layout(Technique t) {
  LayoutConfig cfg;
  cfg.scheme = Scheme{6, 3};  // 3 diagonal + 2 lower-diagonal grids
  cfg.technique = t;
  cfg.procs_diagonal = 4;
  cfg.procs_lower = 2;
  cfg.procs_extra_upper = 2;
  cfg.procs_extra_lower = 1;
  return cfg;
}

AppConfig small_app(Technique t) {
  AppConfig cfg;
  cfg.layout = small_layout(t);
  cfg.timesteps = 24;
  cfg.checkpoints = 2;
  return cfg;
}

ftmpi::Runtime::Options rt_opts() {
  ftmpi::Runtime::Options o;
  o.slots_per_host = 12;
  o.real_time_limit_sec = 120.0;
  return o;
}

std::vector<GridFacts> facts_for(const std::vector<int>& lost, bool complete, bool buddy,
                                 long step = 8) {
  std::vector<GridFacts> f;
  for (int g : lost) {
    GridFacts gf;
    gf.id = g;
    gf.group_complete = complete;
    gf.buddy_available = buddy && complete;
    gf.buddy_step = gf.buddy_available ? step : -1;
    f.push_back(gf);
  }
  return f;
}

double clean_error(Technique t) {
  ftmpi::Runtime rt(rt_opts());
  FtApp app(small_app(t));
  app.launch(rt);
  return rt.get(keys::kErrorL1, -1);
}

}  // namespace

// --- planner units ----------------------------------------------------------

TEST(Planner, LatticePrefersCheapestFeasibleRung) {
  const auto slots =
      ftr::comb::build_grid_slots(Scheme{6, 3}, Technique::ResamplingCopying);
  const Scheme s{6, 3};

  // Partner alive: RC wins even with a buddy snapshot on offer.
  auto plan = plan_recovery(slots, s, 1, PlannerMode::Lattice, facts_for({0}, true, true));
  ASSERT_EQ(plan.entries.size(), 1u);
  EXPECT_EQ(plan.entries[0].action, RecoveryAction::RcCopy);
  EXPECT_EQ(plan.entries[0].partner, ftr::rec::rc_partner(slots, 0).value());
  EXPECT_TRUE(plan.fully_restored());

  // Lower-diagonal grids resample from the finer diagonal.
  for (const auto& slot : slots) {
    if (slot.role != GridRole::LowerDiagonal) continue;
    plan = plan_recovery(slots, s, 1, PlannerMode::Lattice, facts_for({slot.id}, true, true));
    EXPECT_EQ(plan.entries[0].action, RecoveryAction::RcResample);
  }

  // Partner lost too (the paper's fatal RC pattern): the buddy rung takes it.
  const int dup0 = ftr::rec::rc_partner(slots, 0).value();
  plan = plan_recovery(slots, s, 1, PlannerMode::Lattice, facts_for({0, dup0}, true, true));
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[0].action, RecoveryAction::Buddy);
  EXPECT_EQ(plan.entries[0].step, 8);
  EXPECT_EQ(plan.entries[1].action, RecoveryAction::Buddy);
  EXPECT_TRUE(plan.fully_restored());

  // Same pattern, no buddy generation: the disk rung (CR rollback, or full
  // recompute when the store is empty) still restores every complete group.
  plan = plan_recovery(slots, s, 1, PlannerMode::Lattice, facts_for({0, dup0}, true, false));
  EXPECT_EQ(plan.entries[0].action, RecoveryAction::Disk);
  EXPECT_EQ(plan.entries[1].action, RecoveryAction::Disk);
  EXPECT_TRUE(plan.fully_restored());

  // Incomplete group (shrink-mode): only the GCP/idle rungs remain.
  plan = plan_recovery(slots, s, 1, PlannerMode::Lattice, facts_for({0}, false, false));
  EXPECT_TRUE(plan.entries[0].action == RecoveryAction::Gcp ||
              plan.entries[0].action == RecoveryAction::Idle);
  EXPECT_FALSE(plan.fully_restored());
}

TEST(Planner, ForceModesReproduceSingleTechniqueBehaviour) {
  const auto slots =
      ftr::comb::build_grid_slots(Scheme{6, 3}, Technique::ResamplingCopying);
  const Scheme s{6, 3};
  const int dup0 = ftr::rec::rc_partner(slots, 0).value();

  auto plan = plan_recovery(slots, s, 1, PlannerMode::ForceCr, facts_for({0, 3}, true, true));
  for (const auto& e : plan.entries) EXPECT_EQ(e.action, RecoveryAction::Disk);

  plan = plan_recovery(slots, s, 1, PlannerMode::ForceRc, facts_for({0, 3}, true, true));
  EXPECT_EQ(plan.entries[0].action, RecoveryAction::RcCopy);
  EXPECT_EQ(plan.entries[1].action, RecoveryAction::RcResample);

  // ForceRc on the fatal pattern degrades to GCP instead of crashing — the
  // old assert/abort behaviour is gone.
  plan = plan_recovery(slots, s, 1, PlannerMode::ForceRc, facts_for({0, dup0}, true, true));
  for (const auto& e : plan.entries) {
    EXPECT_TRUE(e.action == RecoveryAction::Gcp || e.action == RecoveryAction::Idle);
  }

  // ForceAc recombines: feasible with the AC layout's extra layers (Gcp),
  // and demoted to Idle when the coefficient problem has no solution (a
  // lost diagonal with no alternate layers to take over).
  const auto ac_slots =
      ftr::comb::build_grid_slots(Scheme{6, 3}, Technique::AlternateCombination, 2);
  plan = plan_recovery(ac_slots, s, 3, PlannerMode::ForceAc, facts_for({1}, true, true));
  EXPECT_EQ(plan.entries[0].action, RecoveryAction::Gcp);
  EXPECT_TRUE(plan.gcp_feasible);
  plan = plan_recovery(slots, s, 1, PlannerMode::ForceAc, facts_for({1}, true, true));
  EXPECT_EQ(plan.entries[0].action, RecoveryAction::Idle);
  EXPECT_FALSE(plan.gcp_feasible);
}

TEST(Planner, ExhaustiveLossSubsetsNeverAbortAndStayConsistent) {
  // Every subset of up to 3 lost grids (partner pairs included), crossed
  // with buddy availability and group completeness, in every mode: the
  // planner must always return a well-formed plan.
  const auto slots =
      ftr::comb::build_grid_slots(Scheme{6, 3}, Technique::ResamplingCopying);
  const Scheme s{6, 3};
  const int n = static_cast<int>(slots.size());
  std::vector<std::vector<int>> subsets;
  for (int a = 0; a < n; ++a) {
    subsets.push_back({a});
    for (int b = a + 1; b < n; ++b) {
      subsets.push_back({a, b});
      for (int c = b + 1; c < n; ++c) subsets.push_back({a, b, c});
    }
  }
  ASSERT_EQ(subsets.size(), 8u + 28u + 56u);

  for (const auto& lost : subsets) {
    for (const bool complete : {true, false}) {
      for (const bool buddy : {true, false}) {
        for (const PlannerMode mode : {PlannerMode::Lattice, PlannerMode::ForceCr,
                                       PlannerMode::ForceRc, PlannerMode::ForceAc}) {
          const auto plan =
              plan_recovery(slots, s, 1, mode, facts_for(lost, complete, buddy));
          ASSERT_EQ(plan.entries.size(), lost.size());
          for (size_t i = 0; i < plan.entries.size(); ++i) {
            EXPECT_EQ(plan.entries[i].grid, lost[i]);  // ascending ids kept
            const auto a = plan.entries[i].action;
            if (!complete) {
              // Nothing to restore onto: only the combination-side rungs.
              EXPECT_TRUE(a == RecoveryAction::Gcp || a == RecoveryAction::Idle);
            }
            if (a == RecoveryAction::RcCopy || a == RecoveryAction::RcResample) {
              const int p = plan.entries[i].partner;
              ASSERT_GE(p, 0);
              ASSERT_LT(p, n);
              // An RC source must itself be alive.
              EXPECT_EQ(std::count(lost.begin(), lost.end(), p), 0);
            }
            if (a == RecoveryAction::Buddy) {
              EXPECT_GE(plan.entries[i].step, 0);
            }
          }
          // The full lattice restores every complete group (the disk rung
          // accepts any of them), so recoverable patterns never degrade.
          if (mode == PlannerMode::Lattice && complete) {
            EXPECT_TRUE(plan.fully_restored());
          }
        }
      }
    }
  }
}

// --- buddy placement --------------------------------------------------------

TEST(BuddyPlacement, HostDisjointFromGridAndRcPartner) {
  // Paper-scale RC layout (n=13, l=4, 8/4 procs): the placement rule's
  // strictest pass must hold for every rank — the buddy sits on a host that
  // serves neither the owner's grid nor its RC partner group.
  LayoutConfig cfg;
  cfg.scheme = Scheme{13, 4};
  cfg.technique = Technique::ResamplingCopying;
  const Layout layout = build_layout(cfg);
  const BuddyTopology topo = make_buddy_topology(layout, 12);
  ASSERT_EQ(topo.total_procs(), 76);

  for (int r = 0; r < topo.total_procs(); ++r) {
    const int b = ftr::rec::buddy_rank_of(topo, r);
    ASSERT_GE(b, 0) << "rank " << r;
    EXPECT_NE(b, r);
    const int g = topo.grid_of_rank(r);
    EXPECT_NE(topo.grid_of_rank(b), g);
    std::set<int> excluded;
    for (int gr = 0; gr < topo.procs_per_grid[static_cast<size_t>(g)]; ++gr) {
      excluded.insert(topo.host_of_rank(topo.first_rank[static_cast<size_t>(g)] + gr));
    }
    const int pg = topo.partner_grid[static_cast<size_t>(g)];
    if (pg >= 0) {
      for (int gr = 0; gr < topo.procs_per_grid[static_cast<size_t>(pg)]; ++gr) {
        excluded.insert(topo.host_of_rank(topo.first_rank[static_cast<size_t>(pg)] + gr));
      }
    }
    EXPECT_EQ(excluded.count(topo.host_of_rank(b)), 0u)
        << "rank " << r << " buddy " << b << " shares a host with its recovery sources";
  }
}

TEST(BuddyPlacement, ClientsAreTheInverseOfBuddyRankOf) {
  const Layout layout = build_layout(small_layout(Technique::ResamplingCopying));
  const BuddyTopology topo = make_buddy_topology(layout, 12);
  for (int holder = 0; holder < topo.total_procs(); ++holder) {
    for (int client : ftr::rec::buddy_clients_of(topo, holder)) {
      EXPECT_EQ(ftr::rec::buddy_rank_of(topo, client), holder);
    }
  }
  int total = 0;
  for (int h = 0; h < topo.total_procs(); ++h) {
    total += static_cast<int>(ftr::rec::buddy_clients_of(topo, h).size());
  }
  EXPECT_EQ(total, topo.total_procs());  // every rank has exactly one buddy
}

// --- replica store ----------------------------------------------------------

namespace {

/// The payload doubles of a replica wire buffer.
std::vector<double> payload_of(const std::vector<std::byte>& wire) {
  std::vector<double> v((wire.size() - ftr::rec::kReplicaHeaderBytes) / sizeof(double));
  if (!v.empty()) {
    std::memcpy(v.data(), wire.data() + ftr::rec::kReplicaHeaderBytes, v.size() * sizeof(double));
  }
  return v;
}

/// A field whose every storage cell (halos and padding too) holds its own
/// value, so a pack that reads a wrong cell shows.
ftr::grid::LocalField numbered_field(int w, int h) {
  ftr::grid::LocalField f(ftr::grid::Block{3, 3 + w, 5, 5 + h});
  for (std::size_t i = 0; i < f.raw().size(); ++i) {
    f.raw()[i] = 0.125 * static_cast<double>(i) - 7.0;
  }
  return f;
}

}  // namespace

TEST(BuddyStore, KeepsTwoCrcVerifiedGenerations) {
  BuddyStore store;
  const std::vector<double> g8{1.0, 2.0, 3.0};
  const std::vector<double> g16{4.0, 5.0, 6.0};
  store.put(7, ftr::rec::pack_replica(1, 0, 8, g8));
  store.put(7, ftr::rec::pack_replica(1, 0, 16, g16));
  const auto h = store.holding(7, 1, 0);
  EXPECT_EQ(h.newest, 16);
  EXPECT_EQ(h.prev, 8);
  EXPECT_EQ(payload_of(store.read_at(7, 1, 0, 16).value()), g16);
  EXPECT_EQ(payload_of(store.read_at(7, 1, 0, 8).value()), g8);
  // A generation reads back as the wire buffer it was stored as.
  EXPECT_EQ(store.read_at(7, 1, 0, 16).value(), ftr::rec::pack_replica(1, 0, 16, g16));
  EXPECT_FALSE(store.read_at(7, 1, 0, 12).has_value());
  // A third generation demotes; the oldest is gone.
  const std::vector<double> g24{7.0};
  store.put(7, ftr::rec::pack_replica(1, 0, 24, g24));
  EXPECT_FALSE(store.read_at(7, 1, 0, 8).has_value());
  EXPECT_EQ(store.holding(7, 1, 0).prev, 16);
  // Replicas are keyed by holder pid: another pid sees nothing (diskless
  // semantics — a dead holder's replicas die with it).
  EXPECT_EQ(store.holding(8, 1, 0).newest, -1);
  EXPECT_GE(store.replications(), 3);
  EXPECT_GT(store.replicated_bytes(), 0);
  // Payload bytes only, headers not counted.
  EXPECT_EQ(store.replicated_bytes(), static_cast<long>((3 + 3 + 1) * sizeof(double)));
}

TEST(BuddyStore, CorruptNewestFailsCrcAndPrevSurvives) {
  // 4 KiB payloads, so the folding CRC path computes the rejected checksum.
  BuddyStore store;
  std::vector<double> g8(512), g16(512);
  for (size_t i = 0; i < g8.size(); ++i) {
    g8[i] = 1.5 + static_cast<double>(i);
    g16[i] = -3.5 * static_cast<double>(i);
  }
  store.put(3, ftr::rec::pack_replica(0, 1, 8, g8));
  store.put(3, ftr::rec::pack_replica(0, 1, 16, g16));
  store.corrupt_newest(3, 0, 1);
  EXPECT_FALSE(store.read_at(3, 0, 1, 16).has_value());
  EXPECT_GE(store.corrupt_detected(), 1);
  EXPECT_EQ(payload_of(store.read_at(3, 0, 1, 8).value()), g8);
}

TEST(BuddyGeneration, NewestStepEveryMemberHolds) {
  using ftr::rec::newest_common_generation;
  // Regular ticks: members hold the same two generations, or one member is
  // a tick behind — the newest common step either way.
  EXPECT_EQ(newest_common_generation({{8, 12}, {8, 12}, {8, 12}}), 12);
  EXPECT_EQ(newest_common_generation({{8, 12}, {4, 8}}), 8);
  // A member holding nothing (its holder died) switches the rung off, and
  // so do a grid with no members and sets that share no step.
  EXPECT_EQ(newest_common_generation({{8, 12}, {}}), -1);
  EXPECT_EQ(newest_common_generation({}), -1);
  EXPECT_EQ(newest_common_generation({{12, 16}, {4, 8}}), -1);
  // A lost replication: the second member missed step 8, so the newest
  // steps disagree and the generation both still hold is the older one.
  EXPECT_EQ(newest_common_generation({{4, 8}, {4, 12}}), 4);
}

TEST(BuddyWire, PackUnpackRoundTripAndRejection) {
  const std::vector<double> data{0.25, -1.0, 9.5};
  auto buf = ftr::rec::pack_replica(2, 1, 12, data);
  auto msg = ftr::rec::check_replica(buf.data(), buf.size());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->grid, 2);
  EXPECT_EQ(msg->grank, 1);
  EXPECT_EQ(msg->step, 12);
  EXPECT_EQ(msg->count, 3);
  EXPECT_EQ(payload_of(buf), data);

  // Count-0 marker: valid, empty payload (the "generation vanished" reply).
  auto marker = ftr::rec::pack_replica(2, 1, 12, {});
  auto decoded = ftr::rec::check_replica(marker.data(), marker.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->count, 0);
  EXPECT_TRUE(payload_of(marker).empty());

  // Truncation and corruption are rejected, not mis-decoded.
  EXPECT_FALSE(ftr::rec::check_replica(buf.data(), buf.size() - 1).has_value());
  EXPECT_FALSE(ftr::rec::check_replica(buf.data(), 3).has_value());
  buf[buf.size() - 2] ^= std::byte{0x40};
  EXPECT_FALSE(ftr::rec::check_replica(buf.data(), buf.size()).has_value());
}

TEST(BuddyWire, CountWithAFlippedHighBitIsRejected) {
  // Bit 61 of the count (header long 3) multiplies by 8 to 2^64, so count * 8
  // wraps back to the true payload size; the reader must still reject it
  // rather than try to allocate 2^61 doubles.
  const std::vector<double> data(64, 0.5);
  auto buf = ftr::rec::pack_replica(1, 0, 8, data);
  ASSERT_TRUE(ftr::rec::check_replica(buf.data(), buf.size()).has_value());
  buf[3 * sizeof(long) + 7] ^= std::byte{0x20};
  EXPECT_FALSE(ftr::rec::check_replica(buf.data(), buf.size()).has_value());
}

TEST(BuddyWire, LayoutAndCrcValuesArePinned) {
  // {grid, group rank, step, count, crc} as five longs, then the doubles;
  // the CRC values are the ones every earlier replica and checkpoint
  // carried.
  const std::vector<double> data{0.25, -1.0, 9.5};
  const auto buf = ftr::rec::pack_replica(2, 1, 12, data);
  ASSERT_EQ(buf.size(), 5 * sizeof(long) + 3 * sizeof(double));
  long header[5];
  std::memcpy(header, buf.data(), sizeof(header));
  EXPECT_EQ(header[0], 2);
  EXPECT_EQ(header[1], 1);
  EXPECT_EQ(header[2], 12);
  EXPECT_EQ(header[3], 3);
  EXPECT_EQ(header[4], 0x00d010a1L);
  EXPECT_EQ(ftr::rec::snapshot_crc(12, data), 0x00d010a1u);
  EXPECT_EQ(std::memcmp(buf.data() + 5 * sizeof(long), data.data(), 3 * sizeof(double)), 0);
  EXPECT_EQ(ftr::rec::snapshot_crc(12, std::vector<double>{}), 0x4b99989du);
  std::vector<double> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0.001 * static_cast<double>(i) - 1.5;
  EXPECT_EQ(ftr::rec::snapshot_crc(96, big), 0xf5bcc09au);
  EXPECT_EQ(ftr::rec::snapshot_crc(96, reinterpret_cast<const std::byte*>(big.data()), big.size()),
            0xf5bcc09au);
}

TEST(BuddyWire, FieldPackMatchesPackReplicaOfTheInterior) {
  // Packing straight from the rows gives the bytes and CRC of packing the
  // interior first, into a buffer allocated once at its final size, at
  // every block width from 1 to 40 (every tail of the 8-double row
  // alignment) and heights 1 to 3.
  for (int w = 1; w <= 40; ++w) {
    for (int h = 1; h <= 3; ++h) {
      const auto f = numbered_field(w, h);
      const auto want = ftr::rec::pack_replica(4, 2, 96, f.pack_interior());
      const auto got = ftr::rec::pack_field_replica(4, 2, 96, f);
      EXPECT_EQ(got, want) << "width " << w << ", height " << h;
      EXPECT_EQ(got.capacity(), got.size()) << "width " << w << ", height " << h;
      const auto head = ftr::rec::check_replica(got.data(), got.size());
      ASSERT_TRUE(head.has_value()) << "width " << w << ", height " << h;
      EXPECT_EQ(head->crc, ftr::rec::snapshot_crc(96, f.pack_interior()));
      EXPECT_EQ(head->count, static_cast<long>(w) * h);
    }
  }
}

TEST(BuddyDrain, KeepsTheSentBufferAndRejectsCorruptReplicas) {
  // An owner streams four replicas of a 64 x 64 block (one overlap
  // replica) to its holder: good at step 8, a flipped payload bit and a
  // flipped bit 61 of the count at step 12, good at step 16.  The drain
  // stores the two good ones and drops the others.  No buffer of replica
  // size is allocated but the owner's four packs: the drain keeps the
  // payload it received, which is the buffer the owner packed.
  constexpr int kSide = 64;
  const std::size_t replica_bytes =
      ftr::rec::kReplicaHeaderBytes + kSide * kSide * sizeof(double);
  ftmpi::Runtime rt;
  BuddyStore store;
  std::atomic<int> drained{-1};
  std::atomic<int> sent_ok{0};
  std::atomic<long> big_allocs{-1};
  std::atomic<ftmpi::ProcId> holder{ftmpi::kNullProc};
  const auto field = numbered_field(kSide, kSide);
  rt.register_app("main", [&](const std::vector<std::string>&) {
    ftmpi::Comm& w = ftmpi::world();
    const auto send = [&](std::vector<std::byte> wire) {
      ftmpi::Request req;
      sent_ok += ftmpi::isend_bytes(std::move(wire), 1, ftr::rec::kTagBuddyRepl, w, &req) ==
                     ftmpi::kSuccess &&
                 ftmpi::wait(&req) == ftmpi::kSuccess;
    };
    ASSERT_EQ(ftmpi::barrier(w), ftmpi::kSuccess);
    if (w.rank() == 0) {
      ftr_test::arm_alloc_count(replica_bytes);
      send(ftr::rec::pack_field_replica(0, 0, 8, field));
      auto bad_payload = ftr::rec::pack_field_replica(0, 0, 12, field);
      bad_payload[ftr::rec::kReplicaHeaderBytes + 5] ^= std::byte{0x10};
      send(std::move(bad_payload));
      auto bad_count = ftr::rec::pack_field_replica(0, 0, 12, field);
      bad_count[3 * sizeof(long) + 7] ^= std::byte{0x20};
      send(std::move(bad_count));
      send(ftr::rec::pack_field_replica(0, 0, 16, field));
    }
    ASSERT_EQ(ftmpi::barrier(w), ftmpi::kSuccess);
    if (w.rank() == 1) {
      drained = ftr::rec::buddy_drain(store, w);
      holder = ftmpi::self_pid();
    }
    ASSERT_EQ(ftmpi::barrier(w), ftmpi::kSuccess);
    if (w.rank() == 0) big_allocs = ftr_test::disarm_alloc_count();
  });
  rt.run("main", 2);
  EXPECT_EQ(sent_ok.load(), 4);
  EXPECT_EQ(drained.load(), 2);
  EXPECT_EQ(big_allocs.load(), 4);
  const auto h = store.holding(holder.load(), 0, 0);
  EXPECT_EQ(h.newest, 16);
  EXPECT_EQ(h.prev, 8);
  EXPECT_EQ(store.replications(), 2);
  EXPECT_EQ(store.read_at(holder.load(), 0, 0, 8).value(),
            ftr::rec::pack_replica(0, 0, 8, field.pack_interior()));
  // A corrupted stored generation still falls back to the previous one.
  store.corrupt_newest(holder.load(), 0, 0);
  EXPECT_FALSE(store.read_at(holder.load(), 0, 0, 16).has_value());
  EXPECT_EQ(store.corrupt_detected(), 1);
  EXPECT_EQ(payload_of(store.read_at(holder.load(), 0, 0, 8).value()), field.pack_interior());
}

// --- end-to-end -------------------------------------------------------------

TEST(PlannerApp, PartnerPairLossRecoveredViaBuddyWithinTolerance) {
  // The acceptance pattern: a grid AND its RC partner lost together — the
  // paper's RC aborts on it.  With buddy snapshots the planner restores
  // both grids exactly (snapshot + deterministic recompute), so the
  // combined-solution error matches the clean run to 1e-10.
  const double err_clean = clean_error(Technique::ResamplingCopying);
  ASSERT_GE(err_clean, 0.0);

  AppConfig cfg = small_app(Technique::ResamplingCopying);
  const int dup0 = ftr::rec::rc_partner(build_layout(cfg.layout).slots, 0).value();
  cfg.recovery = RecoveryPolicy::Planner;
  cfg.buddy_every = 4;
  cfg.failures.simulated_lost_grids = {0, dup0};
  ASSERT_FALSE(ftr::rec::rc_loss_allowed(build_layout(cfg.layout).slots,
                                         cfg.failures.simulated_lost_grids));

  ftmpi::Runtime rt(rt_opts());
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 0);
  EXPECT_NEAR(rt.get(keys::kErrorL1, -1), err_clean, 1e-10);
  EXPECT_DOUBLE_EQ(rt.get(std::string(keys::kPlanPrefix) + "buddy", 0), 2.0);
  EXPECT_GT(rt.get(keys::kBuddyReplications, 0), 0.0);
  EXPECT_GT(rt.get(keys::kBuddyReplBytes, 0), 0.0);
  EXPECT_GT(rt.get(keys::kRecoveryBytes, 0), 0.0);
}

TEST(PlannerApp, ExhaustiveSimulatedLossSweepRecoversOrDegrades) {
  // Every single loss, every RC-fatal partner pair, and a partner pair plus
  // a third grid: planner runs must complete (never abort) with a sane
  // combined error.  Exact-recovery patterns (buddy serves every lost
  // grid) must also match the clean error.
  const double err_clean = clean_error(Technique::ResamplingCopying);
  ASSERT_GE(err_clean, 0.0);
  const Layout layout = build_layout(small_layout(Technique::ResamplingCopying));
  const int n = static_cast<int>(layout.slots.size());

  std::vector<std::vector<int>> patterns;
  for (int g = 0; g < n; ++g) patterns.push_back({g});
  std::vector<std::vector<int>> fatal_pairs;
  for (int g = 0; g < n; ++g) {
    const auto p = ftr::rec::rc_partner(layout.slots, g);
    if (p.has_value() && *p > g) fatal_pairs.push_back({g, *p});
  }
  ASSERT_GE(fatal_pairs.size(), 3u);
  patterns.insert(patterns.end(), fatal_pairs.begin(), fatal_pairs.end());
  patterns.push_back({fatal_pairs[0][0], fatal_pairs[0][1], fatal_pairs[1][0]});

  for (const auto& lost : patterns) {
    AppConfig cfg = small_app(Technique::ResamplingCopying);
    cfg.recovery = RecoveryPolicy::Planner;
    cfg.buddy_every = 4;
    cfg.failures.simulated_lost_grids = lost;
    ftmpi::Runtime rt(rt_opts());
    FtApp app(cfg);
    EXPECT_EQ(app.launch(rt), 0);
    const double err = rt.get(keys::kErrorL1, -1);
    ASSERT_GE(err, 0.0);
    EXPECT_LT(err, 0.2);
    const double planned = rt.get(std::string(keys::kPlanPrefix) + "rc_copy", 0) +
                           rt.get(std::string(keys::kPlanPrefix) + "rc_resample", 0) +
                           rt.get(std::string(keys::kPlanPrefix) + "buddy", 0) +
                           rt.get(std::string(keys::kPlanPrefix) + "disk", 0) +
                           rt.get(std::string(keys::kPlanPrefix) + "gcp", 0) +
                           rt.get(std::string(keys::kPlanPrefix) + "idle", 0);
    EXPECT_DOUBLE_EQ(planned, static_cast<double>(lost.size()));
    // Copy and buddy restores are bit-exact; only resampling perturbs.
    const bool exact = rt.get(std::string(keys::kPlanPrefix) + "rc_resample", 0) == 0 &&
                       rt.get(std::string(keys::kPlanPrefix) + "gcp", 0) == 0 &&
                       rt.get(std::string(keys::kPlanPrefix) + "idle", 0) == 0;
    if (exact) {
      EXPECT_NEAR(err, err_clean, 1e-10);
    }
  }
}

TEST(PlannerApp, ChaosKillAtBuddySendRecoversFromCommonGeneration) {
  // Rank 5 (grid 1) dies entering its *second* replication send (step 8),
  // so its buddy holds only generation 4 while its group mates replicated 4
  // and 8.  The planner must agree on the common generation 4 — before any
  // disk checkpoint exists — and the snapshot + recompute is exact.
  const double err_clean = clean_error(Technique::CheckpointRestart);
  ASSERT_GE(err_clean, 0.0);

  ftmpi::Runtime rt(rt_opts());
  ChaosInjector chaos(rt);
  chaos.schedule({.phase = "buddy.send", .victim = 5, .occurrence = 2});
  AppConfig cfg = small_app(Technique::CheckpointRestart);
  cfg.recovery = RecoveryPolicy::Planner;
  cfg.buddy_every = 4;
  FtApp app(cfg);
  const int killed = app.launch(rt);
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(chaos.kills_fired(), 1);
  EXPECT_DOUBLE_EQ(rt.get(keys::kRepairs, -1), 1.0);
  EXPECT_DOUBLE_EQ(rt.get(std::string(keys::kPlanPrefix) + "buddy", 0), 1.0);
  EXPECT_NEAR(rt.get(keys::kErrorL1, -1), err_clean, 1e-10);
}

TEST(PlannerApp, ChaosSeedSweepAtBuddySendAlwaysRecovers) {
  // Random victims at the replication boundary: whether or not the victim
  // ever replicated, the planner finds a rung (buddy or disk/recompute)
  // and recovery stays exact.
  const double err_clean = clean_error(Technique::CheckpointRestart);
  ASSERT_GE(err_clean, 0.0);
  const Layout layout = build_layout(small_layout(Technique::CheckpointRestart));

  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    ftmpi::Runtime rt(rt_opts());
    ChaosInjector chaos(rt);
    for (const ChaosEvent& ev :
         ChaosInjector::random_plan(seed, layout.total_procs, 1, {"buddy.send"})) {
      chaos.schedule(ev);
    }
    AppConfig cfg = small_app(Technique::CheckpointRestart);
    cfg.recovery = RecoveryPolicy::Planner;
    cfg.buddy_every = 4;
    FtApp app(cfg);
    const int killed = app.launch(rt);
    EXPECT_EQ(killed, chaos.kills_fired()) << "seed " << seed;
    EXPECT_GE(rt.get(keys::kRepairs, -1), 1.0) << "seed " << seed;
    const double err = rt.get(keys::kErrorL1, -1);
    ASSERT_GE(err, 0.0) << "seed " << seed;
    EXPECT_LT(err, 0.2) << "seed " << seed;
    // Lower-diagonal victims may come back through the (approximate) RC
    // resample rung — cheaper than buddy on the lattice; every other rung
    // the planner can pick here is bit-exact.
    if (rt.get(std::string(keys::kPlanPrefix) + "rc_resample", 0) == 0) {
      EXPECT_NEAR(err, err_clean, 1e-10) << "seed " << seed;
    }
  }
}

TEST(PlannerApp, ReplicationDoesNotPerturbResultsWithoutFailures) {
  // Buddy replication only spends (virtual) time; a failure-free planner
  // run must reproduce the technique-mode solution bit for bit, while the
  // replication totals show the overlap machinery actually ran.
  const double err_clean = clean_error(Technique::ResamplingCopying);
  AppConfig cfg = small_app(Technique::ResamplingCopying);
  cfg.recovery = RecoveryPolicy::Planner;
  cfg.buddy_every = 4;
  ftmpi::Runtime rt(rt_opts());
  FtApp app(cfg);
  EXPECT_EQ(app.launch(rt), 0);
  EXPECT_DOUBLE_EQ(rt.get(keys::kErrorL1, -1), err_clean);
  EXPECT_GT(rt.get(keys::kBuddyReplications, 0), 0.0);
  EXPECT_GT(rt.get(keys::kBuddyReplBytes, 0), 0.0);
  EXPECT_GE(rt.get(keys::kBuddyReplTime, 0), 0.0);
}
