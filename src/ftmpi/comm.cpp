#include "ftmpi/comm.hpp"

namespace ftmpi {

namespace {

/// pid -> rank in g, -1 for a non-member.  Pids are small dense integers,
/// so one pass over g builds it and every lookup is O(1).
std::vector<int> rank_table(const Group& g) {
  ProcId top = kNullProc;
  for (ProcId p : g.pids) top = std::max(top, p);
  std::vector<int> table(static_cast<size_t>(top + 1), -1);
  for (int r = 0; r < g.size(); ++r) {
    const ProcId p = g.pids[static_cast<size_t>(r)];
    if (p >= 0) table[static_cast<size_t>(p)] = r;
  }
  return table;
}

int rank_in(const std::vector<int>& table, ProcId p) {
  return p >= 0 && static_cast<size_t>(p) < table.size() ? table[static_cast<size_t>(p)] : -1;
}

}  // namespace

void CommContext::index_members() {
  const Group& g = agreement_group();
  member_index.clear();
  member_index.reserve(g.pids.size());
  for (int r = 0; r < g.size(); ++r) member_index.emplace_back(g.pids[static_cast<size_t>(r)], r);
  // Stable, so a pid listed twice maps to its first rank, as Group::rank_of.
  std::stable_sort(member_index.begin(), member_index.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
}

int CommContext::agreement_rank(ProcId pid) const {
  const auto it = std::lower_bound(member_index.begin(), member_index.end(), pid,
                                   [](const auto& e, ProcId p) { return e.first < p; });
  return it != member_index.end() && it->first == pid ? it->second : -1;
}

int CommContext::rank_of(int side, ProcId pid) const {
  const int r = agreement_rank(pid);
  if (!is_inter) return side == 0 ? r : -1;
  // Side 1 follows all of side 0 in the agreement group.
  const int n0 = group[0].size();
  if (side == 0) return r < n0 ? r : -1;
  return r >= n0 ? r - n0 : -1;
}

GroupOrder group_compare(const Group& a, const Group& b) {
  if (a.pids == b.pids) return GroupOrder::Ident;
  if (a.pids.size() != b.pids.size()) return GroupOrder::Unequal;
  const std::vector<int> in_b = rank_table(b);
  for (ProcId p : a.pids) {
    if (rank_in(in_b, p) < 0) return GroupOrder::Unequal;
  }
  return GroupOrder::Similar;
}

Group group_difference(const Group& a, const Group& b) {
  Group out;
  const std::vector<int> in_b = rank_table(b);
  for (ProcId p : a.pids) {
    if (rank_in(in_b, p) < 0) out.pids.push_back(p);
  }
  return out;
}

std::vector<int> group_translate_ranks(const Group& a, const std::vector<int>& ranks_in_a,
                                       const Group& b) {
  const std::vector<int> in_b = rank_table(b);
  std::vector<int> out;
  out.reserve(ranks_in_a.size());
  for (int r : ranks_in_a) {
    out.push_back(r < 0 || r >= a.size() ? -1 : rank_in(in_b, a.pids[static_cast<size_t>(r)]));
  }
  return out;
}

}  // namespace ftmpi
