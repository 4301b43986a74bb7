#pragma once
// Shared support for the figure/table reproduction benches.
//
// Every bench binary regenerates one of the paper's exhibits on the
// simulated cluster.  All reported times are *virtual* seconds from the
// runtime's cost model (see src/ftmpi/cost_model.hpp): a workstation with a
// few cores cannot run hundreds of ranks in parallel, so modeled time — a
// deterministic function of message, I/O and compute counts — is what
// reproduces the paper's 19-304-core sweeps and disk-latency contrasts.
//
// Workload scaling: the paper runs 2^13 timesteps on full grid size n = 13;
// the benches default to n = 8 and 2^7 steps so a full sweep finishes in
// minutes of real time.  To keep the *ratios* that drive the paper's
// results (step time vs message latency vs checkpoint T_IO) at paper-like
// magnitudes despite the smaller grids, the benches lower the modeled
// cell-update rate (kBenchCellRate); see DESIGN.md "Substitutions".

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "ftmpi/cost_model.hpp"
#include "ftmpi/runtime.hpp"

namespace ftr::bench {

/// Modeled cell updates per second used by the application benches: tuned
/// so a default run (n = 8, 128 steps) spends paper-like virtual time per
/// step relative to network latency and checkpoint I/O.
inline constexpr double kBenchCellRate = 4.0e5;

struct BenchEnv {
  ftmpi::ClusterProfile profile = ftmpi::ClusterProfile::opl();
  int reps = 3;
  long timesteps = 128;
  int n = 8;
  int l = 4;
  std::string csv;  // optional CSV output path
  bool verbose = false;

  static BenchEnv from_cli(const ftr::Cli& cli) {
    BenchEnv env;
    env.profile = ftmpi::ClusterProfile::by_name(cli.get("profile", "opl"));
    env.reps = static_cast<int>(cli.get_int("reps", env.reps));
    env.timesteps = cli.get_int("steps", env.timesteps);
    env.n = static_cast<int>(cli.get_int("n", env.n));
    env.l = static_cast<int>(cli.get_int("l", env.l));
    env.csv = cli.get("csv", "");
    env.verbose = cli.get_bool("verbose", false);
    return env;
  }

  [[nodiscard]] ftmpi::Runtime::Options runtime_options(bool scale_compute = true) const {
    ftmpi::Runtime::Options opt;
    opt.slots_per_host = profile.slots_per_host;
    opt.cost = profile.cost;
    if (scale_compute) opt.cost.cell_update_rate = kBenchCellRate;
    opt.real_time_limit_sec = 600.0;
    return opt;
  }
};

/// Reference timestep (virtual seconds) for expressing repair windows in
/// units of lost timesteps: one full-grid sweep at the bench cell rate, the
/// same normalization the application benches use for their step costs.
[[nodiscard]] inline double reference_step_seconds(const BenchEnv& env) {
  const double side = static_cast<double>((1 << env.n) + 1);
  return side * side / kBenchCellRate;
}

/// Survivor-averaged fraction of the repair window still lost under
/// overlapped recovery: only the affected grids' survivors (the repair
/// group) park while continuation ranks keep stepping, so with each failure
/// hitting a distinct grid of `grid_ranks` members, the per-survivor
/// average shrinks with the core count — toward zero for minority-grid
/// failures on large worlds (bench_overlap measures this end to end).
[[nodiscard]] inline double overlap_lost_fraction(long cores, long failures,
                                                  long grid_ranks) {
  const long survivors = cores - failures;
  if (survivors <= 0) return 1.0;
  const double f = static_cast<double>(failures * (grid_ranks - 1)) /
                   static_cast<double>(survivors);
  return f > 1.0 ? 1.0 : f;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

inline void emit(const ftr::Table& table, const BenchEnv& env, const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
  std::cout << "(virtual seconds on the simulated " << env.profile.name
            << " cluster; reps=" << env.reps << ")\n";
  table.print(std::cout);
  if (!env.csv.empty()) {
    if (table.write_csv(env.csv)) {
      std::cout << "csv written: " << env.csv << "\n";
    } else {
      std::cerr << "csv write failed: " << env.csv << "\n";
    }
  }
  std::cout.flush();
}

}  // namespace ftr::bench
