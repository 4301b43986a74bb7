// Overlapped-recovery headline metric: timesteps of forward progress lost
// per failure, stop-the-world vs overlapped, as a function of world size.
//
// One rank of a minority grid (grid 1) is killed mid-interval at step f.
// The continuation ranks — every survivor whose grid is unaffected — owe
// (target - f) timesteps before the next combination point.  Under the
// classic stop-the-world repair they compute none of them until the repair
// finishes; under RecoveryPolicy::Overlap they keep stepping on the
// continuation sub-communicator while the repair group rebuilds the world,
// and the runtime counts those steps (keys::kOverlapSteps).  Reported per
// (world size, mode):
//
//     steps_lost_per_failure = (target - f) - overlap_steps / n_continuation
//
// i.e. the deferred timesteps per continuation rank per failure (the
// stop-the-world rows measure overlap_steps = 0 by construction).  Expected
// shape: the overlapped value sits strictly below the stop-the-world value
// and trends toward zero as the world grows, because the repair window
// (spawn/merge scale with the core count, Fig. 8) grows while the owed step
// count stays fixed — given a long enough window the continuation side
// finishes its interval entirely behind the repair.
//
// --json <path> additionally emits the table in google-benchmark JSON
// format so tools/bench_to_json.py can merge it into BENCH_micro.json.  The
// per-world rows publish steps_lost_per_failure as a bare counter (the step
// at which the continuation side sees the doorbell depends on thread
// interleaving, so a single world size is too noisy to gate); the
// BM_StepsLostPerFailure/mean/* rows aggregate all worlds and reps and
// carry the gate metric items_per_second = 1 / (1 + steps_lost), which
// drops when a regression makes overlapped recovery lose more steps.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/async_repair.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "core/metrics.hpp"
#include "ftmpi/api.hpp"

using namespace ftr;
using namespace ftr::bench;
using namespace ftr::core;

namespace {

struct Sample {
  double steps_lost = 0;  ///< per continuation rank, per failure
  double overlap_steps = 0;
  double handoffs = 0;
  double aborts = 0;
  bool ok = false;
};

/// Layout scaled by `k`: 3 diagonal grids of 4k ranks + 2 lower-diagonal
/// grids of 2k ranks = 16k ranks total (CR allocates no extra layers).
LayoutConfig scaled_layout(int k) {
  LayoutConfig cfg;
  cfg.scheme = ftr::comb::Scheme{6, 3};
  cfg.technique = ftr::comb::Technique::CheckpointRestart;
  cfg.procs_diagonal = 4 * k;
  cfg.procs_lower = 2 * k;
  cfg.procs_extra_upper = 2;
  cfg.procs_extra_lower = 1;
  return cfg;
}

/// Grid 1's second member: in grid 1 but never the repair leader (its
/// first rank) and never world rank 0.
int pick_victim(const Layout& layout) {
  for (int r = 1; r < layout.total_procs; ++r) {
    if (layout.grid_of_rank(r) == 1) return r + 1;
  }
  return -1;
}

/// The classification the overlap machinery will compute for the kill.
overlap::Classification classify_kill(const Layout& layout, int victim) {
  std::vector<int> survivors;
  for (int r = 0; r < layout.total_procs; ++r) {
    if (r != victim) survivors.push_back(r);
  }
  return overlap::classify(layout, survivors, {victim});
}

/// One measurement: kill one rank of grid 1 at step `f`, recover under
/// `policy`, and convert the runtime's overlap-step counter into the
/// deferred-steps metric.
Sample measure(const BenchEnv& env, int k, long f, long owed, RecoveryPolicy policy) {
  const Layout layout = build_layout(scaled_layout(k));
  const int victim = pick_victim(layout);
  const auto cls = classify_kill(layout, victim);
  const auto n_cont = static_cast<double>(cls.continuation.size());

  ftmpi::Runtime::Options opt = env.runtime_options(/*scale_compute=*/true);
  opt.slots_per_host = 16;
  ftmpi::Runtime rt(opt);
  AppConfig cfg;
  cfg.layout = scaled_layout(k);
  cfg.timesteps = env.timesteps;
  cfg.checkpoints = 2;
  cfg.recovery = policy;
  cfg.failures.kill_at_step[victim] = f;
  FtApp app(cfg);
  const int killed = app.launch(rt);

  Sample s;
  s.overlap_steps = rt.get(keys::kOverlapSteps, 0);
  s.handoffs = rt.get(keys::kOverlapHandoffs, 0);
  s.aborts = rt.get(keys::kOverlapAborts, 0);
  const double lost =
      static_cast<double>(owed) - (n_cont > 0 ? s.overlap_steps / n_cont : 0.0);
  s.steps_lost = lost < 0.0 ? 0.0 : lost;
  s.ok = killed == 1 && cls.overlappable() && rt.get(keys::kErrorL1, -1) >= 0.0;
  return s;
}

void emit_json(const std::string& path,
               const std::vector<std::tuple<int, std::string, double>>& rows) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "json write failed: %s\n", path.c_str());
    return;
  }
  std::fprintf(fp, "{\n  \"benchmarks\": [\n");
  double sum[2] = {0, 0};  // [stop_the_world, overlap]
  int cnt[2] = {0, 0};
  for (const auto& [world, mode, lost] : rows) {
    (void)world;
    const int side = mode == "overlap" ? 1 : 0;
    sum[side] += lost;
    ++cnt[side];
  }
  for (const auto& [world, mode, lost] : rows) {
    std::fprintf(fp,
                 "    {\"name\": \"BM_StepsLostPerFailure/w%d/%s\", "
                 "\"run_type\": \"iteration\", "
                 "\"steps_lost_per_failure\": %.6f},\n",
                 world, mode.c_str(), lost);
  }
  for (int side = 0; side < 2; ++side) {
    const double m = cnt[side] > 0 ? sum[side] / cnt[side] : 0.0;
    std::fprintf(fp,
                 "    {\"name\": \"BM_StepsLostPerFailure/mean/%s\", "
                 "\"run_type\": \"iteration\", "
                 "\"items_per_second\": %.9f, "
                 "\"steps_lost_per_failure\": %.6f}%s\n",
                 side == 1 ? "overlap" : "stop_the_world", 1.0 / (1.0 + m), m,
                 side == 1 ? "" : ",");
  }
  std::fprintf(fp, "  ]\n}\n");
  std::fclose(fp);
  std::printf("json written: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_cli(cli);
  env.timesteps = cli.get_int("steps", 24);
  // Doorbell timing jitters with thread interleaving; more reps than the
  // figure benches keeps the published means (and the CI gate on them) firm.
  env.reps = static_cast<int>(cli.get_int("reps", 10));
  const auto scales = cli.get_int_list("scale", {1, 2, 3, 4});
  const long f = cli.get_int("kill_step", 10);
  const std::string json = cli.get("json", "");

  // Checkpoint interval of timesteps/3 (checkpoints=2): the kill at step f
  // owes the continuation side the rest of its interval.
  const long ivl = env.timesteps / 3;
  const long target = ((f + ivl - 1) / ivl) * ivl;
  const long owed = target - f;

  Table table({"world", "mode", "steps_owed", "overlap_steps", "n_cont",
               "steps_lost_per_failure", "handoffs", "aborts", "ok"});
  std::vector<std::tuple<int, std::string, double>> rows;
  for (long k : scales) {
    const Layout layout = build_layout(scaled_layout(static_cast<int>(k)));
    const int world = layout.total_procs;
    for (const auto policy : {RecoveryPolicy::Planner, RecoveryPolicy::Overlap}) {
      const bool ovl = policy == RecoveryPolicy::Overlap;
      std::vector<double> lost, osteps;
      bool all_ok = true;
      double n_cont = 0, handoffs = 0, aborts = 0;
      for (int rep = 0; rep < env.reps; ++rep) {
        const Sample s = measure(env, static_cast<int>(k), f, owed, policy);
        lost.push_back(s.steps_lost);
        osteps.push_back(s.overlap_steps);
        handoffs += s.handoffs;
        aborts += s.aborts;
        all_ok = all_ok && s.ok;
      }
      n_cont = static_cast<double>(classify_kill(layout, pick_victim(layout))
                                       .continuation.size());
      const std::string mode = ovl ? "overlap" : "stop_the_world";
      table.add_row({Table::num(static_cast<long>(world)), mode, Table::num(owed),
                     Table::num(mean(osteps)),
                     Table::num(n_cont), Table::num(mean(lost)),
                     Table::num(handoffs / env.reps), Table::num(aborts / env.reps),
                     all_ok ? "yes" : "NO"});
      rows.emplace_back(world, mode, mean(lost));
    }
  }
  emit(table, env,
       "Overlapped recovery: timesteps lost per failure (per continuation rank), "
       "stop-the-world vs overlapped, one minority-grid failure");
  if (!json.empty()) emit_json(json, rows);
  return 0;
}
