// Table I reproduction: per-primitive wall times of the fault-tolerant MPI
// operations — MPI_Comm_spawn_multiple, OMPI_Comm_shrink, OMPI_Comm_agree,
// MPI_Intercomm_merge — when two processes have failed, across the paper's
// core ladder (19, 38, 76, 152, 304).
//
// Expected shape (the paper's observation about the beta ULFM): spawn and
// shrink dominate and grow steeply with the core count; agree is smaller;
// merge is negligible.  Absolute magnitudes differ from the paper's beta
// implementation (see DESIGN.md "Known deviations").
//
// --json=<path> also writes the simulator's own cost per core count, in
// google-benchmark JSON for tools/bench_to_json.py (the CI scaling gate):
// BM_Table1Scale/<cores>/wall is ranks per second of wall time over the
// count's reps, BM_Table1Scale/<cores>/peak_rss ranks per MB of the
// process's peak RSS so far.  A peak covers every count run before it, so
// the gate runs one count per process.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"

using namespace ftr;
using namespace ftr::bench;
using namespace ftr::core;

namespace {

struct Sample {
  double spawn = 0, shrink = 0, agree = 0, merge = 0;
};

Sample measure(const BenchEnv& env, int procs, int failures) {
  ftmpi::Runtime rt(env.runtime_options(/*scale_compute=*/false));
  std::atomic<double> spawn{0}, shrink{0}, agree{0}, merge{0};
  rt.register_app("app", [&](const std::vector<std::string>& argv) {
    Reconstructor recon({"app", argv});
    if (!ftmpi::get_parent().is_null()) {
      recon.reconstruct({});
      return;
    }
    ftmpi::Comm w = ftmpi::world();
    if (w.rank() >= procs - failures) ftmpi::abort_self();
    const auto res = recon.reconstruct(w);
    if (w.rank() == 0) {
      spawn = res.timings.spawn;
      shrink = res.timings.shrink;
      agree = res.timings.agree;
      merge = res.timings.merge;
    }
  });
  rt.run("app", procs);
  return Sample{spawn.load(), shrink.load(), agree.load(), merge.load()};
}

/// The simulator's wall time and peak RSS for one core count.
struct HostCost {
  long cores = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void emit_json(const std::string& path, const std::vector<HostCost>& costs) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "json write failed: %s\n", path.c_str());
    return;
  }
  std::fprintf(fp, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const HostCost& c = costs[i];
    const auto ranks = static_cast<double>(c.cores);
    std::fprintf(fp,
                 "    {\"name\": \"BM_Table1Scale/%ld/wall\", \"run_type\": \"iteration\", "
                 "\"items_per_second\": %.6f, \"real_time\": %.6f, \"time_unit\": \"s\"},\n",
                 c.cores, ranks / c.wall_s, c.wall_s);
    std::fprintf(fp,
                 "    {\"name\": \"BM_Table1Scale/%ld/peak_rss\", \"run_type\": \"iteration\", "
                 "\"items_per_second\": %.6f, \"peak_rss_mb\": %.3f}%s\n",
                 c.cores, ranks / c.peak_rss_mb, c.peak_rss_mb,
                 i + 1 < costs.size() ? "," : "");
  }
  std::fprintf(fp, "  ]\n}\n");
  std::fclose(fp);
  std::printf("json written: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  BenchEnv env = BenchEnv::from_cli(cli);
  const auto cores = cli.get_int_list("cores", {19, 38, 76, 152, 304});
  const int failures = static_cast<int>(cli.get_int("failures", 2));
  const std::string json = cli.get("json", "");

  Table table({"cores", "spawn_multiple(s)", "shrink(s)", "agree(s)", "merge(s)"});
  std::vector<HostCost> costs;
  for (long procs : cores) {
    std::vector<double> vs, vh, va, vm;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < env.reps; ++rep) {
      const Sample s = measure(env, static_cast<int>(procs), failures);
      vs.push_back(s.spawn);
      vh.push_back(s.shrink);
      va.push_back(s.agree);
      vm.push_back(s.merge);
    }
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
    costs.push_back({procs, wall.count(), peak_rss_mb()});
    table.add_row({Table::num(procs), Table::num(mean(vs)), Table::num(mean(vh)),
                   Table::num(mean(va)), Table::num(mean(vm))});
  }
  emit(table, env,
       "Table I: fault-tolerant MPI primitive times with " + std::to_string(failures) +
           " failed processes");
  if (!json.empty()) emit_json(json, costs);
  return 0;
}
