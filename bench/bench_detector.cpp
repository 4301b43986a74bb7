// Failure-detector benches (google-benchmark, *virtual* time via manual
// timing): the detection-latency curve of the heartbeat ring + gossip
// overlay, and the per-call agreement cost of the tree vs. the linear
// coordinator protocol, each across several world sizes.
//
// Unlike bench_micro these report modeled (virtual) seconds, which is the
// quantity the detector design argues about: detection latency must stay
// bounded as the world grows (the ring timeout plus O(log N) gossip hops,
// never an O(N) sweep), and tree agreement must cost O(log N) hops against
// the coordinator protocol's O(N).  Virtual time is deterministic, so these
// curves are stable enough for the perf-regression gate
// (tools/bench_to_json.py --max-regression).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ftmpi/api.hpp"
#include "ftmpi/detector.hpp"
#include "ftmpi/runtime.hpp"

namespace {

/// Real-time startup rendezvous: rank threads start sequentially, so every
/// ring measurement must hold all ranks at the line until the ring is up
/// (same idiom as tests/test_detector.cpp).
void rendezvous(std::atomic<int>& arrived, int expected) {
  ++arrived;
  while (arrived.load() < expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// One full detection episode on a fresh world of `nprocs`: a middle rank
/// dies, every survivor ticks its virtual clock until it learns, and the
/// episode's latency is the *worst* survivor's virtual learn time (the
/// point where the whole membership has converged).
double detection_latency_episode(int nprocs) {
  ftmpi::Runtime::Options o;
  o.slots_per_host = nprocs;
  o.real_time_limit_sec = 120.0;
  ftmpi::Runtime rt(o);
  const int victim = nprocs / 2;
  std::atomic<int> arrived{0};
  std::mutex mu;
  double worst = 0.0;
  rt.register_app("app", [&](const std::vector<std::string>&) {
    ftmpi::Comm w = ftmpi::world();
    const ftmpi::ProcId vpid = w.group().pids[static_cast<size_t>(victim)];
    rendezvous(arrived, nprocs);
    if (w.rank() == victim) ftmpi::abort_self();
    for (int t = 0; t < 1200; ++t) {
      ftmpi::advance(0.05);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      bool mine = false;
      for (const auto& r : ftmpi::detector_records()) {
        if (r.dead == vpid) {
          std::lock_guard<std::mutex> lk(mu);
          if (r.when > worst) worst = r.when;
          mine = true;
        }
      }
      if (mine) break;
    }
  });
  rt.run("app", nprocs);
  return worst;
}

void BM_DetectionLatency(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.SetIterationTime(detection_latency_episode(nprocs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectionLatency)->Arg(8)->Arg(16)->Arg(32)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Average virtual cost of one comm_agree over `nprocs` ranks, with the
/// tree (Options::tree_protocols) or the linear coordinator protocol.
double agree_cost_episode(int nprocs, bool tree) {
  ftmpi::Runtime::Options o;
  o.slots_per_host = nprocs;
  o.real_time_limit_sec = 120.0;
  o.tree_protocols = tree;
  ftmpi::Runtime rt(o);
  std::atomic<double> cost{0.0};
  std::atomic<int> failures{0};
  rt.register_app("app", [&](const std::vector<std::string>&) {
    ftmpi::Comm w = ftmpi::world();
    constexpr int kRounds = 8;
    const double t0 = ftmpi::wtime();
    for (int i = 0; i < kRounds; ++i) {
      int flag = 1;
      if (ftmpi::comm_agree(w, &flag) != ftmpi::kSuccess) ++failures;
    }
    if (w.rank() == 0) cost.store((ftmpi::wtime() - t0) / kRounds);
  });
  rt.run("app", nprocs);
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_detector: %d agree failures on a healthy "
                         "world of %d\n", failures.load(), nprocs);
  }
  return cost.load();
}

void BM_TreeAgreeCost(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.SetIterationTime(agree_cost_episode(nprocs, /*tree=*/true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeAgreeCost)->Arg(8)->Arg(16)->Arg(32)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_LinearAgreeCost(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.SetIterationTime(agree_cost_episode(nprocs, /*tree=*/false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearAgreeCost)->Arg(8)->Arg(16)->Arg(32)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
