// End-to-end benchmark driver for the fault-tolerant simulator.
//
// Runs one workload closed-loop: a single client issues one op at a time
// with no think time, and op k draws its inputs from
// Xoshiro256(seed * 1000003 + k).  The simulator's rank threads belong to
// the program under test; this load generator is one thread.  Every op is
// checked against a result oracle (see the workload classes) and runs under
// a bounded Runtime::Options::real_time_limit_sec, so a hang aborts the
// process instead of stalling the benchmark; bench/e2e/run.py then counts
// the op in flight as failed and restarts the driver at the next op.
//
// Output is one JSON record per stdout line:
//   {"type":"setup", ...}   set-up times (one per --setup_reps) and sizes
//   {"type":"begin","op":k} before op k, so a crash names its op
//   {"type":"op", ...}      op k's wall time, oracle verdict and counters
//   {"type":"probe", ...}   trace mode: per-layer probes at the workload's sizes
//   {"type":"done", ...}    the run finished
// With --trace=1 every other op is traced, and its spans go to
// --spans=<path> as JSON lines that run.py merges into a Chrome trace.
//
//   bench_e2e --workload=solve|repair|recover|overlap|all --seed=S
//             [--seconds=T] [--ops=N] [--start_op=K] [--setup_reps=R]
//             [--trace=0|1] [--spans=path]

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "advection/parallel_solver.hpp"
#include "advection/serial_solver.hpp"
#include "bench_common.hpp"
#include "combination/coefficients.hpp"
#include "combination/combine.hpp"
#include "core/async_repair.hpp"
#include "core/failure_gen.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "core/reconstruct.hpp"
#include "ftmpi/api.hpp"
#include "grid/halo.hpp"
#include "grid/transfer.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/planner.hpp"

using namespace ftr;
using namespace ftr::core;
using ftr::comb::Technique;

namespace {

using Counters = std::map<std::string, double>;

// --- clocks --------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall seconds per hand-off of a token passed around a ring of 16 threads
/// through mutex + condition-variable pairs: the wake-up path every blocked
/// simulated rank takes.  On a shared host its cost swings with other
/// tenants' load (run.py rescales the kernel-time share of op times by it).
double handoff_s() {
  constexpr int kThreads = 16;
  constexpr int kRounds = 100;
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool token = false;
  };
  std::vector<Slot> slots(kThreads);
  const auto pass = [](Slot& to) {
    {
      std::lock_guard<std::mutex> lock(to.mu);
      to.token = true;
    }
    to.cv.notify_one();
  };
  std::vector<std::thread> ring;
  const double t0 = wall_now();
  for (int i = 0; i < kThreads; ++i) {
    ring.emplace_back([&slots, &pass, i] {
      Slot& me = slots[static_cast<size_t>(i)];
      for (int r = 0; r < kRounds; ++r) {
        {
          std::unique_lock<std::mutex> lock(me.mu);
          me.cv.wait(lock, [&me] { return me.token; });
          me.token = false;
        }
        pass(slots[static_cast<size_t>((i + 1) % kThreads)]);
      }
    });
  }
  pass(slots[0]);
  for (std::thread& t : ring) t.join();
  return (wall_now() - t0) / (kThreads * kRounds);
}

/// Process CPU time and context switches since construction.
class HostUsage {
 public:
  HostUsage() { getrusage(RUSAGE_SELF, &ru0_); }
  /// Adds the deltas to `c`; returns the process's peak resident set (kB).
  long add_to(Counters& c) const {
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    const auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    const double user = tv(ru1.ru_utime) - tv(ru0_.ru_utime);
    const double sys = tv(ru1.ru_stime) - tv(ru0_.ru_stime);
    c["ftmpi.host_cpu_s"] = user + sys;
    c["ftmpi.sys_cpu_frac"] = user + sys > 0 ? sys / (user + sys) : 0.0;
    c["ftmpi.ctx_switches"] = static_cast<double>((ru1.ru_nvcsw - ru0_.ru_nvcsw) +
                                                  (ru1.ru_nivcsw - ru0_.ru_nivcsw));
    return ru1.ru_maxrss;
  }

 private:
  rusage ru0_{};
};

// --- one JSON object per line on stdout ------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

class Record {
 public:
  explicit Record(const char* type) { body_ = "{\"type\":" + json_str(type); }
  Record& num(const std::string& k, double v) { return raw(k, json_num(v)); }
  Record& str(const std::string& k, const std::string& v) { return raw(k, json_str(v)); }
  Record& nums(const std::string& k, const std::map<std::string, double>& m) {
    std::string obj = "{";
    for (const auto& [key, v] : m) {
      if (obj.size() > 1) obj += ",";
      obj += json_str(key) + ":" + json_num(v);
    }
    return raw(k, obj + "}");
  }
  Record& list(const std::string& k, const std::vector<double>& v) {
    std::string arr = "[";
    for (size_t i = 0; i < v.size(); ++i) arr += (i ? "," : "") + json_num(v[i]);
    return raw(k, arr + "]");
  }
  [[nodiscard]] std::string line() const { return body_ + "}"; }
  void emit() const {
    std::printf("%s\n", line().c_str());
    std::fflush(stdout);
  }

 private:
  Record& raw(const std::string& k, const std::string& v) {
    body_ += "," + json_str(k) + ":" + v;
    return *this;
  }
  std::string body_;
};

// --- spans recorded from the benchmark's own code --------------------------------

struct Span {
  const char* name = "";
  long op = 0;
  long id = 0;
  long parent = 0;  ///< 0 = root
  int pid = -1;     ///< simulated process, -1 on the driver thread
  double t0 = 0;    ///< wall seconds (steady clock)
  double dur = 0;   ///< wall seconds
  double cpu = 0;   ///< thread CPU seconds inside the span
  double vt0 = 0, vt1 = 0;  ///< virtual clock (rank threads only)
};

/// Span store shared by the driver thread and the rank threads.  Disabled
/// spans cost one relaxed load, so traced and untraced ops run the same code.
class Tracer {
 public:
  void set(bool on, long op) {
    on_.store(on, std::memory_order_relaxed);
    op_ = op;
  }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  [[nodiscard]] long op() const { return op_; }
  long next_id() { return ++ids_; }
  void record(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  /// Spans of `op` recorded so far (moved out of the store).
  std::vector<Span> take(long op) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out, keep;
    for (Span& s : spans_) (s.op == op ? out : keep).push_back(s);
    spans_.swap(keep);
    return out;
  }

 private:
  std::atomic<bool> on_{false};
  long op_ = 0;
  std::atomic<long> ids_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tr, const char* name, long parent) : tr_(tr) {
    if (!tr_.on()) return;
    s_.name = name;
    s_.op = tr_.op();
    s_.id = tr_.next_id();
    s_.parent = parent;
    if (ftmpi::Runtime::current() != nullptr) {
      s_.pid = ftmpi::self_pid();
      s_.vt0 = ftmpi::wtime();
    }
    s_.cpu = thread_cpu_now();
    s_.t0 = wall_now();
  }
  ~ScopedSpan() {
    if (s_.id == 0) return;
    s_.dur = wall_now() - s_.t0;
    s_.cpu = thread_cpu_now() - s_.cpu;
    // A killed rank unwinds through here; its clock is still readable.
    if (s_.pid >= 0) s_.vt1 = ftmpi::Runtime::current()->vclock;
    tr_.record(s_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] long id() const { return s_.id; }

 private:
  Tracer& tr_;
  Span s_;
};

/// For runs nobody traces (the failure-free references).
Tracer& untraced() {
  static Tracer tr;
  return tr;
}

std::string span_line(const Span& s) {
  return Record("span")
      .str("name", s.name)
      .num("op", static_cast<double>(s.op))
      .num("id", static_cast<double>(s.id))
      .num("parent", static_cast<double>(s.parent))
      .num("pid", s.pid)
      .num("t0", s.t0)
      .num("dur", s.dur)
      .num("cpu", s.cpu)
      .num("vt0", s.vt0)
      .num("vt1", s.vt1)
      .line();
}

// --- per-op result ----------------------------------------------------------------

/// Every counter an op reports, so all records carry the same keys.
const char* const kCounterKeys[] = {
    "ftmpi.msgs", "ftmpi.bytes", "ftmpi.cross_host_msgs", "ftmpi.procs", "ftmpi.killed",
    "ftmpi.shrink_vtime", "ftmpi.spawn_vtime", "ftmpi.agree_vtime", "ftmpi.merge_vtime",
    "ftmpi.split_vtime", "core.recon_vtime", "core.failed_list_vtime", "core.repairs",
    "core.recon_attempts", "core.overlap_steps", "core.overlap_handoffs",
    "core.overlap_aborts", "core.proactive_exits", "core.steps_lost", "recovery.vtime",
    "recovery.bytes", "recovery.ckpt_writes", "recovery.ckpt_write_vtime",
    "recovery.plan.rc_copy", "recovery.plan.rc_resample", "recovery.plan.buddy",
    "recovery.plan.disk", "recovery.plan.gcp", "recovery.plan.idle",
    "recovery.buddy_replications", "recovery.buddy_bytes", "recovery.buddy_vtime",
    "recovery.ckpt_corrupt", "recovery.ckpt_fallback_reads", "combination.vtime",
    "advection.solve_vtime"};

struct OpResult {
  bool ok = true;
  std::string why;  ///< first oracle that failed
  /// Scenario class of the op; run.py reports vtime and err_ratio as the
  /// median over classes of each class's median, so a run's mix of classes
  /// does not move them.
  long stratum = 0;
  double vtime = 0;
  double err_ratio = 0;
  Counters counters;

  OpResult() {
    for (const char* k : kCounterKeys) counters[k] = 0.0;
  }
  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A finished FtApp run: what the oracles and counters read.
struct AppRun {
  int killed = 0;
  double vt = 0;
  double err = 0;
  double mode = 0;
};

/// Run `cfg` on a fresh runtime.  A wrapper registered in place of
/// FtApp::launch calls FtApp::entry under a "rank.entry" span, one per
/// simulated process (respawned children included).
AppRun run_app(const AppConfig& cfg, const ftmpi::Runtime::Options& opt, Tracer& tr,
               long parent, Counters* c) {
  ftmpi::Runtime rt(opt);
  FtApp app(cfg);
  AppRun out;
  {
    ScopedSpan run_span(tr, "app.run", parent);
    const long run_id = run_span.id();
    rt.register_app(cfg.app_name, [&app, &tr, run_id](const std::vector<std::string>& argv) {
      ScopedSpan s(tr, "rank.entry", run_id);
      app.entry(argv);
    });
    rt.clear_results();
    out.killed = rt.run(cfg.app_name, app.layout().total_procs);
  }
  const auto bb = rt.results();
  const auto get = [&bb](const std::string& k) {
    const auto it = bb.find(k);
    return it == bb.end() ? 0.0 : it->second;
  };
  out.vt = get(keys::kTotalTime);
  out.err = bb.count(keys::kErrorL1) != 0 ? get(keys::kErrorL1) : std::nan("");
  out.mode = get(keys::kReconMode);
  if (c == nullptr) return out;

  Counters& k = *c;
  const auto st = rt.stats();
  k["ftmpi.msgs"] += static_cast<double>(st.messages);
  k["ftmpi.bytes"] += static_cast<double>(st.bytes);
  k["ftmpi.cross_host_msgs"] += static_cast<double>(st.cross_host);
  k["ftmpi.procs"] += rt.total_processes();
  k["ftmpi.killed"] += out.killed;
  k["ftmpi.shrink_vtime"] += get(keys::kReconShrink);
  k["ftmpi.spawn_vtime"] += get(keys::kReconSpawn);
  k["ftmpi.agree_vtime"] += get(keys::kReconAgree);
  k["ftmpi.merge_vtime"] += get(keys::kReconMerge);
  k["ftmpi.split_vtime"] += get(keys::kReconSplit);
  k["core.recon_vtime"] += get(keys::kReconTotal);
  k["core.failed_list_vtime"] += get(keys::kReconFailedList);
  k["core.repairs"] += get(keys::kRepairs);
  k["core.recon_attempts"] += get(keys::kReconAttempts);
  k["core.overlap_steps"] += get(keys::kOverlapSteps);
  k["core.overlap_handoffs"] += get(keys::kOverlapHandoffs);
  k["core.overlap_aborts"] += get(keys::kOverlapAborts);
  k["core.proactive_exits"] += get(keys::kProactiveExits);
  k["recovery.vtime"] += get(keys::kRecoveryTime);
  k["recovery.bytes"] += get(keys::kRecoveryBytes);
  k["recovery.ckpt_writes"] += get(keys::kCkptWrites);
  k["recovery.ckpt_write_vtime"] += get(keys::kCkptWriteTotal);
  for (const auto a : {rec::RecoveryAction::RcCopy, rec::RecoveryAction::RcResample,
                       rec::RecoveryAction::Buddy, rec::RecoveryAction::Disk,
                       rec::RecoveryAction::Gcp, rec::RecoveryAction::Idle}) {
    const std::string name = rec::action_name(a);
    k["recovery.plan." + name] += get(keys::kPlanPrefix + name);
  }
  k["recovery.buddy_replications"] += get(keys::kBuddyReplications);
  k["recovery.buddy_bytes"] += get(keys::kBuddyReplBytes);
  k["recovery.buddy_vtime"] += get(keys::kBuddyReplTime);
  k["recovery.ckpt_corrupt"] += static_cast<double>(app.checkpoint_store().corrupt_detected());
  k["recovery.ckpt_fallback_reads"] +=
      static_cast<double>(app.checkpoint_store().fallback_reads());
  k["combination.vtime"] += get(keys::kCombineTime);
  k["advection.solve_vtime"] += get(keys::kSolveTime);
  return out;
}

/// The paper's per-grid allocation (8/4/2/1 ranks per diagonal / lower /
/// upper-extra / lower-extra grid) scaled by `scale`.
LayoutConfig scaled_layout(int n, Technique t, int scale) {
  LayoutConfig cfg;
  cfg.scheme = comb::Scheme{n, 4};
  cfg.technique = t;
  cfg.procs_diagonal = 8 * scale;
  cfg.procs_lower = 4 * scale;
  cfg.procs_extra_upper = 2 * scale;
  cfg.procs_extra_lower = 1 * scale;
  return cfg;
}

/// Steps a failure at step f defers before the next detection point: the
/// first CR interval boundary after f, or the end of the run for RC/AC.
long steps_owed(const AppConfig& cfg, long f) {
  long target = cfg.timesteps;
  if (cfg.layout.technique == Technique::CheckpointRestart) {
    const long c = std::max<long>(cfg.checkpoints, 0);
    for (long i = 0; i <= c; ++i) {
      const long t = i >= c ? cfg.timesteps : cfg.timesteps * (i + 1) / (c + 1);
      if (t > f) {
        target = t;
        break;
      }
    }
  }
  return target - f;
}

// --- the repair protocol on its own (Table I) -------------------------------------

struct RepairOutcome {
  bool ok = true;
  std::string why;
  ReconstructTimings timings;
  int attempts = 0;
  double checksum_ratio = 0;
  double critical_path_s = 0;  ///< first reconstruct entry to last exit, wall
  ftmpi::Runtime::Stats stats;
  int procs = 0;
  int killed = 0;
};

/// `n` ranks; the top two abort, every survivor calls
/// Reconstructor::reconstruct, and the repaired world is checked: repaired,
/// not exhausted, size n, every rank back at its original rank, and a sum
/// allreduce of the ranks over it returns n(n-1)/2.
RepairOutcome run_repair(int n, const ftmpi::Runtime::Options& opt, Tracer& tr, long parent) {
  RepairOutcome out;
  std::mutex mu;
  std::vector<int> seen(static_cast<size_t>(n), 0);
  std::vector<std::string> errors;
  double first_in = 1e300, last_out = 0;
  const double expect_sum = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);

  ftmpi::Runtime rt(opt);
  {
    ScopedSpan run_span(tr, "app.run", parent);
    const long run_id = run_span.id();
    rt.register_app("repair", [&, run_id](const std::vector<std::string>& argv) {
      ScopedSpan rank_span(tr, "rank.entry", run_id);
      Reconstructor recon({"repair", argv});
      const bool child = !ftmpi::get_parent().is_null();
      int old_rank = -1;
      ftmpi::Comm w;
      if (!child) {
        w = ftmpi::world();
        old_rank = w.rank();
        if (old_rank >= n - 2) ftmpi::abort_self();
      }
      const double t_in = wall_now();
      ReconstructResult res;
      {
        ScopedSpan s(tr, "core.reconstruct", rank_span.id());
        res = recon.reconstruct(w);
      }
      const double t_out = wall_now();
      std::string err;
      const int r = res.comm.rank();
      if (!res.repaired || res.mode != RecoveryMode::Repaired) err = "not repaired";
      if (res.exhausted) err = "exhausted";
      if (res.comm.is_null() || res.comm.size() != n) err = "wrong size";
      if (!child && r != old_rank) err = "rank moved";
      if (child && r < n - 2) err = "child at a survivor's rank";
      double sum = 0;
      if (err.empty()) {
        const double mine = r;
        if (ftmpi::allreduce(&mine, &sum, 1, ftmpi::ReduceOp::Sum, res.comm) !=
            ftmpi::kSuccess) {
          err = "allreduce failed";
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      first_in = std::min(first_in, t_in);
      last_out = std::max(last_out, t_out);
      if (!err.empty()) errors.push_back(err);
      if (r >= 0 && r < n) ++seen[static_cast<size_t>(r)];
      if (r == 0) {
        out.timings = res.timings;
        out.attempts = res.attempts;
        out.checksum_ratio = sum / expect_sum;
      }
    });
    out.killed = rt.run("repair", n);
  }
  out.critical_path_s = last_out - first_in;
  out.stats = rt.stats();
  out.procs = rt.total_processes();
  if (!errors.empty()) {
    out.ok = false;
    out.why = errors.front();
  } else if (std::any_of(seen.begin(), seen.end(), [](int v) { return v != 1; })) {
    out.ok = false;
    out.why = "ranks not a permutation";
  } else if (out.killed != 2) {
    out.ok = false;
    out.why = "expected 2 kills";
  }
  return out;
}

// --- workloads ----------------------------------------------------------------------

/// A loss pattern an op hit: the probes re-solve the GCP and re-plan it.
struct LossCase {
  LayoutConfig layout;
  rec::PlannerMode mode = rec::PlannerMode::Lattice;
  std::vector<int> lost;
  bool operator<(const LossCase& o) const {
    return std::tie(layout.technique, lost) < std::tie(o.layout.technique, o.lost);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Failure-free reference runs and anything else the oracles need.
  virtual void setup() = 0;
  virtual OpResult op(std::uint64_t seed, long k, Tracer& tr, long parent) = 0;
  /// Peak simultaneous ranks of one op (the ftmpi probes run at this size).
  [[nodiscard]] virtual int ranks() const = 0;
  /// The layout and step count the kernel probes use.
  [[nodiscard]] virtual AppConfig kernel_config() const = 0;

  double watchdog_s = 30.0;
  std::set<LossCase> losses;

 protected:
  [[nodiscard]] ftmpi::Runtime::Options options(bool scale_compute = true) const {
    ftmpi::Runtime::Options o = bench::BenchEnv{}.runtime_options(scale_compute);
    o.real_time_limit_sec = watchdog_s;
    return o;
  }
};

/// Failure-free FtApp on the AC layout: kernels carry the run.
class SolveWorkload : public Workload {
 public:
  void setup() override { ref_err_ = run_app(config(), options(), untraced(), 0, nullptr).err; }
  OpResult op(std::uint64_t, long, Tracer& tr, long parent) override {
    OpResult r;
    const AppRun a = run_app(config(), options(), tr, parent, &r.counters);
    r.vtime = a.vt;
    r.err_ratio = a.err / ref_err_;
    if (a.killed != 0) r.fail("unexpected kill");
    if (!same_bits(a.err, ref_err_)) r.fail("error differs from the reference");
    return r;
  }
  [[nodiscard]] int ranks() const override { return build_layout(config().layout).total_procs; }
  [[nodiscard]] AppConfig kernel_config() const override { return config(); }

 private:
  static AppConfig config() {
    AppConfig cfg;
    cfg.layout = scaled_layout(10, Technique::AlternateCombination, 1);
    cfg.timesteps = 512;
    return cfg;
  }
  double ref_err_ = 0;
};

/// Table I protocol at 1216 ranks: no kernels, all runtime and protocol.
class RepairWorkload : public Workload {
 public:
  static constexpr int kRanks = 1216;
  void setup() override {}
  OpResult op(std::uint64_t, long, Tracer& tr, long parent) override {
    OpResult r;
    const RepairOutcome o = run_repair(kRanks, options(/*scale_compute=*/false), tr, parent);
    if (!o.ok) r.fail(o.why);
    r.vtime = o.timings.total;
    r.err_ratio = o.checksum_ratio;
    Counters& k = r.counters;
    k["ftmpi.msgs"] = static_cast<double>(o.stats.messages);
    k["ftmpi.bytes"] = static_cast<double>(o.stats.bytes);
    k["ftmpi.cross_host_msgs"] = static_cast<double>(o.stats.cross_host);
    k["ftmpi.procs"] = o.procs;
    k["ftmpi.killed"] = o.killed;
    k["ftmpi.shrink_vtime"] = o.timings.shrink;
    k["ftmpi.spawn_vtime"] = o.timings.spawn;
    k["ftmpi.agree_vtime"] = o.timings.agree;
    k["ftmpi.merge_vtime"] = o.timings.merge;
    k["ftmpi.split_vtime"] = o.timings.split;
    k["core.recon_vtime"] = o.timings.total;
    k["core.failed_list_vtime"] = o.timings.failed_list;
    k["core.repairs"] = 1;
    k["core.recon_attempts"] = o.attempts;
    return r;
  }
  [[nodiscard]] int ranks() const override { return kRanks; }
  [[nodiscard]] AppConfig kernel_config() const override {
    AppConfig cfg;  // nominal: this workload runs no kernels
    cfg.layout = scaled_layout(9, Technique::CheckpointRestart, 1);
    cfg.timesteps = 256;
    return cfg;
  }
};

/// A Fig. 11 cycle: stop-the-world CR, RC and AC runs, each hit by two real
/// failures with exponential inter-arrival gaps.
class RecoverWorkload : public Workload {
 public:
  void setup() override {
    for (size_t i = 0; i < 3; ++i) {
      const AppConfig cfg = config(kTechniques[i]);
      ref_err_[i] = run_app(cfg, options(), untraced(), 0, nullptr).err;
      const Layout layout = build_layout(cfg.layout);
      Xoshiro256 rng(kPoolSeed + i);
      for (auto& pattern : pool_[i]) {
        pattern = layout.grids_of_ranks(draw_failures(cfg, rng, nullptr).real_victim_ranks());
      }
    }
  }
  OpResult op(std::uint64_t seed, long k, Tracer& tr, long parent) override {
    OpResult r;
    Xoshiro256 rng(seed * 1000003ULL + static_cast<std::uint64_t>(k));
    r.stratum = ((k % kPool) + kPool) % kPool;
    double err_sum = 0, ref_sum = 0;
    for (size_t i = 0; i < 3; ++i) {
      AppConfig cfg = config(kTechniques[i]);
      const auto& pattern = pool_[i][static_cast<size_t>(r.stratum)];
      cfg.failures = draw_failures(cfg, rng, &pattern);
      const AppRun a = run_app(cfg, options(), tr, parent, &r.counters);
      for (const auto& [rank, f] : cfg.failures.kill_at_step) {
        (void)rank;
        r.counters["core.steps_lost"] += static_cast<double>(steps_owed(cfg, f));
      }
      losses.insert({cfg.layout, kModes[i], pattern});
      r.vtime += a.vt;
      err_sum += a.err;
      ref_sum += ref_err_[i];
      const char* tag = comb::technique_tag(kTechniques[i]);
      if (a.killed > 0 && a.mode != 1.0) r.fail(std::string(tag) + ": recon.mode != 1");
      if (kTechniques[i] == Technique::CheckpointRestart) {
        if (!same_bits(a.err, ref_err_[i])) r.fail("CR: error differs from the reference");
      } else if (!(a.err / ref_err_[i] <= 1000.0)) {
        r.fail(std::string(tag) + ": err_ratio > 1000");
      }
    }
    r.err_ratio = err_sum / ref_sum;
    return r;
  }
  [[nodiscard]] int ranks() const override {
    return build_layout(config(Technique::ResamplingCopying).layout).total_procs;
  }
  [[nodiscard]] AppConfig kernel_config() const override {
    return config(Technique::CheckpointRestart);
  }

 private:
  static constexpr Technique kTechniques[3] = {Technique::CheckpointRestart,
                                               Technique::ResamplingCopying,
                                               Technique::AlternateCombination};
  /// The planner modes RecoveryPolicy::Technique maps the three layouts to.
  static constexpr rec::PlannerMode kModes[3] = {
      rec::PlannerMode::ForceCr, rec::PlannerMode::ForceRc, rec::PlannerMode::ForceAc};
  /// Which grids lose a rank comes from a fixed pool of kPool patterns per
  /// layout, drawn once from kPoolSeed; op k uses pattern k mod kPool and
  /// the run's seed draws which ranks of those grids die, and when.  The
  /// error after recovery depends on the lost grids alone, so every run
  /// and every seed compares like with like.
  static constexpr int kPool = 8;
  static constexpr std::uint64_t kPoolSeed = 11;
  static AppConfig config(Technique t) {
    AppConfig cfg;
    cfg.layout = scaled_layout(9, t, 2);
    cfg.timesteps = 256;
    cfg.checkpoints = 3;
    return cfg;
  }
  /// Two victims from scheduled_real_failures (exponential gaps, mean 64
  /// steps), redrawn until the lost grids equal `pattern` when one is given.
  /// Draws the simulator currently fails on are skipped (README.md,
  /// "Excluded configurations"): two kills at the same step, two CR kills
  /// in one grid before the same detection point (the second one fires
  /// during the first one's recompute), and AC loss patterns the GCP
  /// cannot solve.
  static FailurePlan draw_failures(const AppConfig& cfg, Xoshiro256& rng,
                                   const std::vector<int>* pattern) {
    const ArrivalModel model{FailureDist::Exponential, 64.0, 1.0};
    const Layout layout = build_layout(cfg.layout);
    const LayoutConfig& lc = layout.config;
    const comb::CoefficientProblem gcp(lc.scheme, 1 + lc.extra_layers);
    for (;;) {
      FailurePlan plan = scheduled_real_failures(layout, 2, cfg.timesteps, model, rng);
      const std::vector<int> lost = layout.grids_of_ranks(plan.real_victim_ranks());
      if (pattern != nullptr && lost != *pattern) continue;
      std::set<long> steps;
      std::set<std::pair<int, long>> detections;  // (grid, detection step)
      for (const auto& [rank, f] : plan.kill_at_step) {
        steps.insert(f);
        detections.insert({layout.grid_of_rank(rank), f + steps_owed(cfg, f)});
      }
      if (steps.size() != plan.kill_at_step.size()) continue;
      if (lc.technique == Technique::CheckpointRestart &&
          detections.size() != plan.kill_at_step.size()) {
        continue;
      }
      if (lc.technique == Technique::AlternateCombination) {
        std::vector<grid::Level> levels;
        for (const int g : lost) levels.push_back(layout.slots[static_cast<size_t>(g)].level);
        if (!gcp.solve(levels).has_value()) continue;
      }
      return plan;
    }
  }
  std::vector<int> pool_[3][kPool];
  double ref_err_[3] = {0, 0, 0};
};

/// Overlapped recovery: grid 1's second rank dies 6 steps before the first
/// or the second checkpoint while buddy replication runs every 4 steps.
class OverlapWorkload : public Workload {
 public:
  void setup() override {
    ref_err_ = run_app(config(), options(), untraced(), 0, nullptr).err;
    const Layout layout = build_layout(config().layout);
    for (int r = 1; r < layout.total_procs; ++r) {
      if (layout.grid_of_rank(r) == 1) {
        victim_ = r + 1;
        break;
      }
    }
    std::vector<int> survivors;
    for (int r = 0; r < layout.total_procs; ++r) {
      if (r != victim_) survivors.push_back(r);
    }
    n_cont_ = static_cast<double>(
        overlap::classify(layout, survivors, {victim_}).continuation.size());
  }
  OpResult op(std::uint64_t seed, long k, Tracer& tr, long parent) override {
    OpResult r;
    Xoshiro256 rng(seed * 1000003ULL + static_cast<std::uint64_t>(k));
    AppConfig cfg = config();
    const long interval = 1 + static_cast<long>(rng.bounded(2));
    r.stratum = interval;
    const long f = cfg.timesteps * interval / (cfg.checkpoints + 1) - kStepsBeforeEnd;
    cfg.failures.kill_at_step[victim_] = f;
    const AppRun a = run_app(cfg, options(), tr, parent, &r.counters);
    const double lost = static_cast<double>(steps_owed(cfg, f)) -
                        r.counters["core.overlap_steps"] / n_cont_;
    r.counters["core.steps_lost"] = std::max(lost, 0.0);
    losses.insert({cfg.layout, rec::PlannerMode::Overlap,
                   build_layout(cfg.layout).grids_of_ranks({victim_})});
    r.vtime = a.vt;
    r.err_ratio = a.err / ref_err_;
    if (a.killed != 1) r.fail("expected 1 kill");
    if (a.mode != 1.0) r.fail("recon.mode != 1");
    if (!same_bits(a.err, ref_err_)) r.fail("error differs from the reference");
    return r;
  }
  [[nodiscard]] int ranks() const override { return build_layout(config().layout).total_procs; }
  [[nodiscard]] AppConfig kernel_config() const override { return config(); }

 private:
  static constexpr long kStepsBeforeEnd = 6;
  static AppConfig config() {
    AppConfig cfg;
    cfg.layout = scaled_layout(9, Technique::CheckpointRestart, 1);
    cfg.timesteps = 384;
    cfg.checkpoints = 2;
    cfg.buddy_every = 4;
    cfg.recovery = RecoveryPolicy::Overlap;
    return cfg;
  }
  [[nodiscard]] ftmpi::Runtime::Options options() const {
    ftmpi::Runtime::Options o = Workload::options();
    o.slots_per_host = 16;
    return o;
  }
  double ref_err_ = 0;
  int victim_ = -1;
  double n_cont_ = 1;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "solve") return std::make_unique<SolveWorkload>();
  if (name == "repair") return std::make_unique<RepairWorkload>();
  if (name == "recover") return std::make_unique<RecoverWorkload>();
  if (name == "overlap") return std::make_unique<OverlapWorkload>();
  return nullptr;
}

// --- probes (trace mode): single layers at the workload's own sizes ----------------

template <class F>
double seconds_per_call(int reps, F&& f) {
  const double t0 = wall_now();
  for (int i = 0; i < reps; ++i) f();
  return (wall_now() - t0) / reps;
}

ftmpi::Runtime::Options probe_options(bool scale_compute = true) {
  ftmpi::Runtime::Options o = bench::BenchEnv{}.runtime_options(scale_compute);
  o.real_time_limit_sec = 30.0;
  return o;
}

/// Runtime launch and the collectives at `n` ranks.  Rank 0 times each
/// phase between barriers, so a phase covers every rank's share.
void probe_ftmpi(int n, Counters& m) {
  {
    ftmpi::Runtime rt(probe_options(false));
    rt.register_app("empty", [](const std::vector<std::string>&) {});
    const double t0 = wall_now();
    rt.run("empty", n);
    m["ftmpi.empty_run_s"] = wall_now() - t0;
  }
  const int reps = std::clamp(4000 / n, 4, 50);
  std::map<std::string, double> us;
  std::atomic<int> errors{0};
  ftmpi::Runtime rt(probe_options(false));
  rt.register_app("coll", [&](const std::vector<std::string>&) {
    const ftmpi::Comm w = ftmpi::world();
    const int r = w.rank();
    const auto check = [&errors](int rc) {
      if (rc != ftmpi::kSuccess) ++errors;
    };
    const auto phase = [&](const char* name, const auto& body) {
      check(ftmpi::barrier(w));
      const double t0 = wall_now();
      for (int i = 0; i < reps; ++i) body();
      check(ftmpi::barrier(w));
      if (r == 0) us[name] = 1e6 * (wall_now() - t0) / reps;
    };
    phase("ftmpi.barrier_us", [&] { check(ftmpi::barrier(w)); });
    phase("ftmpi.allreduce_us", [&] {
      const double x = r;
      double y = 0;
      check(ftmpi::allreduce(&x, &y, 1, ftmpi::ReduceOp::Sum, w));
    });
    phase("ftmpi.agree_us", [&] {
      int flag = 1;
      check(ftmpi::comm_agree(w, &flag));
    });
    phase("ftmpi.split_us", [&] {
      ftmpi::Comm c;
      check(ftmpi::comm_split(w, r % 2, r, &c));
      check(ftmpi::comm_free(&c));
    });
    phase("ftmpi.p2p_ring_us", [&] {
      double in = 0;
      const double out = r;
      check(ftmpi::sendrecv(&out, 1, (r + 1) % n, 7, &in, 1, (r + n - 1) % n, 7, w));
    });
  });
  rt.run("coll", n);
  for (const auto& [k, v] : us) m[k] = errors.load() == 0 ? v : std::nan("");
}

/// The kernels of the first diagonal grid on its own group, the serial
/// baseline over every component grid, and the combination.
void probe_kernels(const Workload& w, Counters& m) {
  const AppConfig cfg = w.kernel_config();
  const Layout layout = build_layout(cfg.layout);
  const grid::Level level = layout.slots[0].level;
  const int procs = layout.procs_per_grid[0];
  const double dt = advection::stable_timestep(cfg.layout.scheme.n, cfg.problem, cfg.cfl);
  constexpr int kReps = 20;

  std::atomic<int> errors{0};
  ftmpi::Runtime rt(probe_options());
  rt.register_app("kern", [&](const std::vector<std::string>&) {
    const ftmpi::Comm wc = ftmpi::world();
    const auto check = [&errors](int rc) {
      if (rc != ftmpi::kSuccess) ++errors;
    };
    advection::ParallelSolver solver(level, cfg.problem, dt, wc);
    check(solver.run(2));
    check(ftmpi::barrier(wc));
    double t0 = wall_now();
    check(solver.run(kReps));
    check(ftmpi::barrier(wc));
    if (wc.rank() == 0) m["advection.step_us"] = 1e6 * (wall_now() - t0) / kReps;
    t0 = wall_now();
    for (int i = 0; i < kReps; ++i) {
      check(grid::exchange_x(solver.field(), solver.decomposition(), wc));
      check(grid::exchange_y(solver.field(), solver.decomposition(), wc));
    }
    check(ftmpi::barrier(wc));
    if (wc.rank() == 0) m["grid.halo_us"] = 1e6 * (wall_now() - t0) / kReps;
  });
  rt.run("kern", procs);
  if (errors.load() != 0) m["advection.step_us"] = m["grid.halo_us"] = std::nan("");

  double serial = 0;
  for (const auto& slot : layout.slots) {
    advection::SerialSolver s(slot.level, cfg.problem, dt);
    const double t0 = wall_now();
    s.run(cfg.timesteps);
    serial += wall_now() - t0;
  }
  m["advection.serial_solve_s"] = serial;

  const comb::Scheme scheme = cfg.layout.scheme;
  std::vector<grid::Grid2D> grids;
  for (const grid::Level& lv : scheme.combination_levels()) {
    grids.emplace_back(lv);
    grids.back().fill([&cfg](double x, double y) { return cfg.problem.initial(x, y); });
  }
  std::vector<comb::Component> parts;
  for (const grid::Grid2D& g : grids) {
    parts.push_back({&g, comb::classic_coefficient(scheme, g.level())});
  }
  m["grid.transfer_combine_s"] =
      seconds_per_call(5, [&] { (void)comb::combine_full(scheme, parts); });
}

/// GCP solve, recovery planning and checkpoint I/O over the loss patterns
/// the ops hit (the empty pattern when they hit none).
void probe_recovery(const Workload& w, Counters& m) {
  std::set<LossCase> cases = w.losses;
  if (cases.empty()) cases.insert({w.kernel_config().layout, rec::PlannerMode::Lattice, {}});
  constexpr int kReps = 200;
  double gcp = 0, plan = 0;
  for (const LossCase& c : cases) {
    const Layout layout = build_layout(c.layout);
    const int depth = c.layout.technique == Technique::AlternateCombination
                          ? 1 + c.layout.extra_layers
                          : 1;
    std::vector<grid::Level> levels;
    std::vector<rec::GridFacts> facts;
    for (const int g : c.lost) {
      levels.push_back(layout.slots[static_cast<size_t>(g)].level);
      facts.push_back({g, true, false, -1});
    }
    const comb::CoefficientProblem problem(c.layout.scheme, depth);
    gcp += seconds_per_call(kReps, [&] { (void)problem.solve(levels); });
    plan += seconds_per_call(kReps, [&] {
      (void)rec::plan_recovery(layout.slots, c.layout.scheme, depth, c.mode, facts);
    });
  }
  m["combination.gcp_us"] = 1e6 * gcp / static_cast<double>(cases.size());
  m["recovery.plan_us"] = 1e6 * plan / static_cast<double>(cases.size());

  const Layout layout = build_layout(w.kernel_config().layout);
  const long cells =
      grid::Decomposition(layout.slots[0].level, layout.procs_per_grid[0]).block(0).cells();
  const std::vector<double> block(static_cast<size_t>(cells), 1.0);
  ftmpi::Runtime rt(probe_options());
  rt.register_app("ckpt", [&](const std::vector<std::string>&) {
    rec::CheckpointStore store;
    long step = 0;
    m["recovery.ckpt_write_us"] =
        1e6 * seconds_per_call(kReps, [&] { store.write(0, 0, ++step, block); });
    m["recovery.ckpt_read_us"] =
        1e6 * seconds_per_call(kReps, [&] { (void)store.read_latest(0, 0); });
  });
  rt.run("ckpt", 1);
}

/// The repair protocol at n/2 and n ranks: its critical path on the host
/// and the exponent of its growth.
void probe_reconstruct(int n, Tracer& tr, long parent, Counters& m) {
  const int half = n / 2;
  const RepairOutcome small = run_repair(half, probe_options(false), tr, parent);
  const RepairOutcome full = run_repair(n, probe_options(false), tr, parent);
  m["core.reconstruct_host_s"] = full.critical_path_s;
  m["core.reconstruct_scaling_exp"] =
      small.ok && full.ok ? std::log(full.critical_path_s / small.critical_path_s) /
                                std::log(static_cast<double>(n) / half)
                          : std::nan("");
}

/// Span-derived per-layer numbers of one traced op.
Counters span_metrics(const std::vector<Span>& spans) {
  double busy = 0, wait = 0, launch = 0;
  std::map<long, double> longest_child;  // app.run id -> longest rank.entry
  for (const Span& s : spans) {
    if (std::string(s.name) != "rank.entry") continue;
    busy += s.cpu;
    wait += std::max(s.dur - s.cpu, 0.0);
    longest_child[s.parent] = std::max(longest_child[s.parent], s.dur);
  }
  for (const Span& s : spans) {
    if (std::string(s.name) == "app.run") launch += s.dur - longest_child[s.id];
  }
  return {{"ftmpi.rank_busy_s", busy}, {"ftmpi.rank_wait_s", wait}, {"ftmpi.launch_s", launch}};
}

// --- the closed loop ------------------------------------------------------------------

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10;
  long max_ops = 0;  ///< 0 = until --seconds elapse
  long start_op = 0;
  int setup_reps = 3;
  bool trace = false;
  std::string spans_path;
};

/// Returns the number of failed ops (-1 when the workload is unknown).
long run_workload(const std::string& name, const RunArgs& a) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s, setup_handoff_s, setup_sys_frac;
  double warm_s = 0;
  Tracer tr;
  for (int i = 0; i < std::max(a.setup_reps, 1); ++i) {
    setup_handoff_s.push_back(handoff_s());
    const HostUsage usage;
    const double t0 = wall_now();
    w = make_workload(name);
    if (!w) return -1;
    w->setup();
    const double tw = wall_now();
    const OpResult warm = w->op(a.seed, -1, tr, 0);
    warm_s = wall_now() - tw;
    setup_s.push_back(wall_now() - t0);
    Counters c;
    usage.add_to(c);
    setup_sys_frac.push_back(c["ftmpi.sys_cpu_frac"]);
    if (!warm.ok) {
      Record("setup_failed").str("workload", name).str("why", warm.why).emit();
      return 1;
    }
  }
  // Bounded per-op watchdog: a hang costs one op, never the workload.
  w->watchdog_s = std::max(8.0, 20.0 * warm_s);
  Record("setup")
      .str("workload", name)
      .list("setup_s", setup_s)
      .list("setup_handoff_s", setup_handoff_s)
      .list("setup_sys_frac", setup_sys_frac)
      .num("watchdog_s", w->watchdog_s)
      .num("ranks", w->ranks())
      .emit();

  std::ofstream spans;
  if (a.trace && !a.spans_path.empty()) spans.open(a.spans_path, std::ios::app);
  const double deadline = wall_now() + a.seconds;
  long failed = 0;
  long done = 0;
  for (long k = a.start_op;; ++k, ++done) {
    if (a.max_ops > 0 && done >= a.max_ops) break;
    if (wall_now() >= deadline) break;
    const bool traced = a.trace && done % 2 == 1;
    Record("begin").num("op", static_cast<double>(k)).emit();
    const double handoff = handoff_s();
    const HostUsage usage;
    const auto axis0 = grid::axis_map_cache_stats();
    tr.set(traced, k);
    const double t0 = wall_now();
    OpResult r;
    {
      ScopedSpan op_span(tr, "op", 0);
      r = w->op(a.seed, k, tr, op_span.id());
    }
    const double wall = wall_now() - t0;
    tr.set(false, k);
    const auto axis1 = grid::axis_map_cache_stats();
    Counters& c = r.counters;
    const long maxrss_kb = usage.add_to(c);
    c["ftmpi.handoff_us"] = 1e6 * handoff;
    c["ftmpi.rss_per_rank_kb"] = static_cast<double>(maxrss_kb) / w->ranks();
    const double hits = static_cast<double>(axis1.hits - axis0.hits);
    const double misses = static_cast<double>(axis1.misses - axis0.misses);
    c["grid.axis_map_hits"] = hits;
    c["grid.axis_map_misses"] = misses;
    c["grid.axis_map_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 1.0;
    if (!std::isfinite(r.vtime) || !(r.vtime > 0)) r.fail("vtime not finite and positive");

    Record out("op");
    out.num("op", static_cast<double>(k))
        .num("ok", r.ok ? 1 : 0)
        .str("why", r.why)
        .num("stratum", static_cast<double>(r.stratum))
        .num("wall_s", wall)
        .num("vtime", r.vtime)
        .num("err_ratio", r.err_ratio)
        .num("maxrss_kb", static_cast<double>(maxrss_kb))
        .num("traced", traced ? 1 : 0)
        .nums("counters", c);
    if (traced) {
      const std::vector<Span> op_spans = tr.take(k);
      out.nums("spans", span_metrics(op_spans));
      for (const Span& s : op_spans) spans << span_line(s) << '\n';
      spans.flush();
    }
    out.emit();
    if (!r.ok) ++failed;
  }

  if (a.trace) {
    Counters m;
    const long probe_op = -1;
    tr.set(true, probe_op);
    {
      const ScopedSpan s(tr, "probe.ftmpi", 0);
      probe_ftmpi(w->ranks(), m);
    }
    {
      const ScopedSpan s(tr, "probe.kernels", 0);
      probe_kernels(*w, m);
    }
    {
      const ScopedSpan s(tr, "probe.recovery", 0);
      probe_recovery(*w, m);
    }
    {
      const ScopedSpan s(tr, "probe.reconstruct", 0);
      probe_reconstruct(w->ranks(), tr, s.id(), m);
    }
    tr.set(false, probe_op);
    for (const Span& s : tr.take(probe_op)) spans << span_line(s) << '\n';
    Record("probe").str("workload", name).nums("metrics", m).emit();
  }
  Record("done").str("workload", name).num("failed", static_cast<double>(failed)).emit();
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB.  Left dynamic, it
  // climbs after the first large frees, and from then on the heap keeps
  // about 10 MB of every op resident: solve's resident set grew from 50 to
  // 300 MB over 40 ops while its live heap stayed at 21 MB.  Pinned, every
  // op allocates the way the first op of a fresh process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Cli cli(argc, argv);
  RunArgs a;
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.seconds = cli.get_double("seconds", 10.0);
  a.max_ops = cli.get_int("ops", 0);
  a.start_op = cli.get_int("start_op", 0);
  a.setup_reps = static_cast<int>(cli.get_int("setup_reps", 3));
  a.trace = cli.get_int("trace", 0) != 0;
  a.spans_path = cli.get("spans", "");
  const std::string workload = cli.get("workload", "");

  std::vector<std::string> names{workload};
  if (workload == "all") names = {"solve", "repair", "recover", "overlap"};
  long failed = 0;
  for (const std::string& name : names) {
    const long f = run_workload(name, a);
    if (f < 0) {
      std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", name.c_str());
      return 2;
    }
    failed += f;
  }
  return failed == 0 ? 0 : 1;
}
