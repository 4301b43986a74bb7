#!/usr/bin/env python3
"""End-to-end benchmark of the fault-tolerant simulator.

    python3 bench/e2e/run.py --seed=S [--workload=W] [--seconds=T]
                             [--trace=0|1 | --traced] [--json=out.jsonl]
    python3 bench/e2e/run.py --compare parent.jsonl change.jsonl

Builds bench/e2e (and the library it links) into .bench_build/e2e on first
use, runs each workload's driver closed-loop for --seconds, checks every
op's result oracle, and prints one metric per line followed, as the last
line of stdout, by one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace=0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace=1 (or --traced) they are its per-layer metrics, and the spans
of the traced ops are written as a Chrome trace into the build directory.
A driver killed by the runtime watchdog costs the op it was running: that
op counts as failed and the driver restarts at the next op.  --json
appends one result line per invocation; --compare reads two such files
(parent and change, ten or more runs each) and applies the bench/e2e
README's comparison rule.  Without --workload every workload runs in turn.
"""

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["solve", "repair", "recover", "overlap"]
BUILD_TYPES = ("Release", "RelWithDebInfo")
# A workload must finish, restarts included, well inside the 180 s a run
# is allowed; set-up and probes come out of the same budget.
WORKLOAD_BUDGET_S = 165.0
MAX_RESTARTS = 8
# Nominal thread hand-off (a quiet 4-vCPU host) that the kernel-time share
# of wall times is rescaled to; see steady_wall().
HANDOFF_REF_S = 4e-6


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build failure...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics -------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    v = sorted(values)
    return v[max(math.ceil(p / 100.0 * len(v)) - 1, 0)]


def tail_percentile(n):
    """Highest percentile that still has at least ten samples beyond it,
    but never below the median: p87 for 80 samples, p66 for 30, p95 for
    200, and p50 for 20 or fewer."""
    if n <= 20:
        return 50
    return math.floor(100.0 * (n - 10) / n)


def stratified_median(ops, key):
    """Median over scenario classes of each class's median, so the mix of
    classes a run happened to draw does not move the result."""
    groups = {}
    for op in ops:
        groups.setdefault(op.get("stratum", 0), []).append(op[key])
    return statistics.median(statistics.median(v) for v in groups.values())


def steady_wall(wall, sys_frac, handoff_s):
    """Wall time with its kernel-time share rescaled from the thread
    hand-off cost measured right before it to HANDOFF_REF_S.  On a shared
    host, wake-ups (most of the simulator's kernel time) slow down by up to
    1.7x for seconds at a time with other tenants' load, while user code
    barely does; without this, runs of one commit spread by up to 50 %."""
    return wall * ((1.0 - sys_frac) + sys_frac * HANDOFF_REF_S / handoff_s)


def finite_or_none(v):
    return v if v is not None and math.isfinite(v) else None


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / abs(m) if m else math.inf


# --- build and environment hygiene ------------------------------------------


def check_build(cache_text):
    """Refuse timing builds that are not optimised, or that are sanitized."""
    entries = {}
    for line in cache_text.splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            entries[key.split(":", 1)[0]] = value.strip()
    build_type = entries.get("CMAKE_BUILD_TYPE", "")
    if build_type not in BUILD_TYPES:
        raise BenchError(f"build type '{build_type}' is not one of {BUILD_TYPES}")
    flags = " ".join(v for k, v in entries.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if "-fsanitize" in flags or entries.get("FTR_SANITIZE", "OFF") not in ("", "OFF"):
        raise BenchError("sanitizer builds are not timed")
    return build_type


def scrubbed_env(env):
    """The driver's environment without FTR_* variables (FTR_RECOVERY,
    FTR_DETECTOR, ... would silently change a workload)."""
    return {k: v for k, v in env.items() if not k.startswith("FTR_")}


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if proc.returncode != 0:
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    """Configure once, then build incrementally; returns (driver, build type)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources at {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    build_type = check_build(cache.read_text())
    run_quiet(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 2),
               "--target", "bench_e2e"])
    return [str(BUILD / "bench_e2e")], build_type


def stamp(build_type):
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "build_type": build_type, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


# --- one workload: the driver, restarted after a crash ----------------------


def stream_records(cmd, env, deadline, stderr):
    """Run one driver process and yield (arrival time, record) for each line
    it prints, then a last {"type": "exit", "code": ...}.  The driver is
    killed at `deadline`, or when the caller stops reading."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, env=env)
    killed = True
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            buf = b""
            while (left := deadline - time.monotonic()) > 0:
                if not sel.select(timeout=min(left, 1.0)):
                    continue
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    killed = False
                    break
                *lines, buf = (buf + chunk).split(b"\n")
                for line in lines:
                    if line.strip():
                        yield time.monotonic(), json.loads(line)
    finally:
        if killed:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    yield time.monotonic(), {"type": "exit", "code": proc.returncode}


def run_workload(driver, workload, args, spans_path, stderr):
    """Closed-loop run of one workload.  Returns the raw records."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    env = scrubbed_env(os.environ)
    ops, setup_s, probe = [], None, None
    start_op = 0
    for restart in range(MAX_RESTARTS + 1):
        remaining = args.seconds - sum(op["wall_s"] for op in ops)
        if remaining <= 0 or (args.ops and len(ops) >= args.ops) or time.monotonic() >= deadline:
            break
        cmd = driver + [f"--workload={workload}", f"--seed={args.seed}",
                        f"--seconds={remaining:.3f}", f"--start_op={start_op}",
                        f"--trace={args.trace}", f"--spans={spans_path}",
                        f"--setup_reps={3 if restart == 0 else 1}"]
        if args.ops:
            cmd.append(f"--ops={args.ops - len(ops)}")
        pending, done, rc = None, False, None
        for t, rec in stream_records(cmd, env, deadline, stderr):
            kind = rec["type"]
            if kind == "setup" and setup_s is None:
                setup_s = [steady_wall(*x) for x in zip(rec["setup_s"], rec["setup_sys_frac"],
                                                        rec["setup_handoff_s"])]
            elif kind == "setup_failed":
                raise BenchError(f"{workload}: set-up op failed: {rec['why']}")
            elif kind == "begin":
                pending = (rec["op"], t)
            elif kind == "op":
                ops.append(rec)
                pending = None
            elif kind == "probe":
                probe = rec["metrics"]
            elif kind == "done":
                done = True
            elif kind == "exit":
                rc = rec["code"]
        if done:
            break
        if pending is None:
            # Died outside an op: before set-up ended, or in the probes.
            log(f"{workload}: driver exited with {rc} outside an op")
            break
        op, t_begin = pending
        why = "timeout" if time.monotonic() >= deadline else f"driver exited with {rc}"
        log(f"{workload}: op {op} failed ({why}); restarting at op {op + 1}")
        ops.append({"op": op, "ok": 0, "why": why, "wall_s": time.monotonic() - t_begin})
        start_op = op + 1
    if setup_s is None or not ops:
        raise BenchError(f"{workload}: the driver ran no op")
    return {"ops": ops, "setup_s": setup_s, "probe": probe or {}}


# --- metrics ------------------------------------------------------------------


def op_time(op):
    """An op's steady wall time; a crashed op's raw one."""
    c = op.get("counters", {})
    if "ftmpi.handoff_us" not in c:
        return op["wall_s"]
    return steady_wall(op["wall_s"], c["ftmpi.sys_cpu_frac"], 1e-6 * c["ftmpi.handoff_us"])


def end_to_end(raw):
    ops = raw["ops"]
    good = [op for op in ops if op["ok"]]
    walls = [op_time(op) for op in good]
    total = sum(op_time(op) for op in ops)
    tail_p = tail_percentile(len(walls))
    nan = float("nan")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": len(good) / total if total > 0 else nan,
        "op_p50_s": statistics.median(walls) if walls else nan,
        "op_tail_s": percentile(walls, tail_p) if walls else nan,
        "peak_rss_mb": max(op.get("maxrss_kb", 0) for op in ops) / 1024.0,
        "vtime": stratified_median(good, "vtime") if good else nan,
        "err_ratio": stratified_median(good, "err_ratio") if good else nan,
    }, tail_p


def per_layer(raw):
    good = [op for op in raw["ops"] if op["ok"]]
    out = {}
    for key in good[0].get("counters", {}) if good else []:
        out[key] = statistics.median(op["counters"][key] for op in good)
    traced = [op for op in good if op.get("traced")]
    for key in traced[0].get("spans", {}) if traced else []:
        out[key] = statistics.median(op["spans"][key] for op in traced)
    if good:
        out["op.wall_p50_s"] = statistics.median(op["wall_s"] for op in good)
    untraced = [op["wall_s"] for op in good if not op.get("traced")]
    if traced and untraced:
        out["trace_overhead_frac"] = (statistics.median(op["wall_s"] for op in traced)
                                      / statistics.median(untraced) - 1.0)
    out.update(raw["probe"])
    return out


def chrome_trace(spans_path, out_path):
    """Merge the driver's span lines into a Chrome trace-event file (opens in
    Perfetto or chrome://tracing): one process track per op (the probes are
    "op -1"), one thread per simulated process (0 = the driver thread).
    Returns each span name's self time per traced op: its duration minus
    the part of it its child spans cover."""
    spans = []
    if spans_path.is_file():
        spans = [json.loads(line) for line in spans_path.read_text().splitlines() if line]
    t0 = min((s["t0"] for s in spans), default=0.0)
    events = []
    for op in sorted({s["op"] for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": int(op) + 1,
                       "args": {"name": f"op {int(op)}"}})
    for s in spans:
        events.append({"name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                       "ts": (s["t0"] - t0) * 1e6, "dur": s["dur"] * 1e6,
                       "pid": int(s["op"]) + 1, "tid": int(s["pid"]) + 1,
                       "args": {k: s[k] for k in ("op", "id", "parent", "cpu", "vt0", "vt1")}})
    out_path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

    spans = [s for s in spans if s["op"] >= 0]
    traced_ops = len({s["op"] for s in spans}) or 1
    children = {}
    for s in spans:
        children.setdefault((s["op"], s["parent"]), []).append(s)
    self_time = {}
    for s in spans:
        lo, hi = s["t0"], s["t0"] + s["dur"]
        covered, reach = 0.0, lo
        for c in sorted(children.get((s["op"], s["id"]), []), key=lambda c: c["t0"]):
            a, b = max(c["t0"], reach), min(c["t0"] + c["dur"], hi)
            if b > a:
                covered += b - a
                reach = b
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + (s["dur"] - covered) / traced_ops
    return self_time


# --- comparison of two sets of runs (choosing-metrics guide, section 8) -------


def classify(parent, change, better, bound):
    """improved / unchanged / worse / unresolved for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    gap = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gap > q[2] - q[0]:
        return "improved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    if -gap > bound * abs(pm):
        return "worse"
    return "unchanged"


def compare(parent_path, change_path, bench):
    parent = [json.loads(l) for l in Path(parent_path).read_text().splitlines() if l.strip()]
    change = [json.loads(l) for l in Path(change_path).read_text().splitlines() if l.strip()]
    pairs = min(len(parent), len(change))
    if pairs < 10:
        print(f"need at least 10 runs on each side, got {len(parent)} and {len(change)}")
        return 2
    parent, change = parent[:pairs], change[:pairs]
    worse = False
    print(f"{'workload':10} {'metric':14} {'parent':>12} {'change':>12} verdict")
    for w in WORKLOADS:
        if not all(w in r["workloads"] for r in parent + change):
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r["workloads"][w]["metrics"][name]["value"] for r in parent]
            c = [r["workloads"][w]["metrics"][name]["value"] for r in change]
            verdict = classify(p, c, m["better"], m["bound"])
            worse |= verdict == "worse"
            print(f"{w:10} {name:14} {statistics.median(p):12.6g} "
                  f"{statistics.median(c):12.6g} {verdict}")
        ff = []
        for side in (parent, change):
            att = sum(r["workloads"][w]["attempted"] for r in side)
            ff.append(sum(r["workloads"][w]["failed"] for r in side) / att)
        verdict = "worse" if ff[1] > ff[0] else "improved" if ff[1] < ff[0] else "unchanged"
        worse |= verdict == "worse"
        print(f"{w:10} {'fail_frac':14} {ff[0]:12.6g} {ff[1]:12.6g} {verdict}")
    return 1 if worse else 0


# --- main -----------------------------------------------------------------------


def parse_args(argv, bench):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench.get("run_seconds", 20))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace=1")
    ap.add_argument("--json", help="append this run's result as one JSON line")
    ap.add_argument("--ops", type=int, default=0, help="stop after this many ops")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--driver", help=argparse.SUPPRESS)  # test hook: a fake driver
    args = ap.parse_args(argv)
    if args.traced:
        args.trace = 1
    return args


def main(argv=None):
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text()) if bench_file.is_file() else {}
    args = parse_args(sys.argv[1:] if argv is None else argv, bench)
    if args.compare:
        return compare(*args.compare, bench)
    try:
        if args.driver:
            driver, build_type = [sys.executable, args.driver], "fake"
        else:
            driver, build_type = build()
        workloads = [args.workload] if args.workload else WORKLOADS
        spec = bench["per_layer"] if args.trace else bench["end_to_end"]
        result = {"stamp": stamp(build_type), "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "workloads": {}}
        BUILD.mkdir(parents=True, exist_ok=True)
        for w in workloads:
            spans_path = BUILD / f"spans_{w}_seed{args.seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            with open(BUILD / f"driver_{w}.log", "w") as stderr:
                raw = run_workload(driver, w, args, spans_path, stderr)
            e2e, tail_p = end_to_end(raw)
            values = per_layer(raw) if args.trace else e2e
            attempted = len(raw["ops"])
            failed = sum(1 for op in raw["ops"] if not op["ok"])
            entry = {"attempted": attempted, "failed": failed,
                     "fail_frac": failed / attempted if attempted else 1.0,
                     "tail_percentile": tail_p, "why": sorted({op["why"] for op in
                                                               raw["ops"] if not op["ok"]}),
                     "metrics": {m["name"]: {"value": finite_or_none(values.get(m["name"])),
                                             "unit": m["unit"]} for m in spec}}
            if args.trace:
                trace_path = BUILD / f"trace_{w}_seed{args.seed}.json"
                entry["self_time_s"] = chrome_trace(spans_path, trace_path)
                entry["trace_file"] = str(trace_path)
            result["workloads"][w] = entry
            print(f"== {w}: {attempted} ops, {failed} failed"
                  + (f" ({'; '.join(entry['why'])})" if failed else "")
                  + f", tail = p{tail_p}")
            for name, m in entry["metrics"].items():
                v = m["value"]
                print(f"  {name:32} {'null' if v is None else f'{v:.6g}':>14} {m['unit']}")
            if args.trace:
                print(f"  chrome trace: {entry['trace_file']}")
                for name, v in sorted(entry["self_time_s"].items()):
                    print(f"  self time per traced op, {name:16} {v:14.6g} s")
    except BenchError as e:
        log(f"bench/e2e: {e}")
        return 1
    if args.json:
        with open(args.json, "a") as f:
            f.write(json.dumps(result) + "\n")
    entries = result["workloads"]
    if args.workload:
        metrics = entries[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, e in entries.items() for k, v in e["metrics"].items()}
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    measured = all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and attempted > 0 and measured,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
