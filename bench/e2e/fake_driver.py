#!/usr/bin/env python3
"""Stand-in for bench_e2e in the runner's unit tests.

Speaks the driver's record protocol (see bench_e2e.cpp) with instant ops.
E2E_FAKE_CRASH_AT=<op> aborts the process right after announcing that op,
the way the runtime watchdog does; E2E_FAKE_CRASH_AT=setup aborts before
set-up finishes.  Set-up fails when any FTR_* variable reaches it.
"""

import json
import os
import sys
import time


def emit(**rec):
    print(json.dumps(rec), flush=True)


def main():
    args = dict(a[2:].split("=", 1) for a in sys.argv[1:] if a.startswith("--"))
    crash_at = os.environ.get("E2E_FAKE_CRASH_AT", "")
    if crash_at == "setup":
        os.abort()
    leaked = sorted(k for k in os.environ if k.startswith("FTR_"))
    if leaked:
        emit(type="setup_failed", workload=args["workload"], why=f"FTR_* leaked: {leaked}")
        return
    reps = int(args.get("setup_reps", 1))
    emit(type="setup", workload=args["workload"], setup_s=[0.01 * (i + 1) for i in range(reps)],
         setup_sys_frac=[0.0] * reps, setup_handoff_s=[4e-6] * reps, watchdog_s=8, ranks=4)
    deadline = time.monotonic() + float(args.get("seconds", 1))
    max_ops = int(args.get("ops", 0))
    op, done = int(args.get("start_op", 0)), 0
    while (not max_ops or done < max_ops) and time.monotonic() < deadline:
        emit(type="begin", op=op)
        if crash_at == str(op):
            os.abort()
        emit(type="op", op=op, ok=1, why="", stratum=op % 2, wall_s=0.001 * (1 + op % 3),
             vtime=1.0 + op % 2, err_ratio=1.0, maxrss_kb=2048, traced=0,
             counters={"ftmpi.sys_cpu_frac": 0.5, "ftmpi.handoff_us": 8.0})
        op += 1
        done += 1
    emit(type="done", workload=args["workload"], failed=0)


if __name__ == "__main__":
    main()
