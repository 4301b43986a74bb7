#!/usr/bin/env python3
"""Unit tests of bench/e2e/run.py: the tail-percentile rule, the bound
comparison, build and environment hygiene, and crash-restart accounting
against fake_driver.py, a driver that aborts mid-workload.

    python3 bench/e2e/test_run.py
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def run_fake(*args, crash_at=None, extra_env=None):
    """Run the runner against the fake driver; returns (rc, stdout lines)."""
    env = dict(os.environ)
    env.pop("E2E_FAKE_CRASH_AT", None)
    if crash_at is not None:
        env["E2E_FAKE_CRASH_AT"] = str(crash_at)
    env.update(extra_env or {})
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           f"--driver={HERE / 'fake_driver.py'}", *args],
                          capture_output=True, text=True, env=env, timeout=120, check=False)
    return proc.returncode, proc.stdout.splitlines()


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(80), 87)
        self.assertEqual(run.tail_percentile(30), 66)
        self.assertEqual(run.tail_percentile(200), 95)

    def test_never_below_the_median(self):
        for n in (1, 11, 20):
            self.assertEqual(run.tail_percentile(n), 50)

    def test_leaves_ten_samples_beyond(self):
        for n in (21, 30, 80, 200, 1000):
            values = list(range(n))
            beyond = [v for v in values if v > run.percentile(values, run.tail_percentile(n))]
            self.assertGreaterEqual(len(beyond), 10)

    def test_stratified_median_ignores_the_mix(self):
        a = [{"stratum": 0, "v": 1.0}] * 9 + [{"stratum": 1, "v": 3.0}]
        b = [{"stratum": 0, "v": 1.0}] + [{"stratum": 1, "v": 3.0}] * 9
        self.assertEqual(run.stratified_median(a, "v"), 2.0)
        self.assertEqual(run.stratified_median(b, "v"), 2.0)


class Compare(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_improved_needs_nine_wins_and_a_gap_beyond_the_iqr(self):
        faster = [v - 1.0 for v in self.parent]
        self.assertEqual(run.classify(self.parent, faster, "lower", 0.1), "improved")
        # Nine of ten pairs better but by less than the parent's IQR.
        nudged = [v - 0.05 for v in self.parent[:9]] + [self.parent[9] + 0.1]
        self.assertEqual(run.classify(self.parent, nudged, "lower", 0.1), "unchanged")

    def test_worse_beyond_the_bound(self):
        slower = [v * 1.2 for v in self.parent]
        self.assertEqual(run.classify(self.parent, slower, "lower", 0.1), "worse")
        self.assertEqual(run.classify(self.parent, slower, "lower", 0.25), "unchanged")
        self.assertEqual(run.classify(self.parent, [v / 1.2 for v in self.parent],
                                      "higher", 0.1), "worse")

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 7.0]
        self.assertEqual(run.classify(noisy, noisy, "lower", 0.1), "unresolved")
        # ...unless every change run beats every parent run.
        self.assertEqual(run.classify(noisy, [4.5] * 10, "lower", 0.1), "unchanged")
        self.assertEqual(run.classify(noisy, [2.0] * 10, "lower", 0.1), "improved")

    def test_compare_files(self):
        bench = {"end_to_end": [{"name": "op_p50_s", "unit": "s", "better": "lower",
                                 "bound": 0.1}]}

        def result(v, failed=0):
            return {"workloads": {"solve": {"attempted": 10, "failed": failed,
                                            "metrics": {"op_p50_s": {"value": v}}}}}

        with tempfile.TemporaryDirectory() as d:
            p, c = Path(d, "p.jsonl"), Path(d, "c.jsonl")
            p.write_text("".join(json.dumps(result(v)) + "\n" for v in self.parent))
            c.write_text("".join(json.dumps(result(v)) + "\n" for v in self.parent[:9]))
            self.assertEqual(run.compare(p, c, bench), 2)  # fewer than ten pairs
            c.write_text("".join(json.dumps(result(v)) + "\n" for v in self.parent))
            self.assertEqual(run.compare(p, c, bench), 0)
            c.write_text("".join(json.dumps(result(v, failed=1)) + "\n" for v in self.parent))
            self.assertEqual(run.compare(p, c, bench), 1)  # more ops fail


class Hygiene(unittest.TestCase):
    def test_refuses_debug_and_sanitizer_builds(self):
        ok = "CMAKE_BUILD_TYPE:STRING=RelWithDebInfo\nCMAKE_CXX_FLAGS:STRING=\n"
        self.assertEqual(run.check_build(ok), "RelWithDebInfo")
        for bad in ("CMAKE_BUILD_TYPE:STRING=Debug\n",
                    "CMAKE_BUILD_TYPE:STRING=\n",
                    ok + "CMAKE_CXX_FLAGS_RELWITHDEBINFO:STRING=-O2 -fsanitize=address\n",
                    ok + "FTR_SANITIZE:STRING=thread\n"):
            with self.assertRaises(run.BenchError):
                run.check_build(bad)

    def test_scrubs_ftr_variables(self):
        env = run.scrubbed_env({"FTR_RECOVERY": "cr", "FTR_DETECTOR": "off", "PATH": "/bin"})
        self.assertEqual(env, {"PATH": "/bin"})
        rc, out = run_fake("--workload=solve", "--seconds=5", "--ops=4",
                           extra_env={"FTR_RECOVERY": "cr"})
        self.assertEqual(rc, 0)
        self.assertTrue(json.loads(out[-1])["correct"])

    def test_no_result_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, Path(d, "bench", "e2e"))
            shutil.copy(HERE.parent.parent / "BENCHMARK.json", d)
            proc = subprocess.run([sys.executable, "bench/e2e/run.py", "--workload", "solve",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=d, capture_output=True, text=True, timeout=120,
                                  check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class CrashRestart(unittest.TestCase):
    def test_watchdog_abort_costs_one_op(self):
        rc, out = run_fake("--workload=solve", "--seconds=30", "--ops=8", crash_at=3)
        self.assertEqual(rc, 0)
        result = json.loads(out[-1])
        self.assertEqual(result["attempted"], 8)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in bench["end_to_end"]})

    def test_restart_resumes_at_the_next_op(self):
        os.environ["E2E_FAKE_CRASH_AT"] = "2"
        try:
            with tempfile.TemporaryDirectory() as d, open(Path(d, "log"), "w") as log:
                args = run.parse_args(["--workload=solve", "--seconds=30", "--ops=6"], {})
                raw = run.run_workload([sys.executable, str(HERE / "fake_driver.py")],
                                       "solve", args, Path(d, "spans"), log)
        finally:
            del os.environ["E2E_FAKE_CRASH_AT"]
        self.assertEqual([op["op"] for op in raw["ops"]], list(range(6)))
        self.assertEqual([op["op"] for op in raw["ops"] if not op["ok"]], [2])
        # Set-up time comes from the first driver only, which sets up three times.
        self.assertEqual(raw["setup_s"], [0.01, 0.02, 0.03])

    def test_setup_crash_is_an_error(self):
        rc, out = run_fake("--workload=solve", "--seconds=5", crash_at="setup")
        self.assertNotEqual(rc, 0)
        self.assertFalse(any('"correct"' in line for line in out))


if __name__ == "__main__":
    unittest.main()
