#!/usr/bin/env python3
"""ftlint — static checker for this repo's fault-tolerance invariants.

Enforced rules (details in docs/ARCHITECTURE.md, "Enforced invariants"):

  FTL001  every call to an error-returning ftmpi::/MPI_ function (anything
          marked FTR_NODISCARD) must have its result observed — assigned,
          compared, returned, or passed on.  Expression-statement discards
          and `(void)` casts are violations.
  FTL002  no raw MPI_Comm/MPI_Request/MPI_Info owned across an early return
          with a manual `*_free`; use the RAII guards (src/core/raii.hpp).
  FTL003  functions annotated FTR_HOT must be transitively allocation-free:
          no new/malloc and no container growth anywhere they can reach.
  FTL004  the shrink/agree/spawn/merge/replication protocol functions must
          contain a `chaos_point(...)` hook so fault injection reaches them.
  FTL005  collective matching (interprocedural, tools/ftlint/ftmodel.py): a
          collective reachable only under a rank-dependent branch, while the
          other ranks take a collective-free path, is a deadlock seed.
  FTL006  communicator lifecycle (interprocedural): use-after-revoke outside
          the sanctioned salvage paths (iprobe_buffered/recv_buffered and
          the shrink/agree/free repair set), double-free, and handles that
          escape a function without an owner.
  FTL007  detector epoch validation: a function that unpacks a failure-
          detector wire message (HeartbeatWire/GossipWire) must observe an
          epoch_ok() verdict — stale detector messages are discarded, never
          acted on.  A discarded or (void)-cast epoch_ok does not count,
          and neither does a verdict that dies inside a discarded
          ternary/comma expression.
  FTL008  fiber blocking/yield discipline (tools/ftlint/ftfiber.py): a
          blocking primitive (cv.wait/wait_for/wait_until/sleep_for) is
          legal only inside a designated FTR_YIELD function, and no mutex
          guard may be held across a blocking primitive or a call that may
          transitively suspend (unless the guard is handed to the wait).
  FTL009  thread affinity: every `thread_local` must be registered in the
          per-rank-storage registry — FTR_PER_RANK("<migration note>") on
          or directly above the declaration — because under the planned
          fiber scheduler ranks share OS threads.
  FTL010  shared mutable state: a namespace-scope mutable global written
          without a lock guard held (and not atomic / not itself a sync
          primitive) is only serialized by OS-thread accident today; the
          vtsan runtime sanitizer (FTR_SANITIZE=vtsan) cross-checks this
          dynamically via virtual-time happens-before tracking.
  FTL011  message-flow cycles (tools/ftlint/ftflow.py): a rank-dependent
          branch whose arms both lead with a blocking receive on the same
          communicator (mutual recv — a cross-rank wait-for cycle), or
          issue the same collectives in a different order (collective-order
          inversion), deadlocks ranks that take opposite arms.
  FTL012  wire-struct taint: a value unpacked/memcpy'd from a `*Wire`
          struct or checkpoint header is tainted until validated
          (epoch_ok, CRC compare, or an exit-only range guard); tainted
          values must not reach a branch condition, array index, or loop
          bound.
  FTL013  bounded progress: an unbounded loop (`for (;;)`, `while (true)`)
          that blocks — directly or through callees — must have a
          reachable failure-observation exit (detector poll, liveness or
          revoke check, error-code test, timeout), verified transitively
          through the call graph.  The deadlock sanitizer
          (FTR_SANITIZE=deadlock, src/ftmpi/dlsan.hpp) cross-checks
          FTL011/FTL013 dynamically.
  FTL000  suppression hygiene: `// ftlint:allow(FTLxxx reason)` requires a
          valid rule id and a non-empty justification, and a suppression
          that silenced nothing this run is reported as stale.

Suppress a finding with `// ftlint:allow(FTLxxx reason)` on the same line or
the line directly above it.

Usage:
  ftlint.py --root src                         # lint a tree
  ftlint.py file.cpp other.hpp                 # lint specific files
  ftlint.py --format github ...                # ::error CI annotations
  ftlint.py --format sarif ...                 # SARIF 2.1.0 (code scanning)
  ftlint.py --report fiber --root src          # fiber-readiness inventory
  ftlint.py --report flow --root src           # message-flow inventory

Exit status: 0 = clean, 1 = findings, 2 = usage or internal error.  The
contract is strict in both directions: a crashed engine exits 2, never 0 —
"the checker died" must not be mistaken for "the tree is clean".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ftlint_lex  # noqa: E402

#: One-line rule summaries for the SARIF tool.driver.rules table.
RULE_SUMMARIES = {
    "FTL000": "suppression hygiene: justified, well-formed, non-stale",
    "FTL001": "error-returning call result must be observed",
    "FTL002": "raw MPI handle owned across an early return",
    "FTL003": "FTR_HOT kernels must be transitively allocation-free",
    "FTL004": "protocol steps must carry a chaos_point hook",
    "FTL005": "rank-dependent collective matching (deadlock seed)",
    "FTL006": "communicator lifecycle (use-after-revoke/double-free/leak)",
    "FTL007": "detector wire messages must observe an epoch_ok verdict",
    "FTL008": "blocking only inside FTR_YIELD; no mutex held across a yield",
    "FTL009": "thread_local must be FTR_PER_RANK-registered with a note",
    "FTL010": "mutable global written from rank context without a lock",
    "FTL011": "rank-dependent message flow must not form a wait-for cycle",
    "FTL012": "wire-struct fields are tainted until validated",
    "FTL013": "unbounded blocking loops need a failure-observation exit",
}


def _render_github(f: "ftlint_lex.Finding") -> str:
    """GitHub Actions workflow-command annotation: the runner attaches it to
    the PR diff at (file, line).  Properties must not contain newlines; the
    message escapes %, CR and LF per the workflow-command grammar."""
    msg = (f.message.replace("%", "%25").replace("\r", "%0D")
           .replace("\n", "%0A"))
    return f"::error file={f.path},line={f.line},title={f.rule}::{msg}"


def _render_sarif(findings: list["ftlint_lex.Finding"]) -> str:
    """Minimal SARIF 2.1.0 document: one run, one result per finding, rule
    metadata for every rule id — enough for GitHub code-scanning upload."""
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "ftlint",
                "informationUri":
                    "https://github.com/ftr/ftr/tree/main/tools/ftlint",
                "version": ftlint_lex.ENGINE_VERSION,
                "rules": [
                    {"id": rid, "name": rid,
                     "shortDescription": {"text": RULE_SUMMARIES[rid]}}
                    for rid in ftlint_lex.RULE_IDS],
            }},
            "results": [
                {"ruleId": f.rule, "level": "error",
                 "message": {"text": f.message},
                 "locations": [{"physicalLocation": {
                     "artifactLocation": {"uri": f.path},
                     "region": {"startLine": f.line}}}]}
                for f in findings],
        }],
    }
    return json.dumps(doc, indent=2)


def run_checker(args) -> int:
    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    bad = rules - set(ftlint_lex.RULE_IDS)
    if bad:
        print(f"ftlint: unknown rule ids: {', '.join(sorted(bad))}",
              file=sys.stderr)
        return 2

    files = ftlint_lex.collect_files(args.root, args.files)
    if not files:
        print("ftlint: no input files", file=sys.stderr)
        return 2

    if os.environ.get("FTLINT_INJECT_CRASH"):
        # Test hook for the exit-code contract (see test_fixtures.py): a
        # deliberately crashed engine must surface as exit 2, not 0.
        raise RuntimeError("FTLINT_INJECT_CRASH set: simulated engine crash")

    engine = ftlint_lex.Engine(files)
    if args.report == "fiber":
        # Inventory mode: the blocking/affinity/shared-state map for the
        # fiber-scheduler refactor.  Informational — always exits 0.
        import ftfiber
        print(json.dumps(ftfiber.fiber_report(engine), indent=2))
        return 0

    if args.report == "flow":
        # Inventory mode: the interprocedural message-flow map (may-block
        # closure, rank-dependent branches, wait-for cycles, wire taint).
        import ftflow
        print(json.dumps(ftflow.flow_report(engine), indent=2))
        return 0

    findings = engine.run(rules)
    if args.format == "sarif":
        print(_render_sarif(findings))
    else:
        for f in findings:
            print(_render_github(f) if args.format == "github" else f.render())
    n = len(findings)
    if n:
        print(f"ftlint: {n} finding{'s' if n != 1 else ''} "
              f"in {len(files)} files", file=sys.stderr)
        return 1
    print(f"ftlint: clean ({len(files)} files)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ftlint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", action="append", default=[],
                    help="directory tree to lint (repeatable)")
    ap.add_argument("--rules",
                    default="FTL000,FTL001,FTL002,FTL003,FTL004,FTL005,FTL006,"
                            "FTL007,FTL008,FTL009,FTL010,FTL011,FTL012,FTL013",
                    help="comma-separated rule ids to run")
    ap.add_argument("--format", choices=("human", "github", "sarif"),
                    default="human",
                    help="finding output format: human (default), GitHub "
                         "Actions ::error annotations, or SARIF 2.1.0")
    ap.add_argument("--report", choices=("fiber", "flow"), default=None,
                    help="emit an inventory report instead of linting: "
                         "`fiber` = the blocking/affinity/shared-state map "
                         "for the fiber-scheduler refactor; `flow` = the "
                         "interprocedural message-flow map (may-block set, "
                         "wait-for cycles, wire taint) (JSON, exit 0)")
    ap.add_argument("files", nargs="*", help="extra files to lint")
    args = ap.parse_args(argv)

    if not args.root and not args.files:
        ap.error("give at least one --root or file")

    try:
        return run_checker(args)
    except Exception:  # noqa: BLE001 — contract: a crashed engine is exit 2
        import traceback
        traceback.print_exc()
        print("ftlint: internal error (see traceback above) — treating the "
              "run as failed, NOT as clean", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
