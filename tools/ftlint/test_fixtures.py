#!/usr/bin/env python3
"""Fixture-corpus test for ftlint (registered with ctest as ftlint_fixtures).

Every seeded violation in tools/ftlint/fixtures/ carries an inline
`// EXPECT: FTLxxx [FTLyyy ...]` marker on the line the checker must report.
This driver runs the lexer engine over the corpus and demands an *exact* set
match between expected and actual (file, line, rule) triples — a missed seed,
a wrong line number, a wrong rule id, or any finding in a `good_*` fixture
all fail.  It then re-runs via the CLI to pin the exit-code contract:
1 for the full corpus (findings), 0 for the clean fixtures alone.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, HERE)

from ftlint_lex import Engine, RULE_IDS, collect_files  # noqa: E402

_EXPECT_RE = re.compile(r"EXPECT:\s*((?:FTL\d{3}[\s,]*)+)")


def expected_findings(files):
    """Parse `// EXPECT: FTLxxx ...` markers into (relpath, line, rule)."""
    exp = set()
    for path in files:
        rel = os.path.relpath(path, FIXTURES)
        with open(path, encoding="utf-8") as fh:
            for lineno, text in enumerate(fh, start=1):
                m = _EXPECT_RE.search(text)
                if not m:
                    continue
                for rule in re.findall(r"FTL\d{3}", m.group(1)):
                    assert rule in RULE_IDS, f"{rel}:{lineno}: bad marker {rule}"
                    exp.add((rel, lineno, rule))
    return exp


def main():
    files = collect_files([FIXTURES], [])
    if not files:
        print(f"FAIL: no fixtures found under {FIXTURES}")
        return 1
    expected = expected_findings(files)
    if not expected:
        print("FAIL: fixture corpus has no EXPECT markers — nothing is tested")
        return 1

    engine = Engine(files)
    actual = {
        (os.path.relpath(f.path, FIXTURES), f.line, f.rule)
        for f in engine.run(set(RULE_IDS))
    }

    missed = sorted(expected - actual)
    spurious = sorted(actual - expected)
    for rel, line, rule in missed:
        print(f"FAIL: seeded violation not reported: {rel}:{line}: {rule}")
    for rel, line, rule in spurious:
        print(f"FAIL: unexpected finding: {rel}:{line}: {rule}")

    # good_* fixtures must be silent — already implied by the exact-set
    # check, but assert it separately so the failure message is direct.
    noisy_good = sorted({t for t in actual if t[0].startswith("good_")})
    for rel, line, rule in noisy_good:
        print(f"FAIL: clean fixture flagged: {rel}:{line}: {rule}")

    ok = not missed and not spurious and not noisy_good

    # CLI contract: findings => exit 1; clean tree => exit 0.
    cli = os.path.join(HERE, "ftlint.py")
    full = subprocess.run(
        [sys.executable, cli, "--root", FIXTURES],
        capture_output=True, text=True)
    if full.returncode != 1:
        print(f"FAIL: CLI over full corpus: expected exit 1, got "
              f"{full.returncode}\n{full.stdout}{full.stderr}")
        ok = False
    good_files = [f for f in files
                  if os.path.basename(f).startswith(("good_", "api_stub"))]
    clean = subprocess.run(
        [sys.executable, cli, *good_files],
        capture_output=True, text=True)
    if clean.returncode != 0:
        print(f"FAIL: CLI over clean fixtures: expected exit 0, got "
              f"{clean.returncode}\n{clean.stdout}{clean.stderr}")
        ok = False

    # Exit code 2 = usage or internal error, strictly distinct from both
    # "clean" and "findings".  Three seeds: no inputs at all, an unknown
    # rule id, and a deliberately crashed engine (FTLINT_INJECT_CRASH) —
    # the last one pins the "a dead checker must not look clean" half of
    # the contract.
    import tempfile
    for label, argv, env in (
        ("no inputs", [sys.executable, cli], None),
        ("empty root", [sys.executable, cli, "--root",
                        tempfile.mkdtemp(prefix="ftlint_empty_")], None),
        ("unknown rule", [sys.executable, cli, "--rules", "FTL999",
                          *good_files], None),
        ("crashed engine", [sys.executable, cli, "--root", FIXTURES],
         {**os.environ, "FTLINT_INJECT_CRASH": "1"}),
    ):
        r = subprocess.run(argv, capture_output=True, text=True, env=env)
        if r.returncode != 2:
            print(f"FAIL: CLI ({label}): expected exit 2, got "
                  f"{r.returncode}\n{r.stdout}{r.stderr}")
            ok = False

    # --format=github: every finding becomes a ::error annotation carrying
    # the same (file, line, rule) triple the human format reports.
    gh = subprocess.run(
        [sys.executable, cli, "--format", "github",
         "--root", FIXTURES],
        capture_output=True, text=True)
    gh_re = re.compile(r"^::error file=(.+),line=(\d+),title=(FTL\d{3})::")
    gh_triples = set()
    gh_ok = gh.returncode == 1
    for line in gh.stdout.splitlines():
        if not line.strip():
            continue
        m = gh_re.match(line)
        if not m:
            print(f"FAIL: --format=github produced a non-annotation line: "
                  f"{line!r}")
            gh_ok = False
            continue
        gh_triples.add((os.path.relpath(m.group(1), FIXTURES),
                        int(m.group(2)), m.group(3)))
    if gh_triples != expected:
        print(f"FAIL: --format=github triples diverge from the corpus: "
              f"missing {sorted(expected - gh_triples)}, "
              f"spurious {sorted(gh_triples - expected)}")
        gh_ok = False
    if not gh_ok:
        ok = False

    # --format=sarif: one SARIF 2.1.0 run whose results carry the same
    # (file, line, rule) triples, with every reported ruleId declared in the
    # tool.driver.rules table.
    import json
    sa = subprocess.run(
        [sys.executable, cli, "--format", "sarif",
         "--root", FIXTURES],
        capture_output=True, text=True)
    sarif_ok = sa.returncode == 1
    try:
        doc = json.loads(sa.stdout)
        run = doc["runs"][0]
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        sarif_triples = set()
        for res in run["results"]:
            loc = res["locations"][0]["physicalLocation"]
            uri = loc["artifactLocation"]["uri"]
            sarif_triples.add((os.path.relpath(uri, FIXTURES),
                               loc["region"]["startLine"], res["ruleId"]))
            if res["ruleId"] not in declared:
                print(f"FAIL: sarif result rule {res['ruleId']} missing from "
                      f"the driver rules table")
                sarif_ok = False
        if sarif_triples != expected:
            print(f"FAIL: --format=sarif triples diverge from the corpus: "
                  f"missing {sorted(expected - sarif_triples)}, "
                  f"spurious {sorted(sarif_triples - expected)}")
            sarif_ok = False
        if doc.get("version") != "2.1.0":
            print(f"FAIL: sarif version {doc.get('version')!r} != '2.1.0'")
            sarif_ok = False
    except (json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"FAIL: --format=sarif output unparseable: {exc}")
        sarif_ok = False
    if not sarif_ok:
        ok = False

    # --cache: second identical run replays from the cache (same findings,
    # same exit code, "cache hit" on stderr); touching any file's content
    # invalidates the whole run (interprocedural rules make per-file caching
    # unsound, so the key covers every input).
    cachedir = tempfile.mkdtemp(prefix="ftlint_cache_")
    cachefile = os.path.join(cachedir, "cache.json")
    cargv = [sys.executable, cli, "--cache", cachefile,
             "--root", FIXTURES]
    cold = subprocess.run(cargv, capture_output=True, text=True)
    warm = subprocess.run(cargv, capture_output=True, text=True)
    cache_ok = True
    if cold.returncode != 1 or warm.returncode != 1:
        print(f"FAIL: cache runs: expected exit 1/1, got "
              f"{cold.returncode}/{warm.returncode}")
        cache_ok = False
    if "cache hit" in cold.stderr:
        print("FAIL: first --cache run claimed a cache hit")
        cache_ok = False
    if "cache hit" not in warm.stderr:
        print(f"FAIL: second --cache run did not hit: {warm.stderr!r}")
        cache_ok = False
    if warm.stdout != cold.stdout:
        print("FAIL: cached replay output diverges from the cold run")
        cache_ok = False
    # Content change => miss (mtimes are irrelevant; the key hashes content).
    probe = os.path.join(FIXTURES, "good_ftl010.cpp")
    with open(probe, encoding="utf-8") as fh:
        original = fh.read()
    try:
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write(original + "\n// cache-buster\n")
        busted = subprocess.run(cargv, capture_output=True, text=True)
    finally:
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write(original)
    if "cache hit" in busted.stderr:
        print("FAIL: content change did not invalidate the cache")
        cache_ok = False
    if busted.returncode != 1:
        print(f"FAIL: post-edit cache run: expected exit 1, got "
              f"{busted.returncode}")
        cache_ok = False
    if not cache_ok:
        ok = False

    if ok:
        print(f"PASS: {len(expected)} seeded violations reported exactly, "
              f"clean fixtures silent, CLI exit codes correct "
              f"({len(files)} fixture files)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
