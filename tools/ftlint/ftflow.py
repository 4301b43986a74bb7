"""ftflow — interprocedural message-flow analysis layer for ftlint (FTL011-FTL013).

ULFM's founding rule — and the source paper's premise — is that no MPI call
may block indefinitely after a failure.  FTL001-FTL010 check error
observation, lifecycle and fiber-readiness, but none of them look at the
*message flow itself*: a send/recv pairing that deadlocks under a
rank-dependent branch, a wire field that steers control flow before
validation, or a blocking wait loop with no failure exit all pass those
rules silently.  This layer closes that gap, reusing the ftmodel recipe
(per-function summaries stitched through the name-based call graph):

  FTL011  static send/recv and collective matching: for each rank-dependent
          `if`/`else`, compute the communication endpoints each arm leads
          with.  Two cycle shapes are flagged: (a) *mutual blocking recv* —
          both arms issue a blocking receive on the same communicator before
          any send, so ranks taking opposite arms each wait for a message
          the other side has not sent (a cross-rank wait-for cycle); and
          (b) *collective-order inversion* — both arms issue the same
          multiset of collectives in a different order, so ranks pair
          mismatched collectives (deepening FTL005 from "rank-dependent
          collective" to "rank-dependent collective *order*").
  FTL012  wire-struct taint: every field unpacked (or memcpy'd) from a
          `*Wire` struct (HeartbeatWire, GossipWire, DoorbellWire,
          checkpoint/snapshot headers) is tainted until it passes a
          validation predicate — a named validator (`epoch_ok`, a CRC
          check) or an exit-only range guard.  A tainted value must not
          reach a non-guard branch condition, an array index, or a loop
          bound: a hostile or stale wire would steer control flow.  This
          generalizes FTL007 from "an epoch_ok verdict was observed
          somewhere in the function" to positional def-use taint.
  FTL013  bounded progress: every *unbounded* loop (`for (;;)`,
          `while (true)`) that can block — a direct primitive wait or a
          call that transitively reaches one — must have a reachable
          failure-observation exit: detector/liveness vocabulary in the
          loop itself, or a conditional exit paired with blocking callees
          that observe failure internally (verified transitively through
          the call graph).  A blocking loop with neither turns the first
          unobserved failure into an infinite wait — exactly the hang the
          `FTR_SANITIZE=deadlock` runtime cross-check (src/ftmpi/dlsan.hpp)
          aborts on dynamically.

Approximations, stated: the call graph is name-based and misses member
calls, like FTL003's — calls through `std::function` callbacks are surfaced
separately as unknown-callee findings (see Engine._check_ftl003).  FTL011
is arm-local (it does not chase sends issued by callees); FTL012 is
function-local and positional (no aliasing); FTL013 only audits unbounded
loops — a bounded retry loop terminates by construction.  All three are
cross-checked dynamically by the deadlock sanitizer's wait-for-graph cycle
detection and no-progress watchdog.
"""

from __future__ import annotations

import ftlint_lex
from ftlint_lex import Finding, SourceFile, _is_name
from ftfiber import _blocking_at
from ftmodel import (COLLECTIVES, _arg_segments, _call_at, _guard_exits,
                     _rank_dependent, _seg_chain, _stmt_end)

# -- registries (names mirror src/ftmpi/api.hpp + mpi_compat.hpp) ------------

#: Receive-family operations that park the caller until a matching message
#: (or an observed failure/revocation) arrives.
RECV_BLOCKING = {
    "recv", "recv_bytes", "ctrl_recv", "ctrl_recv_any", "probe",
    "sendrecv_bytes",
    "MPI_Recv", "MPI_Probe", "MPI_Sendrecv",
}

#: Send-family operations.  Sends are eager in this runtime (and buffered in
#: real ULFM MPI for small payloads): an arm that *sends first* breaks the
#: mutual-recv cycle, which is exactly what FTL011 checks for.
SEND_OPS = {
    "send", "send_bytes", "isend", "isend_bytes", "ctrl_send",
    "MPI_Send", "MPI_Isend",
}

#: API entry points that may park the calling rank.  This is the *seed* of
#: the transitive may-block closure: inside src/ the closure discovers
#: everything that reaches `wait_for_message`/`probe` through the call
#: graph on its own; the seed keeps fixture/header code (declarations
#: without bodies) honest.
BLOCKING_APIS = (RECV_BLOCKING | COLLECTIVES
                 | {"wait", "waitall", "wait_for_message",
                    "MPI_Wait", "MPI_Waitall"})

#: FTL012 taint roots: a local whose type name ends in `Wire`, plus the
#: explicitly registered header types (checkpoint/snapshot headers carry a
#: CRC instead of an epoch but are network/disk-sourced all the same).
_WIRE_SUFFIX = "Wire"
EXTRA_TAINT_TYPES = {"SnapshotHeader", "CheckpointHeader", "CkptHeader"}

#: Named validation predicates.  A call mentioning the tainted local — or a
#: branch condition that both mentions it and contains one of these calls
#: (the `w.crc != crc32(...)` compare shape) — ends the taint.
VALIDATORS = {"epoch_ok", "crc32", "snapshot_crc", "validate_header",
              "checksum_ok"}

#: FTL013 failure-observation vocabulary: identifiers whose presence in a
#: blocking loop shows the loop can see a failure/timeout and leave.
_OBSERVE_EXACT = {
    "dead", "finished", "revoked", "is_revoked", "interrupt", "interrupt2",
    "kErrProcFailed", "kErrRevoked", "kErrPending", "kErrComm", "kSuccess",
    "check_alive", "observe_error", "observe_hopeless_wait", "knows",
    "knows_any_in", "dead_ranks", "member_snapshot", "dead_members", "is_dead",
    "epoch_ok", "wtime", "abort_self", "watch",
}
_OBSERVE_SUBSTR = ("epoch", "detect", "revoke", "failed", "dead", "alive",
                   "timeout", "deadline", "budget")

_JUMPS = {"return", "break", "goto", "throw"}


def _observes_failure(text: str) -> bool:
    if text in _OBSERVE_EXACT:
        return True
    low = text.lower()
    return _is_name(text) and any(s in low for s in _OBSERVE_SUBSTR)


def _is_wire_type(text: str) -> bool:
    return ((text.endswith(_WIRE_SUFFIX) and len(text) > len(_WIRE_SUFFIX))
            or text in EXTRA_TAINT_TYPES)


def _unbounded_loop_at(sf: SourceFile, i: int) -> int | None:
    """Body start index when tokens[i] opens `for (;;)` / `while (true|1)`,
    else None."""
    toks = sf.tokens
    t = toks[i].text
    if t == "for" and i + 4 < len(toks) and toks[i + 1].text == "(":
        if (toks[i + 2].text == ";" and toks[i + 3].text == ";"
                and toks[i + 4].text == ")"):
            return i + 5
        return None
    if t == "while" and i + 3 < len(toks) and toks[i + 1].text == "(":
        if toks[i + 2].text in ("true", "1") and toks[i + 3].text == ")":
            return i + 4
    return None


class FlowModel:
    """FTL011-013 message-flow summaries and findings over the engine's
    sources, plus the `--report=flow` wait-for-graph inventory."""

    _ROUNDS = 16

    def __init__(self, engine: "ftlint_lex.Engine"):
        self.engine = engine
        self.functions: list[tuple[str, SourceFile, int, int]] = []
        for sf in engine.sources:
            for name, _ni, b0, b1 in ftlint_lex._iter_functions(sf):
                self.functions.append((name, sf, b0, b1))

        # Pre-scan: direct blocking primitives, direct failure observation,
        # and the name-based call graph (FTL003's recipe).
        self.calls: dict[str, set[str]] = {}
        self.block_why: dict[str, str] = {}
        self.observes: set[str] = set()
        for fn, sf, b0, b1 in self.functions:
            callees = self.calls.setdefault(fn, set())
            for i in range(b0, b1):
                if _blocking_at(sf, i) is not None:
                    self.block_why.setdefault(fn, f"`{sf.tokens[i].text}`")
                if _observes_failure(sf.tokens[i].text):
                    self.observes.add(fn)
                callee = _call_at(sf, i)
                if callee is not None and callee != fn:
                    callees.add(callee)

        # may-block fixed point: a function blocks when it hits a primitive,
        # calls a may-block function, or calls a blocking API whose body the
        # engine cannot see (declaration-only, e.g. in fixture stubs).
        changed, rounds = True, 0
        while changed and rounds < self._ROUNDS:
            changed, rounds = False, rounds + 1
            for fn, callees in self.calls.items():
                if fn in self.block_why:
                    continue
                for c in sorted(callees):
                    if c in self.block_why:
                        self.block_why[fn] = f"{c} -> {self.block_why[c]}"
                        changed = True
                        break
                    if c in BLOCKING_APIS and c not in engine.defs:
                        self.block_why[fn] = f"`{c}` (blocking API)"
                        changed = True
                        break
        self.may_block = set(self.block_why)

        # failure-observation fixed point (FTL013's "verified transitively
        # through callees"): a caller inherits a callee's observation.
        changed, rounds = True, 0
        while changed and rounds < self._ROUNDS:
            changed, rounds = False, rounds + 1
            for fn, callees in self.calls.items():
                if fn in self.observes:
                    continue
                if any(c in self.observes for c in callees):
                    self.observes.add(fn)
                    changed = True

        # reaches-collective closure for FTL011's order comparison (the
        # seeding loop of ftmodel.build_and_check, kept local so the flow
        # layer does not depend on Comm-parameter summaries).
        self.coll_why: dict[str, str] = {}
        changed, rounds = True, 0
        while changed and rounds < self._ROUNDS:
            changed, rounds = False, rounds + 1
            for fn, sf, b0, b1 in self.functions:
                if fn in self.coll_why:
                    continue
                for i in range(b0, b1):
                    callee = _call_at(sf, i)
                    if callee is None or callee == fn:
                        continue
                    if callee in COLLECTIVES:
                        self.coll_why[fn] = callee
                        changed = True
                        break
                    if callee in self.coll_why:
                        self.coll_why[fn] = f"{callee} -> {self.coll_why[callee]}"
                        changed = True
                        break

        # Main pass: findings + the report inventory.
        self.findings: list[Finding] = []
        self.rank_branches: list[dict] = []
        self.unbounded_loops: list[dict] = []
        self.taint_roots: list[dict] = []
        for fn, sf, b0, b1 in self.functions:
            self._check_ftl011(fn, sf, b0, b1)
            self._check_ftl012(fn, sf, b0, b1)
            self._check_ftl013(fn, sf, b0, b1)

    # -- shared ---------------------------------------------------------------
    def _emit(self, sf: SourceFile, rule: str, line: int, msg: str) -> None:
        if not self.engine._suppressed(sf, rule, line):
            self.findings.append(Finding(sf.path, line, rule, msg))

    # -- FTL011 ---------------------------------------------------------------
    def _first_comm_op(self, sf: SourceFile, lo: int, hi: int):
        """First send/recv-family call in [lo, hi): (kind, tok_idx, callee,
        arg-chain set) or None."""
        toks = sf.tokens
        for k in range(lo, hi):
            callee = _call_at(sf, k)
            if callee is None:
                continue
            kind = ("recv" if callee in RECV_BLOCKING
                    else "send" if callee in SEND_OPS else None)
            if kind is None:
                continue
            # The channel is the communicator argument, not the data buffer:
            # two receives sharing only a payload pointer are not a cycle.
            # Repo-style ops take the comm first; MPI_* keeps it near the
            # tail (before the optional status).
            segs = _arg_segments(sf, k + 1)
            pick = segs[-2:] if callee.startswith("MPI_") else segs[:1]
            chains = {c for c in (_seg_chain(toks, s) for s in pick) if c}
            return kind, k, callee, chains
        return None

    def _collective_seq(self, sf: SourceFile, lo: int, hi: int):
        """Ordered (resolved collective, issuing callee, line) triples for
        every collective-reaching call in [lo, hi)."""
        out = []
        for k in range(lo, hi):
            callee = _call_at(sf, k)
            if callee is None:
                continue
            if callee in COLLECTIVES:
                out.append((callee, callee, sf.tokens[k].line))
            elif callee in self.coll_why:
                resolved = self.coll_why[callee].split(" -> ")[-1]
                out.append((resolved, callee, sf.tokens[k].line))
        return out

    def _check_ftl011(self, fn: str, sf: SourceFile, b0: int, b1: int) -> None:
        toks = sf.tokens
        i = b0
        while i < b1:
            if toks[i].text != "if" or i + 1 >= b1 or toks[i + 1].text != "(":
                i += 1
                continue
            close = sf.match_paren(i + 1)
            if not _rank_dependent(toks[i + 2:close]):
                i += 1
                continue
            cond_line = toks[i].line
            then_lo = close + 1
            then_hi = _stmt_end(sf, then_lo)
            if then_hi >= b1 or toks[then_hi].text != "else":
                i += 1
                continue
            else_lo = then_hi + 1
            else_hi = _stmt_end(sf, else_lo)

            # (a) mutual blocking recv: both arms lead with a blocking
            # receive on the same communicator before any send.
            then_op = self._first_comm_op(sf, then_lo, then_hi)
            else_op = self._first_comm_op(sf, else_lo, else_hi)
            entry = {"function": fn, "file": sf.path, "line": cond_line,
                     "then_first_op": then_op[2] if then_op else None,
                     "else_first_op": else_op[2] if else_op else None,
                     "cycle": None}
            if (then_op is not None and else_op is not None
                    and then_op[0] == "recv" and else_op[0] == "recv"):
                shared = then_op[3] & else_op[3]
                if shared:
                    comm = sorted(shared)[-1]
                    entry["cycle"] = "mutual-recv"
                    for op, peer in ((then_op, else_op), (else_op, then_op)):
                        self._emit(
                            sf, "FTL011", toks[op[1]].line,
                            f"both arms of the rank-dependent branch at line "
                            f"{cond_line} lead with a blocking `{op[2]}` on "
                            f"`{comm}` before any send (the other arm's is "
                            f"`{peer[2]}` at line {toks[peer[1]].line}); "
                            "ranks taking opposite arms wait for each other "
                            "— a cross-rank wait-for cycle.  One side must "
                            "send first (ordered exchange) or use "
                            "sendrecv/nonblocking receives")

            # (b) collective-order inversion: same multiset, different order.
            then_seq = self._collective_seq(sf, then_lo, then_hi)
            else_seq = self._collective_seq(sf, else_lo, else_hi)
            then_names = [r for r, _c, _l in then_seq]
            else_names = [r for r, _c, _l in else_seq]
            if (len(then_names) >= 2 and then_names != else_names
                    and sorted(then_names) == sorted(else_names)):
                entry["cycle"] = entry["cycle"] or "collective-order"
                for pos, (resolved, callee, line) in enumerate(then_seq):
                    if else_names[pos] != resolved:
                        via = (f" (via `{callee}`)"
                               if callee != resolved else "")
                        self._emit(
                            sf, "FTL011", line,
                            f"rank-dependent branch at line {cond_line} "
                            "issues the same collectives in a different "
                            f"order on each arm: this arm runs "
                            f"`{' -> '.join(then_names)}`, the other "
                            f"`{' -> '.join(else_names)}`{via}; ranks on "
                            f"opposite arms pair `{resolved}` with "
                            f"`{else_names[pos]}` and deadlock — every rank "
                            "must issue collectives in the same order")
                        break
            if then_op or else_op or then_seq or else_seq:
                self.rank_branches.append(entry)
            i += 1

    # -- FTL012 ---------------------------------------------------------------
    def _taint_roots(self, sf: SourceFile, b0: int, b1: int):
        """(var, taint_start_idx, type_name, decl_line) for every local that
        receives wire bytes in [b0, b1): `auto w = unpack<XWire>(...)` /
        `XWire w = unpack<...>(...)`, and `XWire w; ... memcpy(&w, ...)`."""
        toks = sf.tokens
        out = []
        declared: dict[str, tuple[int, str]] = {}  # var -> (decl idx, type)
        for i in range(b0, b1):
            t = toks[i].text
            if (t == "unpack" and i + 2 < b1 and toks[i + 1].text == "<"):
                # wire type = last identifier before the closing `>`
                k, wire = i + 2, None
                while k < b1 and toks[k].text != ">":
                    if _is_name(toks[k].text):
                        wire = toks[k].text
                    k += 1
                if wire is None or not _is_wire_type(wire):
                    continue
                s = sf.qualified_start(i)
                if (s >= 2 and toks[s - 1].text == "="
                        and _is_name(toks[s - 2].text)):
                    out.append((toks[s - 2].text, i, wire, toks[i].line))
            elif (_is_name(t) and _is_wire_type(t) and i + 2 < b1
                  and _is_name(toks[i + 1].text)
                  and toks[i + 2].text in (";", "{", "=")):
                declared[toks[i + 1].text] = (i, t)
            elif (t == "memcpy" and i + 1 < b1 and toks[i + 1].text == "("):
                segs = _arg_segments(sf, i + 1)
                if not segs:
                    continue
                a, b = segs[0]
                if (b - a == 2 and toks[a].text == "&"
                        and toks[a + 1].text in declared):
                    var = toks[a + 1].text
                    out.append((var, i, declared[var][1], toks[i].line))
        return out

    def _check_ftl012(self, fn: str, sf: SourceFile, b0: int, b1: int) -> None:
        toks = sf.tokens
        for var, start, wire, decl_line in self._taint_roots(sf, b0, b1):
            validated_line = None
            # Bracket context: innermost open bracket kind + the index of an
            # enclosing control condition's `(`, maintained as a stack.
            stack: list[tuple[str, int]] = []
            k = start
            while k < b1:
                t = toks[k].text
                if t in ("(", "["):
                    stack.append((t, k))
                elif t in (")", "]"):
                    if stack:
                        stack.pop()
                elif (t == var and k > 0
                      and toks[k - 1].text not in (".", "->", "::")):
                    # A read of the tainted local (or one of its fields).
                    if (k + 2 < len(toks) and toks[k + 1].text == "="
                            and toks[k + 2].text != "="):
                        k += 1
                        continue  # whole-struct reassignment: not a read
                    ctx = self._sink_context(sf, stack, k, var)
                    if ctx == "validator":
                        validated_line = toks[k].line
                        break
                    if ctx is not None:
                        kind = ("an array index" if ctx == "index"
                                else "a branch condition / loop bound")
                        self._emit(
                            sf, "FTL012", toks[k].line,
                            f"`{var}` (unpacked from `{wire}` at line "
                            f"{decl_line}) reaches {kind} before any "
                            "validation; a stale or hostile wire field "
                            "steers control flow here — validate first "
                            "(epoch_ok / CRC compare / exit-only range "
                            "guard), then act")
                elif (t in VALIDATORS and k + 1 < b1
                      and toks[k + 1].text == "("
                      and self.engine._arg_is(sf, k, var)):
                    validated_line = toks[k].line
                    break
                k += 1
            self.taint_roots.append({
                "function": fn, "file": sf.path, "line": decl_line,
                "var": var, "type": wire, "validated_line": validated_line})

    def _sink_context(self, sf: SourceFile, stack, k: int,
                      var: str) -> str | None:
        """Classify the tainted read at token k given the open-bracket stack:
        'index' (inside `[...]`), 'branch' (inside a non-guard control
        condition), 'validator' (inside a validating guard condition), or
        None (plain data flow — argument lists, arithmetic, stores)."""
        toks = sf.tokens
        if stack and stack[-1][0] == "[":
            return "index"
        # Innermost control condition enclosing this read, if any.
        for kind, open_idx in reversed(stack):
            if kind != "(":
                continue
            before = toks[open_idx - 1].text if open_idx > 0 else None
            if before not in ("if", "while", "switch", "for"):
                continue
            close = sf.match_paren(open_idx)
            # The `w.crc != crc32(...)` / `!epoch_ok(st, w)` compare shapes:
            # a validator call inside the same condition blesses the read.
            if any(toks[j].text in VALIDATORS for j in range(open_idx, close)):
                return "validator"
            # Exit-only range guard: `if (w.len > kMax) return err;` — the
            # sanctioned way to *test* a tainted field is to reject the
            # message and leave.
            if before == "if":
                body_lo = close + 1
                body_hi = _stmt_end(sf, body_lo)
                if _guard_exits(sf, body_lo, body_hi):
                    return "validator"
            return "branch"
        return None

    # -- FTL013 ---------------------------------------------------------------
    def _check_ftl013(self, fn: str, sf: SourceFile, b0: int, b1: int) -> None:
        toks = sf.tokens
        i = b0
        while i < b1:
            body_lo = _unbounded_loop_at(sf, i)
            if body_lo is None:
                i += 1
                continue
            loop_line = toks[i].line
            body_hi = _stmt_end(sf, body_lo)

            blocking: list[str] = []
            observes_direct = False
            has_exit = False
            callees_observe = True
            for k in range(body_lo, body_hi):
                prim = _blocking_at(sf, k)
                if prim is not None:
                    blocking.append(f"`{prim}`")
                    callees_observe = False  # a raw primitive observes nothing
                if _observes_failure(toks[k].text):
                    observes_direct = True
                if toks[k].text in _JUMPS:
                    has_exit = True
                callee = _call_at(sf, k)
                if callee is None:
                    continue
                why = self.block_why.get(callee)
                if why is not None:
                    blocking.append(f"`{callee}` ({why})")
                    if callee not in self.observes:
                        callees_observe = False
                elif callee in BLOCKING_APIS and callee not in self.engine.defs:
                    blocking.append(f"`{callee}` (blocking API)")
                    if not _observes_failure(callee):
                        callees_observe = False

            if blocking:
                ok = observes_direct or (has_exit and callees_observe)
                self.unbounded_loops.append({
                    "function": fn, "file": sf.path, "line": loop_line,
                    "blocking": sorted(set(blocking)),
                    "observes_failure": bool(ok)})
                if not ok:
                    self._emit(
                        sf, "FTL013", loop_line,
                        f"unbounded loop in `{fn}` blocks on "
                        f"{', '.join(sorted(set(blocking)))} but has no "
                        "reachable failure-observation exit (no detector "
                        "poll, liveness/revoke check, error-code test or "
                        "timeout in the loop, and no exit fed by an "
                        "observing callee); the first unobserved failure "
                        "parks this rank forever — bounded progress "
                        "requires every wait to be failure-aware")
            i = body_lo
        return

    # -- report ---------------------------------------------------------------
    def report(self) -> dict:
        """The wait-for-graph / message-flow map for `--report=flow`."""
        suppressions = []
        for sf in self.engine.sources:
            for sup in sf.suppressions:
                if sup.rule in ("FTL011", "FTL012", "FTL013") and sup.reason:
                    suppressions.append({
                        "rule": sup.rule, "file": sf.path, "line": sup.line,
                        "reason": sup.reason})
        return {
            "schema": 1,
            "may_block": {fn: self.block_why[fn]
                          for fn in sorted(self.may_block)},
            "observes_failure": sorted(self.observes & set(self.calls)),
            "rank_dependent_branches": sorted(
                self.rank_branches, key=lambda e: (e["file"], e["line"])),
            "wait_for_cycles": [
                e for e in sorted(self.rank_branches,
                                  key=lambda e: (e["file"], e["line"]))
                if e["cycle"] is not None],
            "unbounded_blocking_loops": sorted(
                self.unbounded_loops, key=lambda e: (e["file"], e["line"])),
            "wire_taint": sorted(
                self.taint_roots, key=lambda e: (e["file"], e["line"])),
            "indirect_call_sites": [
                {"name": name, "file": path, "line": line}
                for name, (path, line) in sorted(
                    self.engine.functors.items(),
                    key=lambda kv: (kv[1][0], kv[1][1]))],
            "suppressions": sorted(
                suppressions, key=lambda s: (s["file"], s["line"])),
        }


def build_and_check(engine: "ftlint_lex.Engine",
                    rules: set[str]) -> list[Finding]:
    """Entry point used by ftlint_lex.Engine.run."""
    model = FlowModel(engine)
    return [f for f in model.findings if f.rule in rules]


def flow_report(engine: "ftlint_lex.Engine") -> dict:
    """Entry point used by ftlint.py --report=flow."""
    return FlowModel(engine).report()
