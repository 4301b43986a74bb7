"""Token-level engine for the ftlint fault-tolerance invariant checker.

This is the reference implementation of rules FTL001-FTL004 (see
docs/ARCHITECTURE.md, "Enforced invariants").  It is a real lexer — comments,
string/char literals, raw strings and preprocessor directives are handled —
but deliberately not a parser: the rules are anchored on repo idioms
(FTR_NODISCARD / FTR_HOT markers, `chaos_point(...)` hooks, `MPI_*_free`
pairs), which token context identifies reliably without a full AST.  It has
no dependencies beyond the Python standard library, so it runs everywhere
the test suite runs.
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import Iterable

RULE_IDS = ("FTL000", "FTL001", "FTL002", "FTL003", "FTL004", "FTL005",
            "FTL006", "FTL007", "FTL008", "FTL009", "FTL010", "FTL011",
            "FTL012", "FTL013")

# Bumped whenever tokenization or any rule's semantics change; the SARIF
# report names it as the tool version, so findings can be traced to the
# engine that produced them.
ENGINE_VERSION = "lex-5"

# Keywords/punctuation that precede a *discarded* expression-statement call:
# the call begins a statement, so nothing consumes its value.
_DISCARD_PREV = {";", "{", "}", "else", "do", ":", ")", None}

# Raw handle types owned by value that FTL002 tracks, with their free
# functions and the RAII guards that make ownership early-return safe.
_FTL002_HANDLES = {
    "MPI_Comm": ("MPI_Comm_free", ("CommGuard",)),
    "MPI_Request": ("MPI_Request_free", ("RequestGuard",)),
    "MPI_Info": ("MPI_Info_free", ("InfoGuard",)),
}

# Allocation sinks for FTL003: anything that can touch the allocator.
_ALLOC_FREE_FUNCS = {"malloc", "calloc", "realloc", "strdup", "aligned_alloc"}
_ALLOC_MEMBERS = {
    "push_back", "emplace_back", "emplace", "resize", "reserve",
    "insert", "assign", "append",
}
_ALLOC_STD = {"make_unique", "make_shared"}
# Standard containers whose construction with arguments allocates:
# `std::vector<double> v(4);`, `std::vector<T>(n)`, `std::set<int> s{1, 2}`.
# Declared empty (`std::vector<T> v;`, `v{}`) they allocate nothing.
_ALLOC_CONTAINERS = {
    "vector", "deque", "list", "forward_list", "string", "basic_string",
    "map", "multimap", "set", "multiset", "unordered_map",
    "unordered_multimap", "unordered_set", "unordered_multiset",
}

# FTL007: failure-detector wire formats.  A function that unpacks one of
# these from a message payload consumes detector traffic and must validate
# the carried detector epoch with an *observed* epoch_ok() call — stale
# heartbeats/gossip must be discarded, never acted on.  DoorbellWire is the
# overlapped-recovery announcement: a doorbell from an aborted earlier
# attempt (wrong repair epoch) or from before the attempt was armed (stale
# detector epoch) must die at validation, never trigger a handoff.
_FTL007_WIRES = ("HeartbeatWire", "GossipWire", "DoorbellWire")

# FTL004: protocol families that chaos injection must be able to reach, and
# the function definitions that implement them.
FTL004_FAMILIES = {
    "comm_shrink": "shrink",
    "comm_agree": "agree",
    "comm_spawn_multiple": "spawn",
    "intercomm_merge": "merge",
    "buddy_send": "replication",
}

_ALLOW_RE = re.compile(r"ftlint:allow\(\s*(\S+)?\s*([^)]*)\)")

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Keywords that look like identifiers to the tokenizer but can never be a
# function name, a callee, or a `name::` qualifier.
_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "try", "catch", "throw",
    "new", "delete", "sizeof", "alignof", "static_assert", "decltype",
    "co_return", "co_await", "co_yield", "using", "namespace", "template",
    "typename", "struct", "class", "enum", "union", "operator",
}


def _is_name(text: str) -> bool:
    return bool(_ID_RE.fullmatch(text)) and text not in _KEYWORDS


@dataclasses.dataclass(frozen=True)
class Token:
    text: str
    line: int


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclasses.dataclass
class Suppression:
    line: int
    rule: str | None   # None => malformed (missing/invalid rule id)
    reason: str
    used: bool = False


class SourceFile:
    """One tokenized translation unit plus its suppression comments."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.tokens: list[Token] = []
        self.suppressions: list[Suppression] = []
        # Raw lines are kept because the tokenizer drops string literals;
        # rules that must read an annotation's string payload (the FTL009
        # FTR_PER_RANK migration note) re-read them from here.
        self.lines: list[str] = text.splitlines()
        self._tokenize(text)

    # -- tokenizer ----------------------------------------------------------
    def _note_comment(self, comment: str, line: int) -> None:
        m = _ALLOW_RE.search(comment)
        if not m:
            return
        rule, reason = m.group(1), (m.group(2) or "").strip()
        if rule not in RULE_IDS:
            self.suppressions.append(Suppression(line, None, reason))
        else:
            self.suppressions.append(Suppression(line, rule, reason))

    def _tokenize(self, text: str) -> None:
        i, n, line = 0, len(text), 1
        tokens = self.tokens
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                i += 1
            elif c in " \t\r\f\v":
                i += 1
            elif text.startswith("//", i):
                j = text.find("\n", i)
                j = n if j < 0 else j
                self._note_comment(text[i:j], line)
                i = j
            elif text.startswith("/*", i):
                j = text.find("*/", i + 2)
                j = n - 2 if j < 0 else j
                self._note_comment(text[i:j], line)
                line += text.count("\n", i, j + 2)
                i = j + 2
            elif c == "#":
                # Preprocessor directive: skip to end of line, honouring
                # backslash continuations (macro bodies are not code we lint).
                while i < n:
                    j = text.find("\n", i)
                    if j < 0:
                        i = n
                        break
                    cont = text[i:j].rstrip().endswith("\\")
                    line += 1
                    i = j + 1
                    if not cont:
                        break
            elif c == 'R' and text.startswith('R"', i):
                m = re.match(r'R"([^()\s\\]*)\(', text[i:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    end = n if end < 0 else end + len(m.group(1)) + 2
                    line += text.count("\n", i, end)
                    i = end
                else:
                    tokens.append(Token("R", line))
                    i += 1
            elif c in "\"'":
                j = i + 1
                while j < n and text[j] != c:
                    j += 2 if text[j] == "\\" else 1
                line += text.count("\n", i, j)
                i = j + 1
            else:
                m = _ID_RE.match(text, i)
                if m:
                    tokens.append(Token(m.group(0), line))
                    i = m.end()
                elif text.startswith("::", i):
                    tokens.append(Token("::", line))
                    i += 2
                elif text.startswith("->", i):
                    tokens.append(Token("->", line))
                    i += 2
                else:
                    tokens.append(Token(c, line))
                    i += 1

    # -- helpers ------------------------------------------------------------
    def match_paren(self, open_idx: int) -> int:
        """Index of the `)` matching tokens[open_idx] == `(` (or len)."""
        depth = 0
        for k in range(open_idx, len(self.tokens)):
            t = self.tokens[k].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return k
        return len(self.tokens)

    def qualified_start(self, name_idx: int) -> int:
        """Walk back over `::a::b::` qualifiers; return index of first token."""
        k = name_idx
        while k >= 2 and self.tokens[k - 1].text == "::" and _is_name(
                self.tokens[k - 2].text):
            k -= 2
        # Absorb a leading global-scope `::` (e.g. `::ftmpi::send(...)`).
        if k >= 1 and self.tokens[k - 1].text == "::":
            k -= 1
        return k


def _iter_functions(sf: SourceFile) -> Iterable[tuple[str, int, int, int]]:
    """Yield (name, name_idx, body_start_idx, body_end_idx) for every
    function definition: `name ( ... ) [stuff] {`.  `stuff` covers cv/ref
    qualifiers, noexcept, trailing return types and ctor initializer lists —
    anything short that is not `;`, `=` (excluding `= default/delete`), or a
    brace imbalance."""
    toks = sf.tokens
    i = 0
    while i < len(toks) - 1:
        if _is_name(toks[i].text) and toks[i + 1].text == "(":
            close = sf.match_paren(i + 1)
            k = close + 1
            ok = False
            # Scan a short window for the opening brace of the body.
            for _ in range(24):
                if k >= len(toks):
                    break
                t = toks[k].text
                if t == "{":
                    ok = True
                    break
                if t in (";", "=", "}", ")"):
                    break
                if t == "(":  # e.g. a ctor initializer's call — give up
                    break
                k += 1
            if ok:
                depth = 0
                end = k
                for j in range(k, len(toks)):
                    if toks[j].text == "{":
                        depth += 1
                    elif toks[j].text == "}":
                        depth -= 1
                        if depth == 0:
                            end = j
                            break
                yield toks[i].text, i, k, end
                i = k + 1
                continue
        i += 1


def _load_source(path: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return SourceFile(path, fh.read())


def _is_comparison_eq(toks: list[Token], k: int) -> bool:
    """True when the `=` at tokens[k] belongs to `==`, `!=`, `<=` or `>=`
    (the tokenizer splits them), not to an assignment (`<<=`, `>>=`
    included)."""
    prev = toks[k - 1].text if k > 0 else None
    nxt = toks[k + 1].text if k + 1 < len(toks) else None
    if nxt == "=" or prev in ("=", "!"):
        return True
    if prev in ("<", ">"):
        return not (k >= 2 and toks[k - 2].text == prev)
    return False


def _leftward(sf: SourceFile, s: int, skip_comparisons: bool = False):
    """Classify what sits to the left of the expression starting at token s.

    Walks back at bracket depth 0 and returns:
      'consumed'      an `=` (assignment or comparison) or `return` consumes
                      the expression's value; with `skip_comparisons`, only
                      an assignment's `=` does (from a conditional's
                      else-branch, a comparison to the left belongs to the
                      condition: `rc == 0 ? 0 : f(w)`);
      'stmt'          a statement boundary (`;`/`{`/`}`, or a case label) was
                      reached first — nothing to the left consumes it;
      ('paren', k)    token k is the unmatched `(` enclosing the expression
                      (call argument list, control condition, or grouping).
    """
    depth = 0
    k = s - 1
    toks = sf.tokens
    while k >= 0:
        t = toks[k].text
        if t in (")", "]"):
            depth += 1
        elif t in ("(", "["):
            if depth == 0:
                return ("paren", k)
            depth -= 1
        elif depth == 0:
            if t in (";", "{", "}", "case", "default"):
                return "stmt"
            if t in ("return", "co_return"):
                return "consumed"
            if t == "=" and not (skip_comparisons and _is_comparison_eq(toks, k)):
                return "consumed"
        k -= 1
    return "stmt"


def _paren_consumes(sf: SourceFile, open_idx: int) -> bool:
    """True when the `(` at open_idx consumes its contents' value: a call's
    argument list or a control-flow condition.  False for a bare grouping
    paren, whose value lives or dies with the *enclosing* expression."""
    if open_idx == 0:
        return False
    before = sf.tokens[open_idx - 1].text
    return (_is_name(before) or before in ("if", "while", "switch", "for",
                                           "return"))


def _verdict_observed(sf: SourceFile, name_idx: int) -> bool:
    """Is the value of the call at tokens[name_idx] (`name (` shape) observed?

    Generalizes the old prev/next peek: an expression-statement discard and a
    `(void)` cast are unobserved, and so is a value that dies inside a
    discarded ternary (`c ? f(w) : g();`) or comma (`f(w), g();` /
    `g(), f(w);`) expression — the shapes the PR-7 sweep missed.  The walk
    expands outward through grouping parens until the consumer (or the
    statement boundary) is found."""
    toks = sf.tokens
    s = sf.qualified_start(name_idx)
    e = sf.match_paren(name_idx + 1)
    if (s >= 3 and toks[s - 1].text == ")" and toks[s - 2].text == "void"
            and toks[s - 3].text == "("):
        return False  # (void) cast: actively discarded
    for _ in range(16):  # bounded outward expansion through grouping parens
        prev = toks[s - 1].text if s > 0 else None
        nxt = toks[e + 1].text if e + 1 < len(toks) else None
        if nxt == "?":
            return True  # our value is a ternary condition: branched on
        if nxt in (",", ":"):
            # Comma operand or ternary then-branch: observed only when the
            # surrounding expression is — an assignment/return to the left,
            # or an enclosing call/condition paren.  (A `,` inside a call's
            # argument list also lands here and resolves via the paren.)
            res = _leftward(sf, s)
            if res == "consumed":
                return True
            if isinstance(res, tuple):
                return _paren_consumes(sf, res[1])
            return False
        if nxt == ";":
            if prev == ":":
                # Ternary else-branch ending the statement: consumed iff the
                # ternary itself is (`ok = c ? x : f(w);` vs `c ? x : f(w);`).
                return _leftward(sf, s) == "consumed"
            if prev == ",":
                # Last operand of a comma expression: same question.
                res = _leftward(sf, s)
                if res == "consumed":
                    return True
                if isinstance(res, tuple):
                    return _paren_consumes(sf, res[1])
                return False
            return prev not in _DISCARD_PREV
        if nxt == ")":
            res = _leftward(sf, s)
            if res == "consumed":
                return True
            if res == "stmt":
                return True  # unbalanced/odd shape: stay conservative
            open_idx = res[1]
            if _paren_consumes(sf, open_idx):
                return True
            # Bare grouping paren: expand to it and re-classify outward.
            s, e = open_idx, sf.match_paren(open_idx)
            continue
        # Any other neighbour (operator, `[`, `.`, ...) uses the value.
        return True
    return True


class Engine:
    """Runs the lexer-engine rules over a set of files."""

    def __init__(self, files: list[str]):
        self.sources: list[SourceFile] = [_load_source(p) for p in files]
        # Registries derived from the sources themselves (single source of
        # truth: the FTR_NODISCARD / FTR_HOT / FTR_YIELD markers in the tree).
        self.nodiscard: set[str] = set()
        self.hot: set[str] = set()
        self.yield_fns: set[str] = set()
        # FTR_LOCK_SLEEP: a lock's contended path, whose sleep on the lock
        # word is no suspension point (FTL008 skips its blocking primitive).
        self.lock_sleep_fns: set[str] = set()
        # name -> list of (source, body_start, body_end, def_line)
        self.defs: dict[str, list[tuple[SourceFile, int, int, int]]] = {}
        # `std::function`-typed variables/members (and variables of a
        # using-alias for one): calls through these are invisible to the
        # name-based call graph, so FTL003 flags them as unknown-callee
        # instead of vacuously treating them as leaves.
        # name -> (path, decl line)
        self.functors: dict[str, tuple[str, int]] = {}
        for sf in self.sources:
            self._scan_markers(sf)
        fn_aliases: set[str] = set()
        for sf in self.sources:
            self._scan_functor_aliases(sf, fn_aliases)
        for sf in self.sources:
            self._scan_functors(sf, fn_aliases)
        for sf in self.sources:
            for name, name_idx, b0, b1 in _iter_functions(sf):
                self.defs.setdefault(name, []).append(
                    (sf, b0, b1, sf.tokens[name_idx].line))

    _MARKERS = {"FTR_NODISCARD": "nodiscard", "FTR_HOT": "hot",
                "FTR_YIELD": "yield_fns", "FTR_LOCK_SLEEP": "lock_sleep_fns"}

    @staticmethod
    def _match_angle(sf: SourceFile, open_idx: int) -> int:
        """Index just past the `>` matching tokens[open_idx] == `<`, or
        open_idx when the bracket never closes within a short window."""
        depth = 0
        for k in range(open_idx, min(open_idx + 64, len(sf.tokens))):
            t = sf.tokens[k].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return k + 1
            elif t in (";", "{"):
                break
        return open_idx

    def _scan_functor_aliases(self, sf: SourceFile, aliases: set[str]) -> None:
        """Collect `using Alias = std::function<...>` type aliases."""
        toks = sf.tokens
        for i in range(len(toks) - 3):
            if (toks[i].text == "using" and _is_name(toks[i + 1].text)
                    and toks[i + 2].text == "="):
                for k in range(i + 3, min(i + 12, len(toks))):
                    if toks[k].text in (";", "{"):
                        break
                    if (toks[k].text == "function" and k + 1 < len(toks)
                            and toks[k + 1].text == "<"):
                        aliases.add(toks[i + 1].text)
                        break

    def _scan_functors(self, sf: SourceFile, aliases: set[str]) -> None:
        """Register variables/members declared with a `std::function<...>`
        type (directly or via a collected alias): `std::function<R(A)> f;`,
        `const std::function<...>& f`, `ChaosHook chaos_hook_;`."""
        toks = sf.tokens
        for i, tok in enumerate(toks):
            k = None
            if (tok.text == "function" and i + 1 < len(toks)
                    and toks[i + 1].text == "<"):
                k = self._match_angle(sf, i + 1)
                if k == i + 1:
                    continue
            elif (tok.text in aliases
                  and (i == 0 or toks[i - 1].text not in (".", "->", "::",
                                                          "using"))):
                k = i + 1
            if k is None:
                continue
            while k < len(toks) and toks[k].text in ("&", "*", "const"):
                k += 1
            if (k + 1 < len(toks) and _is_name(toks[k].text)
                    and toks[k + 1].text in (";", "=", "{", ",", ")")):
                self.functors.setdefault(
                    toks[k].text, (sf.path, toks[k].line))

    def _scan_markers(self, sf: SourceFile) -> None:
        toks = sf.tokens
        for i, tok in enumerate(toks):
            attr = self._MARKERS.get(tok.text)
            if attr is None:
                continue
            # The marked declaration's name: first identifier followed by `(`
            # within a short window (skips return type tokens and attributes).
            for k in range(i + 1, min(i + 40, len(toks) - 1)):
                if _ID_RE.fullmatch(toks[k].text) and toks[k + 1].text == "(":
                    getattr(self, attr).add(toks[k].text)
                    break

    # -- suppression handling -----------------------------------------------
    def _suppressed(self, sf: SourceFile, rule: str, line: int) -> bool:
        for sup in sf.suppressions:
            if sup.rule == rule and sup.line in (line, line - 1) and sup.reason:
                sup.used = True
                return True
        return False

    def _suppression_findings(self) -> list[Finding]:
        out = []
        for sf in self.sources:
            for sup in sf.suppressions:
                if sup.rule is None:
                    out.append(Finding(
                        sf.path, sup.line, "FTL000",
                        "malformed suppression: expected "
                        "`// ftlint:allow(FTLxxx reason)`"))
                elif not sup.reason:
                    out.append(Finding(
                        sf.path, sup.line, "FTL000",
                        f"suppression of {sup.rule} has no justification — "
                        "a reason string is mandatory"))
        return out

    # -- FTL001 -------------------------------------------------------------
    def _check_ftl001(self) -> list[Finding]:
        out = []
        for sf in self.sources:
            toks = sf.tokens
            for i in range(len(toks) - 1):
                name = toks[i].text
                if name not in self.nodiscard or toks[i + 1].text != "(":
                    continue
                start = sf.qualified_start(i)
                prev = toks[start - 1].text if start > 0 else None
                if prev in (".", "->"):
                    continue  # member call on some object; not this API
                close = sf.match_paren(i + 1)
                nxt = toks[close + 1].text if close + 1 < len(toks) else None
                line = toks[i].line
                discarded = prev in _DISCARD_PREV and nxt == ";"
                if discarded and prev == ":":
                    # A label's colon (`case k: f(w);`) leads back to the
                    # statement boundary; a conditional's else-branch
                    # (`c ? x : f(w);`) is dropped only with the whole
                    # conditional, not when it is returned or assigned.
                    discarded = _leftward(sf, start, skip_comparisons=True) != "consumed"
                void_cast = (start >= 3 and toks[start - 1].text == ")"
                             and toks[start - 2].text == "void"
                             and toks[start - 3].text == "(")
                if void_cast:
                    if not self._suppressed(sf, "FTL001", line):
                        out.append(Finding(
                            sf.path, line, "FTL001",
                            f"result of error-returning `{name}` is discarded "
                            "with a (void) cast; observe it (branch, return, "
                            "or route through ftr::observe_error)"))
                elif discarded:
                    # A definition/declaration is never a discard: its name is
                    # preceded by a type token, which is not in _DISCARD_PREV,
                    # so only real expression-statement calls land here.
                    if not self._suppressed(sf, "FTL001", line):
                        out.append(Finding(
                            sf.path, line, "FTL001",
                            f"result of error-returning `{name}` is dropped on "
                            "the floor; every MPI error code may carry "
                            "PROC_FAILED/REVOKED and must be observed"))
        return out

    # -- FTL002 -------------------------------------------------------------
    def _check_ftl002(self) -> list[Finding]:
        out = []
        for sf in self.sources:
            for _, _, b0, b1 in _iter_functions(sf):
                out.extend(self._ftl002_body(sf, b0, b1))
        return out

    def _ftl002_body(self, sf: SourceFile, b0: int, b1: int) -> list[Finding]:
        toks = sf.tokens
        out = []
        paren_depth = 0
        for i in range(b0, b1):
            t = toks[i].text
            if t == "(":
                paren_depth += 1
            elif t == ")":
                paren_depth -= 1
            if t not in _FTL002_HANDLES or paren_depth > 0:
                continue
            free_fn, guards = _FTL002_HANDLES[t]
            if i + 2 >= len(toks) or not _ID_RE.fullmatch(toks[i + 1].text):
                continue
            if toks[i + 2].text not in (";", "=", ","):
                continue  # pointer/reference/param, not a by-value local
            var = toks[i + 1].text
            decl_line = toks[i + 1].line
            # Scan the rest of the function: does this var get freed, is it
            # handed to a guard, and is there a `return` while it is owned?
            free_idx = guard_idx = None
            returns: list[int] = []
            for k in range(i + 3, b1):
                tk = toks[k].text
                if tk == free_fn and self._arg_is(sf, k, var):
                    free_idx = k
                    break
                if tk in guards and self._guard_takes(sf, k, var):
                    guard_idx = k
                if tk == "return":
                    returns.append(k)
            if free_idx is None or guard_idx is not None:
                continue
            if any(r < free_idx for r in returns):
                if not self._suppressed(sf, "FTL002", decl_line):
                    out.append(Finding(
                        sf.path, decl_line, "FTL002",
                        f"raw `{toks[i].text} {var}` is freed manually but a "
                        "`return` can skip the free; scope it with "
                        f"{guards[0]} (src/core/raii.hpp) instead"))
        return out

    def _guard_takes(self, sf: SourceFile, k: int, var: str) -> bool:
        """True if the guard at k owns `var`: either a declaration
        `CommGuard g(&var)` (guard type, variable name, paren) or a direct
        temporary `CommGuard(&var)`."""
        toks = sf.tokens
        if k + 1 < len(toks) and _is_name(toks[k + 1].text):
            return self._arg_is(sf, k + 1, var)
        return self._arg_is(sf, k, var)

    @staticmethod
    def _arg_is(sf: SourceFile, call_idx: int, var: str) -> bool:
        """True if the call at call_idx mentions `var` in its argument list."""
        toks = sf.tokens
        if call_idx + 1 >= len(toks) or toks[call_idx + 1].text != "(":
            return False
        close = sf.match_paren(call_idx + 1)
        return any(toks[k].text == var for k in range(call_idx + 2, close))

    # -- FTL003 -------------------------------------------------------------
    def _check_ftl003(self) -> list[Finding]:
        out = []
        seen: set[tuple[str, int, str]] = set()
        for root in sorted(self.hot):
            # BFS over the name-based call graph from each hot root.
            chain = {root: root}
            queue = [root]
            visited = {root}
            while queue:
                fn = queue.pop(0)
                for sf, b0, b1, _ in self.defs.get(fn, ()):  # all overloads
                    for i in range(b0, b1):
                        viol = self._alloc_at(sf, i)
                        if viol is not None:
                            line = sf.tokens[i].line
                            key = (sf.path, line, viol)
                            if key in seen:
                                continue
                            if self._suppressed(sf, "FTL003", line):
                                seen.add(key)
                                continue
                            seen.add(key)
                            via = chain[fn]
                            path_note = (f" (reached via {via})"
                                         if via != fn else "")
                            out.append(Finding(
                                sf.path, line, "FTL003",
                                f"`{viol}` allocates inside `{fn}`, which is "
                                f"on the FTR_HOT path of `{root}`"
                                f"{path_note}; hot kernels must be "
                                "allocation-free"))
                        indirect = self._functor_call_at(sf, i)
                        if indirect is not None:
                            line = sf.tokens[i].line
                            key = (sf.path, line, f"functor:{indirect}")
                            if key not in seen:
                                seen.add(key)
                                if not self._suppressed(sf, "FTL003", line):
                                    out.append(Finding(
                                        sf.path, line, "FTL003",
                                        f"unknown-callee: `{indirect}` is a "
                                        "`std::function` callback invoked "
                                        f"inside `{fn}`, on the FTR_HOT path "
                                        f"of `{root}`; the call graph cannot "
                                        "see through it, so the hot path's "
                                        "allocation-freedom is unverifiable "
                                        "— devirtualize it, hoist it off the "
                                        "hot path, or justify with "
                                        "ftlint:allow(FTL003 ...)"))
                        callee = self._call_at(sf, i)
                        if callee and callee in self.defs and callee not in visited:
                            visited.add(callee)
                            chain[callee] = f"{chain[fn]} -> {callee}"
                            queue.append(callee)
        return out

    def _functor_call_at(self, sf: SourceFile, i: int) -> str | None:
        """Name of the `std::function` variable invoked at token i (member
        access allowed: `c.local().errhandler(...)`), else None."""
        toks = sf.tokens
        if (i + 1 < len(toks) and toks[i + 1].text == "("
                and toks[i].text in self.functors):
            # Exclude the declaration itself (type token to the left) and
            # guard-style truthiness tests handled elsewhere.
            prev = toks[i - 1].text if i > 0 else None
            if prev is not None and (_is_name(prev) or prev == ">"):
                return None  # `ChaosHook chaos_hook_(` — a declaration
            return toks[i].text
        return None

    def _call_at(self, sf: SourceFile, i: int) -> str | None:
        toks = sf.tokens
        if (i + 1 < len(toks) and toks[i + 1].text == "("
                and _is_name(toks[i].text)
                and (i == 0 or toks[i - 1].text not in (".", "->"))):
            return toks[i].text
        return None

    def _alloc_at(self, sf: SourceFile, i: int) -> str | None:
        toks = sf.tokens
        t = toks[i].text
        nxt = toks[i + 1].text if i + 1 < len(toks) else None
        prev = toks[i - 1].text if i > 0 else None
        if t == "new" and prev != "operator":
            return "new"
        if t in _ALLOC_CONTAINERS:
            return self._sized_container_at(sf, i)
        if nxt != "(":
            return None
        if t in _ALLOC_FREE_FUNCS and prev not in (".", "->"):
            return t
        if t in _ALLOC_MEMBERS and prev in (".", "->"):
            return t
        if t in _ALLOC_STD:
            return t
        return None

    @staticmethod
    def _sized_container_at(sf: SourceFile, i: int) -> str | None:
        """`std::<container>` at token i built with constructor arguments:
        a declaration `std::vector<double> v(4);` / `v{1, 2}` / `v = {1}`,
        or a temporary `std::vector<T>(n)` / `std::vector<T>{x}`."""
        toks = sf.tokens
        if i < 2 or toks[i - 1].text != "::" or toks[i - 2].text != "std":
            return None
        k = i + 1
        if k < len(toks) and toks[k].text == "<":
            depth = 0
            while k < len(toks):
                text = toks[k].text
                if text == "<":
                    depth += 1
                elif text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif text in (";", "{", "}"):
                    return None  # a comparison, not a template argument list
                k += 1
            k += 1
        if k < len(toks) and _is_name(toks[k].text):
            k += 1  # the declared variable
            if k < len(toks) and toks[k].text == "=":
                k += 1
                if k < len(toks) and toks[k].text != "{":
                    return None  # copy-initialised from an expression
        if (k + 1 < len(toks) and toks[k].text in ("(", "{")
                and toks[k + 1].text not in (")", "}")):
            return f"std::{toks[i].text}"
        return None

    # -- FTL004 -------------------------------------------------------------
    def _check_ftl004(self) -> list[Finding]:
        out = []
        for name, family in FTL004_FAMILIES.items():
            for sf, b0, b1, def_line in self.defs.get(name, ()):
                has_hook = any(
                    sf.tokens[k].text == "chaos_point"
                    and k + 1 < len(sf.tokens) and sf.tokens[k + 1].text == "("
                    for k in range(b0, b1))
                if not has_hook and not self._suppressed(sf, "FTL004", def_line):
                    out.append(Finding(
                        sf.path, def_line, "FTL004",
                        f"`{name}` ({family} family) has no chaos_point hook; "
                        "fault injection cannot reach this protocol step"))
        return out

    # -- FTL007 -------------------------------------------------------------
    def _check_ftl007(self) -> list[Finding]:
        out = []
        for sf in self.sources:
            for name, _, b0, b1 in _iter_functions(sf):
                out.extend(self._ftl007_body(sf, name, b0, b1))
        return out

    def _ftl007_body(self, sf: SourceFile, fn: str, b0: int,
                     b1: int) -> list[Finding]:
        toks = sf.tokens
        unpacks: list[tuple[int, str]] = []  # (line, wire type)
        validated = False
        for i in range(b0, b1):
            t = toks[i].text
            if (t in _FTL007_WIRES and i >= 2 and toks[i - 1].text == "<"
                    and toks[i - 2].text == "unpack"):
                unpacks.append((toks[i].line, t))
            if t == "epoch_ok" and i + 1 < len(toks) and toks[i + 1].text == "(":
                # The validation only counts if its verdict is observed; a
                # discarded or (void)-cast epoch_ok() still acts on stale
                # messages, and so does a verdict that dies inside a
                # discarded ternary/comma expression (FTL001 reports the
                # plain discard separately).
                if _verdict_observed(sf, i):
                    validated = True
        if validated:
            return []
        out = []
        for line, wire in unpacks:
            if not self._suppressed(sf, "FTL007", line):
                out.append(Finding(
                    sf.path, line, "FTL007",
                    f"`{fn}` unpacks a detector `{wire}` but never observes "
                    "an `epoch_ok` verdict; stale detector messages must be "
                    "discarded, not acted on"))
        return out

    # -- stale-suppression audit --------------------------------------------
    def _stale_suppressions(self, rules: set[str]) -> list[Finding]:
        """A well-formed suppression that silenced nothing this run is rot:
        the violation it excused was fixed (or never existed), and a stale
        allow is a hole the next real finding falls through.  Only audited
        for rules that actually ran — a subset run cannot call suppressions
        of the skipped rules stale."""
        out = []
        for sf in self.sources:
            for sup in sf.suppressions:
                if (sup.rule is not None and sup.reason and not sup.used
                        and sup.rule in rules):
                    out.append(Finding(
                        sf.path, sup.line, "FTL000",
                        f"stale suppression: this ftlint:allow({sup.rule}) "
                        "silenced nothing in this run — remove it (or fix "
                        "the rule id/line it was meant to cover)"))
        return out

    # -- entry point --------------------------------------------------------
    def run(self, rules: set[str]) -> list[Finding]:
        findings: list[Finding] = []
        if "FTL001" in rules:
            findings.extend(self._check_ftl001())
        if "FTL002" in rules:
            findings.extend(self._check_ftl002())
        if "FTL003" in rules:
            findings.extend(self._check_ftl003())
        if "FTL004" in rules:
            findings.extend(self._check_ftl004())
        if "FTL007" in rules:
            findings.extend(self._check_ftl007())
        if rules & {"FTL005", "FTL006"}:
            import ftmodel  # late import: ftmodel imports this module
            findings.extend(ftmodel.build_and_check(self, rules))
        if rules & {"FTL008", "FTL009", "FTL010"}:
            import ftfiber  # late import: ftfiber imports this module
            findings.extend(ftfiber.build_and_check(self, rules))
        if rules & {"FTL011", "FTL012", "FTL013"}:
            import ftflow  # late import: ftflow imports this module
            findings.extend(ftflow.build_and_check(self, rules))
        if "FTL000" in rules:
            findings.extend(self._suppression_findings())
            # After every rule has run (and marked the suppressions it hit).
            findings.extend(self._stale_suppressions(rules))
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings


def collect_files(roots: list[str], extra: list[str]) -> list[str]:
    exts = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")
    files: list[str] = []
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(exts):
                    files.append(os.path.join(dirpath, name))
    files.extend(extra)
    return sorted(set(files))
