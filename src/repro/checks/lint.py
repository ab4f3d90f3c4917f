"""Repo-specific concurrency lint rules (static layer).

An AST-based checker with five rules tuned to the invariants of the
state-transfer protocol (ParaHash §III-C3).  It is *not* a general
linter: the rules encode this repo's concurrency discipline and are
deliberately heuristic where whole-program analysis would be needed —
intentional lock-free accesses carry an inline pragma.

Rules
-----

R1  No plain read/write of the shared table arrays (``self.state``,
    ``self.keys`` -- every key plane --, ``self.counts``)
    inside a function reachable from the threaded path, unless the
    access is inside a ``with <...lock...>:`` block or inside the
    exclusive window of a won ``compare_and_swap`` (the
    ``if atomic.compare_and_swap(...)`` body).

R2  No non-atomic ``+=``/``-=`` (any augmented assignment) on an
    attribute of an object shared across threads: ``self.<attr>`` in a
    threaded-reachable function, or a local variable assigned from
    ``self.stats``, unless inside a ``with <...lock...>:`` block.

R3  No ``.raw()`` calls anywhere: the escape hatch of
    ``AtomicInt64Array`` is only legal in single-threaded
    setup/teardown, which must be annotated.

R4  Every lock is acquired via ``with``; bare ``.acquire()`` /
    ``.release()`` calls are flagged (un-balanced on exceptions).

R5  No signed/unsigned dtype mixing on ``uint64`` key arithmetic: a
    binary operation between a tracked ``uint64`` array and a tracked
    signed-integer array promotes to ``float64`` under NumPy's rules
    and silently corrupts keys.

R6  Shared-memory segment lifecycle: a name bound from a creator call
    (``create_segment``/``create_table_segment``/``share_read_batch``)
    must reach ``unlink()`` on every exit path — via a ``with`` block,
    an enclosing (or immediately following) ``try`` whose ``finally``
    unlinks it, or by escaping through ``return``/``yield`` (ownership
    transfer).  Conversely a name bound from an attacher call
    (``attach_segment``/``attach_read_batch``) must *never* call
    ``unlink()``: the owner unlinks, attachers only close.

R7  No shared-memory handle or numpy view over one may cross a process
    boundary: a creator/attacher-tainted name (or a subscript view of
    one) appearing in the ``args=`` of a ``Process``/``run_workers``
    spawn is a pickle hazard — pass the picklable ``.spec`` instead
    and re-attach in the child.

R8  The protocol counters (``srv``/``cns``/``prd``/``wrt``) are only
    advanced through their fetch-increment/publish methods: a raw
    ``.value`` store or augmented assignment outside a lock-held
    ``with`` block bypasses the protocol's atomicity.

R9  Every ``allow[...]`` pragma must suppress at least one issue: a
    pragma that no longer fires marks a safety argument that no longer
    exists (the guarded code moved or the rule stopped covering it) and
    would silently swallow a future regression.  R9 itself cannot be
    suppressed — stale pragmas are removed, not annotated.

Threaded reachability: every function in ``repro/concurrentsub``,
``repro/parallel``, ``repro/bigk`` and ``repro/service`` is considered
threaded (those packages *are* the concurrency substrate, or — for the
job service — feed worker processes and cross-thread handles);
elsewhere, reachability starts from the
per-operation protocol entry points (``insert_one_threadsafe``,
``lookup``) and follows ``self.method()`` / local-function calls
within the file.

Suppression: append ``# checks: allow[R1] <reason>`` (one or more
comma-separated rule names) to the offending line.  Pragmas are read
from real comment tokens only, so documentation that merely *mentions*
the pragma syntax does not suppress anything.  The pragma is part of
the discipline — it marks the places where safety is argued, not
locked.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

#: Table arrays whose unguarded access on the threaded path is racy (R1).
SHARED_ARRAYS = frozenset({"state", "keys", "counts"})

#: Attributes of ``self`` that name objects shared across threads (R2
#: taint sources for local aliases).
SHARED_OBJECT_ATTRS = frozenset({"stats"})

#: Entry points of the real-thread protocol; reachability starts here.
THREADED_ROOTS = frozenset({"insert_one_threadsafe", "lookup"})

#: Packages whose every function runs on (or builds) the threaded path,
#: matched against *path components* (so ``bench_parallel_backend.py``
#: is not swept in by substring accident).
THREADED_MODULE_FRAGMENTS = ("concurrentsub", "parallel", "bigk", "service")

#: Calls that create (own) a shared-memory segment (R6/R7).
SEGMENT_CREATORS = frozenset({
    "create_segment", "create_table_segment", "share_read_batch",
})

#: Calls that attach to a segment someone else owns (R6/R7).
SEGMENT_ATTACHERS = frozenset({"attach_segment", "attach_read_batch"})

#: Functions that spawn worker processes; their ``args=`` is a pickle
#: boundary (R7).
SPAWN_CALLS = frozenset({"Process", "run_workers"})

#: Attribute chains that name a protocol counter (R8): the §III-E
#: queue cursors.
_COUNTERISH = re.compile(r"\b_?(srv|cns|prd|wrt)\b")

_LOCKISH = re.compile(r"lock|mutex|cond", re.IGNORECASE)
_PRAGMA = re.compile(r"#\s*checks:\s*allow\[([A-Za-z0-9,\s]+)\]")

_UNSIGNED = frozenset({"uint64"})
_SIGNED = frozenset({"int8", "int16", "int32", "int64"})
_DTYPE_FACTORIES = frozenset({
    "zeros", "empty", "ones", "full", "arange", "asarray",
    "ascontiguousarray", "array",
})
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
           ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)


@dataclass(frozen=True)
class LintIssue:
    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _pragma_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rules allowed on that line.

    Pragmas are read from COMMENT tokens, not raw lines: a docstring or
    message string that *mentions* the pragma syntax neither suppresses
    anything nor counts as a stale pragma for R9.
    """
    allowed: dict[int, frozenset[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _PRAGMA.search(tok.string)
        if m:
            rules = frozenset(
                r.strip().upper() for r in m.group(1).split(",") if r.strip()
            )
            allowed[tok.start[0]] = rules
    return allowed


@dataclass
class _FuncInfo:
    node: ast.FunctionDef
    name: str
    cls: str | None  # enclosing class name, if a method
    calls_self: set[str]
    calls_local: set[str]


def _collect_functions(tree: ast.Module) -> list[_FuncInfo]:
    funcs: list[_FuncInfo] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls_self: set[str] = set()
                calls_local: set[str] = set()
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        f = sub.func
                        if (isinstance(f, ast.Attribute)
                                and isinstance(f.value, ast.Name)
                                and f.value.id == "self"):
                            calls_self.add(f.attr)
                        elif isinstance(f, ast.Name):
                            calls_local.add(f.id)
                funcs.append(_FuncInfo(
                    node=child, name=child.name, cls=cls,
                    calls_self=calls_self, calls_local=calls_local,
                ))
                visit(child, cls)  # nested defs keep the class scope
            else:
                visit(child, cls)

    visit(tree, None)
    return funcs


def _threaded_functions(funcs: list[_FuncInfo], path: str) -> set[int]:
    """ids of function nodes reachable from the threaded roots."""
    parts = Path(path).parts
    if any(fragment in parts for fragment in THREADED_MODULE_FRAGMENTS):
        return {id(f.node) for f in funcs}
    by_method: dict[tuple[str | None, str], _FuncInfo] = {}
    by_name: dict[str, _FuncInfo] = {}
    for f in funcs:
        by_method.setdefault((f.cls, f.name), f)
        if f.cls is None:
            by_name.setdefault(f.name, f)
    work = [f for f in funcs if f.name in THREADED_ROOTS]
    seen: set[int] = set()
    while work:
        f = work.pop()
        if id(f.node) in seen:
            continue
        seen.add(id(f.node))
        for callee in f.calls_self:
            target = by_method.get((f.cls, callee))
            if target is not None and id(target.node) not in seen:
                work.append(target)
        for callee in f.calls_local:
            target = by_name.get(callee)
            if target is not None and id(target.node) not in seen:
                work.append(target)
    return seen


def _is_lockish_context(item: ast.withitem) -> bool:
    """Does this ``with`` item look like a lock acquisition?"""
    text = ast.unparse(item.context_expr)
    return bool(_LOCKISH.search(text))


def _has_cas_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "compare_and_swap"):
            return True
    return False


def _self_attr(node: ast.AST) -> str | None:
    """`self.<attr>` -> attr name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


class _GuardWalker:
    """Walk one function body tracking lock / CAS-window guard context.

    ``cas_names`` are local names assigned from an expression containing
    a ``compare_and_swap`` call (``won = atomic.compare_and_swap(...)``);
    an ``if <such-name>:`` body is the exclusive window exactly like an
    ``if atomic.compare_and_swap(...):`` body.
    """

    def __init__(self, cas_names: frozenset[str] = frozenset()) -> None:
        self.cas_names = cas_names
        self.hits: list[tuple[ast.AST, bool]] = []  # (node, guarded)

    def walk(self, func: ast.FunctionDef):
        yield from self._walk_body(func.body, guarded=False)

    def _walk_body(self, stmts, guarded: bool):
        for stmt in stmts:
            yield from self._walk_stmt(stmt, guarded)

    def _walk_stmt(self, stmt: ast.stmt, guarded: bool):
        if isinstance(stmt, ast.With):
            inner = guarded or any(
                _is_lockish_context(item) for item in stmt.items
            )
            for item in stmt.items:
                yield item, guarded
            yield from self._walk_body(stmt.body, inner)
        elif isinstance(stmt, ast.If):
            yield stmt.test, guarded
            body_guard = guarded or _has_cas_call(stmt.test) or (
                isinstance(stmt.test, ast.Name)
                and stmt.test.id in self.cas_names
            )
            yield from self._walk_body(stmt.body, body_guard)
            yield from self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield stmt.iter, guarded
            yield stmt.target, guarded
            yield from self._walk_body(stmt.body, guarded)
            yield from self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, ast.While):
            yield stmt.test, guarded
            yield from self._walk_body(stmt.body, guarded)
            yield from self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, ast.Try):
            yield from self._walk_body(stmt.body, guarded)
            for handler in stmt.handlers:
                yield from self._walk_body(handler.body, guarded)
            yield from self._walk_body(stmt.orelse, guarded)
            yield from self._walk_body(stmt.finalbody, guarded)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested defs are analyzed as their own functions
        else:
            yield stmt, guarded


def _cas_assigned_names(func: ast.FunctionDef) -> frozenset[str]:
    """Local names assigned (in any branch) from a CAS-bearing expression."""
    names: set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.targets[0], ast.Name) \
                and _has_cas_call(sub.value):
            names.add(sub.targets[0].id)
    return frozenset(names)


def _iter_accesses(func: ast.FunctionDef,
                   cas_names: frozenset[str] = frozenset()):
    """Yield (expr_node, guarded) pairs for every expression statement
    context in the function, with guard tracking."""
    walker = _GuardWalker(cas_names)
    yield from walker.walk(func)


# -- rules ----------------------------------------------------------------------


def _rule_r1_r2(func: _FuncInfo, path: str, issues: list[LintIssue]) -> None:
    # Taint: local names aliased to shared objects (e.g. the old
    # ``stats = local if local is not None else self.stats``).
    tainted: set[str] = set()
    for sub in ast.walk(func.node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.targets[0], ast.Name):
            for piece in ast.walk(sub.value):
                attr = _self_attr(piece)
                if attr in SHARED_OBJECT_ATTRS:
                    tainted.add(sub.targets[0].id)

    cas_names = _cas_assigned_names(func.node)
    for top, guarded in _iter_accesses(func.node, cas_names):
        for node in ast.walk(top):
            # R1: shared-array touches.
            attr = _self_attr(node)
            if attr in SHARED_ARRAYS and not guarded:
                issues.append(LintIssue(
                    "R1", path, node.lineno, node.col_offset,
                    f"unguarded access to shared array `self.{attr}` on the "
                    f"threaded path (function `{func.name}`); hold a lock, "
                    f"use the AtomicInt64Array, or annotate the write-once "
                    f"window with `# checks: allow[R1] <reason>`",
                ))
            # R2: non-atomic read-modify-write on shared objects.
            if isinstance(node, ast.AugAssign) and not guarded:
                target = node.target
                shared_via: str | None = None
                for piece in ast.walk(target):
                    a = _self_attr(piece)
                    if a is not None:
                        shared_via = f"self.{a}"
                        break
                    if isinstance(piece, ast.Name) and piece.id in tainted:
                        shared_via = f"`{piece.id}` (aliases self.stats)"
                        break
                if shared_via is not None and isinstance(target, ast.Attribute):
                    issues.append(LintIssue(
                        "R2", path, node.lineno, node.col_offset,
                        f"non-atomic augmented assignment on {shared_via} in "
                        f"threaded function `{func.name}`: the read-modify-"
                        f"write loses updates under contention; use "
                        f"per-thread stats merged under a lock",
                    ))


def _rule_r3_r4(tree: ast.Module, path: str, issues: list[LintIssue]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func,
                                                            ast.Attribute):
            continue
        attr = node.func.attr
        if attr == "raw":
            issues.append(LintIssue(
                "R3", path, node.lineno, node.col_offset,
                "`.raw()` bypasses the atomic array; only legal in "
                "single-threaded setup/teardown — annotate with "
                "`# checks: allow[R3] <reason>` if this is one",
            ))
        elif attr in ("acquire", "release"):
            # threading.Lock.release() takes no arguments; a call that
            # passes one is a different API (e.g. the interleaving
            # scheduler's gate release("name")), not a lock.
            if attr == "release" and (node.args or node.keywords):
                continue
            issues.append(LintIssue(
                "R4", path, node.lineno, node.col_offset,
                f"bare `.{attr}()`: locks must be held via `with` so they "
                f"release on exceptions",
            ))


def _dtype_of_call(call: ast.Call) -> str | None:
    """Dtype produced by np.zeros(..., dtype=np.X) / .astype(np.X) etc."""
    def dtype_name(expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Attribute):  # np.uint64
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        return None

    f = call.func
    if isinstance(f, ast.Attribute):
        if f.attr == "astype" and call.args:
            return dtype_name(call.args[0])
        if f.attr in _DTYPE_FACTORIES:
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return dtype_name(kw.value)
        if f.attr in _SIGNED | _UNSIGNED | {"uint8", "uint16", "uint32"}:
            # np.uint64(x) constructor
            return f.attr
    return None


def _rule_r5(func: _FuncInfo, path: str, issues: list[LintIssue]) -> None:
    dtypes: dict[str, str] = {}
    for sub in ast.walk(func.node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.targets[0], ast.Name) \
                and isinstance(sub.value, ast.Call):
            d = _dtype_of_call(sub.value)
            if d is not None:
                dtypes[sub.targets[0].id] = d

    def resolve(expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Name):
            return dtypes.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return resolve(expr.value)
        if isinstance(expr, ast.Call):
            return _dtype_of_call(expr)
        return None

    def check(lineno: int, col: int, a: str | None, b: str | None) -> None:
        if a is None or b is None:
            return
        pair = {a, b}
        if pair & _UNSIGNED and pair & _SIGNED:
            issues.append(LintIssue(
                "R5", path, lineno, col,
                f"uint64 key arithmetic mixed with {a if a in _SIGNED else b}:"
                f" NumPy promotes uint64⊕signed to float64, silently "
                f"corrupting keys; cast both sides to uint64 first",
            ))

    for sub in ast.walk(func.node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, _BINOPS):
            check(sub.lineno, sub.col_offset,
                  resolve(sub.left), resolve(sub.right))
        elif isinstance(sub, ast.AugAssign) and isinstance(sub.op, _BINOPS):
            check(sub.lineno, sub.col_offset,
                  resolve(sub.target), resolve(sub.value))


def _call_name(call: ast.Call) -> str | None:
    """The called name: ``f(...)`` -> ``f``, ``m.f(...)`` -> ``f``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _assigned_names(target: ast.AST) -> list[str]:
    """Plain names bound by an assignment target (incl. tuple unpack)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_assigned_names(elt))
        return out
    return []


def _unlink_names(stmts: list[ast.stmt]) -> set[str]:
    """Names ``n`` with an ``n.unlink()`` call anywhere in ``stmts``."""
    names: set[str] = set()
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "unlink"
                    and isinstance(sub.func.value, ast.Name)):
                names.add(sub.func.value.id)
    return names


def _rule_r6(func: _FuncInfo, path: str, issues: list[LintIssue]) -> None:
    """Segment owners reach ``unlink()`` on all exit paths; attachers never."""
    returned: set[str] = set()
    with_names: set[str] = set()
    attached: set[str] = set()
    for sub in ast.walk(func.node):
        if isinstance(sub, (ast.Return, ast.Yield)) and sub.value is not None:
            for piece in ast.walk(sub.value):
                if isinstance(piece, ast.Name):
                    returned.add(piece.id)
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if isinstance(item.context_expr, ast.Name):
                    with_names.add(item.context_expr.id)
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.value, ast.Call) \
                and _call_name(sub.value) in SEGMENT_ATTACHERS:
            attached.update(_assigned_names(sub.targets[0]))

    def walk(stmts: list[ast.stmt], enclosing: set[str]) -> None:
        for idx, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Call) \
                    and _call_name(stmt.value) in SEGMENT_CREATORS:
                name = stmt.targets[0].id
                protectors = set(enclosing)
                # An immediately following try/finally (possibly nested:
                # try-inside-try for multi-stage teardown) also counts.
                nxt = stmts[idx + 1] if idx + 1 < len(stmts) else None
                while isinstance(nxt, ast.Try):
                    protectors |= _unlink_names(nxt.finalbody)
                    nxt = nxt.body[0] if nxt.body else None
                if not (name in protectors or name in returned
                        or name in with_names):
                    issues.append(LintIssue(
                        "R6", path, stmt.lineno, stmt.col_offset,
                        f"segment `{name}` created by "
                        f"`{_call_name(stmt.value)}` may leak: no `with` "
                        f"block, no `{name}.unlink()` in the finally of an "
                        f"enclosing or immediately following try, and the "
                        f"segment does not escape via return/yield — the "
                        f"owner must unlink on every exit path",
                    ))
            if isinstance(stmt, ast.Try):
                inner = enclosing | _unlink_names(stmt.finalbody)
                walk(stmt.body, inner)
                for handler in stmt.handlers:
                    walk(handler.body, inner)
                walk(stmt.orelse, inner)
                walk(stmt.finalbody, enclosing)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # nested defs are analyzed as their own functions
            else:
                for field_ in ("body", "orelse"):
                    sub_stmts = getattr(stmt, field_, None)
                    if sub_stmts:
                        walk(sub_stmts, enclosing)

    walk(func.node.body, set())

    if attached:
        for sub in ast.walk(func.node):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "unlink"
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in attached):
                issues.append(LintIssue(
                    "R6", path, sub.lineno, sub.col_offset,
                    f"attacher `{sub.func.value.id}` calls `unlink()`: only "
                    f"the creating owner unlinks a segment; attachers "
                    f"`close()`",
                ))


def _rule_r7(func: _FuncInfo, path: str, issues: list[LintIssue]) -> None:
    """No segment handle or view over one in worker-spawn ``args=``."""
    tainted: set[str] = set()
    for sub in ast.walk(func.node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.value, ast.Call) \
                and _call_name(sub.value) in SEGMENT_CREATORS | \
                SEGMENT_ATTACHERS:
            tainted.update(_assigned_names(sub.targets[0]))
    if not tainted:
        return
    # Views taken off a handle (``codes = seg["codes"]``) are tainted too.
    grew = True
    while grew:
        grew = False
        for sub in ast.walk(func.node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and isinstance(sub.value, ast.Subscript) \
                    and isinstance(sub.value.value, ast.Name) \
                    and sub.value.value.id in tainted \
                    and sub.targets[0].id not in tainted:
                tainted.add(sub.targets[0].id)
                grew = True

    def scan(expr: ast.AST) -> None:
        if isinstance(expr, ast.Attribute):
            return  # projections (``seg.spec``) are the sanctioned hand-off
        if isinstance(expr, ast.Name) and expr.id in tainted:
            issues.append(LintIssue(
                "R7", path, expr.lineno, expr.col_offset,
                f"segment handle/view `{expr.id}` crosses the process "
                f"boundary in worker args: SharedMemory handles and numpy "
                f"views over them do not survive pickling — pass the "
                f"`.spec` and attach in the child",
            ))
            return
        for child in ast.iter_child_nodes(expr):
            scan(child)

    for sub in ast.walk(func.node):
        if isinstance(sub, ast.Call) and _call_name(sub) in SPAWN_CALLS:
            for kw in sub.keywords:
                if kw.arg == "args":
                    scan(kw.value)


def _rule_r8(func: _FuncInfo, path: str, issues: list[LintIssue]) -> None:
    """Protocol counters advance only via methods or under a lock."""
    def counter_store(target: ast.AST) -> str | None:
        if not (isinstance(target, ast.Attribute)
                and target.attr in ("value", "_value")):
            return None
        base = ast.unparse(target.value)
        if _COUNTERISH.search(base):
            return f"{base}.{target.attr}"
        return None

    for top, guarded in _iter_accesses(func.node):
        if guarded:
            continue
        for node in ast.walk(top):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                store = counter_store(target)
                if store is not None:
                    issues.append(LintIssue(
                        "R8", path, node.lineno, node.col_offset,
                        f"raw store to protocol counter `{store}` outside a "
                        f"lock: srv/cns/prd/wrt counters advance "
                        f"only through their fetch-increment/publish methods "
                        f"(or under the lock) to keep the claim atomic",
                    ))


# -- driver ---------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[LintIssue]:
    """Lint one module's source; returns surviving (un-suppressed) issues."""
    tree = ast.parse(source, filename=path)
    pragmas = _pragma_lines(source)
    issues: list[LintIssue] = []

    funcs = _collect_functions(tree)
    threaded = _threaded_functions(funcs, path)
    for f in funcs:
        if id(f.node) in threaded:
            _rule_r1_r2(f, path, issues)
        _rule_r5(f, path, issues)
        _rule_r6(f, path, issues)
        _rule_r7(f, path, issues)
        _rule_r8(f, path, issues)
    _rule_r3_r4(tree, path, issues)

    kept = []
    used: set[tuple[int, str]] = set()
    for issue in issues:
        allowed = pragmas.get(issue.line, frozenset())
        if issue.rule.upper() in allowed:
            used.add((issue.line, issue.rule.upper()))
            continue
        kept.append(issue)
    # R9: a pragma that suppressed nothing is stale — it documents a
    # safety argument for code that no longer triggers the rule, and
    # would silently swallow the next real finding on that line.  R9
    # itself is deliberately not suppressible.
    for line, rules in pragmas.items():
        for rule in sorted(rules):
            if (line, rule) not in used:
                kept.append(LintIssue(
                    "R9", path, line, 0,
                    f"unused `allow[{rule}]` pragma: no {rule} issue fires "
                    f"on this line — remove the stale pragma (it would "
                    f"mask a future regression)",
                ))
    kept.sort(key=lambda i: (i.path, i.line, i.col, i.rule))
    return kept


def lint_file(path: Path | str) -> list[LintIssue]:
    p = Path(path)
    return lint_source(p.read_text(), str(p))


def lint_paths(paths: list[Path | str]) -> list[LintIssue]:
    """Lint every ``*.py`` under the given files/directories."""
    issues: list[LintIssue] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                issues.extend(lint_file(f))
        else:
            issues.extend(lint_file(p))
    return issues
