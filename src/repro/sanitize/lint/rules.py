"""The repo-invariant rules (REP001–REP008).

Each rule guards a property this reproduction's correctness or
reproducibility depends on; the ids are stable and documented in API.md
(REP004 is retired, not reused).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.sanitize.lint.engine import LintFinding, LintRule

#: Module aliases accepted as "this is NumPy".
_NUMPY_NAMES = ("np", "numpy")

#: ``module.attr`` calls that block the calling thread.
BLOCKING_ATTRS = {
    "time": frozenset({"sleep"}),
    "os": frozenset({"fsync"}),
    "subprocess": frozenset({"run", "call", "check_call", "check_output"}),
}

#: Method names that do file I/O regardless of the receiver (Path).
BLOCKING_IO_METHODS = frozenset({"read_text", "write_text", "read_bytes",
                                 "write_bytes"})


def blocking_desc(call: ast.Call) -> str | None:
    """What a call blocks on (``"open()"``, ``".read_text()"``,
    ``"time.sleep()"``), or ``None``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in BLOCKING_IO_METHODS:
        return f".{func.attr}()"
    if isinstance(func.value, ast.Name):
        if func.attr in BLOCKING_ATTRS.get(func.value.id, ()):
            return f"{func.value.id}.{func.attr}()"
    return None


def _is_np_random_attr(node: ast.AST) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in _NUMPY_NAMES)


class UnseededRandomRule(LintRule):
    """REP001: randomness must be seeded (reproducibility is the product).

    Flags ``default_rng()`` calls without a seed argument and any call
    into the legacy global-state ``np.random.*`` API (``np.random.rand``,
    ``np.random.seed``, ...) — both make runs irreproducible or couple
    them through hidden global state. ``np.random.default_rng(seed)``
    and passing an explicit ``np.random.Generator`` are the sanctioned
    patterns.
    """

    rule_id = "REP001"
    description = ("unseeded default_rng() or legacy global np.random.* "
                   "call")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # default_rng(...) — bare or via np.random — needs a seed arg
            is_default_rng = (
                (isinstance(func, ast.Name) and func.id == "default_rng")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "default_rng")
            )
            if is_default_rng:
                if not node.args and not node.keywords:
                    yield self.finding(
                        node, path,
                        "default_rng() without a seed: pass an explicit "
                        "seed so runs are reproducible")
                continue
            # legacy global-state API: np.random.<anything lowercase>
            if (isinstance(func, ast.Attribute)
                    and _is_np_random_attr(func.value)
                    and not func.attr[:1].isupper()):
                yield self.finding(
                    node, path,
                    f"legacy global np.random.{func.attr}(): use a seeded "
                    f"np.random.default_rng(seed) Generator instead")


class UndeclaredHandledEventRule(LintRule):
    """REP003: events a subscriber handles must be declared.

    ``EventBus.wants`` skips building hot-loop events no subscriber
    *declares*; an ``isinstance(event, X)`` branch in ``handle`` for an
    event class missing from the ``handled_events`` tuple silently never
    fires on gated events — data loss, not an error.
    """

    rule_id = "REP003"
    description = ("handle() dispatches on an event type missing from "
                   "the class's handled_events declaration")

    @staticmethod
    def _declared(node: ast.ClassDef) -> set[str] | None:
        """Names in a literal ``handled_events = (...)`` class attribute."""
        for stmt in node.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target]
                       if isinstance(stmt, ast.AnnAssign) and stmt.value
                       else [])
            for t in targets:
                if isinstance(t, ast.Name) and t.id == "handled_events":
                    value = stmt.value
                    if isinstance(value, (ast.Tuple, ast.List)):
                        return {e.id if isinstance(e, ast.Name)
                                else getattr(e, "attr", "")
                                for e in value.elts}
                    return None  # not a literal tuple (property, None, ...)
        return None

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            declared = self._declared(node)
            if declared is None:
                continue
            handle = next((n for n in node.body
                           if isinstance(n, ast.FunctionDef)
                           and n.name == "handle"), None)
            if handle is None:
                continue
            for call in ast.walk(handle):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "isinstance"
                        and len(call.args) == 2):
                    continue
                classinfo = call.args[1]
                names = (classinfo.elts
                         if isinstance(classinfo, ast.Tuple)
                         else [classinfo])
                for ref in names:
                    name = (ref.id if isinstance(ref, ast.Name)
                            else getattr(ref, "attr", ""))
                    # only class-looking names: locals holding event
                    # types (lazy-import pattern) are lowercase
                    if name and name[:1].isupper() and name not in declared:
                        yield self.finding(
                            call, path,
                            f"{node.name}.handle dispatches on {name} but "
                            f"handled_events does not declare it; gated "
                            f"events would silently never arrive")


class FloatInIntopPathRule(LintRule):
    """REP005: INTOP-counted paths must stay in integer arithmetic.

    The paper's Table V counts *integer* operations; a float literal or
    true division sneaking into ``hashing/opcount.py`` (or any
    op-counting ``*_intops`` / ``intops_*`` function) silently breaks
    the INTOP identity the whole performance model anchors on (``//`` is
    the sanctioned division). Rate *conversions* like ``gintops_per_second``
    are not op counters and are out of scope.
    """

    rule_id = "REP005"
    description = ("float constant or true division inside an "
                   "INTOP-counted path")

    def _scan(self, fn: ast.FunctionDef, path: str,
              seen: set) -> Iterator[LintFinding]:
        for node in ast.walk(fn):
            key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if key not in seen:
                    seen.add(key)
                    yield self.finding(
                        node, path,
                        f"true division in INTOP-counted {fn.name}(): "
                        f"use // to stay in integer arithmetic")
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, float)):
                if key not in seen:
                    seen.add(key)
                    yield self.finding(
                        node, path,
                        f"float constant {node.value!r} in INTOP-counted "
                        f"{fn.name}(): Table V counts integer ops only")

    @staticmethod
    def _is_counter(name: str) -> bool:
        """Op-*counting* names: hash_intops, intops_per_loop_cycle — not
        unit conversions like gintops / gintops_per_second."""
        return name.endswith("_intops") or name.startswith("intops")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        whole_module = Path(path).name == "opcount.py"
        seen: set = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if whole_module or self._is_counter(node.name):
                yield from self._scan(node, path, seen)


class ScalarLoopInHotPhaseRule(LintRule):
    """REP006: engine phase hot paths must stay lockstep NumPy.

    The megabatch refactor's contract (DESIGN.md decision #14) is that
    the construct/walk hot paths loop only over *algorithmic* dimensions
    — walk steps, waves, probe iterations, all ``range(...)`` bounded —
    never over per-warp or per-lane arrays. A ``for``/``zip`` loop (or a
    comprehension / generator expression) iterating anything else inside
    those methods reintroduces the O(warps) Python costs the refactor
    removed, and regresses silently: results stay correct while the
    engine drops back to scalar speed. The one scalar telling of the
    kernel, one lane at a time, is :mod:`repro.core.reference`, which
    this rule deliberately does not cover.
    """

    rule_id = "REP006"
    description = ("per-element Python loop inside an engine phase hot "
                   "path (construct/walk)")

    #: Hot methods of the phase modules; everything reachable per warp.
    _HOT_FUNCS = frozenset({"run", "_insert_wave", "_lookup"})

    @staticmethod
    def _applies(path: str) -> bool:
        p = Path(path)
        return p.name in ("construct.py", "walk.py") and "engine" in p.parts

    @staticmethod
    def _is_range_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "range")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        if not self._applies(path):
            return
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name not in self._HOT_FUNCS:
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.For)
                        and not self._is_range_call(node.iter)):
                    yield self.finding(
                        node, path,
                        f"per-element for loop in hot {fn.name}(): "
                        f"vectorize over the array")
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    if all(self._is_range_call(g.iter)
                           for g in node.generators):
                        continue
                    yield self.finding(
                        node, path,
                        f"per-element comprehension in hot {fn.name}(): "
                        f"vectorize over the array")


class BlockingCallInServeRule(LintRule):
    """REP007: serve coroutines must never block the event loop.

    The assembly service's contract (DESIGN.md decision #15) is that the
    request path stays fully async — one stalled coroutine stalls every
    connected client AND the lane hand-off that dispatches the next
    wave, so every queued job waits on it. Synchronous file,
    process, and sleep calls therefore may only run through
    ``run_in_executor``. The rule flags the known blockers when called
    directly inside an ``async def`` of :mod:`repro.serve`; sync helper
    ``def``/``lambda`` bodies nested in a coroutine are exempt — they
    are exactly the things handed to executors.
    """

    rule_id = "REP007"
    description = "blocking call on the event loop in a serve coroutine"

    @staticmethod
    def _applies(path: str) -> bool:
        return "serve" in Path(path).parts

    def _scan(self, fn: ast.AsyncFunctionDef,
              path: str) -> Iterator[LintFinding]:
        def visit(node: ast.AST) -> Iterator[LintFinding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.Lambda,
                                      ast.AsyncFunctionDef)):
                    # sync defs/lambdas are executor material; nested
                    # coroutines get their own pass from check()
                    continue
                if isinstance(child, ast.Call):
                    desc = blocking_desc(child)
                    if desc is not None:
                        yield self.finding(
                            child, path,
                            f"blocking {desc} in coroutine {fn.name}(): "
                            f"run it via the event loop's run_in_executor "
                            f"(or asyncio.sleep for delays)")
                yield from visit(child)
        yield from visit(fn)

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        if not self._applies(path):
            return
        for fn in ast.walk(tree):
            if isinstance(fn, ast.AsyncFunctionDef):
                yield from self._scan(fn, path)


class SilentFailureHandlingRule(LintRule):
    """REP008: fault-tolerance paths must not hide or hammer failures.

    Two anti-patterns defeat the resilience layer (DESIGN.md decision
    #16) from the inside, scoped to :mod:`repro.serve` and
    :mod:`repro.resilience`:

    * a broad ``except Exception`` / bare ``except`` whose body is only
      ``pass`` — the failure vanishes instead of reaching the
      supervisor, journal, or circuit breaker that exists to see it;
    * a retry loop (a ``while``/``for`` whose body catches
      ``TransientError`` or ``BackendLaunchError``) with no backoff call
      anywhere in the loop — lockstep hot-retry is exactly the storm the
      jittered :func:`~repro.resilience.backoff_delay` schedule defuses.

    Narrow excepts, handlers that log/re-raise/fold the error into a
    result, and loops that sleep between attempts all pass.
    """

    rule_id = "REP008"
    description = ("swallowed broad except or backoff-free retry loop "
                   "in a resilience path")

    _BROAD = frozenset({"Exception", "BaseException"})
    _TRANSIENT = frozenset({"TransientError", "BackendLaunchError"})
    #: Call names that count as backoff between attempts: the shared
    #: schedule helpers plus any direct sleep (time./asyncio./injected).
    _BACKOFF_CALLS = frozenset({"sleep", "backoff_delay",
                                "retry_transient"})

    @staticmethod
    def _applies(path: str) -> bool:
        parts = Path(path).parts
        return "serve" in parts or "resilience" in parts

    @staticmethod
    def _exc_names(node: ast.AST | None) -> set[str]:
        """Exception class names in an ``except`` clause's type."""
        if node is None:
            return set()
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return {e.id if isinstance(e, ast.Name)
                else getattr(e, "attr", "") for e in elts}

    @staticmethod
    def _pass_only(handler: ast.ExceptHandler) -> bool:
        return all(isinstance(stmt, ast.Pass)
                   or (isinstance(stmt, ast.Expr)
                       and isinstance(stmt.value, ast.Constant)
                       and stmt.value.value is Ellipsis)
                   for stmt in handler.body)

    def _has_backoff(self, loop: ast.AST) -> bool:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", ""))
            if name in self._BACKOFF_CALLS:
                return True
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        if not self._applies(path):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                names = self._exc_names(handler.type)
                broad = handler.type is None or names & self._BROAD
                if broad and self._pass_only(handler):
                    caught = ", ".join(sorted(names)) or "everything"
                    yield self.finding(
                        handler, path,
                        f"except catching {caught} with a pass-only body "
                        f"swallows the failure: narrow it, fold it into "
                        f"the result, or let the supervisor see it")
        yield from self._scan_retry_loops(tree, path)

    def _scan_retry_loops(self, tree: ast.Module,
                          path: str) -> Iterator[LintFinding]:
        flagged: set[int] = set()

        def visit(node: ast.AST,
                  loop: ast.AST | None) -> Iterator[LintFinding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.While, ast.For, ast.AsyncFor)):
                    yield from visit(child, child)
                    continue
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    yield from visit(child, None)  # new retry scope
                    continue
                if (isinstance(child, ast.ExceptHandler)
                        and loop is not None
                        and id(loop) not in flagged):
                    caught = self._exc_names(child.type) & self._TRANSIENT
                    if caught and not self._has_backoff(loop):
                        flagged.add(id(loop))
                        yield self.finding(
                            child, path,
                            f"retry loop catches {', '.join(sorted(caught))}"
                            f" without backoff: sleep a backoff_delay() "
                            f"between attempts (or use retry_transient)")
                yield from visit(child, loop)

        yield from visit(tree, None)
