"""Project model: symbol table, module graph, and call resolution.

A :class:`Project` is built purely from per-file module summaries
(:func:`repro.sanitize.semantic.summary.extract_summary`) — it never
re-opens source files: every fact a rule asks for is in the summaries.
It indexes every function/method/coroutine under a stable
key ``module:qualname``, resolves call sites between them, and answers
the interprocedural questions the REP009–REP013 rules ask (transitive
blocking reachability, nondeterministic return taint).

Resolution is deliberately *under*-approximate — sound for the repo's
idioms, silent elsewhere: module-level names, one-hop import aliases,
``self.method()`` with a one-level base-class walk, and constructor-
based type inference for locals (``x = ClassName(...)``) and instance
attributes (``self.x = ClassName(...)``). Dynamic dispatch, ``getattr``
indirection, decorators that swap callables, and re-exported names stay
unresolved (see the DESIGN.md soundness notes).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.sanitize.semantic.summary import TAINT_SOURCE_ATTRS

FuncKey = str  # "module:qualname"


class Project:
    """Whole-program index over module summaries."""

    def __init__(self, summaries: Iterable[dict]) -> None:
        self.summaries: list[dict] = sorted(summaries,
                                            key=lambda s: s["module"])
        self.functions: dict[FuncKey, dict] = {}
        self._module_funcs: dict[str, dict[str, FuncKey]] = {}
        self._classes: dict[str, list[tuple[str, dict]]] = {}
        self._class_by_module: dict[tuple[str, str], dict] = {}
        self._methods: dict[tuple[str, str, str], FuncKey] = {}
        self._imports: dict[str, dict[str, str]] = {}
        self._modules: set[str] = set()
        for summ in self.summaries:
            mod = summ["module"]
            self._modules.add(mod)
            self._imports[mod] = summ.get("imports", {})
            funcs = self._module_funcs.setdefault(mod, {})
            for fn in summ["functions"]:
                key = f"{mod}:{fn['qualname']}"
                entry = dict(fn)
                entry["module"] = mod
                entry["key"] = key
                entry["path"] = summ["path"]
                self.functions[key] = entry
                if fn["cls"] is None and "." not in fn["qualname"]:
                    funcs[fn["name"]] = key
                elif fn["cls"] is not None and fn["qualname"].count(".") == 1:
                    self._methods[(mod, fn["cls"], fn["name"])] = key
            for cls in summ.get("classes", []):
                self._classes.setdefault(cls["name"], []).append((mod, cls))
                self._class_by_module[(mod, cls["name"])] = cls
        self._reach_cache: dict[FuncKey, list[dict] | None] = {}
        self._return_sources: dict[FuncKey, frozenset[str]] | None = None

    # -- symbol lookup -------------------------------------------------

    def has_class(self, name: str) -> bool:
        """Whether any module of the tree defines a class ``name``."""
        return name in self._classes

    def _find_class(self, name: str, prefer_module: str) -> \
            tuple[str, dict] | None:
        hit = self._class_by_module.get((prefer_module, name))
        if hit is not None:
            return (prefer_module, hit)
        cands = self._classes.get(name, [])
        if len(cands) == 1:
            return cands[0]
        return None  # absent or ambiguous: stay silent

    def _method_key(self, module: str, cls_name: str, method: str,
                    depth: int = 0) -> FuncKey | None:
        key = self._methods.get((module, cls_name, method))
        if key is not None:
            return key
        if depth >= 3:
            return None
        cls = self._class_by_module.get((module, cls_name))
        if cls is None:
            found = self._find_class(cls_name, module)
            if found is None:
                return None
            module, cls = found
            key = self._methods.get((module, cls_name, method))
            if key is not None:
                return key
        for base in cls.get("bases", []):
            found = self._find_class(base, module)
            if found is None:
                continue
            key = self._method_key(found[0], base, method, depth + 1)
            if key is not None:
                return key
        return None

    def _resolve_dotted(self, dotted: str) -> FuncKey | None:
        """``pkg.mod.fn`` / ``pkg.mod.Class`` → function key."""
        head, _, leaf = dotted.rpartition(".")
        if not head:
            return None
        if head in self._modules:
            key = self._module_funcs.get(head, {}).get(leaf)
            if key is not None:
                return key
            if (head, leaf) in self._class_by_module:
                return self._method_key(head, leaf, "__init__")
        if dotted in self._modules:  # "import pkg.mod" style alias
            return None
        return None

    # -- call resolution -----------------------------------------------

    def resolve_call(self, caller: dict, call: dict) -> FuncKey | None:
        """The project function a call site targets, if determinable."""
        module = caller["module"]
        kind, name, recv = call["kind"], call["name"], call["recv"]
        if kind == "name":
            key = self._module_funcs.get(module, {}).get(name)
            if key is not None and key != caller["key"]:
                return key
            if key is not None:
                return key  # direct recursion is a real edge
            dotted = self._imports.get(module, {}).get(name)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            if (module, name) in self._class_by_module:
                return self._method_key(module, name, "__init__")
            return None
        if kind == "self":
            if caller["cls"] is None:
                return None
            return self._method_key(module, caller["cls"], name)
        if kind == "self_attr":
            if caller["cls"] is None:
                return None
            cls = self._class_by_module.get((module, caller["cls"]))
            if cls is None:
                return None
            recv_type = cls.get("attr_types", {}).get(recv)
            if recv_type is None:
                return None
            found = self._find_class(recv_type, module)
            if found is None:
                return None
            return self._method_key(found[0], recv_type, name)
        if kind == "attr":
            recv_type = caller.get("var_types", {}).get(recv)
            if recv_type is not None:
                found = self._find_class(recv_type, module)
                if found is not None:
                    return self._method_key(found[0], recv_type, name)
                return None
            dotted = self._imports.get(module, {}).get(recv)
            if dotted is not None:
                if dotted in self._modules:
                    return self._module_funcs.get(dotted, {}).get(name)
                return self._resolve_dotted(f"{dotted}.{name}")
            return None
        return None

    def edges_from(self, key: FuncKey) -> Iterator[tuple[FuncKey, dict]]:
        """Resolved outgoing call edges ``(callee key, call site)``."""
        caller = self.functions[key]
        for call in caller["calls"]:
            target = self.resolve_call(caller, call)
            if target is not None:
                yield (target, call)

    # -- REP009: transitive blocking reachability ----------------------

    def blocking_chain(self, key: FuncKey) -> list[dict] | None:
        """Shortest call chain from ``key`` to a directly-blocking
        function, or ``None``. Each hop is ``{"func": key, "call": site}``
        and the last hop carries ``"blocking"`` — the offending call.
        Only *transitive* blocking counts: direct blockers in ``key``
        itself are REP007's business and are not reported here.
        """
        if key in self._reach_cache:
            return self._reach_cache[key]
        parent: dict[FuncKey, tuple[FuncKey, dict]] = {}
        seen = {key}
        queue: deque[FuncKey] = deque([key])
        hit: FuncKey | None = None
        while queue and hit is None:
            cur = queue.popleft()
            for target, call in sorted(
                    self.edges_from(cur),
                    key=lambda e: (e[1]["line"], e[1]["col"], e[0])):
                if target in seen:
                    continue
                seen.add(target)
                parent[target] = (cur, call)
                if self.functions[target]["blocking"]:
                    hit = target
                    break
                queue.append(target)
        if hit is None:
            self._reach_cache[key] = None
            return None
        chain: list[dict] = []
        cur = hit
        while cur != key:
            prev, call = parent[cur]
            chain.append({"func": cur, "call": call})
            cur = prev
        chain.reverse()
        chain[-1]["blocking"] = self.functions[hit]["blocking"][0]
        self._reach_cache[key] = chain
        return chain

    # -- REP010: interprocedural return taint --------------------------

    def return_sources(self) -> dict[FuncKey, frozenset[str]]:
        """Per function: nondeterminism sources its return value can
        carry, closed over the call graph (fixpoint over return tags).
        """
        if self._return_sources is not None:
            return self._return_sources
        sources: dict[FuncKey, set[str]] = {
            key: set(fn["return_tags"]["sources"])
            for key, fn in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for key, fn in self.functions.items():
                for kind, name, recv in (tuple(c) for c in
                                         fn["return_tags"]["calls"]):
                    target = self.resolve_call(
                        fn, {"kind": kind, "name": name, "recv": recv})
                    if target is None:
                        continue
                    extra = sources[target] - sources[key]
                    if extra:
                        sources[key] |= extra
                        changed = True
        self._return_sources = {k: frozenset(v) for k, v in sources.items()}
        return self._return_sources

    def tag_sources(self, caller: dict, tags: dict) -> list[str]:
        """All nondeterminism sources a tag set can carry: its direct
        sources, the closed return taint of every resolvable call, and
        bare-name calls that alias a stdlib source (``from time import
        monotonic`` — invisible to per-file extraction by design)."""
        out = set(tags.get("sources", ()))
        closed = self.return_sources()
        imports = self._imports.get(caller["module"], {})
        for kind, name, recv in (tuple(c) for c in tags.get("calls", ())):
            target = self.resolve_call(
                caller, {"kind": kind, "name": name, "recv": recv})
            if target is not None:
                out |= closed[target]
            elif kind == "name" and name in imports:
                owner, _, attr = imports[name].rpartition(".")
                if attr in TAINT_SOURCE_ATTRS.get(owner, ()):
                    out.add(f"{owner}.{attr}()")
        return sorted(out)
