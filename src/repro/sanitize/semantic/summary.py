"""Per-file fact extraction for the whole-program semantic pass.

:func:`extract_summary` parses one module into a **module summary**: a
plain-dict record of everything the interprocedural rules (REP009–
REP013) need to reason across file boundaries — functions and their
resolved-enough call sites, async-ness, direct blocking calls,
determinism-taint facts, event emissions and ``handled_events``
declarations, payload codec key sets, and narrow-dtype arithmetic in
fingerprint paths.

Summaries are deliberately JSON-serializable (dicts, lists, strings,
ints only): the incremental analysis cache
(:mod:`repro.sanitize.semantic.analyzer`) persists them keyed by file
content hash, so a warm run rebuilds the project model from cached
summaries without re-parsing unchanged files. Nothing in this module
looks across files — that is :mod:`repro.sanitize.semantic.callgraph`'s
job, operating purely on these summaries.
"""

from __future__ import annotations

import ast
from typing import Iterable

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

#: ``module.attr`` calls whose *value* is nondeterministic across runs
#: (wall clock, process identity, entropy) — REP010 taint sources.
TAINT_SOURCE_ATTRS = {
    "time": frozenset({"time", "monotonic", "perf_counter",
                       "perf_counter_ns", "time_ns", "monotonic_ns"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "os": frozenset({"getpid", "urandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}


#: Call names whose arguments are REP010 sinks (checkpoint payloads and
#: content fingerprints must be derived from deterministic inputs).
TAINT_SINK_NAMES = frozenset({"save", "payload_crc"})

#: Narrow NumPy integer dtypes off the repo's int64/uint64 contract.
NARROW_DTYPES = frozenset({"int8", "uint8", "int16", "uint16",
                           "int32", "uint32"})


def module_name_for(path_parts: Iterable[str]) -> str:
    """Dotted module name from path parts relative to the scan root."""
    parts = [p[:-3] if p.endswith(".py") else p for p in path_parts]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_narrow_dtype_ref(node: ast.AST) -> bool:
    """``np.uint32`` / bare ``uint32`` / ``'uint32'`` dtype references."""
    if isinstance(node, ast.Attribute):
        return (node.attr in NARROW_DTYPES
                and isinstance(node.value, ast.Name)
                and node.value.id in _NUMPY_NAMES)
    if isinstance(node, ast.Name):
        return node.id in NARROW_DTYPES
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in NARROW_DTYPES
    return False


class _TaintTags:
    """A value's provenance: direct sources plus calls it flows through."""

    __slots__ = ("sources", "calls")

    def __init__(self) -> None:
        self.sources: set[str] = set()
        self.calls: set[tuple[str, str, str]] = set()  # (kind, name, recv)

    def merge(self, other: "_TaintTags") -> bool:
        before = (len(self.sources), len(self.calls))
        self.sources |= other.sources
        self.calls |= other.calls
        return (len(self.sources), len(self.calls)) != before

    def __bool__(self) -> bool:
        return bool(self.sources or self.calls)

    def to_dict(self) -> dict:
        return {"sources": sorted(self.sources),
                "calls": [list(c) for c in sorted(self.calls)]}


def _classify_call(call: ast.Call) -> tuple[str, str, str] | None:
    """``(kind, name, receiver)`` of a call site, or ``None`` if opaque.

    Kinds: ``name`` (``foo()``), ``self`` (``self.m()``), ``self_attr``
    (``self.x.m()``), ``attr`` (``alias.m()``). Receivers deeper than one
    attribute hop are opaque — a documented soundness limit.
    """
    func = call.func
    if isinstance(func, ast.Name):
        return ("name", func.id, "")
    if not isinstance(func, ast.Attribute):
        return None
    recv = func.value
    if isinstance(recv, ast.Name):
        if recv.id == "self":
            return ("self", func.attr, "")
        return ("attr", func.attr, recv.id)
    if (isinstance(recv, ast.Attribute) and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"):
        return ("self_attr", func.attr, recv.attr)
    return None


def blocking_desc(call: ast.Call) -> str | None:
    """What a call blocks on (``"open()"``, ``".read_text()"``,
    ``"time.sleep()"``), or ``None`` — the one direct-blocker detector:
    REP007 applies it to serve coroutines, the summaries to any
    function."""
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


def _source_desc(call: ast.Call) -> str | None:
    """Nondeterminism-source descriptor of a call, or ``None``."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = func.value.id
        if func.attr in TAINT_SOURCE_ATTRS.get(owner, ()):
            return f"{owner}.{func.attr}()"
        if owner in _NUMPY_NAMES and func.attr == "random":
            return None  # np.random module ref, handled by callers below
    # np.random.<lowercase>() — the legacy global-state API
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in _NUMPY_NAMES
            and not func.attr[:1].isupper() and func.attr != "default_rng"):
        return f"np.random.{func.attr}()"
    # default_rng() with no seed argument
    name = _call_name(func)
    if name == "default_rng" and not call.args and not call.keywords:
        return "unseeded default_rng()"
    return None


def _class_ctor_name(value: ast.AST) -> str | None:
    """``ClassName`` when ``value`` is a plausible constructor call."""
    if not isinstance(value, ast.Call):
        return None
    name = _call_name(value.func)
    return name if name[:1].isupper() else None


# ----------------------------------------------------------------------
# per-function analysis
# ----------------------------------------------------------------------


class _FunctionAnalyzer:
    """Single-function fact collection (calls, blocking, local taint)."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 qualname: str, cls: str | None,
                 self_attr_tags: dict[str, _TaintTags],
                 fingerprint_scope: bool) -> None:
        self.fn = fn
        self.qualname = qualname
        self.cls = cls
        self.self_attr_tags = self_attr_tags
        self.fingerprint_scope = fingerprint_scope
        self.calls: list[dict] = []
        self.blocking: list[dict] = []
        self.var_types: dict[str, str] = {}
        self.var_tags: dict[str, _TaintTags] = {}
        self.return_tags = _TaintTags()
        self.sinks: list[dict] = []
        self.narrow_vars: set[str] = set()
        self.narrow_sites: list[dict] = []
        self.attr_writes: dict[str, _TaintTags] = {}

    # -- taint expression evaluation -----------------------------------

    def _expr_tags(self, node: ast.AST) -> _TaintTags:
        tags = _TaintTags()
        if node is None:
            return tags
        if isinstance(node, ast.Name):
            found = self.var_tags.get(node.id)
            if found is not None:
                tags.merge(found)
            return tags
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            found = self.self_attr_tags.get(node.attr)
            if found is not None:
                tags.merge(found)
            return tags
        if isinstance(node, ast.Call):
            src = _source_desc(node)
            if src is not None:
                tags.sources.add(src)
            site = _classify_call(node)
            if site is not None:
                tags.calls.add(site)
            for arg in node.args:
                tags.merge(self._expr_tags(arg))
            for kw in node.keywords:
                tags.merge(self._expr_tags(kw.value))
            return tags
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return tags  # separate scopes; lambdas run elsewhere
        for child in ast.iter_child_nodes(node):
            tags.merge(self._expr_tags(child))
        return tags

    # -- narrow-dtype tracking (REP012) --------------------------------

    def _is_narrow_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.narrow_vars
        if isinstance(node, ast.Subscript):
            return self._is_narrow_expr(node.value)
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in NARROW_DTYPES and isinstance(node.func, (ast.Attribute,
                                                                ast.Name)):
                if isinstance(node.func, ast.Name) or (
                        isinstance(node.func.value, ast.Name)
                        and node.func.value.id in _NUMPY_NAMES):
                    return True
            if name == "astype" and node.args \
                    and _is_narrow_dtype_ref(node.args[0]):
                return True
            if name in ("full", "zeros", "ones", "empty", "array", "asarray"):
                for kw in node.keywords:
                    if kw.arg == "dtype" and _is_narrow_dtype_ref(kw.value):
                        return True
            return False
        if isinstance(node, ast.BinOp):
            return (self._is_narrow_expr(node.left)
                    or self._is_narrow_expr(node.right))
        return False

    def _scan_narrow(self, node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.With):
            inner = guarded or any(
                isinstance(item.context_expr, ast.Call)
                and _call_name(item.context_expr.func) == "errstate"
                and any(kw.arg == "over" for kw in item.context_expr.keywords)
                for item in node.items)
            for stmt in node.body:
                self._scan_narrow(stmt, inner)
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            if self._is_narrow_expr(node.value):
                self.narrow_vars.add(node.targets[0].id)
        if not guarded and self.fingerprint_scope:
            site = None
            if isinstance(node, ast.BinOp) \
                    and isinstance(node.op, (ast.Mult, ast.Add)):
                if self._is_narrow_expr(node.left) \
                        or self._is_narrow_expr(node.right):
                    site = node
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Mult, ast.Add)):
                if self._is_narrow_expr(node.target) \
                        or self._is_narrow_expr(node.value):
                    site = node
            if site is not None:
                op = "*" if isinstance(site.op, ast.Mult) else "+"
                self.narrow_sites.append({
                    "op": op, "line": site.lineno, "col": site.col_offset})
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            self._scan_narrow(child, guarded)

    # -- main statement walk -------------------------------------------

    def run(self) -> None:
        for _ in range(2):  # second pass fixes loop-carried taint
            self._visit_block(self.fn.body)
        for stmt in self.fn.body:
            self._scan_narrow(stmt, False)
        self._collect_node(self.fn)

    def _visit_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs analyzed separately
        if isinstance(stmt, ast.Assign):
            tags = self._expr_tags(stmt.value)
            ctor = _class_ctor_name(stmt.value)
            for target in stmt.targets:
                self._assign(target, tags, ctor)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._expr_tags(stmt.value),
                         _class_ctor_name(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            tags = self._expr_tags(stmt.value)
            tags.merge(self._expr_tags(stmt.target))
            self._assign(stmt.target, tags, None)
        elif isinstance(stmt, ast.Return):
            self.return_tags.merge(self._expr_tags(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._expr_tags(stmt.iter), None)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._assign(item.optional_vars,
                                 self._expr_tags(item.context_expr), None)
            self._visit_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._visit_block(stmt.body)
            for handler in stmt.handlers:
                self._visit_block(handler.body)
            self._visit_block(stmt.orelse)
            self._visit_block(stmt.finalbody)

    def _assign(self, target: ast.AST, tags: _TaintTags,
                ctor: str | None) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, tags, None)
            return
        if isinstance(target, ast.Name):
            slot = self.var_tags.setdefault(target.id, _TaintTags())
            slot.merge(tags)
            if ctor is not None:
                self.var_types[target.id] = ctor
            return
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            slot = self.attr_writes.setdefault(target.attr, _TaintTags())
            slot.merge(tags)

    # -- call / blocking / sink collection -----------------------------

    def _collect_node(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue  # separate scopes / executor material
            if isinstance(child, ast.Call):
                self._collect_call(child)
            elif isinstance(child, ast.Dict):
                self._collect_dict(child)
            self._collect_node(child)

    def _collect_call(self, call: ast.Call) -> None:
        site = _classify_call(call)
        if site is not None:
            kind, name, recv = site
            self.calls.append({"kind": kind, "name": name, "recv": recv,
                               "line": call.lineno, "col": call.col_offset})
        desc = blocking_desc(call)
        if desc is not None:
            self.blocking.append({"desc": desc, "line": call.lineno,
                                  "col": call.col_offset})
        name = _call_name(call.func)
        if name in TAINT_SINK_NAMES or "fingerprint" in name.lower():
            tags = _TaintTags()
            for arg in call.args:
                tags.merge(self._expr_tags(arg))
            for kw in call.keywords:
                tags.merge(self._expr_tags(kw.value))
            if tags:
                self.sinks.append({"sink": f"{name}()",
                                   "line": call.lineno,
                                   "col": call.col_offset,
                                   **tags.to_dict()})

    def _collect_dict(self, node: ast.Dict) -> None:
        """Values under a literal ``"counters"`` key are identity sinks
        (the exact-equality half of the ``BENCH_*.json`` gate)."""
        for key, value in zip(node.keys, node.values):
            if (isinstance(key, ast.Constant) and key.value == "counters"):
                tags = self._expr_tags(value)
                if tags:
                    self.sinks.append({"sink": 'the "counters" identity block',
                                       "line": value.lineno,
                                       "col": value.col_offset,
                                       **tags.to_dict()})

    def summary(self) -> dict:
        sinks = list(self.sinks)
        if self.fingerprint_scope_fn() and self.return_tags:
            sinks.append({"sink": f"the return value of {self.fn.name}()",
                          "line": self.fn.lineno, "col": self.fn.col_offset,
                          **self.return_tags.to_dict()})
        return {
            "qualname": self.qualname,
            "cls": self.cls,
            "name": self.fn.name,
            "is_async": isinstance(self.fn, ast.AsyncFunctionDef),
            "line": self.fn.lineno,
            "col": self.fn.col_offset,
            "calls": self.calls,
            "blocking": self.blocking,
            "var_types": dict(sorted(self.var_types.items())),
            "return_tags": self.return_tags.to_dict(),
            "sinks": sinks,
            "narrow_sites": self.narrow_sites,
        }

    def fingerprint_scope_fn(self) -> bool:
        return "fingerprint" in self.fn.name.lower()


# ----------------------------------------------------------------------
# module-level extraction
# ----------------------------------------------------------------------


def _imports_of(tree: ast.Module) -> dict[str, str]:
    """alias -> dotted target for module-level imports."""
    imports: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return imports


def _declared_event_names(node: ast.AST) -> list[str] | None:
    """Names in a tuple/list literal of event classes, else ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names = []
    for elt in node.elts:
        if isinstance(elt, ast.Name):
            names.append(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.append(elt.attr)
        else:
            return None
    return names


def _collect_event_facts(tree: ast.Module, emits: list[dict],
                         declared: list[dict]) -> None:
    """Every ``*.emit(Ctor(...))`` site (``*.emit(x := Ctor(...))`` too)
    and ``handled_events`` literal.

    Declarations are recognized structurally: assignments whose target
    name mentions ``handled`` and whose value is a literal tuple/list of
    class names (covers class attributes, ``self.handled_events = ...``,
    and the lazy ``cls._handled = (...)`` pattern), plus ``.append(X)``
    calls on such a collector variable.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "emit" \
                    and len(node.args) == 1:
                arg = node.args[0]
                if isinstance(arg, ast.NamedExpr):  # bus.emit(ev := X(...))
                    arg = arg.value
                if isinstance(arg, ast.Call):
                    name = _call_name(arg.func)
                    if name[:1].isupper():
                        emits.append({"event": name, "line": node.lineno,
                                      "col": node.col_offset})
            elif isinstance(func, ast.Attribute) and func.attr == "append" \
                    and isinstance(func.value, ast.Name) \
                    and "handled" in func.value.id and len(node.args) == 1:
                names = _declared_event_names(ast.Tuple(elts=node.args))
                if names:
                    declared.append({"names": names, "line": node.lineno,
                                     "col": node.col_offset})
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            if value is None:
                continue
            for target in targets:
                tname = (target.id if isinstance(target, ast.Name)
                         else target.attr if isinstance(target, ast.Attribute)
                         else "")
                if "handled" not in tname:
                    continue
                inner = value
                if isinstance(inner, ast.Call) \
                        and _call_name(inner.func) == "tuple" \
                        and len(inner.args) == 1:
                    inner = inner.args[0]
                names = _declared_event_names(inner)
                if names:
                    declared.append({"names": names, "line": node.lineno,
                                     "col": node.col_offset})


_CODEC_WRITER_FORMS = ("_to_payload", "_to_dict", "_to_lists")
_CODEC_READER_FORMS = ("_from_payload", "_from_dict", "_from_lists")


def _codec_role(name: str) -> tuple[str, str, str] | None:
    """``(role, stem, form)`` for codec-shaped function names."""
    for form in _CODEC_WRITER_FORMS:
        if name.endswith(form):
            return ("writer", name[: -len(form)].lstrip("_"), form[4:])
    for form in _CODEC_READER_FORMS:
        if name.endswith(form):
            return ("reader", name[: -len(form)].lstrip("_"), form[6:])
    return None


def _dict_literal_keys(fn: ast.AST) -> tuple[list[str], bool]:
    """All literal dict keys in ``fn``; ``opaque`` when ``**`` or
    non-constant keys make the written key set unknowable."""
    keys: set[str] = set()
    opaque = True  # a writer with no dict literal at all is opaque
    for node in ast.walk(fn):
        if not isinstance(node, ast.Dict):
            continue
        opaque = False
        for key in node.keys:
            if key is None:  # {**other}
                return (sorted(keys), True)
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            else:
                return (sorted(keys), True)
    return (sorted(keys), opaque)


def _read_keys(fn: ast.AST, param: str | None) -> tuple[list[str], bool]:
    """All string keys read via ``x["k"]`` / ``x.get("k")``; opaque when
    the payload parameter escapes wholesale (``**param``, ``dict(param)``)."""
    keys: set[str] = set()
    opaque = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                keys.add(sl.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                keys.add(node.args[0].value)
            if param is not None:
                for kw in node.keywords:
                    if kw.arg is None and isinstance(kw.value, ast.Name) \
                            and kw.value.id == param:
                        opaque = True
                if _call_name(func) == "dict" and any(
                        isinstance(a, ast.Name) and a.id == param
                        for a in node.args):
                    opaque = True
    return (sorted(keys), opaque)


def _collect_codecs(tree: ast.Module, codecs: list[dict]) -> None:
    """Codec-pair halves: ``X_to_*``/``X_from_*`` functions and
    ``run``/``restore`` method pairs of pipeline-stage classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            role = _codec_role(node.name)
            if role is None:
                continue
            kind, stem, form = role
            if kind == "writer":
                keys, opaque = _dict_literal_keys(node)
            else:
                param = node.args.args[0].arg if node.args.args else None
                keys, opaque = _read_keys(node, param)
            codecs.append({"pair": f"{stem}:{form}", "role": kind,
                           "where": node.name, "keys": keys,
                           "opaque": opaque, "line": node.lineno,
                           "col": node.col_offset})
        elif isinstance(node, ast.ClassDef):
            methods = {n.name: n for n in node.body
                       if isinstance(n, ast.FunctionDef)}
            run, restore = methods.get("run"), methods.get("restore")
            if run is None or restore is None:
                continue
            keys, opaque = _dict_literal_keys(run)
            codecs.append({"pair": f"stage:{node.name}", "role": "writer",
                           "where": f"{node.name}.run", "keys": keys,
                           "opaque": opaque, "line": run.lineno,
                           "col": run.col_offset})
            args = restore.args.args
            param = args[-1].arg if args else None
            keys, opaque = _read_keys(restore, param)
            codecs.append({"pair": f"stage:{node.name}", "role": "reader",
                           "where": f"{node.name}.restore", "keys": keys,
                           "opaque": opaque, "line": restore.lineno,
                           "col": restore.col_offset})


def extract_summary(tree: ast.Module, path: str, module: str) -> dict:
    """Extract one module's whole-program facts (JSON-serializable)."""
    fingerprint_module = module.split(".")[-1] in ("murmur", "kmer")
    emits: list[dict] = []
    declared: list[dict] = []
    _collect_event_facts(tree, emits, declared)
    codecs: list[dict] = []
    _collect_codecs(tree, codecs)

    functions: list[dict] = []
    classes: list[dict] = []

    def analyze_fn(fn, qualname, cls, attr_tags):
        # Nested defs are separate scopes and stay unanalyzed (they are
        # usually executor/callback material here) — a documented
        # soundness limit, like lambdas.
        scope = (fingerprint_module
                 or "murmur" in fn.name.lower()
                 or "fingerprint" in fn.name.lower())
        an = _FunctionAnalyzer(fn, qualname, cls, attr_tags, scope)
        an.run()
        functions.append(an.summary())
        return an

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze_fn(node, node.name, None, {})
        elif isinstance(node, ast.ClassDef):
            methods = [n for n in node.body
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
            # pass 1: instance-attribute constructor types and taint
            attr_types: dict[str, str] = {}
            attr_tags: dict[str, _TaintTags] = {}
            for meth in methods:
                an = _FunctionAnalyzer(meth, f"{node.name}.{meth.name}",
                                       node.name, {}, False)
                an.run()
                for stmt in ast.walk(meth):
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                ctor = _class_ctor_name(stmt.value)
                                if ctor is not None:
                                    attr_types[target.attr] = ctor
                for attr, tags in an.attr_writes.items():
                    attr_tags.setdefault(attr, _TaintTags()).merge(tags)
            # pass 2: full analysis with self-attr taint visible
            for meth in methods:
                analyze_fn(meth, f"{node.name}.{meth.name}", node.name,
                           attr_tags)
            bases = [b.id if isinstance(b, ast.Name)
                     else getattr(b, "attr", "") for b in node.bases]
            classes.append({"name": node.name, "line": node.lineno,
                            "bases": [b for b in bases if b],
                            "attr_types": dict(sorted(attr_types.items())),
                            "methods": sorted(m.name for m in methods)})

    return {
        "path": path,
        "module": module,
        "imports": _imports_of(tree),
        "functions": functions,
        "classes": classes,
        "emits": emits,
        "declared_events": declared,
        "codecs": codecs,
    }
