"""Interprocedural rules REP009–REP013 over the project model.

Each rule subclasses :class:`SemanticRule`: it sits in the one
:data:`~repro.sanitize.lint.catalog.RULES` table (so ``--select`` /
``--explain`` treat the whole catalog uniformly) but its per-file
``check`` is a no-op — the real work happens in ``check_project``,
which sees the :class:`~repro.sanitize.semantic.callgraph.Project`
built from every file at once. ``repro lint``
(:func:`~repro.sanitize.semantic.analyzer.analyze_paths`) runs both
passes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.sanitize.lint.engine import LintFinding, LintRule
from repro.sanitize.semantic.callgraph import Project


class SemanticRule(LintRule):
    """A whole-program rule: findings come from the project model."""

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        return iter(())  # semantic rules have no single-file component

    def check_project(self, project: Project) -> Iterator[LintFinding]:
        raise NotImplementedError

    def project_finding(self, path: str, site: dict,
                        message: str) -> LintFinding:
        return LintFinding(rule=self.rule_id, path=path,
                           line=site.get("line", 0), col=site.get("col", 0),
                           message=message)


class TransitiveBlockingRule(SemanticRule):
    """REP009: no coroutine may reach a blocking call through any chain.

    Generalizes REP007 across file boundaries: an ``async def`` must not
    transitively call ``time.sleep``, ``open()``, synchronous ``Path``
    I/O, ``os.fsync``, or ``subprocess.*`` through any resolvable call
    chain — the event loop stalls just as hard two frames down. Direct
    blockers inside the coroutine itself stay REP007 findings; this rule
    reports only depth >= 1 chains, with the shortest offending path.
    Push the blocking leaf through ``run_in_executor`` instead (passing
    the function as a reference keeps it off the coroutine's call graph).
    """

    rule_id = "REP009"
    description = ("coroutine transitively reaches a blocking call "
                   "(event-loop stall beyond REP007's single file)")

    def check_project(self, project: Project) -> Iterator[LintFinding]:
        for key in sorted(project.functions):
            fn = project.functions[key]
            if not fn["is_async"]:
                continue
            chain = project.blocking_chain(key)
            if chain is None:
                continue
            hops = " -> ".join(
                project.functions[hop["func"]]["qualname"] for hop in chain)
            leaf = chain[-1]["blocking"]["desc"]
            yield self.project_finding(
                fn["path"], chain[0]["call"],
                f"coroutine {fn['qualname']} reaches blocking {leaf} via "
                f"{hops}; move the blocking leaf behind run_in_executor")


class DeterminismTaintRule(SemanticRule):
    """REP010: nondeterministic values must not reach identity sinks.

    Checkpoint payloads (``save`` / ``payload_crc``), content
    fingerprints (``*fingerprint*`` call arguments and return values),
    and the ``"counters"`` identity block of ``BENCH_*.json`` are
    compared byte-for-byte across runs — a wall-clock read, an unseeded
    RNG draw, ``os.getpid``, or a ``uuid`` flowing into them breaks
    resume identity and the bench gates nondeterministically. Taint is
    tracked through local assignments, ``self.*`` attributes, and
    resolvable call returns (interprocedural fixpoint). Timing that
    feeds *metrics* keys (``wall_s``, throughput) is fine — those are
    measurements, not identity.
    """

    rule_id = "REP010"
    description = ("nondeterministic value (clock/RNG/pid/uuid) flows "
                   "into a checkpoint payload, fingerprint, or bench "
                   "identity counter")

    def check_project(self, project: Project) -> Iterator[LintFinding]:
        for key in sorted(project.functions):
            fn = project.functions[key]
            for sink in fn["sinks"]:
                sources = project.tag_sources(fn, sink)
                if not sources:
                    continue
                yield self.project_finding(
                    fn["path"], sink,
                    f"nondeterministic {', '.join(sources)} flows into "
                    f"{sink['sink']} in {fn['qualname']}; derive identity "
                    f"payloads from seeded/input state only")


class EventContractRule(SemanticRule):
    """REP011: every emitted event is handled, every handled event real.

    The EventBus contract is cross-module: ``bus.emit(X(...))`` in one
    file is only useful if some subscriber declares ``X`` in its
    ``handled_events`` tuple (possibly in another package), and a
    declared event class that nothing ever emits is dead wiring that
    silently decays (the ``bus.wants`` gating makes both mistakes
    invisible at runtime). Emission sites are constructor calls inside
    ``*.emit(...)``; declarations are literal tuples/lists assigned to
    ``handled``-named targets (including ``handled.append(X)``
    builders). Variable emits (``bus.emit(ev)``) are opaque and exempt,
    and so is a declared name that is no class of the tree (a
    constructor parameter, say): what it names is unknown, not dead.
    """

    rule_id = "REP011"
    description = ("event emitted with no handled_events subscriber "
                   "anywhere, or declared but never emitted")

    def check_project(self, project: Project) -> Iterator[LintFinding]:
        declared: dict[str, tuple[str, dict]] = {}
        emitted: dict[str, tuple[str, dict]] = {}
        for summ in project.summaries:
            for decl in summ["declared_events"]:
                for name in decl["names"]:
                    declared.setdefault(name, (summ["path"], decl))
            for emit in summ["emits"]:
                emitted.setdefault(emit["event"], (summ["path"], emit))
        for name in sorted(emitted):
            if name in declared:
                continue
            path, site = emitted[name]
            yield self.project_finding(
                path, site,
                f"event {name} is emitted here but no subscriber declares "
                f"it in handled_events anywhere in the tree")
        for name in sorted(declared):
            if name in emitted or not project.has_class(name):
                continue
            path, site = declared[name]
            yield self.project_finding(
                path, site,
                f"event {name} is declared in handled_events but nothing "
                f"in the tree ever emits it (dead subscription)")


class DtypeWidthRule(SemanticRule):
    """REP012: fingerprint arithmetic stays on the 64-bit contract.

    The rolling k-mer fingerprints and table keys are specified as
    int64/uint64; a ``*`` or ``+`` on an int32/uint32 operand in a
    murmur/fingerprint path silently wraps at 2**32 and desynchronizes
    fingerprints across backends. MurmurHash2 is the one *intentional*
    32-bit wraparound — which is why its multiplies sit inside
    ``with np.errstate(over="ignore"):`` blocks; that context is the
    sanctioned opt-in and such sites are exempt. Anything narrow and
    unguarded in fingerprint scope gets flagged: either widen to 64-bit
    or wrap the deliberate wraparound in ``np.errstate(over=...)``.
    """

    rule_id = "REP012"
    description = ("narrow (u)int8/16/32 multiply/add in a fingerprint/"
                   "murmur path outside np.errstate(over=...)")

    def check_project(self, project: Project) -> Iterator[LintFinding]:
        for key in sorted(project.functions):
            fn = project.functions[key]
            for site in fn["narrow_sites"]:
                yield self.project_finding(
                    fn["path"], site,
                    f"narrow-dtype '{site['op']}' in {fn['qualname']} can "
                    f"wrap off the int64 fingerprint contract; widen to "
                    f"64-bit or guard with np.errstate(over='ignore')")


class CheckpointCodecRule(SemanticRule):
    """REP013: checkpoint codec halves must agree on their key sets.

    Every stage payload has a writer (``X_to_payload`` / ``X_to_dict`` /
    ``X_to_lists``, or a stage's ``run``) and a reader (``X_from_*`` /
    ``restore``). A key the writer emits but the reader never touches is
    dead weight that masks schema rot; a key the reader expects but the
    writer never produces is a resume-time ``KeyError`` waiting for the
    one crash that exercises it. Halves pair by name stem within a
    module; pairs where either side is opaque (``**kwargs`` splats,
    ``dataclasses.asdict`` round-trips, wholesale ``dict(payload)``)
    are skipped rather than guessed at.
    """

    rule_id = "REP013"
    description = ("checkpoint codec drift: writer/reader key sets of a "
                   "payload pair disagree")

    def check_project(self, project: Project) -> Iterator[LintFinding]:
        pairs: dict[tuple[str, str], dict[str, list[dict]]] = {}
        paths: dict[str, str] = {}
        for summ in project.summaries:
            paths[summ["module"]] = summ["path"]
            for codec in summ["codecs"]:
                slot = pairs.setdefault((summ["module"], codec["pair"]), {})
                slot.setdefault(codec["role"], []).append(codec)
        for (module, pair) in sorted(pairs):
            halves = pairs[(module, pair)]
            writers = halves.get("writer", [])
            readers = halves.get("reader", [])
            if not writers or not readers:
                continue  # unpaired halves may pair in another layer
            if any(c["opaque"] for c in writers + readers):
                continue
            written = {k for c in writers for k in c["keys"]}
            read = {k for c in readers for k in c["keys"]}
            path = paths[module]
            for key in sorted(written - read):
                c = writers[0]
                yield self.project_finding(
                    path, c,
                    f"codec pair '{pair}': {c['where']} writes key "
                    f"'{key}' that no paired reader ever reads")
            for key in sorted(read - written):
                c = readers[0]
                yield self.project_finding(
                    path, c,
                    f"codec pair '{pair}': {c['where']} reads key "
                    f"'{key}' that no paired writer ever writes")
