"""In-memory span recorder and the run-time hooks that feed it.

This PR may not edit ``src/``, so every span is recorded from here:
callables are resolved **by dotted name at run time** and wrapped, and
the engine's three phases are subclassed through the kernel's public
factories (``LocalAssemblyKernel.preparer_cls / construct_cls /
walk_cls``). A name that no longer resolves is reported in
:attr:`Tracer.unresolved` and its metric reads as absent — a refactor of
``src/`` can break a hook, never a run.

Spans are kept per thread (no lock on the hot path) and only leave
memory through :meth:`Tracer.dump` after timing has ended. A span's
*self* time is its duration minus the part its child spans cover
(:func:`self_times`); children are the spans opened on the same thread
while it was the innermost open span.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Per-thread span columns plus a few named counters and extremes.

    Spans live in parallel flat lists (name, start, end, parent, tag) —
    not one object per span — because hundreds of thousands of small
    container objects make every cyclic-GC pass of the traced process
    slower, and that cost would be charged to the layers being timed.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple] = []
        self._register = threading.Lock()
        self.counts: dict[str, float] = {}
        self.minima: dict[str, float] = {}
        self.unresolved: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _columns(self) -> tuple:
        try:
            return self._local.columns
        except AttributeError:
            # names, starts, ends, parents, tags, open-span stack
            columns = self._local.columns = ([], [], [], [], [], [])
            with self._register:
                self._threads.append(columns)
            return columns

    def begin(self, name: str, tag=None, *, nest: bool = True) -> int:
        """Open a span; ``nest=False`` (async callers) leaves the thread's
        stack alone, because interleaved tasks would corrupt it."""
        names, starts, ends, parents, tags, stack = self._columns()
        index = len(names)
        names.append(name)
        ends.append(0.0)
        parents.append(stack[-1] if stack else -1)
        tags.append(tag)
        if nest:
            stack.append(index)
        starts.append(time.perf_counter())
        return index

    def end(self, index: int, *, nest: bool = True) -> None:
        now = time.perf_counter()
        columns = self._local.columns
        columns[2][index] = now
        if nest:
            columns[5].pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def note_min(self, name: str, value: float) -> None:
        if value < self.minima.get(name, float("inf")):
            self.minima[name] = value

    # -- hooks ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``. ``tag(args, kwargs)`` labels the
        span (job ids); ``after(result, args)`` records counts."""
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span = self.begin(name, tag(args, kwargs) if tag else None,
                                  nest=False)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.end(span, nest=False)
            return traced_async

        if tag is None and after is None:  # the hot hooks: keep them lean
            begin, end = self.begin, self.end

            @functools.wraps(fn)
            def traced_lean(*args, **kwargs):
                index = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(index)
            return traced_lean

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, args)
            return result
        return traced

    def hook(self, name: str, target: str, tag: Callable | None = None,
             after: Callable | None = None) -> bool:
        """Wrap the callable at ``"pkg.module:Attr.path"`` in place."""
        resolved = resolve(target)
        if resolved is None:
            self.unresolved.append(target)
            return False
        owner, attr, fn = resolved
        raw = owner.__dict__.get(attr, fn) if isinstance(owner, type) else fn
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        wrapped = self.wrap(name, raw.__func__ if kind else fn, tag, after)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        return True

    def subclass(self, target: str, make: Callable[[type], type]) -> bool:
        """Replace a class-valued factory attribute by ``make(current)``."""
        resolved = resolve(target)
        if resolved is None:
            self.unresolved.append(target)
            return False
        owner, attr, current = resolved
        self._undo.append((owner, attr, current))
        setattr(owner, attr, make(current))
        return True

    def uninstall(self) -> None:
        """Put every hooked attribute back (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def spans(self) -> list[dict]:
        """Every closed span as a dict; ids are ``"<thread>.<index>"``."""
        out = []
        for t, (names, starts, ends, parents, tags, _) in enumerate(
                list(self._threads)):
            for i in range(len(starts)):  # starts is appended last
                if ends[i] == 0.0:
                    continue  # still open (a dump taken mid-call)
                out.append({"id": f"{t}.{i}", "name": names[i],
                            "start": starts[i], "end": ends[i],
                            "parent": (f"{t}.{parents[i]}"
                                       if parents[i] >= 0 else None),
                            "tag": tags[i]})
        return out

    def dump(self, path: str) -> None:
        """Write spans + counters atomically (rename), after timing."""
        doc = {"spans": self.spans(), "counts": self.counts,
               "minima": self.minima, "unresolved": self.unresolved}
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def resolve(target: str):
    """``(owner, attribute name, value)`` for ``"module:a.b"`` or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name (duration minus direct children)."""
    child_cover: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_cover[s["parent"]] = (child_cover.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_cover.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


# ----------------------------------------------------------------------
# hook tables: span name -> where the callable lives today
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    name: str
    target: str
    #: Underscore-private targets may vanish in any refactor; the smoke
    #: test only requires the public ones to resolve.
    private: bool = False
    #: ``tag(args, kwargs)`` -> the job identity carried by the call.
    tag: Callable | None = None
    #: ``after(tracer, result, args)`` records a count at the boundary.
    after: Callable | None = None


_KERNEL = "repro.kernels.engine.simt:LocalAssemblyKernel"

ENGINE_HOOKS = (
    Hook("murmur.stream", "repro.kernels.engine.prepare:murmur2_stream"),
    Hook("murmur.batch", "repro.kernels.engine.walk:murmur2_batch"),
    Hook("kmer.rolling_fp", "repro.kernels.engine.prepare:rolling_fingerprints"),
    Hook("vectortable.alloc", "repro.kernels.vectortable:WarpHashTables.__init__",
         after=lambda tracer, _r, a: tracer.count("vectortable.total_slots",
                                                  a[0].total_slots)),
    Hook("vectortable.claim", "repro.kernels.vectortable:WarpHashTables.claim"),
    Hook("vectortable.vote", "repro.kernels.vectortable:WarpHashTables.vote"),
    Hook("events.subscribers", "repro.kernels.engine.events:EventBus.emit"),
    Hook("simt.scatter", f"{_KERNEL}.run"),
    Hook("schedule.merge", f"{_KERNEL}.run_schedule"),
    Hook("schedule.merge", "repro.kernels.engine.simt:iterate_k_schedule"),
    Hook("schedule.plan", "repro.kernels.engine.schedule:BinnedLaunchPolicy.plan"),
    Hook("datasets.generate", "repro.analysis.experiments:generate_paper_dataset"),
    Hook("perfmodel.predict", "repro.analysis.experiments:extrapolate_profile"),
)

#: The engine's public phase factories: attribute -> {method: (span name,
#: after)}. Each is replaced by a subclass whose methods are timed.
PHASE_FACTORIES = {
    f"{_KERNEL}.preparer_cls": {"flatten": ("prepare.flatten", None),
                                "finish": ("prepare.finish", None)},
    f"{_KERNEL}.construct_cls": {"run": (
        "construct.run",
        lambda tracer, r, _a: tracer.count("construct.waves", r.waves))},
    f"{_KERNEL}.walk_cls": {"run": (
        "walk.run",
        lambda tracer, r, _a: (tracer.count("walk.steps", r.steps),
                               tracer.count("walk.iterations", r.iterations)))},
}

#: Span names whose summed self time is reported as ``<name>_s``.
ENGINE_SPANS = tuple(dict.fromkeys(
    [span for methods in PHASE_FACTORIES.values()
     for span, _ in methods.values()] + [h.name for h in ENGINE_HOOKS]))

#: Counts taken at the same boundaries (``Tracer.counts``).
ENGINE_COUNTS = ("construct.waves", "walk.steps", "walk.iterations",
                 "vectortable.total_slots")

SERVE_HOOKS = (
    Hook("protocol.parse", "repro.serve.service:parse_job_request",
         tag=lambda a, kw: kw.get("job_id", a[1] if len(a) > 1 else None)),
    Hook("io.loads_dat", "repro.serve.protocol:loads_dat"),
    Hook("protocol.encode", "repro.serve.worker:result_to_payload"),
    Hook("journal.append", "repro.serve.journal:JobJournal.append",
         tag=lambda a, kw: [a[1] if len(a) > 1 else kw.get("op"),
                            kw.get("job_id") or kw.get("job_ids")]),
    Hook("journal.replay", "repro.serve.journal:JobJournal.replay"),
    # checkpoints are named "job-<fingerprint>"
    Hook("checkpoint.save", "repro.resilience.checkpoint:CheckpointStore.save",
         tag=lambda a, kw: a[1]),
    Hook("checkpoint.load", "repro.resilience.checkpoint:CheckpointStore.load_named",
         tag=lambda a, kw: a[1]),
    Hook("batcher.submit", "repro.serve.batcher:CoalescingBatcher.submit",
         tag=lambda a, kw: [a[1].job_id, a[1].fingerprint]),
    Hook("supervisor.run", "repro.serve.supervisor:WaveSupervisor.run",
         tag=lambda a, kw: [j.job_id for j in a[2]]),
    Hook("worker.run_wave", "repro.serve.service:run_wave",
         tag=lambda a, kw: [j["job_id"] for j in a[0]["jobs"]]),
    Hook("coalesce.run", "repro.serve.worker:run_schedule_coalesced"),
    Hook("coalesce.fused", "repro.kernels.engine.coalesce:_run_fused_group",
         private=True),
    Hook("coalesce.replay", "repro.kernels.engine.coalesce:_replay_job_k",
         private=True),
    Hook("shed.window_scale", "repro.serve.supervisor:LoadShedder.window_scale",
         after=lambda tracer, r, _a: tracer.note_min("shed.min_window_scale", r)),
)


def install(tracer: Tracer, *, serve: bool) -> None:
    """Install the engine hooks (and the serve hooks when ``serve``)."""
    bind = lambda after: after and functools.partial(after, tracer)
    for h in ENGINE_HOOKS + (SERVE_HOOKS if serve else ()):
        tracer.hook(h.name, h.target, h.tag, bind(h.after))
    for target, methods in PHASE_FACTORIES.items():
        tracer.subclass(target, lambda base, methods=methods: type(
            f"Traced{base.__name__}", (base,),
            {method: tracer.wrap(span, getattr(base, method), None, bind(after))
             for method, (span, after) in methods.items()}))
