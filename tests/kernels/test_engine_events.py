"""The instrumentation-hook layer: event bus, subscribers, extensibility."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import BACKENDS, CudaLocalAssemblyKernel
from repro.kernels.engine import (
    CountRecorder,
    EventBus,
    LaunchDone,
    LaunchStarted,
    MemoryTrafficResolved,
    ProbeIteration,
    SlotAccess,
    TraceReplaySubscriber,
    TraceSubscriber,
    WalkStep,
    WaveExecuted,
    run_schedule_coalesced,
)
from repro.kernels.vectortable import SLOT_BYTES
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sanitize import Sanitizer
from repro.simt.device import A100

SPEC = ScenarioSpec(contig_length=200, flank_length=60, read_length=90,
                    depth=8, seed_window=50)


def _contigs(n=4, seed=3):
    rng = np.random.default_rng(seed)
    return [sc.contig for sc in simulate_batch(n, SPEC, rng, PERFECT_READS)]


class _Recorder:
    """A minimal external subscriber: records every event it sees."""

    def __init__(self):
        self.events = []

    def handle(self, event, bus):
        self.events.append(event)

    def of(self, cls):
        return [e for e in self.events if isinstance(e, cls)]


class TestEventBus:
    def test_subscribe_returns_the_subscriber(self):
        bus = EventBus()
        rec = _Recorder()
        assert bus.subscribe(rec) is rec

    def test_dispatch_order_is_subscription_order(self):
        bus = EventBus()
        seen = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def handle(self, event, bus):
                seen.append(self.tag)

        bus.subscribe(Tagged("a"))
        bus.subscribe(Tagged("b"))
        bus.emit(object())
        assert seen == ["a", "b"]

    def test_subscriber_may_emit_followup_events(self):
        bus = EventBus()
        rec = _Recorder()

        class Reemitter:
            def handle(self, event, bus):
                if isinstance(event, LaunchDone):
                    bus.emit("followup")

        bus.subscribe(Reemitter())
        bus.subscribe(rec)
        done = LaunchDone(waves=1, construct_iterations=1,
                          walk_steps=1, walk_iterations=1)
        bus.emit(done)
        # nested emits dispatch synchronously: subscribers registered
        # *after* the re-emitter see the follow-up first
        assert rec.events == ["followup", done]


class TestKernelEventStream:
    """The stream a real kernel run emits is internally consistent."""

    @pytest.fixture(scope="class")
    def stream(self):
        kern = CudaLocalAssemblyKernel(A100)
        rec = kern.add_subscriber(_Recorder())
        res = kern.run(_contigs(), 21)
        return rec, res

    def test_launch_bracketing(self, stream):
        rec, res = stream
        starts = rec.of(LaunchStarted)
        dones = rec.of(LaunchDone)
        assert len(starts) == len(dones) > 0
        assert res.profile.kernels_launched == len(dones)

    def test_wave_lanes_sum_to_inserts(self, stream):
        rec, res = stream
        assert sum(e.lanes for e in rec.of(WaveExecuted)) == res.profile.inserts

    def test_probe_iterations_split_by_phase(self, stream):
        rec, res = stream
        probes = rec.of(ProbeIteration)
        construct = sum(e.lanes for e in probes if e.phase == "construct")
        walk = sum(e.lanes for e in probes if e.phase == "walk")
        assert construct == res.profile.insert_probe_iterations
        assert walk == res.profile.lookup_probe_iterations

    def test_walk_steps_commit_the_extension_bases(self, stream):
        rec, res = stream
        committed = sum(e.bases_committed for e in rec.of(WalkStep))
        assert committed == res.profile.extension_bases

    def test_traffic_resolution_follows_every_launch(self, stream):
        rec, res = stream
        resolved = rec.of(MemoryTrafficResolved)
        assert len(resolved) == len(rec.of(LaunchDone))
        assert sum(e.hbm_bytes for e in resolved) == pytest.approx(
            res.profile.hbm_bytes)

    def test_slot_accesses_match_the_recorded_trace(self, stream):
        rec, _res = stream
        kern = CudaLocalAssemblyKernel(A100)
        kern.record_trace = True
        traces = kern.run(_contigs(), 21).trace
        total_slots = sum(e.slots.size for e in rec.of(SlotAccess))
        total_trace = sum(t.size for t in traces)
        assert total_slots == total_trace
        assert all((t % SLOT_BYTES == 0).all() for t in traces)


class TestSubscriberIsolation:
    def test_extra_subscriber_does_not_change_results(self):
        contigs = _contigs(seed=9)
        plain = CudaLocalAssemblyKernel(A100).run(contigs, 21)
        observed_kern = CudaLocalAssemblyKernel(A100)
        observed_kern.add_subscriber(_Recorder())
        observed = observed_kern.run(contigs, 21)
        assert tuple(observed.right) == tuple(plain.right)
        assert tuple(observed.left) == tuple(plain.left)
        assert observed.profile.intops == plain.profile.intops
        assert observed.profile.hbm_bytes == plain.profile.hbm_bytes

    def test_events_are_immutable(self):
        e = WaveExecuted(lanes=3, warps=1)
        with pytest.raises(AttributeError):
            e.lanes = 4


COUNT_EVENTS = (WaveExecuted, ProbeIteration, WalkStep, LaunchDone,
                MemoryTrafficResolved)


class _CountRecorder(_Recorder):
    """Asks for the count events only, so its kernel still fuses."""

    handled_events = COUNT_EVENTS


class TestCountEventsOnDemand:
    """Count events are rendered from each launch's tally, and only for a
    subscriber that asks: the default path builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = dict.fromkeys(COUNT_EVENTS, 0)
        for cls in COUNT_EVENTS:
            def counted(self, *args, __init=cls.__init__, __cls=cls, **kw):
                counts[__cls] += 1
                __init(self, *args, **kw)
            monkeypatch.setattr(cls, "__init__", counted)
        return counts

    def test_default_paths_build_no_count_event(self, built):
        contigs = _contigs(n=6, seed=4)
        kern = CudaLocalAssemblyKernel(A100)
        res = kern.run_schedule(contigs, (21, 33, 55))
        waves = run_schedule_coalesced(
            kern, [contigs[:2], contigs[2:4], contigs[4:]], (21, 33))
        assert res.profile.kernels_launched > 0
        assert all(w.result.profile.intops > 0 for w in waves)
        assert built == dict.fromkeys(COUNT_EVENTS, 0)

    def test_a_subscriber_that_asks_gets_them(self, built):
        kern = CudaLocalAssemblyKernel(A100)
        rec = kern.add_subscriber(_CountRecorder())
        res = kern.run_schedule(_contigs(n=6, seed=4), (21, 33))
        assert built[LaunchDone] == res.profile.kernels_launched
        assert built[MemoryTrafficResolved] == built[LaunchDone]
        assert all(built.values())
        assert sum(built.values()) == sum(
            isinstance(e, COUNT_EVENTS) for e in rec.events)


def _declaring_subscribers() -> set:
    """Every class of ``repro`` with a ``handled_events`` tuple, found by
    importing every module."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":   # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and isinstance(obj.__dict__.get("handled_events"),
                                   tuple)):
                found.add(obj)
    return found


def _declared_events() -> set:
    """Every event class some subscriber class of ``repro`` declares."""
    return {event for cls in _declaring_subscribers()
            for event in cls.handled_events}


#: Each declaring subscriber of ``repro``, built for a device.
SUBSCRIBERS = {
    CountRecorder: lambda device: CountRecorder(),
    TraceSubscriber: lambda device: TraceSubscriber(),
    TraceReplaySubscriber: TraceReplaySubscriber,
    Sanitizer: lambda device: Sanitizer(),
}


def _state(obj):
    """``obj``'s attributes, recursively, as values ``==`` can compare
    (arrays by dtype, shape and bytes)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, dict):
        return tuple((key, _state(value)) for key, value in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(map(_state, obj))
    if dataclasses.is_dataclass(obj):
        return type(obj), _state({f.name: getattr(obj, f.name)
                                  for f in dataclasses.fields(obj)})
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return type(obj), _state(vars(obj))
    return obj


class TestEventContract:
    """What the ports emit is what ``repro``'s subscribers declare: an
    emitted type nobody declares is never delivered to a declaring
    subscriber, and a declared type nothing emits is dead wiring."""

    def test_emitted_types_equal_the_declared_ones(self):
        def starved():
            return FaultInjector(FaultPlan(faults=(FaultSpec(
                FaultKind.TABLE_PRESSURE, launch=0, warps=(0,),
                capacity=4),)))

        everything = _Recorder()   # declares nothing: gets every type
        emitted = set()
        runs = [(cls, device, {}) for cls, device in BACKENDS.values()
                if device is not None]
        runs += [(CudaLocalAssemblyKernel, A100, opts) for opts in (
            {"sanitize": "all"}, {"memory_model": "trace"},
            {"overflow_policy": "drop-contig", "fault_injector": starved()},
            {"overflow_policy": "grow-retry", "fault_injector": starved()})]
        contigs = _contigs(n=3, seed=5)
        for cls, device, opts in runs:
            kern = cls(device, **opts)
            kern.add_subscriber(everything)
            kern.run_schedule(contigs, (21, 33))
            emitted.update(map(type, everything.events))
            everything.events.clear()
        assert emitted == _declared_events()

    def test_a_subscriber_keeps_what_it_declares_whoever_listens(self):
        # the bus hands every built event to every subscriber, so one
        # that reacts to a type it did not declare sees it only when
        # someone else asks for it: its state then depends on who listens
        assert set(SUBSCRIBERS) == _declaring_subscribers()
        contigs = _contigs(n=3, seed=5)
        for cls, device in BACKENDS.values():
            if device is None:
                continue
            for make in SUBSCRIBERS.values():
                states = []
                for beside_a_catch_all in (False, True):
                    kern = cls(device)
                    sub = kern.add_subscriber(make(device))
                    if beside_a_catch_all:
                        kern.add_subscriber(_Recorder())
                    kern.run_schedule(contigs, (21, 33))
                    states.append(_state(sub))
                alone, observed = states
                assert alone == observed, (cls.__name__, type(sub).__name__)
