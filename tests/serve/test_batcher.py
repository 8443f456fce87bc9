"""Coalescing batcher and admission-control unit tests (no HTTP)."""

import asyncio
from dataclasses import dataclass, field

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import ReproError
from repro.serve.batcher import CoalescingBatcher
from repro.serve.protocol import JobOptions, JobSpec
from repro.serve.queue import AdmissionControl


def spec(job_id: str, n_contigs: int = 2, **options) -> JobSpec:
    return JobSpec(job_id=job_id, dat="unused", n_contigs=n_contigs,
                   options=JobOptions(**options), fingerprint=job_id)


class FakeLane:
    """The dispatch callback of a test: records each wave and, like the
    service, holds its lane until told otherwise. ``hold=False`` hands
    the lane straight back, i.e. the lanes are always idle."""

    def __init__(self, hold: bool = False) -> None:
        self.hold = hold
        self.batcher: CoalescingBatcher | None = None
        self.waves: list[tuple[tuple, list[str]]] = []

    def __call__(self, key: tuple, jobs: list[JobSpec]) -> None:
        self.waves.append((key, [s.job_id for s in jobs]))
        if not self.hold:
            self.batcher.release_lane()

    def jobs(self) -> list[list[str]]:
        return [jobs for _, jobs in self.waves]


def make(lane: FakeLane, **kwargs) -> CoalescingBatcher:
    lane.batcher = CoalescingBatcher(lane, **kwargs)
    return lane.batcher


def run(coro):
    return asyncio.run(coro)


class TestIdleLane:
    def test_lone_job_on_an_idle_lane_dispatches_before_submit_returns(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane)
            await batcher.submit(spec("lone"))
            return lane.jobs(), batcher.stats()

        jobs, stats = run(scenario())
        assert jobs == [["lone"]]
        assert (stats["pending_jobs"], stats["lanes_busy"]) == (0, 1)

    def test_burst_runs_its_first_job_then_the_rest_as_one_wave(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane)
            for i in range(5):
                await batcher.submit(spec(f"j{i}"))
            assert lane.jobs() == [["j0"]]  # took the idle lane at once
            assert batcher.stats()["pending_jobs"] == 4
            batcher.release_lane()
            return lane.waves, batcher.stats()

        waves, stats = run(scenario())
        key = JobOptions().coalescing_key
        assert waves == [(key, ["j0"]), (key, ["j1", "j2", "j3", "j4"])]
        assert stats["waves"] == 2
        assert stats["jobs_waved"] == 5
        assert stats["biggest_wave"] == 4
        assert stats["pending_buckets"] == 0
        assert stats["pending_jobs"] == 0

    def test_each_job_meeting_an_idle_lane_launches_alone(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane)
            await batcher.submit(spec("early"))
            await batcher.submit(spec("late"))
            return lane.jobs()

        assert run(scenario()) == [["early"], ["late"]]


class TestBusyLane:
    def test_later_jobs_join_the_ripe_bucket_until_the_lane_frees(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane)
            await batcher.submit(spec("first"))
            assert lane.jobs() == [["first"]]      # holds the only lane
            for name in ("j0", "j1", "j2"):
                await batcher.submit(spec(name))
            stats = batcher.stats()
            assert lane.jobs() == [["first"]]
            assert (stats["pending_buckets"], stats["pending_jobs"],
                    stats["lanes_busy"]) == (1, 3, 1)
            batcher.release_lane()
            return lane.jobs(), batcher.stats()

        jobs, stats = run(scenario())
        assert jobs == [["first"], ["j0", "j1", "j2"]]
        assert stats["lanes_busy"] == 1 and stats["pending_jobs"] == 0

    def test_submit_returns_without_awaiting_the_lane(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, max_wave_warps=1)
            for i in range(4):  # would hang here if submit awaited a lane
                await asyncio.wait_for(batcher.submit(spec(f"j{i}")), 1.0)
            return lane.jobs(), batcher.stats()["pending_buckets"]

        assert run(scenario()) == ([["j0"]], 3)

    def test_each_lane_carries_one_wave(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, max_wave_warps=1, lanes=2)
            for i in range(5):
                await batcher.submit(spec(f"j{i}"))
            assert lane.jobs() == [["j0"], ["j1"]]
            assert batcher.stats()["lanes_busy"] == 2
            batcher.release_lane()
            return lane.jobs(), batcher.stats()["lanes_busy"]

        assert run(scenario()) == ([["j0"], ["j1"], ["j2"]], 2)

    def test_flush_all_with_a_busy_lane_completes_once_lanes_free(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane)
            await batcher.submit(spec("first"))
            await batcher.flush_all()              # idle lane: at once
            await batcher.submit(spec("a"))
            await batcher.submit(spec("b", device="MI250X"))
            flush = asyncio.get_running_loop().create_task(
                batcher.flush_all())
            await asyncio.sleep(0)
            assert not flush.done() and lane.jobs() == [["first"]]
            batcher.release_lane()                 # "a" starts, "b" waits
            await asyncio.sleep(0)
            assert not flush.done()
            batcher.release_lane()
            await asyncio.wait_for(flush, 1.0)
            return lane.jobs(), batcher.stats()["pending_buckets"]

        assert run(scenario()) == ([["first"], ["a"], ["b"]], 0)


class TestHighWater:
    def test_a_job_reaching_the_mark_seals_its_bucket(self):
        async def scenario():
            lane = FakeLane(hold=True)
            # 2 warps per contig -> 4 warps per job; mark at 8 warps
            batcher = make(lane, max_wave_warps=8)
            await batcher.submit(spec("first"))        # takes the lane
            await batcher.submit(spec("j0"))
            await batcher.submit(spec("big", n_contigs=5))  # 14 warps
            await batcher.submit(spec("j1"))           # opens a new bucket
            assert batcher.stats()["pending_buckets"] == 2
            for _ in range(2):
                batcher.release_lane()
            return lane.jobs()

        assert run(scenario()) == [["first"], ["j0", "big"], ["j1"]]

    def test_high_water_seals_a_waiting_bucket_and_opens_a_new_one(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, max_wave_warps=8)
            await batcher.submit(spec("first"))    # takes the lane
            for i in range(5):                     # 2 + 2 sealed, 1 open
                await batcher.submit(spec(f"j{i}"))
            stats = batcher.stats()
            assert (stats["pending_buckets"], stats["pending_jobs"]) == (3, 5)
            for _ in range(3):
                batcher.release_lane()
            return lane.jobs()

        # launch order is the order the buckets were opened
        assert run(scenario()) == [["first"], ["j0", "j1"], ["j2", "j3"],
                                   ["j4"]]

    def test_mark_of_one_stays_solo_behind_a_busy_lane(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, max_wave_warps=1)
            for i in range(3):
                await batcher.submit(spec(f"j{i}"))
            assert lane.jobs() == [["j0"]]
            assert batcher.stats()["pending_buckets"] == 2
            batcher.release_lane()
            batcher.release_lane()
            return lane.jobs()

        assert run(scenario()) == [["j0"], ["j1"], ["j2"]]

    def test_flush_all_drains_armed_buckets(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane)
            await batcher.submit(spec("j0"))
            await batcher.submit(spec("j1", device="MI250X"))
            await batcher.flush_all()
            assert batcher.stats()["pending_buckets"] == 0
            return lane.jobs()

        assert sorted(run(scenario())) == [["j0"], ["j1"]]


class TestCoalescingKeys:
    def test_different_configurations_never_share_a_wave(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane)
            await batcher.submit(spec("first"))    # holds the lane
            await batcher.submit(spec("a1"))
            await batcher.submit(spec("b1", device="MI250X"))
            await batcher.submit(spec("a2"))
            await batcher.submit(spec("c1", k_schedule=(21,)))
            for _ in range(3):
                batcher.release_lane()
            return lane.waves[1:]

        waves = run(scenario())
        assert [jobs for _, jobs in waves] == [["a1", "a2"], ["b1"], ["c1"]]
        keys = [key for key, _ in waves]
        assert len(set(keys)) == 3

    def test_keys_behind_a_busy_lane_start_in_ripeness_order(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane)
            await batcher.submit(spec("first"))
            await batcher.submit(spec("b1", device="MI250X"))  # b opens first
            await batcher.submit(spec("a1"))
            await batcher.submit(spec("b2", device="MI250X"))
            await batcher.submit(spec("a2"))
            for _ in range(2):
                batcher.release_lane()
            return lane.waves

        waves = run(scenario())
        assert [jobs for _, jobs in waves] == [
            ["first"], ["b1", "b2"], ["a1", "a2"]]
        assert waves[1][0] != waves[2][0]

    def test_validates_configuration(self):
        lane = FakeLane()
        with pytest.raises(ReproError, match="max_wave_warps"):
            CoalescingBatcher(lane, max_wave_warps=0)
        with pytest.raises(ReproError, match="lanes"):
            CoalescingBatcher(lane, lanes=0)


@dataclass
class _ModelBucket:
    key: tuple
    jobs: list[str] = field(default_factory=list)
    warps: int = 0
    open: bool = True


class BatcherMachine(RuleBasedStateMachine):
    """The batcher against a plain model: one FIFO of buckets, each
    absorbing jobs of its key until it launches or a job takes it to the
    high-water mark, and a lane count that launches the head of the FIFO
    whenever one is free."""

    @initialize(lanes=st.integers(1, 2), mark=st.sampled_from([1, 8, 4096]))
    def start(self, lanes, mark):
        self.loop = asyncio.new_event_loop()
        self.lanes, self.mark = lanes, mark
        self.waves: list[tuple[tuple, list[str]]] = []
        self.batcher = CoalescingBatcher(
            lambda key, jobs: self.waves.append(
                (key, [s.job_id for s in jobs])),
            max_wave_warps=mark, lanes=lanes)
        self.flush: asyncio.Task | None = None
        self.warps: dict[str, int] = {}
        self.queue: list[_ModelBucket] = []
        self.busy = 0
        self.model_waves: list[tuple[tuple, list[str]]] = []

    def _pump(self):
        while self.queue and self.busy < self.lanes:
            bucket = self.queue.pop(0)
            self.busy += 1
            self.model_waves.append((bucket.key, bucket.jobs))

    def _turn(self):
        for _ in range(3):  # let a woken flush_all observe the release
            self.loop.run_until_complete(asyncio.sleep(0))

    @rule(device=st.sampled_from(["A100", "MI250X"]),
          n_contigs=st.integers(1, 3))
    def submit(self, device, n_contigs):
        job = spec(f"j{len(self.warps)}", n_contigs, device=device)
        self.warps[job.job_id] = 2 * n_contigs
        key = job.options.coalescing_key
        bucket = next((b for b in self.queue if b.key == key and b.open),
                      None)
        if bucket is None:
            bucket = _ModelBucket(key)
            self.queue.append(bucket)
        bucket.jobs.append(job.job_id)
        bucket.warps += 2 * n_contigs
        bucket.open = bucket.warps < self.mark
        self._pump()
        self.loop.run_until_complete(self.batcher.submit(job))
        self._turn()

    @precondition(lambda self: self.busy > 0)
    @rule()
    def release_lane(self):
        self.busy -= 1
        self._pump()
        self.batcher.release_lane()
        self._turn()

    @precondition(lambda self: self.flush is None)
    @rule()
    def flush_all(self):
        self.flush = self.loop.create_task(self.batcher.flush_all())
        self._turn()

    @invariant()
    def matches_the_model(self):
        stats = self.batcher.stats()
        assert self.waves == self.model_waves
        assert stats["pending_jobs"] == sum(len(b.jobs) for b in self.queue)
        assert stats["lanes_busy"] == self.busy

    @invariant()
    def no_lane_is_idle_while_a_bucket_is_ready(self):
        stats = self.batcher.stats()
        assert stats["pending_jobs"] == 0 or stats["lanes_busy"] == self.lanes

    @invariant()
    def every_job_is_dispatched_at_most_once_and_none_is_lost(self):
        dispatched = [job for _, jobs in self.waves for job in jobs]
        assert len(dispatched) == len(set(dispatched))
        assert len(dispatched) + self.batcher.stats()["pending_jobs"] \
            == len(self.warps)

    @invariant()
    def buckets_start_in_the_order_they_opened(self):
        firsts = [int(jobs[0][1:]) for _, jobs in self.waves]
        assert firsts == sorted(firsts)

    @invariant()
    def only_the_last_job_takes_a_wave_past_the_mark(self):
        for _, jobs in self.waves:
            assert sum(self.warps[job] for job in jobs[:-1]) < self.mark
            if self.mark == 1:
                assert len(jobs) == 1

    @invariant()
    def flush_all_returns_once_nothing_waits(self):
        if self.flush is not None:
            assert self.flush.done() == (not self.queue)
            if self.flush.done():
                self.flush.result()
                self.flush = None

    def teardown(self):
        if not hasattr(self, "loop"):
            return
        while self.busy:
            self.release_lane()
        dispatched = sorted(job for _, jobs in self.waves for job in jobs)
        assert dispatched == sorted(self.warps)  # each exactly once
        if self.flush is not None:
            self.flush.result()  # raises unless it returned
        self.loop.close()


TestBatcherMachine = BatcherMachine.TestCase
TestBatcherMachine.settings = settings(max_examples=60,
                                       stateful_step_count=30, deadline=None)


class TestAdmissionControl:
    def test_caps_in_flight_and_counts(self):
        gate = AdmissionControl(max_in_flight=2)
        assert gate.try_admit() and gate.try_admit()
        assert not gate.try_admit()
        assert gate.stats() == {"in_flight": 2, "max_in_flight": 2,
                                "admitted": 2, "rejected": 1}
        gate.release()
        assert gate.try_admit()

    def test_release_requires_a_matching_admit(self):
        gate = AdmissionControl(max_in_flight=1)
        with pytest.raises(ReproError, match="release"):
            gate.release()

    def test_validates_budget(self):
        with pytest.raises(ReproError, match="max_in_flight"):
            AdmissionControl(max_in_flight=0)
