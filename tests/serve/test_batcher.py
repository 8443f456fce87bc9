"""Coalescing batcher and admission-control unit tests (no HTTP)."""

import asyncio

import pytest

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


class TestWindow:
    def test_burst_within_window_fuses_into_one_wave(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane, window_s=0.02)
            for i in range(5):
                await batcher.submit(spec(f"j{i}"))
            assert lane.waves == []  # window still open
            assert batcher.stats()["pending_jobs"] == 5
            await asyncio.sleep(0.08)
            return lane.waves, batcher.stats()

        waves, stats = run(scenario())
        assert waves == [(JobOptions().coalescing_key,
                          ["j0", "j1", "j2", "j3", "j4"])]
        assert stats["waves"] == 1
        assert stats["jobs_waved"] == 5
        assert stats["biggest_wave"] == 5
        assert stats["pending_buckets"] == 0
        assert stats["pending_jobs"] == 0

    def test_idle_lane_launches_a_lone_job_at_the_window(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0.05)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await batcher.submit(spec("lone"))
            while not lane.waves and loop.time() - t0 < 2.0:
                await asyncio.sleep(0.005)
            return lane.jobs(), loop.time() - t0

        jobs, waited = run(scenario())
        assert jobs == [["lone"]]
        assert 0.05 <= waited < 1.0  # one window, not a lane's worth

    def test_zero_window_launches_each_job_solo(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane, window_s=0)
            for i in range(3):
                await batcher.submit(spec(f"j{i}"))
            return lane.jobs()

        assert run(scenario()) == [["j0"], ["j1"], ["j2"]]

    def test_zero_window_stays_solo_behind_a_busy_lane(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0)
            for i in range(3):
                await batcher.submit(spec(f"j{i}"))
            assert lane.jobs() == [["j0"]]
            assert batcher.stats()["ready_waves"] == 2
            batcher.release_lane()
            batcher.release_lane()
            return lane.jobs()

        assert run(scenario()) == [["j0"], ["j1"], ["j2"]]

    def test_jobs_arriving_after_expiry_start_a_new_wave(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane, window_s=0.01)
            await batcher.submit(spec("early"))
            await asyncio.sleep(0.06)
            await batcher.submit(spec("late"))
            await asyncio.sleep(0.06)
            return lane.jobs()

        assert run(scenario()) == [["early"], ["late"]]

    def test_fully_shed_window_still_fuses_behind_a_busy_lane(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=30.0, window_scale=lambda: 0.0)
            await batcher.submit(spec("first"))
            await asyncio.sleep(0.02)      # ripens at once, takes the lane
            assert lane.jobs() == [["first"]]
            for i in range(4):
                await batcher.submit(spec(f"j{i}"))
                await asyncio.sleep(0.005)
            assert lane.jobs() == [["first"]]
            batcher.release_lane()
            return lane.jobs()

        assert run(scenario()) == [["first"], ["j0", "j1", "j2", "j3"]]


class TestBusyLane:
    def test_later_jobs_join_the_ripe_bucket_until_the_lane_frees(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0.01)
            await batcher.submit(spec("first"))
            await asyncio.sleep(0.04)
            assert lane.jobs() == [["first"]]      # holds the only lane
            await batcher.submit(spec("j0"))
            await asyncio.sleep(0.04)              # j0's window is long over
            await batcher.submit(spec("j1"))
            await batcher.submit(spec("j2"))
            stats = batcher.stats()
            assert lane.jobs() == [["first"]]
            assert (stats["pending_buckets"], stats["pending_jobs"],
                    stats["ready_waves"], stats["lanes_busy"]) == (1, 3, 1, 1)
            batcher.release_lane()
            return lane.jobs(), batcher.stats()

        jobs, stats = run(scenario())
        assert jobs == [["first"], ["j0", "j1", "j2"]]
        assert stats["lanes_busy"] == 1 and stats["pending_jobs"] == 0

    def test_submit_returns_without_awaiting_the_lane(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0.0)
            for i in range(4):  # would hang here if submit awaited a lane
                await asyncio.wait_for(batcher.submit(spec(f"j{i}")), 1.0)
            return lane.jobs(), batcher.stats()["ready_waves"]

        assert run(scenario()) == ([["j0"]], 3)

    def test_each_lane_carries_one_wave(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0.0, lanes=2)
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
            batcher = make(lane, window_s=30.0)
            await batcher.submit(spec("first"))
            await batcher.flush_all()              # idle lane: at once
            await batcher.submit(spec("a"))
            await batcher.submit(spec("b", device="MI250X"))
            flush = asyncio.get_running_loop().create_task(
                batcher.flush_all())
            await asyncio.sleep(0.02)
            assert not flush.done() and lane.jobs() == [["first"]]
            batcher.release_lane()                 # "a" starts, "b" waits
            await asyncio.sleep(0.02)
            assert not flush.done()
            batcher.release_lane()
            await asyncio.wait_for(flush, 1.0)
            return lane.jobs(), batcher.stats()["pending_buckets"]

        assert run(scenario()) == ([["first"], ["a"], ["b"]], 0)


class TestHighWater:
    def test_high_water_flushes_before_the_window(self):
        async def scenario():
            lane = FakeLane()
            # 2 warps per contig -> 4 warps per job; mark at 8 warps
            batcher = make(lane, window_s=30.0, max_wave_warps=8)
            await batcher.submit(spec("j0"))
            assert lane.waves == []
            await batcher.submit(spec("j1"))  # 8 warps: launch now
            await batcher.submit(spec("j2"))
            await batcher.flush_all()
            return lane.jobs()

        assert run(scenario()) == [["j0", "j1"], ["j2"]]

    def test_high_water_seals_a_waiting_bucket_and_opens_a_new_one(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0.01, max_wave_warps=8)
            await batcher.submit(spec("first"))
            await asyncio.sleep(0.04)              # takes the lane
            for i in range(5):                     # 2 + 2 sealed, 1 open
                await batcher.submit(spec(f"j{i}"))
            stats = batcher.stats()
            assert (stats["pending_buckets"], stats["pending_jobs"],
                    stats["ready_waves"]) == (3, 5, 2)
            await asyncio.sleep(0.04)              # the open one ripens
            assert batcher.stats()["ready_waves"] == 3
            for _ in range(3):
                batcher.release_lane()
            return lane.jobs()

        # launch order is the order the buckets became ready
        assert run(scenario()) == [["first"], ["j0", "j1"], ["j2", "j3"],
                                   ["j4"]]

    def test_flush_all_drains_armed_buckets(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane, window_s=30.0)
            await batcher.submit(spec("j0"))
            await batcher.submit(spec("j1", device="MI250X"))
            await batcher.flush_all()
            assert batcher.stats()["pending_buckets"] == 0
            return lane.jobs()

        assert sorted(run(scenario())) == [["j0"], ["j1"]]


class TestCoalescingKeys:
    def test_different_configurations_never_share_a_wave(self):
        async def scenario():
            lane = FakeLane()
            batcher = make(lane, window_s=0.02)
            await batcher.submit(spec("a1"))
            await batcher.submit(spec("b1", device="MI250X"))
            await batcher.submit(spec("a2"))
            await batcher.submit(spec("c1", k_schedule=(21,)))
            await asyncio.sleep(0.08)
            return lane.waves

        waves = run(scenario())
        assert sorted(jobs for _, jobs in waves) == [
            ["a1", "a2"], ["b1"], ["c1"]]
        keys = [key for key, _ in waves]
        assert len(set(keys)) == 3

    def test_keys_behind_a_busy_lane_start_in_ripeness_order(self):
        async def scenario():
            lane = FakeLane(hold=True)
            batcher = make(lane, window_s=0.01)
            await batcher.submit(spec("first"))
            await asyncio.sleep(0.04)
            await batcher.submit(spec("b1", device="MI250X"))
            await asyncio.sleep(0.04)              # b ripens first
            await batcher.submit(spec("a1"))
            await asyncio.sleep(0.04)
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
        with pytest.raises(ReproError, match="window_s"):
            CoalescingBatcher(lane, window_s=-1)
        with pytest.raises(ReproError, match="max_wave_warps"):
            CoalescingBatcher(lane, max_wave_warps=0)
        with pytest.raises(ReproError, match="lanes"):
            CoalescingBatcher(lane, lanes=0)


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
