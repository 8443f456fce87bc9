"""A lookup's probe rounds are its slot geometry.

The walk counts its lookups in closed form (DESIGN.md decision 36):
linear probing never deletes, so a key found at slot ``s`` of a table of
``cap`` slots took ``(s - home) mod cap + 1`` rounds, every one on an
occupied slot; an absent key takes the distance to the next empty slot
plus one, and wraps the table when no slot is empty. Here the real probe
loop (:meth:`WalkPhase._lookup`) is held to that on random tables, full
ones included; the rounds construct indexes every row by
(:meth:`WarpHashTables.vote`) to the loop; and a walk counted from them
to one that probes every lookup.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY, WalkState
from repro.datasets.generate import generate_paper_dataset
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    SyclLocalAssemblyKernel,
)
from repro.kernels.engine import ConstructPhase, EventBus, WalkPhase, run_ports
from repro.kernels.vectortable import FAR_PROBES, WarpHashTables
from repro.simt.device import A100, MAX1550, MI250X
from tests.kernels.test_walk_follow import _contigs, _exact_fit
from tests.kernels.test_walk_pinned import starved_tables


def _lookup(tables, warps, homes, fps):
    return WalkPhase()._lookup(np.asarray(warps, dtype=np.int64),
                               np.asarray(homes, dtype=np.uint32),
                               np.asarray(fps, dtype=np.uint64), tables)


@settings(max_examples=40, deadline=None)
@given(caps=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       fill=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
       seed=st.integers(0, 2**16))
def test_lookup_rounds_are_slot_distances(caps, fill, seed):
    rng = np.random.default_rng(seed)
    keys = (rng.choice(2**40, size=2 * sum(caps), replace=False)
            + 1).astype(np.uint64)
    tables = WarpHashTables(np.array(caps), 21)
    tables.keys = keys          # what the claims below index
    fps = iter(enumerate(keys.tolist()))
    present = []        # (warp, home, fp, slot)
    for w, cap in enumerate(caps):
        for _ in range(round(fill * cap)):
            (i, fp), home, probe = next(fps), int(rng.integers(2**32)), 0
            while tables.occupied[tables.offsets[w] + (home + probe) % cap]:
                probe += 1
            slot = tables.offsets[w] + (home + probe) % cap
            tables.claim(np.array([slot]), np.array([i]))
            present.append((w, home, fp, slot))
    if present:
        w, home, fp, slot = map(np.array, zip(*present))
        found, missing, rounds, ended = _lookup(tables, w, home, fp)
        cap = tables.capacities[w]
        assert (found == slot).all() and not missing.any()
        assert (rounds == (slot - tables.offsets[w] - home) % cap + 1).all()
        assert not ended.any()
    for w, cap in enumerate(caps):
        home = int(rng.integers(2**32))
        found, missing, rounds, ended = _lookup(tables, [w], [home],
                                                [next(fps)[1]])
        assert found[0] == -1 and missing[0]
        lo = tables.offsets[w]
        empty = np.flatnonzero(~tables.occupied[lo:lo + cap])
        if empty.size:
            assert ended[0]
            assert rounds[0] == ((empty - home) % cap).min() + 1
        else:   # a full table: the lookup wraps it
            assert not ended[0] and rounds[0] == cap


@pytest.mark.parametrize("full", [False, True])
def test_construct_indexes_every_row_by_its_lookup_rounds(full):
    """Every key construct stores, in tables sized as planned and in
    tables exactly as large as their keys: its row's ``probes`` are the
    rounds its lookup takes (at least :data:`FAR_PROBES` where they say
    so), and ``first`` the key's first insertion in its warp — which
    claims its slot on every port, so the ports agree on it."""
    kern = CudaLocalAssemblyKernel(A100)
    contigs = generate_paper_dataset(33, scale=0.005, seed=4)
    plan = kern.launch_policy.plan(contigs, 33, kern.launch_config())[0]
    batch = kern.preparer.prepare(contigs, plan.bin, plan.end, 33)
    if full:
        batch.capacities = _exact_fit(batch)
    tables = WarpHashTables(batch.capacities, 33)
    construct = ConstructPhase(kern.protocol, kern.warp_size)
    construct.record_claims = True
    construct.run(batch, tables, EventBus())
    slots = np.flatnonzero(tables.occupied)
    rows = tables.row[slots]
    ins = tables.first[rows - 1]
    _, firsts = np.unique(np.stack([batch.ins_warp.astype(np.uint64),
                                    batch.ins_fp]), axis=1, return_index=True)
    assert sorted(ins.tolist()) == sorted(firsts.tolist())
    assert (batch.ins_fp[ins] == tables.tag[rows]).all()
    found, _, rounds, _ = _lookup(tables, batch.ins_warp[ins],
                                  batch.ins_home[ins], batch.ins_fp[ins])
    assert (found == slots).all()
    assert (np.minimum(rounds, FAR_PROBES) == tables.probes[rows - 1]).all()
    assert tables.occupancy() == 1.0 or not full


def _probes_are_lookup_rounds(tables, ins_warp, ins_home, ins_fp) -> int:
    """Hold every stored key's row ``probes`` to the rounds the walk's
    probe loop takes to find it (at most :data:`FAR_PROBES`); every
    insertion of a key in a warp has the key's home. Returns how many
    keys sit past their home."""
    slots = np.flatnonzero(tables.occupied)
    rows = tables.row[slots]
    warps = np.searchsorted(tables.offsets, slots, side="right") - 1
    home = dict(zip(zip(ins_warp.tolist(), ins_fp.tolist()),
                    ins_home.tolist()))
    homes = [home[key] for key in zip(warps.tolist(),
                                      tables.tag[rows].tolist())]
    found, _, rounds, _ = _lookup(tables, warps, homes, tables.tag[rows])
    assert (found == slots).all()
    assert (np.minimum(rounds, FAR_PROBES) == tables.probes[rows - 1]).all()
    return int((rounds > 1).sum())


def _checked(seen: list):
    """A construct phase that, after each launch it runs, holds its keys'
    probe rounds to their lookups' and logs ``(keys past home, lanes that
    lost a claim, overflowed warps, whether it drew read links)`` onto
    ``seen``."""
    class Checked(ConstructPhase):
        lost = 0

        def _claim(self, tables, slots, *args):
            winners = super()._claim(tables, slots, *args)
            self.lost += int(slots.size - winners.sum())
            return winners

        def run(self, batch, tables, bus):
            ins = (batch.ins_warp.copy(), batch.ins_home.copy(),
                   batch.ins_fp.copy())     # ``frees_keys`` drops them
            self.lost = 0
            result = super().run(batch, tables, bus)
            seen.append((_probes_are_lookup_rounds(tables, *ins), self.lost,
                         result.overflowed, self.links))
            return result
    return Checked


PORTS = [(CudaLocalAssemblyKernel, A100), (HipLocalAssemblyKernel, MI250X),
         (SyclLocalAssemblyKernel, MAX1550)]


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("port", PORTS, ids=["cuda", "hip", "sycl"])
def test_probes_are_lookup_rounds_on_every_protocol(port, full):
    """CUDA's losers merge in their round, HIP's and SYCL's retry at the
    same probe: on each, in tables sized as planned and in full ones,
    every key's ``probes`` are its lookup's rounds — and lanes did lose
    claims, and keys do sit past their home."""
    cls, device = port
    kern = cls(device)
    seen: list = []
    construct = _checked(seen)(kern.protocol, kern.warp_size)
    contigs = generate_paper_dataset(33, scale=0.005, seed=4)
    for plan in kern.launch_policy.plan(contigs, 33, kern.launch_config()):
        batch = kern.preparer.prepare(contigs, plan.bin, plan.end, 33)
        if full:
            batch.capacities = _exact_fit(batch)
        construct.run(batch, WarpHashTables(batch.capacities, 33),
                      EventBus())
    far, lost, overflowed, _ = zip(*seen)
    assert sum(far) > 0 and sum(lost) > 0 and not any(overflowed)


def test_probes_are_lookup_rounds_in_an_overflowed_warp():
    """Warp 0's table holds fewer slots than its keys: it overflows and
    retires, and the keys it did store, like every other warp's, still
    read their lookups' rounds."""
    kern = CudaLocalAssemblyKernel(A100)
    contigs = generate_paper_dataset(33, scale=0.005, seed=4)
    plan = kern.launch_policy.plan(contigs, 33, kern.launch_config())[0]
    batch = kern.preparer.prepare(contigs, plan.bin, plan.end, 33)
    batch.capacities = _exact_fit(batch)
    batch.capacities[0] -= 1
    seen: list = []
    _checked(seen)(kern.protocol, kern.warp_size).run(
        batch, WarpHashTables(batch.capacities, 33), EventBus())
    [(far, _, overflowed, _)] = seen
    assert overflowed == (0,) and far > 0


def test_probes_are_lookup_rounds_through_a_grow_retry():
    """A starved launch overflows and is launched again with grown
    tables: both launches' keys read their lookups' rounds."""
    kern = CudaLocalAssemblyKernel(A100, overflow_policy="grow-retry",
                                   fault_injector=starved_tables())
    seen: list = []
    kern.construct_cls = _checked(seen)
    kern.run(generate_paper_dataset(33, scale=0.005, seed=4), 33)
    overflowed = [o for _, _, o, _ in seen if o]
    assert overflowed and len(seen) > len(overflowed)


def test_probes_are_lookup_rounds_on_a_follower():
    """Three ports, the lead walking and two following its tape: each
    follower constructs its own tables (drawing no read links), and their
    keys read their lookups' rounds too."""
    kernels = [cls(device, policy=PRODUCTION_POLICY)
               for cls, device in PORTS]
    seen = [[] for _ in kernels]
    for kern, log in zip(kernels, seen):
        kern.construct_cls = _checked(log)
    run_ports(kernels, generate_paper_dataset(33, scale=0.01, seed=5), 33)
    assert all(sum(far for far, *_ in log) > 0 for log in seen)
    assert [{links for *_, links in log} for log in seen] \
        == [{True}, {False}, {False}]


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("kind, seed", [("plain", 3), ("tandem", 5)])
def test_counts_from_geometry_equal_the_probe_loop(kind, seed, full):
    """A walk counted from the rows' probe rounds writes the tally rows,
    iterations and overflows a walk that probes every lookup for real
    writes — in tables exactly as large as their keys too, where
    lookups wrap and rows hold more rounds than they keep
    (:data:`~repro.kernels.vectortable.FAR_PROBES`)."""
    kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
    contigs = _contigs(kind, 12, 0.03, seed)
    far = wrapped = 0
    for plan in kern.launch_policy.plan(contigs, 21, kern.launch_config()):
        batch = kern.preparer.prepare(contigs, plan.bin, plan.end, 21)
        if full:
            batch.capacities = _exact_fit(batch)
        tables = WarpHashTables(batch.capacities, 21)
        ConstructPhase(kern.protocol, kern.warp_size).run(batch, tables,
                                                          EventBus())
        far += int((tables.probes == FAR_PROBES).sum())
        walker = WalkPhase(PRODUCTION_POLICY)
        closed = walker.run(batch, tables, EventBus())
        tables.probes = None        # every lookup probes for real
        probed = walker.run(batch, tables, EventBus())
        assert closed.rows.tolist() == probed.rows.tolist()
        assert (closed.iterations, closed.overflowed, closed.steps) \
            == (probed.iterations, probed.overflowed, probed.steps)
        wrapped += len(closed.overflowed)
    assert (far > 0 and wrapped > 0) == full


def test_only_discovery_and_missing_keys_probe():
    """On the paper's path — three ports, the lead walking and the other
    two following it — the probe loop runs for discovery's seeds and
    departures (the lead only) and, per port, for the keys its walks
    missed: a walk that ends ``END`` or ``MISSING`` missed its last."""
    discovered, probed = [], []

    class Counted(WalkPhase):
        def _arrive(self, look, walk, tables):
            discovered.append(look.size)
            return super()._arrive(look, walk, tables)

        def _probe(self, batch, out, lanes, *args):
            probed.append(lanes.size)
            return super()._probe(batch, out, lanes, *args)

    kernels = [cls(device, policy=PRODUCTION_POLICY) for cls, device in PORTS]
    for kern in kernels:
        kern.walk_cls = Counted
    contigs = generate_paper_dataset(33, scale=0.02, seed=5)
    results = run_ports(kernels, contigs, 33)
    lookups = sum(r.profile.lookups for r in results)
    missed = sum(state in (WalkState.END, WalkState.MISSING)
                 for r in results for _, state in r.right + r.left)
    assert 0 < sum(discovered) < lookups / 20
    assert sum(probed) == missed
