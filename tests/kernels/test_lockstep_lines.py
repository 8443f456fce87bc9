"""The construct and walk phases run in lockstep (DESIGN.md decision
#14): their Python loops step over waves, probe rounds and walk steps,
never over warps or lanes.

Copying a schedule's contigs 4 times gives every warp three twins that
insert, probe and walk exactly as it does, so every algorithmic loop
runs the same number of times and only the array widths grow. The
Python lines the two phase modules execute, counted with
``sys.settrace``, must then be equal: a per-warp or per-lane ``for``, a
``zip`` loop or a comprehension over an array executes 4 times as many.
``probe_rounds`` is the one exception: it steps over the slot array a
``VOTE_STRETCH`` at a time to bound its memory, so its stretches grow
with the tables.
"""

import collections
import sys

import pytest

from repro.kernels import BACKENDS
from repro.kernels.engine import construct, walk

from .test_engine_events import _contigs

PHASE_FILES = {construct.__file__, walk.__file__}


def phase_lines(kernel, contigs, ks) -> collections.Counter:
    """Line events per function of the phase modules over one schedule,
    keyed ``(name, first line)`` so same-named methods stay apart."""
    lines = collections.Counter()

    def count(frame, event, arg):
        if event == "line":
            code = frame.f_code
            lines[code.co_name, code.co_firstlineno] += 1
        return count

    def enter(frame, event, arg):
        return count if frame.f_code.co_filename in PHASE_FILES else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        kernel.run_schedule(contigs, ks)
    finally:
        sys.settrace(previous)
    return collections.Counter({key: n for key, n in lines.items()
                                if key[0] != "probe_rounds"})


def by_name(lines: collections.Counter, name: str) -> int:
    return sum(n for (fn, _), n in lines.items() if fn == name)


@pytest.mark.parametrize("backend", ["cuda", "hip", "sycl"])
def test_python_lines_do_not_grow_with_warps(backend):
    cls, device = BACKENDS[backend]
    contigs = _contigs(n=3, seed=5)
    few = phase_lines(cls(device), contigs, (21, 33))
    many = phase_lines(cls(device), contigs * 4, (21, 33))
    assert by_name(few, "_insert_wave") > 0
    assert by_name(few, "_lookup") > 0
    assert many == few
