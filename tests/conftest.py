"""Randomness in ``repro`` is seeded: a run is reproducible from its
inputs and seeds alone.

Two checks run around every test. A ``np.random.default_rng()`` call
without a seed made directly from a ``repro`` frame fails the test that
made it happen. And the legacy global generators, ``np.random``'s and
``random``'s, must hold the same state after the test as before it: a
``np.random.rand`` or ``random.random`` call anywhere in what the test
ran draws from them and moves it.
"""

import os
import random
import sys

import numpy as np
import pytest

import repro

_REPRO = os.path.dirname(repro.__file__) + os.sep


def _same_numpy_state(before, after) -> bool:
    """``np.random.get_state()`` tuples equal, key array included."""
    return (before[0] == after[0] and np.array_equal(before[1], after[1])
            and before[2:] == after[2:])


@pytest.fixture(autouse=True)
def seeded_randomness(monkeypatch):
    unseeded: list[str] = []
    default_rng = np.random.default_rng

    def seeded_only(seed=None):
        caller = sys._getframe(1)
        if seed is None and caller.f_code.co_filename.startswith(_REPRO):
            unseeded.append(f"default_rng() without a seed from "
                            f"{caller.f_code.co_filename}:{caller.f_lineno}")
            raise AssertionError(unseeded[-1])
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", seeded_only)
    numpy_state = np.random.get_state()
    python_state = random.getstate()
    yield
    # a caller may swallow the AssertionError into a failed job
    assert not unseeded, unseeded
    assert _same_numpy_state(numpy_state, np.random.get_state()), (
        "np.random's global state moved: a legacy np.random.* call drew "
        "from it")
    assert random.getstate() == python_state, (
        "random's global state moved: a random.* call drew from it")
