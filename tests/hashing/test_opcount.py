"""The cost model must reproduce paper Table V exactly."""

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.hashing import opcount
from repro.perfmodel.theoretical import intops_per_loop_cycle

# Table V of the paper.
TABLE_V = {
    21: {"initialization": 33, "mix_loop": 125, "cleanup": 31, "total": 215},
    33: {"initialization": 33, "mix_loop": 200, "cleanup": 31, "total": 305},
    55: {"initialization": 33, "mix_loop": 325, "cleanup": 31, "total": 457},
    77: {"initialization": 33, "mix_loop": 475, "cleanup": 31, "total": 635},
}


@pytest.mark.parametrize("k", sorted(TABLE_V))
def test_table5_totals(k):
    assert opcount.hash_intops(k) == TABLE_V[k]["total"]


@pytest.mark.parametrize("k", sorted(TABLE_V))
@pytest.mark.parametrize("phase", ["initialization", "mix_loop", "cleanup"])
def test_table5_phases(k, phase):
    assert opcount.hash_intops_breakdown(k)[phase] == TABLE_V[k][phase]


def test_breakdown_sums_to_total():
    for k in (5, 21, 33, 55, 77, 101):
        b = opcount.hash_intops_breakdown(k)
        assert (
            b["initialization"] + b["mix_loop"] + b["cleanup"] + b["key_handling"]
            == b["total"]
        )


@given(st.integers(1, 500))
def test_monotone_in_k(k):
    assert opcount.hash_intops(k + 1) >= opcount.hash_intops(k)


@given(st.integers(min_value=-10, max_value=0))
def test_rejects_nonpositive_k(k):
    with pytest.raises(ModelError):
        opcount.hash_intops(k)


def test_key_handling_formula():
    # floor(5k/4): fitted residual of Table V (see module docstring).
    assert opcount.key_handling_intops(21) == 26
    assert opcount.key_handling_intops(33) == 41
    assert opcount.key_handling_intops(55) == 68
    assert opcount.key_handling_intops(77) == 96


#: Every public function of the cost model.
COUNTERS = [fn for name, fn in vars(opcount).items()
            if inspect.isfunction(fn) and fn.__module__ == opcount.__name__
            and not name.startswith("_")]


@given(st.integers(1, 500))
def test_every_count_is_an_exact_int(k):
    # Table V counts integer operations: a float constant or a true
    # division anywhere in the model turns a count into a float
    assert COUNTERS
    for fn in COUNTERS:
        value = fn(k)
        for count in (value.values() if isinstance(value, dict) else [value]):
            assert type(count) is int, (fn.__name__, count)
    assert type(intops_per_loop_cycle(k)) is int
