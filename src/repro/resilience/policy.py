"""Overflow semantics: what a kernel does when a per-contig table fills.

The paper's GPU kernel prints ``*hashtable full*`` (Appendix A) and drops
the contig — at MetaHipMer scale losing one contig must never kill a
batch of thousands. The reproduction raises by default (so sizing bugs
stay loud) but can opt into the paper's semantics, or into a retry that
re-runs only the overflowed contigs with geometrically grown tables.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.errors import KernelError

#: Capacity multiplier applied per grow-retry attempt.
DEFAULT_GROW_FACTOR = 2.0

#: Retry-attempt cap for :attr:`OverflowPolicy.GROW_RETRY`.
DEFAULT_MAX_GROW_ATTEMPTS = 4


class OverflowPolicy(Enum):
    """What the engine does when a per-contig hash table overflows.

    * ``RAISE`` — propagate :class:`~repro.errors.HashTableFullError`
      (enriched with contig/k/capacity context). The default: a sizing
      bug aborts the run loudly.
    * ``DROP_CONTIG`` — the paper's ``*hashtable full*`` semantics: the
      overflowing contig is recorded as degraded (a
      :class:`~repro.kernels.engine.events.ContigDropped` event, an
      empty extension) and the wave continues for every other warp.
    * ``GROW_RETRY`` — re-run only the overflowed contigs with
      geometrically grown table capacity (capped attempts); functional
      output is byte-identical to a run whose tables were sized large
      enough from the start, because per-warp tables are independent
      and vote contents do not depend on capacity.
    """

    RAISE = "raise"
    DROP_CONTIG = "drop-contig"
    GROW_RETRY = "grow-retry"

    @classmethod
    def parse(cls, value: "OverflowPolicy | str") -> "OverflowPolicy":
        """Coerce a policy or its CLI spelling to an :class:`OverflowPolicy`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise KernelError(
                f"unknown overflow policy {value!r}; expected one of {options}"
            ) from None


def grow_budget(grow_factor: float | None,
                max_grow_attempts: int | None) -> tuple[float, int]:
    """``(factor, attempts)`` of a backend's grow-retry, defaulted and
    validated — every backend takes the two options through here."""
    factor = (DEFAULT_GROW_FACTOR if grow_factor is None
              else float(grow_factor))
    attempts = (DEFAULT_MAX_GROW_ATTEMPTS if max_grow_attempts is None
                else int(max_grow_attempts))
    if factor <= 1.0:
        raise KernelError(f"grow_factor must exceed 1, got {factor}")
    if attempts < 1:
        raise KernelError(f"max_grow_attempts must be >= 1, got {attempts}")
    return factor, attempts


def grown_capacity(capacity, factor: float):
    """The capacity (an int or an array of them) a table that overflowed
    at ``capacity`` slots re-runs with: ``ceil(capacity * factor)``, and
    never fewer than one slot more."""
    return np.maximum(capacity + 1,
                      np.ceil(capacity * factor).astype(np.int64))
