"""CPU placement: one CPU for the program under test, one for the load.

Left to the kernel, the threads of ``repro serve`` (event loop, wave
thread, journal writer) and of the load generator wander over the
sandbox's two virtual CPUs, and the *same* dump of ``serve_backlog`` then
takes 14-20 s and 14-23 ms of CPU per contig instead of 12 s and 12.5 ms
(most likely because every hand-over of the interpreter lock between
threads on different CPUs is a cross-CPU wake-up, an exit to the
hypervisor). Which placement a run gets is luck, and it lasts for minutes
(README, "Steadiness"). So the benchmark places its processes
itself, the way a load test gives the server and the load generator
their own cores:

* the process measuring (an engine workload, or the load generator of a
  serve workload) runs on the **last** CPU it is allowed;
* a server it starts runs, all threads, on the **first**.

On a one-CPU machine both are the same CPU. Off Linux nothing is pinned.
"""

from __future__ import annotations

import os

_ENV = "LEDGER_CPUS"


def allowed() -> list[int]:
    """The CPUs the benchmark was started on. Remembered in the
    environment, because a child started by a pinned process inherits the
    narrowed mask and could not tell."""
    if _ENV not in os.environ:
        if not hasattr(os, "sched_getaffinity"):
            return []
        os.environ[_ENV] = ",".join(map(str, sorted(os.sched_getaffinity(0))))
    return [int(c) for c in os.environ[_ENV].split(",") if c]


def pin(role: str) -> None:
    """Bind the calling thread — and every thread or process it starts
    from now on — to the CPU of ``role``: ``"server"`` or ``"load"``."""
    cpus = allowed()
    if cpus:
        os.sched_setaffinity(0, {cpus[0] if role == "server" else cpus[-1]})
