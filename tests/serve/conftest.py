"""A blocking call that ``repro`` makes on a running event loop fails
the serve test that made it happen.

The wrapped set is :data:`BLOCKING`: ``time.sleep``, ``os.fsync``,
``open()``, synchronous ``Path`` I/O and ``subprocess.*``. A call is a
violation when its thread has a running event loop and a ``repro``
frame is on its stack, however deep: executor threads run no loop, so
work handed to ``run_in_executor`` passes, and so does a test's own
harness I/O. It judges what runs, not wall time, so a 1 ms sleep fails
as surely as a long one (asyncio's debug mode only reports callbacks
slower than ``slow_callback_duration``).
"""

import asyncio
import builtins
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro

_REPRO = os.path.dirname(repro.__file__) + os.sep

#: owner -> attributes that block the calling thread; a service
#: coroutine hands them to ``run_in_executor`` (or uses ``asyncio.sleep``).
BLOCKING = {
    time: ("sleep",),
    os: ("fsync",),
    subprocess: ("run", "call", "check_call", "check_output"),
    builtins: ("open",),
    pathlib.Path: ("read_text", "write_text", "read_bytes", "write_bytes"),
}


def _repro_caller() -> str | None:
    """``file:line`` of the innermost ``repro`` frame on the stack."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_filename.startswith(_REPRO):
            return f"{frame.f_code.co_filename}:{frame.f_lineno}"
        frame = frame.f_back
    return None


@pytest.fixture(autouse=True)
def no_blocking_on_the_loop(monkeypatch):
    violations: list[str] = []

    def guard(owner, name, original):
        def blocking(*args, **kwargs):
            if asyncio._get_running_loop() is not None:
                caller = _repro_caller()
                if caller is not None:
                    what = f"{getattr(owner, '__name__', owner)}.{name}()"
                    violations.append(f"{what} on the event loop from "
                                      f"{caller}")
                    raise AssertionError(violations[-1])
            return original(*args, **kwargs)
        return blocking

    for owner, names in BLOCKING.items():
        for name in names:
            monkeypatch.setattr(owner, name,
                                guard(owner, name, getattr(owner, name)))
    yield
    # a service may swallow the AssertionError into a failed job
    assert not violations, violations
