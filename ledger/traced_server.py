"""``repro serve`` with the ledger's hooks installed.

Usage: ``python ledger/traced_server.py TRACE_OUT serve [serve flags...]``

Identical to ``python -m repro serve ...`` except that the callables in
``tracing.ENGINE_HOOKS`` / ``SERVE_HOOKS`` are wrapped first. Spans stay
in memory; they are written to ``TRACE_OUT`` when the load generator
asks for them with ``SIGUSR1`` (it does so after timing ends and before a
``SIGKILL``) and again on a clean exit.
"""

from __future__ import annotations

import runpy
import signal
import sys

import tracing


def main(argv: list[str]) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer, serve=True)
    for target in tracer.unresolved:
        print(f"ledger: warning: hook {target} no longer resolves",
              file=sys.stderr)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(trace_out))
    sys.argv = ["repro", *serve_args]
    try:
        runpy.run_module("repro", run_name="__main__")  # python -m repro
    finally:
        tracer.dump(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
