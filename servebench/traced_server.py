"""Traced launcher: ``repro serve`` with every layer's entry points timed.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 servebench/traced_server.py SPANS.json serve DATASET \\
        --backend compact --port 0 --ready-file READY

Before handing ``argv[2:]`` to :func:`repro.cli.main`, the launcher
wraps the public entry point of each layer with a timer:

* serve: ``protocol.decode`` / ``protocol.encode`` and
  ``MicroBatcher.admit`` (the admission stamp of each spec);
* engine: ``QueryEngine.run_batch`` and the planner's ``plan_batch``;
* kernel: ``CompactDatabase.batch_rknn``;
* core: the scalar ``CompactDatabase.rknn`` / ``knn`` / ``range_nn``;
* overlay: ``CompactDatabase.insert_point`` / ``delete_point``.

Spans stay in memory -- ``[id, parent, name, start, end, attrs]``
with a per-thread parent stack, timestamps from the system monotonic
clock the load generator also reads -- and are written to
``SPANS.json`` when the server shuts down (SIGINT).  No program file
changes.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time


class SpanLog:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.admitted: dict[int, float] = {}  # id(spec) -> admit time
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording ``name``.

        ``describe(args, result, start)`` returns the span's attributes.
        """
        original = getattr(owner, attr)
        local, spans, ids = self._local, self.spans, self._ids

        def timed(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = describe(args, result, start) if describe else None
            spans.append([span_id, parent, name, start, end, attrs])
            return result

        setattr(owner, attr, timed)

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _counters(args, result, start) -> dict:
    counters = result.counters
    return {"edges": counters.edges_expanded, "nodes": counters.nodes_visited}


def install(log: SpanLog) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    from repro.compact.db import CompactDatabase
    from repro.engine import engine
    from repro.engine.engine import QueryEngine
    from repro.serve import protocol
    from repro.serve.batcher import MicroBatcher

    log.wrap(protocol, "decode", "serve.decode")
    log.wrap(protocol, "encode", "serve.encode")

    admit = MicroBatcher.admit

    def stamped_admit(self, spec):
        log.admitted[id(spec)] = time.perf_counter()
        return admit(self, spec)

    MicroBatcher.admit = stamped_admit

    def batch_attrs(args, result, start) -> dict:
        specs = args[1]
        waits = [start - log.admitted.pop(id(spec), start) for spec in specs]
        return {"specs": len(specs), "waits": waits}

    log.wrap(QueryEngine, "run_batch", "engine.run_batch", batch_attrs)
    log.wrap(engine, "plan_batch", "engine.plan")

    def kernel_attrs(args, result, start) -> dict:
        return {"specs": len(result),
                "edges": sum(r.counters.edges_expanded for r in result)}

    log.wrap(CompactDatabase, "batch_rknn", "kernel.batch_rknn", kernel_attrs)
    log.wrap(CompactDatabase, "rknn", "core.rknn", _counters)
    log.wrap(CompactDatabase, "knn", "core.knn", _counters)
    log.wrap(CompactDatabase, "range_nn", "core.range", _counters)
    log.wrap(CompactDatabase, "insert_point", "overlay.write")
    log.wrap(CompactDatabase, "delete_point", "overlay.write")


def main(argv: list[str]) -> int:
    """Install the timers, run the CLI, write the spans at shutdown."""
    if len(argv) < 2:
        print("usage: traced_server.py SPANS.json serve DATASET [...]",
              file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    log = SpanLog()
    install(log)
    try:
        return cli_main(argv[1:])
    finally:
        log.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
