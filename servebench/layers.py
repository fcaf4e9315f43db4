"""Per-layer metrics from the traced launcher's spans.

Only spans that start inside the load generator's timed window count;
both processes read the same system monotonic clock.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Layer of each span name (the ``serve`` layer's remainder -- executor
#: hop, drain task, socket -- has no span and is reported as
#: ``serve.other_ms``).
LAYER_OF = {
    "serve.decode": "serve",
    "serve.encode": "serve",
    "engine.run_batch": "engine",
    "engine.plan": "engine",
    "kernel.batch_rknn": "kernel",
    "core.rknn": "core",
    "core.knn": "core",
    "core.range": "core",
    "overlay.write": "overlay",
}
LAYERS = ("serve", "engine", "kernel", "core", "overlay")
#: Unit of every per-layer metric.
UNITS = {
    "serve.decode_us": "us",
    "serve.encode_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.other_ms": "ms",
    "engine.run_batch_self_ms": "ms",
    "engine.plan_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_invalidations_per_write": "count",
    "kernel.calls": "count",
    "kernel.specs_per_call": "count",
    "kernel.ms_per_spec": "ms",
    "kernel.edges_per_spec": "count",
    "core.rknn_ms": "ms",
    "core.knn_ms": "ms",
    "core.range_ms": "ms",
    "core.edges_per_query": "count",
    "core.nodes_per_query": "count",
    "overlay.write_ms": "ms",
    "overlay.delta_epoch": "count",
    "trace.overhead_pct": "%",
}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(spans: list, window: tuple[float, float],
              client_p50_ms: float, counters: dict, writes: int,
              final_epoch: int) -> tuple[dict, dict]:
    """Return ``(per-layer metrics, self time in ms per layer)``.

    ``counters`` holds the server's ``/metrics`` deltas over the window
    (``cache_hits``, ``cache_misses``, ``cache_invalidations``).
    """
    start, end = window
    spans = [span for span in spans if start <= span[3] <= end]
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, began, ended, _ in spans:
        if parent is not None:
            covered[parent] += ended - began
    by_name: dict[str, list] = defaultdict(list)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        span_id, _, name, began, ended, _ = span
        by_name[name].append(span)
        self_ms[LAYER_OF[name]] += (ended - began - covered[span_id]) * 1e3

    def durations(name: str) -> list[float]:
        return [ended - began for _, _, _, began, ended, _ in by_name[name]]

    batches = by_name["engine.run_batch"]
    waits = [wait for span in batches for wait in span[5]["waits"]]
    engine_per_request = [span[4] - span[3]
                          for span in batches for _ in range(span[5]["specs"])]
    kernel = by_name["kernel.batch_rknn"]
    kernel_specs = sum(span[5]["specs"] for span in kernel)
    core = by_name["core.rknn"] + by_name["core.knn"] + by_name["core.range"]
    decode_us = _mean(durations("serve.decode")) * 1e6
    encode_us = _mean(durations("serve.encode")) * 1e6
    queue_wait_ms = _median(waits) * 1e3
    lookups = counters["cache_hits"] + counters["cache_misses"]
    metrics = {
        "serve.decode_us": decode_us,
        "serve.encode_us": encode_us,
        "serve.queue_wait_ms": queue_wait_ms,
        "serve.batch_size": _mean(span[5]["specs"] for span in batches),
        "serve.other_ms": (client_p50_ms - queue_wait_ms
                           - _median(engine_per_request) * 1e3
                           - (decode_us + encode_us) / 1e3),
        "engine.run_batch_self_ms": _mean(
            span[4] - span[3] - covered[span[0]] for span in batches
        ) * 1e3,
        "engine.plan_ms": _mean(durations("engine.plan")) * 1e3,
        "engine.cache_hit_ratio": (counters["cache_hits"] / lookups
                                   if lookups else 0.0),
        "engine.cache_invalidations_per_write": (
            counters["cache_invalidations"] / writes if writes else 0.0
        ),
        "kernel.calls": len(kernel),
        "kernel.specs_per_call": kernel_specs / len(kernel) if kernel else 0.0,
        "kernel.ms_per_spec": (sum(durations("kernel.batch_rknn")) * 1e3
                               / kernel_specs if kernel_specs else 0.0),
        "kernel.edges_per_spec": (sum(span[5]["edges"] for span in kernel)
                                  / kernel_specs if kernel_specs else 0.0),
        "core.rknn_ms": _mean(durations("core.rknn")) * 1e3,
        "core.knn_ms": _mean(durations("core.knn")) * 1e3,
        "core.range_ms": _mean(durations("core.range")) * 1e3,
        "core.edges_per_query": _mean(span[5]["edges"] for span in core),
        "core.nodes_per_query": _mean(span[5]["nodes"] for span in core),
        "overlay.write_ms": _mean(durations("overlay.write")) * 1e3,
        "overlay.delta_epoch": final_epoch,
    }
    return metrics, self_ms


def predictions(workload: str, metrics: dict) -> list[tuple[str, bool]]:
    """The layer-bypass predictions for ``workload`` and whether they hold.

    ``overlay.write_ms`` is 0 exactly when no overlay span was recorded.
    """
    kernel, writes = metrics["kernel.calls"], metrics["overlay.write_ms"]
    if workload == "serve_hot":
        return [("kernel.calls = 0", kernel == 0),
                ("engine.cache_hit_ratio >= 0.99",
                 metrics["engine.cache_hit_ratio"] >= 0.99),
                ("no overlay spans", writes == 0)]
    if workload == "serve_cold":
        return [("kernel.calls > 0", kernel > 0),
                ("no overlay spans", writes == 0)]
    return [("kernel.calls = 0", kernel == 0),
            ("overlay.write_ms present", writes > 0)]
