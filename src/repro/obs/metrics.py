"""The unified metrics registry behind the servers' ``/metrics``.

One :class:`MetricsRegistry` per server owns every observable number:

* :class:`Counter` -- monotonically increasing totals (queries served,
  mutations applied, shed requests).  A counter may *own* its value
  (bumped with :meth:`Counter.inc`) or derive it from a callback, which
  is how pre-existing sources of truth (batcher stats, the engine's
  cache counters, the database's :class:`~repro.storage.stats.CostTracker`)
  join the registry without double bookkeeping.
* :class:`Gauge` -- point-in-time readings (queue depth, live workers,
  the current generation), usually callback-backed.
* :class:`Histogram` -- log-bucketed latency distributions whose
  p50/p95/p99 are derived from the bucket counts alone, so the
  percentiles survive JSON/Prometheus round-trips and merge across
  scrapes the way production systems expect.

The registry renders two ways: :meth:`MetricsRegistry.to_dict` (flat
JSON, embedded in the servers' existing ``/metrics`` payloads) and
:meth:`MetricsRegistry.render_prometheus` (the text exposition format,
served at ``/metrics?format=prometheus``).  :func:`parse_prometheus_text`
is the tiny in-repo parser CI uses to validate the exposition without
an external ``promtool``.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Sequence

#: Default histogram bucket upper bounds, in seconds: log-spaced from
#: 100 us to ~105 s (doubling), the serving-latency range of interest.
DEFAULT_BUCKETS = tuple(0.0001 * 2.0 ** i for i in range(21))

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")

_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*\Z"
)


class Metric:
    """Shared naming/help plumbing of every metric kind."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help


class Counter(Metric):
    """A monotonically increasing total.

    Owned counters start at 0 and move through :meth:`inc`;
    callback-backed counters (``fn=...``) read an external source of
    truth at render time instead.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 fn: Callable[[], float] | None = None):
        super().__init__(name, help)
        self._fn = fn
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (callback-backed counters refuse: their
        source of truth lives elsewhere)."""
        if self._fn is not None:
            raise TypeError(f"counter {self.name!r} is callback-backed")
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        """The current total."""
        return self._value if self._fn is None else self._fn()


class Gauge(Metric):
    """A value that goes up and down (depth, membership, generation)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 fn: Callable[[], float] | None = None):
        super().__init__(name, help)
        self._fn = fn
        self._value = 0

    def set(self, value) -> None:
        """Record a new reading (owned gauges only)."""
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        self._value = value

    @property
    def value(self):
        """The current reading."""
        return self._value if self._fn is None else self._fn()


class Histogram(Metric):
    """Log-bucketed distribution with quantiles derived from buckets.

    Observations land in the first bucket whose upper bound is >= the
    value (one implicit ``+Inf`` bucket catches the rest).  Quantiles
    interpolate within the winning bucket, so ``quantile(0.5)`` needs
    only the bucket counts -- exactly what a Prometheus consumer
    computes from the exposition.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` seconds."""
        index = bisect_left(self.bounds, value)  # first bound >= value
        with self._lock:
            self._counts[index] += count
            self._sum += value * count
            self._count += count

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observed values (seconds)."""
        return self._sum

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1) estimated from the bucket counts.

        Interpolates linearly inside the winning bucket; an empty
        histogram reports 0.0, and observations beyond the last bound
        report the last finite bound (the standard le-bucket clamp).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = math.ceil(q * total)
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank and count:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                within = (rank - (cumulative - count)) / count
                return lower + (upper - lower) * within
        return self.bounds[-1]  # pragma: no cover - loop always returns

    def percentiles(self) -> dict[str, float]:
        """p50/p95/p99 in milliseconds (the serving-dashboard summary)."""
        return {
            "p50_ms": round(self.quantile(0.50) * 1000.0, 4),
            "p95_ms": round(self.quantile(0.95) * 1000.0, 4),
            "p99_ms": round(self.quantile(0.99) * 1000.0, 4),
        }

    def to_dict(self) -> dict:
        """Count, sum and derived percentiles for the JSON rendering."""
        return {"count": self._count,
                "sum_seconds": round(self._sum, 6),
                **self.percentiles()}

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper bound, count)`` pairs, ``inf`` last."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        with self._lock:
            counts = list(self._counts)
        for bound, count in zip((*self.bounds, math.inf), counts):
            cumulative += count
            pairs.append((bound, cumulative))
        return pairs


class MetricsRegistry:
    """Every metric of one server, renderable as JSON or Prometheus.

    ``namespace`` prefixes exposition names (``repro_queries_served``);
    JSON keys stay unprefixed, matching the servers' existing payloads.
    """

    def __init__(self, namespace: str = "repro"):
        if not _NAME_RE.match(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"duplicate metric {metric.name!r}")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                fn: Callable[[], float] | None = None) -> Counter:
        """Create and register a :class:`Counter`."""
        return self._register(Counter(name, help, fn=fn))

    def gauge(self, name: str, help: str = "",
              fn: Callable[[], float] | None = None) -> Gauge:
        """Create and register a :class:`Gauge`."""
        return self._register(Gauge(name, help, fn=fn))

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Create and register a :class:`Histogram`."""
        return self._register(Histogram(name, help, buckets=buckets))

    def metrics(self) -> tuple[Metric, ...]:
        """Registered metrics in registration order."""
        with self._lock:
            return tuple(self._metrics.values())

    def to_dict(self) -> dict:
        """Flat ``{name: value}`` (histograms expand to summary dicts)."""
        body: dict = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                body[metric.name] = metric.to_dict()
            else:
                body[metric.name] = metric.value
        return body

    def render_prometheus(self) -> str:
        """The text exposition format (version 0.0.4).

        Counters gain the conventional ``_total`` suffix; histograms
        expand to cumulative ``_bucket{le=...}`` series plus ``_sum``
        and ``_count``.
        """
        lines: list[str] = []
        for metric in self.metrics():
            name = f"{self.namespace}_{metric.name}"
            if metric.kind == "counter":
                name += "_total"
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in metric.bucket_counts():
                    label = "+Inf" if math.isinf(bound) else repr(bound)
                    lines.append(f'{name}_bucket{{le="{label}"}} {count}')
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    """One sample value in exposition syntax."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse (and thereby validate) a text exposition document.

    Returns ``{sample name: value}`` with any labels kept verbatim in
    the key (``repro_batch_seconds_bucket{le="0.0001"}``).  Raises
    :class:`ValueError` on any malformed line or non-numeric value --
    the in-repo stand-in for ``promtool check metrics`` used by tests
    and the CI scrape step.
    """
    samples: dict[str, float] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {number}: {raw!r}")
        labels = match.group("labels")
        key = match.group("name") + (f"{{{labels}}}" if labels else "")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"non-numeric sample value on line {number}: {raw!r}"
            ) from exc
        samples[key] = value
    if not samples:
        raise ValueError("exposition document contains no samples")
    return samples
