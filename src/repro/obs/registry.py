"""Dependency-free metrics primitives: counters, gauges, histograms, timers.

The registry is designed around one invariant: **disabled observability
costs one attribute check**.  A disabled :class:`MetricsRegistry` hands out
a shared :data:`NULL_METRIC` whose mutators are no-ops, so instrumented
code is written unconditionally (``registry.counter("x").inc()``) and pays
nothing when telemetry is off.

All state is plain Python (ints, floats, lists, dicts), so registries are
picklable across the process backend and serialise losslessly through
:meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.merge_dict` — the
interchange used to merge per-rank registries at finalize.

Histogram quantiles use linear interpolation on the sorted sample, the
same estimator as ``numpy.quantile``'s default method, so summaries are
directly comparable to offline analysis.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Iterable


def payload_nbytes(obj: Any, _depth: int = 0) -> int:
    """Approximate the wire size of a message payload in bytes.

    Numpy arrays report ``nbytes`` exactly; builtin containers are summed
    shallowly (up to four levels, enough for every envelope this library
    sends); everything else falls back to ``sys.getsizeof``.
    """
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if _depth < 4:
        if isinstance(obj, (tuple, list, set, frozenset)):
            return sum(payload_nbytes(x, _depth + 1) for x in obj)
        if isinstance(obj, dict):
            return sum(
                payload_nbytes(k, _depth + 1) + payload_nbytes(v, _depth + 1)
                for k, v in obj.items()
            )
    return sys.getsizeof(obj)


class Counter:
    """Monotonically increasing count (messages, bytes, events)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def to_dict(self) -> int | float:
        return self.value


class Gauge:
    """Point-in-time level; remembers the last and the maximum value set."""

    __slots__ = ("name", "last", "max", "n_sets")

    def __init__(self, name: str):
        self.name = name
        self.last = 0.0
        self.max = -math.inf
        self.n_sets = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.last = value
        if value > self.max:
            self.max = value
        self.n_sets += 1

    def to_dict(self) -> dict:
        return {"last": self.last, "max": self.max, "n_sets": self.n_sets}


#: The operational trio every summary and live snapshot reports.
_TRIO = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _quantile_sorted(data: list[float], q: float) -> float:
    """Linear interpolation at ``q`` on an already sorted, non-empty list."""
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _trio_sorted(data: list[float]) -> dict[str, float]:
    """p50/p95/p99 of an already sorted list (``{}`` when it is empty)."""
    if not data:
        return {}
    return {key: _quantile_sorted(data, q) for key, q in _TRIO}


class Histogram:
    """Sample distribution with numpy-compatible quantiles.

    Every observation is retained, which makes merging across ranks
    exact (concatenate the samples) and suits producers whose sample
    count is bounded by the run: one per message, cell or epoch.  A
    producer that observes for the life of a process — the HTTP
    transport, one sample per request — uses :class:`WindowedHistogram`
    instead.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    # -- statistics --------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else math.nan

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile, identical to ``numpy.quantile``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.values:
            return math.nan
        return _quantile_sorted(sorted(self.values), q)

    def summary(self) -> dict:
        """count/sum/min/max/mean plus the p50/p95/p99 operational trio."""
        data = sorted(self.values)
        if not data:
            return {"count": 0}
        count, total = self.count, self.total
        return {
            "count": count,
            "sum": total,
            "min": data[0],
            "max": data[-1],
            "mean": total / count,
            **_trio_sorted(data),
        }

    def to_dict(self) -> list[float]:
        return list(self.values)


class WindowedHistogram(Histogram):
    """Lifetime ``count``/``total``; quantiles over the last ``WINDOW`` values.

    ``values`` is a ring of at most ``WINDOW`` recent observations, so
    memory and the cost of every statistic are independent of how long
    the producer has been running; ``min``/``max`` and the quantiles
    describe that window, ``count``/``sum``/``mean`` the whole life.
    ``observe`` is a read-modify-write: concurrent writers serialise
    outside (the HTTP transport holds its server's metrics lock).
    ``to_dict`` — the cross-rank interchange — carries the window only.
    """

    WINDOW = 1024

    __slots__ = ("_count", "_total")

    def __init__(self, name: str):
        super().__init__(name)
        self._count = 0
        self._total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if self._count < self.WINDOW:
            self.values.append(value)
        else:
            self.values[self._count % self.WINDOW] = value
        self._count += 1
        self._total += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total


def registry_snapshot(
    registry: "MetricsRegistry",
    quantiles: bool = False,
    retries: int = 0,
) -> dict | None:
    """Race-tolerant point-in-time snapshot of a live registry.

    Both consumers of live telemetry — the
    :class:`~repro.obs.live.sampler.TimeSeriesSampler` tick and the
    serving layer's ``/telemetry`` route — need the same thing: the
    current value of every counter and gauge plus per-histogram
    ``count``/``sum`` (and optionally the p50/p95/p99 trio with
    ``quantiles=True``), read while the instrumented rank keeps mutating
    the registry.  Registry mutation is only ever metric *creation* plus
    scalar updates, so one ``list(dict.items())`` copy per family under
    try/except is enough: an attempt that races a concurrent insert is
    retried up to ``retries`` times; if every attempt races, ``None`` is
    returned and the caller decides (the sampler skips the tick, the
    route retries on its next request).

    With ``quantiles=True`` the trio comes from one sorted copy per
    histogram (``sorted`` copies before it sorts), so a concurrent
    ``observe`` can never shift data under the quantile scan.  The lean
    default path reads ``count``/``sum`` without copying — the sampler
    ticks at 20 Hz, so a per-tick copy would be the single largest cost
    of live sampling.
    """
    for _ in range(retries + 1):
        try:
            counters = list(registry.counters.items())
            gauges = list(registry.gauges.items())
            hists = list(registry.histograms.items())
        except RuntimeError:  # dict mutated during iteration; retry/give up
            continue
        histograms: dict[str, dict] = {}
        for name, h in hists:
            entry: dict[str, float] = {
                "count": h.count,
                "sum": float(h.total),
            }
            if quantiles:
                entry.update(_trio_sorted(sorted(h.values)))
            histograms[name] = entry
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {
                name: {"last": g.last, "max": g.max, "n_sets": g.n_sets}
                for name, g in gauges
            },
            "histograms": histograms,
        }
    return None


class _NullMetric:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()

    def inc(self, n: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullMetric":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


#: The shared no-op metric/context-manager (also usable as a null timer).
NULL_METRIC = _NullMetric()


class _Timer:
    """Context manager recording elapsed ``perf_counter`` seconds."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._hist.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """A namespace of counters, gauges and histograms for one rank.

    With ``enabled=False`` every accessor returns :data:`NULL_METRIC` and
    the registry stays permanently empty — the no-op fast path.
    """

    __slots__ = ("enabled", "counters", "gauges", "histograms")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- accessors (create on first use) -----------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def windowed_histogram(self, name: str) -> WindowedHistogram:
        """Like :meth:`histogram`, for a producer that never stops."""
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = WindowedHistogram(name)
        return h  # type: ignore[return-value]

    def timer(self, name: str) -> _Timer | _NullMetric:
        """Context manager timing a block into histogram ``name``."""
        if not self.enabled:
            return NULL_METRIC
        return _Timer(self.histogram(name))

    # -- serialisation & merging -------------------------------------------

    def to_dict(self) -> dict:
        """Lossless interchange form (picklable, JSON-serialisable)."""
        return {
            "counters": {n: c.to_dict() for n, c in sorted(self.counters.items())},
            "gauges": {n: g.to_dict() for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self.histograms.items())
            },
        }

    def merge_dict(self, d: dict) -> None:
        """Fold another registry's :meth:`to_dict` into this one.

        Counters add, histogram samples concatenate (exact merge), gauges
        keep the maximum and the latest-set value and add set counts.
        """
        for name, value in d.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, g in d.get("gauges", {}).items():
            gauge = self.gauge(name)
            if isinstance(gauge, Gauge):
                gauge.last = g["last"]
                if g["max"] > gauge.max:
                    gauge.max = g["max"]
                gauge.n_sets += g.get("n_sets", 0)
        for name, values in d.get("histograms", {}).items():
            hist = self.histogram(name)
            if isinstance(hist, Histogram):
                hist.values.extend(values)

    @classmethod
    def merged(cls, dicts: Iterable[dict]) -> "MetricsRegistry":
        """A fresh registry holding the fold of several interchange dicts."""
        reg = cls(enabled=True)
        for d in dicts:
            reg.merge_dict(d)
        return reg

    def summary(self) -> dict:
        """Human/report form: histograms collapsed to quantile summaries."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.to_dict() for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }
