"""repro.obs — metrics, tracing and pipeline telemetry.

A dependency-free observability layer threaded through the three systems
the paper benchmarks: the MPI substrate (per-rank message/byte counters,
queue-depth gauges, collective latencies), the MarketMiner runtime
(per-component handler latency histograms, emit counts, end-of-stream
timing) and the backtest engines (per-pair-day cost histograms and
per-approach span trees).

Design rules:

* **cheap when disabled** — a disabled :class:`Obs` hands out shared
  no-op metrics; instrumented hot paths pay one attribute check;
* **one registry per rank** — SPMD code never shares mutable telemetry
  state across ranks, so the thread backend stays deterministic;
* **mergeable** — registries and traces serialise to plain dicts
  (:meth:`Obs.to_dict`) that are gathered over the existing collective
  path and folded into one report (:func:`build_report`).

Typical SPMD wiring::

    obs = Obs(enabled=True)
    attach_to_comm(comm, obs)                  # MPI-substrate telemetry
    with obs.trace.span("work"):
        ...                                     # app-level spans/metrics
    dicts = comm.gather(obs.to_dict(), root=0)
    if comm.rank == 0:
        report = build_report(dict(enumerate(dicts)))
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    WindowedHistogram,
    payload_nbytes,
    registry_snapshot,
)
from repro.obs.report import (
    SCHEMA,
    build_report,
    load_report,
    render_text,
    write_json,
)
from repro.obs.trace import Span, SpanTracer, render_flame


class Obs:
    """One rank's observability handle: a metrics registry plus a tracer.

    Two optional live-plane attachments ride along: ``flight`` holds the
    rank's :class:`~repro.obs.live.flight.FlightRecorder` (substrate and
    runtime hooks record into it when present) and ``profile`` holds the
    interchange dict a :class:`~repro.obs.live.profiler.SamplingProfiler`
    folded in on stop.  Both default to None and cost instrumented code
    one attribute check when absent.
    """

    __slots__ = ("metrics", "trace", "flight", "profile", "_ranks")

    def __init__(self, enabled: bool = True):
        self.metrics = MetricsRegistry(enabled=enabled)
        self.trace = SpanTracer(enabled=enabled)
        self.flight = None
        self.profile: dict | None = None
        #: Interchange dicts absorbed from other ranks (driver-side only).
        self._ranks: dict[Any, dict] = {}

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled

    def to_dict(self) -> dict:
        """This rank's telemetry in interchange form (picklable)."""
        d = {"metrics": self.metrics.to_dict(), "spans": self.trace.to_list()}
        if self.profile is not None:
            d["profile"] = self.profile
        return d

    def absorb_rank(self, rank: Any, payload: dict) -> None:
        """Store (or fold into) another rank's interchange dict."""
        existing = self._ranks.get(rank)
        if existing is None:
            self._ranks[rank] = payload
        else:
            reg = MetricsRegistry.merged(
                [existing.get("metrics", {}), payload.get("metrics", {})]
            )
            existing["metrics"] = reg.to_dict()
            existing["spans"] = list(existing.get("spans", [])) + list(
                payload.get("spans", [])
            )
            if "profile" in existing or "profile" in payload:
                from repro.obs.live.profiler import merge_profiles

                existing["profile"] = merge_profiles(
                    [existing.get("profile"), payload.get("profile")]
                )

    def report(self) -> dict:
        """Build the full v1 report from local + absorbed telemetry."""
        per_rank = dict(self._ranks)
        local = self.to_dict()
        local_empty = not any(local["metrics"].values()) and not local["spans"]
        if not local_empty or not per_rank:
            per_rank["driver"] = local
        return build_report(per_rank)


#: Shared disabled handle: the default for every ``obs`` parameter.
NULL_OBS = Obs(enabled=False)


def resolve(obs: "Obs | None") -> Obs:
    """Normalise an optional ``obs`` argument to a usable handle."""
    return obs if obs is not None else NULL_OBS


def attach_to_comm(comm: Any, obs: Obs) -> bool:
    """Attach ``obs`` to a communicator that supports instrumentation.

    Returns True when the communicator accepted the handle (MailboxComm
    does); False for foreign communicators, which simply stay dark.
    """
    attach = getattr(comm, "attach_obs", None)
    if attach is None:
        return False
    attach(obs)
    return True


def comm_obs(comm: Any) -> Obs | None:
    """The Obs attached to a communicator, or None."""
    obs = getattr(comm, "obs", None)
    return obs if isinstance(obs, Obs) else None


def ensure_obs(comm: Any, enabled: bool) -> Obs:
    """Resolve the observability handle for an SPMD run.

    Reuses a handle already attached to the communicator (e.g. by a
    backend constructed with ``obs_enabled=True``); otherwise attaches a
    fresh enabled handle when ``enabled`` is set, and falls back to the
    shared disabled handle.
    """
    existing = comm_obs(comm)
    if existing is not None:
        return existing
    if enabled:
        obs = Obs(enabled=True)
        attach_to_comm(comm, obs)
        return obs
    return NULL_OBS


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_OBS",
    "Obs",
    "SCHEMA",
    "Span",
    "SpanTracer",
    "WindowedHistogram",
    "attach_to_comm",
    "build_report",
    "comm_obs",
    "ensure_obs",
    "load_report",
    "payload_nbytes",
    "registry_snapshot",
    "render_flame",
    "render_text",
    "resolve",
    "write_json",
]
