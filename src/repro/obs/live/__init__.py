"""repro.obs.live — the live telemetry plane.

Where ``repro.obs`` reports *after* a session, this package observes it
*while it runs*, under a strict bounded-memory discipline (everything
retained lives in a preallocated ring; ``test_ring_capacity_bounds_memory``
and ``test_ring_bounds_memory_but_keeps_stream_indices`` pin it):

* :mod:`~repro.obs.live.rings` — preallocated series/event ring buffers;
* :mod:`~repro.obs.live.sampler` — interval snapshots of the registry
  with the ``last``/``rate``/``percentiles`` query API;
* :mod:`~repro.obs.live.flight` — per-rank flight recorder dumped to
  JSONL on faults ("last 2000 events before the crash");
* :mod:`~repro.obs.live.profiler` — thread-based sampling profiler
  attributing stacks to the active obs span;
* :mod:`~repro.obs.live.health` — declarative threshold rules raising
  structured :class:`HealthEvent`\\ s;
* :mod:`~repro.obs.live.export` — Prometheus text exposition and JSONL
  event streams;
* :mod:`~repro.obs.live.top` — the ``repro top`` hub and frame renderer.
"""

from repro.obs.live.export import JsonlWriter, render_prometheus
from repro.obs.live.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_dump,
)
from repro.obs.live.health import HealthEvent, HealthMonitor, HealthRule
from repro.obs.live.profiler import (
    PROFILE_SCHEMA,
    SamplingProfiler,
    attributed_fraction,
    merge_profiles,
    render_flame_table,
    span_totals,
)
from repro.obs.live.rings import EventRing, SeriesRing
from repro.obs.live.sampler import TimeSeriesSampler, sample_all
from repro.obs.live.top import TelemetryHub, render_top

__all__ = [
    "EventRing",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "HealthEvent",
    "HealthMonitor",
    "HealthRule",
    "JsonlWriter",
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "SeriesRing",
    "TelemetryHub",
    "TimeSeriesSampler",
    "attributed_fraction",
    "load_flight_dump",
    "merge_profiles",
    "render_flame_table",
    "render_prometheus",
    "render_top",
    "sample_all",
    "span_totals",
]
