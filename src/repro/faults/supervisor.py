"""Self-healing, elastic session supervision: the one epoch loop.

:func:`run_supervised_session` slices a Figure-1 session's interval axis
into *epochs* (``checkpoint_every`` intervals each) and runs one SPMD
session per epoch.  Between two epochs the protocol is always the same:
**drain** (a non-final epoch ends in a pause: end-of-stream reaches
every component, so the cut is consistent), **checkpoint** (every
stateful component snapshots; the snapshots are allgathered), **tear
down** (``run_spmd`` joins its ranks before returning), **rebuild** (a
fresh workflow — fresh processes/threads, fresh queues — at the current
pool size, collectors pointed at the watermark) and **restore**.

Three things can happen at that boundary; they differ only in which
checkpoint is restored and what the pool size is:

- **restart** — the epoch failed (an injected crash, a detected sequence
  gap, a stalled rank timing out): restore the *same* checkpoint and
  re-run the epoch at the next global attempt number, so attempt-scoped
  fault plans do not re-fire;
- **voluntary resize** — a :class:`~repro.elastic.plan.ResizePlan` names
  a target size for the epoch, or a live
  :class:`~repro.marketminer.session.SessionControl` has one queued
  (applied at the next rebuild, never mid-epoch);
- **crash-as-shrink** — an epoch that exhausts ``max_restarts`` under a
  :class:`~repro.faults.DegradePolicy` with ``shrink_on_crash`` sheds
  one rank (down to ``min_ranks``) and retries instead of giving up.

A fixed-size run is this loop with an empty plan.  Because component
snapshots are deep copies, sources re-derive their stream
deterministically and pair shards are rank-count-independent, a
recovered or rescaled session is **bitwise-identical** to a fault-free
fixed-size one — positions, signals, correlation matrices and folded
domain counters alike, on both MPI backends.

The chaos log collects only deterministic data, so identical
(plan, seed) runs produce identical logs on the thread and process
backends.  Entry shapes: ``("run", epoch, attempt, "ok", fault_events)``,
``("restart", epoch, attempt, classification)``,
``("resize", epoch, old, new, moved)`` with the component moves, and
``("shrink", epoch, attempt, old, new, classification)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.elastic.plan import ResizePlan
from repro.faults.plan import FaultPlan
from repro.faults.policy import DegradePolicy
from repro.marketminer.scheduler import WorkflowRunner
from repro.mpi.api import MpiError
from repro.mpi.inproc import SpmdFailure
from repro.mpi.launcher import check_pool_size, run_spmd
from repro.mpi.procs import RemoteRankError
from repro.mpi.topology import placement_moves

#: Exception types whose messages are deterministic by construction and
#: therefore safe to include verbatim in the chaos log.
_DETERMINISTIC_DETAILS = frozenset({"InjectedCrash", "FaultDetected"})


class ChaosUnrecoverable(RuntimeError):
    """An epoch kept failing past the restart budget.

    Carries the last failure's deterministic classification plus the
    attempt/restart counts at the point of giving up, so a caller (or an
    operator reading the serving layer's error string) sees *what* kept
    dying and *how hard* the supervisor tried without parsing the log.
    """

    def __init__(
        self,
        message: str,
        failure: tuple = (),
        attempts: int = 0,
        restarts: int = 0,
    ):
        super().__init__(message)
        #: Last failure's ``(rank, exc type, detail)`` classification.
        self.failure = failure
        #: Total attempts (successful + failed) before giving up.
        self.attempts = attempts
        #: Total restarts across all epochs before giving up.
        self.restarts = restarts


@dataclass(frozen=True)
class SupervisedRun:
    """Outcome of a supervised session.

    ``obs_reports`` holds the merged ``_obs`` report of every
    *successful* epoch, in epoch order (empty unless the session ran
    with observability).  Failed attempts never contribute — their
    telemetry dies with the attempt — so folding these reports with
    :func:`fold_obs_counters` yields cumulative counters that a
    recovered session and a fault-free one must agree on.
    """

    results: dict
    log: tuple
    attempts: int
    restarts: int
    checkpoints: int
    obs_reports: tuple = ()
    #: Pool size each successful epoch ran at, in epoch order.  Constant
    #: for a fixed-size session; steps at resize/shrink boundaries.
    pool_sizes: tuple = ()
    #: Applied pool changes as ``(epoch, old, new)``, voluntary and
    #: crash-as-shrink alike, in application order.
    resizes: tuple = ()


def _classify_failure(exc: BaseException) -> tuple:
    """Deterministic (rank, exc type, detail) triples for a failed run."""
    if isinstance(exc, SpmdFailure):
        items = [
            (rank, type(err).__name__, str(err))
            for rank, err in exc.errors.items()
        ]
    elif isinstance(exc, RemoteRankError):
        items = [
            (rank, exc_type, message)
            for rank, (exc_type, message, _tb) in exc.errors.items()
        ]
    else:
        items = [(-1, type(exc).__name__, str(exc))]
    return tuple(
        (rank, exc_type, message if exc_type in _DETERMINISTIC_DETAILS else "")
        for rank, exc_type, message in sorted(
            items, key=lambda item: (item[0], item[1])
        )
    )


def _freeze_fault_events(faults: dict | None) -> tuple:
    if not faults:
        return ()
    return tuple(
        (rank, tuple(tuple(event) for event in events))
        for rank, events in sorted(faults.items())
    )


def _session_sources(workflow) -> dict[str, Any]:
    return {
        name: comp
        for name, comp in workflow.components.items()
        if comp.is_source
    }


def _session_smax(workflow) -> int:
    """The session's interval count, read off the source components."""
    smaxes = set()
    for name, comp in _session_sources(workflow).items():
        grid = getattr(comp, "grid", None)
        if grid is None:
            raise TypeError(
                f"source component {name!r} has no grid; supervised "
                f"sessions need grid-ranged sources"
            )
        smaxes.add(grid.smax)
    if len(smaxes) != 1:
        raise ValueError(
            f"sources disagree on the session grid (smax values {smaxes})"
        )
    return smaxes.pop()


def _epochs(smax: int, checkpoint_every: int | None) -> list[tuple[int, int]]:
    if checkpoint_every is None:
        return [(0, smax)]
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    return [
        (start, min(start + checkpoint_every, smax))
        for start in range(0, smax, checkpoint_every)
    ]


def _driver_flight(flight_dump: str | None, event: dict) -> None:
    """Append one driver-side elasticity event to the flight directory.

    Per-rank recorders die with their world; resize decisions are made
    by the driver *between* worlds, so they get their own JSONL stream
    (``driver-elastic.jsonl``).  Events carry only deterministic fields.
    """
    if flight_dump is None:
        return
    os.makedirs(flight_dump, exist_ok=True)
    path = os.path.join(flight_dump, "driver-elastic.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(event, sort_keys=True) + "\n")


def _validate_plan(
    plan: ResizePlan, n_epochs: int, backend: str
) -> dict[int, int]:
    """Pointed up-front validation: bad plans fail before any epoch runs."""
    if plan.max_epoch >= n_epochs:
        raise ValueError(
            f"resize plan names epoch {plan.max_epoch} but the session has "
            f"only {n_epochs} epoch(s); pass a smaller checkpoint_every or "
            f"an earlier boundary"
        )
    for request in plan.requests:
        check_pool_size(request.size, backend)
        if request.epoch > 0 and n_epochs < 2:
            raise ValueError(
                f"resize at epoch {request.epoch} needs checkpoints "
                f"(checkpoint_every) to create that boundary"
            )
    return plan.by_epoch()


def run_supervised_session(
    build: Callable[[], Any],
    size: int = 3,
    backend: str = "thread",
    plan: FaultPlan | None = None,
    checkpoint_every: int | None = None,
    max_restarts: int = 3,
    collect_stats: bool = False,
    obs_enabled: bool = False,
    obs=None,
    backend_options: dict | None = None,
    flight_dump: str | None = None,
    obs_hook=None,
    control=None,
    resize=None,
    degrade: DegradePolicy | None = None,
) -> SupervisedRun:
    """Run a Figure-1 session under supervision (see the module docstring).

    ``build`` is a zero-argument workflow factory, called once per
    attempt: a crashed rank is respawned by the next ``run_spmd``, not
    resurrected in place.

    ``max_restarts`` bounds retries per epoch; past it the last failure
    re-raises wrapped in :class:`ChaosUnrecoverable`, unless ``degrade``
    (a :class:`~repro.faults.DegradePolicy` with ``shrink_on_crash``)
    lets the pool shed a rank and retry, down to ``degrade.min_ranks``.

    ``resize`` (a :class:`~repro.elastic.ResizePlan`, a single
    :class:`~repro.elastic.ResizeRequest`, or an iterable of requests)
    schedules voluntary pool changes at epoch boundaries.  Validated up
    front — unknown epochs, sizes below 1 and sizes above the backend's
    capacity raise pointed ``ValueError``\\ s before anything runs.

    ``control`` is an optional
    :class:`~repro.marketminer.session.SessionControl`: its ``gate`` is
    called before every epoch attempt (where pause/kill take effect — a
    kill raises :class:`~repro.marketminer.session.SessionKilled` out of
    this function), ``on_checkpoint`` receives every checkpoint (what
    the serving layer's live position/signal queries read), and a
    resize queued on it (``request_resize``) is consumed at the next
    rebuild.

    ``flight_dump`` names a directory for per-rank flight-recorder
    dumps: every attempt's ranks dump their recent-event rings there
    (``rank<r>-attempt<a>.jsonl``) — with the failure class as the
    recorded reason when the attempt dies, which is the "last N events
    before the crash" artefact the chaos workflow exists to produce.

    ``obs_hook`` is forwarded to every attempt's
    :meth:`~repro.marketminer.scheduler.WorkflowRunner.run` so a live
    telemetry hub can re-register each rebuilt rank's registry (thread
    backend only).
    """
    options = dict(backend_options or {})
    resize_plan = ResizePlan.of(resize)
    check_pool_size(size, backend)
    smax = _session_smax(build())
    epochs = _epochs(smax, checkpoint_every)
    plan_targets = _validate_plan(resize_plan, len(epochs), backend)
    metrics = obs.metrics if obs is not None and obs.enabled else None

    log: list[tuple] = []
    obs_reports: list[dict] = []
    pool_sizes: list[int] = []
    resizes: list[tuple[int, int, int]] = []
    checkpoint: dict[str, Any] | None = None
    pool = size
    attempt = 0
    restarts = 0
    checkpoints = 0
    if control is not None:
        control.note_pool(pool)

    def change_pool(entry: tuple, new: int, **detail) -> None:
        """Record one pool change (``entry`` is its chaos-log line) —
        resize or shrink alike: log, ``resizes``, driver flight stream,
        ``recovery.resizes``/``recovery.shrinks``, control handle."""
        nonlocal pool
        kind, epoch = entry[:2]
        log.append(entry)
        resizes.append((epoch, pool, new))
        _driver_flight(
            flight_dump,
            {"event": kind, "epoch": epoch, "old": pool, "new": new,
             **detail},
        )
        if metrics is not None:
            metrics.counter(f"recovery.{kind}s").inc()
        old, pool = pool, new
        if control is not None:
            control.resize_applied(epoch, old, new)

    for epoch, (start, stop) in enumerate(epochs):
        final = stop == smax
        epoch_failures = 0
        while True:
            if control is not None:
                control.gate(epoch)
            # Voluntary resizes land here — after the gate (so commands
            # drained while parked in pause are visible) and before the
            # build, which is the teardown/rebuild boundary.  The planned
            # target applies once, on the epoch's first attempt (hence
            # pop); live requests apply at whichever rebuild comes next.
            target = plan_targets.pop(epoch, None)
            if control is not None:
                requested = control.take_resize()
                if requested is not None:
                    check_pool_size(requested, backend)
                    target = requested
            workflow = build()
            if checkpoint is not None:
                for name, state in checkpoint.items():
                    workflow.component(name).restore(state)
            if len(epochs) > 1:
                for name, comp in _session_sources(workflow).items():
                    if not hasattr(comp, "set_interval_range"):
                        raise TypeError(
                            f"source {name!r} is not resumable "
                            f"(no set_interval_range); cannot checkpoint"
                        )
                    comp.set_interval_range(start, stop)
            runner = WorkflowRunner(workflow)
            if target is not None and target != pool:
                moved = placement_moves(
                    runner.rank_map(pool), runner.rank_map(target)
                )
                change_pool(
                    ("resize", epoch, pool, target, moved), target,
                    moved=[list(m) for m in moved],
                )
            this_attempt = attempt
            attempt += 1

            def spmd(comm, _runner=runner, _attempt=this_attempt,
                     _pause=not final):
                return _runner.run(
                    comm,
                    collect_stats=collect_stats,
                    obs_enabled=obs_enabled,
                    pause=_pause,
                    fault_plan=plan,
                    fault_attempt=_attempt,
                    flight_dump=flight_dump,
                    obs_hook=obs_hook,
                )

            try:
                # The only place a comm world is built: run_spmd joins
                # its ranks before returning, so the world is gone and
                # the pool size free to change by the next iteration.
                results = run_spmd(
                    spmd, size=pool, backend=backend, **options
                )[0]
            except MpiError as exc:
                restarts += 1
                epoch_failures += 1
                classification = _classify_failure(exc)
                log.append(("restart", epoch, this_attempt, classification))
                if control is not None:
                    control.note_restart(epoch, this_attempt)
                if metrics is not None:
                    metrics.counter("recovery.restarts").inc()
                if epoch_failures <= max_restarts:
                    continue
                if (
                    degrade is not None
                    and degrade.shrink_on_crash
                    and pool > max(1, degrade.min_ranks)
                ):
                    change_pool(
                        ("shrink", epoch, this_attempt, pool, pool - 1,
                         classification),
                        pool - 1,
                        attempt=this_attempt,
                        failure=[list(c) for c in classification],
                    )
                    epoch_failures = 0
                    continue
                summary = "; ".join(
                    f"rank {rank}: {exc_type}"
                    for rank, exc_type, _detail in classification
                )
                raise ChaosUnrecoverable(
                    f"epoch {epoch} (intervals [{start}, {stop})) "
                    f"failed {epoch_failures} times at pool size {pool}; "
                    f"giving up (last failure: {summary or 'unknown'})",
                    failure=classification,
                    attempts=attempt,
                    restarts=restarts,
                ) from exc

            fault_events = results.pop("_faults", None)
            log.append(
                (
                    "run", epoch, this_attempt, "ok",
                    _freeze_fault_events(fault_events),
                )
            )
            pool_sizes.append(pool)
            if "_obs" in results:
                obs_reports.append(results["_obs"])
            if final:
                return SupervisedRun(
                    results=results,
                    log=tuple(log),
                    attempts=attempt,
                    restarts=restarts,
                    checkpoints=checkpoints,
                    obs_reports=tuple(obs_reports),
                    pool_sizes=tuple(pool_sizes),
                    resizes=tuple(resizes),
                )
            checkpoint = results.pop("_snapshots")
            checkpoints += 1
            if control is not None:
                control.on_checkpoint(epoch, checkpoint)
            if metrics is not None:
                metrics.counter("recovery.checkpoints").inc()
            break

    raise AssertionError("unreachable: the final epoch returns")


# -- result comparison ------------------------------------------------------


def fold_obs_counters(
    reports, exclude_prefixes: tuple[str, ...] = ()
) -> dict[str, float]:
    """Sum merged cross-rank counters across per-epoch obs reports.

    Cumulative counters are additive across epochs, so the fold over a
    recovered session's successful-epoch reports must equal the fold
    over a fault-free session's — replayed (failed) attempts never
    contribute a report.  ``exclude_prefixes`` drops counter families
    that legitimately differ (e.g. ``recovery.`` bookkeeping kept by a
    driver-side registry).
    """
    totals: dict[str, float] = {}
    for report in reports:
        counters = report.get("metrics", {}).get("counters", {})
        for name, value in counters.items():
            if any(name.startswith(p) for p in exclude_prefixes):
                continue
            totals[name] = totals.get(name, 0) + value
    return totals


def strip_meta(results: dict) -> dict:
    """Component results only: drop ``_``-prefixed runtime entries."""
    return {
        key: value
        for key, value in results.items()
        if not key.startswith("_")
    }


def _deep_equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
        )
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return False
        return all(_deep_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(_deep_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # NaN == NaN for bitwise comparison
            return True
        return a == b
    return bool(a == b)


def session_results_equal(a: dict, b: dict) -> bool:
    """Bitwise equality of two sessions' per-component results.

    Runtime metadata (``_obs``, ``_runtime``, ``_snapshots``,
    ``_faults``) is excluded: those legitimately differ between a clean
    and a recovered run; the *component* results must not.
    """
    return _deep_equal(strip_meta(a), strip_meta(b))
