"""Multi-tenant session registry: worker threads, bounded queues, audit.

The :class:`SessionManager` is the serving layer's stateful core: it owns
up to ``max_live`` concurrent :class:`Session` objects — live Figure-1
pipelines run under :func:`repro.faults.run_supervised_session` and
store- or synthetic-backed sequential backtest jobs — each on its own
daemon worker thread.

Lock discipline (the low-latency half of the design): HTTP handler
threads never block on a session's work.  The manager lock guards only
the registry dict; each session's lock guards only its status fields;
commands travel through a *bounded* per-session ``queue.Queue`` and are
consumed by the worker at its control gates (epoch boundaries for
pipelines, day boundaries for backtests) — so a paused, killed or even
wedged session can never stall another tenant's request.

Everything a session accumulates per request is bounded or ring-backed
(``tests/test_serve_sessions.py`` pins each bound): the audit log is a
last-``audit_capacity`` :class:`~repro.obs.live.rings.EventRing` whose
``n_seen`` keeps the append-only sequence numbering even after old
entries rotate out, the command queue rejects (HTTP 429) instead of
growing, and terminated sessions are pruned oldest-first past ``retain``.
"""

from __future__ import annotations

import os
import queue
import re
import threading
import time
from typing import Any

from repro.marketminer.components.strategy import PairTradingComponent
from repro.marketminer.session import SessionControl, SessionKilled
from repro.obs.live.rings import EventRing

# -- session lifecycle states ------------------------------------------------

PENDING = "pending"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
KILLED = "killed"

#: States a session never leaves; commands on these return 409.
TERMINAL = frozenset({DONE, FAILED, KILLED})

#: The command verbs a live session accepts.
COMMANDS = ("pause", "resume", "kill", "resize")

#: Largest pool a served session may resize to (mirrors the spec
#: schema's ``ranks`` ceiling; the MPI backend capacity is far higher).
RESIZE_MAX = 8

KINDS = ("figure1", "backtest")

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- error taxonomy (the HTTP layer maps .status straight to the code) -------


class ServeError(Exception):
    """Base class for serving-layer errors; carries the HTTP status."""

    status = 400


class BadRequest(ServeError):
    """Malformed id, spec, command or parameter (400)."""

    status = 400


class UnknownSession(ServeError):
    """No session with that id (404)."""

    status = 404


class DuplicateSession(ServeError):
    """Submit re-used an existing session id (409)."""

    status = 409


class SessionDead(ServeError):
    """Command sent to a session in a terminal state (409)."""

    status = 409


class CommandUnsupported(ServeError):
    """The session's kind cannot perform this command (409).

    Distinct from :class:`BadRequest`: the verb is well-formed and the
    session exists, but the transition is illegal for it — e.g. resizing
    a backtest session, whose worker has no rank pool to resize.
    """

    status = 409


class ResizePending(ServeError):
    """A resize is already queued and not yet applied (409).

    The control handle holds a single pending-resize slot consumed at
    the next epoch boundary; a second resize before that boundary —
    while the first is still in the command queue or already in that
    slot — would silently overwrite it, so the API rejects it instead.
    Retry after the boundary applies the pending one.
    """

    status = 409


class ManagerFull(ServeError):
    """Live-session or watchlist-user capacity reached (429)."""

    status = 429


class CommandBacklog(ServeError):
    """The session's bounded command queue is full (429)."""

    status = 429


# -- spec validation ---------------------------------------------------------

#: Per-kind spec schema: key -> (type, default, lo, hi).  ``None`` bounds
#: mean unchecked; a ``None`` default means optional-without-value.
_SPEC_SCHEMA: dict[str, dict[str, tuple]] = {
    "figure1": {
        "symbols": (int, 4, 2, 61),
        "seconds": (int, 1800, 1200, 23_400),
        "seed": (int, 2008, 0, None),
        "ranks": (int, 2, 1, 8),
        "checkpoint_every": (int, 20, 1, 10_000),
        "timeout": (float, 10.0, 0.1, 600.0),
        "max_restarts": (int, 3, 0, 100),
        "fault_plan": (str, None, None, None),
    },
    "backtest": {
        "symbols": (int, 6, 2, 61),
        "seconds": (int, 1800, 1200, 23_400),
        "seed": (int, 2008, 0, None),
        "days": (int, 2, 1, 60),
        "levels": (int, 2, 1, 14),
        "store_root": (str, None, None, None),
    },
}


def validate_spec(kind: str, spec: dict | None) -> dict:
    """Normalise and bounds-check a session spec; 400s are pointed.

    Unknown keys, wrong types and out-of-range values each raise
    :class:`BadRequest` naming the offending key, the offered value and
    what would have been accepted.
    """
    if kind not in KINDS:
        raise BadRequest(
            f"unknown session kind {kind!r}; expected one of {list(KINDS)}"
        )
    schema = _SPEC_SCHEMA[kind]
    spec = dict(spec or {})
    unknown = sorted(set(spec) - set(schema))
    if unknown:
        raise BadRequest(
            f"unknown spec key {unknown[0]!r} for kind {kind!r}; "
            f"allowed keys: {sorted(schema)}"
        )
    out: dict[str, Any] = {}
    for key, (typ, default, lo, hi) in schema.items():
        if key not in spec or spec[key] is None:
            out[key] = default
            continue
        value = spec[key]
        if typ is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, typ) or isinstance(value, bool):
            raise BadRequest(
                f"spec key {key!r} must be {typ.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if lo is not None and value < lo:
            raise BadRequest(f"spec key {key!r} must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise BadRequest(f"spec key {key!r} must be <= {hi}, got {value}")
        out[key] = value
    _check_spec_extras(kind, out)
    return out


def _check_spec_extras(kind: str, spec: dict) -> None:
    """Cross-field and referential checks beyond the per-key schema."""
    if kind == "figure1" and spec["fault_plan"] is not None:
        from repro.faults import named_plan

        try:
            named_plan(spec["fault_plan"], size=spec["ranks"])
        except (KeyError, ValueError) as exc:
            raise BadRequest(
                f"spec key 'fault_plan': no such plan "
                f"{spec['fault_plan']!r} ({exc})"
            ) from None
    if kind == "backtest" and spec["store_root"] is not None:
        if not os.path.isdir(spec["store_root"]):
            raise BadRequest(
                f"spec key 'store_root': {spec['store_root']!r} is not a "
                f"directory (ingest one with `repro store ingest`)"
            )


# -- one tenant session ------------------------------------------------------


class Session:
    """One tenant's job: a worker thread plus its control surface.

    State only ever moves forward through the lifecycle::

        pending -> running <-> paused -> done | failed | killed

    ``pause``/``resume``/``kill`` arrive through the bounded command
    queue and are applied by :meth:`_on_gate`, which the session's
    :class:`~repro.marketminer.session.SessionControl` invokes at every
    epoch/day boundary and on every poll while parked in pause.
    """

    def __init__(
        self,
        session_id: str,
        kind: str,
        spec: dict,
        user: str,
        audit_capacity: int = 1024,
        command_slots: int = 32,
        flight_dir: str | None = None,
        poll_interval: float = 0.02,
    ):
        self.id = session_id
        self.kind = kind
        self.spec = spec
        self.user = user
        self.created_at = time.time()
        self.state = PENDING
        self.error: str | None = None
        self.summary: dict = {}
        self.flight_dir = flight_dir
        self.audit = EventRing(audit_capacity)
        self.commands: queue.Queue = queue.Queue(maxsize=command_slots)
        self.control = SessionControl(
            poll_interval=poll_interval,
            on_gate=self._on_gate,
            on_resize=self._on_resize,
        )
        self.hub = None
        if kind == "figure1":
            from repro.obs.live import TelemetryHub

            self.hub = TelemetryHub(capacity=240)
        self._days_done = 0
        #: Target of a resize accepted but still in the command queue.
        self._queued_resize: int | None = None
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    # -- audit ---------------------------------------------------------------

    def record_audit(self, actor: str, op: str, detail: str = "") -> None:
        """Append one audit entry (actor, op, wall timestamp, seq)."""
        with self._lock:
            self.audit.append(
                {
                    "seq": self.audit.n_seen,
                    "t": time.time(),
                    "actor": actor,
                    "op": op,
                    "detail": detail,
                }
            )

    def audit_entries(self, limit: int | None = None) -> dict:
        """The retained audit tail (oldest rotated out past capacity)."""
        with self._lock:
            entries = self.audit.events()
            total, dropped = self.audit.n_seen, self.audit.n_dropped
        if limit is not None:
            entries = entries[-limit:]
        return {"entries": entries, "total": total, "dropped": dropped}

    # -- command intake (HTTP threads) ---------------------------------------

    def submit_command(self, op: str, actor: str, arg=None) -> None:
        """Queue a command; 429 (not a hang) when the queue is full.

        ``arg`` carries the command's operand — today only ``resize``
        has one (the target pool size, already validated by the
        manager); a second one while the first is still outstanding,
        queued here or at the control handle, is :class:`ResizePending`.
        """
        if op == "resize":
            with self._lock:
                pending = self._pending_resize()
                if pending is not None:
                    raise ResizePending(
                        f"session {self.id!r} already has a resize to "
                        f"{pending} pending; wait for the next epoch "
                        f"boundary to apply it"
                    )
                self._queued_resize = arg
        try:
            self.commands.put_nowait((op, actor, arg))
        except queue.Full:
            if op == "resize":
                with self._lock:
                    self._queued_resize = None
            self.record_audit(actor, op, detail="rejected: command queue full")
            raise CommandBacklog(
                f"session {self.id!r} has {self.commands.maxsize} commands "
                f"pending; retry once the session reaches its next gate"
            ) from None
        detail = "queued" if arg is None else f"queued target={arg}"
        self.record_audit(actor, op, detail=detail)

    def _pending_resize(self) -> int | None:
        """Outstanding resize target, queued or at the control handle."""
        if self._queued_resize is not None:
            return self._queued_resize
        return self.control.pending_resize

    def _on_gate(self, control: SessionControl) -> None:
        """Drain queued commands at a control gate; sync visible state."""
        while True:
            try:
                op, actor, arg = self.commands.get_nowait()
            except queue.Empty:
                break
            if op == "pause":
                control.pause()
            elif op == "resume":
                control.resume()
            elif op == "kill":
                control.kill()
            elif op == "resize":
                # Records intent only; the supervisor consumes it at the
                # next epoch boundary and reports back via _on_resize.
                # Hand over before releasing the queued slot so the
                # resize is never invisible to submit_command.
                control.request_resize(arg)
                with self._lock:
                    self._queued_resize = None
            detail = "applied" if arg is None else f"applied target={arg}"
            self.record_audit(actor, op, detail=detail)
        with self._lock:
            if self.state == RUNNING and control.paused:
                self.state = PAUSED
            elif self.state == PAUSED and not control.paused:
                self.state = RUNNING

    def _on_resize(self, epoch: int, old: int, new: int) -> None:
        """Audit an applied pool change (voluntary or crash-as-shrink)."""
        self.record_audit(
            "supervisor", "resize-applied",
            detail=f"epoch={epoch} {old}->{new}",
        )

    # -- worker --------------------------------------------------------------

    def start(self) -> None:
        """Launch the worker thread (daemon: it never blocks shutdown)."""
        self._thread = threading.Thread(
            target=self._run, name=f"serve-session-{self.id}", daemon=True
        )
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        with self._lock:
            self.state = RUNNING
        try:
            if self.kind == "figure1":
                summary = self._run_figure1()
            else:
                summary = self._run_backtest()
        except SessionKilled:
            with self._lock:
                self.state = KILLED
            self.record_audit("worker", "exit", detail="killed at gate")
        except BaseException as exc:
            with self._lock:
                self.state = FAILED
                self.error = f"{type(exc).__name__}: {exc}"
            self.record_audit("worker", "exit", detail=f"failed: {self.error}")
        else:
            with self._lock:
                self.state = DONE
                self.summary = summary
            self.record_audit("worker", "exit", detail="done")

    def _run_figure1(self) -> dict:
        """A supervised live pipeline with checkpoints at every gate."""
        from repro.faults import named_plan, run_supervised_session

        spec = self.spec
        plan = (
            named_plan(spec["fault_plan"], size=spec["ranks"])
            if spec["fault_plan"]
            else None
        )
        hub = self.hub
        hub.start(0.25)
        try:
            run = run_supervised_session(
                self._build_workflow,
                size=spec["ranks"],
                plan=plan,
                checkpoint_every=spec["checkpoint_every"],
                max_restarts=spec["max_restarts"],
                obs_enabled=True,
                obs_hook=hub.register,
                control=self.control,
                flight_dump=self.flight_dir,
                backend_options={"default_timeout": spec["timeout"]},
            )
        finally:
            hub.stop()
        results = run.results
        n_trades = sum(
            len(v) for v in results["pair_trading"]["trades"].values()
        )
        return {
            "bars": results["bar_accumulator"]["bars_emitted"],
            "trades": n_trades,
            "attempts": run.attempts,
            "restarts": run.restarts,
            "checkpoints": run.checkpoints,
            "pool_sizes": list(run.pool_sizes),
            "resizes": [list(r) for r in run.resizes],
        }

    def _build_workflow(self):
        """Fresh Figure-1 workflow per supervisor attempt (build seam)."""
        from repro.marketminer.session import build_synthetic_figure1
        from repro.strategy.params import StrategyParams

        spec = self.spec
        return build_synthetic_figure1(
            spec["symbols"], spec["seconds"], spec["seed"],
            StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001),
        )

    def _run_backtest(self) -> dict:
        """A store- or synthetic-backed Approach-2 job, gated per day."""
        from repro.backtest.data import BarProvider
        from repro.backtest.runner import SequentialBacktester
        from repro.strategy.params import StrategyParams
        from repro.util.timeutil import TimeGrid

        spec = self.spec
        if spec["store_root"]:
            from repro.store import StoreQuoteSource, StoreReader

            market = StoreQuoteSource(StoreReader(spec["store_root"]))
            seconds = market.trading_seconds
            days = market.days[: spec["days"]]
        else:
            from repro.taq.synthetic import (
                SyntheticMarket,
                SyntheticMarketConfig,
            )
            from repro.taq.universe import default_universe

            market = SyntheticMarket(
                default_universe(spec["symbols"]),
                SyntheticMarketConfig(trading_seconds=spec["seconds"]),
                seed=spec["seed"],
            )
            seconds = spec["seconds"]
            days = list(range(spec["days"]))
        provider = BarProvider(market, TimeGrid(30, trading_seconds=seconds))
        engine = SequentialBacktester(provider, share_correlation=True)
        pairs = list(market.universe.pairs())
        grid = [
            StrategyParams(
                m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001 * level
            )
            for level in range(1, spec["levels"] + 1)
        ]
        n_trades = 0
        for day in days:
            self.control.gate(day)
            store = engine.run(pairs, grid, [day])
            n_trades += store.n_trades
            with self._lock:
                self._days_done += 1
        return {
            "days": len(days),
            "pairs": len(pairs),
            "param_sets": len(grid),
            "trades": n_trades,
        }

    # -- query surface -------------------------------------------------------

    def status(self) -> dict:
        """The session's full status document (every field JSON-safe)."""
        checkpoint = self.control.latest_checkpoint()
        with self._lock:
            return {
                "id": self.id,
                "kind": self.kind,
                "user": self.user,
                "state": self.state,
                "created_at": self.created_at,
                "spec": dict(self.spec),
                "error": self.error,
                "summary": dict(self.summary),
                "progress": {
                    "gates": self.control.n_gates,
                    "checkpoints": self.control.n_checkpoints,
                    "last_checkpoint_epoch": (
                        checkpoint[0] if checkpoint is not None else None
                    ),
                    "days_done": self._days_done,
                },
                "pause_requested": self.control.paused,
                "kill_requested": self.control.killed,
                "commands_pending": self.commands.qsize(),
                "audit_entries": self.audit.n_seen,
                "pool": {
                    "size": (
                        self.control.pool_size
                        if self.control.pool_size is not None
                        else self.spec.get("ranks")
                    ),
                    "pending_resize": self._pending_resize(),
                    "restarts": self.control.n_restarts,
                    "resizes": self.control.resize_history(),
                },
            }

    def positions(self) -> dict:
        """Open positions and trade counts from the latest checkpoint.

        Live queries read the last *consistent cut* of the stream (the
        supervisor's checkpoint), never the in-flight component state —
        a mid-epoch read would see a torn picture.
        """
        if self.kind != "figure1":
            raise BadRequest(
                f"session {self.id!r} is a {self.kind} job; live positions "
                f"exist only for kind 'figure1'"
            )
        checkpoint = self.control.latest_checkpoint()
        if checkpoint is None:
            return {"epoch": None, "positions": [], "trades": 0}
        epoch, snapshots = checkpoint
        rows, n_trades = PairTradingComponent.checkpoint_positions(
            snapshots.get("pair_trading", {})
        )
        return {"epoch": epoch, "positions": rows, "trades": n_trades}

    def signals(self, limit: int = 100) -> dict:
        """Latest correlation signal per pair from the checkpointed engine."""
        if self.kind != "figure1":
            raise BadRequest(
                f"session {self.id!r} is a {self.kind} job; live signals "
                f"exist only for kind 'figure1'"
            )
        checkpoint = self.control.latest_checkpoint()
        if checkpoint is None:
            return {"interval": None, "signals": []}
        _epoch, snapshots = checkpoint
        state = snapshots.get("correlation", {})
        matrix = state.get("last_good")
        rows: list[dict] = []
        if matrix is not None:
            if isinstance(matrix, dict):  # pair-block engine form
                items = sorted(matrix.items())
            else:  # full n x n matrix
                n = matrix.shape[0]
                items = [
                    ((i, j), float(matrix[i, j]))
                    for i in range(n)
                    for j in range(i + 1, n)
                ]
            for (i, j), corr in items[:limit]:
                rows.append({"pair": [i, j], "corr": float(corr)})
        return {
            "interval": state.get("last_good_s"),
            "stale_served": state.get("stale_served", 0),
            "signals": rows,
        }

    def telemetry(self, window: float = 5.0) -> dict:
        """Live rates off this session's per-rank samplers (figure1 only)."""
        entry: dict[str, Any] = {"state": self.state, "kind": self.kind}
        hub = self.hub
        if hub is None:
            return entry
        entry["pool_size"] = (
            self.control.pool_size
            if self.control.pool_size is not None
            else self.spec.get("ranks")
        )
        entry["restarts"] = self.control.n_restarts
        entry["resizes"] = len(self.control.resize_history())
        with hub._lock:
            samplers = dict(hub.samplers)
        entry["ranks"] = len(samplers)
        entry["sent_per_s"] = sum(
            s.rate("mpi.sent.messages", window) for s in samplers.values()
        )
        entry["recv_per_s"] = sum(
            s.rate("mpi.recv.messages", window) for s in samplers.values()
        )
        return entry


# -- the registry ------------------------------------------------------------


class SessionManager:
    """Owns every tenant session behind one submit/command/query surface.

    ``max_live`` bounds concurrently non-terminal sessions (submit past
    it is a 429); ``retain`` bounds the registry dict itself — once
    total sessions reach it, the oldest *terminal* sessions are pruned,
    so a long-running server's memory stays flat.  Per-user watchlists
    are capped in both user count and entries per list.
    """

    def __init__(
        self,
        max_live: int = 8,
        retain: int = 64,
        flight_root: str | None = None,
        watchlist_users: int = 64,
        watchlist_items: int = 128,
        audit_capacity: int = 1024,
        command_slots: int = 32,
        poll_interval: float = 0.02,
    ):
        if retain <= max_live:
            raise ValueError(
                f"retain ({retain}) must exceed max_live ({max_live}) or "
                f"live sessions could block pruning"
            )
        self.max_live = max_live
        self.retain = retain
        self.flight_root = flight_root
        self.watchlist_users = watchlist_users
        self.watchlist_items = watchlist_items
        self.audit_capacity = audit_capacity
        self.command_slots = command_slots
        self.poll_interval = poll_interval
        self.started_at = time.time()
        self._sessions: dict[str, Session] = {}
        self._watchlists: dict[str, tuple[str, ...]] = {}
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def submit(
        self, session_id: str, kind: str, spec: dict | None, user: str
    ) -> dict:
        """Validate, register and start one session; returns its status."""
        if not isinstance(session_id, str) or not _ID_RE.match(session_id):
            raise BadRequest(
                f"bad session id {session_id!r}: ids are 1-64 chars of "
                f"[A-Za-z0-9_.-] starting alphanumeric"
            )
        spec = validate_spec(kind, spec)
        flight_dir = None
        if self.flight_root is not None and kind == "figure1":
            flight_dir = os.path.join(self.flight_root, session_id)
            os.makedirs(flight_dir, exist_ok=True)
        session = Session(
            session_id,
            kind,
            spec,
            user,
            audit_capacity=self.audit_capacity,
            command_slots=self.command_slots,
            flight_dir=flight_dir,
            poll_interval=self.poll_interval,
        )
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is not None:
                raise DuplicateSession(
                    f"session {session_id!r} already exists "
                    f"(state {existing.state!r}); pick a fresh id"
                )
            live = sum(
                1 for s in self._sessions.values() if s.state not in TERMINAL
            )
            if live >= self.max_live:
                raise ManagerFull(
                    f"{live} live sessions (max {self.max_live}); kill or "
                    f"wait for one to finish"
                )
            self._prune_locked()
            self._sessions[session_id] = session
        session.record_audit(user, "submit", detail=kind)
        session.start()
        return session.status()

    def _prune_locked(self) -> None:
        """Drop oldest terminal sessions once the registry hits ``retain``."""
        while len(self._sessions) >= self.retain:
            oldest = None
            for sid, s in self._sessions.items():
                if s.state in TERMINAL and (
                    oldest is None
                    or s.created_at < self._sessions[oldest].created_at
                ):
                    oldest = sid
            if oldest is None:  # all live: submit() already bounded this
                return
            del self._sessions[oldest]

    def get(self, session_id: str) -> Session:
        """The session, or a 404 naming the known ids."""
        with self._lock:
            session = self._sessions.get(session_id)
            known = sorted(self._sessions)
        if session is None:
            raise UnknownSession(
                f"no session {session_id!r}; known ids: {known}"
            )
        return session

    def command(
        self, session_id: str, op: str, actor: str, target: int | None = None
    ) -> dict:
        """Route one command verb to a live session's bounded queue.

        ``resize`` carries its ``target`` pool size and has its own
        rejection ladder: kind must be ``figure1`` (409
        :class:`CommandUnsupported` — backtest jobs have no rank pool;
        checked before liveness, so the answer does not depend on
        whether a short job has already finished),
        target must be an int in ``1..RESIZE_MAX`` (400), and at most
        one resize may be outstanding at a time (409
        :class:`ResizePending` — a second request before the epoch
        boundary would silently clobber the first).
        """
        if op not in COMMANDS:
            raise BadRequest(
                f"unknown command {op!r}; expected one of {list(COMMANDS)}"
            )
        session = self.get(session_id)
        if op == "resize" and session.kind != "figure1":
            raise CommandUnsupported(
                f"session {session_id!r} is a {session.kind} job; only "
                f"kind 'figure1' runs on a resizable rank pool"
            )
        if session.state in TERMINAL:
            raise SessionDead(
                f"session {session_id!r} is {session.state}; "
                f"commands apply only to live sessions"
            )
        arg = None
        if op == "resize":
            if not isinstance(target, int) or isinstance(target, bool):
                raise BadRequest(
                    "resize requires an integer 'target' pool size "
                    "(e.g. ?target=4)"
                )
            if not 1 <= target <= RESIZE_MAX:
                raise BadRequest(
                    f"resize target must be in 1..{RESIZE_MAX}, got {target}"
                )
            arg = target
        elif target is not None:
            raise BadRequest(
                f"command {op!r} takes no 'target' parameter"
            )
        session.submit_command(op, actor, arg)
        return session.status()

    def kill_all(self, join_timeout: float = 5.0) -> None:
        """Best-effort shutdown: kill every live session and join briefly."""
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            if session.state not in TERMINAL:
                session.control.kill()
        for session in sessions:
            session.join(join_timeout)

    # -- queries -------------------------------------------------------------

    def counts(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for s in self._sessions.values():
                states[s.state] = states.get(s.state, 0) + 1
            live = sum(
                1 for s in self._sessions.values() if s.state not in TERMINAL
            )
            return {"total": len(self._sessions), "live": live, **states}

    def list_sessions(self) -> list[dict]:
        with self._lock:
            sessions = sorted(
                self._sessions.values(), key=lambda s: (s.created_at, s.id)
            )
        return [s.status() for s in sessions]

    def telemetry(self, window: float = 5.0) -> dict:
        with self._lock:
            sessions = list(self._sessions.items())
        return {sid: s.telemetry(window) for sid, s in sorted(sessions)}

    # -- per-user watchlists -------------------------------------------------

    def set_watchlist(self, user: str, symbols) -> dict:
        """Replace a user's watchlist; capped in users and entries."""
        if not isinstance(symbols, list) or not all(
            isinstance(s, str) and 0 < len(s) <= 16 for s in symbols
        ):
            raise BadRequest(
                "watchlist body must be {\"symbols\": [\"XOM\", ...]} with "
                "1-16 character ticker strings"
            )
        if len(symbols) > self.watchlist_items:
            raise BadRequest(
                f"watchlist holds at most {self.watchlist_items} symbols, "
                f"got {len(symbols)}"
            )
        with self._lock:
            if (
                user not in self._watchlists
                and len(self._watchlists) >= self.watchlist_users
            ):
                raise ManagerFull(
                    f"{len(self._watchlists)} watchlist users "
                    f"(max {self.watchlist_users})"
                )
            # Growth is capped by the watchlist_users check above; existing
            # users only ever replace their entry.
            self._watchlists[user] = tuple(symbols)
        return {"user": user, "symbols": list(symbols)}

    def watchlist(self, user: str) -> dict:
        with self._lock:
            symbols = list(self._watchlists.get(user, ()))
        return {"user": user, "symbols": symbols}
