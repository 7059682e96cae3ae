"""The MarketMiner runtime: place components on ranks, route, run, drain.

Execution model (per SPMD rank):

1. The workflow is placed on the communicator's ranks
   (:func:`placement_report`) — identically on every rank, so routing
   tables agree without communication.  Given a spare rank, each source
   gets a rank of its own and :func:`repro.mpi.topology.contract_dag`
   balances the rest of the DAG, by component weight, over the
   remaining ranks.
2. Each rank drives its local *source* components to completion; every
   ``emit`` routes either synchronously to a local component or as a
   message through the MPI substrate to the destination's host rank.
   Driving a source to completion starves nobody: a source's rank hosts
   nothing else, so no component there waits for the feed to end, and
   the ranks downstream handle each message as it arrives — orders leave
   while the feed is still streaming.  The one fallback is a
   communicator with no spare rank (size 1, or no more ranks than
   sources): the whole DAG is contracted as one, and components sharing
   a source's rank run only once that source has finished.  At size 1
   every edge is a synchronous call, so nothing waits there either.
3. End-of-stream tokens propagate shutdown: when a source finishes, or a
   component has received EOS on every inbound edge, it is stopped
   (``on_stop``, which may still emit) and forwards EOS on its outbound
   edges.  Per-(rank, rank) FIFO delivery guarantees EOS arrives after
   the data that preceded it.
4. A rank leaves its receive loop once all its components have stopped;
   a final all-gather assembles every component's ``result()`` on every
   rank.

The model is deadlock-free because sends are buffered (never block) and
every edge is guaranteed exactly one EOS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.marketminer.component import Context
from repro.marketminer.graph import GraphSpec, Workflow
from repro.mpi.api import Comm
from repro.mpi.topology import RankMap, contract_dag
from repro.obs import Obs, build_report, ensure_obs

#: Tag for all workflow traffic (collectives use negative tags).
DATA_TAG = 1

_DATA = "data"
_EOS = "eos"


@dataclass(frozen=True)
class PlacementReport:
    """Static view of a component→rank placement, for analysis tooling.

    Built by :func:`placement_report`: with a spare rank, sources hold
    ranks ``0..k-1`` alone and the rest of the DAG shares the others.
    ``loads[r]`` is the accumulated declared weight on rank ``r`` — the
    quantity the placement heuristic balances and the graph linter's
    rank-budget rule audits; the loads sum to the workflow's total weight.
    """

    size: int
    assignment: dict[str, int]
    loads: tuple[float, ...]

    def components_of(self, rank: int) -> tuple[str, ...]:
        """Components hosted on ``rank``, in placement order."""
        return tuple(c for c, r in self.assignment.items() if r == rank)

    def idle_ranks(self) -> tuple[int, ...]:
        """Ranks that host no component at all."""
        hosted = set(self.assignment.values())
        return tuple(r for r in range(self.size) if r not in hosted)


def placement_report(
    spec: GraphSpec | Workflow, size: int
) -> PlacementReport:
    """Compute the deterministic placement a runner of ``size`` ranks uses.

    With more ranks than the workflow has sources (components with no
    input ports), the ``k`` sources take ranks ``0..k-1`` in name order
    and :func:`~repro.mpi.topology.contract_dag` balances the rest of the
    graph, same weights, over ranks ``k..size-1``: a source's rank only
    feeds.  Otherwise (size 1, or ``size <= k``) the whole graph is one
    ``contract_dag`` call.  The runner, the graph linter's rank rules and
    the supervisor's resize moves all place through this function.

    Accepts either a built :class:`Workflow` or its plain-data
    :class:`GraphSpec`; the graph must be acyclic (the same precondition
    the runtime has).
    """
    if isinstance(spec, Workflow):
        spec = spec.spec()
    weights = {name: c.weight for name, c in spec.components.items()}
    dag = spec.to_networkx()
    sources = sorted(n for n, c in spec.components.items() if c.is_source)
    if 0 < len(sources) < size:
        assignment = {name: rank for rank, name in enumerate(sources)}
        rest = dag.subgraph(n for n in dag if n not in assignment)
        if rest:
            rest_map = contract_dag(
                rest, size - len(sources),
                weights={n: weights[n] for n in rest},
            )
            for name, rank in rest_map.assignment.items():
                assignment[name] = rank + len(sources)
    else:
        assignment = dict(contract_dag(dag, size, weights=weights).assignment)
    loads = [0.0] * size
    for name, rank in assignment.items():
        loads[rank] += weights.get(name, 1.0)
    return PlacementReport(
        size=size, assignment=assignment, loads=tuple(loads)
    )


class WorkflowRunner:
    """Runs a validated workflow over a communicator, SPMD."""

    def __init__(self, workflow: Workflow):
        workflow.validate()
        self.workflow = workflow

    def rank_map(self, size: int) -> RankMap:
        """Deterministic component→rank placement for ``size`` ranks."""
        return RankMap(placement_report(self.workflow, size).assignment, size)

    def run(
        self,
        comm: Comm,
        collect_stats: bool = False,
        obs_enabled: bool = False,
        pause: bool = False,
        fault_plan=None,
        fault_attempt: int = 0,
        flight_dump: "str | None" = None,
        obs_hook=None,
    ) -> dict[str, Any]:
        """Execute the workflow; every rank returns all component results.

        With ``collect_stats=True`` the result dict gains a ``"_runtime"``
        entry: per-rank counts of locally-dispatched vs cross-rank
        messages — the communication profile of the placement.

        With ``obs_enabled=True`` (or an enabled :class:`repro.obs.Obs`
        already attached to the communicator) each rank records full
        pipeline telemetry — handler latency histograms, per-port emit
        counters, end-of-stream timing, MPI traffic, a span tree — and the
        result dict gains an ``"_obs"`` entry holding the merged
        cross-rank report (identical on every rank; merged through the
        same allgather path as the component results).

        With ``pause=True`` the run is an *epoch*: end-of-stream calls
        ``on_pause`` instead of ``on_stop`` (no end-of-session
        finalisation), and the result dict gains a ``"_snapshots"`` entry
        mapping every stateful component to its checkpoint — the EOS
        drain guarantees the snapshots form a consistent cut.

        With a ``fault_plan`` (see :mod:`repro.faults.plan`), every rank
        attaches a :class:`~repro.faults.injector.FaultInjector` for
        ``fault_attempt`` to the communicator for the duration of the run
        and the result dict gains a ``"_faults"`` entry: the per-rank
        deterministic fault event logs.

        With ``flight_dump`` set to a directory, every rank keeps a
        flight recorder (implies observability) and dumps its event ring
        to ``rank<r>-attempt<a>.jsonl`` there — with the failure's class
        name as the reason when the run dies, ``"end"`` when it
        completes.  ``obs_hook(rank, obs)``, when given, is called with
        each rank's live obs handle as the rank starts — the seam the
        ``repro top`` hub registers through.
        """
        obs = ensure_obs(comm, obs_enabled or flight_dump is not None)
        if flight_dump is not None and obs.flight is None:
            from repro.obs.live.flight import FlightRecorder

            obs.flight = FlightRecorder(rank=comm.rank)
        if obs_hook is not None:
            obs_hook(comm.rank, obs)
        injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(
                fault_plan, comm.rank, attempt=fault_attempt, obs=obs
            )
            comm.attach_faults(injector)
        try:
            runtime = _RankRuntime(
                self.workflow, comm, self.rank_map(comm.size), obs=obs,
                pause=pause,
            )
            result = runtime.run(collect_stats=collect_stats, injector=injector)
        except BaseException as exc:
            if flight_dump is not None and obs.flight is not None:
                self._dump_flight(
                    obs, comm, flight_dump, fault_attempt,
                    reason=type(exc).__name__,
                )
            raise
        finally:
            if injector is not None:
                comm.attach_faults(None)
        if flight_dump is not None and obs.flight is not None:
            self._dump_flight(obs, comm, flight_dump, fault_attempt, "end")
        return result

    @staticmethod
    def _dump_flight(obs, comm, directory, attempt: int, reason: str) -> None:
        from pathlib import Path

        obs.flight.dump_jsonl(
            Path(directory) / f"rank{comm.rank}-attempt{attempt}.jsonl",
            reason=reason,
        )


class _RankRuntime:
    """Per-rank execution state."""

    def __init__(
        self,
        workflow: Workflow,
        comm: Comm,
        rank_map: RankMap,
        obs: Obs | None = None,
        pause: bool = False,
    ):
        self.workflow = workflow
        self.comm = comm
        self.rank_map = rank_map
        self.obs = obs if obs is not None else Obs(enabled=False)
        self.pause = pause
        self.local = {
            name: workflow.component(name)
            for name in rank_map.components_of(comm.rank)
        }
        # Routing: (component, out_port) -> [(dst, dst_port, dst_rank)].
        self.routes: dict[tuple[str, str], list[tuple[str, str, int]]] = {}
        for e in workflow.edges:
            self.routes.setdefault((e.src, e.src_port), []).append(
                (e.dst, e.dst_port, rank_map.rank_of(e.dst))
            )
        self.eos_needed = {
            name: len(workflow.in_edges(name)) for name in workflow.components
        }
        self.eos_seen: dict[str, int] = {name: 0 for name in self.local}
        self.stopped: set[str] = set()
        self.contexts = {
            name: Context(name, self._emit, obs=self.obs) for name in self.local
        }
        self.messages_local = 0
        self.messages_remote = 0
        # Per-component accumulated handler time: name -> [wall, cpu, calls].
        self._handler_time: dict[str, list[float]] = {
            name: [0.0, 0.0, 0] for name in self.local
        }
        self._t_start = time.perf_counter()

    def _timed_handler(self, name: str, hist_suffix: str, fn, *args) -> None:
        """Run one component handler, recording latency and totals."""
        t0 = time.perf_counter()
        c0 = time.process_time()
        fn(*args)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        acc = self._handler_time[name]
        acc[0] += wall
        acc[1] += cpu
        acc[2] += 1
        self.obs.metrics.histogram(
            f"component.{name}.{hist_suffix}.seconds"
        ).observe(wall)

    # -- emission & dispatch -------------------------------------------------

    def _emit(self, src: str, port: str, payload: Any) -> None:
        if src in self.stopped:
            raise RuntimeError(
                f"component {src!r} emitted after it was stopped"
            )
        comp = self.workflow.component(src)
        if port not in comp.output_ports:
            raise ValueError(
                f"{src!r} emitted on undeclared port {port!r} "
                f"(has {list(comp.output_ports)})"
            )
        if self.obs.enabled:
            self.obs.metrics.counter(f"component.{src}.emit[{port}]").inc()
            flight = self.obs.flight
            if flight is not None:
                flight.record_emit(src, port)
        for dst, dst_port, dst_rank in self.routes.get((src, port), []):
            if dst_rank == self.comm.rank:
                self.messages_local += 1
                self._deliver_data(dst, dst_port, payload)
            else:
                self.messages_remote += 1
                self.comm.send((_DATA, dst, dst_port, payload), dst_rank, DATA_TAG)

    def _deliver_data(self, dst: str, dst_port: str, payload: Any) -> None:
        if dst in self.stopped:
            raise RuntimeError(
                f"data for stopped component {dst!r} on port {dst_port!r} "
                f"(EOS protocol violation)"
            )
        comp = self.local[dst]
        if self.obs.enabled:
            self._timed_handler(
                dst, "on_message", comp.on_message,
                self.contexts[dst], dst_port, payload,
            )
        else:
            comp.on_message(self.contexts[dst], dst_port, payload)

    def _deliver_eos(self, dst: str) -> None:
        self.eos_seen[dst] += 1
        if self.eos_seen[dst] > self.eos_needed[dst]:
            raise RuntimeError(f"component {dst!r} received too many EOS tokens")
        if self.eos_seen[dst] == self.eos_needed[dst]:
            self._stop_component(dst)

    def _stop_component(self, name: str) -> None:
        comp = self.local[name]
        # An epoch boundary quiesces (on_pause) instead of finalising.
        handler = comp.on_pause if self.pause else comp.on_stop
        suffix = "on_pause" if self.pause else "on_stop"
        if self.obs.enabled:
            self._timed_handler(name, suffix, handler, self.contexts[name])
            self.obs.metrics.gauge(f"component.{name}.eos_seconds").set(
                time.perf_counter() - self._t_start
            )
        else:
            handler(self.contexts[name])
        self.stopped.add(name)
        # Forward one EOS per outbound edge, after any on_stop emissions.
        for port in comp.output_ports:
            for dst, _dst_port, dst_rank in self.routes.get((name, port), []):
                if dst_rank == self.comm.rank:
                    self._deliver_eos(dst)
                else:
                    self.comm.send((_EOS, dst, None, None), dst_rank, DATA_TAG)

    # -- main loop ---------------------------------------------------------------

    def run(self, collect_stats: bool = False, injector=None) -> dict[str, Any]:
        """Drive local sources, then pump messages until all have stopped.

        Phase 1 runs each local source to completion before the receive
        loop starts.  That is harmless because of the placement: whenever
        the communicator has a spare rank, a source's rank hosts that
        source alone, so no component waits there for the feed to end.
        """
        session_span = self.obs.trace.span(
            "session", rank=self.comm.rank, components=len(self.local)
        )
        with session_span as root:
            # Phase 1: drive local sources (deterministic name order).
            for name in sorted(self.local):
                comp = self.local[name]
                if comp.is_source:
                    if self.obs.enabled:
                        self._timed_handler(
                            name, "generate", comp.generate, self.contexts[name]
                        )
                    else:
                        comp.generate(self.contexts[name])
                    self._stop_component(name)

            # Phase 2: pump remote messages until every local component
            # stopped.
            while len(self.stopped) < len(self.local):
                kind, dst, dst_port, payload = self.comm.recv(tag=DATA_TAG)
                if dst not in self.local:
                    raise RuntimeError(
                        f"rank {self.comm.rank} received traffic for "
                        f"non-local component {dst!r}"
                    )
                if kind == _DATA:
                    self._deliver_data(dst, dst_port, payload)
                elif kind == _EOS:
                    self._deliver_eos(dst)
                else:  # pragma: no cover - protocol corruption
                    raise RuntimeError(f"unknown message kind {kind!r}")

            if self.obs.enabled:
                # One synthetic span per local component, in deterministic
                # name order, parented under this rank's session span —
                # the per-rank slice of the Figure-1 DAG.
                for name in sorted(self.local):
                    wall, cpu, calls = self._handler_time[name]
                    self.obs.trace.add_span(
                        name,
                        wall,
                        cpu,
                        parent=root.id,
                        rank=self.comm.rank,
                        invocations=calls,
                    )

        # Phase 3: assemble results everywhere.
        local_results = {name: comp.result() for name, comp in self.local.items()}
        merged: dict[str, Any] = {}
        parts = self.comm.allgather(local_results)
        for part in parts:
            merged.update(part)
        if self.pause:
            # Checkpoint: the EOS drain above guarantees no in-flight
            # traffic, so the snapshots are a consistent cut of the
            # session at the epoch boundary.
            local_snaps = {}
            for name, comp in self.local.items():
                snap = comp.snapshot()
                if snap is not None:
                    local_snaps[name] = snap
            snapshot_parts = self.comm.allgather(local_snaps)
            checkpoint: dict[str, Any] = {}
            for part in snapshot_parts:
                checkpoint.update(part)
            merged["_snapshots"] = checkpoint
            flight = self.obs.flight
            if flight is not None:
                flight.record_checkpoint()
        if injector is not None:
            event_parts = self.comm.allgather(list(injector.events))
            merged["_faults"] = {
                rank: events for rank, events in enumerate(event_parts)
            }
        if collect_stats:
            stats = self.comm.allgather(
                {
                    "messages_local": self.messages_local,
                    "messages_remote": self.messages_remote,
                    "components": sorted(map(str, self.local)),
                }
            )
            merged["_runtime"] = {rank: s for rank, s in enumerate(stats)}
        if self.obs.enabled:
            # Merge per-rank registries/traces over the same gather path
            # the results used; every rank ends with the identical report.
            rank_dicts = self.comm.allgather(self.obs.to_dict())
            merged["_obs"] = build_report(dict(enumerate(rank_dicts)))
        return merged
