"""repro.analysis — DAG/comm correctness checkers and the repo's lint.

Two static passes and one dynamic checker over the same diagnostic model:

* :mod:`repro.analysis.graphlint` — static validation of MarketMiner
  graph specs (cycles, orphans, arity, rank budgets, tag collisions);
* :mod:`repro.analysis.repolint` — every source rule from one parse
  (:mod:`repro.analysis.deepcheck`): the snapshot()/restore() contract,
  clock reads in component run scope, corr/backtest docstrings;
* :mod:`repro.analysis.commcheck` + :mod:`repro.analysis.commtrace` +
  :mod:`repro.analysis.replay` — dynamic trace analysis over the MPI
  substrate (message leaks, wildcard-receive races with deterministic
  replay confirmation, collective mismatches, sync-cycle deadlocks).

The static passes are ``repro lint`` (see :mod:`repro.cli`);
:data:`repro.analysis.diagnostics.RULES` is their one rule table.
"""

from repro.analysis.commcheck import (
    Race,
    check_collectives,
    check_leaks,
    check_rank_errors,
    check_sync_cycles,
    check_timeouts,
    check_trace,
    find_wildcard_races,
)
from repro.analysis.commtrace import (
    CollectiveEvent,
    CommTrace,
    CommTracer,
    RankTrace,
    RecvEvent,
    SendEvent,
    TimeoutEvent,
    TracedRun,
    run_traced,
)
from repro.analysis.deepcheck import ModuleIndex, check_state
from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
    list_rules,
)
from repro.analysis.graphlint import lint_graph
from repro.analysis.replay import ReplayResult, replay_race
from repro.analysis.repolint import lint_source, lint_tree

__all__ = [
    "CollectiveEvent",
    "CommTrace",
    "CommTracer",
    "Diagnostic",
    "DiagnosticReport",
    "Location",
    "ModuleIndex",
    "RULES",
    "Race",
    "RankTrace",
    "RecvEvent",
    "ReplayResult",
    "SendEvent",
    "Severity",
    "TimeoutEvent",
    "TracedRun",
    "check_collectives",
    "check_leaks",
    "check_state",
    "check_rank_errors",
    "check_sync_cycles",
    "check_timeouts",
    "check_trace",
    "find_wildcard_races",
    "lint_graph",
    "lint_source",
    "lint_tree",
    "list_rules",
    "replay_race",
    "run_traced",
]
