"""repro.serve — multi-tenant serving layer over the Figure-1 runtime.

The paper's application is framed as a *service*: many concurrent users
submitting pair-trading sessions against live and historical data.  This
package is that front door, built entirely on the stdlib:

* :mod:`repro.serve.sessions` — the :class:`SessionManager` owning N
  concurrent sessions (supervised Figure-1 pipelines and store-backed
  backtest jobs), each on its own worker thread with a bounded command
  queue and a ring-backed append-only audit log;
* :mod:`repro.serve.app` — the route table, bearer-token auth and
  pointed 4xx validation mapping HTTP onto the manager, the obs
  registry, the per-session telemetry hubs and the columnar store;
* :mod:`repro.serve.http` — a dependency-free threading HTTP/1.1 JSON
  transport with per-route latency histograms and outcome counters.

Entry points: ``repro serve`` boots a server from the CLI;
``benchmarks/bench_serve.py`` drives it with thousands of simulated
clients and gates on p50/p99 latency and read-path error rate.
"""

from __future__ import annotations

from repro.serve.app import ServeApp
from repro.serve.http import ServeHTTPServer, make_server
from repro.serve.sessions import (
    COMMANDS,
    KINDS,
    RESIZE_MAX,
    TERMINAL,
    BadRequest,
    CommandBacklog,
    CommandUnsupported,
    DuplicateSession,
    ManagerFull,
    ResizePending,
    ServeError,
    Session,
    SessionDead,
    SessionManager,
    UnknownSession,
    validate_spec,
)

__all__ = [
    "BadRequest",
    "COMMANDS",
    "CommandBacklog",
    "CommandUnsupported",
    "DuplicateSession",
    "KINDS",
    "ManagerFull",
    "RESIZE_MAX",
    "ResizePending",
    "ServeApp",
    "ServeError",
    "ServeHTTPServer",
    "Session",
    "SessionDead",
    "SessionManager",
    "TERMINAL",
    "UnknownSession",
    "make_server",
    "validate_spec",
]
