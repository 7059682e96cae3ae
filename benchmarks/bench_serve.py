"""Load benchmark for the serving layer: thousands of simulated clients.

Boots a real :class:`~repro.serve.http.ServeHTTPServer` in-process on an
ephemeral port, seeds it with live Figure-1 sessions and per-user
watchlists, then drives a read-heavy mixed workload — session listings,
per-session status and audit reads, telemetry snapshots, health probes,
watchlist reads and a thin stream of watchlist writes — from a pool of
worker threads.  Each simulated client opens its own HTTP/1.1 connection
and issues a burst of requests from the mix, so connection setup cost is
part of the measurement, exactly as it would be for real tenants.

Before the load starts, one idle client sends ``PROBE_REQUESTS``
``GET /health`` on a single keep-alive connection: the cheapest request
there is, so its median is the transport's own cost.

Three gates (all enforced here, not just reported):

* the **read path serves zero errors** — any 5xx, or any 4xx on a
  well-formed read, fails the run;
* every route's **p50 ≤ ``P50_BUDGET`` and p99 ≤ ``P99_BUDGET``**;
* the **keep-alive probe's median ≤ ``P50_BUDGET``**.

The p50 budget is what a per-request stall trips: 44 ms of delayed-ACK
wait on every reply passes any p99 gate loose enough for a shared box.

Full mode writes ``benchmarks/out/serve_load.{txt,json}`` and appends
the run to ``history[]`` in the repo-level artefact ``BENCH_serve.json``
(per-route p50/p95/p99, throughput, error rate), so the file is a
trajectory.  ``python -m benchmarks.bench_serve --smoke`` is the
sub-10-second burst used by ``scripts/check.sh``: the probe, 200 mixed
requests, zero 5xx, clean shutdown.
"""

import http.client
import json
import statistics
import threading
import time
from pathlib import Path

from repro.obs import Obs
from repro.serve import ServeApp, SessionManager, make_server

REPO_ROOT = Path(__file__).resolve().parent.parent

TOKEN = "bench-token"

#: Full-mode shape: ``N_THREADS`` workers each simulate
#: ``CLIENTS_PER_THREAD`` sequential clients; every client opens a fresh
#: connection and issues ``REQUESTS_PER_CLIENT`` requests from the mix.
N_THREADS = 24
CLIENTS_PER_THREAD = 50          # 24 * 50 = 1200 simulated clients
REQUESTS_PER_CLIENT = 8

#: Per-route latency budgets (seconds).  The handlers cost well under a
#: millisecond; under ``N_THREADS`` clients on a shared 2-core box the
#: medians sit at a few ms and the tails at a few tens.
P50_BUDGET = 0.020
P99_BUDGET = 0.250

#: Sequential ``GET /health`` on one idle keep-alive connection.
PROBE_REQUESTS = 20

#: The workload mix, in cumulative percent: (threshold, route template).
#: ``{sid}`` / ``{user}`` are filled per request; only the final entry
#: writes.
_MIX = (
    (30, "GET", "/sessions"),
    (55, "GET", "/sessions/{sid}"),
    (70, "GET", "/sessions/{sid}/audit?limit=50"),
    (80, "GET", "/health"),
    (88, "GET", "/telemetry"),
    (95, "GET", "/users/{user}/watchlist"),
    (100, "PUT", "/users/{user}/watchlist"),
)

_WATCHLIST_BODY = json.dumps({"symbols": ["XOM", "CVX", "BP"]})


def _pick(i: int):
    """Deterministic route choice for request number ``i`` (no RNG)."""
    bucket = (i * 2654435761) % 100
    for threshold, method, template in _MIX:
        if bucket < threshold:
            return method, template
    raise AssertionError("unreachable: mix covers [0, 100)")


def _boot(max_live: int = 8):
    """Server + manager seeded with sessions and watchlists; returns both."""
    manager = SessionManager(max_live=max_live, retain=max_live + 8)
    app = ServeApp(manager, token=TOKEN, obs=Obs(enabled=True))
    server = make_server(app, host="127.0.0.1", port=0)
    threading.Thread(
        target=server.serve_forever, name="bench-serve", daemon=True
    ).start()
    for k in range(2):
        manager.submit(
            f"bench-fig{k}",
            "figure1",
            {"seconds": 1200, "ranks": 2, "checkpoint_every": 10},
            user=f"user{k}",
        )
    for k in range(4):
        manager.set_watchlist(f"user{k}", ["XOM", "CVX"])
    return server, manager


class _Stats:
    """Per-route latency samples and outcome counts (lock-guarded)."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = {}
        self.statuses: dict[int, int] = {}
        self.read_errors = 0
        self.transport_errors = 0
        self.probe_p50 = 0.0
        self._lock = threading.Lock()

    def record(self, route: str, status: int, elapsed: float, wrote: bool):
        with self._lock:
            self.latencies.setdefault(route, []).append(elapsed)
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status >= 400 and not wrote:
                self.read_errors += 1


def _client_burst(host, port, stats: _Stats, base: int, n_requests: int):
    """One simulated client: fresh connection, ``n_requests`` from the mix."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    headers = {"Authorization": f"Bearer {TOKEN}"}
    try:
        for i in range(base, base + n_requests):
            method, template = _pick(i)
            path = template.replace("{sid}", f"bench-fig{i % 2}").replace(
                "{user}", f"user{i % 4}"
            )
            body = _WATCHLIST_BODY if method == "PUT" else None
            route = template.split("?")[0]
            t0 = time.perf_counter()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                resp.read()
                status = resp.status
            except (OSError, http.client.HTTPException):
                with stats._lock:
                    stats.transport_errors += 1
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                continue
            stats.record(
                route, status, time.perf_counter() - t0, wrote=method == "PUT"
            )
    finally:
        conn.close()


def _keepalive_probe(host, port) -> float:
    """Median seconds of ``PROBE_REQUESTS`` health checks on one connection."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    elapsed = []
    try:
        for _ in range(PROBE_REQUESTS):
            t0 = time.perf_counter()
            conn.request("GET", "/health")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200, f"probe got {resp.status}"
            elapsed.append(time.perf_counter() - t0)
    finally:
        conn.close()
    return statistics.median(elapsed)


def _run_load(n_threads: int, clients_per_thread: int,
              requests_per_client: int) -> tuple[_Stats, float]:
    server, manager = _boot()
    host, port = server.server_address[:2]
    stats = _Stats()
    stats.probe_p50 = _keepalive_probe(host, port)

    def worker(worker_idx: int):
        for c in range(clients_per_thread):
            client_idx = worker_idx * clients_per_thread + c
            _client_burst(
                host, port, stats,
                base=client_idx * requests_per_client,
                n_requests=requests_per_client,
            )

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(n_threads)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    manager.kill_all()
    server.shutdown()
    server.server_close()
    return stats, wall


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def _summarise(stats: _Stats, wall: float, n_clients: int) -> dict:
    per_route = {}
    for route, lat in sorted(stats.latencies.items()):
        per_route[route] = {
            "n": len(lat),
            "p50": _quantile(lat, 0.50),
            "p95": _quantile(lat, 0.95),
            "p99": _quantile(lat, 0.99),
        }
    n_requests = sum(len(lat) for lat in stats.latencies.values())
    return {
        "n_clients": n_clients,
        "n_requests": n_requests,
        "wall_seconds": wall,
        "throughput_rps": n_requests / wall if wall > 0 else 0.0,
        "statuses": {str(k): v for k, v in sorted(stats.statuses.items())},
        "read_errors": stats.read_errors,
        "transport_errors": stats.transport_errors,
        "error_rate": stats.read_errors / n_requests if n_requests else 0.0,
        "keepalive_probe_p50": stats.probe_p50,
        "routes": per_route,
    }


def _gate(data: dict) -> None:
    assert data["read_errors"] == 0, (
        f"read path served {data['read_errors']} errors "
        f"(statuses {data['statuses']})"
    )
    assert data["transport_errors"] == 0, (
        f"{data['transport_errors']} requests failed at the transport"
    )
    probe = data["keepalive_probe_p50"]
    assert probe <= P50_BUDGET, (
        f"idle keep-alive GET /health takes {probe * 1e3:.1f}ms at the "
        f"median, over the {P50_BUDGET * 1e3:.0f}ms budget"
    )
    for route, q in data["routes"].items():
        for key, budget in (("p50", P50_BUDGET), ("p99", P99_BUDGET)):
            assert q[key] <= budget, (
                f"route {route} {key} {q[key] * 1e3:.1f}ms exceeds the "
                f"{budget * 1e3:.0f}ms budget"
            )


def run_full() -> None:
    """The headline load run: 1200 clients, ~9600 mixed requests."""
    n_clients = N_THREADS * CLIENTS_PER_THREAD
    stats, wall = _run_load(N_THREADS, CLIENTS_PER_THREAD,
                            REQUESTS_PER_CLIENT)
    data = _summarise(stats, wall, n_clients)
    _gate(data)

    lines = [
        f"serve load: {data['n_clients']} simulated clients, "
        f"{data['n_requests']} requests in {wall:.1f}s "
        f"({data['throughput_rps']:.0f} req/s, {N_THREADS} threads)",
        f"  read errors: {data['read_errors']}  "
        f"statuses: {data['statuses']}  idle keep-alive p50: "
        f"{data['keepalive_probe_p50'] * 1e3:.2f}ms",
        f"  {'route':<28} {'n':>6} {'p50':>8} {'p95':>8} {'p99':>8}",
    ]
    for route, q in data["routes"].items():
        lines.append(
            f"  {route:<28} {q['n']:>6} {q['p50'] * 1e3:>7.1f}m "
            f"{q['p95'] * 1e3:>7.1f}m {q['p99'] * 1e3:>7.1f}m"
        )
    text = "\n".join(lines)
    from benchmarks.conftest import emit

    emit("serve_load", text, data)
    path = REPO_ROOT / "BENCH_serve.json"
    doc = json.loads(path.read_text())
    # The label is the run's date; say what changed by editing it in place.
    doc["history"].append({"label": time.strftime("%Y-%m-%d"), "data": data})
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_smoke() -> None:
    """check.sh stage: the probe, a 200-request burst, zero 5xx, clean exit."""
    stats, wall = _run_load(n_threads=8, clients_per_thread=5,
                            requests_per_client=5)
    data = _summarise(stats, wall, n_clients=40)
    assert data["n_requests"] == 200, f"expected 200 requests, {data}"
    _gate(data)
    print(
        f"ok: serve smoke — {data['n_requests']} requests in {wall:.1f}s "
        f"({data['throughput_rps']:.0f} req/s), zero read errors, "
        f"idle keep-alive p50 {data['keepalive_probe_p50'] * 1e3:.2f}ms, "
        f"worst p50 "
        f"{max(q['p50'] for q in data['routes'].values()) * 1e3:.1f}ms, "
        f"worst p99 "
        f"{max(q['p99'] for q in data['routes'].values()) * 1e3:.1f}ms"
    )


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="200-request burst (used by scripts/check.sh)")
    if ap.parse_args().smoke:
        run_smoke()
    else:
        run_full()
