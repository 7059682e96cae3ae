"""serve_mix: the real HTTP server under a closed-loop read/write mix.

API callers (dashboards, ``repro top``, scripts) wait for each reply
before sending the next request, hence a closed loop: two clients, each
on one keep-alive connection, walking a seeded shuffle of a fixed
100-request deck (90 reads, 10 watchlist PUTs).  Session lifecycles —
``POST /sessions`` of a tiny figure1 session, ``DELETE`` of the previous
one — run on a fixed clock rather than as a share of requests, so a
faster server is not handed more background work.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from urllib.parse import parse_qsl, urlsplit

from repro.serve import ServeApp, SessionManager, make_server
from repro.serve.http import Request
from repro.serve.sessions import TERMINAL, UnknownSession
from repro.taq.universe import default_universe

from benchmarks.e2e import stats
from benchmarks.e2e.harness import Measured
from benchmarks.e2e.inputs import Sizes, rng_for

TOKEN = "e2e-token"

#: (share of 100, method, path template, route name, expected statuses)
MIX = (
    (30, "GET", "/sessions", "sessions_list", (200,)),
    (20, "GET", "/sessions/{sid}", "session_get", (200,)),
    (10, "GET", "/sessions/{sid}/positions", "session_positions", (200,)),
    (10, "GET", "/sessions/{sid}/audit?limit=50", "session_audit", (200,)),
    (8, "GET", "/health", "health", (200,)),
    (7, "GET", "/telemetry", "telemetry", (200,)),
    (5, "GET", "/users/{user}/watchlist", "watchlist_get", (200,)),
    (10, "PUT", "/users/{user}/watchlist", "watchlist_put", (200,)),
)
SUBMIT = ("POST", "/sessions", "sessions_submit", (201,))
#: The previous tiny session has usually finished by the time its DELETE
#: arrives, which the API answers 409 (terminal); 202 if still live.
DELETE = ("DELETE", "/sessions/{sid}", "session_delete", (202, 409))

N_CLIENTS = 2
SEED_SESSIONS = ("seed-fig0", "seed-fig1")
SEED_SPEC = {"seconds": 1200, "ranks": 2, "checkpoint_every": 10}
TINY_SPEC = {"seconds": 1200}
SEED_WATCHLIST = ["XOM", "CVX"]
WARMUP_REQUESTS = 20
DISPATCH_ROUNDS = 3


class _Sample:
    """Everything the clients recorded in one window."""

    def __init__(self):
        self.lock = threading.Lock()
        #: (route, elapsed ms) per completed request with expected status.
        self.timings: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.submit_to_done_ms: list[float] = []

    def record(self, route, elapsed_ms, ok):
        with self.lock:
            self.attempted += 1
            if ok:
                self.timings.append((route, elapsed_ms))
            else:
                self.failed += 1


class ServeWorkload:
    """Boot, seed, drive and tear down one serving stack."""

    tail_percentile = 95
    setup_is_cpu_bound = False

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed
        rng = rng_for(seed, 2)
        deck = [k for k, row in enumerate(MIX) for _ in range(row[0])]
        self.deck = [int(k) for k in rng.permutation(deck)]
        tickers = list(default_universe().symbols)
        self.put_bodies = [
            [str(t) for t in rng.choice(tickers, size=3, replace=False)]
            for _ in range(64)
        ]
        self.digest = hashlib.sha256(
            json.dumps([self.deck, self.put_bodies]).encode()
        ).hexdigest()
        self.notes: list[str] = []
        self.server = None
        self.manager = None
        self.app = None
        self._thread = None
        self._life_n = 0
        #: user -> symbols of the last accepted PUT (read-your-writes check).
        self._last_put: dict[str, list[str]] = {}
        self._watchers: list[threading.Thread] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Boot the server, seed it, wait for ``done``, send 20 requests."""
        self.manager = SessionManager()
        self.app = ServeApp(self.manager, token=TOKEN)
        self.server = make_server(self.app)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="e2e-serve", daemon=True
        )
        self._thread.start()
        self._life_n = 0
        for k, sid in enumerate(SEED_SESSIONS):
            self.manager.submit(sid, "figure1", dict(SEED_SPEC), f"user{k}")
        for k in range(2 * N_CLIENTS):
            self.manager.set_watchlist(f"user{k}", list(SEED_WATCHLIST))
            self._last_put[f"user{k}"] = list(SEED_WATCHLIST)
        deadline = time.perf_counter() + 60.0
        for sid in SEED_SESSIONS:
            while self.manager.get(sid).state != "done":
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"seed session {sid} never finished")
                time.sleep(0.005)
        warm = _Sample()
        self._client(0, warm, max_requests=WARMUP_REQUESTS)
        if warm.failed:
            raise RuntimeError(f"{warm.failed} warm-up requests failed")

    def close(self) -> None:
        if self.server is None:
            return
        self.manager.kill_all()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(10.0)
        assert not self._thread.is_alive(), "serve thread did not stop"
        self.server = self.manager = self.app = self._thread = None

    # -- load generator ------------------------------------------------------

    def _request(self, conn, method, path, body):
        headers = {"Authorization": f"Bearer {TOKEN}"}
        payload = json.dumps(body) if body is not None else None
        t0 = time.perf_counter()
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, (time.perf_counter() - t0) * 1e3

    def _client(
        self, c, sample, seconds=None, max_requests=None, lifecycle=False,
        watch_done=False,
    ):
        """One closed-loop client: send, wait for the body, repeat."""
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        users = (f"user{2 * c}", f"user{2 * c + 1}")
        last_put = self._last_put  # users are disjoint between clients
        start = time.perf_counter()
        every = self.sizes.serve_lifecycle_every_s
        next_life = start + every / 2
        i = 0

        def send(method, path, route, expected, body=None):
            nonlocal conn
            try:
                status, data, ms = self._request(conn, method, path, body)
            except (OSError, http.client.HTTPException):
                sample.record(route, 0.0, ok=False)
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                return None
            sample.record(route, ms, ok=status in expected)
            return data if status in expected else None

        try:
            while True:
                now = time.perf_counter()
                if seconds is not None and now - start >= seconds:
                    break
                if max_requests is not None and i >= max_requests:
                    break
                if lifecycle and now >= next_life:
                    next_life += every
                    n = self._life_n
                    self._life_n += 1
                    if watch_done:
                        self._watch(f"life{n}", sample)
                    method, path, route, expected = SUBMIT
                    send(method, path, route, expected, body={
                        "id": f"life{n}", "kind": "figure1",
                        "user": users[0], "spec": dict(TINY_SPEC),
                    })
                    if n > 0:
                        method, path, route, expected = DELETE
                        send(
                            method, path.replace("{sid}", f"life{n - 1}"),
                            route, expected,
                        )
                _, method, template, route, expected = MIX[
                    self.deck[(c + N_CLIENTS * i) % len(self.deck)]
                ]
                user = users[i % 2]
                path = template.replace(
                    "{sid}", SEED_SESSIONS[i % 2]
                ).replace("{user}", user)
                body = None
                if method == "PUT":
                    symbols = self.put_bodies[i % len(self.put_bodies)]
                    body = {"symbols": symbols}
                data = send(method, path, route, expected, body)
                if data is not None and route == "watchlist_put":
                    last_put[user] = body["symbols"]
                if data is not None and route == "watchlist_get":
                    if json.loads(data)["symbols"] != last_put[user]:
                        # Read-your-writes broken: a failed operation.
                        with sample.lock:
                            sample.failed += 1
                i += 1
        finally:
            conn.close()

    def _watch(self, sid, sample):
        """Traced runs only: time POST sent -> session in a terminal state.

        Started just before the POST (the reply alone takes a delayed-ACK
        period, longer than a tiny session runs), so it polls through
        the moment the id does not exist yet.
        """
        t_post = time.perf_counter()

        def poll():
            while time.perf_counter() < t_post + 30.0:
                try:
                    done = self.manager.get(sid).state in TERMINAL
                except UnknownSession:
                    done = False
                if done:
                    sample.submit_to_done_ms.append(
                        (time.perf_counter() - t_post) * 1e3
                    )
                    return
                time.sleep(0.002)

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        self._watchers.append(thread)

    def _window(self, seconds: float, watch_done: bool = False) -> _Sample:
        """Closed loop, ``N_CLIENTS`` clients, ``seconds`` long."""
        sample = _Sample()
        self._watchers = []
        clients = [
            threading.Thread(
                target=self._client,
                args=(c, sample),
                kwargs={
                    "seconds": seconds, "lifecycle": c == 0,
                    "watch_done": watch_done,
                },
                daemon=True,
            )
            for c in range(N_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(seconds + 60.0)
            assert not thread.is_alive(), "load-generator thread hung"
        for thread in self._watchers:  # complete once the clients are done
            thread.join(60.0)
            assert not thread.is_alive(), "submit-to-done watcher hung"
        return sample

    def measure(self, seconds: float) -> Measured:
        t0 = time.perf_counter()
        sample = self._window(seconds)
        wall = time.perf_counter() - t0
        by_route: dict[str, int] = {}
        for route, _ in sample.timings:
            by_route[route] = by_route.get(route, 0) + 1
        return Measured(
            unit="requests", passes=[(len(sample.timings), wall)],
            latencies_ms=[ms for _, ms in sample.timings],
            attempted=sample.attempted, failed=sample.failed,
            info={
                "latency samples": len(sample.timings),
                "requests by route": dict(sorted(by_route.items())),
            },
        )

    def verify(self) -> tuple[int, int]:
        """Status and read-your-writes checks ran on every request."""
        return 0, 0

    # -- traced run ----------------------------------------------------------

    def _dispatch_p50_us(self) -> float:
        """The same mix through ``ServeApp.dispatch`` in-process."""
        samples = []
        for i in range(DISPATCH_ROUNDS * len(self.deck)):
            _, method, template, _, _ = MIX[self.deck[i % len(self.deck)]]
            path = template.replace("{sid}", SEED_SESSIONS[i % 2]).replace(
                "{user}", f"user{i % 4}"
            )
            split = urlsplit(path)
            body = None
            if method == "PUT":
                body = {"symbols": self.put_bodies[i % len(self.put_bodies)]}
            request = Request(
                method=method,
                path=split.path,
                parts=tuple(p for p in split.path.split("/") if p),
                query=dict(parse_qsl(split.query)),
                body=body,
                token=TOKEN,
            )
            t0 = time.perf_counter()
            response = self.app.dispatch(request)
            samples.append((time.perf_counter() - t0) * 1e6)
            assert response.status == 200, response
            if method == "PUT":
                self._last_put[f"user{i % 4}"] = body["symbols"]
        return stats.median(samples)

    def _connect_ms(self, n: int = 10) -> float:
        """First request on a fresh connection, median of ``n``."""
        host, port = self.server.server_address[:2]
        samples = []
        for _ in range(n):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                status, _, ms = self._request(conn, "GET", "/health", None)
            finally:
                conn.close()
            assert status == 200
            samples.append(ms)
        return stats.median(samples)

    def layers(self, seconds: float) -> tuple[dict, int, int]:
        """Half the window plain, half with the submit-to-done watcher."""
        plain = self._window(seconds / 2)
        traced = self._window(seconds / 2, watch_done=True)
        by_route: dict[str, list[float]] = {}
        for route, ms in traced.timings + plain.timings:
            by_route.setdefault(route, []).append(ms)
        reads = [
            ms for route, times in by_route.items() for ms in times
            if route in {row[3] for row in MIX if row[1] == "GET"}
        ]
        http_p50 = stats.median([ms for _, ms in plain.timings])
        traced_p50 = stats.median([ms for _, ms in traced.timings])
        dispatch_us = self._dispatch_p50_us()
        values = {
            "serve.dispatch_p50_us": dispatch_us,
            "serve.transport_p50_ms": http_p50 - dispatch_us / 1e3,
            "serve.read_p50_ms": stats.median(reads),
            "serve.write_p50_ms": stats.median(by_route["watchlist_put"]),
            "serve.connect_ms": self._connect_ms(),
            "serve.session_submit_to_done_ms": (
                stats.median(traced.submit_to_done_ms)
                if traced.submit_to_done_ms else 0.0
            ),
            "trace_overhead_share": (traced_p50 - http_p50) / http_p50,
        }
        for route, times in by_route.items():
            values[f"serve.route.{route}.p50_ms"] = stats.median(times)
        self.notes.append(
            f"{len(plain.timings) + len(traced.timings)} requests, "
            f"{len(traced.submit_to_done_ms)} lifecycles watched; of the "
            f"{http_p50:.2f} ms HTTP p50, dispatch is "
            f"{dispatch_us / 1e3:.3f} ms and transport the rest"
        )
        return (
            values,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        )
