"""End-to-end HTTP tests: real sockets, real threads, ephemeral port.

Every test drives the actual :class:`~repro.serve.http.ServeHTTPServer`
through ``http.client`` — no handler-level shortcuts — so the wire
format, auth, content types and status codes are what a tenant would
see.  The module-scoped server is shared; tests use distinct session
ids and users to stay independent.
"""

import http.client
import json
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.obs import Obs, WindowedHistogram, registry_snapshot
from repro.serve import ServeApp, SessionManager, make_server
from repro.serve.http import MAX_BODY_BYTES, _Handler
from repro.store import StoreReader, ingest_synthetic
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe

TOKEN = "test-token"

FIG1_SPEC = {"seconds": 1200, "ranks": 2, "checkpoint_every": 20}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    market = SyntheticMarket(
        default_universe(4),
        SyntheticMarketConfig(trading_seconds=1800),
        seed=13,
    )
    ingest_synthetic(root, market, n_days=2, n_shards=2, block_rows=512)
    manager = SessionManager(max_live=6, retain=32)
    app = ServeApp(
        manager, token=TOKEN, obs=Obs(enabled=True),
        store=StoreReader(root),
    )
    srv = make_server(app)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    manager.kill_all()
    srv.shutdown()
    srv.server_close()


def _exchange(conn, method, path, body=None, token=TOKEN):
    """One request on ``conn``; JSON bodies come back decoded."""
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    if resp.getheader("Content-Type", "").startswith("application/json"):
        return resp.status, json.loads(raw)
    return resp.status, raw.decode()


@pytest.fixture(scope="module")
def client(server):
    """``request(method, path, ...)`` on a fresh connection every call."""
    host, port = server.server_address[:2]

    def request(*args, **kwargs):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            return _exchange(conn, *args, **kwargs)
        finally:
            conn.close()

    return request


@pytest.fixture()
def keepalive(server):
    """The same callable on one keep-alive connection for the whole test."""
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    yield lambda *args, **kwargs: _exchange(conn, *args, **kwargs)
    conn.close()


@pytest.fixture()
def bare():
    """A server of its own, no store or sessions: exact counts, no threads."""
    app = ServeApp(SessionManager(max_live=2, retain=8), token=TOKEN)
    srv = make_server(app)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _raw(srv, request: bytes, timeout=3.0):
    """Send raw bytes on a new socket; return (everything received, closed)."""
    received = b""
    address = srv.server_address[:2]
    with socket.create_connection(address, timeout=timeout) as s:
        s.sendall(request)
        try:
            while chunk := s.recv(1 << 16):
                received += chunk
        except TimeoutError:
            return received, False
        except ConnectionResetError:
            pass
    return received, True


def wait_until(predicate, timeout=3.0):
    """Poll: the transport records a request's metrics after the reply."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def wait_done(client, sid, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = client("GET", f"/sessions/{sid}")
        assert status == 200
        if body["state"] in ("done", "failed", "killed"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"session {sid} never terminated")


class TestAuth:
    def test_missing_token_is_401(self, client):
        status, body = client("GET", "/sessions", token=None)
        assert status == 401 and "bearer token" in body["error"]

    def test_wrong_token_is_401(self, client):
        assert client("GET", "/sessions", token="wr0ng")[0] == 401

    def test_health_is_open(self, client):
        status, body = client("GET", "/health", token=None)
        assert status == 200
        assert body["status"] == "ok" and body["store"] is True


class TestRouting:
    def test_unknown_path_404_lists_routes(self, client):
        status, body = client("GET", "/nope")
        assert status == 404 and "GET /health" in body["error"]

    def test_wrong_method_is_405(self, client):
        status, body = client("PUT", "/sessions")
        assert status == 405 and "POST" in body["error"]

    def test_unknown_query_param_is_400_with_allow_list(self, client):
        status, body = client("GET", "/telemetry?depth=3")
        assert status == 400
        assert "'depth'" in body["error"] and "window" in body["error"]

    def test_non_integer_param_is_400(self, client):
        status, body = client("GET", "/sessions/x/audit?limit=soon")
        assert status == 400 and "must be an integer" in body["error"]

    def test_missing_body_is_400(self, client):
        status, body = client("POST", "/sessions", body=None)
        assert status == 400 and "JSON body" in body["error"]

    def test_malformed_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(
            *server.server_address[:2], timeout=10
        )
        conn.request(
            "POST", "/sessions", body=b"{not json",
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        resp = conn.getresponse()
        body = json.loads(resp.read())
        conn.close()
        assert resp.status == 400
        assert "not valid JSON" in body["error"]


class TestTransport:
    """The wire itself: segments, framing, idle connections, flat cost."""

    def test_keepalive_requests_do_not_stall(self, keepalive):
        # Two-segment replies cost Nagle + delayed ACK = 44 ms on every
        # request after a connection's first.
        elapsed = []
        for _ in range(20):
            t0 = time.perf_counter()
            assert keepalive("GET", "/health", token=None)[0] == 200
            elapsed.append(time.perf_counter() - t0)
        assert statistics.median(elapsed) < 0.020

    @pytest.mark.parametrize("path", ["/sessions", "/metrics"])
    def test_reply_is_one_segment(self, server, path):
        request = (
            f"GET {path} HTTP/1.1\r\nHost: t\r\n"
            f"Authorization: Bearer {TOKEN}\r\n\r\n"
        ).encode()
        with socket.create_connection(
            server.server_address[:2], timeout=5
        ) as s:
            for _ in range(2):  # a connection's first reply never stalls
                s.sendall(request)
                head, _, body = s.recv(1 << 20).partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200")
                length = int(
                    head.lower().split(b"content-length: ")[1].split()[0]
                )
                assert length > 0 and len(body) == length

    @pytest.mark.parametrize(
        "declared, status, says",
        [
            ("abc", 400, "non-negative integer"),
            ("-1", 400, "non-negative integer"),
            (str(MAX_BODY_BYTES + 1), 413, "exceeds"),
        ],
    )
    def test_bad_content_length_is_4xx_and_closes(
        self, server, client, declared, status, says
    ):
        received, closed = _raw(
            server,
            (
                f"PUT /users/dave/watchlist HTTP/1.1\r\nHost: t\r\n"
                f"Authorization: Bearer {TOKEN}\r\n"
                f"Content-Length: {declared}\r\n\r\nxxxxGET"
            ).encode(),
        )
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), received
        assert b"Connection: close" in head
        # One JSON reply, then EOF: the unread body is never parsed as a
        # request line (which used to answer an HTML 501 on top).
        assert says in json.loads(body)["error"]
        assert closed
        assert client("GET", "/health")[0] == 200

    def test_idle_connection_is_closed(self, bare, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)

        def handlers() -> int:
            # ThreadingHTTPServer names a connection's thread after its
            # target; a process-wide count would also see an earlier
            # fixture's serve_forever thread on its way out.
            return sum(
                "process_request_thread" in t.name
                for t in threading.enumerate()
            )

        before = handlers()
        with socket.create_connection(bare.server_address[:2], timeout=3) as s:
            s.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            assert s.recv(1 << 16).startswith(b"HTTP/1.1 200")
            assert handlers() == before + 1
            assert s.recv(1 << 16) == b""  # the server hung up, not us
        assert wait_until(lambda: handlers() == before)

    def test_stalled_body_is_408_and_closes(self, bare, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        received, closed = _raw(
            bare,
            (
                f"PUT /users/dave/watchlist HTTP/1.1\r\nHost: t\r\n"
                f"Authorization: Bearer {TOKEN}\r\n"
                f"Content-Length: 64\r\n\r\n"
            ).encode() + b'{"symbols": [',
        )
        assert received.startswith(b"HTTP/1.1 408 ") and closed

    def test_latency_histogram_is_flat(self, bare):
        """Memory and /telemetry cost do not grow with requests served."""
        conn = http.client.HTTPConnection(*bare.server_address[:2], timeout=10)
        assert _exchange(conn, "GET", "/health")[0] == 200
        conn.close()
        metrics = bare.app.obs.metrics
        name = "serve.http.health.seconds"
        assert wait_until(lambda: name in metrics.histograms)
        hist = metrics.histograms[name]
        expected = hist.total

        def drive(n):
            nonlocal expected
            for i in range(n):
                hist.observe(i % 64 / 4096)
                expected += i % 64 / 4096

        def snapshot_seconds():
            best = float("inf")
            for _ in range(7):
                t0 = time.perf_counter()
                registry_snapshot(metrics, quantiles=True)
                best = min(best, time.perf_counter() - t0)
            return best

        drive(1_999)
        early = snapshot_seconds()
        drive(18_000)
        late = snapshot_seconds()
        assert len(hist.values) <= WindowedHistogram.WINDOW
        assert hist.count == 20_000 and hist.total == expected
        snap = registry_snapshot(metrics, quantiles=True)
        assert snap["histograms"][name]["count"] == 20_000
        assert late <= 2 * early, (early, late)

    def test_concurrent_requests_lose_no_metric_update(self, bare):
        n_threads, n_each = 8, 40
        errors = []

        def worker():
            conn = http.client.HTTPConnection(
                *bare.server_address[:2], timeout=10
            )
            try:
                for _ in range(n_each):
                    if _exchange(conn, "GET", "/health")[0] != 200:
                        errors.append("status")
            except Exception as exc:
                errors.append(exc)
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        metrics = bare.app.obs.metrics
        total = n_threads * n_each
        counter = metrics.counters[
            "serve.http.requests[route=health,status=200]"
        ]
        wait_until(lambda: counter.value >= total)
        assert counter.value == total
        assert metrics.histograms["serve.http.health.seconds"].count == total


class TestSessionRoutes:
    def test_submit_status_audit_command_roundtrip(self, client):
        status, body = client(
            "POST", "/sessions",
            {"id": "h1", "kind": "figure1", "spec": FIG1_SPEC,
             "user": "alice"},
        )
        assert status == 201 and body["id"] == "h1"
        status, listing = client("GET", "/sessions")
        assert status == 200
        assert "h1" in {s["id"] for s in listing["sessions"]}
        final = wait_done(client, "h1")
        assert final["state"] == "done", final["error"]
        status, audit = client("GET", "/sessions/h1/audit?limit=10")
        assert status == 200
        assert audit["entries"][0]["actor"] == "alice"
        status, body = client("POST", "/sessions/h1/pause")
        assert status == 409  # terminal session: dead, not a hang
        status, positions = client("GET", "/sessions/h1/positions")
        assert status == 200 and positions["epoch"] == 0
        status, signals = client("GET", "/sessions/h1/signals?limit=5")
        assert status == 200 and len(signals["signals"]) <= 5

    def test_submit_validation_is_pointed(self, client):
        status, body = client("POST", "/sessions", {"id": "x"})
        assert status == 400 and "'kind'" in body["error"]
        status, body = client(
            "POST", "/sessions", {"id": "x", "kind": "figure1", "nope": 1}
        )
        assert status == 400 and "unknown body key" in body["error"]
        status, body = client(
            "POST", "/sessions",
            {"id": "x", "kind": "figure1", "spec": {"seconds": 10}},
        )
        assert status == 400 and ">= 1200" in body["error"]

    def test_duplicate_submit_is_409(self, client):
        client("POST", "/sessions",
               {"id": "h2", "kind": "backtest",
                "spec": {"days": 1, "symbols": 3, "levels": 1}})
        status, body = client(
            "POST", "/sessions", {"id": "h2", "kind": "backtest"}
        )
        assert status == 409 and "already exists" in body["error"]
        wait_done(client, "h2")

    def test_pause_kill_via_http(self, client):
        client("POST", "/sessions",
               {"id": "h3", "kind": "figure1",
                "spec": {"seconds": 4800, "ranks": 2,
                         "checkpoint_every": 10}})
        status, body = client("POST", "/sessions/h3/pause?actor=ops")
        assert status == 202
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client("GET", "/sessions/h3")[1]["state"] == "paused":
                break
            time.sleep(0.05)
        status, body = client("DELETE", "/sessions/h3?actor=ops")
        assert status == 202
        final = wait_done(client, "h3", timeout=15.0)
        assert final["state"] == "killed"
        ops_entries = [
            e for e in client("GET", "/sessions/h3/audit")[1]["entries"]
            if e["actor"] == "ops"
        ]
        assert {e["op"] for e in ops_entries} == {"pause", "kill"}

    def test_resize_via_http(self, client):
        client("POST", "/sessions",
               {"id": "h4", "kind": "figure1",
                "spec": {"seconds": 4800, "ranks": 2,
                         "checkpoint_every": 10}})
        # Missing and malformed targets are pointed 400s.
        status, body = client("POST", "/sessions/h4/resize?actor=alice")
        assert status == 400 and "target" in body["error"]
        status, body = client(
            "POST", "/sessions/h4/resize?actor=alice&target=zero"
        )
        assert status == 400
        status, body = client(
            "POST", "/sessions/h4/resize?actor=alice&target=99"
        )
        assert status == 400 and "1..8" in body["error"]
        # A well-formed resize queues (202) and lands at the next epoch
        # boundary, surfacing in the status pool block.
        status, body = client(
            "POST", "/sessions/h4/resize?actor=alice&target=3"
        )
        assert status == 202
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            pool = client("GET", "/sessions/h4")[1]["pool"]
            if pool["resizes"]:
                break
            time.sleep(0.05)
        assert pool["size"] == 3 and pool["resizes"][-1][1:] == [2, 3]
        client("DELETE", "/sessions/h4?actor=ops")
        wait_done(client, "h4", timeout=15.0)

    def test_resize_backtest_is_409(self, client):
        client("POST", "/sessions",
               {"id": "h5", "kind": "backtest",
                "spec": {"days": 1, "symbols": 4, "levels": 1}})
        status, body = client(
            "POST", "/sessions/h5/resize?actor=bob&target=3"
        )
        assert status == 409 and "figure1" in body["error"]
        wait_done(client, "h5")

    def test_unknown_session_is_404(self, client):
        assert client("GET", "/sessions/ghost")[0] == 404
        assert client("POST", "/sessions/ghost/kill")[0] == 404

    def test_unknown_command_is_400(self, client):
        assert client("POST", "/sessions/ghost/explode")[0] == 400


class TestWatchlistRoutes:
    def test_put_get_roundtrip(self, client):
        status, body = client(
            "PUT", "/users/carol/watchlist", {"symbols": ["XOM", "CVX"]}
        )
        assert status == 200
        status, body = client("GET", "/users/carol/watchlist")
        assert status == 200 and body["symbols"] == ["XOM", "CVX"]

    def test_bad_body_is_400(self, client):
        status, body = client("PUT", "/users/carol/watchlist", {"nope": 1})
        assert status == 400 and "symbols" in body["error"]


class TestTelemetryRoutes:
    def test_telemetry_reports_server_and_sessions(self, client):
        status, body = client("GET", "/telemetry")
        assert status == 200
        hists = body["server"]["histograms"]
        assert any(k.startswith("serve.http.") for k in hists)
        sample = next(iter(hists.values()))
        assert {"count", "sum", "p50", "p95", "p99"} <= set(sample)

    def test_metrics_is_prometheus_text(self, client):
        status, text = client("GET", "/metrics")
        assert status == 200 and isinstance(text, str)
        assert "serve_http_requests" in text


class TestStoreRoutes:
    def test_days_lists_manifest(self, client):
        status, body = client("GET", "/store/days")
        assert status == 200
        assert body["days"] == [0, 1] and len(body["symbols"]) == 4

    def test_scan_with_pushdown_and_limit(self, client):
        status, body = client(
            "GET",
            "/store/scan?days=0&columns=t,bid,ask&t_min=0&t_max=600"
            "&limit=50",
        )
        assert status == 200
        assert set(body["columns"]) == {"t", "bid", "ask"}
        assert body["rows"] <= 50
        assert all(0 <= t < 600 for t in body["columns"]["t"])

    def test_scan_bad_predicate_is_400(self, client):
        status, body = client("GET", "/store/scan?days=7")
        assert status == 400 and "bad scan predicate" in body["error"]
        status, body = client("GET", "/store/scan?days=zero")
        assert status == 400 and "comma-separated integers" in body["error"]
        status, body = client("GET", "/store/scan?limit=999999")
        assert status == 400 and "<=" in body["error"]

    def test_no_store_is_a_pointed_400(self, bare):
        conn = http.client.HTTPConnection(*bare.server_address[:2], timeout=10)
        status, body = _exchange(conn, "GET", "/store/days")
        conn.close()
        assert status == 400
        assert "--store-root" in body["error"]
