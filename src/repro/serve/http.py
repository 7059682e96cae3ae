"""Dependency-free HTTP/1.1 JSON transport for the serving layer.

Built entirely on the stdlib: a :class:`ThreadingHTTPServer` subclass
(one daemon thread per connection, so a slow client never blocks the
accept loop) plus a :class:`BaseHTTPRequestHandler` that parses the
request envelope — method, path, query string, JSON body, bearer token —
and hands a normalised :class:`Request` to the application's
``dispatch``.  No routing, auth or domain logic lives here; the handler
only speaks wire format and telemetry.

Every reply leaves as **one** ``sendall`` — status line, headers and
body joined first — on a socket with ``TCP_NODELAY`` set.  Written as
two segments, the second waits in Nagle's algorithm for the client's
delayed ACK of the first: a flat 40 ms on every request after a
connection's first, four orders of magnitude above the handlers.

Every request, matched or not, lands in two obs metrics::

    serve.http.<route>.seconds                  # latency histogram
    serve.http.requests[route=<route>,status=<code>]  # outcome counter

which is what the bench harness and the check.sh smoke stage gate on.
The histogram keeps lifetime count/sum and a fixed window of recent
samples (:class:`~repro.obs.registry.WindowedHistogram`), so neither
memory nor ``/telemetry`` grows with the number of requests served.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.serve.sessions import BadRequest

#: Request bodies past this size are rejected outright (413): every
#: legitimate payload (a session spec, a watchlist) is tiny.
MAX_BODY_BYTES = 1 << 20

#: A connection that sends nothing for this long is closed, so a
#: keep-alive client that goes quiet (or stalls mid-body) gives its
#: handler thread and socket back.
IDLE_TIMEOUT_S = 60.0


class BadFraming(BadRequest):
    """The body cannot be delimited, so the connection closes after the reply.

    Left open, the unread body would be parsed as the next request line.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request: what a route handler actually consumes."""

    method: str
    path: str
    parts: tuple[str, ...]
    query: dict[str, str]
    body: dict | None
    token: str | None
    #: Filled in by the router so telemetry can label the request.
    route: str = "unmatched"
    #: Named path captures (session id, user) set during matching.
    vars: dict[str, str] = field(default_factory=dict)

    # -- pointed query-parameter accessors (each 400s with specifics) --------

    def require_known_params(self, allowed: tuple[str, ...]) -> None:
        unknown = sorted(set(self.query) - set(allowed))
        if unknown:
            raise BadRequest(
                f"unknown query parameter {unknown[0]!r} for {self.route}; "
                f"allowed: {sorted(allowed)}"
            )

    def int_param(
        self,
        name: str,
        default: int | None,
        lo: int | None = None,
        hi: int | None = None,
    ) -> int | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise BadRequest(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None
        if lo is not None and value < lo:
            raise BadRequest(f"query parameter {name!r} must be >= {lo}")
        if hi is not None and value > hi:
            raise BadRequest(f"query parameter {name!r} must be <= {hi}")
        return value

    def float_param(self, name: str, default: float | None) -> float | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise BadRequest(
                f"query parameter {name!r} must be a number, got {raw!r}"
            ) from None

    def bool_param(self, name: str, default: bool) -> bool:
        raw = self.query.get(name)
        if raw is None:
            return default
        if raw in ("1", "true", "yes"):
            return True
        if raw in ("0", "false", "no"):
            return False
        raise BadRequest(
            f"query parameter {name!r} must be one of "
            f"1/0/true/false/yes/no, got {raw!r}"
        )

    def list_param(self, name: str) -> list[str] | None:
        raw = self.query.get(name)
        if raw is None or raw == "":
            return None
        return [part.strip() for part in raw.split(",") if part.strip()]

    def int_list_param(self, name: str) -> list[int] | None:
        parts = self.list_param(name)
        if parts is None:
            return None
        try:
            return [int(part) for part in parts]
        except ValueError:
            raise BadRequest(
                f"query parameter {name!r} must be comma-separated "
                f"integers, got {self.query[name]!r}"
            ) from None


@dataclass(frozen=True)
class Response:
    """Status plus payload; dict payloads go out as JSON, str as text."""

    status: int
    payload: dict | list | str


def _json_default(obj):
    """Coerce numpy scalars (and other oddballs) for json.dumps."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


class _Handler(BaseHTTPRequestHandler):
    """Wire-format adapter: envelope in, JSON out, metrics always."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # The stdlib handler logs every request to stderr; the obs registry
    # is the serving layer's log, so silence the side channel.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_PUT(self) -> None:
        self._handle("PUT")

    def do_DELETE(self) -> None:
        self._handle("DELETE")

    def _read_body(self) -> dict | None:
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise BadFraming(
                400,
                f"Content-Length must be a non-negative integer, "
                f"got {declared!r}",
            )
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            raise BadFraming(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise BadFraming(
                408,
                f"request body stalled: fewer than the declared {length} "
                f"bytes arrived within {self.timeout:g} s",
            ) from None
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise BadRequest(
                f"request body must be a JSON object, "
                f"got {type(body).__name__}"
            )
        return body

    def _token(self) -> str | None:
        header = self.headers.get("Authorization")
        if header is None:
            return None
        scheme, _, credential = header.partition(" ")
        if scheme.lower() != "bearer" or not credential:
            return None
        return credential.strip()

    def _handle(self, method: str) -> None:
        app = self.server.app
        t0 = time.perf_counter()
        request: Request | None = None
        try:
            split = urlsplit(self.path)
            path = unquote(split.path)
            parts = tuple(part for part in path.split("/") if part)
            query = dict(parse_qsl(split.query, keep_blank_values=True))
            request = Request(
                method=method,
                path=path,
                parts=parts,
                query=query,
                body=self._read_body(),
                token=self._token(),
            )
            response = app.dispatch(request)
        except BadRequest as exc:
            if isinstance(exc, BadFraming):
                self.close_connection = True
            response = Response(exc.status, {"error": str(exc)})
        except Exception as exc:  # wire/handler bug: never drop the socket
            response = Response(
                500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )
        route = request.route if request is not None else "unmatched"
        self._send(response)
        elapsed = time.perf_counter() - t0
        metrics = app.obs.metrics
        latency = f"serve.http.{route}.seconds"
        outcome = (
            f"serve.http.requests[route={route},status={response.status}]"
        )
        with self.server.metrics_lock:
            metrics.windowed_histogram(latency).observe(elapsed)
            metrics.counter(outcome).inc()
            if response.status >= 500:
                metrics.counter("serve.http.errors").inc()

    def _send(self, response: Response) -> None:
        payload = response.payload
        if isinstance(payload, str):
            data = payload.encode()
            content_type = "text/plain; charset=utf-8"
        else:
            data = json.dumps(payload, default=_json_default).encode()
            content_type = "application/json"
        status = response.status
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        ).encode("latin-1")
        try:
            # One write: wfile is unbuffered, so this is one sendall.
            self.wfile.write(head + data)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # Client went away (or stopped reading) mid-reply; nothing to
            # salvage, and the stream is no longer at a message boundary.
            self.close_connection = True


class ServeHTTPServer(ThreadingHTTPServer):
    """Threading server bound to one :class:`~repro.serve.app.ServeApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app):
        self.app = app
        #: Serialises the handler threads' read-modify-write metric updates.
        self.metrics_lock = threading.Lock()
        super().__init__(address, _Handler)


def make_server(app, host: str = "127.0.0.1", port: int = 0) -> ServeHTTPServer:
    """Bind the app to ``host:port`` (port 0 picks an ephemeral port)."""
    return ServeHTTPServer((host, port), app)
