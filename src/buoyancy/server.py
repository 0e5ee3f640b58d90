"""The node agent: engine loop plus HTTP endpoints.

One thread runs the engine at the configured window cadence and swaps a
complete, immutable report snapshot into place after every step. HTTP
handlers only ever read one snapshot reference, so scrapes never observe
a half-written window. Each snapshot renders its ``/metrics`` and
``/v1/node`` bodies on first read and shares them with later readers.

Endpoints: ``/metrics`` (OpenMetrics text), ``/v1/node`` (JSON report),
``/v1/workloads/{id}`` (JSON per-workload report, 404 if unknown; the id is
percent-decoded), and ``/healthz`` (503 with the error once an error has
stopped the engine loop). HTTP/1.0 with one GET per connection: each of
``CONNECTION_THREADS`` threads accepts, reads the head and answers with one
write of the status line, ``Content-Type``, ``Content-Length`` and body. A
bad request line gets 400, another method 501, a head over ``MAX_HEAD_BYTES``
431 and a handler error 500; a query string is ignored, and a connection
silent for ``CONNECTION_TIMEOUT_S`` is dropped.
"""

import contextlib
import json
import logging
import re
import socket
import threading
from datetime import datetime
from http import HTTPStatus
from time import monotonic
from typing import Optional
from urllib.parse import unquote

# Re-exported for callers written before buoyancy.config existed.
from .config import AgentConfig, plant_config_from_dict  # noqa: F401
from .engine import NodeReport
from .errors import BindError
from .exposition import CONTENT_TYPE, render_openmetrics
from .model import BuoyancyReport, ResourceScores
from .sources import ContentionPlant, PlantSource, ReplaySource

log = logging.getLogger(__name__)

CONNECTION_THREADS = 8
CONNECTION_TIMEOUT_S = 10.0
MAX_HEAD_BYTES = 64 * 1024
_HEAD_END = re.compile(rb"\r?\n\r?\n")


def _json_default(value):
    if isinstance(value, datetime):
        return value.isoformat()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _scores_dict(scores: ResourceScores) -> dict:
    return {"cpu": scores.cpu, "llc": scores.llc, "mbw": scores.mbw}


def _workload_dict(wr: BuoyancyReport) -> dict:
    return {
        "workload_id": wr.workload_id,
        "perf_score": wr.perf_score,
        "buoyancy": wr.buoyancy,
        "resource_scores": _scores_dict(wr.resource_scores),
        "approaching_violation": wr.approaching_violation,
    }


def _node_dict(report: NodeReport) -> dict:
    return {
        "node_resource_scores": _scores_dict(report.node_resource_scores),
        "node_buoyancy": report.node_buoyancy,
        "workload_reports": [_workload_dict(wr) for wr in report.workload_reports],
        "window_start": report.window_start,
        "window_end": report.window_end,
    }


def report_to_json(report) -> str:
    """A ``NodeReport`` or ``BuoyancyReport`` as JSON, keyed by field name in field order."""
    as_dict = _node_dict if isinstance(report, NodeReport) else _workload_dict
    return json.dumps(as_dict(report), default=_json_default)


class Snapshot:
    """One window's report and what the handlers serve from it.

    The ``/metrics`` and ``/v1/node`` bodies and the id index are built on
    first read and kept until the next window replaces the snapshot; the
    lock makes concurrent first readers build each of them once.
    """

    __slots__ = ("report", "_lock", "_metrics", "_node", "_workloads")

    def __init__(self, report: NodeReport):
        self.report = report
        self._lock = threading.Lock()
        self._metrics = self._node = self._workloads = None

    def _once(self, attr: str, build):
        value = getattr(self, attr)
        if value is None:
            with self._lock:
                value = getattr(self, attr)
                if value is None:
                    value = build()
                    setattr(self, attr, value)
        return value

    def metrics_body(self) -> bytes:
        return self._once("_metrics", lambda: render_openmetrics(self.report).encode("utf-8"))

    def node_body(self) -> bytes:
        return self._once("_node", lambda: report_to_json(self.report).encode("utf-8"))

    def workload(self, workload_id: str) -> Optional[BuoyancyReport]:
        index = self._once("_workloads", lambda: {wr.workload_id: wr for wr in self.report.workload_reports})
        return index.get(workload_id)


class MetricsAgent:
    """Owns the engine loop and the latest report snapshot."""

    def __init__(self, config: AgentConfig):
        self.config = config
        self.engine = config.new_engine()
        if config.source_type == "replay":
            self._source = ReplaySource(config.replay_path, strict=config.replay_strict)
        else:
            self._source = PlantSource(ContentionPlant(config.plant), config.allocations, config.interference)
        self._snapshot: Optional[Snapshot] = None
        #: What ended the engine loop, when an error did; None while it runs or after the source ended.
        self.error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def snapshot(self) -> Optional[NodeReport]:
        current = self._snapshot
        return None if current is None else current.report

    def current_snapshot(self) -> Optional[Snapshot]:
        """The latest window with its rendered bodies, for the HTTP handlers."""
        return self._snapshot

    def step_once(self) -> bool:
        """Pull one batch and refresh the snapshot. False at end of stream; a rejected batch raises."""
        batch = self._source.next_batch()
        if batch is None:
            return False
        self._snapshot = Snapshot(self.engine.step(batch))
        return True

    def _run(self):
        """Step once per ``window_s`` on monotonic deadlines until stopped or the source ends.

        A step that overruns its window moves the next deadline to now
        instead of queueing the missed ones. An error ends the loop and is
        kept in ``error``, which ``/healthz`` reports.
        """
        period = self.config.window_s
        deadline = monotonic()
        try:
            while not self._stop.is_set():
                if not self.step_once():
                    log.info("telemetry source exhausted; serving last snapshot")
                    return
                now = monotonic()
                deadline = max(deadline + period, now)
                self._stop.wait(deadline - now)
        except Exception as exc:  # the loop's boundary: record what ended it
            log.exception("engine loop stopped")
            self.error = f"{type(exc).__name__}: {exc}"

    def start(self):
        self._thread = threading.Thread(target=self._run, name="engine-loop", daemon=True)
        self._thread.start()

    def stop(self):
        """Stop the engine loop and, once it has ended, close the source."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._thread is None or not self._thread.is_alive():
            self._source.close()


class _Handler:
    """One request on one connection, answered with a single write."""

    request_line = path = ""

    def __init__(self, agent: MetricsAgent, conn: socket.socket):
        self.agent, self.conn = agent, conn

    def _send(self, status: int, payload: bytes, content_type: str = "text/plain; charset=utf-8"):
        head = f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nContent-Type: {content_type}\r\n"
        log.debug('http: "%s" %d %d', self.request_line, status, len(payload))
        self.conn.sendall(f"{head}Content-Length: {len(payload)}\r\n\r\n".encode("latin-1") + payload)

    def handle(self):
        """Read the request head and answer it; a client that sends nothing gets nothing."""
        head = bytearray()
        while chunk := self.conn.recv(16384):
            head += chunk  # searched from where the new bytes could complete the blank line
            if len(head) > MAX_HEAD_BYTES or _HEAD_END.search(head, len(head) - len(chunk) - 3):
                break
        if not head:
            return
        head = _HEAD_END.split(head, 1)[0]
        self.request_line = head.split(b"\n", 1)[0].rstrip(b"\r").decode("latin-1")
        words = self.request_line.split()
        if len(head) > MAX_HEAD_BYTES:
            self._send(431, b"request head too large")
        elif len(words) != 3 or not words[2].startswith("HTTP/"):
            self._send(400, b"bad request line")
        elif words[0] != "GET":
            self._send(501, b"" if words[0] == "HEAD" else f"unsupported method {words[0]!r}".encode("latin-1"))
        else:
            self.path = words[1]
            self.do_GET()

    def do_GET(self):  # noqa: N802 (looked up on the class per request, so it can be wrapped)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            error = self.agent.error
            if error is None:
                self._send(200, b"ok")
            else:
                self._send(503, f"engine loop stopped: {error}".encode("utf-8"))
        elif path not in ("/metrics", "/v1/node") and not path.startswith("/v1/workloads/"):
            self._send(404, b"not found")
        elif (snapshot := self.agent.current_snapshot()) is None:
            self._send(503, b"no report yet")
        elif path == "/metrics":
            self._send(200, snapshot.metrics_body(), content_type=CONTENT_TYPE)
        elif path == "/v1/node":
            self._send(200, snapshot.node_body(), content_type="application/json")
        else:
            wid = unquote(path[len("/v1/workloads/"):])
            wr = snapshot.workload(wid)
            if wr is None:
                self._send(404, f"unknown workload {wid!r}".encode("utf-8"))
            else:
                self._send(200, report_to_json(wr).encode("utf-8"), content_type="application/json")


class HttpServer:
    """A listener served by ``CONNECTION_THREADS`` threads that each accept and answer."""

    def __init__(self, listener: socket.socket, agent: MetricsAgent):
        self._listener, self._agent = listener, agent
        self._stop = threading.Event()
        self.server_address = listener.getsockname()

    def serve_forever(self):
        """Start the connection threads; return once ``shutdown`` is called."""
        for i in range(CONNECTION_THREADS):
            threading.Thread(target=self._accept_loop, name=f"http-{i}", daemon=True).start()
        self._stop.wait()

    def shutdown(self):
        """Wake every blocked ``accept()`` (Linux); each thread ends after its current request."""
        self._stop.set()
        self._listener.shutdown(socket.SHUT_RDWR)

    def server_close(self):
        self._listener.close()

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                self._stop.wait(0.05)  # shut down, or out of descriptors: retry after a pause
                continue
            with conn:
                conn.settimeout(CONNECTION_TIMEOUT_S)
                handler = _Handler(self._agent, conn)
                try:
                    handler.handle()
                except OSError as exc:  # the client went silent or away
                    log.debug("http: connection dropped: %s", exc)
                except Exception:  # the connection's boundary: log, answer 500, keep the thread
                    log.exception('http: "%s" failed', handler.request_line)
                    with contextlib.suppress(OSError):
                        handler._send(500, b"internal server error")


def make_server(agent: MetricsAgent, host: str, port: int) -> HttpServer:
    """Bind the HTTP listener; raises BindError if the address is taken."""
    try:
        listener = socket.create_server((host, port))
    except OSError as exc:
        raise BindError(f"cannot bind {host}:{port}: {exc}") from None
    return HttpServer(listener, agent)
