"""The node agent: engine loop plus HTTP endpoints.

One thread runs the engine at the configured window cadence and swaps a
complete, immutable report snapshot into place after every step. An error
that ends its loop calls the hook given to ``MetricsAgent.start``, which
``serve`` uses to stop serving. HTTP handlers only ever read one snapshot
reference, so scrapes never observe a half-written window. Each snapshot
renders its ``/metrics`` and ``/v1/node`` bodies on first read and shares
them with later readers.

Endpoints: ``/metrics`` (OpenMetrics text), ``/v1/node`` (JSON report),
``/v1/workloads/{id}`` (JSON per-workload report, 404 if unknown; the id is
percent-decoded), and ``/healthz`` (503 with the error once an error has
stopped the engine loop). ``_Handler`` turns one request head into the
bytes of one HTTP/1.0 answer: status line, ``Content-Type``,
``Content-Length`` and body. A bad request line gets 400, another method
501, a head over ``MAX_HEAD_BYTES`` 431 and a handler error 500; a query
string is ignored. ``buoyancy.httpd`` moves those bytes over sockets, so
a process that only steps the engine does not load it.
"""

import logging
import re
import threading
from http import HTTPStatus
from json.encoder import encode_basestring_ascii
from time import monotonic
from typing import Callable, Optional
from urllib.parse import unquote

# Re-exported for callers written before buoyancy.config existed.
from .config import AgentConfig, plant_config_from_dict  # noqa: F401
from .engine import NodeReport
from .exposition import CONTENT_TYPE, render_openmetrics
from .model import BuoyancyReport, ResourceScores
from .sources import ContentionPlant, PlantSource, ReplaySource

log = logging.getLogger(__name__)

MAX_HEAD_BYTES = 64 * 1024
_HEAD_END = re.compile(rb"\r?\n\r?\n")


def _number(value: float) -> str:
    """A number as ``json.dumps`` writes it, non-finite values included."""
    if value - value == 0.0:
        return repr(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


def _scores_json(scores: ResourceScores) -> str:
    return f'{{"cpu": {_number(scores.cpu)}, "llc": {_number(scores.llc)}, "mbw": {_number(scores.mbw)}}}'


def _workload_json(wr: BuoyancyReport) -> str:
    return (
        f'{{"workload_id": {encode_basestring_ascii(wr.workload_id)}, "perf_score": {_number(wr.perf_score)}, '
        f'"buoyancy": {_number(wr.buoyancy)}, "resource_scores": {_scores_json(wr.resource_scores)}, '
        f'"approaching_violation": {"true" if wr.approaching_violation else "false"}}}'
    )


def report_to_json(report) -> str:
    """A ``NodeReport`` or ``BuoyancyReport`` as ``json.dumps`` of its fields in field order would write it."""
    if not isinstance(report, NodeReport):
        return _workload_json(report)
    return (
        f'{{"node_resource_scores": {_scores_json(report.node_resource_scores)}, '
        f'"node_buoyancy": {_number(report.node_buoyancy)}, '
        f'"workload_reports": [{", ".join(map(_workload_json, report.workload_reports))}], '
        f'"window_start": "{report.window_start.isoformat()}", "window_end": "{report.window_end.isoformat()}"}}'
    )


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

    def _run(self, on_error: Optional[Callable[[], None]] = None):
        """Step once per ``window_s`` on monotonic deadlines until stopped or the source ends.

        A step that overruns its window moves the next deadline to now
        instead of queueing the missed ones. An error ends the loop; it is
        kept in ``error``, which ``/healthz`` reports, and ``on_error`` is called.
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
            if on_error is not None:
                on_error()

    def start(self, on_error: Optional[Callable[[], None]] = None):
        self._thread = threading.Thread(target=self._run, args=(on_error,), name="engine-loop", daemon=True)
        self._thread.start()

    def stop(self):
        """Stop the engine loop and, once it has ended, close the source."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._thread is None or not self._thread.is_alive():
            self._source.close()


class _Handler:
    """The answer to one request head, as the bytes of one HTTP/1.0 response."""

    request_line = path = ""

    def __init__(self, agent: MetricsAgent):
        self.agent = agent

    def _send(self, status: int, payload: bytes, content_type: str = "text/plain; charset=utf-8") -> bytes:
        head = f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nContent-Type: {content_type}\r\n"
        log.debug('http: "%s" %d %d', self.request_line, status, len(payload))
        return f"{head}Content-Length: {len(payload)}\r\n\r\n".encode("latin-1") + payload

    def respond(self, head: bytes) -> bytes:
        """The response to ``head``; a handler error is logged and answered with 500."""
        try:
            head = _HEAD_END.split(head, 1)[0]
            self.request_line = head.split(b"\n", 1)[0].rstrip(b"\r").decode("latin-1")
            words = self.request_line.split()
            if len(head) > MAX_HEAD_BYTES:
                return self._send(431, b"request head too large")
            if len(words) != 3 or not words[2].startswith("HTTP/"):
                return self._send(400, b"bad request line")
            if words[0] != "GET":
                body = b"" if words[0] == "HEAD" else f"unsupported method {words[0]!r}".encode("latin-1")
                return self._send(501, body)
            self.path = words[1]
            return self.do_GET()
        except Exception:  # the request's boundary: log, answer 500, keep serving
            log.exception('http: "%s" failed', self.request_line)
            return self._send(500, b"internal server error")

    def do_GET(self) -> bytes:  # noqa: N802 (looked up on the class per request, so it can be wrapped)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            error = self.agent.error
            if error is None:
                return self._send(200, b"ok")
            return self._send(503, f"engine loop stopped: {error}".encode("utf-8"))
        if path not in ("/metrics", "/v1/node") and not path.startswith("/v1/workloads/"):
            return self._send(404, b"not found")
        snapshot = self.agent.current_snapshot()
        if snapshot is None:
            return self._send(503, b"no report yet")
        if path == "/metrics":
            return self._send(200, snapshot.metrics_body(), content_type=CONTENT_TYPE)
        if path == "/v1/node":
            return self._send(200, snapshot.node_body(), content_type="application/json")
        wid = unquote(path[len("/v1/workloads/"):])
        wr = snapshot.workload(wid)
        if wr is None:
            return self._send(404, f"unknown workload {wid!r}".encode("utf-8"))
        return self._send(200, report_to_json(wr).encode("utf-8"), content_type="application/json")
