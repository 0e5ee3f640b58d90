"""The node agent: engine loop plus HTTP endpoints.

One thread runs the engine at the configured window cadence and swaps a
complete, immutable report snapshot into place after every step. HTTP
handlers only ever read one snapshot reference, so scrapes never observe
a half-written window. Each snapshot renders its ``/metrics`` and
``/v1/node`` bodies on first read and shares them with later readers.

Endpoints: ``/metrics`` (OpenMetrics text), ``/v1/node`` (JSON report),
``/v1/workloads/{id}`` (JSON per-workload report, 404 if unknown), and
``/healthz`` (503 with the error once an error has stopped the engine loop).
"""

import json
import logging
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic
from typing import Optional

# Re-exported from buoyancy.config: callers written before that module
# existed import AgentConfig and plant_config_from_dict from here.
from .config import AgentConfig, plant_config_from_dict  # noqa: F401
from .engine import NodeReport
from .errors import BindError
from .exposition import CONTENT_TYPE, render_openmetrics
from .model import BuoyancyReport, ResourceScores
from .sources import ContentionPlant, PlantSource, ReplaySource

log = logging.getLogger(__name__)


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


class _Handler(BaseHTTPRequestHandler):
    agent: MetricsAgent = None  # set by make_server

    def log_message(self, fmt, *args):  # route http.server chatter to logging
        log.debug("http: " + fmt, *args)

    def _send(self, status: int, payload: bytes, content_type: str = "text/plain; charset=utf-8"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            error = self.agent.error
            if error is None:
                self._send(200, b"ok")
            else:
                self._send(503, f"engine loop stopped: {error}".encode("utf-8"))
            return
        if path not in ("/metrics", "/v1/node") and not path.startswith("/v1/workloads/"):
            self._send(404, b"not found")
            return
        snapshot = self.agent.current_snapshot()
        if snapshot is None:
            self._send(503, b"no report yet")
        elif path == "/metrics":
            self._send(200, snapshot.metrics_body(), content_type=CONTENT_TYPE)
        elif path == "/v1/node":
            self._send(200, snapshot.node_body(), content_type="application/json")
        else:
            wid = path[len("/v1/workloads/"):]
            wr = snapshot.workload(wid)
            if wr is None:
                self._send(404, f"unknown workload {wid!r}".encode("utf-8"))
            else:
                self._send(200, report_to_json(wr).encode("utf-8"), content_type="application/json")


def make_server(agent: MetricsAgent, host: str, port: int) -> ThreadingHTTPServer:
    """Bind the HTTP listener; raises BindError if the address is taken."""
    handler = type("Handler", (_Handler,), {"agent": agent})
    try:
        return ThreadingHTTPServer((host, port), handler)
    except OSError as exc:
        raise BindError(f"cannot bind {host}:{port}: {exc}") from None

