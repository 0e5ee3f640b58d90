"""The node agent: engine loop plus HTTP endpoints.

One thread runs the engine at the configured window cadence and swaps a
complete, immutable report snapshot into place after every step. HTTP
handlers only ever read one snapshot reference, so scrapes never observe
a half-written window.

Endpoints: ``/metrics`` (OpenMetrics text), ``/v1/node`` (JSON report),
``/v1/workloads/{id}`` (JSON per-workload report, 404 if unknown), and
``/healthz``.
"""

import dataclasses
import json
import logging
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

# Re-exported from buoyancy.config: callers written before that module
# existed import AgentConfig and plant_config_from_dict from here.
from .config import AgentConfig, plant_config_from_dict  # noqa: F401
from .engine import Engine, NodeReport
from .errors import BindError, EmptyNode
from .exposition import CONTENT_TYPE, render_openmetrics
from .sources import ContentionPlant, PlantSource, ReplaySource

log = logging.getLogger(__name__)


def _json_default(value):
    if isinstance(value, datetime):
        return value.isoformat()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def report_to_json(report) -> str:
    return json.dumps(dataclasses.asdict(report), default=_json_default)


class MetricsAgent:
    """Owns the engine loop and the latest report snapshot."""

    def __init__(self, config: AgentConfig):
        self.config = config
        self.engine = Engine(
            topology=config.topology,
            node_cores=config.node_cores,
            slos=config.slos,
            config=config.engine,
        )
        if config.source_type == "replay":
            self._source = ReplaySource(config.replay_path, strict=config.replay_strict)
        else:
            plant = ContentionPlant(config.plant, interference=config.interference)
            self._source = PlantSource(plant, config.allocations)
        self._snapshot: Optional[NodeReport] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def snapshot(self) -> Optional[NodeReport]:
        return self._snapshot

    def step_once(self) -> bool:
        """Pull one batch and refresh the snapshot. False at end of stream."""
        batch = self._source.next_batch()
        if batch is None:
            return False
        try:
            self._snapshot = self.engine.step(batch)
        except EmptyNode:
            log.debug("empty window, keeping previous snapshot")
        return True

    def _run(self):
        while not self._stop.is_set():
            if not self.step_once():
                log.info("telemetry source exhausted; serving last snapshot")
                return
            self._stop.wait(self.config.window_s)

    def start(self):
        self._thread = threading.Thread(target=self._run, name="engine-loop", daemon=True)
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


class _Handler(BaseHTTPRequestHandler):
    agent: MetricsAgent = None  # set by make_server

    def log_message(self, fmt, *args):  # route http.server chatter to logging
        log.debug("http: " + fmt, *args)

    def _send(self, status: int, body: str, content_type: str = "text/plain; charset=utf-8"):
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send(200, "ok")
            return
        if path not in ("/metrics", "/v1/node") and not path.startswith("/v1/workloads/"):
            self._send(404, "not found")
            return
        report = self.agent.snapshot()
        if report is None:
            self._send(503, "no report yet")
        elif path == "/metrics":
            self._send(200, render_openmetrics(report), content_type=CONTENT_TYPE)
        elif path == "/v1/node":
            self._send(200, report_to_json(report), content_type="application/json")
        else:
            wid = path[len("/v1/workloads/"):]
            for wr in report.workload_reports:
                if wr.workload_id == wid:
                    self._send(200, report_to_json(wr), content_type="application/json")
                    return
            self._send(404, f"unknown workload {wid!r}")


def make_server(agent: MetricsAgent, host: str, port: int) -> ThreadingHTTPServer:
    """Bind the HTTP listener; raises BindError if the address is taken."""
    handler = type("Handler", (_Handler,), {"agent": agent})
    try:
        return ThreadingHTTPServer((host, port), handler)
    except OSError as exc:
        raise BindError(f"cannot bind {host}:{port}: {exc}") from None


def serve(config: AgentConfig, host: str, port: int, ready=None) -> NodeReport:
    """Run the agent until interrupted; returns the final report snapshot.

    ``ready`` is an optional callback invoked with the bound server once
    listening (used by tests to learn the ephemeral port).
    """
    agent = MetricsAgent(config)
    server = make_server(agent, host, port)
    agent.start()
    if ready is not None:
        ready(server)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        agent.stop()
        server.server_close()
    return agent.snapshot()
