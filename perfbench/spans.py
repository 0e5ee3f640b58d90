"""Spans at layer boundaries, recorded from outside the package.

``install`` prepares timing wrappers for the public functions that each
layer exposes, to be switched on and off between operations. A wrapper
records one span per call; a span's self time is its duration minus the
durations of the spans it caused on the same thread. Spans are folded into
per-name totals in memory, one table per thread, and read with
``Tracer.totals`` when the run ends, or subtracted between two reads with
``difference``.
"""

import threading
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._tables = []
        self._lock = threading.RLock()  # totals() may run in a signal handler

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})  # (open spans' child time, totals)
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name, fn, value=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a span name, or a function of the call's positional
        arguments that returns one. ``value`` maps the call's result to a
        number summed per name (bytes rendered, degenerate fits).
        """
        clock = self._clock

        def traced(*args, **kwargs):
            stack, table = self._thread_state()
            label = name if isinstance(name, str) else name(*args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table.get(label)
                if row is None:
                    row = table[label] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children
            if value is not None:
                row[3] += value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self):
        """Per span name: calls, total_s, self_s and value, over all threads."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for label, (calls, total, own, value) in list(table.items()):
                row = merged.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += own
                row["value"] += value
        return merged


def difference(later, earlier):
    """Span totals accrued between two ``Tracer.totals`` snapshots."""
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}
    out = {}
    for label, row in later.items():
        before = earlier.get(label, zero)
        if row["calls"] > before["calls"]:
            out[label] = {k: row[k] - before[k] for k in zero}
    return out


def _endpoint(handler, *_):
    path = handler.path.split("?", 1)[0]
    if path == "/metrics":
        return "server.handler.metrics"
    if path == "/v1/node":
        return "server.handler.node"
    if path.startswith("/v1/workloads/"):
        return "server.handler.poll"
    return "server.handler.other"


def install(tracer):
    """Prepare wrappers for each layer's entry points in ``buoyancy``.

    Returns ``enable(on)``, which puts the wrappers in place or the original
    functions back; nothing changes until the first call. Module-level
    functions are replaced where their callers look them up:
    ``Engine.step`` finds ``score_workload`` in ``buoyancy.engine``, and the
    HTTP handler finds the renderers in ``buoyancy.server``.
    """
    from buoyancy import controller, engine, scores, server, sources

    swaps = []

    def patch(owner, attr, name, value=None):
        original = getattr(owner, attr)
        swaps.append((owner, attr, original, tracer.wrap(name, original, value)))

    patch(sources, "parse_telemetry_record", "sources.parse_record")
    patch(sources.ReplaySource, "next_batch", "sources.next_batch")
    patch(sources.ContentionPlant, "step", "sources.plant_step")
    patch(engine, "score_workload", "scores.score_workload")
    patch(scores, "fit_mrc", "scores.fit_mrc", value=lambda fit: int(fit.degenerate))
    patch(engine.Engine, "step", "engine.step")
    patch(engine, "node_resource_scores", "engine.node_resource_scores")
    patch(server, "render_openmetrics", "exposition.render_openmetrics", value=len)
    patch(server, "report_to_json", "server.report_to_json", value=len)
    patch(server._Handler, "do_GET", _endpoint)
    patch(server.MetricsAgent, "step_once", "server.engine_loop")
    patch(controller.ExtremumSeeker, "next_allocation", "controller.seeker")
    patch(controller.ExtremumSeeker, "observe", "controller.seeker")

    def enable(on):
        for owner, attr, original, traced in swaps:
            setattr(owner, attr, traced if on else original)

    return enable
