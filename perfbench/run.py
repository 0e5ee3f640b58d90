"""Benchmark of the buoyancy agent on three workloads.

    python3 perfbench/run.py --workload ingest-1k --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ``src/``.

* ``ingest-1k``: a generated 1,000-workload replay drained through
  ``MetricsAgent.step_once`` back to back (closed loop, one thread).
* ``serve-1k``: ``buoyancy serve`` on such a replay under an open-loop mix
  of /metrics, /v1/node and /v1/workloads/{id} requests.
* ``controller-sim``: ``controller.run_experiment`` on the bundled plant,
  controller and schedule configs, called again and again with fresh plant
  seeds.

Every workload reports the same end-to-end metrics; what one operation is
depends on the workload (a window, a request, a ``run_experiment`` call).
With ``--trace 1`` the workload runs both untraced and traced, and the
per-layer metrics come from spans around each layer's public functions. Outputs are
checked against ``oracle.py``; an operation whose output is wrong counts as
failed. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import functools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

import gen
import oracle
import serve
from stats import describe, percentile
from worker import peak_rss_kib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
SETUP_RUNS = 9
SAMPLED_PER_WINDOW = 5
INGEST_WINDOWS = 60
SERVE_EXTRA_WINDOWS = 20  # the replay outlasts set-up plus the load
CONTROLLER_REPETITIONS = 2  # per run_experiment call: about 30 ms, hundreds of samples
CONTROLLER_CHECK_EVERY = 100

# latency_ms is each workload's gated latency: the p90 of windows (ingest-1k),
# the p50 of /metrics scrapes plus the p50 of /v1/node reads (serve-1k) and
# the p90 of calls (controller-sim), the statistics that repeat from run to
# run on a shared host (README.md).

# Per-layer metric -> (span name, statistic, scale). Statistics are taken
# over the traced phase: "calls" per run, "total"/"self" per call, and
# "value" (bytes, degenerate fits) per call.
LAYER_SPANS = {
    "sources.parse_record.calls": ("sources.parse_record", "calls", 1),
    "sources.parse_record.us_per_call": ("sources.parse_record", "total", 1e6),
    "sources.next_batch.self_ms": ("sources.next_batch", "self", 1e3),
    "sources.plant_step.calls": ("sources.plant_step", "calls", 1),
    "sources.plant_step.ms": ("sources.plant_step", "total", 1e3),
    "scores.score_workload.calls": ("scores.score_workload", "calls", 1),
    "scores.score_workload.self_ms": ("scores.score_workload", "self", 1e3),
    "scores.score_workload.us_per_call": ("scores.score_workload", "total", 1e6),
    "scores.fit_mrc.ms": ("scores.fit_mrc", "total", 1e3),
    "scores.llc_degenerate.ratio": ("scores.fit_mrc", "value", 1),
    "engine.step.calls": ("engine.step", "calls", 1),
    "engine.step.self_ms": ("engine.step", "self", 1e3),
    "engine.node_resource_scores.ms": ("engine.node_resource_scores", "total", 1e3),
    "exposition.render_openmetrics.calls": ("exposition.render_openmetrics", "calls", 1),
    "exposition.render_openmetrics.ms": ("exposition.render_openmetrics", "total", 1e3),
    "exposition.render_openmetrics.bytes": ("exposition.render_openmetrics", "value", 1),
    "server.report_to_json.calls": ("server.report_to_json", "calls", 1),
    "server.report_to_json.ms": ("server.report_to_json", "total", 1e3),
    "server.report_to_json.bytes": ("server.report_to_json", "value", 1),
    "server.handler.metrics.self_ms": ("server.handler.metrics", "self", 1e3),
    "server.handler.node.self_ms": ("server.handler.node", "self", 1e3),
    "server.handler.poll.self_ms": ("server.handler.poll", "self", 1e3),
    "server.engine_loop.step_ms": ("server.engine_loop", "total", 1e3),
    "controller.seeker.ms": ("controller.seeker", "total", 1e3),
}
# Spans that only glue layers together; left out of the layer self-time sum.
GLUE_SPANS = {"server.engine_loop"}


def mean_ms(ns):
    return statistics.fmean(ns) / 1e6


def span_stat(spans, name, stat, scale):
    row = spans.get(name)
    if not row or not row["calls"]:
        return 0.0
    if stat == "calls":
        return float(row["calls"])
    key = {"total": "total_s", "self": "self_s", "value": "value"}[stat]
    return row[key] / row["calls"] * scale


def layer_metrics(spans, untraced_ms, traced_ms, ops, serve_extra=None):
    """Every per-layer metric, zero where the workload does not reach a layer."""
    values = {name: span_stat(spans, *spec) for name, spec in LAYER_SPANS.items()}
    values.update(serve_extra or {"server.http.wait_ms": 0.0, "loadgen.lag_ms_p99": 0.0, "loadgen.sent": 0.0})
    layer_self = sum(row["self_s"] for name, row in spans.items() if name not in GLUE_SPANS)
    values.update({
        "trace.op_ms_untraced": untraced_ms,
        "trace.op_ms_traced": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
        "trace.layer_self_ms": layer_self * 1e3 / max(ops, 1),
    })
    return values


@functools.cache
def units():
    """Every metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def run_worker(spec, work, tag):
    spec_path = os.path.join(work, f"{tag}.spec.json")
    out_path = os.path.join(work, f"{tag}.out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path],
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
        timeout=spec["seconds"] * (1 + spec["trace"]) + 60,
    )
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_times(spec, work):
    return [run_worker(dict(spec, setup_only=True), work, f"setup{i}")["setup_s"] for i in range(SETUP_RUNS - 1)]


def strict_parse(path):
    """Parse every generated line as the agent will; a bad generator fails here."""
    from buoyancy.sources import parse_telemetry_record

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parse_telemetry_record(json.loads(line), strict=True)


def make_replay(work, seed, windows, lines):
    replay = os.path.join(work, "replay.jsonl")
    config = os.path.join(work, "agent.json")
    data, profiles, mix = gen.write_replay(replay, seed, windows)
    gen.write_config(config, replay, profiles)
    strict_parse(replay)
    lines.append(f"mix: {gen.format_mix(mix)} windows={windows}")
    return config, data, profiles


def result(attempted, failed, metrics, correct=True):
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units()[k]} for k, v in metrics.items()},
    }


def end_to_end(setups, rss_kib, latency_ms):
    return {"setup_s": statistics.median(setups), "peak_rss_mb": rss_kib / 1024.0, "latency_ms": latency_ms}


def finish(args, lines, attempted, failed, e2e, layers, correct=True):
    lines.append(f"failed_ratio = {failed / max(attempted, 1):.6f} failed/attempted ({failed}/{attempted})")
    if args.trace:
        for name, value in layers.items():
            lines.append(f"{name} = {value:.6g} {units()[name]}")
        return result(attempted, failed, layers, correct)
    return result(attempted, failed, e2e, correct)


# --------------------------------------------------------------------------
# ingest-1k
# --------------------------------------------------------------------------


def ingest(args, work, lines):
    config, data, profiles = make_replay(work, args.seed, INGEST_WINDOWS, lines)
    rng = random.Random(f"sample:{args.seed}")
    sample_ids = [rng.sample([s["workload_id"] for s in batch], SAMPLED_PER_WINDOW) for batch in data]
    slos = {wid: p["slo"] for wid, p in profiles.items() if p["slo"] is not None}
    expected = oracle.replay_node(data, gen.TOPOLOGY, slos, alpha=0.7, ema=0.5, expiry=3)
    spec = {"workload": "ingest", "config": config, "seconds": args.seconds, "trace": args.trace,
            "sample_ids": sample_ids, "setup_only": False}
    setups = [] if args.trace else setup_times(spec, work)
    out = run_worker(spec, work, "run")
    setups.append(out["setup_s"])

    attempted = failed = 0
    for phase in out["phases"]:
        for window, node_b, got in phase["checks"]:
            want_node, want = expected[window]
            ok = oracle.close(node_b, want_node) and all(
                wid in got and oracle.close(got[wid], want[wid]) for wid in sample_ids[window])
            attempted += 1
            failed += not ok

    base = out["phases"][0]
    op_ms = [ns / 1e6 for ns in base["op_ns"]]
    windows = len(op_ms)
    throughput = windows * gen.N / (sum(base["op_ns"]) / 1e9)
    lines += [
        f"ingest_samples_per_s = {throughput:.1f} samples/s (windows={windows}, N={gen.N})",
        describe("window_ms_p50", op_ms, 0.5),
        describe("window_ms_p90", op_ms, 0.9),
        f"cpu_ms_per_window = {base['cpu_ns'] / 1e6 / windows:.4f} ms",
        f"setup_s = {statistics.median(setups):.4f} s (median of {len(setups)} processes)",
    ]
    layers = None
    if args.trace:
        traced = out["phases"][1]
        spans = out["spans"]
        untraced_ms, traced_ms = mean_ms(base["op_ns"]), mean_ms(traced["op_ns"])
        layers = layer_metrics(spans, untraced_ms, traced_ms, len(traced["op_ns"]))
        lines += accounting(layers, percentile(op_ms, 0.5)) + baselines(spans)
    e2e = None if args.trace else end_to_end(setups, out["peak_rss_kib"], percentile(op_ms, 0.9))
    return finish(args, lines, attempted, failed, e2e, layers)


def accounting(layers, untraced_p50):
    """Do the layers' self times add up to the untraced window time?

    Sums of self time are additive in the mean, so the comparison uses mean
    window times; the untraced median is printed beside them.
    """
    self_ms, untraced = layers["trace.layer_self_ms"], layers["trace.op_ms_untraced"]
    overhead = layers["trace.op_ms_traced"] - untraced
    verdict = "within" if abs(self_ms - untraced) <= overhead else "OUTSIDE"
    return [f"accounting: layer self time {self_ms:.3f} ms/window vs untraced window mean "
            f"{untraced:.3f} ms (p50 {untraced_p50:.3f} ms); difference {self_ms - untraced:+.3f} ms, "
            f"{verdict} the tracing overhead of {overhead:.3f} ms"]


def baselines(spans):
    """The ROADMAP's indicative per-layer figures, from the traced phase."""
    records = spans.get("sources.parse_record", {}).get("calls", 0)
    scores = spans.get("scores.score_workload", {})
    step = spans.get("engine.step", {})
    if not records or not scores.get("calls"):
        return []
    parse_s = spans["sources.next_batch"]["self_s"] + spans["sources.parse_record"]["total_s"]
    return [
        f"baseline: parse {parse_s / records * 1e6:.2f} us/record (readline + json.loads + parse_telemetry_record)",
        f"baseline: score_workload {scores['total_s'] / scores['calls'] * 1e6:.2f} us/call",
        f"baseline: Engine.step {step['total_s'] / scores['calls'] * 1e6:.2f} us/workload at N={gen.N}",
    ]


# --------------------------------------------------------------------------
# serve-1k
# --------------------------------------------------------------------------


def serve_phase(args, config, work, tag, traced):
    """One agent under one load; returns (results, items, setup_s, cpu_s, rss_kib, spans, clean)."""
    spans_path = os.path.join(work, f"{tag}.spans.json") if traced else None
    agent = serve.Agent(config, SRC, os.path.join(work, f"{tag}.log"), spans_path)
    try:
        setup_s = agent.wait_ready()
        serve.run_load(agent.port, serve.plan(args.seed, serve.WARMUP_S))
        items = serve.plan(args.seed, args.seconds)
        if traced:
            agent.mark()
        cpu0 = agent.cpu_s()
        results = serve.run_load(agent.port, items)
        cpu_s = agent.cpu_s() - cpu0
        if traced:
            agent.mark()
        rss_kib = peak_rss_kib(agent.proc.pid)
    finally:
        clean = agent.stop()
    clean = clean and serve.final_report_ok(agent.stdout)
    spans = None
    if traced and clean:
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
    return results, items, setup_s, cpu_s, rss_kib, spans, clean


def setup_serve(config, work):
    times = []
    for i in range(SETUP_RUNS - 1):
        agent = serve.Agent(config, SRC, os.path.join(work, f"setup{i}.log"))
        try:
            times.append(agent.wait_ready())
        finally:
            if not agent.stop():
                raise RuntimeError("agent did not exit cleanly after set-up")
    return times


def serve_1k(args, work, lines):
    windows = args.seconds + SERVE_EXTRA_WINDOWS
    config, _, _ = make_replay(work, args.seed, windows, lines)
    setups = [] if args.trace else setup_serve(config, work)
    phases = [serve_phase(args, config, work, "untraced", False)]
    if args.trace:
        phases.append(serve_phase(args, config, work, "traced", True))

    attempted = failed = 0
    by_kind = {}
    clean_runs = True
    for results, items, _, _, _, _, clean in phases:
        clean_runs &= clean
        for r, (_, kind, path) in zip(results, items):
            ok = serve.body_ok(kind, path, r["status"], r["body"])
            r["ok"] = ok
            attempted += 1
            failed += not ok
    results, items, setup_s, cpu_s, rss_kib, _, clean = phases[0]
    setups.append(setup_s)
    latencies = []
    for r, (_, kind, _) in zip(results, items):
        ms = r["latency_s"] * 1e3 if r["ok"] else float("inf")
        latencies.append(ms)
        by_kind.setdefault(kind, []).append(ms)
    ok_count = sum(r["ok"] for r in results)
    elapsed = max(r["done"] for r in results)
    throughput = ok_count / elapsed
    lag = [r["lag_s"] * 1e3 for r in results]
    lines += [
        describe("metrics_ms_p50", by_kind["metrics"], 0.5),
        describe("metrics_ms_p95", by_kind["metrics"], 0.95),
        describe("node_ms_p50", by_kind["node"], 0.5),
        describe("node_ms_p90", by_kind["node"], 0.9),
        describe("poll_ms_p50", by_kind["poll"], 0.5),
        describe("poll_ms_p99", by_kind["poll"], 0.99),
        describe("loadgen_lag_ms_p99", lag, 0.99),
        f"served_per_s = {throughput:.2f} 1/s; agent exit clean = {clean}",
        f"agent_cpu_ms_per_request = {cpu_s * 1e3 / len(results):.4f} ms (engine loop included)",
        f"setup_s = {statistics.median(setups):.4f} s (process start to first 200, median of {len(setups)})",
    ]
    layers = None
    if args.trace:
        t_results, _, _, _, _, spans, _ = phases[1]
        spans = spans or {}
        handler_s = sum(row["total_s"] for name, row in spans.items() if name.startswith("server.handler."))
        service_s = sum(r["service_s"] for r in t_results)
        extra = {
            "server.http.wait_ms": (service_s - handler_s) * 1e3 / len(t_results),
            "loadgen.lag_ms_p99": percentile([r["lag_s"] * 1e3 for r in t_results], 0.99),
            "loadgen.sent": float(len(t_results)),
        }
        untraced_ms = statistics.fmean(ms for ms in latencies if ms != float("inf"))
        traced_ms = statistics.fmean(r["latency_s"] * 1e3 for r in t_results if r["ok"])
        layers = layer_metrics(spans, untraced_ms, traced_ms, len(t_results), extra)
        render = spans.get("exposition.render_openmetrics")
        if render:
            lines.append(f"baseline: render_openmetrics {render['total_s'] / render['calls'] * 1e3:.3f} ms at N={gen.N}")
    latency = percentile(by_kind["metrics"], 0.5) + percentile(by_kind["node"], 0.5)
    e2e = None if args.trace else end_to_end(setups, rss_kib, latency)
    return finish(args, lines, attempted, failed, e2e, layers, correct=clean_runs)


# --------------------------------------------------------------------------
# controller-sim
# --------------------------------------------------------------------------


def controller_sim(args, work, lines):
    paths = {k: os.path.join(CONFIGS, f) for k, f in
             (("plant", "controller_plant.json"), ("ctrl", "controller_buoyancy.json"),
              ("schedule", "schedule_step.json"))}
    bundled = {}
    for key, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            bundled[key] = json.load(fh)
    experiment = bundled["ctrl"]["experiment"]
    per_call = experiment["windows"] * CONTROLLER_REPETITIONS
    spec = {"workload": "controller", **paths, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "repetitions": CONTROLLER_REPETITIONS,
            "check_every": CONTROLLER_CHECK_EVERY, "setup_only": False}
    setups = [] if args.trace else setup_times(spec, work)
    out = run_worker(spec, work, "run")
    setups.append(out["setup_s"])

    attempted = failed = checked = 0
    for phase in out["phases"]:
        for whole, runs in phase["checks"]:
            ok = whole
            for seed, rows in (runs or {}).items():
                want = oracle.replay_plant(bundled["plant"], experiment, bundled["schedule"]["steps"],
                                           int(seed), [row[0] for row in rows])
                checked += len(rows)
                ok = ok and len(want) == experiment["windows"] and all(
                    oracle.close(row[1], kpi) and oracle.close(row[2], b) for row, (kpi, b) in zip(rows, want))
            attempted += 1
            failed += not ok

    base = out["phases"][0]
    op_ms = [ns / 1e6 for ns in base["op_ns"]]
    calls = len(op_ms)
    throughput = calls * per_call / (sum(base["op_ns"]) / 1e9)
    lines += [
        f"sim_windows_per_s = {throughput:.1f} windows/s ({calls} calls of {per_call} windows)",
        describe("call_ms_p50", op_ms, 0.5),
        describe("call_ms_p90", op_ms, 0.9),
        f"cpu_ms_per_call = {base['cpu_ns'] / 1e6 / calls:.4f} ms",
        f"oracle: {checked} windows replayed from the plant at the recorded cores",
        f"setup_s = {statistics.median(setups):.4f} s (median of {len(setups)} processes)",
    ]
    layers = None
    if args.trace:
        traced = out["phases"][1]
        layers = layer_metrics(out["spans"], mean_ms(base["op_ns"]), mean_ms(traced["op_ns"]),
                               len(traced["op_ns"]))
    e2e = None if args.trace else end_to_end(setups, out["peak_rss_kib"], percentile(op_ms, 0.9))
    return finish(args, lines, attempted, failed, e2e, layers)


WORKLOADS = {"ingest-1k": ingest, "serve-1k": serve_1k, "controller-sim": controller_sim}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "buoyancy", "__init__.py")):
        sys.stderr.write(f"no buoyancy package under {SRC}; run from the repository root\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"]
    try:
        out = WORKLOADS[args.workload](args, work, lines)
    except BaseException:
        sys.stderr.write(f"run failed; its inputs and agent logs are kept in {work}\n")
        raise
    shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
