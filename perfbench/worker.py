"""Runs the ingest or controller workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py SPEC.json OUT.json

``run.py`` writes SPEC (the generated inputs and the run length) and reads
OUT. Set-up time is taken from before the first import of ``buoyancy``, so
it includes the import. With ``setup_only`` the worker stops after set-up.
With ``trace`` it runs twice as long, switching the span wrappers on and off
every ``BLOCK_S`` seconds, so that the untraced and the traced phase meet
the same machine; it reports both phases and the span totals.
"""

import sys
import time

BLOCK_S = 1.0


def peak_rss_kib(pid):
    """High-water resident set of this process image (not of the one before exec)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def setup_ingest(spec):
    from buoyancy.server import AgentConfig, MetricsAgent

    config = AgentConfig.from_file(spec["config"])
    agent = MetricsAgent(config)
    return lambda: ingest_ops(spec, lambda: MetricsAgent(config), agent)


def setup_controller(spec):
    import json

    from buoyancy.controller import InterferenceSchedule, controller_config_from_dict
    from buoyancy.server import plant_config_from_dict

    with open(spec["plant"], encoding="utf-8") as fh:
        plant = plant_config_from_dict(json.load(fh))
    with open(spec["ctrl"], encoding="utf-8") as fh:
        ctrl, experiment = controller_config_from_dict(json.load(fh))
    schedule = InterferenceSchedule.from_file(spec["schedule"])
    return lambda: controller_ops(spec, plant, ctrl, schedule, experiment)


def ingest_ops(spec, new_agent, agent):
    """Step windows back to back, starting a new agent at the end of the replay.

    Yields (wall ns, CPU ns, check) per window; the check is the window's
    index, node buoyancy and the sampled workloads' buoyancy.
    """
    sample_ids = [set(ids) for ids in spec["sample_ids"]]
    window = 0
    while True:
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        more = agent.step_once()
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        if not more:
            agent, window = new_agent(), 0
            continue
        snap = agent.snapshot()
        wanted = sample_ids[window]
        got = {r.workload_id: r.buoyancy for r in snap.workload_reports if r.workload_id in wanted}
        yield t1 - t0, c1 - c0, [window, snap.node_buoyancy, got]
        window += 1


def controller_ops(spec, plant, ctrl, schedule, experiment):
    """Repeat the bundled experiment, ``repetitions`` runs at a time, with
    fresh plant seeds.

    Yields (wall ns, CPU ns, check) per experiment; the check says whether
    the records are complete and finite and, for every ``check_every``-th
    experiment, holds the records per plant seed for the oracle.
    """
    import dataclasses
    import math
    import random

    from buoyancy.controller import run_experiment

    rng = random.Random(f"controller:{spec['seed']}")
    experiment = dataclasses.replace(experiment, repetitions=spec["repetitions"])
    expected = experiment.windows * experiment.repetitions
    call = 0
    while True:
        seeded = dataclasses.replace(plant, seed=rng.randrange(1, 2**31))
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        records = run_experiment(seeded, ctrl, schedule, experiment)
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        whole = len(records) == expected and all(
            math.isfinite(v) for r in records for v in (r.cores, r.p95_ms, r.buoyancy))
        runs = None
        if call % spec["check_every"] == 0:
            runs = {}
            for r in records:
                runs.setdefault(r.seed, []).append([r.cores, r.p95_ms, r.buoyancy])
        yield t1 - t0, c1 - c0, [whole, runs]
        call += 1


def measure(ops, seconds, enable_spans=None):
    """Time operations for ``seconds``; one dict per phase.

    With ``enable_spans``, alternate untraced and traced blocks for twice as
    long, so there are two phases of about ``seconds`` each.
    """
    phases = [{"op_ns": [], "cpu_ns": 0, "checks": []} for _ in range(2 if enable_spans else 1)]
    start = time.perf_counter()
    end = start + seconds * len(phases)
    traced = False
    while (now := time.perf_counter()) < end:
        if enable_spans and (int((now - start) / BLOCK_S) % 2 == 1) != traced:
            traced = not traced
            enable_spans(traced)
        op_ns, cpu_ns, check = next(ops)
        phase = phases[traced]
        phase["op_ns"].append(op_ns)
        phase["cpu_ns"] += cpu_ns
        phase["checks"].append(check)
    if enable_spans:
        enable_spans(False)
    return phases


def main(spec_path, out_path):
    t0 = time.perf_counter()
    import json

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = (setup_ingest if spec["workload"] == "ingest" else setup_controller)(spec)
    out = {"setup_s": time.perf_counter() - t0}
    if not spec["setup_only"]:
        tracer = enable_spans = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            enable_spans = spans.install(tracer)
        out["phases"] = measure(ops(), spec["seconds"], enable_spans)
        out["spans"] = tracer.totals() if tracer else None
    out["peak_rss_kib"] = peak_rss_kib("self")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
