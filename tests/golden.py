"""The outputs that ``golden.json`` digests, and the script that rewrites it.

Each row names one output and holds the SHA-256 digest and byte count of
its bytes. ``tests/test_golden.py`` recomputes every row; a change that
means to alter an output rewrites the table from the current code with

    PYTHONPATH=src python3 -m tests.golden

run from the repository root, and lists each changed row, with its reason,
in CHANGES.md. The module needs only the standard library and ``buoyancy``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from buoyancy import CacheTopology, Engine, EngineConfig, SloSpec, TelemetrySample
from buoyancy.cli import main
from buoyancy.config import AgentConfig, read_json
from buoyancy.exposition import render_openmetrics
from buoyancy.server import MetricsAgent, report_to_json

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TABLE = Path(__file__).resolve().parent / "golden.json"

_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
_TOPOLOGY = CacheTopology(
    l1_size_kib=80.0,
    l2_size_kib=1280.0,
    l3_size_kib=12288.0,
    l3_ways=12,
    mem_speed_mts=2666.0,
    mem_bus_width_bytes=8.0,
    mem_channels=4,
)
#: Ids that exercise every escape of both formats: quote, backslash, newline and non-ASCII text.
_ODD_IDS = ('q"uote', "back\\slash", "new\nline", "nön-äscii-☃")


def _sample(rng: random.Random, workload_id: str, window: int) -> TelemetrySample:
    start = _EPOCH + timedelta(seconds=window)
    mem_refs = rng.randrange(10**6, 10**8)
    l1 = int(mem_refs * rng.uniform(0.02, 0.2))
    l2 = int(l1 * rng.uniform(0.1, 0.6))
    l3 = 0 if rng.random() < 0.01 else int(l2 * rng.uniform(0.05, 0.9))
    return TelemetrySample(
        workload_id=workload_id,
        window_start=start,
        window_end=start + timedelta(seconds=1),
        cpu_user_time_s=rng.uniform(0.0, 4.0),
        cpu_alloc_cores=float(rng.choice((1, 2, 4))),
        mem_refs=mem_refs,
        l1_miss=l1,
        l2_miss=l2,
        l3_miss=l3,
        mbw_bytes=rng.randrange(0, 4 * 10**10),
        mbw_alloc_bytes_per_s=None if rng.random() < 0.5 else rng.uniform(1e9, 2e10),
        llc_alloc_kib=None if rng.random() < 0.33 else 1024.0 * rng.randrange(1, 13),
        kpi_value=None if rng.random() < 0.05 else rng.uniform(1.0, 30.0),
    )


def replay_1k_reports(seed=22, windows=10, workloads=1000):
    """A seeded replay of ``workloads`` per window through one engine, as its reports.

    Half the workloads have an SLO; from the second window on, 10 leave and
    10 new ones join per window; the first four ids need escaping.
    """
    rng = random.Random(seed)
    ids = list(_ODD_IDS) + [f"ns-{i % 7}/pod-{i}" for i in range(len(_ODD_IDS), workloads)]
    slos = {wid: SloSpec("p95_latency_ms", 16.0) for wid in ids[::2]}
    engine = Engine(topology=_TOPOLOGY, node_cores=64.0, slos=slos, config=EngineConfig(ema_factor=0.5))
    reports = []
    for window in range(windows):
        present = [wid for i, wid in enumerate(ids) if window == 0 or i % 100 != window]
        present += [f"late-{window}-{j}" for j in range(10 if window else 0)]
        reports.append(engine.step([_sample(rng, wid, window) for wid in present]))
    return reports


def _agent_plant_bodies(interference: float) -> tuple[bytes, bytes]:
    """The ``/metrics`` and ``/v1/node`` bodies of 20 windows of ``configs/agent_plant.json``."""
    config = read_json(str(CONFIGS / "agent_plant.json"), "agent config")
    config["source"]["interference"] = interference
    agent = MetricsAgent(AgentConfig.from_dict(config))
    metrics, node = [], []
    for _ in range(20):
        if not agent.step_once():
            raise RuntimeError("configs/agent_plant.json ended before 20 windows")
        snapshot = agent.current_snapshot()
        metrics.append(snapshot.metrics_body())
        node.append(snapshot.node_body())
    agent.stop()
    return b"".join(metrics), b"".join(node)


def _cli(*argv: str) -> tuple[bytes, bytes]:
    """What ``buoyancy`` writes to stdout and stderr for ``argv``, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"buoyancy {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _controller_sim() -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sim.csv"
        _, err = _cli(
            "controller-sim",
            "--plant", str(CONFIGS / "controller_plant.json"),
            "--ctrl", str(CONFIGS / "controller_buoyancy.json"),
            "--schedule", str(CONFIGS / "schedule_step.json"),
            "--out", str(out),
        )
        return out.read_bytes(), err


def outputs() -> dict[str, bytes]:
    """Every golden output by row name."""
    rows = {}
    for interference in (0.0, 0.5):
        metrics, node = _agent_plant_bodies(interference)
        rows[f"agent_plant/interference={interference}/metrics"] = metrics
        rows[f"agent_plant/interference={interference}/node"] = node
    reports = replay_1k_reports()
    rows["replay_1k/render_openmetrics"] = "".join(map(render_openmetrics, reports)).encode("utf-8")
    rows["replay_1k/report_to_json/node"] = "\n".join(map(report_to_json, reports)).encode("utf-8")
    last = reports[-1].workload_reports
    rows["replay_1k/report_to_json/workloads"] = "\n".join(map(report_to_json, last)).encode("utf-8")
    rows["controller_sim/csv"], rows["controller_sim/stderr"] = _controller_sim()
    replay = ("--input", str(CONFIGS / "replay_demo.jsonl"), "--slo", str(CONFIGS / "agent_replay.json"))
    medians = ("--input", str(CONFIGS / "headroom_medians.json"))
    for name, source in (("replay_demo", replay), ("headroom_medians", medians)):
        for fmt in ("table", "csv"):
            rows[f"analyze/{name}/{fmt}"] = _cli("analyze", *source, "--format", fmt)[0]
    rows["surface/default"] = _cli("surface")[0]
    rows["surface/alpha=0.3,step=0.1"] = _cli("surface", "--alpha", "0.3", "--step", "0.1")[0]
    return rows


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    table = {name: digest(data) for name, data in outputs().items()}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(table)} rows to {TABLE}\n")
