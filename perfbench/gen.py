"""Seeded telemetry replay and agent config for the 1k-workload node.

The node has ``STABLE`` workloads that are present in every window plus a
pool of ``CHURN_POOL`` workloads of which ``CHURN_PRESENT`` are present at
a time, so every window carries exactly ``N`` samples. Shares of the mix
are drawn as exact counts, not coin flips, so every seed carries the same
amount of each kind of work:

* half the workloads have an SLO;
* a third have no LLC allocation, the rest 1..12 whole ways;
* 5% of the samples in a window have a null KPI (carry-forward);
* 1% have ``l3_miss`` = 0 and 1% have miss ratios that rise with cache
  size (degenerate LLC fits);
* from the second window on, 10 workloads leave and 10 join per window,
  and absences are long enough that some workloads expire.

``write_replay`` returns the samples it wrote, window by window, so the oracle
restates the scoring from the same numbers the agent parses.
"""

import json
import random
from datetime import datetime, timedelta, timezone

N = 1000
STABLE = 950
CHURN_POOL = 100
CHURN_PRESENT = N - STABLE
CHURN_PER_WINDOW = 10
NULL_KPI_PER_WINDOW = 50
ZERO_L3_PER_WINDOW = 10
RISING_RATIOS_PER_WINDOW = 10

TOPOLOGY = {
    "l1_size_kib": 80.0,
    "l2_size_kib": 1280.0,
    "l3_size_kib": 12288.0,
    "l3_ways": 12,
    "mem_speed_mts": 2666.0,
    "mem_bus_width_bytes": 8.0,
    "mem_channels": 4,
}
WAY_KIB = TOPOLOGY["l3_size_kib"] / TOPOLOGY["l3_ways"]
_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def stable_ids():
    return [f"s{i:04d}" for i in range(STABLE)]


def _profiles(rng):
    """Fixed per-workload properties: allocation, SLO and planted curve."""
    ids = stable_ids() + [f"c{i:03d}" for i in range(CHURN_POOL)]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    with_slo = set(shuffled[: len(ids) // 2])
    rng.shuffle(shuffled)
    no_llc = set(shuffled[: len(ids) // 3])
    rng.shuffle(shuffled)
    with_mbw = set(shuffled[: len(ids) // 5])
    profiles = {}
    for wid in ids:
        ways = None if wid in no_llc else rng.randint(1, TOPOLOGY["l3_ways"])
        profiles[wid] = {
            "cores": float(rng.choice((1, 2, 4, 8))),
            "llc_alloc_kib": None if ways is None else ways * WAY_KIB,
            "mbw_alloc": rng.randint(2, 10) * 1_000_000_000 if wid in with_mbw else None,
            "slo": round(rng.uniform(5.0, 30.0), 3) if wid in with_slo else None,
            "m1": rng.uniform(0.05, 0.5),
            "b": rng.uniform(-0.9, -0.2),
        }
    return profiles


def _sample(rng, wid, p, degenerate):
    """One workload-window as a JSONL-ready dict (timestamps added later)."""
    refs = rng.randint(1_000_000, 50_000_000)
    x = (TOPOLOGY["l1_size_kib"], TOPOLOGY["l2_size_kib"],
         p["llc_alloc_kib"] or TOPOLOGY["l3_size_kib"])
    if degenerate == "rising":
        ratios = [0.01 * (xi / x[0]) ** 0.3 for xi in x]
    else:
        c = p["m1"] / x[0] ** p["b"]
        ratios = [min(c * xi ** p["b"], 1.0) * (1.0 + 0.01 * rng.gauss(0.0, 1.0)) for xi in x]
    misses = [max(1, min(refs, round(refs * r))) for r in ratios]
    if degenerate == "zero_l3":
        misses[2] = 0
    slo = p["slo"]
    kpi = round(slo * rng.uniform(0.3, 1.3) if slo else rng.uniform(1.0, 50.0), 4)
    return {
        "workload_id": wid,
        "cpu_user_time_s": round(p["cores"] * rng.uniform(0.05, 1.05), 6),
        "cpu_alloc_cores": p["cores"],
        "mem_refs": refs,
        "l1_miss": misses[0],
        "l2_miss": misses[1],
        "l3_miss": misses[2],
        "mbw_bytes": rng.randint(100_000_000, 20_000_000_000),
        "mbw_alloc_bytes_per_s": p["mbw_alloc"],
        "llc_alloc_kib": p["llc_alloc_kib"],
        "kpi_value": kpi,
    }


def write_replay(path, seed, windows):
    """Write ``windows`` windows of N samples; returns (windows, profiles, mix).

    ``windows`` in the result is a list of per-window sample dicts, in file
    order. ``mix`` is the mix actually produced, as shares.
    """
    rng = random.Random(seed)
    profiles = _profiles(rng)
    churners = [f"c{i:03d}" for i in range(CHURN_POOL)]
    present = stable_ids() + churners[:CHURN_PRESENT]
    absent = churners[CHURN_PRESENT:]
    out = []
    counts = {"samples": 0, "slo": 0, "llc_alloc": 0, "null_kpi": 0, "degenerate": 0, "churn": 0}
    with open(path, "w", encoding="utf-8") as fh:
        for w in range(windows):
            if w > 0:
                leaving = rng.sample(present[STABLE:], CHURN_PER_WINDOW)
                joining = rng.sample(absent, CHURN_PER_WINDOW)
                present = [wid for wid in present if wid not in leaving] + joining
                absent = [wid for wid in absent if wid not in joining] + leaving
                counts["churn"] += CHURN_PER_WINDOW
            picks = rng.sample(range(N), NULL_KPI_PER_WINDOW + ZERO_L3_PER_WINDOW + RISING_RATIOS_PER_WINDOW)
            null_kpi = set(picks[:NULL_KPI_PER_WINDOW])
            zero_l3 = set(picks[NULL_KPI_PER_WINDOW:NULL_KPI_PER_WINDOW + ZERO_L3_PER_WINDOW])
            rising = set(picks[NULL_KPI_PER_WINDOW + ZERO_L3_PER_WINDOW:])
            start = (_EPOCH + timedelta(seconds=w)).strftime("%Y-%m-%dT%H:%M:%SZ")
            end = (_EPOCH + timedelta(seconds=w + 1)).strftime("%Y-%m-%dT%H:%M:%SZ")
            batch = []
            for i, wid in enumerate(present):
                p = profiles[wid]
                degenerate = "zero_l3" if i in zero_l3 else "rising" if i in rising else None
                s = _sample(rng, wid, p, degenerate)
                if i in null_kpi:
                    s["kpi_value"] = None
                record = {"workload_id": wid, "window_start": start, "window_end": end, **s}
                fh.write(json.dumps(record) + "\n")
                batch.append(s)
                counts["samples"] += 1
                counts["slo"] += p["slo"] is not None
                counts["llc_alloc"] += p["llc_alloc_kib"] is not None
                counts["null_kpi"] += s["kpi_value"] is None
                counts["degenerate"] += degenerate is not None
            out.append(batch)
    total = counts["samples"]
    mix = {k: counts[k] / total for k in ("slo", "llc_alloc", "null_kpi", "degenerate")}
    mix["churn_per_window"] = counts["churn"] / max(windows - 1, 1) / N
    mix["llc_x_points"] = len({p["llc_alloc_kib"] or TOPOLOGY["l3_size_kib"] for p in profiles.values()})
    return out, profiles, mix


def write_config(path, replay_path, profiles):
    """Agent config for the replay: window 1 s, EMA 0.5, SLOs from profiles."""
    config = {
        "window_s": 1.0,
        "alpha": 0.7,
        "violation_threshold": 0.1,
        "ema_factor": 0.5,
        "expiry_windows": 3,
        "node_cores": 64,
        "topology": TOPOLOGY,
        "slo": {
            wid: {"kpi_name": "p95_latency_ms", "slo_value": p["slo"]}
            for wid, p in profiles.items() if p["slo"] is not None
        },
        "source": {"type": "replay", "path": replay_path, "strict": True},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


def format_mix(mix):
    return " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in mix.items())
