"""Independent restatement of the scoring equations and of the plant.

Nothing here imports ``buoyancy``. The LLC fit goes through
``numpy.polyfit`` on the log-log points, batched over samples that share
their cache-size x-points; everything else is written out from the model
(README "Scoring model") and the plant docstring. The benchmark compares
the agent's outputs against these values.
"""

import math
import random

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def peak_mbw(topo):
    return topo["mem_speed_mts"] * 1e6 * topo["mem_bus_width_bytes"] * topo["mem_channels"]


def llc_scores(samples, topo):
    """LLC score per sample; degenerate fits and zero ratios score 0."""
    sizes = (topo["l1_size_kib"], topo["l2_size_kib"])
    way = topo["l3_size_kib"] / topo["l3_ways"]
    out = np.zeros(len(samples))
    groups = {}
    for i, s in enumerate(samples):
        n = s["mem_refs"]
        ratios = (s["l1_miss"] / n, s["l2_miss"] / n, s["l3_miss"] / n)
        if n > 0 and min(ratios) > 0:
            x3 = s["llc_alloc_kib"] if s["llc_alloc_kib"] is not None else topo["l3_size_kib"]
            groups.setdefault(x3, []).append((i, ratios))
    for x3, members in groups.items():
        m = np.array([r for _, r in members]).T  # (3, k)
        slope, intercept = np.polyfit(np.log([*sizes, x3]), np.log(m), 1)
        safe = np.where(slope < 0, slope, -1.0)  # keep the power finite where unused
        predicted = -np.exp(intercept) * safe * x3 ** (safe - 1.0) * way
        out[[i for i, _ in members]] = np.where(slope < 0, np.minimum(predicted / m[2], 1.0), 0.0)
    return out


def base_scores(sample, llc, topo, window=1.0):
    cpu = min(sample["cpu_user_time_s"] / (sample["cpu_alloc_cores"] * window), 1.0)
    alloc = sample["mbw_alloc_bytes_per_s"] or peak_mbw(topo)
    mbw = min(sample["mbw_bytes"] / window / alloc, 1.0)
    return (cpu, llc, mbw)


def buoyancy(kpi, slo, scores, alpha):
    p = 1.0 if slo is None or kpi is None else (slo - kpi) / slo
    mx, mean = max(scores), sum(scores) / len(scores)
    return p * (alpha * (1.0 - mx) + (1.0 - alpha) * (1.0 - mean))


def replay_node(windows, topo, slos, alpha, ema, expiry):
    """Per window: (node buoyancy, {workload id: buoyancy}).

    Restates the engine: EMA of resource scores with the previous window
    (weight ``ema`` on the newest), last-seen KPI carried over a null KPI,
    and state dropped after more than ``expiry`` missed windows.
    """
    state = {}  # id -> [scores, last kpi, missed windows]
    out = []
    for batch in windows:
        seen = {s["workload_id"] for s in batch}
        for wid in list(state):
            if wid not in seen:
                state[wid][2] += 1
                if state[wid][2] > expiry:
                    del state[wid]
        llc = llc_scores(batch, topo)
        values = {}
        for s, l in zip(batch, llc):
            wid = s["workload_id"]
            scores = base_scores(s, float(l), topo)
            kpi = s["kpi_value"]
            prior = state.get(wid)
            if prior is not None:
                scores = tuple(ema * n + (1.0 - ema) * o for n, o in zip(scores, prior[0]))
                if kpi is None:
                    kpi = prior[1]
            values[wid] = buoyancy(kpi, slos.get(wid), scores, alpha)
            state[wid] = [scores, kpi, 0]
        b = list(values.values())
        out.append((alpha * min(b) + (1.0 - alpha) * sum(b) / len(b), values))
    return out


def replay_plant(plant, experiment, steps, seed, cores):
    """Re-run the plant at the recorded cores; returns [(kpi, buoyancy)].

    ``plant`` and ``experiment`` are the bundled JSON objects, ``steps`` the
    interference schedule's steps. Noise draws follow the plant's order:
    CPU time, references, L1, L2 and L3 misses, traffic, then the KPI.
    """
    topo = plant["topology"]
    (w,) = [w for w in plant["workloads"] if w["id"] == experiment["workload_id"]]
    sigma = plant.get("noise_sigma", 0.01)
    window = plant.get("window_s", 1.0)
    rng = random.Random(seed)

    def noisy(v):
        if sigma <= 0 or v == 0 or not math.isfinite(v):
            return v
        return max(v * (1.0 + sigma * rng.gauss(0.0, 1.0)), 0.0)

    def miss(x):
        return min(math.sqrt(w["working_set_kib"] / x), 1.0)

    lam = experiment["load_rps"]
    s_llc = experiment.get("llc_alloc_kib") or topo["l3_size_kib"]
    samples = []
    for t, c in enumerate(cores):
        level = 0.0
        for start, value in sorted((s["window"], s["level"]) for s in steps):
            if t >= start:
                level = value
        mu = c * w["service_rate_per_core"] * (1.0 - w.get("interference_sensitivity", 0.0) * level)
        if mu <= 0:
            latency = math.inf
        elif lam < 0.95 * mu:
            latency = w["base_latency_ms"] + w["latency_gain"] / (mu - lam)
        else:
            latency = (w["base_latency_ms"] + w["latency_gain"] / (0.05 * mu)) * 10.0
        refs = lam * window * 10_000
        m3 = miss(s_llc)
        samples.append({
            "cpu_user_time_s": noisy(min(lam / w["service_rate_per_core"], c) * window),
            "cpu_alloc_cores": c,
            "mem_refs": round(noisy(refs)),
            "l1_miss": round(noisy(refs * miss(topo["l1_size_kib"]))),
            "l2_miss": round(noisy(refs * miss(topo["l2_size_kib"]))),
            "l3_miss": round(noisy(refs * m3)),
            "mbw_bytes": round(noisy(lam * window * w["mbw_per_req_bytes"] * (m3 / miss(topo["l3_size_kib"])))),
            "mbw_alloc_bytes_per_s": None,
            "llc_alloc_kib": experiment.get("llc_alloc_kib"),
            "kpi_value": noisy(latency),
        })
    slo = experiment.get("slo", {}).get("slo_value")
    alpha = experiment.get("alpha", 0.7)
    llc = llc_scores(samples, topo)
    return [
        (s["kpi_value"], buoyancy(s["kpi_value"], slo, base_scores(s, float(l), topo, window), alpha))
        for s, l in zip(samples, llc)
    ]
