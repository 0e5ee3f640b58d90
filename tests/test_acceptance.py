"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import random
import statistics
import threading
import time
import urllib.request
from dataclasses import astuple

import pytest

from buoyancy import (
    Allocation,
    CacheTopology,
    ContentionPlant,
    Engine,
    SloSpec,
    buoyancy,
    fit_mrc,
    node_buoyancy,
    perf_score,
    score_workload,
)
from buoyancy.analysis import analyze_medians, load_medians_file, surface_points
from buoyancy.controller import (
    ControllerConfig,
    ExperimentConfig,
    InterferenceSchedule,
    run_experiment,
)
from buoyancy.httpd import make_server
from buoyancy.server import AgentConfig, MetricsAgent
from buoyancy.sources import PlantConfig, PlantWorkload

from . import openmetrics
from .conftest import TABLE_TOPO, bundled_plant_config, make_sample, two_workload_replay
from .oracles import fit_power_law, llc_score
from .test_service import _agent_config_dict, _reference_reports, _report_metric_values


def _conclude(number, label, failures, elapsed=None, limit=None):
    if elapsed is not None and limit is not None and elapsed > limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds the {limit}s budget")
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert not failures, f"criterion {number}: " + " | ".join(failures)


# --------------------------------------------------------------- criterion 1

# Published reference table: per-workload low/high medians with the printed
# %-change and log-change cells.
# Erratum: the memcached latency %-change is published as 99.9, but its row's
# medians (6.88, 13.71, each exact to +-0.005) allow only 0.9906-0.9949, so
# the cell is used here as 0.993, the row's own 13.71 / 6.88 - 1 to three
# decimals. Every other cell lies inside the interval its medians allow; see
# _cells_outside_median_bounds.
REFERENCE_CELLS = [
    # workload, p95 lo, p95 hi, lat pct, lat log, b lo, b hi, b pct, b log
    ("moses", 8.54, 11.43, 0.338, 0.29, 0.42, 0.23, -0.452, -0.60),
    ("img-dnn", 11.20, 20.41, 0.822, 0.60, 0.43, 0.18, -0.581, -0.87),
    ("xapian", 11.95, 21.10, 0.766, 0.57, 0.37, 0.12, -0.676, -1.13),
    ("nginx", 5.22, 15.99, 2.063, 1.12, 0.57, 0.32, -0.439, -0.58),
    ("memcached", 6.88, 13.71, 0.993, 0.69, 0.43, 0.21, -0.511, -0.72),
]

# Half a unit of the last printed digit: medians and log-changes are printed
# to two decimals, %-changes as percentages to one decimal.
MEDIAN_HALF_UNIT = 0.005
PCT_HALF_UNIT = 0.0005
LOG_HALF_UNIT = 0.005


def _cells_outside_median_bounds(cells):
    """Printed change cells that no rounding of their row's medians can give.

    Works on the table alone: hi/lo is monotone in each median, so over the
    box of true medians (printed value +- MEDIAN_HALF_UNIT) the ratio lies in
    [(hi - h) / (lo + h), (hi + h) / (lo - h)]; the cell may differ from the
    change over that range by half a unit of its own last printed digit.
    """
    h = MEDIAN_HALF_UNIT
    found = []
    for name, p95_lo, p95_hi, lat_pct, lat_log, b_lo, b_hi, b_pct, b_log in cells:
        for what, lo, hi, pct, log in (
            ("latency", p95_lo, p95_hi, lat_pct, lat_log),
            ("buoyancy", b_lo, b_hi, b_pct, b_log),
        ):
            r_min, r_max = (hi - h) / (lo + h), (hi + h) / (lo - h)
            for kind, cell, lower, upper, half in (
                ("%-change", pct, r_min - 1.0, r_max - 1.0, PCT_HALF_UNIT),
                ("log-change", log, math.log(r_min), math.log(r_max), LOG_HALF_UNIT),
            ):
                if not lower - half <= cell <= upper + half:
                    found.append(
                        f"{name} {what} {kind}: printed {cell} outside "
                        f"[{lower:.4f}, {upper:.4f}] +- {half} allowed by medians {lo}, {hi}"
                    )
    return found


def test_criterion_1_headroom_table_reproduction():
    start = time.monotonic()
    failures = _cells_outside_median_bounds(REFERENCE_CELLS)
    medians = load_medians_file("configs/headroom_medians.json")
    report = analyze_medians(medians)
    rows = {row.workload_id: row for row in report.rows}
    for name, p95_lo, p95_hi, lat_pct, lat_log, b_lo, b_hi, b_pct, b_log in REFERENCE_CELLS:
        row = rows[name]
        assert (row.p95_low_ms, row.p95_high_ms) == (p95_lo, p95_hi)
        assert (row.buoyancy_low, row.buoyancy_high) == (b_lo, b_hi)
        checks = [
            ("latency %-change", row.latency_pct_change, lat_pct),
            ("latency log-change", row.latency_log_change, lat_log),
            ("buoyancy %-change", row.buoyancy_pct_change, b_pct),
            ("buoyancy log-change", row.buoyancy_log_change, b_log),
        ]
        for what, got, expected in checks:
            if abs(got - expected) > 0.005:
                failures.append(
                    f"{name} {what}: computed {got:.5f} vs printed {expected} "
                    f"(|diff| {abs(got - expected):.5f} > 0.005)"
                )
    if abs(report.mean_latency_log_change - 0.654) > 0.005:
        failures.append(f"mean latency log-change {report.mean_latency_log_change:.5f} != 0.654")
    if abs(report.mean_buoyancy_log_change - (-0.78)) > 0.005:
        failures.append(f"mean buoyancy log-change {report.mean_buoyancy_log_change:.5f} != -0.78")
    if abs(report.actuation_gap - 0.193) > 0.005:
        failures.append(f"actuation gap {report.actuation_gap:.5f} not within 19.3% +- 0.5pp")
    _conclude(1, "headroom table reproduction", failures, time.monotonic() - start, 1.0)


# --------------------------------------------------------------- criterion 2

#: References per window in criterion 2's samples; the miss counters are
#: this times the planted ratios, rounded to integers.
MEM_REFS = 10**15


def _counter_rounding_bound(x_points, counts, b):
    """Relative error that integer miss counters allow ``score_workload``'s LLC score.

    Counter c_i = round(N * m_i) reads back as m_i * (1 + e_i) with
    |e_i| <= 1 / (2 c_i - 1) <= e, the largest of these bounds, so each
    ln m_i moves by some delta_i with |delta_i| <= d = e / (1 - e). Over the
    centred log sizes dx_i (Sxx = sum dx_i**2) the fitted slope b' moves by
    sum(dx_i * delta_i) / Sxx, at most d * g with g = sum |dx_i| / Sxx. The
    score is -a' b' s**(b' - 1) * way / m_3' = -b' * (way / s) * exp(E), where
    E is the fitted minus the measured ln m at s:
    mean(delta) + (b' - b) dx_3 - delta_3, so |E| <= d * (2 + g |dx_3|).
    Against the closed form -b * way / s the ratio is (b' / b) * exp(E), off
    1 by at most (1 + d g / |b|) * exp(d * (2 + g |dx_3|)) - 1, and
    ``min(., 1)`` only narrows the gap.
    """
    e = max(1.0 / (2 * c - 1) for c in counts)
    d = e / (1.0 - e)
    log_x = [math.log(x) for x in x_points]
    mean_x = math.fsum(log_x) / len(log_x)
    dx = [lx - mean_x for lx in log_x]
    g = math.fsum(abs(v) for v in dx) / math.fsum(v * v for v in dx)
    return (1.0 + d * g / abs(b)) * math.exp(d * (2.0 + g * abs(dx[-1]))) - 1.0


def test_criterion_2_mrc_fit_oracle():
    start = time.monotonic()
    failures = []
    rng = random.Random(0xF17)
    sizes = (TABLE_TOPO.l1_size_kib, TABLE_TOPO.l2_size_kib, TABLE_TOPO.l3_size_kib)
    way = TABLE_TOPO.l3_size_kib / TABLE_TOPO.l3_ways
    for trial in range(1000):
        a = 10.0 ** rng.uniform(-2.0, 1.0)  # [0.01, 10]
        b = rng.uniform(-2.0, -0.05)
        fit = fit_power_law(sizes, tuple(a * x**b for x in sizes))
        err_a = abs(fit.coeff_a - a) / a
        err_b = abs(fit.exponent_b - b) / abs(b)
        if err_a > 1e-9 or err_b > 1e-9:
            failures.append(f"trial {trial}: fit error a={err_a:.2e} b={err_b:.2e}")
            break
        s_llc = rng.uniform(256.0, 12288.0)
        numeric = llc_score(fit, TABLE_TOPO, s_llc, a * s_llc**b)
        closed_form = min(-b * way / s_llc, 1.0)
        if abs(numeric - closed_form) > 1e-9:
            failures.append(
                f"trial {trial}: numeric {numeric!r} vs closed form {closed_form!r}"
            )
            break
        # The same law through what the agent runs, with the L3 point at the allocation.
        x_points = (TABLE_TOPO.l1_size_kib, TABLE_TOPO.l2_size_kib, s_llc)
        ratios = tuple(a * x**b for x in x_points)
        fit = fit_mrc(TABLE_TOPO, ratios, s_llc)
        err_a = abs(fit.coeff_a - a) / a
        err_b = abs(fit.exponent_b - b) / abs(b)
        if err_a > 1e-9 or err_b > 1e-9:
            failures.append(f"trial {trial}: fit_mrc error a={err_a:.2e} b={err_b:.2e}")
            break
        counts = [round(MEM_REFS * m) for m in ratios]
        sample = make_sample(
            mem_refs=MEM_REFS, l1_miss=counts[0], l2_miss=counts[1], l3_miss=counts[2], llc_alloc_kib=s_llc
        )
        scored = score_workload(sample, TABLE_TOPO).llc
        raw = -b * way / s_llc
        # Counter rounding, plus the criterion's 1e-9 for the float arithmetic.
        bound = (_counter_rounding_bound(x_points, counts, b) + 1e-9) * raw
        if abs(scored - closed_form) > bound:
            failures.append(
                f"trial {trial}: score_workload {scored!r} vs closed form {closed_form!r} (bound {bound:.2e})"
            )
            break
    _conclude(2, "MRC fit recovers random exact power laws", failures, time.monotonic() - start, 5.0)


# --------------------------------------------------------------- criterion 3

def _random_topology(rng):
    l1 = rng.uniform(16, 256)
    l2 = l1 * rng.uniform(2, 32)
    l3 = l2 * rng.uniform(2, 64)
    return CacheTopology(
        l1_size_kib=l1,
        l2_size_kib=l2,
        l3_size_kib=l3,
        l3_ways=rng.randint(1, 20),
        mem_speed_mts=rng.uniform(800, 6400),
        mem_bus_width_bytes=rng.choice([4, 8, 16]),
        mem_channels=rng.randint(1, 8),
    )


def test_criterion_3_score_range_fuzz():
    start = time.monotonic()
    failures = []
    rng = random.Random(0x5C0)
    for trial in range(100_000):
        topo = _random_topology(rng)
        window = rng.uniform(0.1, 10.0)
        cores = rng.uniform(0.05, 64.0)
        refs = rng.randint(0, 10**7) if rng.random() > 0.05 else 0
        sample = make_sample(
            window_s=window,
            cpu_alloc_cores=cores,
            cpu_user_time_s=rng.uniform(0.0, 1.5) * cores * window,
            mem_refs=refs,
            l1_miss=rng.randint(0, max(refs, 1)),
            l2_miss=rng.randint(0, max(refs, 1)),
            l3_miss=rng.randint(0, max(refs, 1)),
            mbw_bytes=rng.randint(0, 10**12),
            mbw_alloc_bytes_per_s=rng.choice([None, round(rng.uniform(1e6, 1e11))]),
            llc_alloc_kib=rng.choice([None, rng.uniform(1.0, topo.l3_size_kib)]),
        )
        scores = score_workload(sample, topo)
        values = astuple(scores)
        if not all(0.0 <= v <= 1.0 for v in values):
            failures.append(f"trial {trial}: scores out of range: {values}")
            break
        slo = SloSpec("kpi", rng.uniform(0.1, 100.0)) if rng.random() < 0.6 else None
        kpi = rng.uniform(0.0, 150.0) if rng.random() < 0.7 else None
        p = perf_score(kpi, slo)
        alpha = rng.random()
        b = buoyancy(p, values, alpha)
        if b > 1.0 or (p >= 0 and b > p):
            failures.append(f"trial {trial}: b={b!r} breaks bounds for p={p!r}")
            break
        if buoyancy(p, [0.0, 0.0, 0.0], alpha) != p:
            failures.append(f"trial {trial}: all-zero scores did not return p exactly")
            break
        if buoyancy(p, [1.0, 1.0, 1.0], alpha) != 0.0:
            failures.append(f"trial {trial}: all-one scores did not return 0 exactly")
            break
    _conclude(3, "score-range fuzz over 1e5 samples", failures, time.monotonic() - start)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_node_aggregation_property():
    start = time.monotonic()
    failures = []
    rng = random.Random(0x40DE)
    for trial in range(10_000):
        values = [rng.uniform(-2.0, 1.0) for _ in range(rng.randint(1, 12))]
        alpha = rng.random()
        b_n = node_buoyancy(values, alpha)
        lo, mean = min(values), math.fsum(values) / len(values)
        if not (lo - 1e-9 <= b_n <= mean + 1e-9):
            failures.append(f"trial {trial}: b_n={b_n!r} outside [{lo!r}, {mean!r}]")
            break
        shuffled = list(values)
        rng.shuffle(shuffled)
        if node_buoyancy(shuffled, alpha) != b_n:
            failures.append(f"trial {trial}: permutation changed the result")
            break
    _conclude(4, "node aggregation convexity and symmetry", failures, time.monotonic() - start)


# --------------------------------------------------------------- criterion 5

def _load_sweep(seed):
    """Median measured latency and buoyancy per load level for one seed."""
    config = bundled_plant_config(seed=seed, noise_sigma=0.01)
    plant = ContentionPlant(config)
    engine = Engine(
        topology=config.topology,
        node_cores=config.total_cores,
        slos={"webapp": SloSpec("p95_latency_ms", 16.0)},
    )
    mu = 4.0 * 100.0
    levels = [0.1 + 0.04 * i for i in range(22)]  # 0.10 .. 0.94 of mu
    latencies, buoyancies = [], []
    for level in levels:
        window_lat, window_b = [], []
        for _ in range(3):
            batch, _ = plant.step(
                {"webapp": Allocation(cores=4.0, llc_kib=2048.0, load_rps=level * mu)}
            )
            report = engine.step(batch)
            window_lat.append(batch[0].kpi_value)
            window_b.append(report.workload_reports[0].buoyancy)
        latencies.append(statistics.median(window_lat))
        buoyancies.append(statistics.median(window_b))
    return levels, latencies, buoyancies


def _knee_index(levels, latencies):
    """First level whose local latency slope exceeds 5x the early slope."""
    slopes = [
        (latencies[i] - latencies[i - 1]) / (levels[i] - levels[i - 1])
        for i in range(1, len(levels))
    ]
    reference = statistics.median(slopes[:5])
    for i, slope in enumerate(slopes, start=1):
        if slope > 5.0 * reference:
            return i
    return None


def test_criterion_5_early_warning():
    start = time.monotonic()
    failures = []
    good = 0
    for seed in range(10):
        levels, latencies, buoyancies = _load_sweep(seed)
        knee = _knee_index(levels, latencies)
        crossing = next((i for i, b in enumerate(buoyancies) if b <= 0.1), None)
        if knee is None or crossing is None:
            continue
        pre = knee - 1
        if buoyancies[pre] <= 0 or buoyancies[0] <= 0:
            continue
        buoyancy_move = abs(math.log(buoyancies[pre] / buoyancies[0]))
        latency_move = abs(math.log(latencies[pre] / latencies[0]))
        if crossing < knee and buoyancy_move > latency_move:
            good += 1
    if good < 9:
        failures.append(f"early-warning held in only {good}/10 seeds")
    _conclude(5, "buoyancy leads the latency knee on load sweeps", failures,
              time.monotonic() - start, 30.0)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_buoyancy_surface():
    start = time.monotonic()
    failures = []
    points = [pt for pt in surface_points(alpha=0.7, step=0.05) if pt.case == "single"]
    for pt in points:
        if pt.b != pt.p * (1.0 - pt.r):
            failures.append(f"b({pt.p}, {pt.r}) = {pt.b!r} != P*(1-r) exactly")
            break
    boundary = [pt for pt in points if pt.p == 0.5 and abs(pt.r - 0.8) < 1e-12]
    if len(boundary) != 1 or abs(boundary[0].b - 0.1) > 1e-12 or not boundary[0].below_threshold:
        failures.append("b(P=0.5, r=0.8) is not on the 0.1 threshold boundary")
    grid = sorted({pt.p for pt in points})
    mask = {(pt.p, pt.r): pt.below_threshold for pt in points}
    for p in grid:
        flags = [mask[(p, r)] for r in grid]
        if any(a and not b for a, b in zip(flags, flags[1:])):
            failures.append(f"mask not monotone in r at P={p}")
            break
    for r in grid:
        flags = [mask[(p, r)] for p in grid]
        if any((not a) and b for a, b in zip(flags, flags[1:])):
            failures.append(f"mask not monotone in P at r={r}")
            break
    _conclude(6, "single-score surface collapse and threshold mask", failures,
              time.monotonic() - start)


# --------------------------------------------------------------- criterion 7

def test_criterion_7_exposition_conformance(tmp_path):
    start = time.monotonic()
    failures = []
    replay = two_workload_replay(tmp_path / "telemetry.jsonl", windows=8)
    config = AgentConfig.from_dict(_agent_config_dict(replay, window_s=0.1))
    references = [_report_metric_values(r) for r in _reference_reports(replay, config)]
    agent = MetricsAgent(config)
    server = make_server(agent, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    agent.start()
    try:
        port = server.server_address[1]
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline and agent.snapshot() is None:
            time.sleep(0.01)
        for scrape in range(3):
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=5) as resp:
                body = resp.read().decode()
            try:
                families = openmetrics.parse(body)
            except openmetrics.OpenMetricsParseError as exc:
                failures.append(f"scrape {scrape}: not valid OpenMetrics text: {exc}")
                break
            parsed = {name: dict(family.samples) for name, family in families.items()}
            matches = [i for i, ref in enumerate(references) if ref == parsed]
            if len(matches) != 1:
                failures.append(
                    f"scrape {scrape}: values match {len(matches)} windows, want exactly 1"
                )
                break
            time.sleep(0.12)
    finally:
        agent.stop()
        server.shutdown()
        server.server_close()
    _conclude(7, "OpenMetrics conformance and torn-read freedom", failures,
              time.monotonic() - start)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_controller_drop_in():
    start = time.monotonic()
    failures = []
    plant = PlantConfig(
        workloads=(
            PlantWorkload(
                id="svc",
                service_rate_per_core=100.0,
                base_latency_ms=2.0,
                latency_gain=1600.0,
                working_set_kib=48.0,
                mbw_per_req_bytes=87e6,
                interference_sensitivity=0.8,
            ),
        ),
        topology=TABLE_TOPO,
        total_cores=8.0,
        seed=100,
        noise_sigma=0.01,
    )
    ctrl = ControllerConfig(mode="buoyancy", setpoint=0.197, min_cores=1.0, max_cores=8.0)
    experiment = ExperimentConfig(
        workload_id="svc",
        load_rps=200.0,
        initial_cores=4.0,
        llc_alloc_kib=2048.0,
        windows=220,
        repetitions=10,
        slo=SloSpec("p95_latency_ms", 16.0),
    )
    schedule = InterferenceSchedule(steps=((0, 0.0), (100, 0.5)))
    records = run_experiment(plant, ctrl, schedule, experiment)
    out_of_bounds = [r for r in records if not 1.0 <= r.cores <= 8.0]
    if out_of_bounds:
        failures.append(f"{len(out_of_bounds)} windows left the actuation bounds")
    reacquired = 0
    for rep in range(10):
        seed = 100 + rep
        tail = statistics.median(
            r.buoyancy for r in records if r.seed == seed and 195 <= r.window < 220
        )
        if abs(tail - ctrl.setpoint) <= 0.05:
            reacquired += 1
    if reacquired < 9:
        failures.append(f"setpoint re-acquired in only {reacquired}/10 seeds")
    _conclude(8, "extremum seeking re-acquires the buoyancy setpoint", failures,
              time.monotonic() - start, 60.0)
