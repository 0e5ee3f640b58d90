"""Independent reference computations used to check the library's results.

These deliberately avoid the code paths under test: the log-log OLS
oracle goes through numpy.polyfit, the closed-form plant map restates
the plant and scoring equations directly, and the record parser, the
engine step and the plant step are the earlier implementations that the
faster ones replaced, kept as bit-parity references; so is the node
aggregation over (sample, scores) pairs that ``node_resource_scores``
ran before it took per-workload lists. The per-resource score
functions and the n-point power-law fit are the plain forms of the
rules that ``score_workload`` and ``fit_mrc`` run: the same arithmetic in
the same order, so their results must agree to the bit. The line-list
OpenMetrics renderer is the one that ``render_openmetrics`` replaced, and ``_json_default`` is the ``datetime`` hook of the
``dataclasses.asdict`` reference that ``report_to_json`` must match byte
for byte.
"""

import math
import re
from datetime import datetime, timedelta, timezone
from operator import attrgetter

import numpy as np

from buoyancy.controller import MODE_LATENCY, ExtremumSeeker
from buoyancy.engine import NodeReport, _WorkloadState, node_buoyancy, perf_score
from buoyancy.errors import BuoyancyError, SchemaError
from buoyancy.exposition import _NODE_METRICS, _WORKLOAD_METRICS, _escape_help, _escape_label
from buoyancy.model import BuoyancyReport, ResourceScores, TelemetrySample, llc_way_size, theoretical_max_mbw
from buoyancy.scores import MrcFit, score_workload
from buoyancy.sources import _SCHEMA, REFS_PER_REQUEST


_PLANT_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


class NoMemoryTraffic(BuoyancyError):
    """A window has no memory references, so miss ratios are undefined."""


def mrc_value(fit, x):
    """The fitted miss ratio ``a * x**b`` at cache size ``x`` KiB."""
    return fit.coeff_a * x ** fit.exponent_b


def mrc_slope(fit, x):
    """Slope of the fitted curve at cache size ``x`` KiB."""
    return fit.coeff_a * fit.exponent_b * x ** (fit.exponent_b - 1.0)


def cpu_score(sample):
    """CPU score: user CPU seconds over allocated core-seconds, clamped to 1."""
    t_alloc = sample.cpu_alloc_cores * sample.window_s
    return min(sample.cpu_user_time_s / t_alloc, 1.0)


def miss_ratios(sample):
    """Per-level cache miss ratios (L1, L2, L3) of one window."""
    if sample.mem_refs <= 0:
        raise NoMemoryTraffic(f"workload {sample.workload_id}: mem_refs=0")
    n = sample.mem_refs
    return (sample.l1_miss / n, sample.l2_miss / n, sample.l3_miss / n)


def fit_power_law(sizes_kib, ratios):
    """OLS fit of ``ln M = b0 + b1 ln x`` over n >= 2 points: ``MrcFit(e**b0, b1)``.

    Any non-positive or non-finite ratio, all ratios equal, or a
    non-negative fitted slope, yields a degenerate fit instead of an error
    (``a`` is kept from ``b0`` when computable).
    """
    if len(sizes_kib) != len(ratios) or len(sizes_kib) < 2:
        raise ValueError("need n >= 2 matched (size, ratio) points")
    if any(not (m > 0) or not math.isfinite(m) for m in ratios):
        return MrcFit(coeff_a=1.0, exponent_b=0.0, degenerate=True)

    log_x = [math.log(x) for x in sizes_kib]
    log_m = [math.log(m) for m in ratios]
    n = len(log_x)
    mean_x = math.fsum(log_x) / n
    mean_m = math.fsum(log_m) / n
    sxx = math.fsum((lx - mean_x) ** 2 for lx in log_x)
    sxm = math.fsum((lx - mean_x) * (lm - mean_m) for lx, lm in zip(log_x, log_m))
    if sxx == 0.0:
        return MrcFit(coeff_a=1.0, exponent_b=0.0, degenerate=True)

    beta1 = sxm / sxx
    beta0 = mean_m - beta1 * mean_x
    if beta1 >= 0.0 or min(ratios) == max(ratios):
        return MrcFit(coeff_a=math.exp(beta0), exponent_b=0.0, degenerate=True)
    return MrcFit(coeff_a=math.exp(beta0), exponent_b=beta1)


def llc_score(fit, topology, s_llc, m_llc):
    """LLC sensitivity score at allocation ``s_llc`` KiB against the measured L3 miss ratio ``m_llc``.

    Degenerate fits and non-positive denominators score 0.
    """
    if fit.degenerate or m_llc <= 0 or s_llc <= 0:
        return 0.0
    predicted_delta = -mrc_slope(fit, s_llc) * llc_way_size(topology)
    return min(predicted_delta / m_llc, 1.0)


def mbw_score(sample, topology):
    """Memory bandwidth score: current over allocated bytes/s, clamped."""
    alloc = sample.mbw_alloc_bytes_per_s
    if alloc is None:
        alloc = theoretical_max_mbw(topology)
    current = sample.mbw_bytes / sample.window_s
    return min(current / alloc, 1.0)


def ols_loglog(sizes, ratios):
    """Least-squares power-law fit via numpy: returns (a, b)."""
    slope, intercept = np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                                  np.log(np.asarray(ratios, dtype=float)), 1)
    return float(np.exp(intercept)), float(slope)


class StaticPlantMap:
    """Closed-form steady state of a single-workload plant configuration."""

    def __init__(
        self,
        mu1,
        base_latency_ms,
        latency_gain,
        working_set_kib,
        mbw_per_req_bytes,
        gamma,
        l1_kib=80.0,
        l2_kib=1280.0,
        l3_kib=12288.0,
        l3_ways=12,
        peak_mbw=85_312_000_000.0,
        slo_ms=16.0,
        alpha=0.7,
        llc_alloc_kib=2048.0,
    ):
        self.mu1 = mu1
        self.l0 = base_latency_ms
        self.k = latency_gain
        self.w = working_set_kib
        self.mbw_per_req = mbw_per_req_bytes
        self.gamma = gamma
        self.l3_kib = l3_kib
        self.way = l3_kib / l3_ways
        self.peak = peak_mbw
        self.slo = slo_ms
        self.alpha = alpha
        self.s_llc = llc_alloc_kib

    def latency(self, cores, load, interference):
        mu = cores * self.mu1 * (1.0 - self.gamma * interference)
        if load < 0.95 * mu:
            return self.l0 + self.k / (mu - load)
        return (self.l0 + self.k / (0.05 * mu)) * 10.0

    def scores(self, cores, load):
        cpu = min(load / (self.mu1 * cores), 1.0)
        # The planted curve is sqrt(W/x); its fitted slope is -1/2, so the
        # LLC score reduces to 0.5 * way / s_llc.
        llc = min(0.5 * self.way / self.s_llc, 1.0)
        m_ratio = math.sqrt(self.l3_kib / self.s_llc)
        mbw = min(load * self.mbw_per_req * m_ratio / self.peak, 1.0)
        return [cpu, llc, mbw]

    def buoyancy(self, cores, load, interference):
        lat = self.latency(cores, load, interference)
        p = (self.slo - lat) / self.slo
        r = self.scores(cores, load)
        mx, mn = max(r), sum(r) / len(r)
        return p * (self.alpha * (1 - mx) + (1 - self.alpha) * (1 - mn))

    def cores_for_buoyancy(self, target, load, interference, lo=1.0, hi=8.0):
        """Invert the static map: cores needed to reach a buoyancy target."""
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.buoyancy(mid, load, interference) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def cores_for_latency(self, target, load, interference, lo=1.0, hi=8.0):
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.latency(mid, load, interference) > target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0


#: One row per ``_SCHEMA`` field: (field, the exact types accepted, allow
#: null, the start of its type error).
_CHECKS = tuple(
    (key, types if isinstance(types, tuple) else (types,), nullable, f"expected {types}, got ")
    for key, (types, nullable) in _SCHEMA.items()
)


#: RFC 3339's date-time with the offset optional: T and Z in either case, a fraction of 1 to 9 digits.
_RFC3339 = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{1,9})?([Zz]|[+-][0-9]{2}:[0-9]{2})?"
)


def _parse_rfc3339(value, field):
    try:
        if _RFC3339.fullmatch(value):
            return datetime.fromisoformat(value.upper())
    except ValueError:
        pass
    raise SchemaError(field, f"not an RFC3339 timestamp: {value!r}")


def parse_record_reference(obj, strict=True):
    """A table-driven record parser, the reference for ``parse_telemetry_record``.

    Its errors, their fields, messages and precedence are the reference
    for the parser, which logs nothing either. It checks JSON shape only;
    every value rule is ``TelemetrySample``'s.
    """
    if not isinstance(obj, dict):
        raise SchemaError("<record>", "each line must be a JSON object")
    if obj.keys() != _SCHEMA.keys():
        for key in obj:
            if key not in _SCHEMA:
                if strict:
                    raise SchemaError(key, "unknown field")
    fields = {}
    for key, exact, nullable, expected in _CHECKS:
        try:
            value = obj[key]
        except KeyError:
            raise SchemaError(key, "missing") from None
        kind = type(value)
        if kind not in exact:
            if value is not None:
                raise SchemaError(key, expected + kind.__name__)
            if not nullable:
                raise SchemaError(key, "must not be null")
        fields[key] = value
    fields["window_start"] = _parse_rfc3339(fields["window_start"], "window_start")
    fields["window_end"] = _parse_rfc3339(fields["window_end"], "window_end")
    return TelemetrySample(**fields)


def node_resource_scores_reference(scored, topology, node_cores):
    """Node resource scores over one window's (sample, scores) pairs: the form ``node_resource_scores`` replaced."""
    if not scored:
        raise ValueError("node has no samples to aggregate")
    window = scored[0][0].window_s
    cpu_total = math.fsum(s.cpu_user_time_s for s, _ in scored)
    mbw_total = math.fsum(s.mbw_bytes for s, _ in scored) / window
    cpu = min(cpu_total / (node_cores * window), 1.0)
    mbw = min(mbw_total / theoretical_max_mbw(topology), 1.0)
    llc = math.fsum(r.llc for _, r in scored) / len(scored)
    return ResourceScores(cpu=cpu, llc=llc, mbw=mbw)


def engine_step_reference(engine, batch):
    """The three-pass ``Engine.step`` that the one-pass step replaced.

    An empty batch is rejected first. Pass one checks the batch for
    duplicates and mixed windows, pass two ages absent workloads, pass
    three scores; the node figures then come from
    ``node_resource_scores_reference`` and ``node_buoyancy``. It reads and
    updates ``engine``'s state exactly as the engine does.
    """
    if not batch:
        raise ValueError("empty telemetry batch")
    seen = set()
    window = (batch[0].window_start, batch[0].window_end)
    for sample in batch:
        if sample.workload_id in seen:
            raise SchemaError("workload_id", f"duplicate sample for workload {sample.workload_id!r}")
        if (sample.window_start, sample.window_end) != window:
            raise SchemaError("window_start", f"batch spans more than one window at {sample.workload_id!r}")
        seen.add(sample.workload_id)

    for wid in list(engine._state):
        if wid not in seen:
            state = engine._state[wid]
            state.missed_windows += 1
            if state.missed_windows > engine.config.expiry_windows:
                del engine._state[wid]

    cfg = engine.config
    alpha = cfg.alpha
    w = cfg.ema_factor
    keep = 1.0 - w
    window_s = batch[0].window_s
    reports = []
    scored = []
    for sample in batch:
        wid = sample.workload_id
        scores = score_workload(sample, engine.topology, window_s)
        cpu, llc, mbw = scores.cpu, scores.llc, scores.mbw
        kpi = sample.kpi_value
        state = engine._state.get(wid)
        if state is None:
            engine._state[wid] = _WorkloadState(scores=scores, last_kpi=kpi)
        else:
            if w < 1.0:
                old = state.scores
                cpu = w * cpu + keep * old.cpu
                llc = w * llc + keep * old.llc
                mbw = w * mbw + keep * old.mbw
                scores = ResourceScores(cpu, llc, mbw)
            if kpi is None:
                kpi = state.last_kpi
            state.scores = scores
            state.last_kpi = kpi
            state.missed_windows = 0
        p = perf_score(kpi, engine.slos.get(wid))
        mx = max(cpu, llc, mbw)
        mn = math.fsum((cpu, llc, mbw)) / 3
        b = p * (1.0 - mx if mx == mn else alpha * (1.0 - mx) + (1.0 - alpha) * (1.0 - mn))
        reports.append(BuoyancyReport(wid, p, b, scores, b <= cfg.violation_threshold))
        scored.append((sample, scores))

    return NodeReport(
        node_resource_scores=node_resource_scores_reference(scored, engine.topology, engine.node_cores),
        node_buoyancy=node_buoyancy([r.buoyancy for r in reports], alpha),
        workload_reports=reports,
        window_start=batch[0].window_start,
        window_end=batch[0].window_end,
    )


def _noisy_reference(plant, value):
    sigma = plant.config.noise_sigma
    if sigma <= 0 or value == 0 or not math.isfinite(value):
        return value
    return max(value * (1.0 + sigma * plant._rng.gauss(0.0, 1.0)), 0.0)


def plant_step_reference(plant, allocations, interference=0.0):
    """The ``ContentionPlant.step`` and ``_noisy`` that the hoisted plant step replaced.

    Every miss ratio is computed per step, and the noise is drawn from
    ``plant``'s generator in the same order: CPU, refs, L1, L2, L3,
    traffic, KPI. It advances ``plant``'s clock as the plant does.
    """
    cfg = plant.config
    topo = cfg.topology
    cfg.check_allocations(allocations)
    if not 0.0 <= interference <= 1.0:
        raise ValueError("interference must be in [0, 1]")

    window = cfg.window_s
    start = _PLANT_EPOCH + timedelta(seconds=plant._window_index * window)
    end = start + timedelta(seconds=window)

    workloads = {w.id: w for w in cfg.workloads}
    samples = []
    true_latency = {}
    for wid, alloc in allocations.items():
        w = workloads[wid]
        lam = alloc.load_rps
        s_llc = alloc.llc_kib if alloc.llc_kib is not None else topo.l3_size_kib

        latency = w.p95_latency_ms(alloc.cores, lam, interference)
        true_latency[wid] = latency

        m_l1 = w.miss_ratio(topo.l1_size_kib)
        m_l2 = w.miss_ratio(topo.l2_size_kib)
        m_l3 = w.miss_ratio(s_llc)
        m_ref = w.miss_ratio(topo.l3_size_kib)

        refs = lam * window * REFS_PER_REQUEST
        cpu_time = min(lam / w.service_rate_per_core, alloc.cores) * window
        mbw = lam * window * w.mbw_per_req_bytes * (m_l3 / m_ref)

        samples.append(
            TelemetrySample(
                workload_id=wid,
                window_start=start,
                window_end=end,
                cpu_user_time_s=_noisy_reference(plant, cpu_time),
                cpu_alloc_cores=alloc.cores,
                mem_refs=round(_noisy_reference(plant, refs)),
                l1_miss=round(_noisy_reference(plant, refs * m_l1)),
                l2_miss=round(_noisy_reference(plant, refs * m_l2)),
                l3_miss=round(_noisy_reference(plant, refs * m_l3)),
                mbw_bytes=round(_noisy_reference(plant, mbw)),
                mbw_alloc_bytes_per_s=None,
                llc_alloc_kib=alloc.llc_kib,
                kpi_value=_noisy_reference(plant, latency),
            )
        )
    plant._window_index += 1
    return samples, true_latency


class SeekerReference(ExtremumSeeker):
    """The ``ExtremumSeeker`` that evaluated ``math.sin`` in every window, before the sines were tabled."""

    def _sin(self):
        return math.sin(2.0 * math.pi * self._phase_index / self.config.perturb_period)

    def next_allocation(self):
        cfg = self.config
        raw = self.base + cfg.perturb_amplitude * self._sin()
        return min(max(raw, cfg.min_cores), cfg.max_cores)

    def observe(self, measured):
        cfg = self.config
        scale = max(abs(cfg.setpoint), 1e-9)
        if cfg.mode == MODE_LATENCY:
            error = (measured - cfg.setpoint) / scale
        else:
            error = (cfg.setpoint - measured) / scale
        self._demod_sum += error * self._sin()
        self._error_sum += error
        self._phase_index += 1
        if self._phase_index < cfg.perturb_period:
            return
        gradient = 2.0 * self._demod_sum / (cfg.perturb_period * cfg.perturb_amplitude)
        mean_error = self._error_sum / cfg.perturb_period
        step = -cfg.gain * mean_error * gradient
        limit = 2.0 * cfg.perturb_amplitude
        step = min(max(step, -limit), limit)
        self.base = self._clip_base(self.base + step)
        self._phase_index = 0
        self._demod_sum = 0.0
        self._error_sum = 0.0


def _json_default(value):
    if isinstance(value, datetime):
        return value.isoformat()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _format_value_reference(value):
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def _family_reference(name, help_text, samples):
    yield f"# HELP {name} {_escape_help(help_text)}"
    yield f"# TYPE {name} gauge"
    for labels, value in samples:
        yield f"{name}{labels} {_format_value_reference(value)}"


def render_openmetrics_reference(report):
    """The line-list renderer that ``render_openmetrics`` replaced."""
    labels = [f'{{workload_id="{_escape_label(wr.workload_id)}"}}' for wr in report.workload_reports]
    lines = []
    for name, path, help_text in _WORKLOAD_METRICS:
        get = attrgetter(path)
        samples = [(label, float(get(wr))) for label, wr in zip(labels, report.workload_reports)]
        lines.extend(_family_reference(name, help_text, samples))
    for name, path, help_text in _NODE_METRICS:
        lines.extend(_family_reference(name, help_text, [("", float(attrgetter(path)(report)))]))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
