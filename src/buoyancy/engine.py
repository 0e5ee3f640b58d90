"""Buoyancy scoring and node-level aggregation over telemetry streams.

The buoyancy score of a workload combines its SLO slack with the
saturation of its resource scores:

    P = (K_slo - K_curr) / K_slo                        (1 when no SLO)
    b = P * (alpha * (1 - max r) + (1 - alpha) * (1 - mean r))

Node-level buoyancy blends the most constrained workload with the mean:

    b_node = alpha * min(b) + (1 - alpha) * mean(b)

Negative values are preserved, not clamped: the magnitude of a violated
SLO is information. The same alpha weights both formulas.

The stateful ``Engine`` applies these per window over batches of samples,
optionally EMA-smoothing resource scores, carrying the last seen KPI
across windows where the KPI scrape missed, and expiring workloads that
leave the node.
"""

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Optional, Sequence

from .errors import SchemaError
from .model import (
    DEFAULT_VIOLATION_THRESHOLD,
    LEAST_CORES,
    BuoyancyReport,
    CacheTopology,
    ResourceScores,
    SloSpec,
    TelemetrySample,
    theoretical_max_mbw,
    value_type,
)
from .scores import score_workload

DEFAULT_ALPHA = 0.7
DEFAULT_EXPIRY_WINDOWS = 3


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Tuning knobs of the scoring engine.

    ``ema_factor`` is the weight of the newest resource scores; 1.0 means
    no smoothing. ``expiry_windows`` is how many consecutive windows a
    workload may miss before its state is dropped.
    """

    alpha: float = DEFAULT_ALPHA
    violation_threshold: float = DEFAULT_VIOLATION_THRESHOLD
    ema_factor: float = 1.0
    expiry_windows: int = DEFAULT_EXPIRY_WINDOWS

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.ema_factor <= 1.0:
            raise ValueError(f"ema_factor must be in (0, 1], got {self.ema_factor}")
        if self.expiry_windows < 0:
            raise ValueError("expiry_windows must be >= 0")


@value_type
class NodeReport:
    """One node-level snapshot: aggregate scores plus per-workload reports."""

    node_resource_scores: ResourceScores
    node_buoyancy: float
    workload_reports: list[BuoyancyReport]
    window_start: datetime
    window_end: datetime


def perf_score(k_curr: Optional[float], slo: Optional[SloSpec]) -> float:
    """SLO slack score P. 1.0 when no SLO or no KPI observation exists."""
    if slo is None or slo.slo_value is None:
        return 1.0
    if k_curr is None:
        return 1.0
    if k_curr < 0:
        raise ValueError(f"kpi value must be >= 0, got {k_curr}")
    return (slo.slo_value - k_curr) / slo.slo_value


def buoyancy(p: float, scores: Sequence[float], alpha: float = DEFAULT_ALPHA) -> float:
    """Buoyancy score b of one workload (see module docstring)."""
    if not scores:
        raise ValueError("buoyancy needs at least one resource score")
    mx = max(scores)
    mn = math.fsum(scores) / len(scores)
    # Equal max and mean collapse algebraically to a single factor; taking
    # that branch keeps single-score surfaces and the boundary identities
    # (b = P at all-zero scores, b = 0 at all-one) exact in floating point.
    if mx == mn:
        factor = 1.0 - mx
    else:
        factor = alpha * (1.0 - mx) + (1.0 - alpha) * (1.0 - mn)
    return p * factor


def node_buoyancy(buoyancies: Sequence[float], alpha: float = DEFAULT_ALPHA) -> float:
    """Node-level buoyancy: alpha-blend of the minimum and the mean."""
    if not buoyancies:
        raise ValueError("node has no workload buoyancy scores")
    mn = min(buoyancies)
    mean = math.fsum(buoyancies) / len(buoyancies)
    if mn == mean:
        return mn
    return alpha * mn + (1.0 - alpha) * mean


def node_resource_scores(
    cpu_user_time_s: Sequence[float],
    llc_scores: Sequence[float],
    mbw_bytes: Sequence[float],
    window_s: float,
    node_cores: float,
    peak_mbw: float,
) -> ResourceScores:
    """Node-level resource scores over one shared window of ``window_s`` seconds.

    Each sequence holds one figure per workload of the window. CPU and MBW
    are re-derived from the raw counters: total user CPU time over the
    node's physical core-seconds, and total traffic over the theoretical
    peak bandwidth ``peak_mbw`` (``theoretical_max_mbw`` of the topology).
    LLC sensitivity does not aggregate that way (it depends on each
    workload's own allocation), so the node LLC score is the mean of the
    workload scores.
    """
    if not llc_scores:
        raise ValueError("node has no samples to aggregate")
    cpu = min(math.fsum(cpu_user_time_s) / (node_cores * window_s), 1.0)
    mbw = min(math.fsum(mbw_bytes) / window_s / peak_mbw, 1.0)
    return ResourceScores(cpu, math.fsum(llc_scores) / len(llc_scores), mbw)


def log_change(low: float, high: float) -> float:
    """ln(high/low): symmetric growth measure for rising or falling metrics."""
    if low <= 0 or high <= 0:
        raise ValueError(f"log_change needs positive values, got ({low}, {high})")
    return math.log(high / low)


@dataclass(slots=True)
class _WorkloadState:
    scores: ResourceScores
    last_kpi: Optional[float] = None
    missed_windows: int = 0


class Engine:
    """Stateful per-node scoring engine.

    ``step`` is not thread safe; calls must be serialized per node. The
    reports it returns are immutable snapshots safe to hand to concurrent
    readers.
    """

    def __init__(
        self,
        topology: CacheTopology,
        node_cores: float,
        slos: Optional[Mapping[str, SloSpec]] = None,
        config: Optional[EngineConfig] = None,
    ):
        if not node_cores >= LEAST_CORES:
            raise ValueError(f"node_cores must be > 0 and at least {LEAST_CORES}, got {node_cores}")
        self.topology = topology
        self.node_cores = node_cores
        self.slos = dict(slos or {})
        self.config = config or EngineConfig()
        self._state: dict[str, _WorkloadState] = {}
        self._peak_mbw = theoretical_max_mbw(topology)

    def step(self, batch: Sequence[TelemetrySample]) -> NodeReport:
        """Score one window's batch (one sample per workload) into a report.

        Its workload reports follow the batch, one per sample, in order.
        The batch is checked before any state changes. The scoring loop
        fills the per-workload lists that ``node_resource_scores`` and
        ``node_buoyancy`` aggregate into the node figures.
        """
        if not batch:
            raise ValueError("empty telemetry batch")
        states = self._state
        seen = set()
        # Node CPU and MBW divide by one window length: the first sample's.
        start, end = batch[0].window_start, batch[0].window_end
        for sample in batch:
            wid = sample.workload_id
            if wid in seen:
                raise SchemaError("workload_id", f"duplicate sample for workload {wid!r}")
            if sample.window_start != start or sample.window_end != end:
                raise SchemaError("window_start", f"batch spans more than one window at {wid!r}")
            seen.add(wid)

        cfg = self.config
        if not states.keys() <= seen:  # age out workloads that left the node
            for wid in list(states):
                if wid not in seen:
                    state = states[wid]
                    state.missed_windows += 1
                    if state.missed_windows > cfg.expiry_windows:
                        del states[wid]

        alpha = cfg.alpha
        threshold = cfg.violation_threshold
        w = cfg.ema_factor
        keep = 1.0 - w
        smooth = w < 1.0
        topology = self.topology
        slos = self.slos
        window_s = (end - start).total_seconds()
        reports: list[BuoyancyReport] = []
        cpu_times, traffic, llcs, buoyancies = [], [], [], []
        for sample in batch:
            wid = sample.workload_id
            scores = score_workload(sample, topology, window_s)
            cpu, llc, mbw = scores.cpu, scores.llc, scores.mbw
            kpi = sample.kpi_value
            state = states.get(wid)
            if state is None:
                states[wid] = _WorkloadState(scores, kpi)
            else:
                if smooth:
                    old = state.scores
                    cpu = w * cpu + keep * old.cpu
                    llc = w * llc + keep * old.llc
                    mbw = w * mbw + keep * old.mbw
                    scores = ResourceScores(cpu, llc, mbw)
                if kpi is None:
                    kpi = state.last_kpi  # stale-KPI carry-forward
                state.scores = scores
                state.last_kpi = kpi
                state.missed_windows = 0

            p = perf_score(kpi, slos.get(wid))
            b = buoyancy(p, (cpu, llc, mbw), alpha)
            reports.append(BuoyancyReport(wid, p, b, scores, b <= threshold))
            cpu_times.append(sample.cpu_user_time_s)
            traffic.append(sample.mbw_bytes)
            llcs.append(llc)
            buoyancies.append(b)

        node_scores = node_resource_scores(cpu_times, llcs, traffic, window_s, self.node_cores, self._peak_mbw)
        return NodeReport(node_scores, node_buoyancy(buoyancies, alpha), reports, start, end)

    @property
    def tracked_workloads(self) -> list[str]:
        return sorted(self._state)
