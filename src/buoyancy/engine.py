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
from typing import Mapping, Optional, Sequence, Union

from .errors import EmptyNode, EmptyScoreSet, NonPositiveInput
from .model import (
    DEFAULT_VIOLATION_THRESHOLD,
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
    window_start: Optional[datetime] = None
    window_end: Optional[datetime] = None


def perf_score(k_curr: Optional[float], slo: Optional[SloSpec]) -> float:
    """SLO slack score P. 1.0 when no SLO or no KPI observation exists."""
    if slo is None or slo.slo_value is None:
        return 1.0
    if k_curr is None:
        return 1.0
    if k_curr < 0:
        raise ValueError(f"kpi value must be >= 0, got {k_curr}")
    return (slo.slo_value - k_curr) / slo.slo_value


def _score_values(scores: Union[ResourceScores, Sequence[float]]) -> list[float]:
    if isinstance(scores, ResourceScores):
        return scores.values()
    return list(scores)


def buoyancy(p: float, scores: Union[ResourceScores, Sequence[float]], alpha: float = DEFAULT_ALPHA) -> float:
    """Buoyancy score b of one workload (see module docstring)."""
    values = _score_values(scores)
    if not values:
        raise EmptyScoreSet("buoyancy needs at least one resource score")
    mx = max(values)
    mn = math.fsum(values) / len(values)
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
        raise EmptyNode("node has no workload buoyancy scores")
    mn = min(buoyancies)
    mean = math.fsum(buoyancies) / len(buoyancies)
    if mn == mean:
        return mn
    return alpha * mn + (1.0 - alpha) * mean


def node_resource_scores(
    scored: Sequence[tuple[TelemetrySample, ResourceScores]],
    topology: CacheTopology,
    node_cores: float,
) -> ResourceScores:
    """Node-level resource scores over one shared window.

    CPU and MBW are re-derived from the raw counters: total user CPU time
    over the node's physical core-seconds, and total traffic over the
    theoretical peak bandwidth. LLC sensitivity does not aggregate that
    way (it depends on each workload's own allocation), so the node LLC
    score is the mean of the workload scores.
    """
    if not scored:
        raise EmptyNode("node has no samples to aggregate")
    window = scored[0][0].window_s
    cpu_total = math.fsum(s.cpu_user_time_s for s, _ in scored)
    mbw_total = math.fsum(s.mbw_bytes for s, _ in scored) / window
    cpu = min(cpu_total / (node_cores * window), 1.0)
    mbw = min(mbw_total / theoretical_max_mbw(topology), 1.0)
    llc = math.fsum(r.llc for _, r in scored) / len(scored)
    return ResourceScores(cpu=cpu, llc=llc, mbw=mbw)


def log_change(low: float, high: float) -> float:
    """ln(high/low): symmetric growth measure for rising or falling metrics."""
    if low <= 0 or high <= 0:
        raise NonPositiveInput(f"log_change needs positive values, got ({low}, {high})")
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
        if node_cores <= 0:
            raise ValueError(f"node_cores must be > 0, got {node_cores}")
        self.topology = topology
        self.node_cores = node_cores
        self.slos = dict(slos or {})
        self.config = config or EngineConfig()
        self._state: dict[str, _WorkloadState] = {}

    def step(self, batch: Sequence[TelemetrySample]) -> NodeReport:
        """Score one window's batch (one sample per workload) into a report."""
        seen = set()
        # Node CPU and MBW divide by one window length: the first sample's.
        window = (batch[0].window_start, batch[0].window_end) if batch else None
        for sample in batch:
            if sample.workload_id in seen:
                raise ValueError(f"duplicate sample for workload {sample.workload_id!r}")
            if (sample.window_start, sample.window_end) != window:
                raise ValueError(f"batch spans more than one window at {sample.workload_id!r}")
            seen.add(sample.workload_id)

        # Age out workloads that left the node.
        for wid in list(self._state):
            if wid not in seen:
                state = self._state[wid]
                state.missed_windows += 1
                if state.missed_windows > self.config.expiry_windows:
                    del self._state[wid]

        if not batch:
            raise EmptyNode("empty telemetry batch")

        cfg = self.config
        alpha = cfg.alpha
        threshold = cfg.violation_threshold
        w = cfg.ema_factor
        keep = 1.0 - w
        smooth = w < 1.0
        topology = self.topology
        slos = self.slos
        states = self._state
        window_s = batch[0].window_s
        reports: list[BuoyancyReport] = []
        scored: list[tuple[TelemetrySample, ResourceScores]] = []
        for sample in batch:
            wid = sample.workload_id
            scores = score_workload(sample, topology, window_s)
            cpu, llc, mbw = scores.cpu, scores.llc, scores.mbw
            kpi = sample.kpi_value
            state = states.get(wid)
            if state is None:
                states[wid] = _WorkloadState(scores=scores, last_kpi=kpi)
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
            # buoyancy(p, scores, alpha), written out over the three floats.
            mx = max(cpu, llc, mbw)
            mn = math.fsum((cpu, llc, mbw)) / 3
            b = p * (1.0 - mx if mx == mn else alpha * (1.0 - mx) + (1.0 - alpha) * (1.0 - mn))
            reports.append(BuoyancyReport(wid, p, b, scores, b <= threshold))
            scored.append((sample, scores))

        return NodeReport(
            node_resource_scores=node_resource_scores(scored, self.topology, self.node_cores),
            node_buoyancy=node_buoyancy([r.buoyancy for r in reports], alpha),
            workload_reports=reports,
            window_start=batch[0].window_start,
            window_end=batch[0].window_end,
        )

    @property
    def tracked_workloads(self) -> list[str]:
        return sorted(self._state)
