"""Offline analyses: headroom comparison reports and buoyancy surfaces.

The headroom analysis contrasts how much tail latency moved against how
much buoyancy moved between a low-load and a high-load segment. Because
one metric rises and the other falls, changes are compared as log-changes
ln(high/low); the summary reports both means and the relative actuation
gap |mean buoyancy log-change| / mean latency log-change - 1.

Inputs are either a medians table (JSON) or a replay file that is run
through the scoring engine and split into segments.
"""

import csv
import io
import math
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

from .config import AgentConfig, _lookup, build, read_json
from .engine import DEFAULT_ALPHA, EngineConfig, buoyancy, log_change
from .errors import ConfigError, InsufficientData
from .model import DEFAULT_VIOLATION_THRESHOLD
from .sources import ReplaySource


@dataclass(frozen=True, slots=True)
class WorkloadMedians:
    """Low/high-segment medians of p95 latency and buoyancy for one workload."""

    workload_id: str
    p95_low_ms: float
    p95_high_ms: float
    buoyancy_low: float
    buoyancy_high: float


@dataclass(frozen=True, slots=True)
class Segments:
    """The low- and high-load window index ranges [start, end) of a replay analysis."""

    low: tuple[int, ...]
    high: tuple[int, ...]

    def __post_init__(self):
        for name, span in (("low", self.low), ("high", self.high)):
            if len(span) != 2 or not 0 <= span[0] < span[1]:
                raise ValueError(f"{name} must be [start, end] with 0 <= start < end, got {list(span)}")


@dataclass(frozen=True, slots=True)
class HeadroomRow:
    workload_id: str
    p95_low_ms: float
    p95_high_ms: float
    latency_pct_change: float  # fractional, e.g. 0.338
    latency_log_change: float
    buoyancy_low: float
    buoyancy_high: float
    buoyancy_pct_change: float
    buoyancy_log_change: float


@dataclass(frozen=True, slots=True)
class HeadroomReport:
    rows: list[HeadroomRow]
    mean_latency_log_change: float
    mean_buoyancy_log_change: float
    actuation_gap: Optional[float]  # fractional; None when latency did not move


def analyze_medians(medians: Sequence[WorkloadMedians]) -> HeadroomReport:
    """Build the headroom comparison from precomputed segment medians."""
    if not medians:
        raise InsufficientData("no workloads to analyze")
    rows = []
    for m in medians:
        try:  # log_change owns the positivity rule, so it runs before the divisions
            latency_log_change = log_change(m.p95_low_ms, m.p95_high_ms)
            buoyancy_log_change = log_change(m.buoyancy_low, m.buoyancy_high)
        except ValueError as exc:
            raise InsufficientData(f"workload {m.workload_id!r}: {exc}") from None
        rows.append(
            HeadroomRow(
                workload_id=m.workload_id,
                p95_low_ms=m.p95_low_ms,
                p95_high_ms=m.p95_high_ms,
                latency_pct_change=m.p95_high_ms / m.p95_low_ms - 1.0,
                latency_log_change=latency_log_change,
                buoyancy_low=m.buoyancy_low,
                buoyancy_high=m.buoyancy_high,
                buoyancy_pct_change=m.buoyancy_high / m.buoyancy_low - 1.0,
                buoyancy_log_change=buoyancy_log_change,
            )
        )
    mean_lat = math.fsum(r.latency_log_change for r in rows) / len(rows)
    mean_buoy = math.fsum(r.buoyancy_log_change for r in rows) / len(rows)
    gap = abs(mean_buoy) / mean_lat - 1.0 if mean_lat != 0 else None
    return HeadroomReport(
        rows=rows,
        mean_latency_log_change=mean_lat,
        mean_buoyancy_log_change=mean_buoy,
        actuation_gap=gap,
    )


def load_medians_file(path: str) -> list[WorkloadMedians]:
    """Read a medians table: {"workloads": [{workload_id, p95_low_ms, ...}, ...]}, at least one."""
    obj = read_json(path, "medians file")
    medians = build(tuple[WorkloadMedians, ...], *_lookup(obj, ("workloads",), "medians"))
    if not medians:
        raise ConfigError("medians.workloads: a medians file needs a non-empty workload list")
    return list(medians)


def analyze_replay(
    replay_path: str,
    config: AgentConfig,
    segments: Optional[Segments] = None,
) -> HeadroomReport:
    """Run a replay through the engine and compare segment medians.

    By default the replay is split into equal halves of ``Segments``:
    first half low, second half high.
    """
    engine = config.new_engine()
    kpi: dict[str, list[tuple[int, float]]] = {}
    buoy: dict[str, list[tuple[int, float]]] = {}
    source = ReplaySource(replay_path, strict=config.replay_strict)
    n_windows = 0
    for index, batch in enumerate(source):
        report = engine.step(batch)
        n_windows = index + 1
        for sample, wr in zip(batch, report.workload_reports):
            buoy.setdefault(wr.workload_id, []).append((index, wr.buoyancy))
            if sample.kpi_value is not None:
                kpi.setdefault(wr.workload_id, []).append((index, sample.kpi_value))

    if segments is None:
        if n_windows < 2:
            raise InsufficientData(
                f"need at least 2 windows to form low/high segments, got {n_windows}"
            )
        segments = Segments((0, n_windows // 2), (n_windows // 2, n_windows))

    def median_in(series: list[tuple[int, float]], span: tuple[int, ...], what: str) -> float:
        values = [v for i, v in series if span[0] <= i < span[1]]
        if not values:
            raise InsufficientData(f"no {what} observations in windows [{span[0]}, {span[1]})")
        return statistics.median(values)

    medians = []
    for wid in buoy:
        if wid not in kpi:
            raise InsufficientData(f"workload {wid!r} never reported a KPI")
        medians.append(
            WorkloadMedians(
                workload_id=wid,
                p95_low_ms=median_in(kpi[wid], segments.low, "KPI"),
                p95_high_ms=median_in(kpi[wid], segments.high, "KPI"),
                buoyancy_low=median_in(buoy[wid], segments.low, "buoyancy"),
                buoyancy_high=median_in(buoy[wid], segments.high, "buoyancy"),
            )
        )
    return analyze_medians(medians)


def format_csv(cls: type, rows: Iterable) -> str:
    """CSV of dataclass records: one column per field of ``cls``, a bool as 1/0."""
    names = [f.name for f in fields(cls)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        values = [getattr(row, name) for name in names]
        writer.writerow([int(v) if isinstance(v, bool) else v for v in values])
    return buf.getvalue()


def format_headroom_csv(report: HeadroomReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([])
    writer.writerow(["mean_latency_log_change", report.mean_latency_log_change])
    writer.writerow(["mean_buoyancy_log_change", report.mean_buoyancy_log_change])
    writer.writerow(["actuation_gap", report.actuation_gap])
    return format_csv(HeadroomRow, report.rows) + buf.getvalue()


def format_headroom_table(report: HeadroomReport) -> str:
    header = (
        f"{'workload':<12} {'p95 lo':>8} {'p95 hi':>8} {'lat %':>8} {'lat log':>8} "
        f"{'b lo':>8} {'b hi':>8} {'b %':>8} {'b log':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in report.rows:
        lines.append(
            f"{r.workload_id:<12} {r.p95_low_ms:>8.2f} {r.p95_high_ms:>8.2f} "
            f"{100 * r.latency_pct_change:>7.1f}% {r.latency_log_change:>8.2f} "
            f"{r.buoyancy_low:>8.2f} {r.buoyancy_high:>8.2f} "
            f"{100 * r.buoyancy_pct_change:>7.1f}% {r.buoyancy_log_change:>8.2f}"
        )
    lines.append("")
    lines.append(f"mean latency log-change:  {report.mean_latency_log_change:.3f}")
    lines.append(f"mean buoyancy log-change: {report.mean_buoyancy_log_change:.3f}")
    if report.actuation_gap is not None:
        lines.append(f"buoyancy actuation gap:   {100 * report.actuation_gap:.1f}%")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Buoyancy surface
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SurfacePoint:
    case: str  # "single" or "second=<value>"
    p: float
    r: float
    b: float
    below_threshold: bool


#: The fixed second scores of the surface's two-score cases.
SECOND_SCORES = (0.3, 0.8)


def surface_points(alpha: float = DEFAULT_ALPHA, step: float = 0.05) -> list[SurfacePoint]:
    """Buoyancy over a (P, r) grid, single-score plus fixed-second-score cases.

    ``below_threshold`` compares with the engine's default violation threshold.
    """
    EngineConfig(alpha=alpha)  # the engine's own rule rejects a bad alpha
    if not 0.0 < step <= 0.5:
        raise ValueError(f"step must be in (0, 0.5], got {step}")
    n = math.floor(1.0 / step + 1e-9) + 1
    grid = [i * step for i in range(n)]
    points = []
    cases: list[tuple[str, Optional[float]]] = [("single", None)]
    cases.extend((f"second={s:g}", s) for s in SECOND_SCORES)
    for case, second in cases:
        for p in grid:
            for r in grid:
                scores = [r] if second is None else [r, second]
                b = buoyancy(p, scores, alpha)
                points.append(SurfacePoint(case, p, r, b, b <= DEFAULT_VIOLATION_THRESHOLD))
    return points
