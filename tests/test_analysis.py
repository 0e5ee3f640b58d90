import csv
import io
import math

import pytest

from buoyancy.analysis import (
    Segments,
    SurfacePoint,
    WorkloadMedians,
    analyze_medians,
    analyze_replay,
    format_csv,
    format_headroom_csv,
    format_headroom_table,
    load_medians_file,
    surface_points,
)
from buoyancy.config import build
from buoyancy.errors import ConfigError, InsufficientData
from buoyancy.server import AgentConfig

from .conftest import record_dict, write_jsonl
from .test_service import _agent_config_dict

MOSES = WorkloadMedians("moses", p95_low_ms=8.54, p95_high_ms=11.43, buoyancy_low=0.42, buoyancy_high=0.23)


# ------------------------------------------------------------------ medians

def test_medians_single_row():
    report = analyze_medians([MOSES])
    row = report.rows[0]
    assert row.latency_log_change == pytest.approx(0.29, abs=0.005)
    assert row.buoyancy_log_change == pytest.approx(-0.60, abs=0.005)
    assert row.latency_pct_change == pytest.approx(0.338, abs=0.005)
    assert row.buoyancy_pct_change == pytest.approx(-0.452, abs=0.005)


def test_medians_identical_segments_zero_changes():
    flat = WorkloadMedians("w", 5.0, 5.0, 0.4, 0.4)
    report = analyze_medians([flat, flat])
    for row in report.rows:
        assert row.latency_pct_change == 0.0
        assert row.latency_log_change == 0.0
        assert row.buoyancy_log_change == 0.0
    assert report.mean_latency_log_change == 0.0
    assert report.actuation_gap is None


def test_medians_empty_rejected():
    with pytest.raises(InsufficientData):
        analyze_medians([])


def test_medians_nonpositive_buoyancy_rejected():
    with pytest.raises(InsufficientData, match=r"^workload 'w': log_change needs positive values, got \(-0\.1, 0\.2\)$"):
        analyze_medians([WorkloadMedians("w", 5.0, 6.0, -0.1, 0.2)])


def test_medians_file_loading(tmp_path):
    path = tmp_path / "medians.json"
    path.write_text(
        '{"workloads": [{"workload_id": "moses", "p95_low_ms": 8.54, "p95_high_ms": 11.43,'
        ' "buoyancy_low": 0.42, "buoyancy_high": 0.23}]}'
    )
    medians = load_medians_file(str(path))
    assert medians == [MOSES]


def test_medians_file_schema_error(tmp_path):
    path = tmp_path / "medians.json"
    path.write_text('{"workloads": [{"workload_id": "x"}]}')
    with pytest.raises(ConfigError, match=r"^medians\.workloads\[0\]\.p95_low_ms: missing$"):
        load_medians_file(str(path))


def test_medians_file_empty_workload_list(tmp_path):
    path = tmp_path / "medians.json"
    path.write_text('{"workloads": []}')
    with pytest.raises(ConfigError, match="non-empty workload list"):
        load_medians_file(str(path))


def test_bundled_reference_medians_reproduce_summary():
    medians = load_medians_file("configs/headroom_medians.json")
    report = analyze_medians(medians)
    assert report.mean_latency_log_change == pytest.approx(0.654, abs=0.005)
    assert report.mean_buoyancy_log_change == pytest.approx(-0.78, abs=0.005)
    assert report.actuation_gap == pytest.approx(0.193, abs=0.005)


# ------------------------------------------------------------------- replay

def _two_phase_replay(tmp_path, low_windows=4, high_windows=4):
    records = []
    for i in range(low_windows + high_windows):
        high = i >= low_windows
        records.append(
            record_dict(
                window_index=i,
                cpu_user_time_s=1.8 if high else 0.5,
                mbw_bytes=60_000_000_000 if high else 20_000_000_000,
                kpi_value=8.0 if high else 4.0,
            )
        )
    return write_jsonl(tmp_path / "phases.jsonl", records)


def test_replay_analysis_matches_direct_computation(tmp_path, topo):
    path = _two_phase_replay(tmp_path)
    config = AgentConfig.from_dict(_agent_config_dict(path))
    report = analyze_replay(path, config)
    row = report.rows[0]
    assert row.p95_low_ms == 4.0 and row.p95_high_ms == 8.0
    assert row.latency_log_change == pytest.approx(math.log(2.0), rel=1e-12)
    assert row.buoyancy_low > row.buoyancy_high > 0


def test_replay_analysis_explicit_segments(tmp_path, topo):
    path = _two_phase_replay(tmp_path, low_windows=2, high_windows=6)
    config = AgentConfig.from_dict(_agent_config_dict(path))
    report = analyze_replay(path, config, segments=Segments((0, 2), (2, 8)))
    assert report.rows[0].p95_low_ms == 4.0
    assert report.rows[0].p95_high_ms == 8.0


def test_replay_analysis_insufficient_windows(tmp_path):
    path = write_jsonl(tmp_path / "one.jsonl", [record_dict(kpi_value=4.0)])
    config = AgentConfig.from_dict(_agent_config_dict(path))
    with pytest.raises(InsufficientData):
        analyze_replay(path, config)


def test_replay_analysis_missing_segment():
    with pytest.raises(ConfigError, match=r"^--segments\.high: missing$"):
        build(Segments, {"low": [0, 4]}, "--segments")


def test_replay_analysis_needs_kpi(tmp_path):
    records = [record_dict(window_index=i, kpi_value=None) for i in range(4)]
    path = write_jsonl(tmp_path / "nokpi.jsonl", records)
    config = AgentConfig.from_dict(_agent_config_dict(path))
    with pytest.raises(InsufficientData):
        analyze_replay(path, config)


def test_replay_analysis_segment_without_observations(tmp_path):
    path = _two_phase_replay(tmp_path)
    config = AgentConfig.from_dict(_agent_config_dict(path))
    with pytest.raises(InsufficientData, match=r"no KPI observations in windows \[8, 10\)"):
        analyze_replay(path, config, segments=Segments((0, 4), (8, 10)))


# ---------------------------------------------------------------- formatting

def test_headroom_formats():
    report = analyze_medians([MOSES])
    table = format_headroom_table(report)
    assert "moses" in table and "log-change" in table
    parsed = list(csv.reader(io.StringIO(format_headroom_csv(report))))
    assert parsed[0][0] == "workload_id"
    assert parsed[1][0] == "moses"
    assert float(parsed[1][4]) == pytest.approx(0.2915, abs=1e-4)


# ------------------------------------------------------------------- surface

def test_surface_corner_values():
    points = {
        (pt.case, pt.p, pt.r): pt for pt in surface_points(alpha=0.7, step=0.25)
    }
    assert points[("single", 1.0, 0.0)].b == 1.0
    assert points[("single", 1.0, 1.0)].b == 0.0
    assert points[("single", 0.5, 1.0)].b == 0.0


def test_surface_single_score_collapse_is_exact():
    for pt in surface_points(alpha=0.7, step=0.05):
        if pt.case == "single":
            assert pt.b == pt.p * (1.0 - pt.r)


def test_surface_threshold_boundary_point():
    pts = [
        pt
        for pt in surface_points(alpha=0.7, step=0.05)
        if pt.case == "single" and pt.p == 0.5 and abs(pt.r - 0.8) < 1e-12
    ]
    assert len(pts) == 1
    assert abs(pts[0].b - 0.1) < 1e-12
    assert pts[0].below_threshold


def test_surface_second_score_cases_present():
    cases = {pt.case for pt in surface_points(step=0.5)}
    assert cases == {"single", "second=0.3", "second=0.8"}


def test_surface_second_score_lowers_buoyancy():
    points = surface_points(alpha=0.7, step=0.25)
    single = {(pt.p, pt.r): pt.b for pt in points if pt.case == "single"}
    burdened = {(pt.p, pt.r): pt.b for pt in points if pt.case == "second=0.8"}
    for key, b_single in single.items():
        p, r = key
        if p > 0 and r < 0.8:
            assert burdened[key] < b_single


def test_surface_step_validation():
    with pytest.raises(ValueError):
        surface_points(step=0.0)
    with pytest.raises(ValueError):
        surface_points(step=0.6)


def test_surface_csv_roundtrip():
    text = format_csv(SurfacePoint, surface_points(step=0.5))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["case", "p", "r", "b", "below_threshold"]
    body = rows[1:]
    assert len(body) == 3 * 3 * 3
    for case, p, r, b, mask in body:
        assert float(b) <= 1.0
        assert mask in ("0", "1")
