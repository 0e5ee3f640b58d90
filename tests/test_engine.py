import copy
import math
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buoyancy import (
    Engine,
    EngineConfig,
    ResourceScores,
    SchemaError,
    SloSpec,
    buoyancy,
    log_change,
    node_buoyancy,
    node_resource_scores,
    perf_score,
    theoretical_max_mbw,
)

from buoyancy import engine as engine_module

from .conftest import TABLE_TOPO, make_sample
from .oracles import engine_step_reference, node_resource_scores_reference


# ---------------------------------------------------------------- perf score

def test_perf_score_at_slo_boundary():
    assert perf_score(10.0, SloSpec("p95", 10.0)) == 0.0


def test_perf_score_without_slo():
    assert perf_score(42.0, None) == 1.0
    assert perf_score(42.0, SloSpec("p95", None)) == 1.0


def test_perf_score_violated():
    assert perf_score(15.0, SloSpec("p95", 10.0)) == -0.5


def test_perf_score_missing_kpi():
    assert perf_score(None, SloSpec("p95", 10.0)) == 1.0


def test_perf_score_invalid_slo():
    with pytest.raises(ValueError, match=r"^slo_value must be > 0, got 0\.0$"):
        perf_score(1.0, SloSpec("p95", 0.0))
    with pytest.raises(ValueError, match=r"^slo_value must be > 0, got -3\.0$"):
        perf_score(1.0, SloSpec("p95", -3.0))


def test_perf_score_negative_kpi_rejected():
    with pytest.raises(ValueError):
        perf_score(-1.0, SloSpec("p95", 10.0))


@given(k=st.floats(0, 100), slo=st.floats(0.1, 100), scale=st.floats(0.001, 1000))
def test_perf_score_unit_invariance(k, slo, scale):
    p1 = perf_score(k, SloSpec("p95", slo))
    p2 = perf_score(k * scale, SloSpec("p95", slo * scale))
    assert p2 == pytest.approx(p1, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------ buoyancy

def test_buoyancy_worked_example():
    assert buoyancy(0.5, [0.8, 0.2], alpha=0.7) == pytest.approx(0.145, rel=1e-12)


def test_buoyancy_zero_scores_returns_p_exactly():
    for p in (-0.3, 0.0, 0.25, 1.0):
        assert buoyancy(p, [0.0, 0.0, 0.0], alpha=0.7) == p


def test_buoyancy_saturated_scores_is_zero_exactly():
    for p in (-0.3, 0.0, 0.25, 1.0):
        assert buoyancy(p, [1.0, 1.0, 1.0], alpha=0.7) == 0.0


def test_buoyancy_empty_scores():
    with pytest.raises(ValueError, match=r"^buoyancy needs at least one resource score$"):
        buoyancy(0.5, [], alpha=0.7)


@given(
    p=st.floats(-5, 1),
    scores=st.lists(st.floats(0, 1), min_size=1, max_size=6),
    alpha=st.floats(0, 1),
)
def test_buoyancy_bounds(p, scores, alpha):
    b = buoyancy(p, scores, alpha)
    assert b <= 1.0
    if p >= 0:
        assert b <= p


@given(
    p=st.floats(0, 1),
    scores=st.lists(st.floats(0, 1), min_size=1, max_size=5),
    alpha=st.floats(0, 1),
    index=st.integers(0, 4),
    bump=st.floats(0.001, 1),
)
def test_buoyancy_non_increasing_in_each_score(p, scores, alpha, index, bump):
    index = index % len(scores)
    bigger = list(scores)
    bigger[index] = min(bigger[index] + bump, 1.0)
    assert buoyancy(p, bigger, alpha) <= buoyancy(p, scores, alpha) + 1e-12


@given(
    p1=st.floats(0, 1),
    p2=st.floats(0, 1),
    scores=st.lists(st.floats(0, 0.999), min_size=1, max_size=5),
    alpha=st.floats(0, 1),
)
def test_buoyancy_increasing_in_p(p1, p2, scores, alpha):
    lo, hi = min(p1, p2), max(p1, p2)
    if lo == hi:
        return
    assert buoyancy(lo, scores, alpha) < buoyancy(hi, scores, alpha) + 1e-15


def test_buoyancy_sign_follows_p():
    scores = [0.3, 0.5]
    assert buoyancy(-0.5, scores, 0.7) < 0
    assert buoyancy(0.5, scores, 0.7) > 0


# ---------------------------------------------------------- node aggregation

def _node_of(samples, llc_scores, topology, node_cores):
    """``node_resource_scores`` over one window's samples and their LLC scores."""
    return node_resource_scores(
        [s.cpu_user_time_s for s in samples], llc_scores, [s.mbw_bytes for s in samples],
        samples[0].window_s, node_cores, theoretical_max_mbw(topology),
    )


def test_node_cpu_is_additive(topo):
    samples = [make_sample(workload_id=f"w{i}", cpu_user_time_s=1.0, cpu_alloc_cores=2.0) for i in range(2)]
    node = _node_of(samples, [0.0, 0.0], topo, node_cores=4.0)
    assert node.cpu == 0.5


def test_node_llc_is_mean(topo):
    samples = [make_sample(workload_id=f"w{i}") for i in range(3)]
    node = _node_of(samples, [0.1, 0.3, 0.2], topo, node_cores=8.0)
    assert node.llc == pytest.approx(0.2, rel=1e-12)


def test_node_mbw_saturates_at_theoretical_peak(topo):
    samples = [make_sample(workload_id=f"w{i}", mbw_bytes=42_656_000_000) for i in range(2)]
    node = _node_of(samples, [0.0, 0.0], topo, node_cores=8.0)
    assert node.mbw == 1.0


def test_node_scores_empty(topo):
    with pytest.raises(ValueError, match="^node has no samples to aggregate$"):
        node_resource_scores([], [], [], 1.0, 8.0, theoretical_max_mbw(topo))


def test_step_aggregates_through_node_resource_scores():
    # perfbench times the node aggregation by patching this module attribute.
    batch = [make_sample(workload_id=f"w{i}", cpu_user_time_s=0.25 * i, kpi_value=4.0) for i in range(3)]
    want = Engine(TABLE_TOPO, 8.0).step(batch)
    with mock.patch.object(engine_module, "node_resource_scores", wraps=node_resource_scores) as spy:
        got = Engine(TABLE_TOPO, 8.0).step(batch)
    spy.assert_called_once()
    assert repr(got) == repr(want)


def test_node_buoyancy_worked_example():
    assert node_buoyancy([0.5, 0.1, 0.3], alpha=0.7) == pytest.approx(0.16, rel=1e-12)


def test_node_buoyancy_single_workload():
    assert node_buoyancy([0.4], alpha=0.7) == 0.4


def test_node_buoyancy_all_equal():
    for alpha in (0.0, 0.3, 0.7, 1.0):
        assert node_buoyancy([0.25, 0.25, 0.25], alpha=alpha) == 0.25


def test_node_buoyancy_empty():
    with pytest.raises(ValueError, match="^node has no workload buoyancy scores$"):
        node_buoyancy([], alpha=0.7)


@given(
    values=st.lists(st.floats(-2, 1), min_size=1, max_size=20),
    alpha=st.floats(0, 1),
)
def test_node_buoyancy_convexity(values, alpha):
    b = node_buoyancy(values, alpha)
    assert min(values) - 1e-9 <= b <= math.fsum(values) / len(values) + 1e-9


@given(
    values=st.lists(st.floats(-2, 1), min_size=2, max_size=20),
    alpha=st.floats(0, 1),
    seed=st.integers(0, 2**16),
)
def test_node_buoyancy_permutation_invariant(values, alpha, seed):
    import random

    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    assert node_buoyancy(shuffled, alpha) == node_buoyancy(values, alpha)


# ---------------------------------------------------------------- log change

def test_log_change_published_rows():
    assert log_change(8.54, 11.43) == pytest.approx(0.29, abs=0.005)
    assert log_change(0.42, 0.23) == pytest.approx(-0.60, abs=0.005)


def test_log_change_identity():
    assert log_change(3.7, 3.7) == 0.0


def test_log_change_positive_inputs_only():
    with pytest.raises(ValueError, match="log_change needs positive values"):
        log_change(0.0, 1.0)
    with pytest.raises(ValueError, match="log_change needs positive values"):
        log_change(1.0, -2.0)


# ------------------------------------------------------------------- engine

def _engine(topo, **kwargs):
    defaults = dict(
        topology=topo,
        node_cores=8.0,
        slos={"w1": SloSpec("p95_latency_ms", 10.0)},
    )
    defaults.update(kwargs)
    return Engine(**defaults)


def test_step_composes_scores_and_buoyancy(topo):
    engine = _engine(topo)
    sample = make_sample(kpi_value=5.0)
    report = engine.step([sample])
    wr = report.workload_reports[0]
    assert wr.perf_score == 0.5
    expected_b = buoyancy(0.5, astuple(wr.resource_scores), 0.7)
    assert wr.buoyancy == expected_b
    assert wr.approaching_violation == (wr.buoyancy <= 0.1)
    assert report.node_buoyancy == wr.buoyancy
    assert report.window_start == sample.window_start
    assert report.window_end == sample.window_end


_SCORE = st.floats(0.0, 1.0)

#: A workload's resource scores (at times all equal, where buoyancy takes
#: its single-factor branch) and its KPI against a 10 ms SLO.
_WORKLOAD = st.tuples(
    st.tuples(_SCORE, _SCORE, _SCORE) | _SCORE.map(lambda v: (v, v, v)),
    st.none() | st.floats(0.0, 30.0),
)


@settings(max_examples=300)
@given(
    windows=st.lists(st.lists(_WORKLOAD, min_size=1, max_size=4), min_size=1, max_size=4),
    alpha=st.floats(0.0, 1.0),
    ema_factor=st.sampled_from([1.0, 0.5, 0.3]),
)
@example(windows=[[((0.3, 0.3, 0.3), 4.0)]], alpha=0.35, ema_factor=1.0)
def test_step_buoyancy_matches_buoyancy_function(windows, alpha, ema_factor):
    slos = {"w0": SloSpec("p95_latency_ms", 10.0), "w2": SloSpec("p95_latency_ms", 10.0)}
    engine = _engine(TABLE_TOPO, slos=slos, config=EngineConfig(alpha=alpha, ema_factor=ema_factor))
    drawn = {}

    def drawn_scores(sample, *_):
        return ResourceScores(*drawn[sample.workload_id])

    # Engine.step looks score_workload up in its module, so the patch reaches it.
    with mock.patch.object(engine_module, "score_workload", drawn_scores):
        for index, window in enumerate(windows):
            drawn.clear()
            batch = []
            for i, (scores, kpi) in enumerate(window):
                drawn[f"w{i}"] = scores
                batch.append(make_sample(workload_id=f"w{i}", window_index=index, kpi_value=kpi))
            for wr in engine.step(batch).workload_reports:
                assert wr.buoyancy.hex() == buoyancy(wr.perf_score, astuple(wr.resource_scores), alpha).hex()


def test_step_empty_batch_empty_state(topo):
    with pytest.raises(ValueError, match="^empty telemetry batch$"):
        _engine(topo).step([])


def test_step_is_deterministic(topo):
    batch = [make_sample(kpi_value=5.0), make_sample(workload_id="w2", kpi_value=None)]
    r1 = _engine(topo).step(batch)
    r2 = _engine(topo).step(batch)
    assert r1 == r2


def test_step_identical_batches_identical_reports(topo):
    engine = _engine(topo)
    batch = [make_sample(kpi_value=5.0)]
    assert engine.step(batch) == engine.step(batch)


def test_step_duplicate_workload_rejected(topo):
    engine = _engine(topo)
    with pytest.raises(SchemaError) as exc:
        engine.step([make_sample(), make_sample()])
    assert exc.value.field == "workload_id"


def test_step_mixed_windows_rejected(topo):
    # Node CPU and MBW would divide both samples' counters by the 1 s window.
    engine = _engine(topo)
    with pytest.raises(SchemaError, match="one window") as exc:
        engine.step([make_sample(window_s=1.0), make_sample(workload_id="w2", window_s=10.0)])
    assert exc.value.field == "window_start"


def test_step_ema_smoothing(topo):
    engine = _engine(topo, config=EngineConfig(ema_factor=0.5))
    first = engine.step([make_sample(cpu_user_time_s=0.0, kpi_value=5.0)])
    second = engine.step([make_sample(cpu_user_time_s=2.0, kpi_value=5.0)])
    s1 = first.workload_reports[0].resource_scores.cpu
    s2 = second.workload_reports[0].resource_scores.cpu
    assert s1 == 0.0
    assert s2 == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, rel=1e-12)


def test_step_kpi_carry_forward(topo):
    engine = _engine(topo)
    engine.step([make_sample(kpi_value=5.0)])
    report = engine.step([make_sample(kpi_value=None)])
    assert report.workload_reports[0].perf_score == 0.5


def test_step_no_kpi_ever_means_full_slack(topo):
    engine = _engine(topo)
    report = engine.step([make_sample(kpi_value=None)])
    assert report.workload_reports[0].perf_score == 1.0


def test_step_expires_departed_workloads(topo):
    engine = _engine(topo)
    engine.step([make_sample(), make_sample(workload_id="w2")])
    assert engine.tracked_workloads == ["w1", "w2"]
    for i in range(3):
        engine.step([make_sample(window_index=1 + i)])
        assert "w2" in engine.tracked_workloads  # 3 misses tolerated
    engine.step([make_sample(window_index=4)])
    assert engine.tracked_workloads == ["w1"]


def test_step_return_resets_missed_windows(topo):
    engine = _engine(topo)
    present = {0, 4}  # w2 misses 1-3, returns at 4, then misses from 5 on
    for i in range(9):
        ids = ("w1", "w2") if i in present else ("w1",)
        engine.step([make_sample(workload_id=w, window_index=i) for w in ids])
        assert ("w2" in engine.tracked_workloads) == (i < 8), i  # dropped at the 4th miss after returning


def test_step_reports_unchanged_by_later_steps(topo):
    engine = _engine(topo, config=EngineConfig(ema_factor=0.5))
    first = engine.step([make_sample(kpi_value=5.0), make_sample(workload_id="w2")])
    before = copy.deepcopy(first)
    for i in range(1, 4):
        engine.step([
            make_sample(window_index=i, cpu_user_time_s=0.1 * i, kpi_value=None),
            make_sample(workload_id="w2", window_index=i, cpu_user_time_s=1.5),
        ])
    assert first == before


def test_step_report_order_follows_batch(topo):
    engine = _engine(topo)
    batch = [make_sample(workload_id=w) for w in ("w3", "w1", "w2")]
    report = engine.step(batch)
    assert [r.workload_id for r in report.workload_reports] == ["w3", "w1", "w2"]


def test_node_report_convexity(topo):
    engine = _engine(topo)
    batch = [
        make_sample(kpi_value=5.0),
        make_sample(workload_id="w2", cpu_user_time_s=1.9),
        make_sample(workload_id="w3", cpu_user_time_s=0.1),
    ]
    report = engine.step(batch)
    bs = [r.buoyancy for r in report.workload_reports]
    assert min(bs) <= report.node_buoyancy <= math.fsum(bs) / len(bs)


def _workload_states(engine):
    """Every tracked workload's missed windows, smoothed scores and carried KPI, in state order."""
    return repr([(wid, s.missed_windows, s.scores, s.last_kpi) for wid, s in engine._state.items()])


def test_step_rejected_batch_leaves_state_unchanged(topo):
    engine = _engine(topo, config=EngineConfig(ema_factor=0.5))
    engine.step([make_sample(kpi_value=5.0), make_sample(workload_id="w2", kpi_value=7.0),
                 make_sample(workload_id="w3")])
    engine.step([make_sample(window_index=1, cpu_user_time_s=1.0), make_sample(workload_id="w2", window_index=1)])
    tracked, states = engine.tracked_workloads, _workload_states(engine)
    # Each bad sample comes last, after samples a scoring pass would already have folded in,
    # and w3 is absent, so an ageing pass before the check would count a miss.
    rejected = {
        "duplicate": [make_sample(window_index=2, cpu_user_time_s=1.9, kpi_value=9.0),
                      make_sample(workload_id="w2", window_index=2, kpi_value=1.0),
                      make_sample(window_index=2)],
        "one window": [make_sample(window_index=2, cpu_user_time_s=1.9, kpi_value=9.0),
                       make_sample(workload_id="w2", window_index=3)],
        "empty telemetry batch": [],
    }
    for message, batch in rejected.items():
        with pytest.raises((SchemaError, ValueError), match=message):
            engine.step(batch)
        assert engine.tracked_workloads == tracked == ["w1", "w2", "w3"]
        assert _workload_states(engine) == states


_WORKLOAD_IDS = [f"w{i}" for i in range(6)]

#: One sample's counters: CPU time and cores, memory references and the three
#: miss fractions, traffic, the MBW and LLC allocations, and the KPI.
_COUNTERS = st.tuples(
    st.floats(0.0, 4.0),
    st.floats(0.25, 4.0),
    st.integers(0, 10**7),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(0, 10**11),
    st.none() | st.sampled_from([1e9, 4e10]),
    st.none() | st.sampled_from([1024.0, 2048.0, 12288.0]),
    st.none() | st.floats(0.0, 30.0),
)

#: One step: the workloads present (churn), the window length, and how the batch is spoiled, if at all.
_BATCH = st.tuples(
    st.lists(st.tuples(st.sampled_from(_WORKLOAD_IDS), _COUNTERS), max_size=5, unique_by=lambda t: t[0]),
    st.sampled_from([1.0, 2.0, 0.3]),
    st.sampled_from(["ok", "ok", "ok", "ok", "duplicate", "mixed windows"]),
)


def _drawn_batch(index, drawn):
    present, window_s, spoil = drawn
    batch = []
    for wid, (cpu, cores, refs, (f1, f2, f3), traffic, mbw_alloc, llc, kpi) in present:
        batch.append(make_sample(
            workload_id=wid, window_index=index, window_s=window_s, cpu_user_time_s=cpu, cpu_alloc_cores=cores,
            mem_refs=refs, l1_miss=round(refs * f1), l2_miss=round(refs * f2), l3_miss=round(refs * f3),
            mbw_bytes=traffic, mbw_alloc_bytes_per_s=mbw_alloc, llc_alloc_kib=llc, kpi_value=kpi,
        ))
    if batch and spoil == "duplicate":
        batch.append(batch[0])
    elif batch and spoil == "mixed windows":
        batch.append(make_sample(workload_id="late", window_index=index + 1, window_s=window_s))
    return batch


def _outcome(step, batch):
    try:
        return step(batch)
    except (SchemaError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(_BATCH, min_size=1, max_size=8),
    alpha=st.floats(0.0, 1.0),
    ema_factor=st.sampled_from([1.0, 0.5, 0.3]),
    expiry_windows=st.sampled_from([0, 1, 3]),
    with_slo=st.sets(st.sampled_from(_WORKLOAD_IDS)),
    node_cores=st.floats(1.0, 16.0),
)
def test_step_matches_three_pass_reference(batches, alpha, ema_factor, expiry_windows, with_slo, node_cores):
    slos = {wid: SloSpec("p95_latency_ms", 10.0) for wid in with_slo}
    slos["w5"] = SloSpec("p95_latency_ms", None)  # an SLO entry without a value
    config = EngineConfig(alpha=alpha, ema_factor=ema_factor, expiry_windows=expiry_windows)
    engine, reference = (Engine(TABLE_TOPO, node_cores, slos, config) for _ in range(2))
    for index, drawn in enumerate(batches):
        batch = _drawn_batch(index, drawn)
        got = _outcome(engine.step, batch)
        want = _outcome(lambda b: engine_step_reference(reference, b), batch)
        assert got == want
        assert repr(got) == repr(want)  # bit for bit, signed zeros too
        assert _workload_states(engine) == _workload_states(reference)
        if isinstance(got, engine_module.NodeReport):  # the public aggregation agrees with the step's
            scored = [(s, r.resource_scores) for s, r in zip(batch, got.workload_reports)]
            node = _node_of(batch, [r.llc for _, r in scored], TABLE_TOPO, node_cores)
            assert repr(node) == repr(node_resource_scores_reference(scored, TABLE_TOPO, node_cores))
            assert repr(node) == repr(got.node_resource_scores)


def test_engine_rejects_non_positive_node_cores(topo):
    with pytest.raises(ValueError, match="node_cores must be > 0"):
        Engine(topology=topo, node_cores=0)


@pytest.mark.parametrize("node_cores", [5e-324, math.nan])
def test_engine_rejects_node_cores_the_cpu_score_cannot_divide_by(topo, node_cores):
    with pytest.raises(ValueError, match=r"^node_cores must be > 0 and at least 2\.2250738585072014e-308, got "):
        Engine(topology=topo, node_cores=node_cores)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(alpha=1.5)
    with pytest.raises(ValueError):
        EngineConfig(ema_factor=0.0)
    with pytest.raises(ValueError):
        EngineConfig(expiry_windows=-1)
