import math
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buoyancy import MrcFit, ResourceScores, fit_mrc, score_workload

from .conftest import TABLE_TOPO, make_sample
from .oracles import (
    NoMemoryTraffic,
    cpu_score,
    fit_power_law,
    llc_score,
    mbw_score,
    miss_ratios,
    mrc_value,
    ols_loglog,
)

TABLE_SIZES = (80.0, 1280.0, 12288.0)

#: Every effective LLC size the benchmark's replays produce (no allocation,
#: or 1 to 12 whole ways) plus one allocation that is no whole number of ways.
LLC_ALLOCATIONS = [None] + [ways * 1024.0 for ways in range(1, 13)] + [3000.5]


# ---------------------------------------------------------------- cpu score

def test_cpu_score_ratio():
    assert cpu_score(make_sample(cpu_user_time_s=0.5, cpu_alloc_cores=2.0)) == 0.25


def test_cpu_score_idle():
    assert cpu_score(make_sample(cpu_user_time_s=0.0)) == 0.0


def test_cpu_score_clamps_jitter():
    # accounting jitter can report more CPU time than allocated
    assert cpu_score(make_sample(cpu_user_time_s=2.2, cpu_alloc_cores=2.0)) == 1.0


@given(
    scale_ms=st.integers(10, 100_000),
    user=st.floats(0, 10),
    cores=st.floats(0.1, 32),
)
def test_cpu_score_unit_invariance(scale_ms, user, cores):
    scale = scale_ms / 1000.0
    one = cpu_score(make_sample(window_s=1.0, cpu_user_time_s=user, cpu_alloc_cores=cores))
    scaled = cpu_score(
        make_sample(window_s=scale, cpu_user_time_s=user * scale, cpu_alloc_cores=cores)
    )
    assert scaled == pytest.approx(one, rel=1e-9)


# -------------------------------------------------------------- miss ratios

def test_miss_ratios_division():
    sample = make_sample(mem_refs=10**6, l1_miss=111_800, l2_miss=27_950, l3_miss=9_021)
    assert miss_ratios(sample) == (0.1118, 0.02795, 0.009021)


def test_miss_ratios_perfect_caching():
    sample = make_sample(mem_refs=100, l1_miss=0, l2_miss=0, l3_miss=0)
    assert miss_ratios(sample) == (0.0, 0.0, 0.0)


def test_miss_ratios_no_traffic():
    sample = make_sample(mem_refs=0, l1_miss=0, l2_miss=0, l3_miss=0)
    with pytest.raises(NoMemoryTraffic):
        miss_ratios(sample)


# ------------------------------------------------------------------ MRC fit

def test_fit_recovers_exact_power_law(topo):
    ratios = tuple(x**-0.5 for x in TABLE_SIZES)
    fit = fit_mrc(topo, ratios)
    assert not fit.degenerate
    assert fit.coeff_a == pytest.approx(1.0, rel=1e-9)
    assert fit.exponent_b == pytest.approx(-0.5, rel=1e-9)


def test_fit_on_rounded_published_points(topo):
    fit = fit_mrc(topo, (0.1118034, 0.0279508, 0.0090211))
    assert fit.coeff_a == pytest.approx(1.0, abs=1e-6)
    assert fit.exponent_b == pytest.approx(-0.5, abs=1e-6)


def test_flat_curve_is_degenerate(topo):
    # The mean of three equal logs can miss the log in the last bit, so a
    # flat curve can fit a tiny negative slope, as (0.95, 0.95, 0.95) does.
    for ratios in ((0.1,) * 3, (0.95,) * 3, (1e-6,) * 3, (1.0,) * 3):
        for llc_alloc_kib in (None, 2048.0, 3000.5):
            s_eff = llc_alloc_kib if llc_alloc_kib is not None else topo.l3_size_kib
            for fit in (fit_mrc(topo, ratios, llc_alloc_kib), fit_power_law((80.0, 1280.0, s_eff), ratios)):
                assert fit.degenerate
                assert fit.exponent_b == 0.0


def test_zero_ratio_is_degenerate(topo):
    fit = fit_mrc(topo, (0.1, 0.0, 0.0))
    assert fit.degenerate
    assert fit.coeff_a == 1.0 and fit.exponent_b == 0.0


def test_increasing_ratios_are_degenerate(topo):
    fit = fit_mrc(topo, (0.01, 0.05, 0.2))
    assert fit.degenerate
    assert fit.exponent_b == 0.0
    assert fit.coeff_a > 0


def test_fit_matches_independent_ols(topo):
    ratios = (0.2, 0.05, 0.02)
    fit = fit_mrc(topo, ratios)
    a_ref, b_ref = ols_loglog(TABLE_SIZES, ratios)
    assert fit.coeff_a == pytest.approx(a_ref, rel=1e-12)
    assert fit.exponent_b == pytest.approx(b_ref, rel=1e-12)


def test_fit_uses_llc_allocation_point(topo):
    ratios = tuple(x**-0.5 for x in (80.0, 1280.0, 2048.0))
    fit = fit_mrc(topo, ratios, llc_alloc_kib=2048.0)
    assert fit.exponent_b == pytest.approx(-0.5, rel=1e-9)


def test_fit_two_points():
    fit = fit_power_law((64.0, 1024.0), (0.5, 0.125))
    assert fit.exponent_b == pytest.approx(math.log(0.25) / math.log(16), rel=1e-12)


def test_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_power_law((64.0,), (0.5,))
    with pytest.raises(ValueError):
        fit_power_law((64.0, 128.0), (0.5,))


def test_identical_sizes_degenerate():
    fit = fit_power_law((64.0, 64.0), (0.5, 0.25))
    assert fit.degenerate


@given(
    a=st.floats(0.01, 10.0),
    b=st.floats(-2.0, -0.05),
)
def test_fit_recovery_property(a, b):
    ratios = tuple(a * x**b for x in TABLE_SIZES)
    fit = fit_mrc(TABLE_TOPO, ratios)
    assert fit.coeff_a == pytest.approx(a, rel=1e-9)
    assert fit.exponent_b == pytest.approx(b, rel=1e-9)


# fit_mrc and score_workload run the arithmetic of the plain references
# in tests/oracles.py step for step, caching only the x side, so the
# reference results must come back equal, not merely close.

@settings(max_examples=300)
@given(
    ratios=st.tuples(*[st.floats(1e-6, 1.0, exclude_min=True)] * 3),
    llc_alloc_kib=st.sampled_from(LLC_ALLOCATIONS),
)
@example(ratios=(0.1, 0.1, 0.1), llc_alloc_kib=None)
@example(ratios=(0.1, 0.1, 0.1), llc_alloc_kib=3000.5)
@example(ratios=(0.95, 0.95, 0.95), llc_alloc_kib=None)
@example(ratios=(0.95, 0.95, 0.95), llc_alloc_kib=2048.0)
@example(ratios=(1.0, 1.0, 1.0), llc_alloc_kib=None)
def test_fit_mrc_matches_fit_power_law(ratios, llc_alloc_kib):
    s_eff = llc_alloc_kib if llc_alloc_kib is not None else TABLE_TOPO.l3_size_kib
    assert fit_mrc(TABLE_TOPO, ratios, llc_alloc_kib) == fit_power_law((80.0, 1280.0, s_eff), ratios)


def _bits(scores):
    return [value.hex() for value in (scores.cpu, scores.llc, scores.mbw)]


@settings(max_examples=300)
@given(
    misses=st.tuples(*[st.integers(0, 10**9)] * 3),
    mem_refs=st.one_of(st.just(0), st.integers(1, 10**9)),
    llc_alloc_kib=st.sampled_from(LLC_ALLOCATIONS),
    window_s=st.floats(0.001, 100.0),
    cpu_user_time_s=st.floats(0.0, 1e3),
    cpu_alloc_cores=st.floats(0.1, 64.0),
    mbw_bytes=st.integers(0, 10**13),
    mbw_alloc_bytes_per_s=st.none() | st.integers(1, 10**12),
    pass_window=st.booleans(),
)
@example(
    misses=(10**8, 10**8, 10**8), mem_refs=10**9, llc_alloc_kib=None, window_s=1.0,
    cpu_user_time_s=0.5, cpu_alloc_cores=2.0, mbw_bytes=0, mbw_alloc_bytes_per_s=None, pass_window=False,
)
@example(
    misses=(10**8, 10**7, 0), mem_refs=10**9, llc_alloc_kib=2048.0, window_s=1.0,
    cpu_user_time_s=0.5, cpu_alloc_cores=2.0, mbw_bytes=0, mbw_alloc_bytes_per_s=None, pass_window=True,
)
@example(
    misses=(10**8, 10**7, 10**6), mem_refs=0, llc_alloc_kib=None, window_s=2.0,
    cpu_user_time_s=5.0, cpu_alloc_cores=3.0, mbw_bytes=10**12, mbw_alloc_bytes_per_s=10**9, pass_window=True,
)
def test_score_workload_matches_reference(
    misses, mem_refs, llc_alloc_kib, window_s, cpu_user_time_s, cpu_alloc_cores, mbw_bytes, mbw_alloc_bytes_per_s,
    pass_window,
):
    sample = make_sample(
        window_s=window_s,
        cpu_user_time_s=cpu_user_time_s,
        cpu_alloc_cores=cpu_alloc_cores,
        mem_refs=mem_refs,
        l1_miss=misses[0],
        l2_miss=misses[1],
        l3_miss=misses[2],
        mbw_bytes=mbw_bytes,
        mbw_alloc_bytes_per_s=mbw_alloc_bytes_per_s,
        llc_alloc_kib=llc_alloc_kib,
    )
    llc = 0.0
    if mem_refs > 0:
        ratios = miss_ratios(sample)
        s_eff = llc_alloc_kib if llc_alloc_kib is not None else TABLE_TOPO.l3_size_kib
        llc = llc_score(fit_power_law((80.0, 1280.0, s_eff), ratios), TABLE_TOPO, s_eff, ratios[2])
    expected = ResourceScores(cpu=cpu_score(sample), llc=llc, mbw=mbw_score(sample, TABLE_TOPO))
    scores = score_workload(sample, TABLE_TOPO, sample.window_s if pass_window else None)
    assert _bits(scores) == _bits(expected)


# ---------------------------------------------------------------- llc score

def test_llc_score_analytic_derivative(topo):
    fit = MrcFit(coeff_a=1.0, exponent_b=-0.5)
    m = mrc_value(fit, 12288.0)
    assert llc_score(fit, topo, 12288.0, m) == pytest.approx(0.5 * 1024 / 12288, rel=1e-12)


def test_llc_score_clamps_steep_curves(topo):
    fit = MrcFit(coeff_a=2.0, exponent_b=-1.5)
    s = 1024.0
    assert llc_score(fit, topo, s, mrc_value(fit, s)) == 1.0


def test_llc_score_degenerate_fit(topo):
    fit = MrcFit(coeff_a=1.0, exponent_b=0.0, degenerate=True)
    assert llc_score(fit, topo, 12288.0, 0.01) == 0.0


def test_llc_score_zero_measured_ratio(topo):
    fit = MrcFit(coeff_a=1.0, exponent_b=-0.5)
    assert llc_score(fit, topo, 12288.0, 0.0) == 0.0


@given(b=st.floats(-1.99, -0.01), s=st.floats(128, 12288))
def test_llc_score_matches_closed_form(b, s):
    # for exact power-law inputs the score collapses to -b * way / s
    fit = MrcFit(coeff_a=0.7, exponent_b=b)
    expected = min(-b * 1024.0 / s, 1.0)
    assert llc_score(fit, TABLE_TOPO, s, mrc_value(fit, s)) == pytest.approx(expected, rel=1e-9)


@given(
    b=st.floats(-0.99, -0.01),
    m=st.floats(0.001, 1.0),
    s1=st.floats(128, 12288),
    s2=st.floats(128, 12288),
)
def test_llc_score_non_increasing_in_allocation(b, m, s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    fit = MrcFit(coeff_a=0.5, exponent_b=b)
    assert llc_score(fit, TABLE_TOPO, lo, m) >= llc_score(fit, TABLE_TOPO, hi, m) - 1e-12


# ---------------------------------------------------------------- mbw score

def test_mbw_score_against_theoretical_peak(topo):
    sample = make_sample(mbw_bytes=21_328_000_000)
    assert mbw_score(sample, topo) == pytest.approx(0.25, rel=1e-12)


def test_mbw_score_idle(topo):
    assert mbw_score(make_sample(mbw_bytes=0), topo) == 0.0


def test_mbw_score_clamps(topo):
    sample = make_sample(mbw_bytes=20_000_000_000, mbw_alloc_bytes_per_s=10_000_000_000)
    assert mbw_score(sample, topo) == 1.0


@given(bw=st.integers(1, 10_000_000_000))
def test_mbw_score_doubles_until_clamp(bw):
    one = mbw_score(make_sample(mbw_bytes=bw), TABLE_TOPO)
    two = mbw_score(make_sample(mbw_bytes=2 * bw), TABLE_TOPO)
    if two < 1.0:
        assert two == pytest.approx(2 * one, rel=1e-12)
    else:
        assert two == 1.0


# ------------------------------------------------------------ composition

def test_score_workload_composed(topo):
    sample = make_sample(
        cpu_user_time_s=0.5,
        cpu_alloc_cores=2.0,
        mem_refs=10**6,
        l1_miss=111_800,
        l2_miss=27_950,
        l3_miss=9_021,
        mbw_bytes=21_328_000_000,
    )
    scores = score_workload(sample, topo)
    assert scores.cpu == 0.25
    assert scores.mbw == pytest.approx(0.25, rel=1e-12)
    a_ref, b_ref = ols_loglog(TABLE_SIZES, (0.1118, 0.02795, 0.009021))
    expected_llc = min(-a_ref * b_ref * 12288.0 ** (b_ref - 1) * 1024.0 / 0.009021, 1.0)
    assert scores.llc == pytest.approx(expected_llc, rel=1e-9)
    assert scores.llc == pytest.approx(0.0417, abs=2e-4)


def test_score_workload_idle(topo):
    sample = make_sample(
        cpu_user_time_s=0.0, mem_refs=0, l1_miss=0, l2_miss=0, l3_miss=0, mbw_bytes=0
    )
    scores = score_workload(sample, topo)
    assert (scores.cpu, scores.llc, scores.mbw) == (0.0, 0.0, 0.0)


def test_score_workload_saturated(topo):
    # steep planted curve ((80/x)^1.5) under a small LLC allocation
    sample = make_sample(
        cpu_user_time_s=2.0,
        cpu_alloc_cores=2.0,
        mem_refs=10**6,
        l1_miss=10**6,
        l2_miss=15_625,
        l3_miss=17_213,
        llc_alloc_kib=1200.0,
        mbw_bytes=10_000_000_000,
        mbw_alloc_bytes_per_s=10_000_000_000,
    )
    scores = score_workload(sample, topo)
    assert (scores.cpu, scores.llc, scores.mbw) == (1.0, 1.0, 1.0)


def test_score_workload_no_refs_keeps_other_scores(topo):
    sample = make_sample(mem_refs=0, l1_miss=0, l2_miss=0, l3_miss=0)
    scores = score_workload(sample, topo)
    assert scores.llc == 0.0
    assert scores.cpu == 0.25
    assert scores.mbw > 0


@settings(max_examples=300)
@given(
    window=st.floats(0.1, 10),
    cores=st.floats(0.1, 64),
    user_frac=st.floats(0, 1.5),
    refs=st.integers(0, 10**7),
    data=st.data(),
)
def test_scores_always_in_unit_range(window, cores, user_frac, refs, data):
    sample = make_sample(
        window_s=window,
        cpu_alloc_cores=cores,
        cpu_user_time_s=user_frac * cores * window,
        mem_refs=refs,
        l1_miss=data.draw(st.integers(0, max(refs, 1))),
        l2_miss=data.draw(st.integers(0, max(refs, 1))),
        l3_miss=data.draw(st.integers(0, max(refs, 1))),
        mbw_bytes=data.draw(st.integers(0, 10**12)),
        llc_alloc_kib=data.draw(st.one_of(st.none(), st.floats(64, 12288))),
    )
    scores = score_workload(sample, TABLE_TOPO)
    for value in astuple(scores):
        assert 0.0 <= value <= 1.0
