import pytest
from hypothesis import given
from hypothesis import strategies as st

from buoyancy import (
    CacheTopology,
    NonIncreasingCacheSizes,
    NonPositiveGeometry,
    SchemaError,
    llc_way_size,
    theoretical_max_mbw,
    validate_topology,
)

from .conftest import make_sample


def test_validate_reference_topology(topo):
    assert validate_topology(topo) is topo


def test_validate_is_idempotent(topo):
    assert validate_topology(validate_topology(topo)) is topo


def test_swapped_l1_l2_rejected(topo):
    bad = CacheTopology(1280, 80, 12288, 12, 2666, 8, 4)
    with pytest.raises(NonIncreasingCacheSizes):
        validate_topology(bad)


def test_equal_sizes_rejected():
    bad = CacheTopology(80, 80, 12288, 12, 2666, 8, 4)
    with pytest.raises(NonIncreasingCacheSizes):
        validate_topology(bad)


@pytest.mark.parametrize(
    "field",
    ["l1_size_kib", "l3_ways", "mem_speed_mts", "mem_bus_width_bytes", "mem_channels"],
)
def test_zero_geometry_rejected(topo, field):
    bad = CacheTopology(**{**_as_kwargs(topo), field: 0})
    with pytest.raises(NonPositiveGeometry):
        validate_topology(bad)


def _as_kwargs(t):
    return {
        "l1_size_kib": t.l1_size_kib,
        "l2_size_kib": t.l2_size_kib,
        "l3_size_kib": t.l3_size_kib,
        "l3_ways": t.l3_ways,
        "mem_speed_mts": t.mem_speed_mts,
        "mem_bus_width_bytes": t.mem_bus_width_bytes,
        "mem_channels": t.mem_channels,
    }


@pytest.mark.parametrize(
    "speed,width,channels,expected",
    [
        (2666, 8, 4, 85_312_000_000),
        (1000, 1, 1, 1_000_000_000),
        (3200, 8, 2, 51_200_000_000),
    ],
)
def test_theoretical_max_mbw(speed, width, channels, expected):
    t = CacheTopology(80, 1280, 12288, 12, speed, width, channels)
    assert theoretical_max_mbw(t) == expected


@pytest.mark.parametrize(
    "l3,ways,expected",
    [(12288, 12, 1024), (1024, 1, 1024), (8192, 16, 512)],
)
def test_llc_way_size(l3, ways, expected):
    t = CacheTopology(8, 16, l3, ways, 2666, 8, 4)
    assert llc_way_size(t) == expected


@given(
    speed=st.floats(1, 1e5),
    width=st.floats(1, 64),
    channels=st.integers(1, 16),
    double=st.sampled_from(["speed", "width", "channels"]),
)
def test_peak_bandwidth_is_multiplicative(speed, width, channels, double):
    base = theoretical_max_mbw(CacheTopology(80, 1280, 12288, 12, speed, width, channels))
    kwargs = {"speed": speed, "width": width, "channels": channels}
    kwargs[double] = kwargs[double] * 2
    doubled = theoretical_max_mbw(
        CacheTopology(80, 1280, 12288, 12, kwargs["speed"], kwargs["width"], kwargs["channels"])
    )
    assert doubled == pytest.approx(2 * base, rel=1e-12)


@given(
    l1=st.floats(1, 512),
    l2_factor=st.floats(1.01, 64),
    l3_factor=st.floats(1.01, 64),
    ways=st.integers(1, 32),
)
def test_valid_topology_gives_positive_derived_values(l1, l2_factor, l3_factor, ways):
    t = validate_topology(
        CacheTopology(l1, l1 * l2_factor, l1 * l2_factor * l3_factor, ways, 2666, 8, 4)
    )
    assert theoretical_max_mbw(t) > 0
    assert llc_way_size(t) > 0


def test_sample_window_must_be_positive():
    with pytest.raises(SchemaError):
        make_sample(window_s=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("l1_miss", -1), ("cpu_alloc_cores", 0.0), ("mbw_alloc_bytes_per_s", -5)],
)
def test_sample_bad_value_names_field(field, value):
    with pytest.raises(SchemaError) as exc:
        make_sample(**{field: value})
    assert exc.value.field == field


def test_sample_negative_kpi_rejected():
    with pytest.raises(SchemaError):
        make_sample(kpi_value=-0.5)


def test_sample_window_length():
    assert make_sample(window_s=2.5).window_s == 2.5
