import dataclasses
import math
import pickle
import sys
from datetime import datetime, timedelta
from typing import ClassVar
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buoyancy import (
    Allocation,
    BuoyancyReport,
    CacheTopology,
    Engine,
    MrcFit,
    NodeReport,
    ResourceScores,
    SchemaError,
    TelemetrySample,
    llc_way_size,
    theoretical_max_mbw,
)
from buoyancy.controller import ControlRecord
from buoyancy.model import SAMPLE_TYPES, value_type
from buoyancy.sources import parse_telemetry_record

from .conftest import EPOCH, make_sample, record_dict


def test_swapped_l1_l2_rejected(topo):
    with pytest.raises(ValueError, match=r"^cache sizes must be strictly increasing, got 1280 / 80 / 12288 KiB$"):
        CacheTopology(1280, 80, 12288, 12, 2666, 8, 4)


def test_equal_sizes_rejected():
    with pytest.raises(ValueError, match=r"^cache sizes must be strictly increasing, got 80 / 80 / 12288 KiB$"):
        CacheTopology(80, 80, 12288, 12, 2666, 8, 4)


@pytest.mark.parametrize(
    "field",
    ["l1_size_kib", "l2_size_kib", "l3_size_kib", "l3_ways", "mem_speed_mts", "mem_bus_width_bytes", "mem_channels"],
)
def test_zero_geometry_rejected(topo, field):
    with pytest.raises(ValueError, match=rf"^{field} must be > 0, got 0$"):
        CacheTopology(**{**_as_kwargs(topo), field: 0})


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
    t = CacheTopology(l1, l1 * l2_factor, l1 * l2_factor * l3_factor, ways, 2666, 8, 4)
    assert theoretical_max_mbw(t) > 0
    assert llc_way_size(t) > 0


def test_sample_window_must_be_positive():
    with pytest.raises(SchemaError):
        make_sample(window_s=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("l1_miss", -1), ("cpu_alloc_cores", 0.0), ("cpu_alloc_cores", 5e-324), ("mbw_alloc_bytes_per_s", -5),
     ("workload_id", "w\ud800"), ("workload_id", "\udfff")],
)
def test_sample_bad_value_names_field(field, value):
    with pytest.raises(SchemaError) as exc:
        make_sample(**{field: value})
    assert exc.value.field == field


def test_least_cores_keep_the_cpu_scores_finite(topo):
    least = sys.float_info.min
    report = Engine(topology=topo, node_cores=least).step([make_sample(cpu_alloc_cores=least, window_s=1e-6)])
    assert report.workload_reports[0].resource_scores.cpu == report.node_resource_scores.cpu == 1.0
    with pytest.raises(SchemaError, match=rf"^field 'cpu_alloc_cores': must be > 0 and at least {least}$"):
        make_sample(cpu_alloc_cores=least / 2)


def test_sample_workload_id_may_be_any_utf8_text():
    for workload_id in ("ns/pod a", "caf\u00e9", "\u6f22\u5b57", "pod-\U0001f600", "\ud7ff\ue000"):
        assert make_sample(workload_id=workload_id).workload_id == workload_id


def test_sample_negative_kpi_rejected():
    with pytest.raises(SchemaError):
        make_sample(kpi_value=-0.5)


_NUMBERS = [
    "cpu_user_time_s", "cpu_alloc_cores", "mem_refs", "l1_miss", "l2_miss", "l3_miss", "mbw_bytes",
    "mbw_alloc_bytes_per_s", "llc_alloc_kib", "kpi_value",
]


#: The least integer that ``float()`` cannot convert: it would round to 2**1024.
_FLOAT_OVERFLOW = 2**1024 - 2**970

#: The fields that take only an int: their infinity is the least integer a float cannot hold.
_INTEGERS = {name for name, (types, _) in SAMPLE_TYPES.items() if types is int}


@pytest.mark.parametrize("field", _NUMBERS)
def test_sample_infinite_value_names_field(field):
    with pytest.raises(SchemaError) as exc:
        make_sample(**{field: _FLOAT_OVERFLOW if field in _INTEGERS else math.inf})
    assert (exc.value.field, str(exc.value)) == (field, f"field {field!r}: must be finite")


@pytest.mark.parametrize("field", _NUMBERS)
def test_sample_integer_too_large_for_a_float_is_not_finite(field):
    with pytest.raises(OverflowError):
        float(_FLOAT_OVERFLOW)
    with pytest.raises(SchemaError) as exc:
        make_sample(**{field: _FLOAT_OVERFLOW})
    assert (exc.value.field, str(exc.value)) == (field, f"field {field!r}: must be finite")
    with pytest.raises(SchemaError, match="must be finite"):
        make_sample(**{field: 10**400})


@pytest.mark.parametrize("field", _NUMBERS)
def test_sample_largest_integer_a_float_holds_is_accepted(field):
    largest = _FLOAT_OVERFLOW - 1
    assert math.isfinite(largest)  # the replay parser's rule
    assert getattr(make_sample(**{field: largest}), field) == largest


@pytest.mark.parametrize("field", _NUMBERS)
def test_sample_nan_or_negative_infinity_breaks_the_sign_rule(field):
    for value in (-_FLOAT_OVERFLOW,) if field in _INTEGERS else (math.nan, -math.inf):
        with pytest.raises(SchemaError) as exc:
            make_sample(**{field: value})
        assert exc.value.field == field
        assert str(exc.value).startswith(f"field {field!r}: must be >")


def test_sample_sign_rules_come_before_finiteness():
    with pytest.raises(SchemaError) as exc:
        make_sample(cpu_alloc_cores=math.inf, kpi_value=-1.0)
    assert exc.value.field == "kpi_value"


def test_sample_window_length():
    assert make_sample(window_s=2.5).window_s == 2.5


# ------------------------------------------------------------ the sample's type rules

_START, _END = EPOCH, EPOCH + timedelta(seconds=1)


@pytest.mark.parametrize(
    "changes,field,message",
    [
        ({"mem_refs": True}, "mem_refs", "expected <class 'int'>, got bool"),
        ({"mem_refs": 1.5}, "mem_refs", "expected <class 'int'>, got float"),
        ({"mem_refs": "5"}, "mem_refs", "expected <class 'int'>, got str"),
        ({"workload_id": 7}, "workload_id", "expected <class 'str'>, got int"),
        ({"cpu_alloc_cores": None}, "cpu_alloc_cores", "must not be null"),
        ({"window_start": "2026-01-01T00:00:00Z"}, "window_start", "expected <class 'datetime.datetime'>, got str"),
        ({"window_end": "2026-01-01T00:00:01Z"}, "window_end", "expected <class 'datetime.datetime'>, got str"),
        ({"window_start": _START.date()}, "window_start", "expected <class 'datetime.datetime'>, got date"),
    ],
    ids=["bool-int", "float-int", "str-int", "int-id", "null-cores", "str-start", "str-end", "date-start"],
)
def test_sample_built_directly_checks_types_as_the_replay_does(changes, field, message):
    with pytest.raises(SchemaError) as exc:
        dataclasses.replace(make_sample(), **changes)
    assert (exc.value.field, exc.value.message) == (field, message)
    if not field.startswith("window_"):  # the replay reads a bound from a string, so only the bounds differ
        with pytest.raises(SchemaError) as replayed:
            parse_telemetry_record({**record_dict(), **changes})
        assert (replayed.value.field, replayed.value.message) == (field, message)


def test_sample_workload_id_is_at_most_253_characters():
    assert len(make_sample(workload_id="w" * 253).workload_id) == 253
    with pytest.raises(SchemaError) as exc:
        make_sample(workload_id="w" * 254)
    assert (exc.value.field, exc.value.message) == ("workload_id", "must be at most 253 characters")


#: Each field's exact types and whether it may be None, restated from the annotations.
_TYPES = {
    "workload_id": ((str,), False), "window_start": ((datetime,), False), "window_end": ((datetime,), False),
    "cpu_user_time_s": ((int, float), False), "cpu_alloc_cores": ((int, float), False),
    "mem_refs": ((int,), False), "l1_miss": ((int,), False), "l2_miss": ((int,), False),
    "l3_miss": ((int,), False), "mbw_bytes": ((int,), False), "mbw_alloc_bytes_per_s": ((int,), True),
    "llc_alloc_kib": ((int, float), True), "kpi_value": ((int, float), True),
}
#: The sign rules, in the order they are named after the id and window rules: (field, test, message).
_SIGN_RULES = [
    ("cpu_alloc_cores", lambda v: v >= sys.float_info.min, f"must be > 0 and at least {sys.float_info.min}"),
    *[(name, lambda v: v >= 0, "must be >= 0")
      for name in ("cpu_user_time_s", "mem_refs", "l1_miss", "l2_miss", "l3_miss", "mbw_bytes")],
    ("mbw_alloc_bytes_per_s", lambda v: v > 0, "must be > 0 when present"),
    ("llc_alloc_kib", lambda v: v > 0, "must be > 0 when present"),
    ("kpi_value", lambda v: v >= 0, "must be >= 0"),
]


def _first_broken_rule_reference(values):
    """The (field, message) of the first rule ``values`` break, or None: a restatement of the sample's rules."""
    for name, (types, nullable) in _TYPES.items():
        value = values[name]
        if type(value) not in types and not (value is None and nullable):
            if value is None:
                return name, "must not be null"
            return name, f"expected {types[0] if len(types) == 1 else types}, got {type(value).__name__}"
    wid = values["workload_id"]
    if wid == "":
        return "workload_id", "must be non-empty"
    if len(wid) > 253:
        return "workload_id", "must be at most 253 characters"
    if any(0xD800 <= ord(c) <= 0xDFFF for c in wid):
        return "workload_id", "must be valid UTF-8, with no lone surrogate"
    start, end = values["window_start"], values["window_end"]
    if (start.tzinfo is None) != (end.tzinfo is None):
        return "window_end", "both window bounds must carry a UTC offset, or neither"
    if not end > start:
        return "window_end", "window must end after it starts"
    for name, holds, message in _SIGN_RULES:
        if values[name] is not None and not holds(values[name]):
            return name, message
    for name in list(_TYPES)[3:]:
        if values[name] is not None and not _finite(values[name]):
            return name, "must be finite"
    return None


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


_WRONG = [None, True, False, "5", 1.5, 7, [], _START.date(), _START]
_ID_VALUES = ["w", "", "w" * 253, "w" * 254, "w\ud800", "\udfff" + "w" * 300]
_BOUND_VALUES = [_START, _END, _START.replace(tzinfo=None), _END + timedelta(microseconds=1)]
_NUMBER_VALUES = [
    0, 1, -1, 0.0, -0.0, 0.5, -0.5, sys.float_info.min, sys.float_info.min / 2, 5e-324,
    math.inf, -math.inf, math.nan, 2**1024 - 2**970, 2**1024 - 2**970 - 1, -(2**1024),
]


@st.composite
def _broken_samples(draw):
    """A valid sample's values with up to three fields set to a value of each kind: a wrong type, None,
    a bool, a float for an int, out of range, or not finite."""
    values = dict(zip(_TYPES, dataclasses.astuple(make_sample(mbw_alloc_bytes_per_s=10**9, llc_alloc_kib=2048.0,
                                                                kpi_value=4.0))))
    for name in draw(st.lists(st.sampled_from(list(_TYPES)), max_size=3, unique=True)):
        if name == "workload_id":
            choices = _ID_VALUES + _WRONG
        elif name.startswith("window_"):
            choices = _BOUND_VALUES + _WRONG
        else:
            choices = _NUMBER_VALUES + _WRONG
        values[name] = draw(st.sampled_from(choices))
    return values


@settings(max_examples=300)
@given(values=_broken_samples())
def test_sample_fast_check_accepts_exactly_what_the_namer_finds_no_broken_rule_in(values):
    sample = object.__new__(TelemetrySample)  # every value set as drawn, without running the checks
    for name, value in values.items():
        object.__setattr__(sample, name, value)
    rejected = []
    with mock.patch.object(TelemetrySample, "_reject", lambda self: rejected.append(self)):
        sample.__post_init__()
    try:
        sample._reject()
        named = None
    except SchemaError as exc:
        named = exc.field, exc.message
    expected = _first_broken_rule_reference(values)
    assert named == expected
    assert bool(rejected) == (named is not None)


# ---------------------------------------------------------------- value types

_SCORES = ResourceScores(0.25, 0.5, 0.75)
_REPORT = BuoyancyReport("w1", 0.5, 0.3, _SCORES, False)

#: One instance of each value type, with no field left at its default, and
#: a valid change of one field for ``dataclasses.replace``.
VALUES = [
    (make_sample(mbw_alloc_bytes_per_s=10**9, llc_alloc_kib=2048.0, kpi_value=4.0), {"kpi_value": 5.0}),
    (_SCORES, {"llc": 0.0}),
    (_REPORT, {"approaching_violation": True}),
    (MrcFit(2.0, -0.5, True), {"degenerate": False}),
    # A tuple of reports, where the engine builds a list, so that this one hashes.
    (NodeReport(_SCORES, 0.2, (_REPORT,), EPOCH, EPOCH + timedelta(seconds=1)), {"node_buoyancy": -0.1}),
    (Allocation(2.0, 1024.0, 10.0), {"llc_kib": None}),
    (ControlRecord(3, 7, 2.0, 5.0, 0.3, 0.2, "latency"), {"mode": "buoyancy"}),
]


@pytest.mark.parametrize("value,changes", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_type_is_a_frozen_slots_dataclass(value, changes):
    cls = type(value)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(value, name) for name in names]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, names[0])
    assert not hasattr(value, "__dict__")
    assert cls.__match_args__ == tuple(names)

    positional = cls(*values)
    assert positional is not value
    assert positional == cls(**dict(zip(names, values))) == value
    assert hash(positional) == hash(value)
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert pickle.loads(pickle.dumps(value)) == value
    assert dataclasses.asdict(value).keys() == set(names)
    changed = dataclasses.replace(value, **changes)
    assert changed != value
    assert {name: getattr(changed, name) for name in changes} == changes


@pytest.mark.parametrize(
    "cls,required",
    [
        (TelemetrySample, [getattr(make_sample(), f.name) for f in dataclasses.fields(TelemetrySample)[:10]]),
        (MrcFit, (1.0, -0.5)),
        (Allocation, (2.0,)),
    ],
    ids=["TelemetrySample", "MrcFit", "Allocation"],
)
def test_value_type_defaults(cls, required):
    value = cls(*required)
    assert [getattr(value, f.name) for f in dataclasses.fields(cls)[len(required):]] == [
        f.default for f in dataclasses.fields(cls)[len(required):]
    ]


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: make_sample(cpu_alloc_cores=0.0), SchemaError),
        (lambda: dataclasses.replace(make_sample(), l3_miss=-1), SchemaError),
        (lambda: Allocation(0.0), ValueError),
        (lambda: Allocation(cores=1.0, llc_kib=-1.0), ValueError),
    ],
    ids=["sample", "sample-replace", "allocation", "allocation-llc"],
)
def test_value_type_post_init_still_rejects(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "annotation,default",
    [
        (list, dataclasses.field(default_factory=list)),
        (int, dataclasses.field(init=False, default=0)),
        (dataclasses.InitVar[int], 0),
        (int, dataclasses.field(kw_only=True, default=0)),
    ],
    ids=["default_factory", "init-false", "InitVar", "kw_only"],
)
def test_value_type_rejects_unsupported_fields_at_definition(annotation, default):
    namespace = {"__annotations__": {"x": int, "y": annotation}, "y": default}
    with pytest.raises(TypeError, match="not supported"):
        value_type(type("Bad", (), namespace))


def test_value_type_allows_class_variables():
    @value_type
    class Point:
        dims: ClassVar[int] = 2
        x: float
        y: float = 0.0

    assert Point(1.0) == Point(x=1.0, y=0.0) and Point.dims == 2
    assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]
