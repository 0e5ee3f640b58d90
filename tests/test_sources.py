import json
import logging
import math
import statistics
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from buoyancy import (
    Allocation,
    ContentionPlant,
    Engine,
    ParseError,
    PlantConfig,
    PlantWorkload,
    ReplaySource,
    SchemaError,
    SloSpec,
    TelemetrySample,
    fit_mrc,
)
from buoyancy import sources
from buoyancy.sources import _SCHEMA, parse_telemetry_record

from .conftest import TABLE_TOPO, bundled_plant_config, no_unclosed_file, record_dict, two_workload_replay, write_jsonl
from .oracles import miss_ratios, parse_record_reference, plant_step_reference


# -------------------------------------------------------------------- replay

def test_replay_groups_window_batches(tmp_path):
    path = two_workload_replay(tmp_path / "telemetry.jsonl", windows=3)
    source = ReplaySource(path)
    batches = list(source)
    assert [len(b) for b in batches] == [2, 2, 2]
    assert [s.workload_id for s in batches[0]] == ["w1", "w2"]
    assert source.next_batch() is None


def test_replay_truncated_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(record_dict()) + "\n")
        fh.write('{"workload_id": "w1", "window_start"\n')
    source = ReplaySource(str(path))
    source.next_batch()
    with pytest.raises(ParseError) as exc:
        source.next_batch()
    assert exc.value.line == 2


def test_replay_integer_over_digit_limit_is_parse_error(tmp_path):
    path = tmp_path / "digits.jsonl"
    path.write_text(json.dumps(record_dict()).replace('"mem_refs": ', '"mem_refs": ' + "9" * 5000))
    with pytest.raises(ParseError) as exc:
        ReplaySource(str(path)).next_batch()
    assert exc.value.line == 1


def test_replay_negative_counter_names_field(tmp_path):
    path = write_jsonl(tmp_path / "neg.jsonl", [record_dict(l1_miss=-1)])
    with pytest.raises(SchemaError) as exc:
        ReplaySource(path).next_batch()
    assert exc.value.field == "l1_miss"


def test_replay_schema_error_names_its_line(tmp_path):
    records = [record_dict(window_index=i) for i in range(3)]
    records[2]["mem_refs"] = -1
    source = ReplaySource(write_jsonl(tmp_path / "neg.jsonl", records))
    assert source.next_batch() and source.next_batch()
    with pytest.raises(SchemaError) as exc:
        source.next_batch()
    assert (exc.value.field, exc.value.line, str(exc.value)) == ("mem_refs", 3, "line 3: field 'mem_refs': must be >= 0")


def test_replay_unknown_field_strict(tmp_path):
    record = record_dict()
    record["surprise"] = 1
    path = write_jsonl(tmp_path / "unknown.jsonl", [record])
    with pytest.raises(SchemaError) as exc:
        ReplaySource(path).next_batch()
    assert exc.value.field == "surprise"


def test_replay_unknown_field_lenient_warns(tmp_path, caplog):
    record = record_dict()
    record["surprise"] = 1
    path = write_jsonl(tmp_path / "unknown.jsonl", [record])
    with caplog.at_level("WARNING"):
        batch = ReplaySource(path, strict=False).next_batch()
    assert len(batch) == 1
    assert any("surprise" in message for message in caplog.messages)


def test_replay_lenient_warns_once_per_unknown_field(tmp_path, caplog):
    # 3 windows of 1,000 records that each carry gpu_util, and one later record that carries rack.
    records = []
    for window in range(3):
        for i in range(1000):
            records.append(dict(record_dict(workload_id=f"w{i}", window_index=window), gpu_util=0.5))
    records[1499]["rack"] = "r1"
    path = write_jsonl(tmp_path / "unknown.jsonl", records)
    source = ReplaySource(path, strict=False)
    with caplog.at_level("WARNING", logger="buoyancy.sources"):
        delivered = sum(len(batch) for batch in source)
    assert delivered == 3000
    assert caplog.messages == [
        "line 1: ignoring unknown telemetry field 'gpu_util'",
        "line 1500: ignoring unknown telemetry field 'rack'",
    ]


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda r: r.pop("mem_refs"), "mem_refs"),
        (lambda r: r.update(mem_refs=1.5), "mem_refs"),
        (lambda r: r.update(mem_refs=True), "mem_refs"),
        (lambda r: r.update(workload_id=""), "workload_id"),
        (lambda r: r.update(cpu_alloc_cores=0), "cpu_alloc_cores"),
        (lambda r: r.update(cpu_user_time_s=None), "cpu_user_time_s"),
        (lambda r: r.update(window_start="yesterday"), "window_start"),
        (lambda r: r.update(window_end="2026-01-01T00:00:00Z"), "window_end"),
        # A "Z" that does not end a time is malformed.
        pytest.param(lambda r: r.update(window_start="2026-01-01Z"), "window_start", id="window_start-date-Z"),
        pytest.param(lambda r: r.update(window_start="2026-01-01ZZ"), "window_start", id="window_start-date-ZZ"),
        pytest.param(
            lambda r: r.update(window_start="20260101Z+01:00"), "window_start", id="window_start-Z-offset"
        ),
        (lambda r: r.update(mbw_alloc_bytes_per_s=0), "mbw_alloc_bytes_per_s"),
        (lambda r: r.update(llc_alloc_kib=-4), "llc_alloc_kib"),
        (lambda r: r.update(kpi_value=-1), "kpi_value"),
        pytest.param(lambda r: r.update(kpi_value=math.inf), "kpi_value", id="kpi_value-inf"),
        pytest.param(
            lambda r: r.update(cpu_alloc_cores=math.nan), "cpu_alloc_cores", id="cpu_alloc_cores-nan"
        ),
        pytest.param(
            lambda r: r.update(cpu_user_time_s=10**400), "cpu_user_time_s", id="cpu_user_time_s-huge"
        ),
        pytest.param(lambda r: r.update(mbw_bytes=10**400), "mbw_bytes", id="mbw_bytes-huge"),
        pytest.param(
            lambda r: r.update(window_start=r["window_start"].rstrip("Z")), "window_end", id="window-naive-aware"
        ),
        pytest.param(lambda r: r.update(cpu_alloc_cores="4"), "cpu_alloc_cores", id="cpu_alloc_cores-str"),
        pytest.param(lambda r: r.update(workload_id=7), "workload_id", id="workload_id-int"),
        pytest.param(
            lambda r: r.update(mbw_alloc_bytes_per_s=1.5), "mbw_alloc_bytes_per_s", id="mbw_alloc_bytes_per_s-float"
        ),
        pytest.param(lambda r: r.update(llc_alloc_kib=False), "llc_alloc_kib", id="llc_alloc_kib-bool"),
        pytest.param(lambda r: r.update(kpi_value=[1.0]), "kpi_value", id="kpi_value-list"),
    ],
)
def test_replay_schema_violations(tmp_path, mutate, field):
    record = record_dict()
    mutate(record)
    path = write_jsonl(tmp_path / "schema.jsonl", [record])
    with pytest.raises(SchemaError) as exc:
        ReplaySource(path).next_batch()
    assert exc.value.field == field


_GOOD = [record_dict(workload_id="w1"), record_dict(workload_id="w2")]


@pytest.mark.parametrize(
    "lines,delivered,error,where",
    [
        pytest.param(
            [json.dumps(record_dict(l1_miss=-1)), json.dumps(record_dict(window_index=1))],
            [],
            SchemaError,
            ("field", "l1_miss"),
            id="bad-first-record",
        ),
        pytest.param(
            [json.dumps(r) for r in _GOOD] + [json.dumps(record_dict(window_index=1, mem_refs=1.5))],
            _GOOD,
            SchemaError,
            ("field", "mem_refs"),
            id="bad-look-ahead-record",
        ),
        pytest.param(
            [json.dumps(r) for r in _GOOD] + ['{"workload_id": "w1", "window_start"'],
            _GOOD,
            ParseError,
            ("line", 3),
            id="truncated-line",
        ),
        pytest.param(
            [json.dumps(r) for r in _GOOD] + ["[" * 100_000],
            _GOOD,
            ParseError,
            ("line", 3),
            id="deeply-nested-line",
        ),
        # A byte that is not UTF-8 is written from its surrogate escape, "\udcff" for 0xff.
        pytest.param(
            [json.dumps(r) for r in _GOOD] + [json.dumps(record_dict(window_index=1)).replace('"w1"', '"w\udcff"')],
            _GOOD,
            SchemaError,
            ("field", "workload_id"),
            id="byte-not-utf8-in-workload-id",
        ),
        pytest.param(
            [json.dumps(r) for r in _GOOD] + [json.dumps(record_dict(window_index=1)).replace('"w1"', '"w\\ud800"')],
            _GOOD,
            SchemaError,
            ("field", "workload_id"),
            id="escaped-lone-surrogate-in-workload-id",
        ),
        pytest.param(
            [json.dumps(r) for r in _GOOD] + [json.dumps(record_dict(window_index=1)).replace("{", "{\udcff", 1)],
            _GOOD,
            ParseError,
            ("line", 3),
            id="byte-not-utf8-outside-a-string",
        ),
        pytest.param(
            [json.dumps(r) for r in _GOOD] + [json.dumps(record_dict(window_index=1)).replace("Z", "\udcff", 1)],
            _GOOD,
            SchemaError,
            ("field", "window_start"),
            id="byte-not-utf8-in-timestamp",
        ),
    ],
)
def test_replay_bad_line_ends_stream(tmp_path, monkeypatch, lines, delivered, error, where):
    path = tmp_path / "bad.jsonl"
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))

    # A function, so that the source is unreachable when the block collects.
    def replay():
        source = ReplaySource(str(path))
        if delivered:
            assert source.next_batch() == [parse_telemetry_record(r) for r in delivered]
        with pytest.raises(error) as exc:
            source.next_batch()
        assert getattr(exc.value, where[0]) == where[1]
        assert source.next_batch() is None

    with no_unclosed_file(monkeypatch, path):
        replay()


# ----------------------------------------------------- generated record parser

#: Values each schema field is set to in turn: wrong types, empties, signs,
#: non-finite floats, and the integers on either side of the largest one a
#: float can hold (the first is finite, the second is not).
_BAD_VALUES = [
    None, True, "", "4", [1.0], {}, 1.5, -1, 0, math.nan, math.inf, -math.inf,
    10**400, 2**1024 - 2**970 - 1, 2**1024 - 2**970,
]


def _parsed(parse, obj, strict=True):
    """What ``parse`` makes of ``obj``: the sample or the error, and the warnings it logs."""
    warned = []
    handler = logging.Handler()
    handler.emit = lambda record: warned.append(record.getMessage())
    logger = logging.getLogger("buoyancy.sources")
    logger.addHandler(handler)
    try:
        result = parse(obj, strict=strict)
    except Exception as exc:  # the type, field and message must all match
        result = type(exc), getattr(exc, "field", None), str(exc)
    finally:
        logger.removeHandler(handler)
    return result, warned


def _parity(obj, strict=True):
    assert _parsed(parse_telemetry_record, obj, strict) == _parsed(parse_record_reference, obj, strict)


def _with(key, value):
    record = record_dict(llc_alloc_kib=2048.0, kpi_value=4.0)
    record[key] = value
    return record


@pytest.mark.parametrize("key", list(_SCHEMA))
def test_parser_matches_reference_on_each_bad_value(key):
    removed = record_dict()
    del removed[key]
    _parity(removed)
    for value in _BAD_VALUES:
        _parity(_with(key, value))


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "extra,drop",
    [
        ({"surprise": 1}, None),
        ({"surprise": 1, "another": None}, None),
        ({"surprise": 1}, "l2_miss"),
        ({"surprise": 1, "mem_refs": 1.5}, "kpi_value"),
        ({"kpi_value": math.inf, "surprise": []}, None),
    ],
)
def test_parser_matches_reference_on_unknown_fields(strict, extra, drop):
    record = record_dict()
    record.update(extra)
    if drop:
        del record[drop]
    _parity(record, strict)


@pytest.mark.parametrize("obj", [None, [], [record_dict()], "record", 1, list(record_dict().items())])
def test_parser_matches_reference_on_non_objects(obj):
    _parity(obj)


_ANY_VALUE = (
    st.sampled_from(_BAD_VALUES)
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["2026-01-01T00:00:00Z", "2026-01-01T00:00:01", "2026-01-01T00:00:02+01:00"])
)


_DROP = object()


@st.composite
def _corrupted_records(draw):
    record = record_dict(
        mbw_alloc_bytes_per_s=draw(st.sampled_from([None, 10**9])),
        llc_alloc_kib=draw(st.sampled_from([None, 2048.0])),
        kpi_value=draw(st.sampled_from([None, 4.0])),
    )
    changes = draw(st.dictionaries(st.sampled_from([*_SCHEMA, "surprise", "x"]), st.just(_DROP) | _ANY_VALUE, max_size=4))
    for key, value in changes.items():
        if value is _DROP:
            record.pop(key, None)
        else:
            record[key] = value
    return record


# Hypothesis writes its Unicode tables on the first draw of st.text(), which makes a cold run slow to start.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(record=_corrupted_records(), strict=st.booleans())
def test_parser_matches_reference_on_corrupted_records(record, strict):
    _parity(record, strict)


_NUMBERS = [key for key, (types, _) in _SCHEMA.items() if types is not str]


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, 2**1024 - 2**970], ids=["inf", "nan", "-inf", "huge"])
@pytest.mark.parametrize("key", _NUMBERS)
def test_parser_leaves_every_number_rule_to_the_sample(key, value):
    # json reads NaN, Infinity and integers too large for a float, so the value arrives as it is written here.
    record = json.loads(json.dumps(_with(key, value)))
    with pytest.raises(SchemaError) as parsed:
        parse_telemetry_record(record)
    assert parsed.value.field == key
    types = _SCHEMA[key][0]
    if type(value) not in (types if isinstance(types, tuple) else (types,)):  # a float in an integer field
        assert str(parsed.value).endswith(f"expected {types}, got float")
        return
    window = parse_telemetry_record(record_dict())
    with pytest.raises(SchemaError) as built:
        TelemetrySample(**dict(record, window_start=window.window_start, window_end=window.window_end))
    assert (parsed.value.field, str(parsed.value)) == (built.value.field, str(built.value))
    if value > 0:
        assert str(parsed.value).endswith("must be finite")


#: The ``_BAD_VALUES`` entries that each number field accepts, by index, as the
#: parser that still checked finiteness itself accepted them: 0 None, 6 1.5, 8 0, and
#: 13 the largest integer a float holds. Every other entry is rejected.
_ACCEPTED = {
    "cpu_user_time_s": {6, 8, 13},
    "cpu_alloc_cores": {6, 13},
    "mem_refs": {8, 13},
    "l1_miss": {8, 13},
    "l2_miss": {8, 13},
    "l3_miss": {8, 13},
    "mbw_bytes": {8, 13},
    "mbw_alloc_bytes_per_s": {0, 13},
    "llc_alloc_kib": {0, 6, 13},
    "kpi_value": {0, 6, 8, 13},
}


@pytest.mark.parametrize("key", _NUMBERS)
def test_parser_accepted_numbers_per_field(key):
    accepted = set()
    for index, value in enumerate(_BAD_VALUES):
        try:
            parse_telemetry_record(_with(key, value))
        except SchemaError as exc:
            assert exc.field == key, (value, exc)
        else:
            accepted.add(index)
    assert accepted == _ACCEPTED[key]


def test_replay_calls_the_module_parser_once_per_record(tmp_path, monkeypatch):
    # Tracing wraps sources.parse_telemetry_record where the replay looks it
    # up; a parser bound as a local or a closure would hide every call.
    source = ReplaySource(two_workload_replay(tmp_path / "telemetry.jsonl", windows=3))
    parsed = []

    def counting(obj, strict=True):
        parsed.append(obj["workload_id"])
        return parse_telemetry_record(obj, strict=strict)

    monkeypatch.setattr(sources, "parse_telemetry_record", counting)
    batches = list(source)
    assert parsed == [s.workload_id for batch in batches for s in batch] == ["w1", "w2"] * 3


_LINE = json.dumps(record_dict())


def _via_json_loads(text):
    """What the replay made of one line before it decoded with ``raw_decode``."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return ParseError, str(ParseError(1, str(exc)))
    try:
        return [parse_telemetry_record(obj)]
    except SchemaError as exc:
        return SchemaError, f"line 1: {exc}"


@pytest.mark.parametrize(
    "text",
    [
        "  " + _LINE + "\n",
        _LINE + "\r\n",
        _LINE + " \t \n",
        _LINE + "\n",
        _LINE,
        _LINE + " x\n",
        _LINE + "}\n",
        "\ufeff" + _LINE + "\n",
        _LINE.replace('"cpu_user_time_s": 0.5', '"cpu_user_time_s": NaN') + "\n",
        _LINE.replace('"mem_refs": ', '"mem_refs": ' + "9" * 5000) + "\n",
        "null\n",
        "[]\n",
        _LINE + "\x0b\x0c\n",
    ],
    ids=[
        "leading-whitespace",
        "crlf",
        "trailing-spaces",
        "plain",
        "no-newline",
        "trailing-garbage",
        "trailing-brace",
        "bom",
        "nan",
        "integer-over-digit-limit",
        "null",
        "empty-array",
        "trailing-form-feed",
    ],
)
def test_replay_decodes_a_line_as_json_loads_does(tmp_path, text):
    path = tmp_path / "line.jsonl"
    path.write_bytes(text.encode("utf-8"))
    source = ReplaySource(str(path))
    try:
        outcome = source.next_batch()
    except (ParseError, SchemaError) as exc:
        outcome = type(exc), str(exc)
    finally:
        source.close()
    assert outcome == _via_json_loads(text)


def test_replay_close_before_first_read_closes_file(tmp_path, monkeypatch):
    path = two_workload_replay(tmp_path / "telemetry.jsonl", windows=2)

    def replay():
        source = ReplaySource(path)
        source.close()
        assert source.next_batch() is None

    with no_unclosed_file(monkeypatch, path):
        replay()


def test_replay_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(record_dict()) + "\n\n")
        fh.write(json.dumps(record_dict(window_index=1)) + "\n")
    assert [len(b) for b in ReplaySource(str(path))] == [1, 1]


def test_replay_empty_file(tmp_path):
    path = write_jsonl(tmp_path / "empty.jsonl", [])
    assert ReplaySource(path).next_batch() is None


def test_replay_pipeline_is_deterministic(tmp_path, topo):
    path = two_workload_replay(tmp_path / "telemetry.jsonl", windows=4)

    def run():
        engine = Engine(topology=topo, node_cores=8.0, slos={"w1": SloSpec("p95", 10.0)})
        return [engine.step(batch) for batch in ReplaySource(path)]

    assert run() == run()


# --------------------------------------------------------------------- plant

def _single_plant(noise=0.0, seed=1, **overrides):
    workload = dict(
        id="svc",
        service_rate_per_core=100.0,
        base_latency_ms=2.0,
        latency_gain=1600.0,
        working_set_kib=48.0,
        mbw_per_req_bytes=87e6,
        interference_sensitivity=0.8,
    )
    workload.update(overrides)
    return PlantConfig(
        workloads=(PlantWorkload(**workload),),
        topology=TABLE_TOPO,
        total_cores=8.0,
        seed=seed,
        noise_sigma=noise,
    )


def test_plant_idle_window():
    plant = ContentionPlant(_single_plant())
    batch, latency = plant.step({"svc": Allocation(cores=4.0, load_rps=0.0)})
    sample = batch[0]
    # idle latency is the closed form at lam=0: L0 + K/mu
    assert latency["svc"] == pytest.approx(2.0 + 1600.0 / 400.0, rel=1e-12)
    assert sample.kpi_value == latency["svc"]
    assert sample.mem_refs == 0
    assert sample.cpu_user_time_s == 0.0
    assert sample.mbw_bytes == 0


def test_plant_closed_form_latency():
    plant = ContentionPlant(_single_plant(interference_sensitivity=0.0))
    # lam = mu/2 with 4 cores: latency = L0 + 2K/mu
    _, latency = plant.step({"svc": Allocation(cores=4.0, load_rps=200.0)})
    assert latency["svc"] == pytest.approx(2.0 + 2 * 1600.0 / 400.0, rel=1e-12)


def test_plant_sweep_has_knee():
    plant = ContentionPlant(_single_plant())
    mu = 400.0
    loads = [mu * (0.1 + 0.84 * i / 20) for i in range(21)]
    latencies = []
    for lam in loads:
        _, latency = plant.step({"svc": Allocation(cores=4.0, load_rps=lam)})
        latencies.append(latency["svc"])
    assert all(b > a for a, b in zip(latencies, latencies[1:]))
    slopes = [
        (latencies[i] - latencies[i - 1]) / (loads[i] - loads[i - 1])
        for i in range(1, len(loads))
    ]
    assert slopes[-1] / slopes[-3] > 1.0
    assert slopes[-1] / slopes[0] > 5.0  # pronounced knee across the sweep
    # slope more than quintuples within the last decile of the sweep
    assert slopes[-1] / slopes[-2] < 5.0  # smooth, not a step
    decile_start = len(slopes) - 3
    assert slopes[-1] / statistics.median(slopes[:5]) > 5.0
    assert latencies[decile_start] < latencies[-1]


def test_plant_overload_multiplier():
    plant = ContentionPlant(_single_plant())
    _, at_edge = plant.step({"svc": Allocation(cores=4.0, load_rps=379.9)})
    _, beyond = plant.step({"svc": Allocation(cores=4.0, load_rps=380.0)})
    saturated = 2.0 + 1600.0 / (0.05 * 400.0)
    assert beyond["svc"] == pytest.approx(10 * saturated, rel=1e-12)
    assert beyond["svc"] > at_edge["svc"]


def test_plant_seed_reproducibility():
    runs = []
    for _ in range(2):
        plant = ContentionPlant(_single_plant(noise=0.01, seed=7))
        batches = [plant.step({"svc": Allocation(cores=4.0, load_rps=150.0)})[0] for _ in range(5)]
        runs.append(batches)
    assert runs[0] == runs[1]


def test_plant_seeds_differ():
    outs = []
    for seed in (1, 2):
        plant = ContentionPlant(_single_plant(noise=0.01, seed=seed))
        outs.append(plant.step({"svc": Allocation(cores=4.0, load_rps=150.0)})[0])
    assert outs[0] != outs[1]


def test_plant_latency_monotone_in_load_and_cores():
    plant = ContentionPlant(_single_plant())
    lat_by_load = [
        plant.step({"svc": Allocation(cores=4.0, load_rps=lam)})[1]["svc"]
        for lam in (50, 100, 200, 300, 370)
    ]
    assert all(b >= a for a, b in zip(lat_by_load, lat_by_load[1:]))
    lat_by_cores = [
        plant.step({"svc": Allocation(cores=c, load_rps=200.0)})[1]["svc"]
        for c in (3.0, 4.0, 5.0, 6.0)
    ]
    assert all(b <= a for a, b in zip(lat_by_cores, lat_by_cores[1:]))


def test_plant_interference_slows_service():
    plant = ContentionPlant(_single_plant())
    _, calm = plant.step({"svc": Allocation(cores=4.0, load_rps=200.0)})
    _, pressured = plant.step({"svc": Allocation(cores=4.0, load_rps=200.0)}, 0.5)
    assert pressured["svc"] > calm["svc"]


def test_plant_miss_ratios_strictly_decreasing_and_fit_exact(topo):
    plant = ContentionPlant(_single_plant())
    batch, _ = plant.step({"svc": Allocation(cores=4.0, llc_kib=2048.0, load_rps=200.0)})
    ratios = miss_ratios(batch[0])
    assert ratios[0] > ratios[1] > ratios[2] > 0
    fit = fit_mrc(topo, ratios, llc_alloc_kib=2048.0)
    assert not fit.degenerate
    assert fit.exponent_b == pytest.approx(-0.5, abs=1e-6)
    assert fit.coeff_a == pytest.approx(math.sqrt(48.0), rel=1e-5)


def test_plant_counter_noise_is_relative():
    noisy = ContentionPlant(_single_plant(noise=0.01, seed=3))
    clean = ContentionPlant(_single_plant(noise=0.0))
    b_noisy, _ = noisy.step({"svc": Allocation(cores=4.0, load_rps=200.0)})
    b_clean, _ = clean.step({"svc": Allocation(cores=4.0, load_rps=200.0)})
    ratio = b_noisy[0].mem_refs / b_clean[0].mem_refs
    assert 0.9 < ratio < 1.1
    assert b_noisy[0].mem_refs != b_clean[0].mem_refs


def test_plant_core_capacity():
    plant = ContentionPlant(_single_plant())
    with pytest.raises(ValueError, match=r"^allocated 9\.0 cores on a 8\.0-core node$"):
        plant.step({"svc": Allocation(cores=9.0, load_rps=10.0)})


def test_plant_llc_capacity():
    plant = ContentionPlant(_single_plant())
    with pytest.raises(ValueError, match=r"^allocated 20000\.0 KiB of a"):
        plant.step({"svc": Allocation(cores=1.0, llc_kib=20_000.0, load_rps=10.0)})


def test_plant_unknown_workload_named_before_capacity():
    # Over both the node's cores and its LLC, and naming a workload the plant lacks.
    allocations = {"svc": Allocation(cores=1.0), "ghost": Allocation(cores=9.0, llc_kib=20_000.0)}
    with pytest.raises(ValueError, match=r"^allocations name workloads the plant lacks: \['ghost'\]$"):
        _single_plant().check_allocations(allocations)


def test_plant_rejected_step_keeps_the_clock():
    allocation = {"svc": Allocation(cores=4.0, load_rps=10.0)}
    plant = ContentionPlant(_single_plant())
    with pytest.raises(ValueError):
        plant.step(allocation, 1.5)
    after_rejection, _ = plant.step(allocation, 0.5)
    fresh, _ = ContentionPlant(_single_plant()).step(allocation)
    assert after_rejection[0].window_start == fresh[0].window_start


def test_plant_infinite_kpi_is_rejected():
    # At full interference the service rate is 0 and the closed-form latency
    # infinite; an infinite KPI would reach /v1/node as -Infinity.
    allocation = {"svc": Allocation(cores=4.0, load_rps=10.0)}
    plant = ContentionPlant(_single_plant(interference_sensitivity=1.0))
    with pytest.raises(SchemaError) as exc:
        plant.step(allocation, 1.0)
    assert exc.value.field == "kpi_value"
    after_rejection, _ = plant.step(allocation, 0.5)
    fresh, _ = ContentionPlant(_single_plant(interference_sensitivity=1.0)).step(allocation)
    assert after_rejection[0].window_start == fresh[0].window_start


def _parity_plant(seed, noise):
    """Three workloads, one of which stalls (infinite latency) at full interference."""
    def workload(wid, working_set_kib, sensitivity):
        return PlantWorkload(id=wid, service_rate_per_core=100.0, base_latency_ms=2.0, latency_gain=1600.0,
                             working_set_kib=working_set_kib, mbw_per_req_bytes=87e6,
                             interference_sensitivity=sensitivity)

    return PlantConfig(
        workloads=(workload("web", 48.0, 0.8), workload("batch", 600.0, 0.2), workload("stall", 20.0, 1.0)),
        topology=TABLE_TOPO,
        total_cores=12.0,
        seed=seed,
        noise_sigma=noise,
    )


#: (interference, allocations) per step: LLC set and unset, loads from idle to
#: overload, workloads absent and reordered, a stalled workload and an
#: out-of-range interference, both rejected.
_PARITY_STEPS = [
    (0.0, {"web": Allocation(4.0, 2048.0, 200.0), "batch": Allocation(2.0, None, 150.0)}),
    (0.3, {"batch": Allocation(3.0, 1024.0, 0.0), "web": Allocation(4.0, None, 390.0)}),
    (0.8, {"web": Allocation(2.0, 4096.0, 100.0), "stall": Allocation(1.0, 512.0, 50.0),
           "batch": Allocation(1.0, None, 80.0)}),
    (1.0, {"web": Allocation(4.0, 2048.0, 200.0), "stall": Allocation(1.0, None, 50.0)}),
    (1.5, {"web": Allocation(4.0, 2048.0, 200.0)}),
    (0.5, {"stall": Allocation(2.0, 6144.0, 120.0), "web": Allocation(6.0, 2048.0, 300.0)}),
    (1.0, {"batch": Allocation(8.0, 12288.0, 700.0)}),
]


def _plant_outcome(step, allocations, interference):
    try:
        return step(allocations, interference)
    except (ValueError, SchemaError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [1, 7, 100])
@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_plant_step_matches_reference(seed, noise):
    plant, reference = ContentionPlant(_parity_plant(seed, noise)), ContentionPlant(_parity_plant(seed, noise))
    for interference, allocations in _PARITY_STEPS * 2:
        got = _plant_outcome(plant.step, allocations, interference)
        want = _plant_outcome(lambda a, i: plant_step_reference(reference, a, i), allocations, interference)
        assert got == want
        assert repr(got) == repr(want)  # samples and true latencies, bit for bit
        assert plant._rng.getstate() == reference._rng.getstate()
        assert plant._window_index == reference._window_index


def test_plant_timestamps_advance():
    plant = ContentionPlant(_single_plant())
    first, _ = plant.step({"svc": Allocation(cores=4.0, load_rps=10.0)})
    second, _ = plant.step({"svc": Allocation(cores=4.0, load_rps=10.0)})
    assert second[0].window_start == first[0].window_end


def test_plant_window_is_at_most_what_a_datetime_holds():
    longest = replace(_single_plant(), window_s=sources._LONGEST_WINDOW_S)
    batch, _ = ContentionPlant(longest).step({"svc": Allocation(cores=4.0, load_rps=10.0)})
    assert batch[0].window_end == datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
    with pytest.raises(ValueError, match=r"^window_s must be in \(0, 251635075199\], got 251635075200$"):
        replace(longest, window_s=sources._LONGEST_WINDOW_S + 1)


def test_bundled_plant_config_is_valid():
    cfg = bundled_plant_config()
    assert next(w for w in cfg.workloads if w.id == "webapp").working_set_kib < cfg.topology.l1_size_kib
    plant = ContentionPlant(cfg)
    batch, _ = plant.step({"webapp": Allocation(cores=4.0, llc_kib=2048.0, load_rps=40.0)})
    assert batch[0].workload_id == "webapp"


def test_plant_workload_validation():
    with pytest.raises(ValueError):
        PlantWorkload("x", 0.0, 2.0, 1600.0, 48.0, 1e6)
    with pytest.raises(ValueError, match="id must be valid UTF-8"):
        PlantWorkload("w\ud800", 100.0, 2.0, 1600.0, 48.0, 1e6)
    with pytest.raises(ValueError):
        PlantWorkload("x", 100.0, 2.0, 1600.0, 48.0, 1e6, interference_sensitivity=1.5)
