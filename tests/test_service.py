import dataclasses
import errno
import io
import json
import logging
import math
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from buoyancy import BuoyancyReport, ContentionPlant, Engine, NodeReport, ResourceScores, SchemaError, SloSpec
from buoyancy import httpd, server as server_module
from buoyancy.exposition import CONTENT_TYPE, render_openmetrics
from buoyancy.httpd import make_server
from buoyancy.server import AgentConfig, MetricsAgent, report_to_json
from buoyancy.errors import ConfigError

from . import openmetrics
from .oracles import _json_default, render_openmetrics_reference
from .conftest import EPOCH, TABLE_TOPO, make_sample, no_unclosed_file, record_dict, two_workload_replay, write_jsonl


def _agent_config_dict(replay_path, window_s=0.05):
    return {
        "window_s": window_s,
        "alpha": 0.7,
        "violation_threshold": 0.1,
        "ema_factor": 1.0,
        "node_cores": 8,
        "topology": {
            "l1_size_kib": 80,
            "l2_size_kib": 1280,
            "l3_size_kib": 12288,
            "l3_ways": 12,
            "mem_speed_mts": 2666,
            "mem_bus_width_bytes": 8,
            "mem_channels": 4,
        },
        "slo": {"w1": {"kpi_name": "p95_latency_ms", "slo_value": 10.0}},
        "source": {"type": "replay", "path": replay_path},
    }


def _reference_reports(replay_path, config):
    from buoyancy import ReplaySource

    engine = Engine(
        topology=config.topology,
        node_cores=config.node_cores,
        slos=config.slos,
        config=config.engine,
    )
    return [engine.step(batch) for batch in ReplaySource(replay_path)]


def _report_metric_values(report):
    values = {}
    for wr in report.workload_reports:
        key = (("workload_id", wr.workload_id),)
        values.setdefault("resource_score_cpu", {})[key] = wr.resource_scores.cpu
        values.setdefault("resource_score_llc", {})[key] = wr.resource_scores.llc
        values.setdefault("resource_score_mbw", {})[key] = wr.resource_scores.mbw
        values.setdefault("perf_score", {})[key] = wr.perf_score
        values.setdefault("buoyancy_score", {})[key] = wr.buoyancy
    node = report.node_resource_scores
    values["node_resource_score_cpu"] = {(): node.cpu}
    values["node_resource_score_llc"] = {(): node.llc}
    values["node_resource_score_mbw"] = {(): node.mbw}
    values["node_buoyancy"] = {(): report.node_buoyancy}
    return values


# ---------------------------------------------------------------- exposition

#: The gauge families that scrapers depend on, spelled out so that a renamed
#: or dropped family fails here rather than matching the renderer's own table.
FAMILY_NAMES = {
    "resource_score_cpu", "resource_score_llc", "resource_score_mbw", "perf_score", "buoyancy_score",
    "node_resource_score_cpu", "node_resource_score_llc", "node_resource_score_mbw", "node_buoyancy",
}


def _sample_report(topo):
    engine = Engine(topology=topo, node_cores=8.0, slos={"w1": SloSpec("p95", 10.0)})
    return engine.step(
        [make_sample(kpi_value=5.0), make_sample(workload_id="w2", cpu_user_time_s=1.0)]
    )


def test_exposition_parses_and_matches_report(topo):
    report = _sample_report(topo)
    families = openmetrics.parse(render_openmetrics(report))
    assert set(families) == FAMILY_NAMES
    for family in families.values():
        assert family.type == "gauge"
        assert family.help
    parsed = {name: dict(family.samples) for name, family in families.items()}
    assert parsed == _report_metric_values(report)


def test_exposition_escapes_label_values(topo):
    engine = Engine(topology=topo, node_cores=8.0)
    report = engine.step([make_sample(workload_id='we"ird\\id')])
    families = openmetrics.parse(render_openmetrics(report))
    key = (("workload_id", 'we"ird\\id'),)
    assert key in families["buoyancy_score"].samples


def test_exposition_rejects_corrupted_text(topo):
    text = render_openmetrics(_sample_report(topo))
    with pytest.raises(openmetrics.OpenMetricsParseError):
        openmetrics.parse(text.replace("# EOF\n", ""))
    with pytest.raises(openmetrics.OpenMetricsParseError):
        openmetrics.parse(text.replace(' 0.25', ' zero', 1))
    with pytest.raises(openmetrics.OpenMetricsParseError):
        openmetrics.parse("bad metric{ 1\n# EOF\n")


# ---------------------------------------------------------------------- JSON

_SCORES = ResourceScores(cpu=0.25, llc=0.5, mbw=0.75)


def _workload(workload_id="w1", perf=0.5, buoyancy=0.3, scores=_SCORES, approaching=False):
    return BuoyancyReport(workload_id, perf, buoyancy, scores, approaching)


_SECOND = timedelta(seconds=1)

JSON_REPORTS = [
    pytest.param(
        NodeReport(
            ResourceScores(cpu=math.nan, llc=math.inf, mbw=-math.inf),
            -math.inf,
            [_workload(perf=math.nan, buoyancy=math.inf), _workload("w2", buoyancy=-math.inf, approaching=True)],
            EPOCH,
            EPOCH + _SECOND,
        ),
        id="non-finite",
    ),
    pytest.param(
        NodeReport(_SCORES, 0.5, [], datetime(2026, 1, 1), datetime(2026, 1, 1, tzinfo=timezone(_SECOND * 3600))),
        id="no-workloads",
    ),
    pytest.param(
        NodeReport(
            _SCORES,
            0.5,
            [_workload(wid) for wid in ('q"uote', "back\\slash", "new\nline", "n\u00f6n-\u00e4scii-\u2603")],
            EPOCH,
            EPOCH + _SECOND,
        ),
        id="escaped-ids",
    ),
    pytest.param(_workload("w\u00e9", perf=-0.5, buoyancy=-1.25, approaching=True), id="workload"),
]


def test_exposition_writes_non_finite_values():
    report = JSON_REPORTS[0].values[0]
    text = render_openmetrics(report)
    parsed = {name: {k: repr(v) for k, v in f.samples.items()} for name, f in openmetrics.parse(text).items()}
    expected = {name: {k: repr(v) for k, v in s.items()} for name, s in _report_metric_values(report).items()}
    assert parsed == expected
    lines = text.splitlines()
    assert {"node_resource_score_cpu NaN", "node_resource_score_llc +Inf", "node_resource_score_mbw -Inf"} <= set(lines)
    assert 'perf_score{workload_id="w1"} NaN' in lines


@pytest.mark.parametrize("report", JSON_REPORTS)
def test_report_to_json_matches_asdict(report):
    # dataclasses.asdict is the reference that report_to_json replaced.
    assert report_to_json(report) == json.dumps(dataclasses.asdict(report), default=_json_default)


#: Every float, NaN and both infinities included, in every numeric field of a report.
_ANY_FLOAT = st.floats()
_ANY_SCORES = st.builds(ResourceScores, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)
#: Ids built from the characters each format escapes, plus any other text.
_ANY_ID = st.text(st.sampled_from('\\"\n/ a\u00e9\u2603\U0001f600') | st.characters(), min_size=1, max_size=8)
_ANY_WORKLOAD = st.builds(BuoyancyReport, _ANY_ID, _ANY_FLOAT, _ANY_FLOAT, _ANY_SCORES, st.booleans())
_ANY_INSTANT = st.datetimes(timezones=st.sampled_from([None, timezone.utc, timezone(-_SECOND * 19800)]))
_ANY_NODE = st.builds(NodeReport, _ANY_SCORES, _ANY_FLOAT, st.lists(_ANY_WORKLOAD, max_size=4), _ANY_INSTANT, _ANY_INSTANT)


@given(_ANY_NODE)
def test_render_matches_its_reference(report):
    assert render_openmetrics(report) == render_openmetrics_reference(report)


@given(_ANY_NODE | _ANY_WORKLOAD)
def test_report_to_json_matches_asdict_for_any_report(report):
    assert report_to_json(report) == json.dumps(dataclasses.asdict(report), default=_json_default)


#: Telemetry-sized values: an LLC share of at least 1 KiB, and no sum or
#: ratio near the float maximum, which the scoring arithmetic does not guard.
_SAMPLE_FIELDS = st.fixed_dictionaries(
    {
        "cpu_user_time_s": st.floats(0.0, 1e6),
        "cpu_alloc_cores": st.floats(1e-3, 1e4),
        "mem_refs": st.integers(0, 10**15),
        "l1_miss": st.integers(0, 10**15),
        "l2_miss": st.integers(0, 10**15),
        "l3_miss": st.integers(0, 10**15),
        "mbw_bytes": st.integers(0, 10**15),
        "mbw_alloc_bytes_per_s": st.none() | st.integers(1, 10**13),
        "llc_alloc_kib": st.none() | st.floats(1.0, 1e6),
        "kpi_value": st.none() | st.floats(0.0, 1e9),
    }
)
_NOT_FINITE = st.tuples(
    st.sampled_from(["cpu_user_time_s", "cpu_alloc_cores", "mbw_bytes", "llc_alloc_kib", "kpi_value"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@given(
    windows=st.lists(st.lists(st.tuples(_SAMPLE_FIELDS, st.none() | _NOT_FINITE), max_size=2), min_size=1, max_size=2),
    slo=st.floats(1e-3, 1e6),
)
def test_report_json_is_strict_json_for_valid_samples(windows, slo):
    engine = Engine(topology=TABLE_TOPO, node_cores=8.0, slos={"w0": SloSpec("p95_latency_ms", slo)})
    for index, window in enumerate(windows):
        batch = []
        for i, (fields, spoiled) in enumerate(window):
            if spoiled:
                with pytest.raises(SchemaError):
                    make_sample(**{**fields, spoiled[0]: spoiled[1]})
            else:
                batch.append(make_sample(workload_id=f"w{i}", window_index=index, **fields))
        if batch:
            report = engine.step(batch)
            # json.loads reads NaN and Infinity back, and allow_nan=False rejects them.
            for body in [report_to_json(report)] + [report_to_json(wr) for wr in report.workload_reports]:
                json.dumps(json.loads(body), allow_nan=False)


# -------------------------------------------------------------------- server

def _get(url, timeout=5.0):
    """GET ``url``; an error answer raises an ``HTTPError`` that holds its body, its socket closed."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read().decode()
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read()
        raise urllib.error.HTTPError(exc.url, exc.code, exc.msg, exc.headers, io.BytesIO(body)) from None


@pytest.fixture
def running_agent(tmp_path):
    replay = two_workload_replay(tmp_path / "telemetry.jsonl", windows=6)
    config = AgentConfig.from_dict(_agent_config_dict(replay, window_s=0.08))
    agent = MetricsAgent(config)
    server = make_server(agent, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    agent.start()
    port = server.server_address[1]
    deadline = time.monotonic() + 8.0
    while time.monotonic() < deadline:
        if agent.snapshot() is not None:
            break
        time.sleep(0.01)
    assert agent.snapshot() is not None, "agent never produced a report"
    try:
        yield agent, f"http://127.0.0.1:{port}", replay, config
    finally:
        agent.stop()
        server.shutdown()
        server.server_close()


def test_healthz(running_agent):
    _, base, _, _ = running_agent
    status, _, body = _get(f"{base}/healthz")
    assert (status, body) == (200, "ok")


def test_unknown_path_404(running_agent):
    _, base, _, _ = running_agent
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(f"{base}/nope")
    assert exc.value.code == 404


def test_metrics_endpoint_is_openmetrics(running_agent):
    _, base, _, _ = running_agent
    status, content_type, body = _get(f"{base}/metrics")
    assert status == 200
    assert content_type == CONTENT_TYPE
    families = openmetrics.parse(body)
    assert set(families) == FAMILY_NAMES


def test_metrics_scrapes_are_single_window_snapshots(running_agent):
    _, base, replay, config = running_agent
    references = [_report_metric_values(r) for r in _reference_reports(replay, config)]
    for _ in range(3):
        _, _, body = _get(f"{base}/metrics")
        families = openmetrics.parse(body)
        parsed = {name: dict(family.samples) for name, family in families.items()}
        matches = [i for i, ref in enumerate(references) if ref == parsed]
        assert len(matches) == 1, "scrape does not equal exactly one window's report"
        time.sleep(0.1)


def test_node_endpoint_serves_current_snapshot(running_agent):
    agent, base, _, _ = running_agent
    status, content_type, body = _get(f"{base}/v1/node")
    assert status == 200 and content_type == "application/json"
    payload = json.loads(body)
    assert {"node_resource_scores", "node_buoyancy", "workload_reports"} <= payload.keys()
    assert {w["workload_id"] for w in payload["workload_reports"]} == {"w1", "w2"}


def test_workload_endpoint(running_agent):
    _, base, _, _ = running_agent
    status, _, body = _get(f"{base}/v1/workloads/w1")
    assert status == 200
    payload = json.loads(body)
    assert payload["workload_id"] == "w1"
    assert "buoyancy" in payload and "resource_scores" in payload
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(f"{base}/v1/workloads/ghost")
    assert exc.value.code == 404


def test_no_snapshot_yet_returns_503(tmp_path):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=1)
    config = AgentConfig.from_dict(_agent_config_dict(replay))
    agent = MetricsAgent(config)  # never started
    server = make_server(agent, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        expected = {"/metrics": 503, "/v1/node": 503, "/v1/workloads/w1": 503, "/nope": 404}
        for path, code in expected.items():
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(f"http://127.0.0.1:{port}{path}")
            assert exc.value.code == code, path
    finally:
        server.shutdown()
        server.server_close()
        agent.stop()


def test_snapshot_renders_each_body_once(tmp_path, monkeypatch):
    renders = []  # list.append is atomic, so handler threads may share it

    def counting(name, render):
        def wrapper(report):
            renders.append((name, type(report)))
            time.sleep(0.02)  # widen the window in which first readers overlap
            return render(report)

        return wrapper

    monkeypatch.setattr(server_module, "render_openmetrics", counting("metrics", server_module.render_openmetrics))
    monkeypatch.setattr(server_module, "report_to_json", counting("json", server_module.report_to_json))

    def heavy_renders():
        return renders.count(("metrics", NodeReport)), renders.count(("json", NodeReport))

    replay = two_workload_replay(tmp_path / "t.jsonl", windows=3)
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(replay)))
    server = make_server(agent, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert agent.step_once()
        bodies = {"/metrics": [], "/v1/node": []}

        def read(path):
            bodies[path].append(_get(f"{base}{path}")[2])

        readers = [threading.Thread(target=read, args=(path,)) for path in bodies for _ in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=10.0)
        assert not any(reader.is_alive() for reader in readers)
        for _ in range(5):
            for path in bodies:
                read(path)
        assert heavy_renders() == (1, 1)
        assert all(len(set(seen)) == 1 and len(seen) == 9 for seen in bodies.values())
        first_node = json.loads(bodies["/v1/node"][0])

        assert agent.step_once()
        report = agent.snapshot()
        _, _, metrics = _get(f"{base}/metrics")
        _, _, node = _get(f"{base}/v1/node")
        assert heavy_renders() == (2, 2)
        assert metrics == render_openmetrics(report) != bodies["/metrics"][0]
        assert json.loads(node)["window_end"] == report.window_end.isoformat() != first_node["window_end"]

        status, _, body = _get(f"{base}/v1/workloads/w2")
        assert status == 200 and json.loads(body)["workload_id"] == "w2"
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(f"{base}/v1/workloads/ghost")
        assert exc.value.code == 404
        assert heavy_renders() == (2, 2)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()


def test_agent_serves_last_snapshot_after_replay_ends(tmp_path):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=2)
    config = AgentConfig.from_dict(_agent_config_dict(replay, window_s=0.01))
    agent = MetricsAgent(config)
    assert agent.step_once() and agent.step_once()
    assert agent.step_once() is False
    assert agent.snapshot() is not None


@pytest.mark.parametrize(
    "tail,error",
    [("", None), ('{"workload_id": "w1", "window_start"\n', "ParseError: line 5: ")],
    ids=["end-of-replay", "bad-line"],
)
def test_healthz_after_the_engine_loop_ends(tmp_path, tail, error):
    replay = tmp_path / "t.jsonl"
    two_workload_replay(replay, windows=2)
    with open(replay, "a") as fh:
        fh.write(tail)
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(str(replay), window_s=0.01)))
    server = make_server(agent, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    errors = []
    try:
        agent.start(on_error=lambda: errors.append(agent.error))
        agent._thread.join(timeout=5.0)
        assert not agent._thread.is_alive()
        assert errors == ([] if error is None else [agent.error])
        assert agent.snapshot().window_end == EPOCH + 2 * _SECOND
        try:
            status, _, body = _get(f"http://127.0.0.1:{server.server_address[1]}/healthz")
        except urllib.error.HTTPError as exc:
            with exc:
                status, body = exc.code, exc.read().decode()
        if error is None:
            assert (status, body, agent.error) == (200, "ok", None)
        else:
            assert agent.error.startswith(error)
            assert (status, body) == (503, f"engine loop stopped: {agent.error}")
    finally:
        server.shutdown()
        server.server_close()
        agent.stop()


def test_empty_window_stops_the_loop_instead_of_keeping_the_last(tmp_path):
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(two_workload_replay(tmp_path / "t.jsonl"))))
    assert agent.step_once()
    last = agent.current_snapshot()
    agent._source.close()

    class EmptySource:
        def next_batch(self):
            return []

        def close(self):
            pass

    agent._source = EmptySource()
    with pytest.raises(ValueError, match="^empty telemetry batch$"):
        agent.step_once()
    agent.start()
    agent._thread.join(timeout=5.0)
    assert not agent._thread.is_alive()
    assert agent.error == "ValueError: empty telemetry batch"
    assert agent.current_snapshot() is last  # what /metrics still holds; /healthz and serve report the error
    agent.stop()


def test_metrics_still_answers_after_a_lone_surrogate_id_is_rejected(tmp_path):
    replay = tmp_path / "t.jsonl"
    good, bad = (json.dumps(record_dict(workload_id="w1", window_index=i)) for i in (0, 1))
    replay.write_text(good + "\n" + bad.replace('"w1"', '"w\\ud800"') + "\n")  # an ASCII line
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(str(replay))))
    try:
        assert agent.step_once()
        with pytest.raises(SchemaError) as exc:
            agent.step_once()
        assert exc.value.field == "workload_id"
        for _ in range(2):  # the body is kept after the first scrape
            response = server_module._Handler(agent).respond(b"GET /metrics HTTP/1.0\r\n\r\n")
            assert response.startswith(b"HTTP/1.0 200 OK\r\n")
        assert set(openmetrics.parse(response.split(b"\r\n\r\n", 1)[1].decode())) == FAMILY_NAMES
    finally:
        agent.stop()


def test_engine_loop_runs_on_monotonic_deadlines(tmp_path, monkeypatch):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=1)
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(replay, window_s=1.0)))
    now = [100.0]
    step_times = iter([0.25, 0.25, 1.5, 0.25, 0.25])  # the third step overruns its window
    waits = []

    def step_once():
        now[0] += next(step_times)
        return True

    def wait(timeout):
        waits.append(timeout)
        now[0] += timeout
        if len(waits) == 5:
            agent._stop.set()

    monkeypatch.setattr(server_module, "monotonic", lambda: now[0])
    monkeypatch.setattr(agent, "step_once", step_once)
    monkeypatch.setattr(agent._stop, "wait", wait)
    agent._run()
    assert waits == [0.75, 0.75, 0.0, 0.75, 0.75]
    assert agent.error is None
    agent.stop()


def test_replay_agent_closes_its_file(tmp_path, monkeypatch):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=2)
    config = AgentConfig.from_dict(_agent_config_dict(replay))
    with no_unclosed_file(monkeypatch, replay):
        drained = MetricsAgent(config)
        while drained.step_once():
            pass
        stopped = MetricsAgent(config)
        assert stopped.step_once()
        stopped.stop()
        del drained, stopped


def test_bind_error(tmp_path):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=1)
    config = AgentConfig.from_dict(_agent_config_dict(replay))
    agent = MetricsAgent(config)
    server = make_server(agent, "127.0.0.1", 0)
    try:
        port = server.server_address[1]
        with pytest.raises(ConfigError, match=rf"^cannot bind 127\.0\.0\.1:{port}: "):
            make_server(agent, "127.0.0.1", port)
    finally:
        server.server_close()
        agent.stop()


def _exchange(port, request: bytes, timeout=5.0) -> bytes:
    """Send ``request`` on a new connection; everything the server writes before it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # unread request bytes make the close a reset
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status_line(response: bytes) -> bytes:
    return response.split(b"\r\n", 1)[0]


@pytest.fixture
def served(tmp_path):
    """A listener over an agent that has stepped one window and steps no further."""
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(two_workload_replay(tmp_path / "t.jsonl"))))
    assert agent.step_once()
    server = make_server(agent, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield agent, port, f"http://127.0.0.1:{port}"
    finally:
        server.shutdown()
        server.server_close()
        agent.stop()


def test_response_is_one_http_1_0_answer_with_type_and_length(served):
    _, port, _ = served
    response = _exchange(port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert response == b"HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 2\r\n\r\nok"


@pytest.mark.parametrize(
    "request_line",
    [b"GARBAGE", b"", b"GET /metrics", b"GET /metrics FTP/1.0", b"GET /metrics HTTP/1.0 extra"],
)
def test_malformed_request_line_gets_400(served, request_line):
    _, port, _ = served
    response = _exchange(port, request_line + b"\r\nHost: x\r\n\r\n")
    assert _status_line(response) == b"HTTP/1.0 400 Bad Request"
    assert response.endswith(b"\r\n\r\nbad request line")


def test_methods_other_than_get_get_501(served):
    _, port, _ = served
    post = _exchange(port, b"POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n")
    assert _status_line(post) == b"HTTP/1.0 501 Not Implemented"
    assert post.endswith(b"\r\n\r\nunsupported method 'POST'")
    head = _exchange(port, b"HEAD /metrics HTTP/1.0\r\n\r\n")
    assert _status_line(head) == b"HTTP/1.0 501 Not Implemented"
    assert head.endswith(b"Content-Length: 0\r\n\r\n")  # no body answers a HEAD


def test_request_head_over_the_limit_gets_431(served):
    _, port, base = served
    limit = server_module.MAX_HEAD_BYTES
    _, _, metrics = _get(f"{base}/metrics")
    under = b"GET /metrics HTTP/1.0\r\nX-Pad: " + b"a" * (limit - 100) + b"\r\n\r\n"
    assert _exchange(port, under).endswith(metrics.encode())
    over = b"GET /metrics HTTP/1.0\r\nX-Pad: " + b"a" * limit + b"\r\n\r\n"
    assert _status_line(_exchange(port, over)) == b"HTTP/1.0 431 Request Header Fields Too Large"
    assert _status_line(_exchange(port, b"GET /" + b"a" * limit)) == b"HTTP/1.0 431 Request Header Fields Too Large"


@pytest.mark.parametrize("newline", [b"\r\n", b"\n"], ids=["crlf", "lf"])
def test_head_ends_at_its_blank_line_across_reads(served, newline):
    _, port, _ = served
    request = b"GET /healthz HTTP/1.0" + newline + b"Host: x" + newline + newline
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(request)):  # one byte per read, so the blank line spans reads
            sock.sendall(request[i:i + 1])
            time.sleep(0.002)
        response = sock.recv(65536)
    assert _status_line(response) == b"HTTP/1.0 200 OK" and response.endswith(b"\r\n\r\nok")


def test_query_string_is_ignored(served):
    _, _, base = served
    assert _get(f"{base}/metrics?x=1&y") == _get(f"{base}/metrics")
    assert _get(f"{base}/v1/workloads/w1?fields=all") == _get(f"{base}/v1/workloads/w1")
    assert _get(f"{base}/healthz?") == (200, "text/plain; charset=utf-8", "ok")


def test_workload_id_is_percent_decoded(tmp_path):
    ids = ["ns/pod a", "café", "100%"]
    replay = write_jsonl(tmp_path / "t.jsonl", [record_dict(workload_id=wid) for wid in ids])
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(replay)))
    assert agent.step_once()
    server = make_server(agent, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}/v1/workloads/"
    try:
        for wid in ids:
            status, _, body = _get(base + urllib.parse.quote(wid, safe=""))
            assert status == 200 and body == report_to_json(agent.current_snapshot().workload(wid))
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(base + "ns%2Fghost")
        with exc.value:
            assert (exc.value.code, exc.value.read()) == (404, b"unknown workload 'ns/ghost'")
    finally:
        server.shutdown()
        server.server_close()
        agent.stop()


def test_silent_client_is_dropped_after_the_timeout(served, monkeypatch):
    _, port, base = served
    monkeypatch.setattr(httpd, "CONNECTION_TIMEOUT_S", 0.3)
    silent = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    try:
        time.sleep(0.05)
        start = time.monotonic()
        assert _get(f"{base}/healthz", timeout=0.25)[2] == "ok"  # answered while the silent one waits
        assert silent.recv(1) == b""  # closed without an answer
        assert 0.2 < time.monotonic() - start < 3.0
    finally:
        silent.close()
    # Many silent clients at once: the loop answers past them, and the timeout frees them.
    held = [socket.create_connection(("127.0.0.1", port)) for _ in range(64)]
    try:
        time.sleep(0.05)
        assert _get(f"{base}/healthz", timeout=5.0)[2] == "ok"
    finally:
        for sock in held:
            sock.close()


def test_render_error_gets_500_and_the_next_scrape_succeeds(served, monkeypatch, caplog):
    agent, _, base = served
    render = server_module.render_openmetrics
    calls = []

    def fails_once(report):
        calls.append(report)
        if len(calls) == 1:
            raise RuntimeError("render broke")
        return render(report)

    monkeypatch.setattr(server_module, "render_openmetrics", fails_once)
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(f"{base}/metrics")
    with exc.value:
        assert (exc.value.code, exc.value.read()) == (500, b"internal server error")
    assert any("render broke" in record.exc_text for record in caplog.records if record.exc_text)
    for _ in range(9):  # the loop still answers
        assert _get(f"{base}/metrics")[2] == render(agent.snapshot())


def test_scrapes_start_no_threads_and_shutdown_ends_every_one(tmp_path, monkeypatch):
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(two_workload_replay(tmp_path / "t.jsonl"))))
    assert agent.step_once()
    server = make_server(agent, "127.0.0.1", 0)
    before = set(threading.enumerate())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        assert _get(f"{base}/healthz")[2] == "ok"
        assert set(threading.enumerate()) - before == {thread}, "serving started a thread besides serve_forever's"
        serving = threading.active_count()
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
        for _ in range(50):
            assert _get(f"{base}/metrics")[0] == 200
        monkeypatch.undo()
        assert (starts, threading.active_count()) == ([], serving)
        server.shutdown()
        thread.join(timeout=1.0)
        assert not thread.is_alive(), "serve_forever did not return within 1 s of shutdown()"
        deadline = time.monotonic() + 1.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not set(threading.enumerate()) - before, "a serving thread outlived shutdown()"
    finally:
        server.server_close()
        agent.stop()


def test_shutdown_ends_serving_however_often_and_whenever_it_is_called(tmp_path, monkeypatch):
    """A signal handler and the engine loop may both call it, before the loop starts or after it has ended."""
    replay = two_workload_replay(tmp_path / "t.jsonl")
    with no_unclosed_file(monkeypatch, replay):
        agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(replay)))
        server = make_server(agent, "127.0.0.1", 0)
        try:
            server.shutdown()  # before serve_forever: it returns at once
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            thread.join(timeout=1.0)
            assert not thread.is_alive(), "serve_forever did not return after an earlier shutdown()"
            server.shutdown()
        finally:
            server.server_close()
            agent.stop()
        server.shutdown()
        del agent, server, thread


def test_each_request_logs_one_debug_line(served, caplog):
    _, _, base = served
    caplog.set_level(logging.DEBUG, logger="buoyancy.server")
    _get(f"{base}/healthz")
    lines = [record.getMessage() for record in caplog.records if record.name == "buoyancy.server"]
    assert lines == ['http: "GET /healthz HTTP/1.1" 200 2']


# -------------------------------------------------------------------- config

def test_config_missing_field_rejected(tmp_path):
    with pytest.raises(ConfigError):
        AgentConfig.from_dict({"topology": {}})


def test_config_bad_source_type(tmp_path):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=1)
    obj = _agent_config_dict(replay)
    obj["source"]["type"] = "carrier-pigeon"
    with pytest.raises(ConfigError):
        AgentConfig.from_dict(obj)


def test_config_from_file_roundtrip(tmp_path):
    replay = two_workload_replay(tmp_path / "t.jsonl", windows=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_agent_config_dict(replay)))
    config = AgentConfig.from_file(str(path))
    assert config.node_cores == 8.0
    assert config.slos["w1"].slo_value == 10.0
    assert config.source_type == "replay"


def test_config_plant_source():
    obj = {
        "window_s": 0.5,
        "node_cores": 8,
        "topology": _agent_config_dict("x")["topology"],
        "source": {
            "type": "plant",
            "plant": {
                "workloads": [
                    {
                        "id": "svc",
                        "service_rate_per_core": 100,
                        "base_latency_ms": 2,
                        "latency_gain": 1600,
                        "working_set_kib": 48,
                        "mbw_per_req_bytes": 87e6,
                    }
                ],
                "topology": _agent_config_dict("x")["topology"],
                "total_cores": 8,
                "seed": 5,
            },
            "allocations": {"svc": {"cores": 4, "llc_kib": 2048, "load_rps": 100}},
        },
    }
    config = AgentConfig.from_dict(obj)
    agent = MetricsAgent(config)
    assert agent.step_once()
    assert agent.snapshot().workload_reports[0].workload_id == "svc"


def test_plant_agent_runs_at_its_configured_interference():
    with open("configs/agent_plant.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    node_buoyancy = {}
    for level in (0.0, 0.5):
        obj["source"]["interference"] = level
        config = AgentConfig.from_dict(obj)
        agent = MetricsAgent(config)
        assert agent.step_once()
        want = config.new_engine().step(ContentionPlant(config.plant).step(config.allocations, level)[0])
        assert agent.snapshot() == want
        assert repr(agent.snapshot()) == repr(want)
        node_buoyancy[level] = agent.snapshot().node_buoyancy
    assert node_buoyancy[0.5] < node_buoyancy[0.0]


def _request_1k_metrics(port):
    """A connection that asks for ``/metrics`` and reads nothing yet, with a 4 KiB receive buffer."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # set before connecting, so the window stays small
    sock.settimeout(5.0)
    sock.connect(("127.0.0.1", port))
    sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
    return sock


@pytest.fixture
def served_1k(tmp_path, monkeypatch):
    """A listener over a 1k-workload snapshot whose /metrics body takes many writes; records each write's outcome."""
    ids = [f"ns/pod-{i}" for i in range(1000)]
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(write_jsonl(tmp_path / "t.jsonl", map(record_dict, ids)))))
    assert agent.step_once()
    writes = []
    write = httpd._Connection.write
    monkeypatch.setattr(httpd._Connection, "write", lambda self: writes.append(write(self)) or writes[-1])
    server = make_server(agent, "127.0.0.1", 0)
    # Loopback send buffers grow to megabytes; a small one, which connections inherit, keeps the write partial.
    server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield agent, server.server_address[1], thread, writes
    finally:
        server.shutdown()
        server.server_close()
        agent.stop()


def _wait_for_a_partial_write(writes, timeout=5.0):
    """Until the loop has written part of an answer and is waiting to write the rest."""
    deadline = time.monotonic() + timeout
    while False not in writes:
        assert time.monotonic() < deadline, "the /metrics answer was written whole at once"
        time.sleep(0.01)


def test_slow_reader_does_not_stall_other_scrapes(served_1k):
    agent, port, _, writes = served_1k
    with _request_1k_metrics(port) as slow:
        _wait_for_a_partial_write(writes)
        assert _get(f"http://127.0.0.1:{port}/healthz", timeout=2.0)[2] == "ok"
        chunks = []
        while chunk := slow.recv(4096):
            chunks.append(chunk)
    body = agent.current_snapshot().metrics_body()
    head = f"HTTP/1.0 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {len(body)}\r\n\r\n"
    assert b"".join(chunks) == head.encode("latin-1") + body


def test_client_that_closes_mid_body_does_not_stop_the_loop(served_1k, caplog):
    caplog.set_level(logging.DEBUG, logger="buoyancy.httpd")
    agent, port, thread, writes = served_1k
    with _request_1k_metrics(port) as gone:
        _wait_for_a_partial_write(writes)
        assert gone.recv(4096).startswith(b"HTTP/1.0 200 OK\r\n")
    # The close with unread bytes resets the connection, so the loop's next write fails.
    for _ in range(3):
        assert _get(f"http://127.0.0.1:{port}/metrics")[2] == agent.current_snapshot().metrics_body().decode()
    assert thread.is_alive()
    assert any(r.getMessage().startswith("http: connection dropped: [Errno") for r in caplog.records)


@pytest.mark.parametrize(
    "sent,expected",
    [
        (b"GET /healthz HTTP/1.0\r\n", b"HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 2\r\n\r\nok"),
        (b"", b""),
    ],
    ids=["request-line-only", "nothing"],
)
def test_client_that_half_closes_gets_an_answer_to_what_it_sent(served, sent, expected):
    _, port, _ = served
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(sent)
        sock.shutdown(socket.SHUT_WR)  # no blank line ends the head: the half-close does
        response = b"".join(iter(lambda: sock.recv(65536), b""))
    assert response == expected


def test_accept_failure_pauses_accepting_then_recovers(served, monkeypatch):
    _, _, base = served
    accept = socket.socket.accept
    calls = []
    until = time.monotonic() + 0.2

    def out_of_descriptors_for_a_while(sock):
        calls.append(sock)
        if time.monotonic() < until:
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", out_of_descriptors_for_a_while)
    assert _get(f"{base}/healthz")[2] == "ok"
    assert 2 <= len(calls) <= 8  # a pause after each failure, not a retry on a listener that stays readable
