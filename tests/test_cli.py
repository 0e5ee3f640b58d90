import csv
import io
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request

import pytest

import buoyancy
from buoyancy.cli import main

from .conftest import record_dict, write_jsonl
from .test_service import _agent_config_dict


def test_surface_cli(capsys):
    assert main(["surface", "--step", "0.25"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "p", "r", "b", "below_threshold"]
    assert len(rows) == 1 + 3 * 25


def test_surface_cli_writes_file(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert main(["surface", "--step", "0.5", "--out", str(out)]) == 0
    assert out.read_text().startswith("case,p,r,b")


@pytest.mark.parametrize(
    "flag,value,message",
    [("--step", "0.7", "step must be in (0, 0.5], got 0.7"), ("--alpha", "-3", "alpha must be in [0, 1], got -3.0")],
    ids=["step", "alpha"],
)
def test_surface_range_error_exits_1(capsys, flag, value, message):
    assert main(["surface", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: surface: {message}\n"
    assert captured.out == ""


def test_analyze_cli_medians_table(capsys):
    assert main(["analyze", "--input", "configs/headroom_medians.json"]) == 0
    out = capsys.readouterr().out
    assert "moses" in out and "memcached" in out
    assert "mean latency log-change:  0.654" in out
    assert "mean buoyancy log-change: -0.779" in out
    assert "buoyancy actuation gap:   19.1%" in out


def test_analyze_cli_medians_csv(capsys):
    assert main(["analyze", "--input", "configs/headroom_medians.json", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    moses = next(r for r in rows if r and r[0] == "moses")
    assert float(moses[4]) == pytest.approx(0.2915, abs=1e-3)


def test_analyze_cli_replay(tmp_path, capsys):
    records = [
        record_dict(window_index=i, kpi_value=4.0 if i < 2 else 8.0, cpu_user_time_s=0.5)
        for i in range(4)
    ]
    replay = write_jsonl(tmp_path / "r.jsonl", records)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_agent_config_dict(replay)))
    assert main(["analyze", "--input", replay, "--slo", str(config_path), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    w1 = next(r for r in rows if r and r[0] == "w1")
    assert float(w1[1]) == 4.0 and float(w1[2]) == 8.0


def test_analyze_cli_replay_needs_slo(tmp_path, capsys):
    replay = write_jsonl(tmp_path / "r.jsonl", [record_dict()])
    assert main(["analyze", "--input", replay]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "segments",
    ['{"low": [0, 2', "[1, 2]", '{"low": [0, "a"], "high": [2, 4]}', '{"low": [0], "high": [2, 4]}',
     '{"lo": [0, 2], "high": [2, 4]}', '{"low": [2, 0], "high": [2, 4]}', '{"low": [0, 2], "high": [2, 2]}'],
    ids=["malformed", "not-an-object", "not-an-integer", "one-bound", "misnamed", "reversed", "empty"],
)
def test_analyze_cli_bad_segments_exit_1(tmp_path, capsys, segments):
    replay = write_jsonl(tmp_path / "r.jsonl", [record_dict(window_index=i) for i in range(4)])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_agent_config_dict(replay)))
    args = ["analyze", "--input", replay, "--slo", str(config_path), "--segments", segments]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_analyze_cli_checks_segments_before_reading_the_replay(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_agent_config_dict(str(tmp_path / "missing.jsonl"))))
    args = ["analyze", "--input", str(tmp_path / "missing.jsonl"), "--slo", str(config_path),
            "--segments", '{"low": [0, 2]}']
    assert main(args) == 1
    assert capsys.readouterr().err == "config error: --segments.high: missing\n"


def test_analyze_cli_insufficient_data_is_runtime_error(tmp_path, capsys):
    replay = write_jsonl(tmp_path / "r.jsonl", [record_dict(kpi_value=4.0)])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_agent_config_dict(replay)))
    assert main(["analyze", "--input", replay, "--slo", str(config_path)]) == 2


def test_analyze_cli_replay_schema_error_names_its_line(tmp_path, capsys):
    with open("configs/replay_demo.jsonl", encoding="utf-8") as fh:
        lines = fh.readlines()
    record = json.loads(lines[5])
    record["mem_refs"] = -1
    lines[5] = json.dumps(record) + "\n"
    (tmp_path / "bad.jsonl").write_text("".join(lines))
    assert main(["analyze", "--input", str(tmp_path / "bad.jsonl"), "--slo", "configs/agent_replay.json"]) == 2
    assert capsys.readouterr().err == "error: line 6: field 'mem_refs': must be >= 0\n"


def test_missing_config_exits_1(capsys):
    assert main(["serve", "--config", "/nonexistent.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_controller_sim_cli(tmp_path, capsys):
    ctrl = {
        "mode": "buoyancy",
        "setpoint": 0.197,
        "actuation_bounds": {"min_cores": 1, "max_cores": 8},
        "experiment": {
            "workload_id": "svc",
            "load_rps": 200,
            "initial_cores": 4,
            "llc_alloc_kib": 2048,
            "windows": 24,
            "repetitions": 2,
            "slo": {"kpi_name": "p95_latency_ms", "slo_value": 16},
        },
    }
    ctrl_path = tmp_path / "ctrl.json"
    ctrl_path.write_text(json.dumps(ctrl))
    out_path = tmp_path / "out.csv"
    code = main(
        [
            "controller-sim",
            "--plant", "configs/controller_plant.json",
            "--ctrl", str(ctrl_path),
            "--schedule", "configs/schedule_step.json",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["window", "seed", "cores", "p95_ms", "buoyancy", "setpoint", "mode"]
    assert len(rows) == 1 + 24 * 2
    last = [row for row in rows[1:] if row[0] == "23"]
    assert len(last) == 2
    cores, p95, b = (statistics.median(float(row[i]) for row in last) for i in (2, 3, 4))
    assert capsys.readouterr().err == (
        f"48 records over 2 runs; final window median cores {cores:.2f}, "
        f"median p95 {p95:.2f} ms, median buoyancy {b:.3f}\n"
    )


_BUNDLED_SIM = ["--plant", "configs/controller_plant.json", "--ctrl", "configs/controller_buoyancy.json",
                "--schedule", "configs/schedule_step.json"]


@pytest.mark.parametrize(
    "argv,code,last_line",
    [
        pytest.param(["analyze", "--input", "{tmp}/twice.jsonl", "--slo", "{tmp}/agent.json"], 2,
                     "error: field 'workload_id': duplicate sample for workload 'w1'", id="duplicate-replay-line"),
        pytest.param(["serve", "--config", "{tmp}/missing-replay.json", "--listen", "127.0.0.1:0"], 1,
                     "config error: cannot read replay '{tmp}/missing.jsonl': ", id="serve-missing-replay"),
        pytest.param(["analyze", "--input", "{tmp}/missing.jsonl", "--slo", "{tmp}/agent.json"], 1,
                     "config error: cannot read replay '{tmp}/missing.jsonl': ", id="analyze-missing-replay"),
        pytest.param(["surface", "--out", "{tmp}/no/x.csv"], 1,
                     "config error: cannot write '{tmp}/no/x.csv': ", id="surface-out"),
        pytest.param(["analyze", "--input", "configs/headroom_medians.json", "--out", "{tmp}/no/x.csv"], 1,
                     "config error: cannot write '{tmp}/no/x.csv': ", id="analyze-out"),
        pytest.param(["controller-sim", *_BUNDLED_SIM, "--out", "{tmp}/no/x.csv"], 1,
                     "config error: cannot write '{tmp}/no/x.csv': ", id="controller-sim-out"),
        pytest.param(["analyze", "--input", "{tmp}/zero-median.json"], 2,
                     "error: workload 'moses': log_change needs positive values, got (0.0, 11.43)", id="zero-median"),
        pytest.param(["analyze", "--input", "{tmp}/bad-median.json"], 1,
                     'config error: medians.workloads[0].p95_low_ms: expected a number, got "8.54"', id="bad-median"),
        pytest.param(["analyze", "--input", "{tmp}/bad-byte.jsonl", "--slo", "{tmp}/agent.json"], 2,
                     "error: line 2: field 'workload_id': must be valid UTF-8", id="replay-byte-not-utf8"),
        pytest.param(["serve", "--config", "configs/agent_replay.json", "--listen", "127.0.0.1:99999"], 1,
                     "config error: --listen must be HOST:PORT with a port in 0-65535", id="listen-port-over-range"),
        pytest.param(["serve", "--config", "configs/agent_replay.json", "--listen", "127.0.0.1:\u00b2"], 1,
                     "config error: --listen must be HOST:PORT with a port in 0-65535", id="listen-port-not-ascii"),
        pytest.param(["controller-sim", "--plant", "{tmp}/long-windows.json", *_BUNDLED_SIM[2:], "--out", "{tmp}/x.csv"], 1,
                     "config error: controller: experiment.windows does not fit '{tmp}/long-windows.json': 220 windows "
                     "of 200000000000.0 s outlast the longest run", id="controller-sim-windows-past-datetime-max"),
    ],
)
def test_cli_failure_is_one_line_and_an_exit_code(tmp_path, argv, code, last_line):
    write_jsonl(tmp_path / "twice.jsonl", [record_dict(), record_dict()])
    good, bad = (json.dumps(record_dict(workload_id="w1", window_index=i)).encode() for i in (0, 1))
    (tmp_path / "bad-byte.jsonl").write_bytes(good + b"\n" + bad.replace(b'"w1"', b'"w\xff"') + b"\n")
    (tmp_path / "agent.json").write_text(json.dumps(_agent_config_dict(str(tmp_path / "twice.jsonl"))))
    (tmp_path / "missing-replay.json").write_text(json.dumps(_agent_config_dict(str(tmp_path / "missing.jsonl"))))
    with open("configs/headroom_medians.json", encoding="utf-8") as fh:
        medians = json.load(fh)
    medians["workloads"][0]["p95_low_ms"] = 0
    (tmp_path / "zero-median.json").write_text(json.dumps(medians))
    medians["workloads"][0]["p95_low_ms"] = "8.54"
    (tmp_path / "bad-median.json").write_text(json.dumps(medians))
    with open("configs/controller_plant.json", encoding="utf-8") as fh:
        (tmp_path / "long-windows.json").write_text(json.dumps({**json.load(fh), "window_s": 2e11}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(buoyancy.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "buoyancy.cli", *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert "Traceback" not in result.stderr
    assert result.returncode == code, result.stderr
    lines = result.stderr.splitlines()
    assert lines[-1].startswith(last_line.format(tmp=tmp_path))
    assert [line for line in lines if line.startswith(("config error:", "error:"))] == lines[-1:]


def test_controller_sim_config_error_keeps_the_out_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    ctrl = tmp_path / "ctrl.json"
    with open("configs/controller_buoyancy.json", encoding="utf-8") as fh:
        config = json.load(fh)
    config["actuation_bounds"]["max_cores"] = 12  # over the plant's 8 cores
    ctrl.write_text(json.dumps(config))
    argv = ["controller-sim", *_BUNDLED_SIM, "--out", str(out)]
    argv[argv.index("configs/controller_buoyancy.json")] = str(ctrl)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: controller: actuation_bounds.max_cores")
    assert out.read_text() == "kept\n"


def _serve_then_signal(config_path, signum, threads=None):
    """Serve ``config_path``, check a scrape and the thread count, then stop ``serve`` with ``signum``."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "buoyancy.cli", "serve",
         "--config", str(config_path), "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and port is None:
            line = proc.stderr.readline()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line or "")
            if match:
                port = int(match.group(1))
        assert port, "server never reported its port"
        base = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 10
        body = None
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(f"{base}/metrics", timeout=2) as resp:
                    body = resp.read().decode()
                break
            except Exception:
                time.sleep(0.05)
        assert body and 'buoyancy_score{workload_id="webapp"}' in body
        with urllib.request.urlopen(f"{base}/healthz", timeout=2) as resp:
            assert resp.read() == b"ok"
        if threads is not None:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                assert re.search(r"^Threads:\s*(\d+)$", fh.read(), re.M).group(1) == str(threads)
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=10)
        assert proc.returncode == 0
        final = json.loads(out.strip().splitlines()[-1])
        assert {"node_buoyancy", "workload_reports"} <= final.keys()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _demo_replay_config(tmp_path):
    config = _agent_config_dict("configs/replay_demo.jsonl", window_s=0.1)
    config["slo"] = {"webapp": {"kpi_name": "p95_latency_ms", "slo_value": 16.0}}
    config_path = tmp_path / "agent.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_serve_end_to_end_subprocess(tmp_path):
    _serve_then_signal(_demo_replay_config(tmp_path), signal.SIGINT)


def test_serve_sigterm_exits_0_with_final_report(tmp_path):
    _serve_then_signal(_demo_replay_config(tmp_path), signal.SIGTERM)


def test_serve_serves_on_its_main_thread_beside_one_engine_thread():
    """The plant source never ends, so the engine thread is alive at the check."""
    _serve_then_signal("configs/agent_plant.json", signal.SIGTERM, threads=2)


def test_serve_exits_2_once_engine_loop_died(tmp_path):
    with open("configs/replay_demo.jsonl", encoding="utf-8") as fh:
        lines = fh.readlines()[:5]
    lines[4] = lines[4][:40] + "\n"  # the 5th line is truncated
    replay = tmp_path / "truncated.jsonl"
    replay.write_text("".join(lines))
    config_path = tmp_path / "agent.json"
    config_path.write_text(json.dumps(_agent_config_dict(str(replay), window_s=0.1)))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "buoyancy.cli", "serve",
         "--config", str(config_path), "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 2
    assert err.splitlines()[-1].startswith("error: engine loop stopped: ParseError")
    assert out == ""


def test_serve_bad_listen_exits_1(capsys):
    assert main(["serve", "--config", "configs/agent_replay.json", "--listen", "localhost"]) == 1
    assert capsys.readouterr().err.startswith("config error: --listen must be HOST:PORT")


def test_serve_on_an_address_it_cannot_bind_exits_1():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(buoyancy.__file__)))
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1]
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "buoyancy.cli", "serve", "--config", "configs/agent_replay.json",
             "--listen", f"127.0.0.1:{port}"],
            capture_output=True, text=True, env=env, timeout=60,
        )
    assert result.returncode == 1, result.stderr
    assert result.stderr.splitlines()[-1].startswith(f"config error: cannot bind 127.0.0.1:{port}: ")
    assert "Traceback" not in result.stderr
    assert "ResourceWarning" not in result.stderr  # the replay the agent opened is closed


def test_runtime_imports_without_numpy_or_hypothesis():
    # A None entry in sys.modules makes every import of that name fail.
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = sys.modules['hypothesis'] = None\n"
        "import buoyancy\n"
        "names = [m.name for m in pkgutil.iter_modules(buoyancy.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('buoyancy.' + name)\n"
        "print(' '.join(names))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(buoyancy.__file__)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert {"cli", "config", "engine", "exposition", "scores", "server", "sources"} <= set(result.stdout.split())
