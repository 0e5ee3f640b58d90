"""Config loading: every bad config fails at load with its location.

Agent configs are checked through their loader, because ``serve`` would
run until stopped; the offline configs go through ``buoyancy controller-sim``
and must exit 1 with a ``config error:`` line before any window runs.
"""

import json
import math
import os
import threading

import pytest

from buoyancy import EngineConfig
from buoyancy.analysis import load_medians_file
from buoyancy.cli import main
from buoyancy.config import AgentConfig, plant_config_from_dict, read_json
from buoyancy.controller import ControllerConfig, InterferenceSchedule, controller_config_from_dict
from buoyancy.errors import ConfigError
from buoyancy.sources import ReplaySource

CONFIGS = "configs"
SIM_FILES = {
    "plant": "controller_plant.json",
    "ctrl": "controller_buoyancy.json",
    "schedule": "schedule_step.json",
}


def _bundled(name):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        return json.load(fh)


def _parent(obj, path):
    """The container of the value at ``path`` in ``obj``, and its key there."""
    *parents, last = path
    for key in parents:
        obj = obj[key]
    return obj, last


#: A second plant workload under the bundled plant's one id.
_TWIN = {"id": "svc", "service_rate_per_core": 1, "base_latency_ms": 0, "latency_gain": 1, "working_set_kib": 1,
         "mbw_per_req_bytes": 0}

# (case id, file, path to the bad value, bad value, location named by the error)
BAD_CONFIGS = [
    ("agent-l3-ways-zero", "agent_replay.json", ("topology", "l3_ways"), 0, "config.topology"),
    ("agent-slo-zero", "agent_replay.json", ("slo", "webapp", "slo_value"), 0, "config.slo.webapp"),
    ("agent-slo-string", "agent_replay.json", ("slo", "webapp", "slo_value"), "16",
     "config.slo.webapp.slo_value"),
    ("agent-slo-nan", "agent_replay.json", ("slo", "webapp", "slo_value"), math.nan,
     "config.slo.webapp.slo_value"),
    ("agent-llc-string", "agent_plant.json", ("source", "allocations", "webapp", "llc_kib"), "2048",
     "config.source.allocations.webapp.llc_kib"),
    ("agent-llc-zero", "agent_plant.json", ("source", "allocations", "webapp", "llc_kib"), 0,
     "config.source.allocations.webapp"),
    ("agent-node-cores-zero", "agent_replay.json", ("node_cores",), 0, "config"),
    ("agent-node-cores-bool", "agent_replay.json", ("node_cores",), True, "config.node_cores"),
    ("agent-window-zero", "agent_replay.json", ("window_s",), 0, "config"),
    ("agent-window-past-timeout-max", "agent_plant.json", ("window_s",), 1e300, "config"),
    ("agent-node-cores-huge", "agent_replay.json", ("node_cores",), 10**400, "config.node_cores"),
    ("agent-node-cores-subnormal", "agent_replay.json", ("node_cores",), 5e-324, "config"),
    ("agent-allocation-unknown-workload", "agent_plant.json", ("source", "allocations", "nope"),
     {"cores": 1}, "config"),
    ("agent-allocation-cores-zero", "agent_plant.json",
     ("source", "allocations", "webapp", "cores"), 0, "config.source.allocations.webapp"),
    ("agent-allocation-load-negative", "agent_plant.json",
     ("source", "allocations", "webapp", "load_rps"), -5, "config.source.allocations.webapp"),
    ("agent-allocation-cores-over-capacity", "agent_plant.json",
     ("source", "allocations", "webapp", "cores"), 9, "config"),
    ("agent-interference-above-one", "agent_plant.json", ("source", "interference"), 1.5, "config"),
    ("agent-replay-path-null", "agent_replay.json", ("source", "path"), None, "config"),
    ("agent-allocations-null", "agent_plant.json", ("source", "allocations"), None, "config"),
    ("agent-allocations-empty", "agent_plant.json", ("source", "allocations"), {}, "config"),
    ("agent-topology-not-the-plants", "agent_plant.json", ("topology", "l3_size_kib"), 2048, "config"),
    ("agent-node-cores-not-the-plants", "agent_plant.json", ("node_cores",), 64, "config"),
    ("agent-plant-clock-past-service-life", "agent_plant.json", ("source", "plant", "window_s"), 2e11, "config"),
    ("agent-window-too-short-for-the-plant-clock", "agent_plant.json", ("window_s",), 1e-3, "config"),
    ("plant-l3-ways-zero", "controller_plant.json", ("topology", "l3_ways"), 0, "plant.topology"),
    ("plant-workload-id-empty", "controller_plant.json", ("workloads", 0, "id"), "",
     "plant.workloads[0]"),
    ("plant-workload-id-too-long", "controller_plant.json", ("workloads", 0, "id"), "w" * 254,
     "plant.workloads[0]"),
    ("plant-workload-id-lone-surrogate", "controller_plant.json", ("workloads", 0, "id"), "w\ud800",
     "plant.workloads[0]"),
    ("plant-workload-latency-gain-zero", "controller_plant.json", ("workloads", 0, "latency_gain"), 0,
     "plant.workloads[0]"),
    ("plant-workload-base-latency-negative", "controller_plant.json", ("workloads", 0, "base_latency_ms"), -1,
     "plant.workloads[0]"),
    ("plant-workload-working-set-zero", "controller_plant.json", ("workloads", 0, "working_set_kib"), 0,
     "plant.workloads[0]"),
    ("plant-workload-ids-duplicate", "controller_plant.json", ("workloads",), [_TWIN, _TWIN], "plant"),
    ("plant-total-cores-zero", "controller_plant.json", ("total_cores",), 0, "plant"),
    ("plant-window-zero", "controller_plant.json", ("window_s",), 0, "plant"),
    ("plant-window-past-datetime-max", "controller_plant.json", ("window_s",), 1e300, "plant"),
    ("plant-noise-negative", "controller_plant.json", ("noise_sigma",), -0.01, "plant"),
    ("experiment-repetitions-zero", "controller_buoyancy.json", ("experiment", "repetitions"), 0,
     "controller.experiment"),
    ("experiment-windows-zero", "controller_buoyancy.json", ("experiment", "windows"), 0,
     "controller.experiment"),
    ("experiment-unknown-workload", "controller_buoyancy.json", ("experiment", "workload_id"),
     "nope", "controller.experiment.workload_id"),
    ("experiment-llc-zero", "controller_buoyancy.json", ("experiment", "llc_alloc_kib"), 0,
     "controller.experiment"),
    ("experiment-load-negative", "controller_buoyancy.json", ("experiment", "load_rps"), -1,
     "controller.experiment"),
    ("experiment-alpha-two", "controller_buoyancy.json", ("experiment", "alpha"), 2,
     "controller.experiment"),
    ("experiment-initial-cores-zero", "controller_buoyancy.json", ("experiment", "initial_cores"), 0,
     "controller.experiment"),
    ("experiment-llc-over-plant", "controller_buoyancy.json", ("experiment", "llc_alloc_kib"), 20000,
     "controller"),
    ("ctrl-min-cores-zero", "controller_buoyancy.json", ("actuation_bounds", "min_cores"), 0,
     "controller"),
    ("ctrl-min-cores-negative", "controller_buoyancy.json", ("actuation_bounds", "min_cores"), -3,
     "controller"),
    ("ctrl-max-cores-over-plant", "controller_buoyancy.json", ("actuation_bounds", "max_cores"), 12,
     "controller"),
    ("schedule-level-above-one", "schedule_step.json", ("steps", 1, "level"), 1.5,
     "schedule.steps[1]"),
]


@pytest.mark.parametrize(
    "name,path,value,where",
    [case[1:] for case in BAD_CONFIGS],
    ids=[case[0] for case in BAD_CONFIGS],
)
def test_bad_config_fails_at_load(name, path, value, where, tmp_path, capsys):
    obj = _bundled(name)
    parent, key = _parent(obj, path)
    parent[key] = value
    if name.startswith("agent_"):
        with pytest.raises(ConfigError) as info:
            AgentConfig.from_dict(obj)
        assert str(info.value).startswith(f"{where}:")
        return
    args = ["controller-sim", "--out", str(tmp_path / "runs.csv")]
    for flag, bundled in SIM_FILES.items():
        target = tmp_path / bundled
        target.write_text(json.dumps(obj if bundled == name else _bundled(bundled)))
        args += [f"--{flag}", str(target)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"config error: {where}:")
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize(
    "path,value,line",
    [
        (("topology", "l3_ways"), 0, "config error: config.topology: l3_ways must be > 0, got 0"),
        (("topology", "l1_size_kib"), 1280, "config error: config.topology: "
         "cache sizes must be strictly increasing, got 1280.0 / 1280.0 / 12288.0 KiB"),
        (("slo", "webapp", "slo_value"), 0, "config error: config.slo.webapp: slo_value must be > 0, got 0.0"),
    ],
    ids=["l3-ways-zero", "l1-not-below-l2", "slo-zero"],
)
def test_rule_violation_prints_its_whole_config_error_line(path, value, line, tmp_path, capsys):
    obj = _bundled("agent_replay.json")
    parent, key = _parent(obj, path)
    parent[key] = value
    (tmp_path / "agent.json").write_text(json.dumps(obj))
    assert main(["serve", "--config", str(tmp_path / "agent.json"), "--listen", "127.0.0.1:0"]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_plant_clock_lasts_the_service_life(tmp_path, capsys):
    # At the bundled 1 s engine window, 100 years are 3,155,760,000 windows; a plant window of 79 s
    # keeps their end before datetime.max, and one of 80 s does not.
    obj = _bundled("agent_plant.json")
    obj["source"]["plant"]["window_s"] = 79
    assert AgentConfig.from_dict(obj).plant.window_s == 79
    obj["source"]["plant"]["window_s"] = 2e11
    (tmp_path / "agent.json").write_text(json.dumps(obj))
    assert main(["serve", "--config", str(tmp_path / "agent.json"), "--listen", "127.0.0.1:0"]) == 1
    assert capsys.readouterr().err == (
        "config error: config: 3155760000 windows of 200000000000.0 s outlast the longest run, 251635075199 s\n"
    )
    obj["source"]["plant"]["window_s"] = 80
    with pytest.raises(ConfigError, match=r"^config: 3155760000 windows of 80\.0 s outlast"):
        AgentConfig.from_dict(obj)


@pytest.mark.parametrize("path", [("topology", "mem_channels"), ("source",)])
def test_missing_field_is_named(path):
    obj = _bundled("agent_replay.json")
    parent, key = _parent(obj, path)
    del parent[key]
    with pytest.raises(ConfigError, match=rf"^config\.{'.'.join(path)}: missing$"):
        AgentConfig.from_dict(obj)


def test_window_s_may_be_the_longest_wait_the_engine_loop_accepts():
    obj = _bundled("agent_replay.json")
    obj["window_s"] = threading.TIMEOUT_MAX
    assert AgentConfig.from_dict(obj).window_s == threading.TIMEOUT_MAX
    obj["window_s"] = math.nextafter(threading.TIMEOUT_MAX, math.inf)
    with pytest.raises(ConfigError, match=r"^config: window_s must be in \(0, "):
        AgentConfig.from_dict(obj)


def test_absent_keys_take_the_dataclass_defaults():
    obj = _bundled("agent_replay.json")
    for key in ("window_s", "alpha", "violation_threshold", "ema_factor", "slo"):
        del obj[key]
    config = AgentConfig.from_dict(obj)
    assert config.engine == EngineConfig()
    assert (config.window_s, config.slos, config.replay_strict) == (1.0, {}, True)
    experiment = _bundled("controller_buoyancy.json")["experiment"]
    ctrl, _ = controller_config_from_dict(
        {"mode": "latency", "setpoint": 10, "experiment": experiment}
    )
    assert ctrl == ControllerConfig(mode="latency", setpoint=10.0)


def test_unreadable_and_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (str(bad), str(tmp_path / "absent.json")):
        with pytest.raises(ConfigError):
            read_json(path, "agent config")


def _replay(path):
    source = ReplaySource(path)
    try:
        return list(source)
    finally:
        source.close()


LOADERS = {
    "agent_plant.json": AgentConfig.from_file,
    "agent_replay.json": AgentConfig.from_file,
    "controller_plant.json": lambda path: plant_config_from_dict(read_json(path, "plant config")),
    "controller_buoyancy.json": lambda path: controller_config_from_dict(
        read_json(path, "controller config")
    ),
    "schedule_step.json": InterferenceSchedule.from_file,
    "headroom_medians.json": load_medians_file,
    "replay_demo.jsonl": _replay,
}


def test_every_bundled_config_loads():
    assert sorted(os.listdir(CONFIGS)) == sorted(LOADERS), "register new configs in LOADERS"
    for name, load in LOADERS.items():
        assert load(os.path.join(CONFIGS, name)), name
