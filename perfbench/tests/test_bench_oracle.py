"""The oracle agrees with the package on generated inputs, and only then."""

import dataclasses
import json
import os

import gen
import oracle
from buoyancy.controller import InterferenceSchedule, controller_config_from_dict, run_experiment
from buoyancy.server import AgentConfig, MetricsAgent, plant_config_from_dict

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "configs")


def load(name):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_replay_node_matches_the_agent(tmp_path):
    replay, config = tmp_path / "replay.jsonl", tmp_path / "agent.json"
    data, profiles, mix = gen.write_replay(str(replay), seed=3, windows=8)
    gen.write_config(str(config), str(replay), profiles)
    assert mix["degenerate"] == 0.02 and mix["null_kpi"] == 0.05
    slos = {wid: p["slo"] for wid, p in profiles.items() if p["slo"] is not None}
    expected = oracle.replay_node(data, gen.TOPOLOGY, slos, alpha=0.7, ema=0.5, expiry=3)
    agent = MetricsAgent(AgentConfig.from_file(str(config)))
    for want_node, want in expected:
        assert agent.step_once()
        snap = agent.snapshot()
        assert oracle.close(snap.node_buoyancy, want_node)
        assert all(oracle.close(r.buoyancy, want[r.workload_id]) for r in snap.workload_reports)
    wrong = oracle.replay_node(data, gen.TOPOLOGY, slos, alpha=0.7, ema=0.6, expiry=3)
    assert not oracle.close(wrong[-1][0], expected[-1][0])


def test_replay_plant_matches_run_experiment():
    plant, ctrl_obj, schedule = load("controller_plant.json"), load("controller_buoyancy.json"), load("schedule_step.json")
    ctrl, experiment = controller_config_from_dict(ctrl_obj)
    records = run_experiment(plant_config_from_dict(plant), ctrl, InterferenceSchedule.from_dict(schedule),
                             dataclasses.replace(experiment, repetitions=1))
    cores = [r.cores for r in records]
    want = oracle.replay_plant(plant, ctrl_obj["experiment"], schedule["steps"], plant["seed"], cores)
    assert len(want) == len(records) == experiment.windows
    assert all(oracle.close(r.p95_ms, kpi) and oracle.close(r.buoyancy, b) for r, (kpi, b) in zip(records, want))
    other_seed = oracle.replay_plant(plant, ctrl_obj["experiment"], schedule["steps"], plant["seed"] + 1, cores)
    assert not oracle.close(records[0].p95_ms, other_seed[0][0])
