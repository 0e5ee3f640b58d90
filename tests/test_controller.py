import dataclasses
import math
import statistics

import pytest

from buoyancy import Allocation, ContentionPlant, Engine, EngineConfig, PlantConfig, PlantWorkload, SloSpec
from buoyancy.analysis import format_csv
from buoyancy.config import plant_config_from_dict, read_json
from buoyancy.controller import (
    MODE_BUOYANCY,
    ControlRecord,
    ControllerConfig,
    ExperimentConfig,
    ExtremumSeeker,
    InterferenceSchedule,
    controller_config_from_dict,
    run_experiment,
)
from buoyancy.errors import ConfigError

from .conftest import TABLE_TOPO
from .oracles import SeekerReference, StaticPlantMap, engine_step_reference, plant_step_reference

SLO = SloSpec("p95_latency_ms", 16.0)


def _plant(noise=0.0, seed=100):
    return PlantConfig(
        workloads=(
            PlantWorkload(
                id="svc",
                service_rate_per_core=100.0,
                base_latency_ms=2.0,
                latency_gain=1600.0,
                working_set_kib=48.0,
                mbw_per_req_bytes=87e6,
                interference_sensitivity=0.8,
            ),
        ),
        topology=TABLE_TOPO,
        total_cores=8.0,
        seed=seed,
        noise_sigma=noise,
    )


def _experiment(**overrides):
    base = dict(
        workload_id="svc",
        load_rps=200.0,
        initial_cores=4.0,
        llc_alloc_kib=2048.0,
        windows=240,
        repetitions=1,
        slo=SLO,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _static_map():
    return StaticPlantMap(100.0, 2.0, 1600.0, 48.0, 87e6, 0.8)


STEP_SCHEDULE = InterferenceSchedule(steps=((0, 0.0), (100, 0.5)))
FLAT_SCHEDULE = InterferenceSchedule(steps=((0, 0.0),))

# static-map steady state at the initial allocation (4 cores, I=0)
B_AT_START = _static_map().buoyancy(4.0, 200.0, 0.0)  # ~0.1969
L_AT_START = _static_map().latency(4.0, 200.0, 0.0)  # 10 ms


def _tail_cores(records, lo, hi):
    return statistics.median(r.cores for r in records if lo <= r.window < hi)


# ------------------------------------------------------------- configuration

def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(mode="vibes", setpoint=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(mode="latency", setpoint=1.0, perturb_amplitude=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(mode="latency", setpoint=1.0, perturb_period=3)
    with pytest.raises(ValueError):
        ControllerConfig(mode="latency", setpoint=1.0, min_cores=4.0, max_cores=4.0)


def test_schedule_step_function():
    sched = InterferenceSchedule(steps=((0, 0.0), (10, 0.3), (20, 0.6)))
    assert sched.level(0) == 0.0
    assert sched.level(9) == 0.0
    assert sched.level(10) == 0.3
    assert sched.level(25) == 0.6


def test_schedule_from_dict_and_errors():
    sched = InterferenceSchedule.from_dict({"steps": [{"window": 5, "level": 0.2}]})
    assert sched.level(4) == 0.0 and sched.level(5) == 0.2
    with pytest.raises(ConfigError):
        InterferenceSchedule.from_dict({"steps": [{"window": "soon"}]})


@pytest.mark.parametrize("obj,message", [
    ([], "schedule: expected an object, got []"),
    ({}, "schedule.steps: missing"),
    ({"steps": None}, "schedule.steps: expected an array, got null"),
    ({"steps": [1]}, "schedule.steps[0]: expected an object, got 1"),
    ({"steps": [{"window": 1}]}, "schedule.steps[0].level: missing"),
    ({"steps": [{"window": 1, "level": 0.5}, {"window": 2, "level": 2}]},
     "schedule.steps[1]: level must be in [0, 1], got 2.0"),
    ({"steps": [{"window": 100, "level": 0.5}, {"window": 100, "level": 0.2}]},
     "schedule.steps: window 100 is given more than once"),
])
def test_schedule_errors_name_their_location(obj, message):
    with pytest.raises(ConfigError) as exc:
        InterferenceSchedule.from_dict(obj)
    assert str(exc.value) == message


def test_controller_config_from_dict():
    ctrl, exp = controller_config_from_dict(
        {
            "mode": "buoyancy",
            "setpoint": 0.197,
            "actuation_bounds": {"min_cores": 1, "max_cores": 8},
            "experiment": {
                "workload_id": "svc",
                "load_rps": 200,
                "initial_cores": 4,
                "llc_alloc_kib": 2048,
                "windows": 16,
                "repetitions": 2,
                "slo": {"kpi_name": "p95_latency_ms", "slo_value": 16},
            },
        }
    )
    assert ctrl.mode == "buoyancy" and ctrl.max_cores == 8.0
    assert exp.repetitions == 2 and exp.slo.slo_value == 16.0
    with pytest.raises(ConfigError):
        controller_config_from_dict({"mode": "buoyancy"})


# ----------------------------------------------------------------- invariants

def test_allocation_always_within_bounds():
    ctrl = ControllerConfig(mode="buoyancy", setpoint=0.5, gain=3.0, min_cores=2.0, max_cores=5.0)
    harsh = InterferenceSchedule(steps=((0, 0.0), (40, 0.7), (90, 0.0), (140, 0.7)))
    records = run_experiment(
        _plant(noise=0.01), ctrl, harsh, _experiment(initial_cores=4.0, windows=200, repetitions=3)
    )
    assert all(2.0 <= r.cores <= 5.0 for r in records)


def test_seeker_pins_base_to_the_middle_of_narrow_bounds():
    # Bounds narrower than twice the amplitude leave the base no room to move.
    ctrl = ControllerConfig(mode="latency", setpoint=10.0, perturb_amplitude=1.0, min_cores=2.0, max_cores=3.0)
    seeker = ExtremumSeeker(config=ctrl, base=7.0)
    assert seeker.base == 2.5
    for t in range(3 * ctrl.perturb_period):
        assert 2.0 <= seeker.next_allocation() <= 3.0
        seeker.observe(100.0 + t)
    assert seeker.base == 2.5


def test_dead_band_when_setpoint_already_met():
    ctrl = ControllerConfig(mode="buoyancy", setpoint=B_AT_START)
    records = run_experiment(_plant(noise=0.01), ctrl, FLAT_SCHEDULE, _experiment(windows=160))
    drift = max(abs(r.cores - 4.0) for r in records)
    assert drift < 2 * ctrl.perturb_amplitude


def test_zero_noise_closed_loop_converges():
    target_cores = 5.0
    setpoint = _static_map().buoyancy(target_cores, 200.0, 0.0)
    ctrl = ControllerConfig(mode="buoyancy", setpoint=setpoint)
    records = run_experiment(_plant(noise=0.0), ctrl, FLAT_SCHEDULE, _experiment(windows=260))
    tail = [r.cores for r in records if r.window >= 200]
    oscillation = (max(tail) - min(tail)) / 2.0
    assert oscillation <= 2 * ctrl.perturb_amplitude
    assert abs(statistics.median(tail) - target_cores) <= 0.5


def test_interference_step_reacquires_setpoint_single_seed():
    ctrl = ControllerConfig(mode="buoyancy", setpoint=0.197)
    records = run_experiment(_plant(noise=0.01), ctrl, STEP_SCHEDULE, _experiment(windows=220))
    # worse than setpoint right after the step, back in band within 100 windows
    shocked = statistics.median(r.buoyancy for r in records if 100 <= r.window < 108)
    assert shocked < ctrl.setpoint - 0.05
    tail = statistics.median(r.buoyancy for r in records if 195 <= r.window < 220)
    assert abs(tail - ctrl.setpoint) <= 0.05
    required = _static_map().cores_for_buoyancy(ctrl.setpoint, 200.0, 0.5)
    assert abs(_tail_cores(records, 195, 220) - required) <= 0.75


def test_latency_and_buoyancy_modes_agree_on_allocation():
    # setpoints describe the same initial steady state via the static map
    lat = run_experiment(
        _plant(noise=0.0),
        ControllerConfig(mode="latency", setpoint=L_AT_START),
        STEP_SCHEDULE,
        _experiment(),
    )
    buoy = run_experiment(
        _plant(noise=0.0),
        ControllerConfig(mode="buoyancy", setpoint=B_AT_START),
        STEP_SCHEDULE,
        _experiment(),
    )
    lat_cores = _tail_cores(lat, 200, 240)
    buoy_cores = _tail_cores(buoy, 200, 240)
    assert abs(lat_cores - buoy_cores) <= 1.0
    smap = _static_map()
    assert abs(lat_cores - smap.cores_for_latency(L_AT_START, 200.0, 0.5)) <= 0.75
    assert abs(buoy_cores - smap.cores_for_buoyancy(B_AT_START, 200.0, 0.5)) <= 0.75


def test_buoyancy_error_reacts_before_latency_error_under_ramp():
    # period-mean error (the sine demodulates out) normalized by setpoint
    ramp = InterferenceSchedule(steps=tuple((56 + i, min(i * 0.005, 0.5)) for i in range(120)))

    def crossing_period(mode, setpoint):
        ctrl = ControllerConfig(mode=mode, setpoint=setpoint)
        records = run_experiment(_plant(noise=0.0), ctrl, ramp, _experiment(windows=200))
        by_period = {}
        for r in records:
            measured = r.buoyancy if mode == "buoyancy" else r.p95_ms
            signed = (setpoint - measured) if mode == "buoyancy" else (measured - setpoint)
            by_period.setdefault(r.window // ctrl.perturb_period, []).append(signed / abs(setpoint))
        return min(
            k for k in sorted(by_period) if abs(statistics.fmean(by_period[k])) > 0.1
        )

    assert crossing_period("buoyancy", B_AT_START) < crossing_period("latency", L_AT_START)


# ------------------------------------------------------------------ plumbing

def test_records_cover_all_windows_and_seeds():
    ctrl = ControllerConfig(mode="buoyancy", setpoint=0.2)
    records = run_experiment(
        _plant(noise=0.01), ctrl, FLAT_SCHEDULE, _experiment(windows=16, repetitions=3)
    )
    assert len(records) == 48
    assert {r.seed for r in records} == {100, 101, 102}
    assert all(r.mode == "buoyancy" and r.setpoint == 0.2 for r in records)


def test_records_csv_header():
    ctrl = ControllerConfig(mode="latency", setpoint=10.0)
    records = run_experiment(
        _plant(noise=0.0), ctrl, FLAT_SCHEDULE, _experiment(windows=8, repetitions=1)
    )
    text = format_csv(ControlRecord, records)
    lines = text.strip().split("\n")
    assert lines[0] == "window,seed,cores,p95_ms,buoyancy,setpoint,mode"
    assert len(lines) == 9


@pytest.mark.parametrize("mode,setpoint", [("latency", 10.0), ("buoyancy", 0.2)])
@pytest.mark.parametrize("period", [4, 7, 12, 13, 64])
def test_seeker_matches_per_window_sine_reference(mode, setpoint, period):
    ctrl = ControllerConfig(mode=mode, setpoint=setpoint, perturb_period=period, perturb_amplitude=0.75, gain=1.5)
    seeker, reference = ExtremumSeeker(config=ctrl, base=4.0), SeekerReference(config=ctrl, base=4.0)
    for t in range(5 * period + 3):
        applied = seeker.next_allocation()
        assert applied == reference.next_allocation()
        measured = setpoint * (1.0 + 0.5 * math.cos(0.37 * t)) + 0.01 * applied
        seeker.observe(measured)
        reference.observe(measured)
        got = (seeker.base, seeker._phase_index, seeker._demod_sum, seeker._error_sum)
        assert got == (reference.base, reference._phase_index, reference._demod_sum, reference._error_sum)


def _run_experiment_reference(plant_config, ctrl, schedule, experiment):
    """``run_experiment`` as it was written before the window loop was hoisted, on the reference pieces."""
    wid = experiment.workload_id
    records = []
    for rep in range(experiment.repetitions):
        seed = plant_config.seed + rep
        plant = ContentionPlant(dataclasses.replace(plant_config, seed=seed))
        engine = Engine(
            topology=plant_config.topology,
            node_cores=plant_config.total_cores,
            slos={wid: experiment.slo} if experiment.slo else {},
            config=EngineConfig(alpha=experiment.alpha),
        )
        seeker = SeekerReference(config=ctrl, base=experiment.initial_cores)
        for t in range(experiment.windows):
            cores = seeker.next_allocation()
            allocation = Allocation(cores=cores, llc_kib=experiment.llc_alloc_kib, load_rps=experiment.load_rps)
            batch, _ = plant_step_reference(plant, {wid: allocation}, schedule.level(t))
            workload_report = engine_step_reference(engine, batch).workload_reports[0]
            measured_p95 = batch[0].kpi_value
            seeker.observe(workload_report.buoyancy if ctrl.mode == MODE_BUOYANCY else measured_p95)
            records.append(ControlRecord(
                window=t, seed=seed, cores=cores, p95_ms=measured_p95, buoyancy=workload_report.buoyancy,
                setpoint=ctrl.setpoint, mode=ctrl.mode,
            ))
    return records


@pytest.mark.parametrize("mode,setpoint,repetitions", [("buoyancy", None, 10), ("latency", 10.0, 3)])
def test_bundled_experiment_matches_reference_loop(mode, setpoint, repetitions):
    plant = plant_config_from_dict(read_json("configs/controller_plant.json", "plant config"))
    ctrl, experiment = controller_config_from_dict(read_json("configs/controller_buoyancy.json", "controller config"))
    schedule = InterferenceSchedule.from_file("configs/schedule_step.json")
    if setpoint is not None:
        ctrl = dataclasses.replace(ctrl, mode=mode, setpoint=setpoint)
    experiment = dataclasses.replace(experiment, repetitions=repetitions)
    got = run_experiment(plant, ctrl, schedule, experiment)
    want = _run_experiment_reference(plant, ctrl, schedule, experiment)
    assert len(got) == experiment.windows * repetitions
    assert got == want
    assert repr(got) == repr(want)


def test_unknown_workload_rejected_early():
    ctrl = ControllerConfig(mode="latency", setpoint=10.0)
    with pytest.raises(ValueError, match="'ghost'"):
        run_experiment(_plant(), ctrl, FLAT_SCHEDULE, _experiment(workload_id="ghost"))
    plant = ContentionPlant(_plant())
    with pytest.raises(ValueError, match="'ghost'"):
        plant.step({"ghost": Allocation(1.0)})
    after_rejection, _ = plant.step({"svc": Allocation(1.0)})
    fresh, _ = ContentionPlant(_plant()).step({"svc": Allocation(1.0)})
    assert after_rejection[0].window_start == fresh[0].window_start
