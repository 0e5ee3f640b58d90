"""Extremum-seeking resource controller run against the synthetic plant.

The controller regulates one workload's core allocation toward a setpoint
in either measured p95 latency or buoyancy. It needs no plant model: a
small sinusoidal perturbation rides on the base allocation, the error
signal is demodulated against the same sinusoid over each period to
estimate the local gradient d(error)/d(cores), and the base allocation is
nudged along -gain * error * gradient, clipped to the actuation bounds.

Error is signed so that positive always means "worse than setpoint":
latency above the setpoint, or buoyancy below it. Error and gradient are
normalized by the setpoint magnitude so one gain works in both modes, and
each update is slew-limited to twice the perturbation amplitude so the
integrator cannot slingshot across the latency knee.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

from .config import _lookup, build, config_field, read_json
from .engine import DEFAULT_ALPHA, Engine, EngineConfig
from .errors import ConfigError
from .model import SloSpec, value_type
from .sources import Allocation, ContentionPlant, PlantConfig

MODE_LATENCY = "latency"
MODE_BUOYANCY = "buoyancy"


@dataclass(frozen=True, slots=True)
class ControllerConfig:
    """Extremum-seeking parameters."""

    mode: str
    setpoint: float
    perturb_amplitude: float = 0.25  # cores
    perturb_period: int = 8  # windows per perturbation cycle
    gain: float = 0.5
    min_cores: float = config_field("actuation_bounds", "min_cores", default=1.0)
    max_cores: float = config_field("actuation_bounds", "max_cores", default=8.0)

    def __post_init__(self):
        if self.mode not in (MODE_LATENCY, MODE_BUOYANCY):
            raise ValueError(f"mode must be 'latency' or 'buoyancy', got {self.mode!r}")
        if self.perturb_amplitude <= 0:
            raise ValueError("perturb_amplitude must be > 0")
        if self.perturb_period < 4:
            raise ValueError("perturb_period must be >= 4")
        if not self.min_cores > 0:
            raise ValueError(f"actuation_bounds.min_cores must be > 0, got {self.min_cores}")
        if not self.min_cores < self.max_cores:
            raise ValueError("actuation bounds must be ordered")


@dataclass(frozen=True, slots=True)
class InterferenceSchedule:
    """Step function of interference level over window index."""

    steps: tuple[tuple[int, float], ...]  # (window, level), sorted by window

    def level(self, window: int) -> float:
        current = 0.0
        for start, value in self.steps:
            if window >= start:
                current = value
            else:
                break
        return current

    @staticmethod
    def from_dict(obj: dict) -> "InterferenceSchedule":
        """From ``{"steps": [{"window": W, "level": L}, ...]}``, in any order, each window once."""
        steps = build(tuple[_ScheduleStep, ...], *_lookup(obj, ("steps",), "schedule"))
        steps = tuple(sorted((s.window, s.level) for s in steps))
        for (window, _), (following, _) in zip(steps, steps[1:]):
            if window == following:
                raise ConfigError(f"schedule.steps: window {window} is given more than once")
        return InterferenceSchedule(steps=steps)

    @staticmethod
    def from_file(path: str) -> "InterferenceSchedule":
        return InterferenceSchedule.from_dict(read_json(path, "schedule"))


@dataclass(frozen=True, slots=True)
class _ScheduleStep:
    window: int
    level: float

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {self.level}")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """What to drive: the workload, its load, and the experiment shape."""

    workload_id: str
    load_rps: float
    initial_cores: float
    llc_alloc_kib: Optional[float] = None
    windows: int = 260
    repetitions: int = 10
    slo: Optional[SloSpec] = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.windows < 1:
            raise ValueError(f"windows must be >= 1, got {self.windows}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        # These reach the plant as an Allocation and the engine as an EngineConfig:
        # build one of each so that their own rules reject bad values at load.
        Allocation(cores=self.initial_cores, llc_kib=self.llc_alloc_kib, load_rps=self.load_rps)
        EngineConfig(alpha=self.alpha)


@value_type
class ControlRecord:
    """One emitted window of the closed loop."""

    window: int
    seed: int
    cores: float
    p95_ms: float
    buoyancy: float
    setpoint: float
    mode: str


class ExtremumSeeker:
    """One-dimensional perturbation-correlation extremum seeker."""

    def __init__(self, config: ControllerConfig, base: float):
        self.config = config
        self.base = self._clip_base(base)
        self._phase_index = 0
        self._demod_sum = 0.0
        self._error_sum = 0.0
        period = config.perturb_period
        self._sines = tuple(math.sin(2.0 * math.pi * i / period) for i in range(period))  # perturbation by phase

    def _clip_base(self, value: float) -> float:
        cfg = self.config
        lo = cfg.min_cores + cfg.perturb_amplitude
        hi = cfg.max_cores - cfg.perturb_amplitude
        if lo > hi:  # bounds narrower than the perturbation: pin to the middle
            return (cfg.min_cores + cfg.max_cores) / 2.0
        return min(max(value, lo), hi)

    def next_allocation(self) -> float:
        """Cores to apply this window (base plus perturbation, in bounds)."""
        cfg = self.config
        raw = self.base + cfg.perturb_amplitude * self._sines[self._phase_index]
        return min(max(raw, cfg.min_cores), cfg.max_cores)

    def observe(self, measured: float):
        """Feed this window's measurement; updates base once per period."""
        cfg = self.config
        scale = max(abs(cfg.setpoint), 1e-9)
        if cfg.mode == MODE_LATENCY:
            error = (measured - cfg.setpoint) / scale
        else:
            error = (cfg.setpoint - measured) / scale
        self._demod_sum += error * self._sines[self._phase_index]
        self._error_sum += error
        self._phase_index += 1
        if self._phase_index < cfg.perturb_period:
            return
        # d(error)/d(cores) from one full period of correlation.
        gradient = 2.0 * self._demod_sum / (cfg.perturb_period * cfg.perturb_amplitude)
        mean_error = self._error_sum / cfg.perturb_period
        step = -cfg.gain * mean_error * gradient
        limit = 2.0 * cfg.perturb_amplitude
        step = min(max(step, -limit), limit)
        self.base = self._clip_base(self.base + step)
        self._phase_index = 0
        self._demod_sum = 0.0
        self._error_sum = 0.0


def run_experiment(
    plant_config: PlantConfig,
    ctrl: ControllerConfig,
    schedule: InterferenceSchedule,
    experiment: ExperimentConfig,
) -> list[ControlRecord]:
    """Closed-loop runs over seeded repetitions; returns every window record."""
    wid = experiment.workload_id
    llc_kib, load_rps = experiment.llc_alloc_kib, experiment.load_rps
    setpoint, mode = ctrl.setpoint, ctrl.mode
    by_buoyancy = mode == MODE_BUOYANCY
    records: list[ControlRecord] = []
    for rep in range(experiment.repetitions):
        seed = plant_config.seed + rep
        plant = ContentionPlant(replace(plant_config, seed=seed))
        engine = Engine(
            topology=plant_config.topology,
            node_cores=plant_config.total_cores,
            slos={wid: experiment.slo} if experiment.slo else {},
            config=EngineConfig(alpha=experiment.alpha),
        )
        seeker = ExtremumSeeker(config=ctrl, base=experiment.initial_cores)
        for t in range(experiment.windows):
            cores = seeker.next_allocation()
            batch, _ = plant.step({wid: Allocation(cores, llc_kib, load_rps)}, schedule.level(t))
            b = engine.step(batch).workload_reports[0].buoyancy
            measured_p95 = batch[0].kpi_value
            seeker.observe(b if by_buoyancy else measured_p95)
            records.append(ControlRecord(t, seed, cores, measured_p95, b, setpoint, mode))
    return records


def controller_config_from_dict(obj: dict) -> tuple[ControllerConfig, ExperimentConfig]:
    """Parse the controller JSON: spec fields plus the experiment block."""
    ctrl = build(ControllerConfig, obj, "controller")
    return ctrl, build(ExperimentConfig, obj.get("experiment"), "controller.experiment")
