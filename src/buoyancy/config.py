"""JSON configs: read, defaulted and validated once, at load.

``read_json`` is the only code that opens a config file. ``build`` makes
any config dataclass from the decoded JSON by its fields: each field is
read from the key of its name (or from the keys given by ``config_field``),
an absent key takes the field's own default, ``float`` and ``int`` fields
take only JSON numbers that convert to a finite float, and whatever the
dataclass's ``__post_init__`` rejects comes back as a ``ConfigError`` with
its location. Range checks therefore live on the dataclasses that own the
fields, and a bad config fails here, before the first window is scored.
"""

import dataclasses
import json
import math
import threading
from typing import Any, Optional, Union, get_args, get_origin

from .engine import Engine, EngineConfig
from .errors import ConfigError
from .model import CacheTopology, SloSpec
from .sources import Allocation, PlantConfig

_MISSING = dataclasses.MISSING

#: How long ``serve`` must be able to step a plant source: 100 years, in seconds.
SERVICE_LIFE_S = 100 * 365.25 * 86400

_EXPECTED = {
    float: "a number",
    int: "an integer",
    str: "a string",
    bool: "true or false",
    dict: "an object",
    list: "an array",
}


def read_json(path: str, what: str) -> Any:
    """Decode one JSON config file; unreadable or malformed files are ConfigErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


def config_field(*keys: str, **kwargs) -> Any:
    """A dataclass field that ``build`` reads from the JSON at ``keys``.

    With no keys the field is read from the enclosing JSON object itself:
    a nested config whose keys sit at the same level as its parent's.
    """
    return dataclasses.field(metadata={"json": keys}, **kwargs)


def _lookup(obj: dict, keys: tuple[str, ...], where: str) -> tuple[Any, str]:
    """The JSON value at ``keys`` below ``obj`` and its location (MISSING if absent)."""
    for key in keys:
        obj = build(dict, obj, where)
        where = f"{where}.{key}"
        if key not in obj:
            return _MISSING, where
        obj = obj[key]
    return obj, where


def build(tp: Any, value: Any, where: str) -> Any:
    """Check the decoded JSON ``value`` against the type ``tp``; return it converted.

    ``tp`` is a config dataclass or a field type of one: ``Optional[X]``,
    ``tuple[X, ...]`` from an array, ``dict[str, X]`` from an object, or a
    scalar; a MISSING value is an error. ``where`` is the location that errors name.
    """
    if value is _MISSING:
        raise ConfigError(f"{where}: missing")
    if tp in _EXPECTED:
        if tp is float or tp is int:
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            try:
                if number and math.isfinite(value) and (tp is float or value == int(value)):
                    return tp(value)
            except OverflowError:  # an integer too large for a float is not finite
                pass
        elif isinstance(value, tp):
            return value
        raise ConfigError(f"{where}: expected {_EXPECTED[tp]}, got {json.dumps(value, default=repr)}")
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        return None if value is None else build(args[0], value, where)
    if origin is tuple:
        items = build(list, value, where)
        return tuple(build(args[0], item, f"{where}[{i}]") for i, item in enumerate(items))
    if origin is dict:
        return {k: build(args[1], v, f"{where}.{k}") for k, v in build(dict, value, where).items()}
    obj = build(dict, value, where)  # otherwise tp is a config dataclass
    kwargs = {}
    for f in dataclasses.fields(tp):
        raw, at = _lookup(obj, f.metadata.get("json", (f.name,)), where)
        if raw is not _MISSING or (f.default is _MISSING and f.default_factory is _MISSING):
            kwargs[f.name] = build(f.type, raw, at)
    try:
        return tp(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def plant_config_from_dict(obj: dict) -> PlantConfig:
    """Build a PlantConfig from its JSON form."""
    return build(PlantConfig, obj, "plant")


@dataclasses.dataclass(frozen=True)
class AgentConfig:
    """Parsed service configuration.

    The engine's tuning knobs sit at the top level of the JSON, the SLOs
    under ``slo``, and the telemetry source's settings under ``source``.
    """

    topology: CacheTopology
    node_cores: float
    engine: EngineConfig = config_field()
    source_type: str = config_field("source", "type")  # "replay" | "plant"
    slos: dict[str, SloSpec] = config_field("slo", default_factory=dict)
    window_s: float = 1.0
    replay_path: Optional[str] = config_field("source", "path", default=None)
    replay_strict: bool = config_field("source", "strict", default=True)
    plant: Optional[PlantConfig] = config_field("source", "plant", default=None)
    allocations: Optional[dict[str, Allocation]] = config_field("source", "allocations", default=None)
    interference: float = config_field("source", "interference", default=0.0)

    def __post_init__(self):
        self.new_engine()  # the engine's own rules reject a bad node_cores at load
        if not 0 < self.window_s <= threading.TIMEOUT_MAX:  # the engine loop waits up to one window
            raise ValueError(f"window_s must be in (0, {threading.TIMEOUT_MAX:g}], got {self.window_s}")
        if self.source_type == "replay":
            if self.replay_path is None:
                raise ValueError("a replay source needs source.path")
        elif self.source_type == "plant":
            if self.plant is None or not self.allocations:
                raise ValueError("a plant source needs source.plant and a non-empty source.allocations")
            if self.topology != self.plant.topology:  # else the engine scores the counters on another cache
                raise ValueError("a plant source needs topology equal to source.plant.topology")
            if self.node_cores != self.plant.total_cores:  # else the node CPU score divides by cores the plant lacks
                raise ValueError("a plant source needs node_cores equal to source.plant.total_cores")
            self.plant.check_allocations(self.allocations)
            self.plant.check_windows(math.ceil(SERVICE_LIFE_S / self.window_s))  # one plant window per engine window
            if not 0.0 <= self.interference <= 1.0:
                raise ValueError(f"source.interference must be in [0, 1], got {self.interference}")
        else:
            raise ValueError(f"source.type must be 'replay' or 'plant', got {self.source_type!r}")

    def new_engine(self) -> Engine:
        """A fresh engine for this node: its topology, cores, SLOs and tuning."""
        return Engine(self.topology, self.node_cores, self.slos, self.engine)

    @staticmethod
    def from_dict(obj: dict) -> "AgentConfig":
        return build(AgentConfig, obj, "config")

    @staticmethod
    def from_file(path: str) -> "AgentConfig":
        return AgentConfig.from_dict(read_json(path, "agent config"))
