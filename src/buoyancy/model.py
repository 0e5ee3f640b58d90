"""Core domain types for workload telemetry and scoring.

All types are immutable value objects; the operations on them are pure
functions. Cache sizes are carried in KiB and bandwidth in bytes/second;
unit conversion belongs at interface boundaries, not here.
"""

import re
from dataclasses import MISSING, InitVar, dataclass, fields
from datetime import datetime
from typing import Mapping, Optional, Union, get_args, get_origin

from .errors import SchemaError

#: Buoyancy at or below this value flags a workload as approaching an
#: SLO violation.
DEFAULT_VIOLATION_THRESHOLD = 0.1

#: The least integer that ``float()`` cannot hold: it rounds up to 2**1024.
#: Every finite float is below it, and infinity and NaN are not.
_FLOAT_LIMIT = 2**1024 - 2**970

#: The least core count, ``sys.float_info.min``: a window lasts at least the
#: 1 us that timestamps resolve, so cores x window stays above 0.
LEAST_CORES = 2.0**-1022

#: The longest ``workload_id``, in characters: the longest Kubernetes object name.
MAX_ID_CHARS = 253

#: Finds a code point that UTF-8 cannot encode: a JSON-escaped lone surrogate,
#: or a byte that is not UTF-8, read with ``errors="surrogateescape"``.
find_surrogate = re.compile("[\ud800-\udfff]").search


def workload_id_error(workload_id: str) -> Optional[str]:
    """The rule a workload id breaks, or None: it is non-empty, at most ``MAX_ID_CHARS`` long and valid UTF-8."""
    if not workload_id:
        return "must be non-empty"
    if len(workload_id) > MAX_ID_CHARS:
        return f"must be at most {MAX_ID_CHARS} characters"
    if find_surrogate(workload_id):
        return "must be valid UTF-8, with no lone surrogate"
    return None


def check_types(values: Mapping, table: Mapping) -> None:
    """Raise the SchemaError naming the first field of ``table`` that ``values`` lacks or holds a wrong type in.

    ``table`` maps each field to its exact types, a type or a tuple, and whether it may be None.
    """
    for key, (types, nullable) in table.items():
        if key not in values:
            raise SchemaError(key, "missing")
        value = values[key]
        if type(value) not in (types if isinstance(types, tuple) else (types,)) and not (value is None and nullable):
            message = "must not be null" if value is None else f"expected {types}, got {type(value).__name__}"
            raise SchemaError(key, message)


def value_type(cls):
    """Make ``cls`` a frozen slots dataclass that is cheap to construct.

    The class is ``dataclass(frozen=True, slots=True)`` in every respect:
    equality, hash, repr, ``__match_args__``, ``fields``/``replace``/``asdict``,
    pickling, and ``FrozenInstanceError`` on set and delete. Only
    ``__init__`` differs: it stores each field through its slot descriptor's
    ``__set__`` instead of ``object.__setattr__``, which costs about three
    times as much per field. Defaults and ``__post_init__`` run as before.
    Fields with ``default_factory``, ``init=False``, ``InitVar`` or
    ``kw_only`` are not supported and raise ``TypeError`` here.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    for f in cls.__dataclass_fields__.values():  # a ClassVar passes: it is not an __init__ parameter
        init_var = isinstance(f.type, InitVar) or f.type is InitVar
        if init_var or f.default_factory is not MISSING or not f.init or f.kw_only is True:
            raise TypeError(
                f"value_type {cls.__name__}.{f.name}: "
                "default_factory, init=False, InitVar and kw_only are not supported"
            )
    names, params, lines = {}, [], []
    for f in fields(cls):
        names[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            names[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(lines) or "    pass"), names)
    names["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = names["__init__"]
    return cls


@dataclass(frozen=True, slots=True)
class CacheTopology:
    """Cache and memory geometry of one node.

    L1 size is the combined data+instruction size per core; L3 is the
    full last-level cache available to a workload on this node.
    """

    l1_size_kib: float
    l2_size_kib: float
    l3_size_kib: float
    l3_ways: int
    mem_speed_mts: float
    mem_bus_width_bytes: float
    mem_channels: int

    def __post_init__(self):
        # The only home of the geometry rules.
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise ValueError(f"{f.name} must be > 0, got {value}")
        if not (self.l1_size_kib < self.l2_size_kib < self.l3_size_kib):
            raise ValueError(
                f"cache sizes must be strictly increasing, got "
                f"{self.l1_size_kib} / {self.l2_size_kib} / {self.l3_size_kib} KiB"
            )


def theoretical_max_mbw(t: CacheTopology) -> float:
    """Theoretical peak memory bandwidth of the node, bytes/second.

    Product of transfer rate (MT/s), bytes per transfer, and channel count.
    """
    return t.mem_speed_mts * 1e6 * t.mem_bus_width_bytes * t.mem_channels


def llc_way_size(t: CacheTopology) -> float:
    """Size of one LLC way in KiB (real-valued; no divisibility assumed)."""
    return t.l3_size_kib / t.l3_ways


@dataclass(frozen=True, slots=True)
class SloSpec:
    """Service-level objective on one KPI.

    Direction is fixed to lower-is-better (latency style). ``slo_value``
    of None means no SLO is set for the workload.
    """

    kpi_name: str
    slo_value: Optional[float] = None

    def __post_init__(self):
        if self.slo_value is not None and not self.slo_value > 0:
            raise ValueError(f"slo_value must be > 0, got {self.slo_value}")


@value_type
class TelemetrySample:
    """Raw counters and KPI for one workload over one observation window."""

    workload_id: str
    window_start: datetime
    window_end: datetime
    cpu_user_time_s: float
    cpu_alloc_cores: float
    mem_refs: int
    l1_miss: int
    l2_miss: int
    l3_miss: int
    mbw_bytes: int
    mbw_alloc_bytes_per_s: Optional[int] = None
    llc_alloc_kib: Optional[float] = None
    kpi_value: Optional[float] = None

    def __post_init__(self):
        # The only home of a sample's rules: each field's exact type, then its value, in one expression.
        # Each bound also fails on NaN, and each upper one on an integer too large for a float.
        try:
            valid = (
                type(self.workload_id) is str and 0 < len(self.workload_id) <= MAX_ID_CHARS
                and (self.workload_id.isascii() or not find_surrogate(self.workload_id))
                and type(self.window_start) is type(self.window_end) is datetime
                and self.window_end > self.window_start
                and type(self.cpu_user_time_s) in (float, int) and 0 <= self.cpu_user_time_s < _FLOAT_LIMIT
                and type(self.cpu_alloc_cores) in (float, int) and LEAST_CORES <= self.cpu_alloc_cores < _FLOAT_LIMIT
                and type(self.mem_refs) is int and 0 <= self.mem_refs < _FLOAT_LIMIT
                and type(self.l1_miss) is int and 0 <= self.l1_miss < _FLOAT_LIMIT
                and type(self.l2_miss) is int and 0 <= self.l2_miss < _FLOAT_LIMIT
                and type(self.l3_miss) is int and 0 <= self.l3_miss < _FLOAT_LIMIT
                and type(self.mbw_bytes) is int and 0 <= self.mbw_bytes < _FLOAT_LIMIT
                and (self.mbw_alloc_bytes_per_s is None
                     or type(self.mbw_alloc_bytes_per_s) is int and 0 < self.mbw_alloc_bytes_per_s < _FLOAT_LIMIT)
                and (self.llc_alloc_kib is None
                     or type(self.llc_alloc_kib) in (float, int) and 0 < self.llc_alloc_kib < _FLOAT_LIMIT)
                and (self.kpi_value is None
                     or type(self.kpi_value) in (float, int) and 0 <= self.kpi_value < _FLOAT_LIMIT)
            )
        except TypeError:  # one window bound carries a UTC offset and the other does not
            valid = False
        if not valid:
            self._reject()

    def _reject(self):
        """Raise the SchemaError naming the first rule the sample breaks: types in field order, then values."""
        check_types({name: getattr(self, name) for name in SAMPLE_TYPES}, SAMPLE_TYPES)
        message = workload_id_error(self.workload_id)
        if message is not None:
            raise SchemaError("workload_id", message)
        try:
            ordered = self.window_end > self.window_start
        except TypeError:  # one bound carries a UTC offset and the other does not
            raise SchemaError("window_end", "both window bounds must carry a UTC offset, or neither") from None
        if not ordered:
            raise SchemaError("window_end", "window must end after it starts")
        if not self.cpu_alloc_cores >= LEAST_CORES:
            raise SchemaError("cpu_alloc_cores", f"must be > 0 and at least {LEAST_CORES}")
        for name in ("cpu_user_time_s", "mem_refs", "l1_miss", "l2_miss", "l3_miss", "mbw_bytes"):
            if not getattr(self, name) >= 0:
                raise SchemaError(name, "must be >= 0")
        for name in ("mbw_alloc_bytes_per_s", "llc_alloc_kib"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise SchemaError(name, "must be > 0 when present")
        if self.kpi_value is not None and not self.kpi_value >= 0:
            raise SchemaError("kpi_value", "must be >= 0")
        for f in fields(self)[3:]:  # the numbers, after the id and the window bounds
            value = getattr(self, f.name)
            if value is not None and not value < _FLOAT_LIMIT:
                raise SchemaError(f.name, "must be finite")

    @property
    def window_s(self) -> float:
        """Window length in seconds."""
        return (self.window_end - self.window_start).total_seconds()


#: field -> (the exact types it takes, whether it may be None), read off the annotations: a float also takes an int.
SAMPLE_TYPES = {
    f.name: ({float: (int, float)}.get(tp, tp), tp is not f.type)
    for f in fields(TelemetrySample)
    for tp in [get_args(f.type)[0] if get_origin(f.type) is Union else f.type]  # X of an Optional[X]
}


@value_type
class ResourceScores:
    """Per-resource scores of one workload, each in [0, 1]."""

    cpu: float
    llc: float
    mbw: float


@value_type
class BuoyancyReport:
    """Computed performance and headroom scores for one workload-window.

    ``perf_score`` and ``buoyancy`` live in (-inf, 1]; negative values mean
    the SLO is currently violated.
    """

    workload_id: str
    perf_score: float
    buoyancy: float
    resource_scores: ResourceScores
    approaching_violation: bool
