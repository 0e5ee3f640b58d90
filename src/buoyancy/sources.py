"""Telemetry producers: JSONL replay and a synthetic contention plant.

Both expose the same pull interface: ``next_batch()`` returns one
window's list of samples, or None at end of stream. Each source instance
is single-consumer.

The plant is a desk-scale stand-in for a contended node. Per workload,
with allocation (cores c, LLC share s, offered load lam req/s):

* service rate  mu = c * mu1 * (1 - gamma * I), where I in [0, 1] is the
  externally driven co-location pressure, an input of each window's step;
* p95 latency   L0 + K / (mu - lam) while lam < 0.95 mu, and 10x the
  saturation value past that point (the overload knee);
* miss ratios   exactly on the power law M(x) = sqrt(W / x) clamped to 1,
  evaluated at the L1, L2, and allocated-LLC sizes, so the scoring fit
  can recover the planted curve and the plant doubles as a fit oracle;
* memory traffic scales with load and with how much the allocated LLC
  misses relative to the full cache.

Counters and the reported KPI get multiplicative Gaussian noise
(``noise_sigma``, default 1%); set it to 0 for exact-oracle tests. The
closed-form latency is also returned separately as ground truth.
"""

import functools
import json
import logging
import math
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import IO, Iterator, Mapping, Optional

from .errors import ConfigError, ParseError, SchemaError
from .model import SAMPLE_TYPES, CacheTopology, TelemetrySample, check_types, value_type, workload_id_error

log = logging.getLogger(__name__)

_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
#: The longest plant window, or run of windows, in whole seconds: every window,
#: stamped from ``_EPOCH``, must end by ``datetime.max``.
_LONGEST_WINDOW_S = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // timedelta(seconds=1)

#: Synthetic memory references issued per request.
REFS_PER_REQUEST = 10_000

#: Load fraction of the service rate past which the plant is saturated.
OVERLOAD_POINT = 0.95
OVERLOAD_MULTIPLIER = 10.0


# --------------------------------------------------------------------------
# JSONL replay
# --------------------------------------------------------------------------

#: field -> (accepted JSON types, allow null): the sample's own types, with a window bound read from a string.
_SCHEMA = {name: (str if types is datetime else types, nullable) for name, (types, nullable) in SAMPLE_TYPES.items()}

#: A window bound: a date, ``T``, a time with an optional fraction, and an optional ``Z`` or UTC
#: offset; ``T`` and ``Z`` may be lower case, as RFC 3339 allows. The fraction has at most 9 digits,
#: nanoseconds, so that the cache below holds short strings only.
_WINDOW_BOUND = re.compile(r"\d{4}-\d\d-\d\d[Tt]\d\d:\d\d:\d\d(\.\d{1,9})?([Zz]|[+-]\d\d:\d\d)?", re.ASCII).fullmatch


@functools.lru_cache(maxsize=256)  # bounded, as telemetry chooses the strings
def _window_bound(text: str) -> datetime:
    """A window bound's datetime, made once for all records of its window; ValueError if not of the form."""
    if type(text) is not str or not _WINDOW_BOUND(text):
        raise ValueError(text)
    return datetime.fromisoformat(text.upper())  # which also rejects a day, hour or offset out of range


def parse_telemetry_record(obj, strict=True) -> TelemetrySample:
    """Build a TelemetrySample from one decoded JSONL object, mapping JSON to fields only.

    Every rule, types included, is the sample's; ``_reject_shape`` names a record that does not map.
    """
    try:
        if obj.keys() != _SCHEMA.keys() and (strict or not obj.keys() >= _SCHEMA.keys()):
            raise KeyError  # an unknown field, or a missing one
        start, end = _window_bound(obj["window_start"]), _window_bound(obj["window_end"])
    except (AttributeError, KeyError, TypeError, ValueError):
        _reject_shape(obj, strict)
    return TelemetrySample(
        obj["workload_id"], start, end, obj["cpu_user_time_s"], obj["cpu_alloc_cores"], obj["mem_refs"],
        obj["l1_miss"], obj["l2_miss"], obj["l3_miss"], obj["mbw_bytes"], obj["mbw_alloc_bytes_per_s"],
        obj["llc_alloc_kib"], obj["kpi_value"],
    )


def _reject_shape(obj, strict: bool):
    """Raise the SchemaError naming a record's first shape error, in schema order, or else a bad window bound."""
    if not isinstance(obj, dict):
        raise SchemaError("<record>", "each line must be a JSON object")
    for key in obj if strict else ():
        if key not in _SCHEMA:
            raise SchemaError(key, "unknown field")
    check_types(obj, _SCHEMA)
    for key in ("window_start", "window_end"):
        try:
            _window_bound(obj[key])
        except ValueError:
            raise SchemaError(key, f"not an RFC3339 timestamp: {obj[key]!r}") from None


#: Decodes one JSON value at the start of a string and returns where it
#: ends: one C call, where ``json.loads`` adds two Python wrappers and two
#: whitespace matches.
_raw_decode = json.JSONDecoder().raw_decode


def _read_batches(fh: IO[str], strict: bool) -> Iterator[list[TelemetrySample]]:
    """Yield each window's samples from a JSONL file, closing it on every end.

    A line is decoded by ``_raw_decode`` when only JSON whitespace follows
    the value; any other line goes to ``json.loads``, which accepts it (a
    blank line is skipped) or raises the error reported for it. Window
    boundaries show only one record ahead, so the batch before a bad line is
    yielded first; the error, with its line, then ends the stream. When not
    ``strict``, each unknown field name is logged once, with its first line.
    """
    with fh:
        batch: list[TelemetrySample] = []
        window = None
        warned: set[str] = set()
        try:
            for line_no, line in enumerate(fh, 1):
                try:
                    obj, end = _raw_decode(line)
                    decoded = not line[end:].strip(" \t\n\r")
                except (ValueError, RecursionError):
                    decoded = False
                if not decoded:  # json.loads is the reference: it accepts the line or raises its error
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, or too deep
                        raise ParseError(line_no, str(exc)) from None
                sample = parse_telemetry_record(obj, strict=strict)
                if not strict and obj.keys() != _SCHEMA.keys():
                    for key in obj:
                        if key not in _SCHEMA and key not in warned:
                            warned.add(key)
                            log.warning("line %d: ignoring unknown telemetry field %r", line_no, key)
                if (sample.window_start, sample.window_end) != window:
                    if batch:
                        yield batch
                    batch = []
                    window = (sample.window_start, sample.window_end)
                batch.append(sample)
        except (ParseError, SchemaError) as exc:
            if batch:
                yield batch
            if isinstance(exc, SchemaError):  # a ParseError names its line already
                raise SchemaError(exc.field, exc.message, line_no) from None
            raise
        if batch:
            yield batch


class ReplaySource:
    """Deterministic replay of a JSONL telemetry file.

    One JSON object per workload-window per line; consecutive lines with
    the same (window_start, window_end) form one batch, in file order.
    A bad line ends the stream after the batch before it. A byte that is
    not UTF-8 is read as a lone surrogate, so the line's own rules reject
    it. The file is closed at end of stream, on an error, and by
    ``close()``; a file that cannot be opened is a ``ConfigError``.
    """

    def __init__(self, path: str, strict: bool = True):
        try:
            self._fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise ConfigError(f"cannot read replay {path!r}: {exc}") from None
        self._batches = _read_batches(self._fh, strict)

    def next_batch(self) -> Optional[list[TelemetrySample]]:
        """Return the next window's samples, or None at end of stream."""
        return next(self._batches, None)

    def __iter__(self):
        return iter(self.next_batch, None)

    def close(self):
        self._batches.close()
        self._fh.close()


# --------------------------------------------------------------------------
# Synthetic contention plant
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlantWorkload:
    """Closed-form behaviour of one synthetic workload."""

    id: str
    service_rate_per_core: float  # req/s per core (mu1)
    base_latency_ms: float  # L0
    latency_gain: float  # K, ms * req/s
    working_set_kib: float  # scale of the planted miss-ratio curve
    mbw_per_req_bytes: float
    interference_sensitivity: float = 0.0  # gamma in [0, 1]

    def __post_init__(self):
        message = workload_id_error(self.id)  # the plant's ids are its samples' workload ids
        if message is not None:
            raise ValueError(f"id {message}")
        if self.service_rate_per_core <= 0:
            raise ValueError("service_rate_per_core must be > 0")
        if self.latency_gain <= 0:
            raise ValueError("latency_gain must be > 0")
        if self.base_latency_ms < 0:
            raise ValueError("base_latency_ms must be >= 0")
        if self.working_set_kib <= 0:
            raise ValueError("working_set_kib must be > 0")
        if not 0.0 <= self.interference_sensitivity <= 1.0:
            raise ValueError("interference_sensitivity must be in [0, 1]")

    def miss_ratio(self, cache_kib: float) -> float:
        """Planted miss-ratio curve sqrt(W/x), clamped to 1."""
        return min(math.sqrt(self.working_set_kib / cache_kib), 1.0)

    def p95_latency_ms(self, cores: float, load_rps: float, interference: float) -> float:
        """Closed-form tail latency; 10x knee past 95% saturation."""
        mu = cores * self.service_rate_per_core * (1.0 - self.interference_sensitivity * interference)
        if mu <= 0:
            return math.inf
        if load_rps < OVERLOAD_POINT * mu:
            return self.base_latency_ms + self.latency_gain / (mu - load_rps)
        saturated = self.base_latency_ms + self.latency_gain / ((1.0 - OVERLOAD_POINT) * mu)
        return saturated * OVERLOAD_MULTIPLIER


@value_type
class Allocation:
    """Per-workload actuation input to one plant step."""

    cores: float
    llc_kib: Optional[float] = None  # None: full shared LLC
    load_rps: float = 0.0

    def __post_init__(self):
        if not self.cores > 0:
            raise ValueError(f"cores must be > 0, got {self.cores}")
        if self.llc_kib is not None and not self.llc_kib > 0:
            raise ValueError(f"llc_kib must be > 0 when set, got {self.llc_kib}")
        if not self.load_rps >= 0:
            raise ValueError(f"load_rps must be >= 0, got {self.load_rps}")


@dataclass(frozen=True, slots=True)
class PlantConfig:
    """Node geometry, workload population, and noise of the plant."""

    workloads: tuple[PlantWorkload, ...]
    topology: CacheTopology
    total_cores: float
    seed: int = 0
    window_s: float = 1.0
    noise_sigma: float = 0.01

    def __post_init__(self):
        if self.total_cores <= 0:
            raise ValueError("total_cores must be > 0")
        if not 0 < self.window_s <= _LONGEST_WINDOW_S:
            raise ValueError(f"window_s must be in (0, {_LONGEST_WINDOW_S}], got {self.window_s}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        ids = [w.id for w in self.workloads]
        if len(set(ids)) != len(ids):
            raise ValueError("workload ids must be unique")

    def check_allocations(self, allocations: Mapping[str, Allocation]) -> None:
        """Raise ValueError for an id the plant lacks, then for allocations past the node's cores or LLC."""
        unknown = allocations.keys() - {w.id for w in self.workloads}
        if unknown:
            raise ValueError(f"allocations name workloads the plant lacks: {sorted(unknown)}")
        cores = math.fsum(a.cores for a in allocations.values())
        if cores > self.total_cores + 1e-9:
            raise ValueError(f"allocated {cores} cores on a {self.total_cores}-core node")
        llc = math.fsum(a.llc_kib for a in allocations.values() if a.llc_kib is not None)
        if llc > self.topology.l3_size_kib + 1e-9:
            raise ValueError(f"allocated {llc} KiB of a {self.topology.l3_size_kib} KiB LLC")

    def check_windows(self, windows: int) -> None:
        """Raise ValueError when a run of ``windows`` windows would end past ``datetime.max``."""
        if not windows * self.window_s <= _LONGEST_WINDOW_S:
            raise ValueError(f"{windows} windows of {self.window_s} s outlast the longest run, {_LONGEST_WINDOW_S} s")


class ContentionPlant:
    """Deterministic synthetic plant; reproducible for a given seed."""

    def __init__(self, config: PlantConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._window_index = 0
        fixed = (config.topology.l1_size_kib, config.topology.l2_size_kib, config.topology.l3_size_kib)
        #: Each workload with its L1, L2 and full-L3 miss ratios, which the config fixes.
        self._workloads = {w.id: (w, *map(w.miss_ratio, fixed)) for w in config.workloads}

    def step(
        self, allocations: Mapping[str, Allocation], interference: float = 0.0
    ) -> tuple[list[TelemetrySample], dict[str, float]]:
        """Advance one window under ``interference`` in [0, 1]; returns (samples, true p95 latencies by id)."""
        cfg = self.config
        cfg.check_allocations(allocations)
        if not 0.0 <= interference <= 1.0:
            raise ValueError("interference must be in [0, 1]")
        l3_kib = cfg.topology.l3_size_kib
        sigma = cfg.noise_sigma
        gauss = self._rng.gauss

        def noisy(value: float) -> float:
            """Multiplicative Gaussian noise; 0 and non-finite values pass through."""
            if sigma <= 0 or value == 0 or not math.isfinite(value):
                return value
            return max(value * (1.0 + sigma * gauss(0.0, 1.0)), 0.0)

        window = cfg.window_s
        start = _EPOCH + timedelta(seconds=self._window_index * window)
        end = start + timedelta(seconds=window)

        samples: list[TelemetrySample] = []
        true_latency: dict[str, float] = {}
        for wid, alloc in allocations.items():
            w, m_l1, m_l2, m_ref = self._workloads[wid]
            lam = alloc.load_rps
            llc_kib = alloc.llc_kib
            latency = w.p95_latency_ms(alloc.cores, lam, interference)
            true_latency[wid] = latency
            m_l3 = w.miss_ratio(l3_kib if llc_kib is None else llc_kib)

            refs = lam * window * REFS_PER_REQUEST
            cpu_time = min(lam / w.service_rate_per_core, alloc.cores) * window
            mbw = lam * window * w.mbw_per_req_bytes * (m_l3 / m_ref)
            # Arguments evaluate left to right, so the noise is drawn in field order.
            samples.append(
                TelemetrySample(
                    wid, start, end, noisy(cpu_time), alloc.cores, round(noisy(refs)),
                    round(noisy(refs * m_l1)), round(noisy(refs * m_l2)), round(noisy(refs * m_l3)),
                    round(noisy(mbw)), None, llc_kib, noisy(latency),
                )
            )
        self._window_index += 1  # a rejected step keeps the clock
        return samples, true_latency


class PlantSource:
    """Adapter driving a plant with fixed allocations and interference, as a sample source."""

    def __init__(self, plant: ContentionPlant, allocations: Mapping[str, Allocation], interference: float = 0.0):
        self._plant = plant
        self._allocations = dict(allocations)
        self._interference = interference

    def next_batch(self) -> list[TelemetrySample]:
        batch, _ = self._plant.step(self._allocations, self._interference)
        return batch

    def close(self):
        """Nothing to release; every source has ``close``."""
