"""Independent reference computations used to check the library's results.

These deliberately avoid the code paths under test: the log-log OLS
oracle goes through numpy.polyfit, the closed-form plant map restates
the plant and scoring equations directly, and the record parser is the
table-driven loop that the generated parser replaced.
"""

import logging
import math
from datetime import datetime

import numpy as np

from buoyancy.errors import SchemaError
from buoyancy.model import TelemetrySample
from buoyancy.sources import _SCHEMA

_log = logging.getLogger("buoyancy.sources")


def ols_loglog(sizes, ratios):
    """Least-squares power-law fit via numpy: returns (a, b)."""
    slope, intercept = np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                                  np.log(np.asarray(ratios, dtype=float)), 1)
    return float(np.exp(intercept)), float(slope)


class StaticPlantMap:
    """Closed-form steady state of a single-workload plant configuration."""

    def __init__(
        self,
        mu1,
        base_latency_ms,
        latency_gain,
        working_set_kib,
        mbw_per_req_bytes,
        gamma,
        l1_kib=80.0,
        l2_kib=1280.0,
        l3_kib=12288.0,
        l3_ways=12,
        peak_mbw=85_312_000_000.0,
        slo_ms=16.0,
        alpha=0.7,
        llc_alloc_kib=2048.0,
    ):
        self.mu1 = mu1
        self.l0 = base_latency_ms
        self.k = latency_gain
        self.w = working_set_kib
        self.mbw_per_req = mbw_per_req_bytes
        self.gamma = gamma
        self.l3_kib = l3_kib
        self.way = l3_kib / l3_ways
        self.peak = peak_mbw
        self.slo = slo_ms
        self.alpha = alpha
        self.s_llc = llc_alloc_kib

    def latency(self, cores, load, interference):
        mu = cores * self.mu1 * (1.0 - self.gamma * interference)
        if load < 0.95 * mu:
            return self.l0 + self.k / (mu - load)
        return (self.l0 + self.k / (0.05 * mu)) * 10.0

    def scores(self, cores, load):
        cpu = min(load / (self.mu1 * cores), 1.0)
        # The planted curve is sqrt(W/x); its fitted slope is -1/2, so the
        # LLC score reduces to 0.5 * way / s_llc.
        llc = min(0.5 * self.way / self.s_llc, 1.0)
        m_ratio = math.sqrt(self.l3_kib / self.s_llc)
        mbw = min(load * self.mbw_per_req * m_ratio / self.peak, 1.0)
        return [cpu, llc, mbw]

    def buoyancy(self, cores, load, interference):
        lat = self.latency(cores, load, interference)
        p = (self.slo - lat) / self.slo
        r = self.scores(cores, load)
        mx, mn = max(r), sum(r) / len(r)
        return p * (self.alpha * (1 - mx) + (1 - self.alpha) * (1 - mn))

    def cores_for_buoyancy(self, target, load, interference, lo=1.0, hi=8.0):
        """Invert the static map: cores needed to reach a buoyancy target."""
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.buoyancy(mid, load, interference) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def cores_for_latency(self, target, load, interference, lo=1.0, hi=8.0):
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.latency(mid, load, interference) > target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0


#: One row per ``_SCHEMA`` field: (field, the exact types accepted, allow
#: null, the start of its type error).
_CHECKS = tuple(
    (key, types if isinstance(types, tuple) else (types,), nullable, f"expected {types}, got ")
    for key, (types, nullable) in _SCHEMA.items()
)


def _parse_rfc3339(value, field):
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        raise SchemaError(field, f"not an RFC3339 timestamp: {value!r}") from None


def parse_record_reference(obj, strict=True):
    """The table-driven record parser that the generated ``parse_telemetry_record`` replaced.

    Its errors, their fields, messages and precedence, and its warnings
    are the reference for the generated function.
    """
    if not isinstance(obj, dict):
        raise SchemaError("<record>", "each line must be a JSON object")
    if obj.keys() != _SCHEMA.keys():
        for key in obj:
            if key not in _SCHEMA:
                if strict:
                    raise SchemaError(key, "unknown field")
                _log.warning("ignoring unknown telemetry field %r", key)
    fields = {}
    for key, exact, nullable, expected in _CHECKS:
        try:
            value = obj[key]
        except KeyError:
            raise SchemaError(key, "missing") from None
        kind = type(value)
        if kind not in exact:
            if value is not None:
                raise SchemaError(key, expected + kind.__name__)
            if not nullable:
                raise SchemaError(key, "must not be null")
        elif kind is not str:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise SchemaError(key, f"must be a finite number, got {value}")
        fields[key] = value
    fields["window_start"] = _parse_rfc3339(fields["window_start"], "window_start")
    fields["window_end"] = _parse_rfc3339(fields["window_end"], "window_end")
    fields["cpu_user_time_s"] = float(fields["cpu_user_time_s"])
    fields["cpu_alloc_cores"] = float(fields["cpu_alloc_cores"])
    return TelemetrySample(**fields)
