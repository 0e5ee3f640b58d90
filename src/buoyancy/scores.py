"""Per-resource scores computed from one telemetry window.

Three scores are implemented:

* CPU: user-space CPU time over allocated CPU time. Kernel time is
  deliberately excluded; waiting on other resources inflates kernel time
  and would masquerade as CPU pressure.
* LLC: the miss-ratio curve is approximated as ``f(x) = a * x**b`` by an
  ordinary least squares fit in log-log space over the (cache size, miss
  ratio) points of the available cache levels. The score is the predicted
  change in miss ratio for a one-way change in allocation, relative to the
  measured LLC miss ratio: ``min(-f'(s) * way_size / m_llc, 1)``.
* MBW: current memory bandwidth over allocated bandwidth, falling back to
  the node's theoretical peak when no explicit allocation exists.

All scores are clamped to [0, 1]; counter jitter and overcommit can push
the raw ratios past 1. ``score_workload`` computes all three and
``fit_mrc`` fits the curve; they are the only implementation of these
rules. Everything here is a pure function of one window, so a node agent
can smooth or aggregate on top without surprises.
"""

import functools
import math
from typing import Optional

from .model import CacheTopology, ResourceScores, TelemetrySample, llc_way_size, theoretical_max_mbw, value_type


@value_type
class MrcFit:
    """Power-law miss-ratio curve ``f(x) = coeff_a * x**exponent_b``.

    ``degenerate`` is set when the inputs cannot produce a decreasing
    curve (any non-positive or non-finite miss ratio, equal miss ratios,
    or a fitted exponent >= 0). Degenerate fits always carry
    exponent_b == 0 so the LLC score collapses to 0 instead of raising;
    scoring has to keep working online even when counters misbehave for
    a window.
    """

    coeff_a: float
    exponent_b: float
    degenerate: bool = False


@functools.lru_cache(maxsize=1024)
def _centred_log_sizes(l1_kib: float, l2_kib: float, s_eff_kib: float) -> Optional[tuple[tuple, float, float]]:
    """The x side of the three-point fit: ``ln x_i - mean``, ``Sxx`` and ``mean ln x``.

    None when the points coincide. The cache is bounded because
    allocations come from telemetry.
    """
    log_x = (math.log(l1_kib), math.log(l2_kib), math.log(s_eff_kib))
    mean_x = math.fsum(log_x) / 3
    sxx = math.fsum((lx - mean_x) ** 2 for lx in log_x)
    if sxx == 0.0:
        return None
    return tuple(lx - mean_x for lx in log_x), sxx, mean_x


def fit_mrc(
    topology: CacheTopology,
    ratios: tuple[float, float, float],
    llc_alloc_kib: Optional[float] = None,
) -> MrcFit:
    """Fit the miss-ratio curve from the three cache-level points.

    The x coordinates are the L1 and L2 sizes plus the effective LLC
    size: the current allocation when one is set, the full L3 otherwise.
    The fit is ordinary least squares of ``ln M = b0 + b1 ln x``, giving
    ``a = e**b0`` and ``b = b1``. Any non-positive or non-finite ratio,
    coinciding sizes, equal ratios or a non-negative slope give a
    degenerate fit instead of an error (``a`` is kept from ``b0`` when it
    is computable). Equal ratios are tested directly: the mean of their
    logs can miss the log in the last bit and leave a tiny negative slope.
    The x side is cached per (L1, L2, effective LLC) size.
    """
    s_eff = llc_alloc_kib if llc_alloc_kib is not None else topology.l3_size_kib
    m1, m2, m3 = ratios
    x_side = _centred_log_sizes(topology.l1_size_kib, topology.l2_size_kib, s_eff)
    if x_side is None or not (0.0 < m1 < math.inf and 0.0 < m2 < math.inf and 0.0 < m3 < math.inf):
        return MrcFit(coeff_a=1.0, exponent_b=0.0, degenerate=True)
    (dx1, dx2, dx3), sxx, mean_x = x_side
    lm1, lm2, lm3 = math.log(m1), math.log(m2), math.log(m3)
    mean_m = math.fsum((lm1, lm2, lm3)) / 3
    beta1 = math.fsum((dx1 * (lm1 - mean_m), dx2 * (lm2 - mean_m), dx3 * (lm3 - mean_m))) / sxx
    beta0 = mean_m - beta1 * mean_x
    if beta1 >= 0.0 or m1 == m2 == m3:
        return MrcFit(coeff_a=math.exp(beta0), exponent_b=0.0, degenerate=True)
    return MrcFit(coeff_a=math.exp(beta0), exponent_b=beta1)


def score_workload(
    sample: TelemetrySample, topology: CacheTopology, window_s: Optional[float] = None
) -> ResourceScores:
    """Assemble the CPU, LLC and MBW scores of one workload-window.

    A window with no memory references scores 0 on LLC while CPU and MBW
    are computed as usual. ``window_s`` is the sample's window length, when
    the caller has it. The LLC score takes the slope of the ``fit_mrc``
    curve at the effective LLC size and the measured, not the fitted, L3
    miss ratio; a degenerate fit scores 0 rather than raising.
    """
    if window_s is None:
        window_s = sample.window_s
    cpu = min(sample.cpu_user_time_s / (sample.cpu_alloc_cores * window_s), 1.0)
    alloc = sample.mbw_alloc_bytes_per_s
    if alloc is None:
        alloc = theoretical_max_mbw(topology)
    mbw = min(sample.mbw_bytes / window_s / alloc, 1.0)
    n = sample.mem_refs
    if n <= 0:
        return ResourceScores(cpu, 0.0, mbw)
    m_llc = sample.l3_miss / n
    s_alloc = sample.llc_alloc_kib
    fit = fit_mrc(topology, (sample.l1_miss / n, sample.l2_miss / n, m_llc), s_alloc)
    if fit.degenerate:
        return ResourceScores(cpu, 0.0, mbw)
    s_llc = s_alloc if s_alloc is not None else topology.l3_size_kib
    b = fit.exponent_b
    slope = fit.coeff_a * b * s_llc ** (b - 1.0)
    return ResourceScores(cpu, min(-slope * llc_way_size(topology) / m_llc, 1.0), mbw)
