"""Percentiles under the benchmark's sample rule."""

import math

MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank ``q``-quantile, 0 < q < 1, of ``values``.

    Failed operations enter as ``math.inf``. Raises ValueError unless at
    least ``MIN_BEYOND`` samples lie beyond the returned rank.
    """
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs) - 1e-9))
    if len(xs) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples leaves {len(xs) - rank} beyond it, "
            f"fewer than {MIN_BEYOND}"
        )
    return xs[rank - 1]


def describe(name, values, q):
    """One report line: the percentile with its sample count, or why not."""
    try:
        return f"{name} = {percentile(values, q):.4f} ms (n={len(values)})"
    except ValueError as exc:
        return f"{name} = n/a ({exc})"
