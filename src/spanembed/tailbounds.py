"""Tail bounds and confidence intervals shared by the experiment suites.

The exact binomial (Clopper–Pearson) interval's bounds are beta
quantiles, the inverse of the regularised incomplete beta function taken
from ``scipy.special.betaincinv``.  They equal ``scipy.stats.beta.ppf``
at the same quantiles bit for bit, without loading ``scipy.stats``.
"""

from __future__ import annotations

import math

from scipy.special import betaincinv

from .errors import InvalidArgumentError

CONFIDENCE = 0.99           # level of the exact binomial intervals
WILSON_Z = 1.96             # normal quantile of the Wilson interval (95%)


def hypergeo_chernoff_bound(eps: float, t: float) -> float:
    """Chernoff-style tail bound 2 exp(-eps^2 t / 3) for hypergeometric deviations.

    Valid for eps in the open interval (0, 1) and deviation scale t >= 0;
    the bound controls P(|X - E X| >= t) for eps E(X) <= t <= E(X).
    """
    if not 0 < eps < 1:
        raise InvalidArgumentError(f"eps must lie in (0, 1), got {eps}")
    if t < 0:
        raise InvalidArgumentError(f"t must be nonnegative, got {t}")
    return 2.0 * math.exp(-eps * eps * t / 3.0)


def clopper_pearson(hits: int, trials: int) -> tuple[float, float]:
    """Exact binomial interval at level CONFIDENCE for hits out of trials."""
    if trials < 0 or not 0 <= hits <= max(trials, 0):
        raise InvalidArgumentError(f"bad counts hits={hits} trials={trials}")
    if trials == 0:
        return 0.0, 1.0
    alpha = 1.0 - CONFIDENCE
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, alpha / 2))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1 - alpha / 2))
    return lo, hi


def confidence_radius(hits: int, trials: int) -> float:
    """Worst-side distance from the point estimate to the exact binomial interval."""
    if trials == 0:
        return 1.0
    p = hits / trials
    lo, hi = clopper_pearson(hits, trials)
    return max(p - lo, hi - p)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z = WILSON_Z."""
    if trials == 0:
        return 0.0, 1.0
    z = WILSON_Z
    p = hits / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
