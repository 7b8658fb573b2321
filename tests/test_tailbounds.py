import math

import numpy as np
import pytest

from spanembed.errors import InvalidArgumentError
from spanembed.tailbounds import (
    CONFIDENCE,
    clopper_pearson,
    confidence_radius,
    hypergeo_chernoff_bound,
    wilson_interval,
)


def test_hypergeo_bound_values():
    assert hypergeo_chernoff_bound(0.5, 0) == 2.0
    assert hypergeo_chernoff_bound(0.5, 12) == pytest.approx(2 * math.exp(-1))


def test_hypergeo_bound_domain():
    with pytest.raises(InvalidArgumentError):
        hypergeo_chernoff_bound(1.0, 5)
    with pytest.raises(InvalidArgumentError):
        hypergeo_chernoff_bound(0.0, 5)
    with pytest.raises(InvalidArgumentError):
        hypergeo_chernoff_bound(0.5, -1)


def test_clopper_pearson_brackets_estimate():
    lo, hi = clopper_pearson(30, 100)
    assert lo < 0.3 < hi
    assert clopper_pearson(0, 50)[0] == 0.0
    assert clopper_pearson(50, 50)[1] == 1.0
    r = confidence_radius(30, 100)
    assert 0 < r < 0.2


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi and hi - lo < 0.25
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo > 0.9


@pytest.mark.parametrize("interval", [clopper_pearson, confidence_radius, wilson_interval])
@pytest.mark.parametrize("hits, trials", [(5, 3), (2, -1), (5, 0), (-1, 4), (0, -1)])
def test_bad_counts_are_refused(interval, hits, trials):
    with pytest.raises(InvalidArgumentError, match="bad counts"):
        interval(hits, trials)


def _beta_ppf_interval(hits, trials):
    """The Clopper–Pearson bounds from ``scipy.stats.beta.ppf``, with the endpoint rules."""
    from scipy.stats import beta   # the oracle only: the library never loads scipy.stats
    alpha = 1.0 - CONFIDENCE
    with np.errstate(invalid="ignore"):
        lo = beta.ppf(alpha / 2, hits, trials - hits + 1)
        hi = beta.ppf(1 - alpha / 2, hits + 1, trials - hits)
    return np.where(hits == 0, 0.0, lo), np.where(hits == trials, 1.0, hi)


def test_clopper_pearson_equals_beta_ppf_bit_for_bit():
    pairs = [(h, t) for t in range(151) for h in range(t + 1)]
    rng = np.random.default_rng(7)
    for t in (1000, 20_000, 10 ** 6):
        pairs += [(h, t) for h in {0, 1, t // 2, t - 1, t, *rng.integers(0, t + 1, 300).tolist()}]
    hits, trials = (np.array(col) for col in zip(*pairs))
    lo, hi = _beta_ppf_interval(hits, trials)
    for h, t, want_lo, want_hi in zip(hits.tolist(), trials.tolist(), lo.tolist(), hi.tolist()):
        assert clopper_pearson(h, t) == (want_lo, want_hi), (h, t)
        p = h / t if t else 0.0     # (0, 1) at t = 0, whose radius is 1
        assert confidence_radius(h, t) == max(p - want_lo, want_hi - p), (h, t)
