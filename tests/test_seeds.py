import pytest

from spanembed.errors import InvalidArgumentError
from spanembed.seeds import SEED_MASK, child_seed, count_trials, np_rng


def draw(seed):
    """A quarter of the draws fail; the rest are three digits."""
    rng = np_rng(seed)
    if rng.random() < 0.25:
        return None
    return tuple(int(v) for v in rng.integers(0, 10, size=3))


EVENTS = [lambda t: t[0] < 5, lambda t: sum(t) > 12, lambda t: True]


def tally(indices, seed):
    """Per-trial outcomes of draw(seed ^ i), summed over ``indices``."""
    successes, hits = 0, [0] * len(EVENTS)
    for i in indices:
        outcome = draw(seed ^ i)
        if outcome is not None:
            successes += 1
            hits = [h + bool(e(outcome)) for h, e in zip(hits, EVENTS)]
    return successes, hits


@pytest.mark.parametrize("seed", [0, 7, 12345, SEED_MASK])
def test_count_trials_is_a_sum_of_per_trial_outcomes(seed):
    trials = 300
    successes, hits = count_trials(draw, EVENTS, trials, seed)
    assert 0 < successes < trials and hits[2] == successes
    assert (successes, hits) == tally(reversed(range(trials)), seed)
    evens, even_hits = tally(range(0, trials, 2), seed)
    odds, odd_hits = tally(range(1, trials, 2), seed)
    assert successes == evens + odds
    assert hits == [a + b for a, b in zip(even_hits, odd_hits)]


def test_count_trials_seeds_and_failures():
    seen = []

    def record(seed):
        seen.append(seed)
        return None if seed % 3 == 0 else frozenset()   # an empty outcome still succeeded

    successes, hits = count_trials(record, [lambda m: not m], 12, 40)
    assert seen == [40 ^ i for i in range(12)] == [child_seed(40, i) for i in range(12)]
    assert successes == sum(1 for s in seen if s % 3) == hits[0]
    assert count_trials(record, [], 0, 40) == (0, [])
    with pytest.raises(InvalidArgumentError):
        count_trials(record, [], 1, -1)
