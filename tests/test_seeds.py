import numpy as np
import pytest

from spanembed.errors import InvalidArgumentError
from spanembed.seeds import (
    SEED_MASK,
    block_integers,
    child_seed,
    count_trials,
    np_rng,
    trial_draws,
)


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


def test_trial_draws_run_in_trial_order_on_demand():
    seen = []
    runs = trial_draws(lambda seed: seen.append(seed) or -seed, 5, 40)
    assert seen == []                     # a trial draws when it is read
    assert next(runs) == -40 and seen == [40]
    assert list(runs) == [-(40 ^ i) for i in range(1, 5)]
    assert seen == [child_seed(40, i) for i in range(5)]


# bound sequences: k = 1 takes no word; 3 * 2^30 rejects about a quarter of
# all words; 2^32 - 1 is the largest bound the 32-bit rule serves
BOUNDS = {
    "one": [1, 1, 5, 1, 1, 9],
    "small": [2, 3, 7, 100, 226, 13, 1, 64, 255, 2, 3] * 4,
    "three-quarters": [3 << 30] * 40,
    "near-2^32": [(1 << 32) - 1] * 12,
    "mixed": [1, 3 << 30, 17, (1 << 32) - 1, 1, 226, 3 << 30, 2] * 5,
}


@pytest.mark.parametrize("name", sorted(BOUNDS))
@pytest.mark.parametrize("block", [1, 5, 1000])
def test_block_integers_equal_generator_integers(name, block):
    # the pick sequence rga_embed relies on: after a choice without replacement,
    # every pick equals the Generator.integers(k) call it replaces; blocks of 1
    # and 5 words run out and are refilled from the same generator
    bounds = BOUNDS[name]
    for seed in (0, 1, 2025, SEED_MASK):
        ref, fast = np_rng(seed), np_rng(seed)
        ref.choice(60, size=15, replace=False)
        fast.choice(60, size=15, replace=False)
        want = [int(ref.integers(k)) for k in bounds]
        pick = block_integers(fast, block)
        got = [pick(k) for k in bounds]
        assert got == want, (
            f"block_integers no longer reproduces Generator.integers on bounds {name!r} "
            f"under numpy {np.__version__}: numpy's bounded-integer algorithm changed, "
            f"and pipeline trials drawn with it no longer match the recorded ones")


def test_block_integers_reject_and_refill():
    # at k = 3 * 2^30 a pick rejects about a quarter of the words, so 40 picks
    # read past a block of 40 words; at k = 1 no word is read at all
    ref = np_rng(7)
    for _ in range(40):
        ref.integers(3 << 30)
    words_only = np_rng(7)
    words_only.integers(0, 1 << 32, size=40, dtype=np.uint32)
    assert ref.bit_generator.state != words_only.bit_generator.state
    untouched = np_rng(7)
    ref = np_rng(7)
    for _ in range(10):
        assert ref.integers(1) == 0
    assert ref.bit_generator.state == untouched.bit_generator.state
    pick = block_integers(np_rng(7), 0)
    assert [pick(1) for _ in range(5)] == [0] * 5
    for bad in (0, -1, 1 << 32):
        with pytest.raises(InvalidArgumentError):
            pick(bad)
