"""Seed contract for every randomized operation.

All randomized operations are pure functions of (inputs, seed), with the
seed a 64-bit unsigned integer.  Trial ``i`` of an estimate runs at the
child seed ``seed XOR i``; ``trial_draws`` is the one loop that applies
the rule, and ``count_trials`` sums over it.  Within one operation,
further randomness is drawn sequentially from one generator seeded with
the operation's seed.

Nearby seeds share trials: ``seed XOR i`` permutes the block of indices
below 2^k, so every estimate at a seed below 2^k runs trials 0..2^k-1 on
the same set of child seeds, only in another order.  Replicates of an
estimate should therefore use seeds that differ in high bits (for
instance ``r << 32`` for replicate r), not consecutive small seeds.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError

SEED_MASK = (1 << 64) - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidArgumentError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed <= SEED_MASK:
        raise InvalidArgumentError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def child_seed(seed: int, index: int) -> int:
    """Child seed for trial ``index``: the documented rule is seed XOR index."""
    return check_seed(seed) ^ (index & SEED_MASK)


def trial_draws(draw: Callable[[int], Any], trials: int, seed: int) -> Iterator[Any]:
    """``draw(child_seed(seed, i))`` for trials i = 0 .. trials-1, in trial order."""
    for i in range(trials):
        yield draw(child_seed(seed, i))


def count_trials(draw: Callable[[int], Any], events: Sequence[Callable[[Any], bool]],
                 trials: int, seed: int) -> tuple[int, list[int]]:
    """Counts over ``trial_draws(draw, trials, seed)``; a draw of ``None`` failed.

    Returns the number of successful draws and, for each event, how many
    of them it holds on.  Each count is a sum of per-trial outcomes.
    """
    successes, hits = 0, [0] * len(events)
    for outcome in trial_draws(draw, trials, seed):
        if outcome is None:
            continue
        successes += 1
        for k, event in enumerate(events):
            hits[k] += bool(event(outcome))
    return successes, hits


def py_rng(seed: int) -> random.Random:
    return random.Random(check_seed(seed))


def np_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(check_seed(seed))


def block_integers(rng: np.random.Generator, size: int) -> Callable[[int], int]:
    """Picks equal to ``rng.integers(k)``, drawn from one block of 32-bit words.

    A scalar ``Generator.integers(k)`` call costs about 1.7 us, most of it
    call overhead, which dominates a loop of a few hundred picks.  For k
    below 2^32 numpy draws a pick with Lemire's bounded method on its
    32-bit word stream ("Fast Random Integer Generation in an Interval",
    ACM TOMACS 2019; ``buffered_bounded_lemire_uint32`` in numpy's
    ``distributions.c``): a bound of 1 takes no word, a word w maps to
    ``(w * k) >> 32`` and is rejected, taking the next word, while its low
    32 bits fall below ``(2^32 - k) % k``.  This reproduces that rule on
    ``size`` words drawn at once with ``integers(0, 2^32, dtype=uint32)``,
    which reads the same word stream, and draws further blocks from
    ``rng`` when they run out.  So the j-th call ``pick(k)`` returns what
    the j-th of a sequence of ``rng.integers(k)`` calls would, but the
    generator is left ahead by the unused words of the block: use it
    only where ``rng`` draws nothing after the picks.
    ``tests/test_seeds.py`` pins the equality against numpy.
    """
    block = max(1, size)
    words = rng.integers(0, 1 << 32, size=block, dtype=np.uint32).tolist()
    at = 0

    def pick(k: int) -> int:
        nonlocal words, at
        if k == 1:
            return 0
        if not 1 <= k < 1 << 32:
            raise InvalidArgumentError(f"bound must lie in [1, 2^32), got {k}")
        while True:
            if at == len(words):
                words = rng.integers(0, 1 << 32, size=block, dtype=np.uint32).tolist()
                at = 0
            m = words[at] * k
            at += 1
            if m & 0xFFFFFFFF >= (0x100000000 - k) % k:
                return m >> 32

    return pick


def fresh_seed(rng: random.Random) -> int:
    """Draw an unstructured 64-bit seed for a nested randomized call."""
    return rng.getrandbits(64)
