"""Seed contract for every randomized operation.

All randomized operations are pure functions of (inputs, seed), with the
seed a 64-bit unsigned integer.  Trial ``i`` of an estimate runs at the
child seed ``seed XOR i``, and ``count_trials`` is the one loop that
applies the rule; within a single operation, further randomness is
drawn sequentially from one generator seeded with the operation's seed.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

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


def count_trials(draw: Callable[[int], Any], events: Sequence[Callable[[Any], bool]],
                 trials: int, seed: int) -> tuple[int, list[int]]:
    """Trial ``i`` calls ``draw(child_seed(seed, i))``; a draw of ``None`` failed.

    Returns the number of successful draws and, for each event, how many
    of them it holds on.  Each count is a sum of per-trial outcomes.
    """
    successes, hits = 0, [0] * len(events)
    for i in range(trials):
        outcome = draw(child_seed(seed, i))
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


def fresh_seed(rng: random.Random) -> int:
    """Draw an unstructured 64-bit seed for a nested randomized call."""
    return rng.getrandbits(64)
