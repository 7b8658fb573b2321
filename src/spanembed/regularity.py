"""Pair densities and (eps,d)-regularity / super-regularity checking.

A pair (A,B) is (eps,d)-regular when d(A,B) >= d - eps and every
sub-pair (A',B') with |A'| >= eps|A| and |B'| >= eps|B| has density
within eps of d(A,B).  Note the d - eps convention on the base density;
the checkers follow it exactly, and tests that could be sensitive to a
d-versus-(d-eps) reading say so in their names.

Deciding regularity is co-exponential, so part size picks the method.
A pair whose parts both have at most EXACT_LIMIT = 14 vertices is
decided exactly from the degrees of A into every qualifying B'; a
larger pair goes to a randomized refuter that samples qualifying
sub-pairs and can only ever refute or stay inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graphs import Graph, mask_of, subset_rows
from .seeds import py_rng

EXACT_LIMIT = 14

CERTIFIED = "certified-regular"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RegPairParams:
    eps: float
    d: float

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise InvalidArgumentError(f"eps must lie in (0, 1], got {self.eps}")
        if not 0 <= self.d <= 1:
            raise InvalidArgumentError(f"d must lie in [0, 1], got {self.d}")


@dataclass(frozen=True)
class PairVerdict:
    kind: str
    witness_a: tuple[int, ...] | None = None
    witness_b: tuple[int, ...] | None = None
    detail: str = ""

    @property
    def refuted(self) -> bool:
        return self.kind == REFUTED


def _check_sides(g: Graph, a_side: Iterable[int], b_side: Iterable[int]) -> tuple[list[int], list[int]]:
    aa, bb = sorted(set(a_side)), sorted(set(b_side))
    if not aa or not bb:
        raise InvalidArgumentError("pair sides must be nonempty")
    if set(aa) & set(bb):
        raise InvalidArgumentError("pair sides must be disjoint")
    for v in (aa[0], aa[-1], bb[0], bb[-1]):
        if not 0 <= v < g.n:
            raise InvalidArgumentError(f"vertex {v} outside graph range")
    return aa, bb


def edge_count(g: Graph, a_side: Sequence[int], b_mask: int) -> int:
    return sum((g.adj[a] & b_mask).bit_count() for a in a_side)


def density(g: Graph, a_side: Iterable[int], b_side: Iterable[int]) -> float:
    """|E(A,B)| / (|A| |B|) for disjoint nonempty vertex sets."""
    aa, bb = _check_sides(g, a_side, b_side)
    return edge_count(g, aa, mask_of(bb)) / (len(aa) * len(bb))


def check_regular_pair(
    g: Graph,
    a_side: Iterable[int],
    b_side: Iterable[int],
    params: RegPairParams,
    trials: int = 200,
    seed: int = 0,
) -> PairVerdict:
    """Certify, refute, or stay inconclusive about (eps,d)-regularity.

    A pair whose parts both have at most EXACT_LIMIT vertices is decided
    exactly: it is certified, or refuted with a witness.  A larger pair
    goes to the refuter, which samples ``trials`` random qualifying
    sub-pairs and returns either a refutation or inconclusive.
    """
    aa, bb = _check_sides(g, a_side, b_side)
    if len(aa) <= EXACT_LIMIT and len(bb) <= EXACT_LIMIT:
        return _check_exact(g, aa, bb, params)
    return _check_refute(g, aa, bb, params, trials, seed)


def _base_density_refutation(g, aa, bb, params):
    e0 = edge_count(g, aa, mask_of(bb))
    if e0 < (params.d - params.eps) * len(aa) * len(bb):
        return e0, PairVerdict(REFUTED, tuple(aa), tuple(bb), detail="base density below d - eps")
    return e0, None


def _check_exact(g: Graph, aa: list[int], bb: list[int], params: RegPairParams) -> PairVerdict:
    """Decide regularity from the degrees of every a into every qualifying B'.

    For fixed B' and k, e(A', B') over all |A'| = k lies between the sum
    of the k lowest and the sum of the k highest degrees into B', both
    attained, and the deviation |e' |A||B| - e0 |A'||B'|| is convex in
    e', so it peaks at one of those two ends.
    """
    e0, bad = _base_density_refutation(g, aa, bb, params)
    if bad:
        return bad
    na, nb = len(aa), len(bb)
    ab = na * nb
    adj = np.array([[g.adj[a] >> b & 1 for b in bb] for a in aa], dtype=float)
    b_rows = subset_rows(nb, params.eps * nb)
    degs = adj @ b_rows.T                       # (na, qualifying B'): exact small ints
    low = np.zeros((na + 1, len(b_rows)))
    np.cumsum(np.sort(degs, axis=0), axis=0, out=low[1:])   # low[k]: k lowest degrees
    ks = np.arange(1, na + 1)
    ks = ks[ks >= params.eps * na]
    ends = np.stack([low[ks], low[na] - low[na - ks]])      # k lowest, k highest
    sizes = ks[:, None] * b_rows.sum(axis=1)[None, :]
    # |e' * |A||B| - e0 * |A'||B'|| > eps * |A||B| * |A'||B'| ?
    dev = np.abs(ends * ab - e0 * sizes)
    viol = dev > params.eps * ab * sizes
    if not viol.any():
        return PairVerdict(CERTIFIED)
    # witness: the violating sub-pair whose density deviates most
    end, i, j = np.unravel_index(np.argmax(np.where(viol, dev / sizes, -1)), viol.shape)
    k = int(ks[i])
    order = np.argsort(degs[:, j], kind="stable")
    members = order[:k] if end == 0 else order[na - k:]
    wa = tuple(aa[m] for m in sorted(members.tolist()))
    wb = tuple(bb[m] for m in np.flatnonzero(b_rows[j]).tolist())
    return PairVerdict(REFUTED, wa, wb, detail="sub-pair density deviates")


def _check_refute(g, aa, bb, params, trials, seed) -> PairVerdict:
    e0, bad = _base_density_refutation(g, aa, bb, params)
    if bad:
        return bad
    na, nb = len(aa), len(bb)
    d0 = e0 / (na * nb)
    lo_a = max(1, int(np.ceil(params.eps * na)))
    lo_b = max(1, int(np.ceil(params.eps * nb)))
    rng = py_rng(seed)
    for _ in range(trials):
        ka = rng.randint(lo_a, na)
        kb = rng.randint(lo_b, nb)
        sub_a = rng.sample(aa, ka)
        sub_b = rng.sample(bb, kb)
        e = edge_count(g, sub_a, mask_of(sub_b))
        if abs(e / (ka * kb) - d0) > params.eps:
            return PairVerdict(REFUTED, tuple(sorted(sub_a)), tuple(sorted(sub_b)),
                               detail="sampled sub-pair density deviates")
    return PairVerdict(INCONCLUSIVE, detail=f"no refutation in {trials} samples")


def check_super_regular_pair(
    g: Graph,
    a_side: Iterable[int],
    b_side: Iterable[int],
    params: RegPairParams,
    trials: int = 200,
    seed: int = 0,
) -> PairVerdict:
    """Minimum-degree conditions on both sides, then delegate to regularity.

    Every vertex needs at least (d - eps) |other side| neighbours across
    the pair.  A failing vertex refutes immediately with that vertex as
    witness; otherwise the verdict is whatever check_regular_pair says.
    """
    aa, bb = _check_sides(g, a_side, b_side)
    need_b = (params.d - params.eps) * len(bb)
    need_a = (params.d - params.eps) * len(aa)
    mask_a, mask_b = mask_of(aa), mask_of(bb)
    for a in aa:
        if (g.adj[a] & mask_b).bit_count() < need_b:
            return PairVerdict(REFUTED, (a,), tuple(bb), detail="vertex degree below (d-eps)|B|")
    for b in bb:
        if (g.adj[b] & mask_a).bit_count() < need_a:
            return PairVerdict(REFUTED, tuple(aa), (b,), detail="vertex degree below (d-eps)|A|")
    return check_regular_pair(g, aa, bb, params, trials=trials, seed=seed)
