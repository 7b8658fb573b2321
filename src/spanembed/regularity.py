"""Pair densities and (eps,d)-regularity / super-regularity checking.

A pair (A,B) is (eps,d)-regular when d(A,B) >= d - eps and every
sub-pair (A',B') with |A'| >= eps|A| and |B'| >= eps|B| has density
within eps of d(A,B).  Note the d - eps convention on the base density;
the checkers follow it exactly, and tests that could be sensitive to a
d-versus-(d-eps) reading say so in their names.

Deciding regularity is co-exponential, so part size picks the method.
A pair whose parts both have at most EXACT_LIMIT = 14 vertices is
decided exactly from the degrees of A into every qualifying B'.  A
larger pair is refuted only by its base density; otherwise it gets the
singular-value certificate of Alon, Duke, Lefmann, Rodl and Yuster
(1994): with M the pair's biadjacency matrix minus its density d0,
every sub-pair has |e(A',B') - d0|A'||B'|| <= ||M||_2 sqrt(|A'||B'|),
so one spectral norm below eps sqrt(|A'||B'|) at the smallest
qualifying sides certifies every sub-pair at once.  A larger norm
proves nothing, and the pair stays inconclusive.  Nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graphs import Graph, mask_of, subset_rows

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


def check_regular_pair(g: Graph, a_side: Iterable[int], b_side: Iterable[int],
                       params: RegPairParams) -> PairVerdict:
    """Certify, refute, or stay inconclusive about (eps,d)-regularity.

    A pair whose parts both have at most EXACT_LIMIT vertices is decided
    exactly: it is certified, or refuted with a witness.  A larger pair
    is refuted only by its base density; otherwise the spectral
    certificate certifies it or leaves it inconclusive.
    """
    aa, bb = _check_sides(g, a_side, b_side)
    if len(aa) <= EXACT_LIMIT and len(bb) <= EXACT_LIMIT:
        return _check_exact(g, aa, bb, params)
    return _check_spectral(g, aa, bb, params)


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


def _check_spectral(g: Graph, aa: list[int], bb: list[int], params: RegPairParams) -> PairVerdict:
    """Certified iff ||M||_2 < eps sqrt(ka kb) (1 - 1e-9), M = A - d0 J; else inconclusive.

    ka and kb are the smallest sides subset_rows counts as qualifying, so
    this and the exact check read |A'| >= eps|A| alike; the margin covers
    LAPACK's backward error.  The SVD costs O(|A||B| min(|A|,|B|)): a
    whole check took 0.3-0.7, 0.9-1.5, 4, 19-21 and 137-150 ms on square
    pairs of 60, 100, 200, 400 and 800 per side (2-core VM), against 3.2,
    4.7, 9, 19 and 37-54 ms for the 100-sample refuter it replaced.
    """
    e0, bad = _base_density_refutation(g, aa, bb, params)
    if bad:
        return bad
    na, nb = len(aa), len(bb)
    sub = g.adjacency_matrix()[np.ix_(aa, bb)]
    norm = float(np.linalg.norm(sub - e0 / (na * nb), 2))
    bound = params.eps * math.sqrt(math.ceil(params.eps * na) * math.ceil(params.eps * nb))
    kind = CERTIFIED if norm < bound * (1 - 1e-9) else INCONCLUSIVE
    return PairVerdict(kind, detail=f"spectral norm {norm:.4f} against bound {bound:.4f}")


def check_super_regular_pair(g: Graph, a_side: Iterable[int], b_side: Iterable[int],
                             params: RegPairParams) -> PairVerdict:
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
    return check_regular_pair(g, aa, bb, params)
