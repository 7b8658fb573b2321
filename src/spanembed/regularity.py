"""Pair densities and (eps,d)-regularity / super-regularity checking.

A pair (A,B) is (eps,d)-regular when d(A,B) >= d - eps and every
sub-pair (A',B') with |A'| >= eps|A| and |B'| >= eps|B| has density
within eps of d(A,B).  Note the d - eps convention on the base density;
the checkers follow it exactly, and tests that could be sensitive to a
d-versus-(d-eps) reading say so in their names.

Deciding regularity is co-exponential, so there are two modes: exact
enumeration of every qualifying sub-pair (parts of size at most 14
only), and a randomized refuter that samples qualifying sub-pairs and
can only ever refute or stay inconclusive.  A third degree/codegree
summary is provided for convenience and certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError, UnsupportedSizeError
from .graphs import Graph, bits, mask_of
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
    def certified(self) -> bool:
        return self.kind == CERTIFIED

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
    mode: str = "exact",
    trials: int = 200,
    seed: int = 0,
) -> PairVerdict:
    """Certify, refute, or stay inconclusive about (eps,d)-regularity.

    Exact mode enumerates all qualifying sub-pairs and either certifies
    or returns a refuting witness; it refuses parts larger than
    EXACT_LIMIT.  Refute mode samples ``trials`` random qualifying
    sub-pairs and returns either a refutation or inconclusive.
    """
    aa, bb = _check_sides(g, a_side, b_side)
    if mode == "exact":
        if len(aa) > EXACT_LIMIT or len(bb) > EXACT_LIMIT:
            raise UnsupportedSizeError(
                f"exact mode supports parts up to {EXACT_LIMIT}, got {len(aa)}+{len(bb)}"
            )
        return _check_exact(g, aa, bb, params)
    if mode == "refute":
        return _check_refute(g, aa, bb, params, trials, seed)
    raise InvalidArgumentError(f"unknown mode {mode!r}")


def _base_density_refutation(g, aa, bb, params):
    e0 = edge_count(g, aa, mask_of(bb))
    if e0 < (params.d - params.eps) * len(aa) * len(bb):
        return e0, PairVerdict(REFUTED, tuple(aa), tuple(bb), detail="base density below d - eps")
    return e0, None


def _check_exact(g: Graph, aa: list[int], bb: list[int], params: RegPairParams) -> PairVerdict:
    na, nb = len(aa), len(bb)
    e0, bad = _base_density_refutation(g, aa, bb, params)
    if bad:
        return bad
    # adjacency of each a-vertex as a bitmask over positions in bb
    pos_b = {v: i for i, v in enumerate(bb)}
    rows = []
    for a in aa:
        r = 0
        for v in bits(g.adj[a] & mask_of(bb)):
            r |= 1 << pos_b[v]
        rows.append(r)

    pop_b = _popcounts(nb)
    pop_a = _popcounts(na)
    sizes_b = pop_b.astype(np.int64)
    sizes_a = pop_a.astype(np.int64)
    qual_b = np.flatnonzero(sizes_b >= params.eps * nb)
    qual_a = np.flatnonzero(sizes_a >= params.eps * na)
    if len(qual_a) == 0 or len(qual_b) == 0:
        return PairVerdict(CERTIFIED, detail="no qualifying sub-pairs")

    # membership matrix of qualifying A-subsets: (num_qual_a, na)
    amask = qual_a.astype(np.uint32)
    a_members = ((amask[:, None] >> np.arange(na, dtype=np.uint32)) & 1).astype(np.float32)
    sa = sizes_a[qual_a].astype(np.float64)
    ab = na * nb
    row_arr = np.array(rows, dtype=np.uint32)

    chunk = 2048
    for start in range(0, len(qual_b), chunk):
        bmask = qual_b[start:start + chunk].astype(np.uint32)
        # per a-vertex degree into each B-subset of the chunk
        degs = pop_b[(row_arr[:, None] & bmask[None, :])].astype(np.float32)
        counts = a_members @ degs                       # exact small ints
        sb = sizes_b[qual_b[start:start + chunk]].astype(np.float64)
        # |e' * |A||B| - e0 * |A'||B'|| > eps * |A||B| * |A'||B'| ?
        lhs = np.abs(counts.astype(np.float64) * ab - e0 * (sa[:, None] * sb[None, :]))
        rhs = params.eps * ab * (sa[:, None] * sb[None, :])
        viol = lhs > rhs
        if viol.any():
            i, j = np.argwhere(viol)[0]
            wa = tuple(aa[k] for k in range(na) if (int(qual_a[i]) >> k) & 1)
            wb = tuple(bb[k] for k in range(nb) if (int(qual_b[start + j]) >> k) & 1)
            return PairVerdict(REFUTED, wa, wb, detail="sub-pair density deviates")
    return PairVerdict(CERTIFIED)


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
    mode: str = "exact",
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
    return check_regular_pair(g, aa, bb, params, mode=mode, trials=trials, seed=seed)


def _popcounts(nbits: int) -> np.ndarray:
    """Popcount lookup for all masks on nbits bits."""
    size = 1 << nbits
    out = np.zeros(size, dtype=np.uint8)
    for b in range(nbits):
        out[1 << b: 1 << (b + 1)] = out[: 1 << b] + 1
    return out
