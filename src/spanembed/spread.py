"""Coupled random-subgraph sampling and spread perfect matchings.

Given a balanced bipartite candidate graph F on A and B with |A| = |B|
= lam, the coupled sample is Z = Z1 union Z2 where Z1 keeps each edge
of F independently with probability C/lam and Z2 gives every vertex C
neighbour draws, uniform with replacement.  If Z satisfies Hall's
condition, a maximum matching of Z is a perfect matching of F whose
per-edge inclusion probability inherits the O(C/lam) bound of Z, for
the bound uses only that the matching lies inside Z; conditioning on a
successful draw costs at most a factor two when the failure rate stays
below one half.  The sampler matches Z under a fresh random relabelling
of both sides, so that no fixed vertex order decides which of Z's
perfect matchings comes out and the vertex spread stays flat.

F, Z1 and Z2 are lam x lam boolean matrices, row a and column b
standing for the edge (a, b).  Row-major order of the nonzero entries
is sorted edge order, and each row (column) lists a vertex's
neighbours in ascending order.  Each instance reads these orders off
its matrix once, into a draw plan: the entries in row-major and in
column-major order, and every vertex's neighbour-list start and
degree, A-side then B-side.  A draw then takes one ``random`` call for
Z1 and one ``integers`` call, with one bound per neighbour draw, for
Z2; this yields the same documented stream as one call per vertex.
The edge set is a view derived from the matrix on first use, for
callers that read edges.

The FB1-FB3 parameter record bounds degrees and expansion of F:

* FB1: every a in A has degree at least (1/2) d^b lam,
* FB2: every v in B has degree at least (d^Delta/100)^b lam,
* FB3: for every W in B with |W| >= (rho/mu) lam, at most (rho/mu) lam
  vertices of A have fewer than (1/2) d^b |W| neighbours in W.

FB3 is exhaustively checkable only for lam <= 14; above that it is
spot-checked on sampled W.  Degrees are row and column sums of F, and
the degrees of all A-vertices into all candidate sets W come from one
matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .graphs import GRAPH_MAX_N, int_pairs, subset_rows
from .matching import UNMATCHED, bipartite_matching, hall_check
from .seeds import count_trials, fresh_seed, np_rng, py_rng
from .tailbounds import confidence_radius

FB3_EXACT_LIMIT = 14
FB3_SPOT_SAMPLES = 1000

BipEdge = tuple[int, int]   # (a-index, b-index), both in [0, lam)


@dataclass(frozen=True)
class FBParams:
    d: float
    b: int
    rho: float
    mu: float
    delta: int      # maximum pattern degree; FB2 and the C' constant need it

    def __post_init__(self):
        if not 0 < self.d <= 1:
            raise InvalidArgumentError(f"d must lie in (0,1], got {self.d}")
        if not 1 <= self.b <= self.delta:
            raise InvalidArgumentError(f"b must lie in [1, delta], got {self.b}")
        if not 0 < self.mu < 1:
            raise InvalidArgumentError(f"mu must lie in (0,1), got {self.mu}")
        if not 0 < self.rho:
            raise InvalidArgumentError(f"rho must be positive, got {self.rho}")


def _edge_set(mat: np.ndarray) -> frozenset[BipEdge]:
    """The edges (a, b) of a boolean bipartite matrix."""
    rows, cols = np.nonzero(mat)
    return frozenset(zip(rows.tolist(), cols.tolist()))


class _DrawPlan(NamedTuple):
    """F's entries as the coupled sampler reads them, computed once per instance.

    ``rows`` and ``cols`` hold the m entries (a, b) in row-major order,
    then the same entries in column-major order.  ``starts`` and
    ``degs`` locate the neighbour list of every non-isolated A-vertex,
    vertices in ascending order, as a start offset into the first half
    and a degree; then those of every non-isolated B-vertex, as offsets
    into the second half.
    """

    m: int
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    degs: np.ndarray


def _draw_plan(mat: np.ndarray) -> _DrawPlan:
    rows, cols = np.nonzero(mat)        # row-major: sorted edge order
    t_cols, t_rows = np.nonzero(mat.T)  # column-major
    lam = len(mat)
    deg = np.concatenate([np.bincount(rows, minlength=lam), np.bincount(t_cols, minlength=lam)])
    start = np.cumsum(deg) - deg
    has = deg > 0
    return _DrawPlan(len(rows), np.concatenate([rows, t_rows]), np.concatenate([cols, t_cols]),
                     start[has], deg[has])


class FBInstance:
    """Balanced bipartite candidate graph with its FB parameter record.

    ``edges`` is either an iterable of (a, b) pairs or a lam x lam
    boolean matrix, which is kept as ``mat`` without a copy.  The edge
    set ``edges`` and the coupled sampler's draw plan are computed from
    ``mat`` once, on first use, so ``mat`` must not be mutated after
    construction.
    """

    __slots__ = ("lam", "mat", "params", "_edges", "_plan")

    def __init__(self, lam: int, edges: Iterable[BipEdge] | np.ndarray, params: FBParams):
        if lam < 0:
            raise InvalidArgumentError("side size must be nonnegative")
        if isinstance(edges, np.ndarray):
            if edges.dtype != bool or edges.shape != (lam, lam):
                raise InvalidArgumentError(
                    f"candidate matrix must be {lam}x{lam} bool, got {edges.shape} {edges.dtype}")
            mat = edges
        else:
            mat = np.zeros((lam, lam), dtype=bool)
            for a, b in edges:
                if not (0 <= a < lam and 0 <= b < lam):
                    raise InvalidArgumentError(f"edge ({a},{b}) outside side range [0,{lam})")
                mat[a, b] = True
        self.lam = lam
        self.mat = mat
        self.params = params
        self._edges = None
        self._plan = None

    @property
    def edges(self) -> frozenset[BipEdge]:
        if self._edges is None:
            self._edges = _edge_set(self.mat)
        return self._edges

    def __repr__(self):
        return f"FBInstance(lam={self.lam}, m={int(self.mat.sum())})"


@dataclass(frozen=True)
class FBReport:
    fb1_ok: bool
    fb2_ok: bool
    fb3_ok: bool
    fb3_exact: bool
    detail: str = ""

    @property
    def all_ok(self) -> bool:
        return self.fb1_ok and self.fb2_ok and self.fb3_ok


def check_fb_conditions(f: FBInstance, seed: int = 0,
                        spot_samples: int = FB3_SPOT_SAMPLES) -> FBReport:
    """Verify FB1-FB3; FB3 exhaustively for lam <= 14, else spot-checked.

    The exact check takes every W of size at least (rho/mu) lam in
    increasing bitmask order (bit b for vertex b); the spot check draws
    ``spot_samples`` sets from ``py_rng(seed)``, each a size
    ``randint(ceil((rho/mu) lam), lam)`` and then ``sample(range(lam),
    size)``.  ``detail`` names the first W that fails FB3.
    """
    if spot_samples < 0:
        raise InvalidArgumentError(f"spot_samples must be >= 0, got {spot_samples}")
    p = f.params
    lam = f.lam
    fb1_floor = 0.5 * (p.d ** p.b) * lam
    fb2_floor = ((p.d ** p.delta) / 100.0) ** p.b * lam
    fb1 = bool((f.mat.sum(axis=1) >= fb1_floor).all())
    fb2 = bool((f.mat.sum(axis=0) >= fb2_floor).all())

    ratio = p.rho / p.mu
    w_floor = ratio * lam
    bad_cap = ratio * lam
    exact = lam <= FB3_EXACT_LIMIT
    if exact:
        ws = subset_rows(lam, w_floor)
    else:
        rng = py_rng(seed)
        lo = max(1, int(-(-w_floor // 1)))
        ws = np.zeros((spot_samples, lam))
        for w in ws:
            w_size = rng.randint(lo, lam)
            w[rng.sample(range(lam), w_size)] = 1
    w_sizes = ws.sum(axis=1)
    degrees = f.mat.astype(float) @ ws.T     # of every a into every W; small integers, exact
    bad = np.count_nonzero(degrees < 0.5 * (p.d ** p.b) * w_sizes, axis=0)
    failing = np.flatnonzero(bad > bad_cap)
    fb3 = failing.size == 0
    detail = ""
    if not fb3:
        where = "at" if exact else "on sampled"
        detail = f"FB3 fails {where} |W|={int(w_sizes[failing[0]])}"
    return FBReport(fb1, fb2, fb3, exact, detail)


# -- the coupled measure ----------------------------------------------


@dataclass(frozen=True, eq=False)
class CoupledSample:
    """Z1 and Z2 as lam x lam boolean matrices, with edge-set views.

    Compare samples through their edge sets; arrays have no single truth value.
    """

    z1_mat: np.ndarray
    z2_mat: np.ndarray

    @property
    def z_mat(self) -> np.ndarray:
        return self.z1_mat | self.z2_mat

    @property
    def z1(self) -> frozenset[BipEdge]:
        return _edge_set(self.z1_mat)

    @property
    def z2(self) -> frozenset[BipEdge]:
        return _edge_set(self.z2_mat)

    @property
    def z(self) -> frozenset[BipEdge]:
        return _edge_set(self.z_mat)


def sample_coupled(f: FBInstance, c: int, seed: int) -> CoupledSample:
    """One draw of Z1 (binomial, prob C/lam) and Z2 (C neighbour draws each).

    Deterministic given the seed.  The generator seeded with ``seed``
    gives, in this order: one uniform per edge in sorted edge order
    (the edge is in Z1 when its uniform is below C/lam); then C neighbour
    indices for every A-vertex with a neighbour, vertices in ascending
    order; then the same for every B-vertex.  A neighbour index counts
    into the vertex's ascending neighbour list.  Requires 1 <= C <= lam
    so the binomial edge probability stays at most one.
    """
    if c < 1:
        raise InvalidArgumentError(f"C must be >= 1, got {c}")
    if f.lam < 1:
        raise InvalidArgumentError("instance must be nonempty")
    if c > f.lam:
        raise InvalidArgumentError(f"C = {c} exceeds lam = {f.lam}; edge probability would exceed 1")
    rng = np_rng(seed)
    plan = f._plan
    if plan is None:
        plan = f._plan = _draw_plan(f.mat)
    keep = np.flatnonzero(rng.random(plan.m) < c / f.lam)
    z1 = np.zeros(f.mat.shape, dtype=bool)
    z1[plan.rows[keep], plan.cols[keep]] = True
    # one bound per draw, A-side then B-side: bounded draws keep their 32-bit
    # buffer in the bit generator, so one call yields the stream of one call
    # of size C per vertex
    picks = np.repeat(plan.starts, c) + rng.integers(0, np.repeat(plan.degs, c))
    z2 = np.zeros(f.mat.shape, dtype=bool)
    z2[plan.rows[picks], plan.cols[picks]] = True
    return CoupledSample(z1, z2)


def default_coupling_constant(f: FBInstance) -> int:
    """Default C = ceil(8 / d^b), capped at lam to keep C/lam a probability."""
    p = f.params
    c = int(-(-8.0 / (p.d ** p.b) // 1))
    return max(1, min(c, f.lam))


def per_edge_union_bound(f: FBInstance, c: int) -> float:
    """Analytic bound on P(e in Z): C/lam + 2C/(d^b lam) + (100/d^Delta)^b C/lam."""
    p = f.params
    lam = f.lam
    return c / lam + 2 * c / ((p.d ** p.b) * lam) + ((100.0 / (p.d ** p.delta)) ** p.b) * c / lam


def two_cprime_over_lambda(f: FBInstance, c: int) -> float:
    """The clean form 2 C' / lam with C' = C (200/d^Delta)^b."""
    p = f.params
    cprime = c * (200.0 / (p.d ** p.delta)) ** p.b
    return 2 * cprime / f.lam


# -- matchings from coupled samples -----------------------------------


@dataclass(frozen=True)
class MatchingDraw:
    ok: bool
    matching: frozenset[BipEdge] | None
    draws: int
    hall_witness: tuple[int, ...] | None = None


def canonical_matching(z: np.ndarray) -> tuple[int, frozenset[BipEdge]]:
    """Deterministic maximum matching of a lam x lam boolean matrix: ``bipartite_matching`` of it."""
    mate = bipartite_matching(z).tolist()
    m = frozenset((a, b) for a, b in enumerate(mate) if b != UNMATCHED)
    return len(m), m


def sample_spread_matching(f: FBInstance, c: int, max_resamples: int, seed: int) -> MatchingDraw:
    """Draw coupled samples until one satisfies Hall, then match it under a random relabelling.

    The generator ``py_rng(seed)`` gives, for each draw in turn: the
    seed of its coupled sample Z; then ``randbytes(16 * lam)``, read as
    2 lam little-endian 64-bit keys, whose first and second halves
    stably argsort to a permutation pa of A and pb of B.  The draw takes
    the canonical matching of the relabelled ``Z[pa][:, pb]`` and maps
    each pair (i, j) back to (pa[i], pb[j]), so the matching lies in Z.
    Resampling beyond the first draw is a practical extension; the
    spread suites verify the bound under the actual resampling policy
    rather than assuming the analysis factor.
    """
    if max_resamples < 0:
        raise InvalidArgumentError(f"max_resamples must be >= 0, got {max_resamples}")
    lam = f.lam
    if lam == 0:
        return MatchingDraw(True, frozenset(), 1)
    rng = py_rng(seed)
    draws = 0
    while draws <= max_resamples:
        z = sample_coupled(f, c, fresh_seed(rng)).z_mat
        draws += 1
        keys = np.frombuffer(rng.randbytes(16 * lam), dtype="<u8").reshape(2, lam)
        pa, pb = np.argsort(keys, kind="stable")
        size, matching = canonical_matching(z[pa][:, pb])
        if size == lam:
            pa, pb = pa.tolist(), pb.tolist()
            return MatchingDraw(True, frozenset((pa[i], pb[j]) for i, j in matching), draws)
    return MatchingDraw(False, None, draws, hall_check(z).witness)


@dataclass(frozen=True)
class SpreadEstimate:
    event: str
    trials: int
    hits: int

    @property
    def estimate(self) -> float:
        return self.hits / self.trials if self.trials else 0.0

    @property
    def radius(self) -> float:
        """Exact binomial confidence radius at 99%."""
        return confidence_radius(self.hits, self.trials)


def estimate_matching_spread(f: FBInstance, c: int, s_edges: Iterable[BipEdge],
                             trials: int, seed: int,
                             max_resamples: int = 8) -> SpreadEstimate:
    """Monte Carlo P(S within the sampled matching), conditioned on success.

    Of ``trials`` attempted draws, the estimate's ``trials`` counts the
    successful ones; failed draws do not enter the denominator.  An
    empty S holds on every success, and an S that is not a matching
    holds on none.
    """
    s = frozenset(s_edges)
    label = f"contains[{','.join(f'{a}-{b}' for a, b in sorted(s))}]"
    done, (hits,) = count_trials(
        lambda trial_seed: sample_spread_matching(f, c, max_resamples, trial_seed).matching,
        [s.issubset], trials, seed)
    return SpreadEstimate(label, done, hits)


# -- text format -------------------------------------------------------


def parse_fb_instance(text: str, params: FBParams) -> FBInstance:
    """Read `bipartite lam` then `a b` lines with sides [0,lam) and [lam,2lam).

    An edge outside the side ranges or given twice is invalid input at its
    line, and so is a side size above GRAPH_MAX_N // 2, before anything is built.
    """
    lam, pairs = int_pairs(text, "bipartite", GRAPH_MAX_N // 2)
    line_of: dict[BipEdge, int] = {}
    for lineno, a, b in pairs:
        if not (0 <= a < lam <= b < 2 * lam):
            raise InvalidArgumentError(f"line {lineno}: edge ({a},{b}) violates side ranges")
        edge = (a, b - lam)
        if edge in line_of:
            raise InvalidArgumentError(
                f"line {lineno}: edge ({a},{b}) repeats line {line_of[edge]}")
        line_of[edge] = lineno
    return FBInstance(lam, line_of, params)

