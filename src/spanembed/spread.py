"""Coupled random-subgraph sampling and spread perfect matchings.

Given a balanced bipartite candidate graph F on A and B with |A| = |B|
= lam, the coupled sample is Z = Z1 union Z2 where Z1 keeps each edge
of F independently with probability C/lam and Z2 gives every vertex C
neighbour draws, uniform with replacement.  If Z satisfies Hall's
condition, the canonical maximum matching of Z is a perfect matching of
F whose per-edge inclusion probability inherits the O(C/lam) bound of
Z; conditioning on a successful draw costs at most a factor two when
the failure rate stays below one half.

The FB1-FB3 parameter record bounds degrees and expansion of F:

* FB1: every a in A has degree at least (1/2) d^b lam,
* FB2: every v in B has degree at least (d^Delta/100)^b lam,
* FB3: for every W in B with |W| >= (rho/mu) lam, at most (rho/mu) lam
  vertices of A have fewer than (1/2) d^b |W| neighbours in W.

FB3 is exhaustively checkable only for lam <= 14; above that it is
spot-checked on sampled W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InvalidArgumentError
from .graphs import parse_int
from .matching import UNMATCHED, hall_check, kuhn_matching
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


class FBInstance:
    """Balanced bipartite candidate graph with its FB parameter record."""

    __slots__ = ("lam", "adj_a", "adj_b", "params", "edges")

    def __init__(self, lam: int, edges: Iterable[BipEdge], params: FBParams):
        if lam < 0:
            raise InvalidArgumentError("side size must be nonnegative")
        self.lam = lam
        self.params = params
        adj_a: list[list[int]] = [[] for _ in range(lam)]
        adj_b: list[list[int]] = [[] for _ in range(lam)]
        seen = set()
        for a, b in edges:
            if not (0 <= a < lam and 0 <= b < lam):
                raise InvalidArgumentError(f"edge ({a},{b}) outside side range [0,{lam})")
            if (a, b) in seen:
                continue
            seen.add((a, b))
            adj_a[a].append(b)
            adj_b[b].append(a)
        for lst in adj_a:
            lst.sort()
        for lst in adj_b:
            lst.sort()
        self.adj_a = tuple(tuple(x) for x in adj_a)
        self.adj_b = tuple(tuple(x) for x in adj_b)
        self.edges = frozenset(seen)

    def degree_a(self, a: int) -> int:
        return len(self.adj_a[a])

    def degree_b(self, b: int) -> int:
        return len(self.adj_b[b])

    def __repr__(self):
        return f"FBInstance(lam={self.lam}, m={len(self.edges)})"


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
    """Verify FB1-FB3; FB3 exhaustively for lam <= 14, else spot-checked."""
    p = f.params
    lam = f.lam
    fb1_floor = 0.5 * (p.d ** p.b) * lam
    fb2_floor = ((p.d ** p.delta) / 100.0) ** p.b * lam
    fb1 = all(f.degree_a(a) >= fb1_floor for a in range(lam))
    fb2 = all(f.degree_b(b) >= fb2_floor for b in range(lam))

    ratio = p.rho / p.mu
    w_floor = ratio * lam
    bad_cap = ratio * lam

    def bad_count(w_mask: int, w_size: int) -> int:
        need = 0.5 * (p.d ** p.b) * w_size
        bad = 0
        for a in range(lam):
            deg = sum(1 for b in f.adj_a[a] if (w_mask >> b) & 1)
            if deg < need:
                bad += 1
        return bad

    exact = lam <= FB3_EXACT_LIMIT
    fb3 = True
    detail = ""
    if exact:
        for w_mask in range(1, 1 << lam):
            w_size = w_mask.bit_count()
            if w_size < w_floor:
                continue
            if bad_count(w_mask, w_size) > bad_cap:
                fb3 = False
                detail = f"FB3 fails at |W|={w_size}"
                break
    else:
        rng = py_rng(seed)
        lo = max(1, int(-(-w_floor // 1)))
        for _ in range(spot_samples):
            w_size = rng.randint(lo, lam)
            w_mask = 0
            for b in rng.sample(range(lam), w_size):
                w_mask |= 1 << b
            if bad_count(w_mask, w_size) > bad_cap:
                fb3 = False
                detail = f"FB3 fails on sampled |W|={w_size}"
                break
    return FBReport(fb1, fb2, fb3, exact, detail)


# -- the coupled measure ----------------------------------------------


@dataclass(frozen=True)
class CoupledSample:
    z1: frozenset[BipEdge]
    z2: frozenset[BipEdge]

    @property
    def z(self) -> frozenset[BipEdge]:
        return self.z1 | self.z2


def sample_coupled(f: FBInstance, c: int, seed: int) -> CoupledSample:
    """One draw of Z1 (binomial, prob C/lam) and Z2 (C neighbour draws each).

    Deterministic given the seed.  Requires 1 <= C <= lam so the
    binomial edge probability stays at most one.
    """
    if c < 1:
        raise InvalidArgumentError(f"C must be >= 1, got {c}")
    if f.lam < 1:
        raise InvalidArgumentError("instance must be nonempty")
    if c > f.lam:
        raise InvalidArgumentError(f"C = {c} exceeds lam = {f.lam}; edge probability would exceed 1")
    rng = np_rng(seed)
    edges = sorted(f.edges)
    prob = c / f.lam
    keep = rng.random(len(edges)) < prob
    z1 = frozenset(e for e, k in zip(edges, keep) if k)

    z2 = set()
    for a in range(f.lam):
        nbrs = f.adj_a[a]
        if nbrs:
            for i in rng.integers(0, len(nbrs), size=c):
                z2.add((a, nbrs[i]))
    for b in range(f.lam):
        nbrs = f.adj_b[b]
        if nbrs:
            for i in rng.integers(0, len(nbrs), size=c):
                z2.add((nbrs[i], b))
    return CoupledSample(z1, frozenset(z2))


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


def canonical_matching(lam: int, z_edges: Iterable[BipEdge]) -> tuple[int, frozenset[BipEdge]]:
    """Deterministic maximum matching of an edge set: index-order augmenting paths."""
    adj: list[list[int]] = [[] for _ in range(lam)]
    for a, b in z_edges:
        adj[a].append(b)
    for lst in adj:
        lst.sort()
    size, pair_l, _ = kuhn_matching(lam, lam, adj)
    m = frozenset((a, pair_l[a]) for a in range(lam) if pair_l[a] != UNMATCHED)
    return size, m


def sample_spread_matching(f: FBInstance, c: int, max_resamples: int, seed: int) -> MatchingDraw:
    """Draw coupled samples until one satisfies Hall, then fix its matching.

    The canonical matching is a pure function of Z, so all randomness
    lives in the coupled draw.  Resampling beyond the first draw is a
    practical extension; the spread suites verify the bound under the
    actual resampling policy rather than assuming the analysis factor.
    """
    if f.lam == 0:
        return MatchingDraw(True, frozenset(), 1)
    rng = py_rng(seed)
    draws = 0
    last_z: frozenset[BipEdge] = frozenset()
    while draws <= max_resamples:
        sample = sample_coupled(f, c, fresh_seed(rng))
        draws += 1
        last_z = sample.z
        size, matching = canonical_matching(f.lam, last_z)
        if size == f.lam:
            return MatchingDraw(True, matching, draws)
    verdict = hall_check(range(f.lam), range(f.lam, 2 * f.lam),
                         [(a, f.lam + b) for a, b in last_z])
    return MatchingDraw(False, None, draws, verdict.witness)


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

    ``trials`` counts attempted draws; failed draws do not enter the
    denominator.  A set S that is not a matching has probability zero
    by definition and short-circuits.
    """
    s = frozenset(s_edges)
    label = f"contains[{','.join(f'{a}-{b}' for a, b in sorted(s))}]"
    if not s:
        return SpreadEstimate(label, trials, trials)
    a_ends = [a for a, _ in s]
    b_ends = [b for _, b in s]
    if len(set(a_ends)) != len(s) or len(set(b_ends)) != len(s):
        return SpreadEstimate(label, trials, 0)
    done, (hits,) = count_trials(
        lambda trial_seed: sample_spread_matching(f, c, max_resamples, trial_seed).matching,
        [s.issubset], trials, seed)
    return SpreadEstimate(label, done, hits)


@dataclass(frozen=True)
class CouplingReport:
    z_estimate: SpreadEstimate
    z1_estimate: SpreadEstimate
    z2_estimate: SpreadEstimate
    violation: bool


def verify_coupling_monotone(f: FBInstance, c: int,
                             event: Callable[[frozenset[BipEdge]], bool],
                             trials: int, seed: int,
                             label: str = "event") -> CouplingReport:
    """Monte Carlo check of P_Z(E) <= min(P_Z1(E), P_Z2(E)) for decreasing E.

    The caller is responsible for supplying a monotone decreasing event
    (adding edges can only falsify it).  The three estimates come from
    the same draws; the violation flag fires only beyond the combined
    99% radii.
    """
    _, (hz, h1, h2) = count_trials(
        lambda trial_seed: sample_coupled(f, c, trial_seed),
        [lambda cs: event(cs.z), lambda cs: event(cs.z1), lambda cs: event(cs.z2)], trials, seed)
    ez = SpreadEstimate(f"{label}|Z", trials, hz)
    e1 = SpreadEstimate(f"{label}|Z1", trials, h1)
    e2 = SpreadEstimate(f"{label}|Z2", trials, h2)
    bound = min(e1.estimate + e1.radius, e2.estimate + e2.radius)
    violation = ez.estimate - ez.radius > bound
    return CouplingReport(ez, e1, e2, violation)


# -- text format -------------------------------------------------------


def parse_fb_instance(text: str, params: FBParams) -> FBInstance:
    """Read `bipartite lam` then `a b` lines with sides [0,lam) and [lam,2lam)."""
    lam = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if lam is None:
            if len(parts) != 2 or parts[0] != "bipartite":
                raise InvalidArgumentError(f"line {lineno}: expected 'bipartite <lam>'")
            lam = parse_int(parts[1], lineno)
            continue
        if len(parts) != 2:
            raise InvalidArgumentError(f"line {lineno}: expected 'a b', got {raw!r}")
        a, b = parse_int(parts[0], lineno), parse_int(parts[1], lineno)
        if not (0 <= a < lam <= b < 2 * lam):
            raise InvalidArgumentError(f"line {lineno}: edge ({a},{b}) violates side ranges")
        edges.append((a, b - lam))
    if lam is None:
        raise InvalidArgumentError("missing 'bipartite <lam>' header")
    return FBInstance(lam, edges, params)


def format_fb_instance(f: FBInstance) -> str:
    lines = [f"bipartite {f.lam}"]
    lines.extend(f"{a} {f.lam + b}" for a, b in sorted(f.edges))
    return "\n".join(lines) + "\n"
