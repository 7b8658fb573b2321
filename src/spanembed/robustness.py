"""Random-subgraph experiments: G(p) sampling, containment, threshold scans.

G(p) keeps the host edges whose uniform lies below p.  ``nested_gp``
draws it for a whole p-grid from one trial seed, so the kept edge sets
are nested and containment is exactly monotone along the grid: a trial
draws one uniform per host edge once, and each G(p) is built from its
own edges when the scan asks for that point.  ``sample_gp`` is its
one-point case.  A threshold scan bisects each trial's grid for its
first YES point and infers the verdicts on either side of it
(Bollobás and Thomason 1987: containment is monotone along a coupled
grid); monotonicity is checked on the verdicts a trial computes.
Containment of a spanning pattern is decided exactly by a budgeted
backtracking search, with two special cases:

* matchings (maximum degree one) in polynomial time: H embeds iff Gp
  has a matching with as many edges as H.  A greedy matching in vertex
  order settles most samples; when it falls short, Edmonds' blossom
  algorithm (``matching.edmonds_matching``), warm-started from the
  greedy matching, grows it to a maximum matching;
* clique factors by exact cover over cliques.  Each search node covers
  its lowest uncovered vertex v; every vertex below v is covered
  already, so v is the least vertex of any clique that can cover it.
  The r-cliques with least vertex v are listed once per search, by a
  walk over adjacency bitmasks, and a node keeps those that miss the
  covered set.

The general search keeps candidate sets as bitmasks too: a pattern
vertex of degree d starts from the host vertices of degree at least d.
It keeps one embedding per orbit of the automorphisms that H's clique
and cycle components make plain, by order constraints on their images
(``_orbit_pairs``), so a NO is not proved once per symmetric copy.

``scan_thm91_grid``'s tail value is an exact hypergeometric sum, not a
sample.  Its host is K_n iff gamma > 1/4 - 2/n, as on the benchmark's
n = 12, gamma = 0.2 slice, where the clamp of its degree to n - 1 fires.

Timeouts are first-class results, never coerced to no.

CSV schema for scans (column order frozen):
    kind,p,trials,successes,timeouts,fraction,wilson_lo,wilson_hi,flag
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .density import max_one_density
from .errors import InternalInvariantError, InvalidArgumentError
from .graphs import (
    Graph,
    bits,
    blow_up,
    clique_component_size,
    complete_graph,
    cycle_graph,
    disjoint_union,
    mask_of,
)
from .matching import UNMATCHED, edmonds_matching
from .seeds import child_seed, np_rng, py_rng, trial_draws
from .switching import delta_e_upper_bound
from .tailbounds import wilson_interval

DEFAULT_BUDGET = 10_000_000
THM91_MAX_N = 25             # largest n of scan_thm91_grid; its docstring says why

SCAN_COLUMNS = ("kind", "p", "trials", "successes", "timeouts",
                "fraction", "wilson_lo", "wilson_hi", "flag")


def nested_gp(n: int, edges: Sequence[tuple[int, int]] | np.ndarray,
              grid: Sequence[float], seed: int) -> Sequence[Graph]:
    """One trial's G(p) for each p of ``grid``, on ``n`` vertices.

    ``edges`` are the host edges in sorted order, as pairs or an (E, 2)
    array, and draw one uniform each; G(p) keeps the edges whose uniform
    is strictly below p.  Each grid point's graph is built from its own
    edges when it is indexed, in any order.
    """
    for p in grid:
        if not 0.0 <= p <= 1.0:    # NaN too
            raise InvalidArgumentError(f"p must lie in [0,1], got {p}")
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    return _Below(n, edges, np_rng(seed).random(len(edges)), grid)


class _Below(Sequence[Graph]):
    """The graphs on ``n`` vertices of the ``edges`` whose uniform lies below each p."""

    __slots__ = ("n", "edges", "uniforms", "grid")

    def __init__(self, n: int, edges: np.ndarray, uniforms: np.ndarray,
                 grid: Sequence[float]):
        self.n, self.edges, self.uniforms, self.grid = n, edges, uniforms, grid

    def __len__(self) -> int:
        return len(self.grid)

    def __getitem__(self, i: int) -> Graph:
        return Graph(self.n, zip(*self.edges[self.uniforms < self.grid[i]].T.tolist()))


def sample_gp(g: Graph, p: float, seed: int) -> Graph:
    """Spanning random subgraph keeping each edge independently with probability p."""
    return nested_gp(g.n, np.argwhere(np.triu(g.adjacency_matrix(), 1)), (p,), seed)[0]


# -- exact spanning containment ----------------------------------------

YES, NO, TIMEOUT = "yes", "no", "timeout"


@dataclass(frozen=True)
class ContainVerdict:
    kind: str
    embedding: dict[int, int] | None = None
    nodes_used: int = 0

    @property
    def yes(self) -> bool:
        return self.kind == YES


def contains_spanning(gp: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> ContainVerdict:
    """Exact test whether H embeds spanningly into Gp, within a node budget.

    Special cases: patterns with maximum degree one reduce to maximum
    matching; disjoint unions of equal cliques covering every vertex
    reduce to exact cover backtracking.  Everything else runs a
    backtracking embedder with degree-sort and common-neighbourhood
    pruning.
    """
    if gp.n != h.n:
        raise InvalidArgumentError(f"need |V(Gp)| = |V(H)|, got {gp.n} != {h.n}")
    h_max_degree = h.max_degree()
    if h_max_degree > gp.max_degree():
        return ContainVerdict(NO, nodes_used=0)
    if h_max_degree <= 1:
        return _contains_matching(gp, h)
    factor_r = clique_component_size(h)     # at least 3: H has maximum degree 2 or more
    if factor_r is not None:
        return _contains_clique_factor(gp, h, factor_r, budget)
    return _contains_backtracking(gp, h, budget)


def _contains_matching(gp: Graph, h: Graph) -> ContainVerdict:
    need = h.num_edges()
    if need == 0:
        return ContainVerdict(YES, {x: x for x in range(h.n)})
    if 2 * need == gp.n and gp.min_degree() == 0:
        return ContainVerdict(NO)     # perfect matching with an isolated vertex
    mate = _greedy_matching(gp)
    pairs = [(u, w) for u, w in enumerate(mate) if u < w]
    if len(pairs) < need:
        mate = edmonds_matching(gp.adj, mate)
        pairs = [(u, w) for u, w in enumerate(mate) if u < w]
        if len(pairs) < need:
            return ContainVerdict(NO)
    phi: dict[int, int] = {}
    h_edges = h.sorted_edges()
    for (hx, hy), (gu, gv) in zip(h_edges, pairs):
        phi[hx], phi[hy] = gu, gv
    used = set(phi.values())
    free = iter(v for v in range(gp.n) if v not in used)
    for x in range(h.n):
        if x not in phi:
            phi[x] = next(free)
    return ContainVerdict(YES, phi)


def _greedy_matching(gp: Graph) -> list[int]:
    """Mate list of a maximal matching: vertices in index order take their lowest free neighbour."""
    used = 0
    mate = [UNMATCHED] * gp.n
    for v in range(gp.n):
        if used >> v & 1:
            continue
        free = gp.adj[v] & ~used
        if free:
            w = (free & -free).bit_length() - 1
            mate[v], mate[w] = w, v
            used |= (1 << v) | (1 << w)
    return mate


def _contains_clique_factor(gp: Graph, h: Graph, r: int, budget: int) -> ContainVerdict:
    """Exact cover of V(Gp) by disjoint r-cliques, found by backtracking.

    Each node branches on its lowest uncovered vertex v.  Every vertex
    below v is already covered, so a clique that covers v without
    meeting ``covered`` has v as its least vertex: the node's options
    are the entries of ``lowest[v]``, the r-cliques listed from v on its
    first visit, whose masks miss ``covered``.  Filtering keeps their
    ascending order, so the cache leaves the search tree unchanged.
    """
    n = gp.n
    nodes = 0
    full = (1 << n) - 1
    chosen: list[tuple[int, ...]] = []
    lowest: list[list[tuple[tuple[int, ...], int]] | None] = [None] * n

    def extend(covered: int) -> str:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return TIMEOUT
        if covered == full:
            return YES
        rest = ~covered & full
        v = (rest & -rest).bit_length() - 1
        options = lowest[v]
        if options is None:
            options = lowest[v] = [(c, mask_of(c)) for c in _cliques_from(gp, v, r)]
        for clique, mask in options:
            if mask & covered:
                continue
            chosen.append(clique)
            res = extend(covered | mask)
            if res != NO:
                return res
            chosen.pop()
        return NO

    res = extend(0)
    if res != YES:
        return ContainVerdict(res, nodes_used=nodes)
    phi: dict[int, int] = {}
    comps = sorted(h.connected_components())
    for comp, clique in zip(comps, chosen):
        for x, v in zip(sorted(comp), clique):
            phi[x] = v
    return ContainVerdict(YES, phi, nodes_used=nodes)


def _cliques_from(gp: Graph, v: int, r: int) -> list[tuple[int, ...]]:
    """The r-cliques of Gp whose least vertex is v, in ascending order (r >= 2)."""
    adj = gp.adj
    clique = [v] * r
    out = []

    def grow(depth: int, common: int) -> None:
        # common: the vertices above clique[depth - 1] adjacent to all of clique[:depth]
        if depth == r - 1:
            while common:
                low = common & -common
                clique[depth] = low.bit_length() - 1
                out.append(tuple(clique))
                common ^= low
            return
        while common:
            low = common & -common
            u = low.bit_length() - 1
            common ^= low
            clique[depth] = u
            grow(depth + 1, common & adj[u])

    grow(1, adj[v] >> (v + 1) << (v + 1))
    return out


def _contains_backtracking(gp: Graph, h: Graph, budget: int) -> ContainVerdict:
    """General spanning-embedding backtracking with candidate and orbit pruning.

    A pattern vertex takes the host vertices whose degree admits it,
    adjacent to the images of its earlier neighbours and above the
    images of the vertices that ``_orbit_pairs`` sets below it.  Every
    such pair points forward in the search order (-degree, index), so
    its lower vertex is always placed first.
    """
    n = h.n
    order = sorted(range(n), key=lambda x: (-h.degree(x), x))
    pos = {x: i for i, x in enumerate(order)}
    gp_deg = gp.degrees()
    h_deg = h.degrees()
    nodes = 0
    phi = [-1] * n
    used = 0

    # neighbours of each h-vertex that come earlier in the order
    earlier = [[y for y in bits(h.adj[x]) if pos[y] < pos[x]] for x in range(n)]
    # host vertices whose degree admits x, one mask per distinct pattern degree
    deg_masks = {d: mask_of(v for v in range(gp.n) if gp_deg[v] >= d) for d in set(h_deg)}
    admits = [deg_masks[h_deg[x]] for x in range(n)]
    # earlier vertices whose image must lie below x's image
    below: list[list[int]] = [[] for _ in range(n)]
    for a, b in _orbit_pairs(h):
        below[b].append(a)

    def place(i: int) -> str:
        nonlocal nodes, used
        if i == n:
            return YES
        nodes += 1
        if nodes > budget:
            return TIMEOUT
        x = order[i]
        cand = admits[x] & ~used
        for y in earlier[x]:
            cand &= gp.adj[phi[y]]
        for y in below[x]:
            cand &= -2 << phi[y]
        while cand:
            low = cand & -cand
            cand ^= low
            phi[x] = low.bit_length() - 1
            used |= low
            res = place(i + 1)
            if res != NO:
                return res
            used ^= low
            phi[x] = -1
        return NO

    res = place(0)
    if res == YES:
        return ContainVerdict(YES, {x: phi[x] for x in range(n)}, nodes_used=nodes)
    return ContainVerdict(res, nodes_used=nodes)


def _orbit_pairs(h: Graph) -> list[tuple[int, int]]:
    """Pairs (a, b) that some embedding satisfies with phi(a) < phi(b) whenever one exists.

    Lex-leader symmetry breaking (Crawford, Ginsberg, Luks and Roy
    1996) on the automorphisms that H's components make plain: images
    increase within each clique component (K1 and K2 included) and
    across the least vertices of clique components of one size; a
    cycle's first vertex takes its least image, and its second vertex's
    image lies below its last vertex's.  Composing any embedding with
    an automorphism of H that sorts those images gives an embedding
    that meets every pair, so a search that keeps only such embeddings
    stays exact.  Other components get no pairs.

    Every pair has a < b and deg a = deg b: clique members and clique
    leaders are listed in ascending order, and a cycle's pairs start at
    its least vertex, whose lower neighbour comes before its upper one.
    So a search that orders vertices by (-degree, index) places a
    before b.
    """
    pairs: list[tuple[int, int]] = []
    leaders: dict[int, list[int]] = {}    # least vertex of each clique component, by size
    for comp in h.connected_components():
        size = len(comp)
        if sum(h.degree(x) for x in comp) == size * (size - 1):
            pairs += zip(comp, comp[1:])
            leaders.setdefault(size, []).append(comp[0])
        elif all(h.degree(x) == 2 for x in comp):
            # a cycle on at least 4 vertices, walked from its least vertex
            cycle = [comp[0], (h.adj[comp[0]] & -h.adj[comp[0]]).bit_length() - 1]
            while len(cycle) < size:
                step = h.adj[cycle[-1]] & ~(1 << cycle[-2])
                cycle.append(step.bit_length() - 1)
            pairs += [(cycle[0], y) for y in cycle[1:]]
            pairs.append((cycle[1], cycle[-1]))
    for firsts in leaders.values():
        pairs += zip(firsts, firsts[1:])
    return pairs


# -- threshold scans -----------------------------------------------------


def check_p_grid(grid: tuple[float, ...]) -> tuple[float, ...]:
    """``grid`` itself if it is nonempty, strictly increasing and inside (0,1]."""
    if not grid:
        raise InvalidArgumentError("empty p-grid")
    if any(not 0 < p <= 1 for p in grid):
        raise InvalidArgumentError("p values must lie in (0,1]")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise InvalidArgumentError("p-grid must be strictly increasing")
    return grid


def check_count(name: str, value: int) -> int:
    """``value`` itself if it is at least 1; ``name`` words the refusal."""
    if value < 1:
        raise InvalidArgumentError(f"{name} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ThresholdScan:
    host: Graph
    pattern: Graph
    p_grid: tuple[float, ...]
    trials: int
    seed: int
    budget: int = DEFAULT_BUDGET
    kind: str = "scan"

    def __post_init__(self):
        check_p_grid(self.p_grid)
        check_count("trials", self.trials)
        check_count("budget", self.budget)


@dataclass(frozen=True)
class ScanRow:
    kind: str
    p: float
    trials: int
    successes: int
    timeouts: int
    flag: str = ""

    @property
    def fraction(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def as_csv_row(self) -> list:
        lo, hi = wilson_interval(self.successes, self.trials)
        return [self.kind, f"{self.p:.8g}", self.trials, self.successes,
                self.timeouts, f"{self.fraction:.6f}", f"{lo:.6f}", f"{hi:.6f}", self.flag]


def threshold_scan(scan: ThresholdScan) -> list[ScanRow]:
    """Empirical containment probability per grid point, coupled across p.

    Each trial reuses its seed across the entire grid, so the sampled
    edge sets are nested in p (``nested_gp``) and containment is
    monotone along the grid.  A trial therefore bisects its grid for
    its first YES point, in at most ceil(log2(k+1)) containment calls
    for k points: the points below it are inferred NO and the points
    from it on inferred YES.  A TIMEOUT stops the bisection, and the
    points still between the last NO and the first YES are decided one
    by one; a decrease among the verdicts a trial computes is a hard
    error.  Timeouts beyond 20% of trials flag the row as unreliable.
    """
    edges = np.argwhere(np.triu(scan.host.adjacency_matrix(), 1))   # row-major: sorted pairs

    def verdict_kinds(trial_seed: int) -> list[str]:
        gps = nested_gp(scan.host.n, edges, scan.p_grid, trial_seed)
        kinds: list[str | None] = [None] * len(gps)
        no, yes = -1, len(gps)    # the points up to `no` are NO, those from `yes` on YES
        while yes - no > 1:
            mid = (no + yes) // 2
            kinds[mid] = contains_spanning(gps[mid], scan.pattern, scan.budget).kind
            if kinds[mid] == TIMEOUT:
                break
            if kinds[mid] == YES:
                yes = mid
            else:
                no = mid
        seen_yes = False
        for i in range(no + 1, yes):
            if kinds[i] is None:
                kinds[i] = contains_spanning(gps[i], scan.pattern, scan.budget).kind
            if kinds[i] == NO and seen_yes:
                raise InternalInvariantError(f"coupled monotonicity violated at "
                                             f"p={scan.p_grid[i]} on the trial at seed {trial_seed}")
            seen_yes |= kinds[i] == YES
        return [NO] * (no + 1) + kinds[no + 1:yes] + [YES] * (len(gps) - yes)

    rows = []
    for p, kinds in zip(scan.p_grid, zip(*trial_draws(verdict_kinds, scan.trials, scan.seed))):
        timeouts = kinds.count(TIMEOUT)
        rows.append(ScanRow(scan.kind, p, scan.trials, kinds.count(YES), timeouts,
                            "scan-unreliable" if timeouts > 0.2 * scan.trials else ""))
    return rows


def scan_thm91_grid(delta: int, n: int, gamma: float, seed: int,
                    trials: int = 200, budget: int = DEFAULT_BUDGET) -> dict:
    """Two-grid scan for clique-plus-remainder mixtures, plus an exact tail value.

    The pattern mixes K_{delta+1} components with a K_{delta+1}-free
    remainder; one grid follows the n^(-1/m1) log n shape, the other
    the sharper n^(-2/(delta+1)) (log n)^(1/binom(delta+1,2)) shape.
    ``bad_vertex_frequency`` is the exact expected share of the members
    of a uniform (k = n // 2)-subset with fewer than (3/4 + gamma/2) k
    neighbours inside: (1/n) sum_v P[Hypergeom(n-1, deg v, k-1) < need].

    The host's minimum degree ceil((3/4 + gamma) n) needs gamma < 1/4,
    as delta(G) <= n - 1.  It is clamped to n - 1 iff gamma > 1/4 - 1/n,
    and the host is K_n iff gamma > 1/4 - 2/n.  ``n`` is capped at
    THM91_MAX_N = 25: 200-trial scans on the default budget ran with no
    timeout at seeds 0, 2^32 and 2^33 for every n from 8 to 25 at
    gamma = 0.05 (at most 20.6 s a call, at n = 23; 2-core VM, Python
    3.11.7), and n = 26 timed out at two of those seeds at gamma = 0.2.
    """
    if not 0 < gamma < 0.25:
        raise InvalidArgumentError(f"gamma must lie in (0,1/4): delta(G) >= (3/4 + gamma) n "
                                   f"needs gamma < 1/4, since delta(G) <= n - 1; got {gamma}")
    if delta != 2:
        raise InvalidArgumentError("exact factor scanning is desk-sized only for delta = 2")
    if n > THM91_MAX_N:
        raise InvalidArgumentError(f"exact factor testing needs n <= {THM91_MAX_N}, got {n}")
    pattern = mixture_pattern(n, delta)
    need = min(n - 1, math.ceil((float(delta_e_upper_bound(delta)) + gamma) * n))
    host = random_min_degree_host(n, need, seed)
    m1 = float(max_one_density(pattern)[0])
    logn = math.log(n)
    kb = math.comb(delta + 1, 2)
    base_a = n ** (-1 / m1) * logn
    base_b = n ** (-2 / (delta + 1)) * logn ** (1 / kb)
    # the clamp to 1.0 can repeat a point; a grid lists each once
    grid_a = tuple(sorted({min(1.0, c * base_a) for c in (0.25, 0.5, 1.0, 2.0)}))
    grid_b = tuple(sorted({min(1.0, c * base_b) for c in (0.25, 0.5, 1.0, 2.0)}))
    rows = threshold_scan(ThresholdScan(host, pattern, grid_a, trials,
                                        child_seed(seed, 1), budget, kind="m1-grid"))
    rows += threshold_scan(ThresholdScan(host, pattern, grid_b, trials,
                                         child_seed(seed, 2), budget, kind="improved-grid"))

    k = n // 2
    need = (float(delta_e_upper_bound(delta)) + gamma / 2) * k
    # j of v's k - 1 fellow members are neighbours, in comb(d, j) comb(n-1-d, k-1-j) ways
    short = sum(math.comb(d, j) * math.comb(n - 1 - d, k - 1 - j)
                for d in host.degrees() for j in range(k) if j < need)
    return {"rows": rows, "bad_vertex_frequency": Fraction(short, n * math.comb(n - 1, k - 1))}


# -- named hosts and patterns -------------------------------------------


def dirac_overlap_host(n: int) -> Graph:
    """Two cliques of size n/2 + 1 sharing two vertices; minimum degree n/2."""
    if n < 6 or n % 2:
        raise InvalidArgumentError("overlap host needs even n >= 6")
    a = n // 2 + 1
    mat = np.zeros((n, n), dtype=bool)
    mat[:a, :a] = mat[a - 2:, a - 2:] = True
    np.fill_diagonal(mat, False)
    return Graph(n, mat)


def unbalanced_multipartite_host(n: int, delta: int) -> Graph:
    """Complete (delta+1)-partite host with slightly unbalanced parts."""
    k = delta + 1
    if n < 2 * k:
        raise InvalidArgumentError("host too small for the part structure")
    base, extra = divmod(n, k)
    sizes = [base + 1 if i < extra else base for i in range(k)]
    sizes[0] += 1
    sizes[-1] -= 1
    if sizes[-1] < 1:
        raise InvalidArgumentError("unbalancing emptied a part")
    return blow_up(complete_graph(k), sizes)


def random_min_degree_host(n: int, min_degree: int, seed: int) -> Graph:
    """Near-extremal host: delete random edges from K_n while min degree holds.

    The pairs u < v, in ascending order, are shuffled as the codes u*n + v;
    ``random.shuffle`` swaps by length alone, so a host is the same as
    when the shuffled list held the pairs themselves.
    """
    if not 0 <= min_degree <= n - 1:
        raise InvalidArgumentError(f"min degree {min_degree} outside [0, {n - 1}] on {n} vertices")
    codes = np.flatnonzero(~np.tri(n, dtype=bool)).tolist()
    py_rng(seed).shuffle(codes)
    deg = [n - 1] * n
    dropped = []
    for code in codes:
        u, v = divmod(code, n)
        if deg[u] > min_degree and deg[v] > min_degree:
            deg[u] -= 1
            deg[v] -= 1
            dropped.append(code)
    mat = ~np.eye(n, dtype=bool)
    u, v = np.divmod(np.array(dropped, dtype=np.intp), n)
    mat[u, v] = mat[v, u] = False
    return Graph(n, mat)


def perfect_matching_pattern(n: int) -> Graph:
    if n % 2:
        raise InvalidArgumentError("perfect matchings need even n")
    return Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def clique_factor_pattern(n: int, r: int) -> Graph:
    if n % r:
        raise InvalidArgumentError(f"{r} must divide n for a clique factor")
    return disjoint_union(*[complete_graph(r)] * (n // r))


def mixture_pattern(n: int, delta: int) -> Graph:
    """K_{delta+1} components plus a K_{delta+1}-free remainder, padded to n."""
    r = delta + 1
    if n < r + 5:
        raise InvalidArgumentError("mixture needs room for a clique and a 5-cycle")
    cliques, pad = divmod(n - 5, r)
    return disjoint_union(*[complete_graph(r)] * cliques, cycle_graph(5), Graph(pad, []))
