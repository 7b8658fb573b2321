"""Exact 1-density and maximum 1-density of a graph.

The 1-density of a graph with at least two vertices is e/(v-1); the
maximum 1-density is the maximum of that ratio over all subgraphs with
at least two vertices.  Everything here is exact rational arithmetic:
values are `fractions.Fraction` and ties are never left to floats.

A maximizing subgraph may be assumed connected and induced: merging two
components strictly lowers the ratio (the denominator loses one fewer
than the sum of parts), and adding edges on a fixed vertex set never
lowers it.  We therefore work per connected component.  A component of
up to EXHAUSTIVE_LIMIT vertices has the edges of every vertex subset
counted in one numpy pass.  Above that we use Dinkelbach iteration: an
exact test decides whether some vertex set S has e(S) - g(|S|-1) > 0,
and the density of the S it finds is the next guess g.

The test runs on a core, not on the whole component.  It repeatedly
drops every vertex whose degree inside the core is at most g; an empty
core means m1 = g, and a core of up to EXHAUSTIVE_LIMIT vertices is
scanned, which gives m1 = max(g, m1(core)).  Otherwise it anchors one
core vertex of highest degree in a min cut (Goldberg's edge-node
network, solved with scipy's ``maximum_flow``), which either finds S or
shows that no such S inside the core contains the anchor; then the
anchor leaves the core and the core is peeled again.  This is exact.
Let S* be a smallest set attaining m1 > g.  The first guess is at least
1 on a connected component, so |S*| >= 3, and every v in S* has
deg_S*(v) > m1 > g, or S* - v would attain m1 too: peeling never drops
a vertex of S*, and a failed anchor is not in S*.  Both stay true at
every larger guess, so one core serves the whole iteration.

Wall time of ``max_one_density`` (best of 5, median over 8 graphs for
the max-degree-4 components with 2n-1 edges) and maximum_flow calls
per component, anchoring every vertex against anchoring the core (2-core
VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1):

    component           every vertex         core
    cycle, n = 60        28.5 ms,  60 cuts    0.50 ms,  1 cut
    cycle, n = 200      307 ms,   200 cuts    0.86 ms,  1 cut
    max-degree 4, 20     7.66 ms,  20 cuts    0.98 ms,  2-3 cuts
    max-degree 4, 40     12.4 ms,  40 cuts    1.98 ms,  4-7 cuts
    max-degree 4, 120    46.3 ms, 120 cuts    7.49 ms, 11-15 cuts

Guesses are attained ratios e/(v-1), so every capacity is at most
2nm + 1 for n vertices and m edges; scipy's capacities are int32 and
wrap silently, so larger components raise UnsupportedSizeError.

scipy is imported inside ``_anchored_cut``, so it loads with the first
min cut: a graph whose components, or their peeled cores, all fit the scan
never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .errors import InternalInvariantError, InvalidArgumentError, UnsupportedSizeError
from .graphs import Graph, bits

# The largest component, and the largest core, that is scanned whole.  The
# scan costs 2^n steps whatever the edge count; the core path's cost grows
# with the cuts it needs.  On max-degree-4 components with 2n-1 edges
# (2-core VM, Python 3.11.7, numpy 2.4.6; best of 5, median of 8 graphs,
# cores handed off at 16) scan against core path reads 0.13 / 0.16 ms at
# n = 16, 0.26 / 0.45 ms at n = 17, 0.51 / 0.58 ms at n = 18 and
# 0.99 / 0.91 ms at n = 19.  Over the whole family at n = 14..40 a limit
# of 16, 17 or 18 costs the same within noise (31-33 ms), and 16 is the
# fastest on 16 seeded graphs at each of n = 16, 20, 25 and 40 (72.6 ms
# against 73.5 and 75.5).  The scan's transient arrays peak at 0.7 MB
# traced at n = 16 (5.2 MB at n = 19); they must stay under 16 MB.
EXHAUSTIVE_LIMIT = 16
_INT32_MAX = 2**31 - 1   # scipy's maximum_flow capacities are int32 and wrap silently


def one_density(h: Graph) -> Fraction:
    """e(H) / (v(H) - 1) as an exact reduced fraction."""
    if h.n < 2:
        raise InvalidArgumentError("1-density needs at least two vertices")
    return Fraction(h.num_edges(), h.n - 1)


def max_one_density(h: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum 1-density of ``h`` with a witness vertex set.

    Returns ``(value, vertices)`` where the subgraph induced on
    ``vertices`` attains the maximum.  The maximum runs over all
    subgraphs with at least two vertices.
    """
    if h.n < 2:
        raise InvalidArgumentError("maximum 1-density needs at least two vertices")
    best_num, best_den = 0, 1
    best_witness: tuple[int, ...] = (0, 1)
    for comp in h.connected_components():
        if len(comp) < 2:
            continue
        sub = h if len(comp) == h.n else h.induced(comp)   # a spanning comp is h itself
        path = _component_m1_exhaustive if len(comp) <= EXHAUSTIVE_LIMIT else _component_m1_flow
        num, den, mask = path(sub)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            best_witness = tuple(comp[i] for i in bits(mask))
    return Fraction(best_num, best_den), best_witness


# -- exhaustive path ---------------------------------------------------


def _component_m1_exhaustive(g: Graph) -> tuple[int, int, int]:
    """Best (e, v-1, vertex mask) over every vertex subset of ``g``.

    One numpy pass counts e(S) for all 2^n masks.  Below 2^b, b = min(n, 7),
    e(S) is the product of a cached pair table and the component's pair
    vector, both bit-packed: the popcount of S's row AND the pair mask.
    Each further vertex k doubles the count, since a mask with top vertex
    k has the edges of its lower part plus |N(k) in that part|.  Ratios
    are compared as the integers e * (L / (|S|-1)) with L = lcm(1..n-1),
    and the first maximum is the smallest attaining mask.
    """
    n = g.n
    if n > EXHAUSTIVE_LIMIT:
        raise InternalInvariantError(
            f"the subset scan takes at most {EXHAUSTIVE_LIMIT} vertices, got {n}")
    adj = g.adj
    b = min(n, _LOW_BITS)
    pairs = 0
    for j in range(1, b):
        pairs |= (adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    if n == b:
        edges = np.bitwise_count(_PAIR_ROWS[:1 << n] & pairs)
    else:
        edges = np.empty(1 << n, dtype=np.uint8)      # e(S) <= C(n, 2) < 256 up to n = 23
        np.bitwise_count(_PAIR_ROWS[:1 << b] & pairs, out=edges[:1 << b])
        for k in range(b, n):
            low = 1 << k
            np.add(edges[:low], np.bitwise_count(np.arange(low) & adj[k]),
                   out=edges[low:2 * low])
    key = edges * _key_weights(n)
    mask = int(key.argmax())
    if key[mask] == 0:
        return 0, 1, 0
    return int(edges[mask]), mask.bit_count() - 1, mask


# Row S holds bit j(j-1)/2 + i for each pair i < j of vertices in S, so
# that e(S) for S below 2^7 is popcount(row S AND the pair mask).
_LOW_BITS = 7
_PAIR_ROWS = np.array([sum(1 << (j * (j - 1) // 2 + i)
                           for j in range(_LOW_BITS) for i in range(j) if s >> i & s >> j & 1)
                       for s in range(1 << _LOW_BITS)])


@cache
def _key_weights(n: int) -> np.ndarray:
    """L/(|S|-1) for every mask S below 2^n, with L = lcm(1..n-1); 0 where |S| < 2.

    int32 holds every key e(S) * L/(|S|-1) <= C(n, 2) * L up to n = 19.
    """
    lcm = math.lcm(*range(1, n))
    per_size = np.array([0, 0] + [lcm // (k - 1) for k in range(2, n + 1)], dtype=np.int32)
    table = per_size[np.bitwise_count(np.arange(1 << n))]
    table.flags.writeable = False
    return table


# -- flow-based path ---------------------------------------------------


def _component_m1_flow(g: Graph) -> tuple[int, int, int]:
    """Best (e, v-1, vertex mask) of a connected component by Dinkelbach iteration.

    The first guess is the density of the whole component.  While the
    test finds a set S with e(S) - g(|S|-1) > 0, the next guess is
    e(S)/(|S|-1), which is strictly larger.  Every guess is an attained
    ratio, so the loop ends at m1 after finitely many tests, and the
    last S found attains it.  One core serves every guess: a vertex it
    drops lies in no smallest set attaining m1, unless m1 is already found.
    """
    n = g.n
    m = g.num_edges()
    # guesses a/b have b <= n-1 and a <= m, so every capacity is at most 2nm + 1
    if 2 * n * m + 1 > _INT32_MAX:
        raise UnsupportedSizeError(
            f"flow capacities for {n} vertices and {m} edges overflow int32")
    alive = mask = (1 << n) - 1
    num, den = m, n - 1
    while True:
        found, alive = _denser_set(g, alive, Fraction(num, den))
        if not found:
            return num, den, mask
        mask = found
        num = sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2
        den = mask.bit_count() - 1


def _denser_set(graph: Graph, alive: int, g: Fraction) -> tuple[int, int]:
    """Exact test: the mask of a set S with e(S) - g(|S|-1) > 0, or 0 if none,
    and the core left for the next guess.

    The core ``alive`` holds every smallest set attaining m1 while g < m1
    (module docstring), and this shrinks it.  Each round peels the core
    at g; an empty core means there is no such S, and a core of at most
    EXHAUSTIVE_LIMIT vertices is scanned whole, which settles m1, so the
    core left is empty.  Otherwise a cut anchored at a core vertex of
    highest degree inside the core (the smallest such) either finds S or
    shows that the anchor lies in no smallest densest set, and the anchor
    leaves the core.
    """
    a, b = g.numerator, g.denominator
    while True:
        alive = _peel(graph.adj, alive, a, b)
        if alive.bit_count() <= EXHAUSTIVE_LIMIT:
            if not alive:
                return 0, 0
            vs = bits(alive)
            num, den, mask = _component_m1_exhaustive(graph.induced(vs))
            found = sum(1 << vs[i] for i in bits(mask)) if num * b > a * den else 0
            return found, 0
        anchor = max(bits(alive), key=lambda v: (graph.adj[v] & alive).bit_count())
        found = _anchored_cut(graph.adj, alive, anchor, a, b)
        if found:
            return found, alive
        alive ^= 1 << anchor


def _peel(adj: Sequence[int], alive: int, a: int, b: int) -> int:
    """``alive`` less every vertex of degree at most a/b inside what is left, repeatedly."""
    low = [v for v in bits(alive) if (adj[v] & alive).bit_count() * b <= a]
    while low:
        v = low.pop()
        if alive >> v & 1:
            alive ^= 1 << v
            low += [u for u in bits(adj[v] & alive) if (adj[u] & alive).bit_count() * b <= a]
    return alive


def _anchored_cut(adj: Sequence[int], alive: int, anchor: int, a: int, b: int) -> int:
    """The mask of a set S inside ``alive`` with b*e(S) - a(|S|-1) > 0, or 0.

    For S containing the anchor w, b*e(S) - a*|S minus w| > 0 is decided
    by a min cut in the usual edge-node network on ``alive`` (source 0,
    sink 1, vertex i at 2+i, edge j at 2+k+j for k vertices), where w's
    sink arc is free.  A cut that fails shows that no such S contains w.
    The returned S is the source side of the minimum cut: the nodes
    reachable from the source over arcs with residual capacity left.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    vs = bits(alive)
    k = len(vs)
    local = {v: i for i, v in enumerate(vs)}
    ends = [2 + j for i, v in enumerate(vs)
            for u in bits(adj[v] & alive >> v + 1 << v + 1) for j in (i, local[u])]
    m = len(ends) // 2
    inf = b * m + a * k + 1
    # rows in node order: the source's arcs to the edge nodes, none from the
    # sink, one sink arc per vertex, and each edge node's arcs to its two ends
    # (already ascending, since u > v)
    indptr = np.concatenate([[0, m], np.arange(m, m + k + 1),
                             np.arange(m + k + 2, 3 * m + k + 1, 2)]).astype(np.int32)
    indices = np.concatenate([np.arange(2 + k, 2 + k + m), np.ones(k, np.int64), ends])
    caps = np.concatenate([np.full(m, b), np.full(k, a), np.full(2 * m, inf)])
    caps[m + local[anchor]] = 0
    net = csr_array((caps.astype(np.int32), indices.astype(np.int32), indptr),
                    shape=(2 + k + m, 2 + k + m))
    res = maximum_flow(net, 0, 1)
    if res.flow_value == b * m:
        return 0
    residual = net - res.flow
    residual.eliminate_zeros()
    side = breadth_first_order(residual, 0, return_predecessors=False)
    return sum(1 << vs[v - 2] for v in side if 2 <= v < 2 + k)
