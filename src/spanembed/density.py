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
counted in one numpy pass (1.9 ms at 19 vertices).  Above that we switch
to Dinkelbach iteration (3.0 ms at 20 vertices): an exact min-cut test
(Goldberg's edge-node network, solved with scipy's ``maximum_flow``)
decides whether some vertex set S has e(S) - g(|S|-1) > 0, and the
density of the S it finds is the next guess g.  Guesses are attained
ratios e/(v-1), so every capacity is at most 2nm + 1 for n vertices and
m edges; scipy's capacities are int32 and wrap silently, so larger
components raise UnsupportedSizeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import InternalInvariantError, InvalidArgumentError, UnsupportedSizeError
from .graphs import Graph, bits

# The subset scan costs 2^n steps whatever the edge count; the flow path's
# cost grows with the edges.  On max-degree-4 components with 2n-1 edges
# (2-core VM, Python 3.11.7, numpy 2.4.6; median of 8 graphs) they cross
# at 19 vertices: scan 0.94 ms, flow 2.64 ms at n = 18; scan 1.92 ms, flow
# 2.84 ms at n = 19; scan 3.89 ms, flow 3.01 ms at n = 20.  The scan's
# transient arrays take about 10 bytes a mask, a peak of 5.3 MB traced at
# n = 19; they must stay under 16 MB, which n = 21 (21 MB) would pass.
EXHAUSTIVE_LIMIT = 19
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
    edges = np.empty(1 << n, dtype=np.uint8)      # e(S) <= C(n, 2) < 256 up to n = 23
    np.bitwise_count(_PAIR_ROWS[:1 << b] & pairs, out=edges[:1 << b])
    for k in range(b, n):
        low = 1 << k
        np.add(edges[:low], np.bitwise_count(np.arange(low) & adj[k]), out=edges[low:2 * low])
    sizes, weights = _scan_tables(n)
    key = edges * weights[sizes]
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
def _scan_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """|S| for every mask S below 2^n, and L/(k-1) for every set size k.

    Sizes are uint8; the weight of a size below 2 is 0, and L = lcm(1..n-1).
    """
    lcm = math.lcm(*range(1, n))
    weights = [0, 0] + [lcm // (k - 1) for k in range(2, n + 1)]
    return np.bitwise_count(np.arange(1 << n)), np.array(weights, dtype=np.int64)


# -- flow-based path ---------------------------------------------------


def _component_m1_flow(g: Graph) -> tuple[int, int, int]:
    """Best (e, v-1, vertex mask) of a connected component by Dinkelbach iteration.

    The first guess is the density of the whole component.  While the
    cut test finds a set S with e(S) - g(|S|-1) > 0, the next guess is
    e(S)/(|S|-1), which is strictly larger.  Every guess is an attained
    ratio, so the loop ends at m1 after finitely many cuts, and the last
    S found attains it.
    """
    n = g.n
    edges = g.sorted_edges()
    # guesses a/b have b <= n-1 and a <= m, so every capacity is at most 2nm + 1
    if 2 * n * len(edges) + 1 > _INT32_MAX:
        raise UnsupportedSizeError(
            f"flow capacities for {n} vertices and {len(edges)} edges overflow int32")
    mask = (1 << n) - 1
    num, den = len(edges), n - 1
    while True:
        found = _denser_set(n, edges, Fraction(num, den))
        if not found:
            return num, den, mask
        mask = found
        num = sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2
        den = mask.bit_count() - 1


def _denser_set(n: int, edges: list[tuple[int, int]], g: Fraction) -> int:
    """Exact test: the mask of a set S with e(S) - g(|S|-1) > 0, or 0 if none.

    For S containing an anchor w, b*e(S) - a*|S minus w| > 0 with g = a/b
    is decided by a min cut in the usual edge-node network (source 0,
    sink 1, vertex v at 2+v, edge j at 2+n+j) where w's sink arc is
    free.  Adding the anchor to any S never lowers the objective, so
    scanning anchors covers every candidate set.  The returned S is the
    source side of the minimum cut: the nodes reachable from the source
    over arcs with residual capacity left.
    """
    a, b = g.numerator, g.denominator
    m = len(edges)
    inf = b * m + a * n + 1
    enodes = np.arange(2 + n, 2 + n + m)
    ends = np.array(edges, dtype=np.int64).reshape(m, 2) + 2
    rows = np.concatenate([np.zeros(m, np.int64), enodes, enodes, np.arange(2, 2 + n)])
    cols = np.concatenate([enodes, ends[:, 0], ends[:, 1], np.ones(n, np.int64)])
    caps = np.concatenate([np.full(m, b), np.full(2 * m, inf), np.full(n, a)])
    net = csr_array((caps.astype(np.int32), (rows, cols)), shape=(2 + n + m, 2 + n + m))
    degree = np.bincount(ends.ravel() - 2, minlength=n)
    for w in sorted(range(n), key=lambda v: -degree[v]):
        net.data[net.indptr[2 + w]] = 0     # a vertex row holds only its sink arc
        res = maximum_flow(net, 0, 1)
        if res.flow_value < b * m:
            residual = net - res.flow
            residual.eliminate_zeros()
            side = breadth_first_order(residual, 0, return_predecessors=False)
            return sum(1 << int(v - 2) for v in side if 2 <= v < 2 + n)
        net.data[net.indptr[2 + w]] = a
    return 0
