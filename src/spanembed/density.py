"""Exact 1-density and maximum 1-density of a graph.

The 1-density of a graph with at least two vertices is e/(v-1); the
maximum 1-density is the maximum of that ratio over all subgraphs with
at least two vertices.  Everything here is exact rational arithmetic:
values are `fractions.Fraction` and ties are never left to floats.

A maximizing subgraph may be assumed connected and induced: merging two
components strictly lowers the ratio (the denominator loses one fewer
than the sum of parts), and adding edges on a fixed vertex set never
lowers it.  We therefore work per connected component, scanning every
vertex subset of a component of up to EXHAUSTIVE_LIMIT vertices, and
switching to Dinkelbach iteration above that: an exact min-cut test
(Goldberg's edge-node network, solved with scipy's ``maximum_flow``)
decides whether some vertex set S has e(S) - g(|S|-1) > 0, and the
density of the S it finds is the next guess g.  Guesses are attained
ratios e/(v-1), so every capacity is at most 2nm + 1 for n vertices and
m edges; scipy's capacities are int32 and wrap silently, so larger
components raise UnsupportedSizeError.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import InvalidArgumentError, UnsupportedSizeError
from .graphs import Graph, bits

# The subset scan costs 2^n steps whatever the edge count; the flow path's
# cost grows with the edges.  On max-degree-4 components with 2n-1 edges
# (2-core VM, Python 3.11.7) they cross at 14 vertices: scan 3.2 ms, flow
# 3.4 ms at n = 14; scan 7.5 ms, flow 4.1 ms at n = 15.
EXHAUSTIVE_LIMIT = 14
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

    In increasing bitmask order, S comes after S - u for its least vertex
    u, so e(S) = e(S - u) + |N(u) in S - u|.  Ties keep the smallest mask.
    """
    best_num, best_den, best_mask = 0, 1, 0
    adj = g.adj
    edges = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        e = edges[mask] = edges[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
        if rest and e * best_den > best_num * (mask.bit_count() - 1):
            best_num, best_den, best_mask = e, mask.bit_count() - 1, mask
    return best_num, best_den, best_mask


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
