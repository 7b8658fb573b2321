"""Maximum matchings: one bipartite matcher, one general-graph matcher.

The bipartite matcher is scipy's Hopcroft-Karp ("An n^{5/2} algorithm
for maximum matchings in bipartite graphs", 1973) on a boolean
biadjacency matrix, a pure function of the matrix with no randomness of
its own.  ``hall_check`` uses its size to decide Hall's condition on
balanced bipartite graphs (perfect matching iff no deficient set).  On
deficiency the witness is the set of A-vertices reachable by
alternating paths from unmatched A-vertices; that set is the same for
every maximum matching (Dulmage-Mendelsohn), so it does not depend on
which maximum matching the matcher finds.

The bipartite matcher refills one CSR skeleton per matrix shape rather
than building a ``csr_array`` per call, whose constructor checks cost
more than the matching; the indices come from row-major ``np.nonzero``,
which leaves those checks nothing to catch.

The general-graph matcher is Edmonds' cardinality blossom algorithm
("Paths, trees, and flowers", 1965) on neighbour bitmasks, grown from a
warm-start matching; containment of matching patterns uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import InternalInvariantError, InvalidArgumentError, UnsupportedSizeError
from .graphs import bits

UNMATCHED = -1
_SKELETONS: dict[tuple[int, int], csr_array] = {}    # one CSR matrix per shape, refilled per call


def bipartite_matching(z: np.ndarray) -> np.ndarray:
    """Maximum matching of a boolean biadjacency matrix: row a is matched to column mate[a].

    Unmatched rows hold UNMATCHED.  The CSR structure is read off
    ``np.nonzero`` directly, with the int32 indices scipy would convert
    to, and written into a ``csr_array`` kept for the matrix's shape:
    building a fresh one costs more than the matching itself, for its
    constructor checks the indices.  They need no check: row-major
    ``np.nonzero`` yields each row's columns in ascending order, in
    range and without duplicates, and the row starts are a search of
    its sorted rows.  The skeleton is shared, so concurrent calls from
    threads are not supported.
    """
    if z.size > np.iinfo(np.int32).max:
        raise UnsupportedSizeError(f"a {z.shape[0]} x {z.shape[1]} matrix overflows int32 indices")
    rows, cols = np.nonzero(z)
    graph = _SKELETONS.get(z.shape)
    if graph is None:
        graph = _SKELETONS[z.shape] = csr_array(z.shape, dtype=bool)
    graph.indices = cols.astype(np.int32)
    graph.indptr = rows.searchsorted(np.arange(z.shape[0] + 1)).astype(np.int32)
    graph.data = np.ones(len(cols), dtype=bool)
    return maximum_bipartite_matching(graph, perm_type="column")


@dataclass(frozen=True)
class HallVerdict:
    satisfied: bool
    witness: tuple[int, ...] | None = None   # deficient S subset of A, as row indices
    matching_size: int = 0


def hall_check(z: np.ndarray) -> HallVerdict:
    """Decide Hall's condition for the rows of a square boolean biadjacency matrix.

    Row a and column b stand for the edge (a, b).  On failure the
    witness is a set S of rows with |N(S)| < |S|, extracted from the
    alternating reachability of the maximum matching.
    """
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise InvalidArgumentError(f"biadjacency matrix must be square, got shape {z.shape}")
    mate = bipartite_matching(z)
    size = int(np.count_nonzero(mate != UNMATCHED))
    if size == len(z):
        return HallVerdict(True, None, size)

    # alternating reachability from unmatched rows: every reached column is
    # matched, or the matching would not be maximum, so it leads to its row
    pair_r = np.full(len(z), UNMATCHED)
    matched = np.flatnonzero(mate != UNMATCHED)
    pair_r[mate[matched]] = matched
    reach = mate == UNMATCHED
    count = 0
    while (grown := np.count_nonzero(reach)) != count:
        count = grown
        reach[pair_r[z[reach].any(axis=0)]] = True
    return HallVerdict(False, tuple(np.flatnonzero(reach).tolist()), size)


def edmonds_matching(adj: Sequence[int], mate: Sequence[int] | None = None) -> list[int]:
    """Maximum matching of a general graph, grown from a warm start.

    ``adj[v]`` is the neighbour bitmask of vertex v, as in ``Graph.adj``;
    ``mate[v]`` is v's partner in the starting matching or UNMATCHED
    (default: the empty matching).  Returns the mate list of a maximum
    matching; the argument is not modified.  Each exposed vertex roots
    one breadth-first search for an augmenting path.  A root without
    one never gains one after later augmentations, so one pass over the
    exposed vertices suffices.  The search is iterative: path length is
    bounded by n, not by the recursion limit.
    """
    n = len(adj)
    mate = [UNMATCHED] * n if mate is None else list(mate)
    if len(mate) != n:
        raise InvalidArgumentError(f"mate list has {len(mate)} entries for {n} vertices")
    for v, w in enumerate(mate):
        if w != UNMATCHED and not (0 <= w < n and mate[w] == v and adj[v] >> w & 1):
            raise InvalidArgumentError(f"mate[{v}] = {w} is not a matching edge")
    nbrs: list[list[int] | None] = [None] * n     # neighbour lists, built on first scan
    for root in range(n):
        if mate[root] == UNMATCHED:
            _augment_from(root, adj, nbrs, mate)
    return mate


def _augment_from(root: int, adj: Sequence[int], nbrs: list, mate: list[int]) -> None:
    """Grow an alternating tree from ``root``; augment ``mate`` along the first path found.

    ``parent[w]`` is the tree edge into odd vertex w; inside a contracted
    blossom, even vertices also get a parent, pointing the other way
    round the cycle, so that a path can leave the blossom from any of
    its vertices.  ``base[v]`` is the base of v's outermost blossom;
    ``tree`` lists the vertices of the tree, the only ones a blossom
    can contain.
    """
    n = len(adj)
    base = list(range(n))
    parent = [UNMATCHED] * n
    even = [False] * n
    even[root] = True
    queue = [root]
    tree = [root]
    for v in queue:
        if nbrs[v] is None:
            nbrs[v] = bits(adj[v])
        for w in nbrs[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if even[w]:     # the edge closes an odd cycle: contract it
                b = _common_base(v, w, base, parent, mate)
                blossom = [False] * n
                _mark_path(v, b, w, base, parent, mate, blossom)
                _mark_path(w, b, v, base, parent, mate, blossom)
                for u in tree:
                    if blossom[base[u]]:
                        base[u] = b
                        if not even[u]:
                            even[u] = True
                            queue.append(u)
            elif parent[w] == UNMATCHED:
                parent[w] = v
                if mate[w] == UNMATCHED:
                    for _ in range(n):      # flip the path root ... v-w
                        v = parent[w]
                        nxt = mate[v]
                        mate[w], mate[v] = v, w
                        w = nxt
                        if w == UNMATCHED:
                            return
                    raise InternalInvariantError(f"augmenting path from {root} does not end")
                even[mate[w]] = True
                queue.append(mate[w])
                tree += (w, mate[w])


def _common_base(v: int, w: int, base: list[int], parent: list[int], mate: list[int]) -> int:
    """Base of the first blossom shared by the tree paths from even v and w to the root."""
    on_path = set()
    while True:
        v = base[v]
        on_path.add(v)
        if mate[v] == UNMATCHED:
            break
        v = parent[mate[v]]
    while True:
        w = base[w]
        if w in on_path:
            return w
        w = parent[mate[w]]


def _mark_path(v: int, b: int, child: int, base: list[int], parent: list[int],
               mate: list[int], blossom: list[bool]) -> None:
    """Mark the blossoms on the tree path from even v to base b; point its evens at ``child``."""
    while base[v] != b:
        blossom[base[v]] = blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
