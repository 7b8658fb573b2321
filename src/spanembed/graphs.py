"""Simple undirected graphs on vertex set {0..n-1}.

Graphs are immutable after construction and safe to share across
threads.  A graph stores only its per-vertex adjacency bitmasks
(Python ints, fast set algebra).  The edge set and the numpy boolean
matrix of the vectorized inner loops are derived from them on first
use and cached.  Block graphs (complete graphs, blow-ups, generated
hosts) arrive as boolean matrices, which are packed into the bitmasks
and kept as the cached matrix, so they are never listed edge by edge.

Text format, shared by every module and the CLI::

    # comment
    n 7
    0 1
    2 5

First line ``n <count>``, then one ``u v`` pair per line, 0-based,
whitespace-separated, each edge once in either orientation.  Writers
emit edges sorted with u < v.  Every text reader of the toolkit goes
through ``records``: ``#`` starts a comment that runs to the end of the
line, blank lines are skipped, and a malformed line is reported with
its number.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError

Edge = tuple[int, int]


class Graph:
    """Immutable simple graph: no loops, no parallel edges.

    ``edges`` is either an iterable of vertex pairs, each edge in either
    orientation and any number of times, or an n x n boolean matrix,
    which must be symmetric with a false diagonal.  The matrix is kept
    as a read-only view, not a copy, for ``adjacency_matrix()``, so it
    must not be mutated after construction.
    """

    __slots__ = ("n", "adj", "_edges", "_num_edges", "_adj_matrix", "_max_degree",
                 "_components")

    def __init__(self, n: int, edges: Iterable[Edge] | np.ndarray):
        n = operator.index(n)
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        if isinstance(edges, np.ndarray):
            self.adj, self._adj_matrix = _matrix_rows(n, edges)
        else:
            adj = [0] * n
            for u, v in edges:
                try:
                    u, v = operator.index(u), operator.index(v)
                except TypeError:
                    raise InvalidArgumentError(
                        f"edge ({u},{v}) has an endpoint that is not an integer") from None
                if u == v:
                    raise InvalidArgumentError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidArgumentError(f"edge ({u},{v}) outside vertex range [0,{n})")
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            self.adj = tuple(adj)
            self._adj_matrix = None
        self._edges = None
        self._num_edges = None
        self._max_degree = None
        self._components = None

    # -- basic queries ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def max_degree(self) -> int:
        """Largest vertex degree, 0 for no vertices (cached)."""
        if self._max_degree is None:
            self._max_degree = max((m.bit_count() for m in self.adj), default=0)
        return self._max_degree

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self.adj), default=0)

    def num_edges(self) -> int:
        """Edge count (cached)."""
        if self._num_edges is None:
            self._num_edges = sum(m.bit_count() for m in self.adj) // 2
        return self._num_edges

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as (u, v) pairs with u < v (built on first read, then cached)."""
        if self._edges is None:
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    def sorted_edges(self) -> list[Edge]:
        """The (u, v) pairs with u < v in ascending order, read off the rows."""
        return [(u, v) for u, mask in enumerate(self.adj)
                for v in bits(mask >> (u + 1) << (u + 1))]

    def adjacency_matrix(self) -> np.ndarray:
        """Read-only boolean n x n adjacency matrix, unpacked from the rows (cached)."""
        if self._adj_matrix is None:
            n = self.n
            width = (n + 7) // 8
            packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in self.adj),
                                   dtype=np.uint8).reshape(n, width)
            mat = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
            mat.flags.writeable = False
            self._adj_matrix = mat
        return self._adj_matrix

    # -- derived graphs -----------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        es = []
        for u in range(self.n):
            missing = full & ~self.adj[u] & ~(1 << u)
            for v in bits(missing):
                if v > u:
                    es.append((u, v))
        return Graph(self.n, es)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabeled to {0..k-1} in the given vertex order."""
        idx = {v: i for i, v in enumerate(vertices)}
        inside = mask_of(vertices)
        es = [(i, idx[u]) for i, v in enumerate(vertices) for u in bits(self.adj[v] & inside)]
        return Graph(len(vertices), es)

    def ball(self, v: int, radius: int | None = None) -> int:
        """Mask of the vertices within ``radius`` steps of v; v's whole component for None."""
        reach = frontier = 1 << v
        for _ in range(self.n if radius is None else radius):
            nxt = 0
            for u in bits(frontier):
                nxt |= self.adj[u]
            frontier = nxt & ~reach
            if not frontier:
                break
            reach |= frontier
        return reach

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the components by least vertex (cached; fresh lists per call)."""
        if self._components is None:
            seen = 0
            comps = []
            for s in range(self.n):
                if not seen >> s & 1:
                    comp = self.ball(s)
                    seen |= comp
                    comps.append(tuple(bits(comp)))
            self._components = tuple(comps)
        return [list(c) for c in self._components]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


def _matrix_rows(n: int, mat: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The bitmask rows of an adjacency matrix, checked, and a read-only view of it."""
    if mat.dtype != bool or mat.shape != (n, n):
        raise InvalidArgumentError(
            f"adjacency matrix must be {n}x{n} bool, got {mat.shape} {mat.dtype}")
    loops = np.flatnonzero(mat.diagonal())
    if loops.size:
        raise InvalidArgumentError(f"self-loop at vertex {loops[0]}")
    odd = np.argwhere(mat != mat.T)
    if odd.size:
        u, v = odd[0].tolist()
        raise InvalidArgumentError(f"adjacency matrix is not symmetric at ({u},{v})")
    view = mat.view()
    view.flags.writeable = False
    packed = np.packbits(mat, axis=1, bitorder="little")
    return tuple(int.from_bytes(row, "little") for row in packed), view


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def clique_component_size(g: Graph) -> int | None:
    """r if every component of g is a clique on r vertices; None otherwise or for no vertices."""
    comps = g.connected_components()
    sizes = {len(c) for c in comps}
    if len(sizes) != 1:
        return None
    r = sizes.pop()
    return r if g.num_edges() == len(comps) * r * (r - 1) // 2 else None


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def subset_rows(n: int, floor: float) -> np.ndarray:
    """0/1 float rows of every nonempty subset of range(n) with at least ``floor`` members.

    Rows come in increasing bitmask order, bit i standing for member i.
    """
    masks = np.arange(1, 1 << n)
    rows = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    return rows[rows.sum(axis=1) >= floor]


# -- construction helpers --------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, ~np.eye(max(n, 0), dtype=bool))   # Graph refuses a negative n


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgumentError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def blow_up(r_graph: Graph, sizes: Sequence[int]) -> Graph:
    """Replace node i by an independent set of sizes[i], edges by complete pairs."""
    ends = [0, *accumulate(sizes)]
    mat = np.zeros((ends[-1], ends[-1]), dtype=bool)
    for i, j in r_graph.sorted_edges():
        mat[ends[i]:ends[i + 1], ends[j]:ends[j + 1]] = True
        mat[ends[j]:ends[j + 1], ends[i]:ends[i + 1]] = True
    return Graph(ends[-1], mat)


def disjoint_union(*parts: Graph) -> Graph:
    n = 0
    es = []
    for g in parts:
        es.extend((u + n, v + n) for u, v in g.sorted_edges())
        n += g.n
    return Graph(n, es)


# -- text format ------------------------------------------------------

# A vertex's adjacency row is an int with a bit per vertex, so the rows of
# an n-vertex graph take up to n^2/8 bytes: 12.5 MB at this cap.
GRAPH_MAX_N = 10_000


def parse_int(token: str, lineno: int) -> int:
    """``int(token)``, reporting a malformed token as invalid input on its line."""
    try:
        return int(token)
    except ValueError:
        raise InvalidArgumentError(
            f"line {lineno}: expected an integer, got {token!r}") from None


def records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line with its ``#`` comment cut off) for each line that is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def int_pairs(text: str, header: str | None = None,
              max_count: int | None = None) -> tuple[int, list[tuple[int, int, int]]]:
    """The ``a b`` integer lines of ``text`` as (line number, a, b).

    With ``header``, the first line must read ``<header> <count>`` with a
    count of at least 0, and at most ``max_count`` if one is given; the
    count comes first in the result.  Without a header the count is 0.
    """
    count = None if header else 0
    pairs = []
    for lineno, line in records(text):
        tokens = line.split()
        if count is None:
            if len(tokens) != 2 or tokens[0] != header:
                raise InvalidArgumentError(
                    f"line {lineno}: expected header '{header} <count>', got {line!r}")
            count = parse_int(tokens[1], lineno)
            if count < 0:
                raise InvalidArgumentError(f"line {lineno}: {header} {count} is negative")
            if max_count is not None and count > max_count:
                raise InvalidArgumentError(
                    f"line {lineno}: {header} {count} is above the cap {max_count}")
        elif len(tokens) != 2:
            raise InvalidArgumentError(f"line {lineno}: expected 'a b', got {line!r}")
        else:
            pairs.append((lineno, parse_int(tokens[0], lineno), parse_int(tokens[1], lineno)))
    if count is None:
        raise InvalidArgumentError(f"line {len(text.splitlines()) + 1}: expected header "
                                   f"'{header} <count>', got the end of the input")
    return count, pairs


def parse_graph(text: str, max_n: int = GRAPH_MAX_N) -> Graph:
    """The graph of ``text``; a loop, an edge outside [0,n) or a repeated edge names its line.

    A header count above ``max_n`` is refused at its line, before anything is built.
    """
    n, pairs = int_pairs(text, "n", max_n)
    line_of: dict[Edge, int] = {}
    for lineno, u, v in pairs:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise InvalidArgumentError(f"line {lineno}: edge ({u},{v}) is a loop or leaves "
                                       f"[0,{n})")
        edge = (min(u, v), max(u, v))
        if edge in line_of:
            raise InvalidArgumentError(
                f"line {lineno}: edge ({u},{v}) repeats line {line_of[edge]}")
        line_of[edge] = lineno
    return Graph(n, line_of)


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_graph(path, max_n: int = GRAPH_MAX_N) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read(), max_n)


def is_valid_embedding(h: Graph, g: Graph, phi: dict[int, int] | Sequence[int]) -> bool:
    """True iff phi maps V(H) injectively into V(G) sending H-edges to G-edges."""
    if not isinstance(phi, dict):
        phi = dict(enumerate(phi))
    if set(phi) != set(range(h.n)):
        return False
    images = list(phi.values())
    if len(set(images)) != len(images) or any(not 0 <= v < g.n for v in images):
        return False
    return all(g.has_edge(phi[x], phi[y]) for x, y in h.edges)
