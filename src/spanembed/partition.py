"""Equitable colorings, clique factors, and distance-power helpers.

An equitable partition splits V(H) into k independent sets whose sizes
differ by at most one; it exists whenever k >= max degree + 1.  The
algorithm here is greedy colouring followed by rebalancing: move a
vertex from an over-full class to an under-full class where it has no
neighbour, searching an augmenting path through the digraph of feasible
class-to-class moves when no direct move exists.  When rebalancing
gets stuck, the greedy colouring restarts from a shuffled vertex order;
after ``MAX_RESTARTS`` orders in all, ``InternalInvariantError`` is
raised at every size.  There is no other fallback: no colouring met in
random sweeps, the pipeline's inputs or the benchmark needed more than
one restart.  Ties break toward the lowest vertex index throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InfeasibleParametersError,
    InternalInvariantError,
    InvalidArgumentError,
)
from .graphs import Graph, bits, mask_of
from .seeds import py_rng

MAX_RESTARTS = 60


@dataclass(frozen=True)
class EquitablePartition:
    parts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.parts)

    def validate(self, h: Graph) -> None:
        seen: set[int] = set()
        for part in self.parts:
            pset = set(part)
            if pset & seen:
                raise InternalInvariantError("partition classes overlap")
            seen |= pset
            m = mask_of(part)
            for v in part:
                if h.adj[v] & m:
                    raise InternalInvariantError(f"class containing {v} is not independent")
        if seen != set(range(h.n)):
            raise InternalInvariantError("partition does not cover the vertex set")
        sizes = [len(p) for p in self.parts]
        if sizes and max(sizes) - min(sizes) > 1:
            raise InternalInvariantError(f"class sizes {sizes} differ by more than one")


@dataclass(frozen=True)
class CliqueFactor:
    cliques: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]
    r: int

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for clique in self.cliques:
            if len(clique) != self.r:
                raise InternalInvariantError("clique of wrong size")
            if set(clique) & seen:
                raise InternalInvariantError("cliques overlap")
            seen |= set(clique)
            for i, u in enumerate(clique):
                for v in clique[i + 1:]:
                    if not g.has_edge(u, v):
                        raise InternalInvariantError(f"({u},{v}) missing inside a clique")
        if set(self.leftover) & seen:
            raise InternalInvariantError("leftover overlaps cliques")
        if seen | set(self.leftover) != set(range(g.n)):
            raise InternalInvariantError("factor does not cover the vertex set")
        if len(self.leftover) > self.r - 1:
            raise InternalInvariantError(f"leftover {len(self.leftover)} exceeds r-1")


def equitable_coloring(h: Graph, k: int) -> EquitablePartition:
    """Equitable partition of V(H) into k independent sets.

    Requires k >= max degree + 1 (the theorem hypothesis); raises
    InfeasibleParametersError below that and does not attempt.
    """
    if k < 1:
        raise InvalidArgumentError(f"k must be positive, got {k}")
    if k <= h.max_degree():
        raise InfeasibleParametersError(
            f"equitable colouring needs k >= {h.max_degree() + 1}, got {k}"
        )
    for attempt in range(MAX_RESTARTS):
        order = list(range(h.n))
        if attempt:
            py_rng(attempt).shuffle(order)
        classes = _greedy_balanced_coloring(h, k, order)
        if _rebalance(h, classes):
            ep = EquitablePartition(tuple(tuple(bits(c)) for c in classes))
            ep.validate(h)
            return ep
    raise InternalInvariantError(
        "rebalancing failed on a feasible instance; this indicates a bug"
    )


def _greedy_balanced_coloring(h: Graph, k: int, order: Sequence[int]) -> list[int]:
    """Each vertex in ``order`` joins the smallest class with no neighbour of it
    (the lowest such); a class is the bitmask of its vertices."""
    classes = [0] * k
    for v in order:
        best = None
        for c in range(k):
            if h.adj[v] & classes[c]:
                continue
            if best is None or classes[c].bit_count() < classes[best].bit_count():
                best = c
        classes[best] |= 1 << v
    return classes


def _rebalance(h: Graph, classes: list[int]) -> bool:
    """Equalize the sizes of the class bitmasks, in place, via augmenting move
    paths; True on success."""
    k = len(classes)
    while True:
        sizes = [c.bit_count() for c in classes]
        hi, lo = max(sizes), min(sizes)
        if hi - lo <= 1:
            return True
        sources = [c for c in range(k) if sizes[c] == hi]
        targets = {c for c in range(k) if sizes[c] <= hi - 2}
        path = _move_path(h, classes, sources, targets)
        if path is None:
            return False
        for cls_from, cls_to, v in path:
            classes[cls_from] ^= 1 << v
            classes[cls_to] |= 1 << v


def _move_path(h, classes, sources, targets):
    """BFS in the digraph of feasible vertex moves between classes.

    An arc c -> c' carries a vertex of class c with no neighbour in
    class c'; executing a path moves one vertex per arc, shrinking the
    first class and growing the last while all classes stay independent
    (later witnesses are unaffected because no vertex leaves their
    class before they move).
    """
    k = len(classes)
    parent: dict[int, tuple[int, int]] = {}
    visited = set(sources)
    queue = list(sources)
    goal = None
    while queue and goal is None:
        frontier = []
        for c in queue:
            for c2 in range(k):
                if c2 == c or c2 in visited:
                    continue
                witness = None
                for v in bits(classes[c]):
                    if not (h.adj[v] & classes[c2]):
                        witness = v
                        break
                if witness is None:
                    continue
                parent[c2] = (c, witness)
                visited.add(c2)
                if c2 in targets:
                    goal = c2
                    break
                frontier.append(c2)
            if goal is not None:
                break
        queue = frontier
    if goal is None:
        return None
    # unwind into (from, to, vertex) triples, executed source-first
    chain = []
    c = goal
    while c in parent:
        prev, v = parent[c]
        chain.append((prev, c, v))
        c = prev
    chain.reverse()
    return chain


def clique_factor(g: Graph, r: int) -> CliqueFactor:
    """K_r-factor covering all but at most r-1 vertices.

    Requires min degree at least ceil((1 - 1/r) n).  Implementation:
    set aside n mod r vertices (lowest degree first), then equitably
    colour the complement of the rest into exactly (n - s)/r classes,
    which all have size r and are cliques in G.  Setting the remainder
    aside first is what keeps the leftover at most r-1: colouring all n
    vertices into ceil(n/r) classes can strand up to two short classes.
    """
    if r < 1:
        raise InvalidArgumentError(f"r must be positive, got {r}")
    n = g.n
    need = -(-(r - 1) * n // r)
    if g.min_degree() < need:
        raise InfeasibleParametersError(
            f"clique factor needs min degree >= {need}, got {g.min_degree()}"
        )
    s = n % r
    by_degree = sorted(range(n), key=lambda v: (g.degree(v), v))
    leftover = tuple(sorted(by_degree[:s]))
    rest = [v for v in range(n) if v not in set(leftover)]
    if not rest:
        return CliqueFactor((), leftover, r)
    sub = g.induced(rest)
    q = len(rest) // r
    coloring = equitable_coloring(sub.complement(), q)
    cliques = tuple(
        tuple(sorted(rest[i] for i in part)) for part in coloring.parts
    )
    factor = CliqueFactor(tuple(sorted(cliques)), leftover, r)
    factor.validate(g)
    return factor


def distance_power_graph(h: Graph, radius: int) -> Graph:
    """Graph on V(H) joining distinct vertices at H-distance <= radius."""
    if radius < 1:
        raise InvalidArgumentError(f"radius must be >= 1, got {radius}")
    edges = []
    for u in range(h.n):
        edges.extend((u, v) for v in bits(h.ball(u, radius) >> (u + 1) << (u + 1)))
    return Graph(h.n, edges)


def closed_second_neighborhood(h: Graph, x: int) -> tuple[int, ...]:
    """All vertices at H-distance <= 2 from x, including x itself."""
    if not 0 <= x < h.n:
        raise InvalidArgumentError(f"vertex {x} outside range [0,{h.n})")
    return tuple(bits(h.ball(x, 2)))


def format_partition(parts: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(v) for v in part) for part in parts) + "\n"
