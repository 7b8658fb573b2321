"""Switching-based spanning embedding that extends a given partial map.

Starting from any bijection V(H) -> V(G) that extends the given partial
embedding, repeatedly pick an H-edge whose image is not a G-edge and
repair it: swap the image of one endpoint x with the image of some
vertex y whose image is a common G-neighbour of the images of N_H(x),
accepting the first swap that breaks no currently mapped edge.  Each
accepted swap strictly increases the number of mapped H-edges, so at
most e(H) swaps occur.  Vertices in the domain of the partial embedding
never move.

Under the minimum-degree hypothesis delta(G) >= ((2D-1)/2D + gamma) n
with a small enough domain this always terminates in a full embedding;
the operation attempts on any input regardless and reports a stuck
state when no admissible swap exists.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InternalInvariantError, InvalidArgumentError
from .graphs import Graph, bits
from .seeds import py_rng


@dataclass(frozen=True)
class PartialEmbedding:
    """Injective partial map V(H) -> V(G) embedding H[domain] into G."""

    assignment: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, h: Graph, g: Graph, mapping: Mapping[int, int]) -> "PartialEmbedding":
        items = tuple(sorted(mapping.items()))
        dom = [x for x, _ in items]
        img = [v for _, v in items]
        if any(not 0 <= x < h.n for x in dom):
            raise InvalidArgumentError("domain vertex outside V(H)")
        if any(not 0 <= v < g.n for v in img):
            raise InvalidArgumentError("image vertex outside V(G)")
        if len(set(img)) != len(img):
            raise InvalidArgumentError("partial embedding is not injective")
        m = dict(items)
        for x, y in h.edges:
            if x in m and y in m and not g.has_edge(m[x], m[y]):
                raise InvalidArgumentError(
                    f"H-edge ({x},{y}) inside the domain maps to a non-edge"
                )
        return cls(items)

    @classmethod
    def empty(cls) -> "PartialEmbedding":
        return cls(())

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)


@dataclass(frozen=True)
class SwitchStep:
    time: int
    x: int
    y: int
    repaired: tuple[int, int]


@dataclass(frozen=True)
class SwitchOutcome:
    ok: bool
    mapping: tuple[int, ...]          # mapping[x] = image of H-vertex x
    steps: tuple[SwitchStep, ...]     # accepted swaps in order
    note: str = ""


def delta_e_upper_bound(delta: int) -> Fraction:
    """Certified upper bound (2D-1)/2D on the extension threshold."""
    if delta < 1:
        raise InvalidArgumentError(f"maximum degree must be >= 1, got {delta}")
    return Fraction(2 * delta - 1, 2 * delta)


def switching_embed(g: Graph, h: Graph, phi_s: PartialEmbedding, seed: int) -> SwitchOutcome:
    """Extend ``phi_s`` to a full embedding of H into G by image swaps.

    Returns a SwitchOutcome; on failure ``ok`` is False and ``mapping``
    holds the stuck bijection for diagnosis.  The initial bijection is a
    seeded random extension of ``phi_s``; unmapped edges are repaired in
    lexicographic order with the swap-candidate scan order randomized by
    the same seed.
    """
    if g.n != h.n:
        raise InvalidArgumentError(f"need |V(G)| = |V(H)|, got {g.n} != {h.n}")
    n = g.n
    rng = py_rng(seed)
    fixed = phi_s.as_dict()

    phi = [-1] * n
    for x, v in fixed.items():
        phi[x] = v
    free_h = [x for x in range(n) if phi[x] < 0]
    images = set(fixed.values())
    free_g = [v for v in range(n) if v not in images]
    rng.shuffle(free_g)
    for x, v in zip(free_h, free_g):
        phi[x] = v

    in_s = set(fixed)
    s_image_mask = 0
    for v in fixed.values():
        s_image_mask |= 1 << v
    inv = [-1] * n
    for x, v in enumerate(phi):
        inv[v] = x

    edges = h.sorted_edges()
    mapped = sum(1 for u, v in edges if g.has_edge(phi[u], phi[v]))
    target = len(edges)
    steps: list[SwitchStep] = []
    time = 0

    unmapped = _unmapped_oriented(g, phi, in_s, edges)
    while mapped < target:
        time += 1
        accepted = False
        for x, xs in unmapped:
            common = (1 << n) - 1
            for a in bits(h.adj[x]):
                common &= g.adj[phi[a]]
            common &= ~s_image_mask
            cands = bits(common)
            rng.shuffle(cands)
            for w in cands:
                y = inv[w]
                delta = _swap_delta(g, h, phi, x, y)
                if delta is None:
                    continue
                phi[x], phi[y] = phi[y], phi[x]
                inv[phi[x]], inv[phi[y]] = x, y
                mapped += delta
                if delta <= 0:
                    raise InternalInvariantError("accepted swap did not increase mapped edges")
                steps.append(SwitchStep(time, x, y, (min(x, xs), max(x, xs))))
                accepted = True
                break
            if accepted:
                break
        if not accepted:
            return SwitchOutcome(False, tuple(phi), tuple(steps),
                                 note="stuck: unmapped edge with no admissible swap")
        _drop_mapped(g, h, phi, unmapped, x, y)

    for x, v in fixed.items():
        if phi[x] != v:
            raise InternalInvariantError("partial embedding was not preserved")
    return SwitchOutcome(True, tuple(phi), tuple(steps))


def _unmapped_oriented(g, phi, in_s, edges):
    """Oriented unmapped edges (x, x*) with x outside the fixed domain, sorted."""
    out = []
    for u, v in edges:
        if g.has_edge(phi[u], phi[v]):
            continue
        if u not in in_s:
            out.append((u, v))
        if v not in in_s:
            out.append((v, u))
    out.sort()
    return out


def _drop_mapped(g, h, phi, unmapped, x, y):
    """Remove from the sorted ``unmapped`` the edges at x or y that their swap mapped.

    No other edge changes: an accepted swap unmaps nothing (``_swap_delta``)
    and moves only the images of x and y.
    """
    for u in (x, y):
        for a in bits(h.adj[u]):
            if g.has_edge(phi[u], phi[a]):
                for pair in ((u, a), (a, u)):
                    i = bisect_left(unmapped, pair)
                    if i < len(unmapped) and unmapped[i] == pair:
                        del unmapped[i]


def _swap_delta(g, h, phi, x, y):
    """Net mapped-edge change from swapping images of x and y.

    Returns None if any currently mapped edge would become unmapped;
    otherwise the gain.  Only edges at x and y can change, and an x-y
    edge keeps the same image pair, so both are skipped below.
    """
    new_x, new_y = phi[y], phi[x]
    gain = 0
    for u in (x, y):
        img_new = new_x if u == x else new_y
        for a in bits(h.adj[u]):
            if a == x or a == y:
                continue
            was = g.has_edge(phi[u], phi[a])
            now = g.has_edge(img_new, phi[a])
            if was and not now:
                return None
            gain += int(now) - int(was)
    return gain
