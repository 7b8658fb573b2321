"""Shared test helpers: seeded random graph generators and oracles."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import networkx as nx
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from spanembed.graphs import Graph, bits

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_bounded_degree_graph(n: int, max_deg: int, seed: int, p: float = 0.5) -> Graph:
    """Random graph thinned greedily so that no degree exceeds max_deg."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < max_deg and deg[v] < max_deg and rng.random() < p:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def nx_graph(g: Graph) -> nx.Graph:
    """The same graph as a networkx graph, isolated vertices included."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def format_fb_instance(f) -> str:
    """Write an FB instance in the text format ``spread.parse_fb_instance`` reads."""
    lines = [f"bipartite {f.lam}"]
    lines.extend(f"{a} {f.lam + b}" for a, b in sorted(f.edges))
    return "\n".join(lines) + "\n"


def random_bipartite_adj(na: int, nb: int, p: float, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[b for b in range(nb) if rng.random() < p] for _ in range(na)]


def backtracking_extender(g: Graph, h: Graph, fixed: dict[int, int],
                          budget: int = 2_000_000) -> dict[int, int] | None:
    """Independent oracle: does some embedding of H into G extend ``fixed``?

    Plain backtracking over H-vertices in degree order with adjacency
    consistency; no common-neighbourhood tricks, so it shares no code
    with the switching embedder.
    """
    n = h.n
    order = sorted((x for x in range(n) if x not in fixed),
                   key=lambda x: (-h.degree(x), x))
    order = list(fixed) + order
    phi: dict[int, int] = dict(fixed)
    used = set(fixed.values())
    if len(used) != len(fixed):
        return None
    nodes = 0

    def ok_at(x: int, v: int) -> bool:
        for y in bits(h.adj[x]):
            if y in phi and not g.has_edge(v, phi[y]):
                return False
        return True

    for x, v in fixed.items():
        if not ok_at(x, v):
            return None

    def place(i: int) -> bool:
        nonlocal nodes
        if i == len(order):
            return True
        x = order[i]
        if x in fixed:
            return place(i + 1)
        nodes += 1
        if nodes > budget:
            raise TimeoutError("oracle budget exhausted")
        for v in range(g.n):
            if v in used or not ok_at(x, v):
                continue
            phi[x] = v
            used.add(v)
            if place(i + 1):
                return True
            used.discard(v)
            del phi[x]
        return False

    return dict(phi) if place(0) else None
