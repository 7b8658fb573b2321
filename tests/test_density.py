import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from catalog import connected_catalog, m1_oracle
from conftest import random_bounded_degree_graph, random_graph
from spanembed import density
from spanembed.density import (
    _component_m1_exhaustive,
    _component_m1_flow,
    max_one_density,
    one_density,
)
from spanembed.errors import InternalInvariantError, InvalidArgumentError, UnsupportedSizeError
from spanembed.graphs import Graph, complete_graph, cycle_graph, disjoint_union


def test_package_attribute_is_the_density_module():
    # no function re-exported under the submodule's name shadows it
    assert density is sys.modules["spanembed.density"]


def test_one_density_examples():
    assert one_density(complete_graph(2)) == 1
    assert one_density(complete_graph(4)) == 2
    assert one_density(cycle_graph(5)) == Fraction(5, 4)
    with pytest.raises(InvalidArgumentError):
        one_density(Graph(1, []))


def test_max_one_density_triangle_and_matchings():
    value, witness = max_one_density(cycle_graph(3))
    assert value == Fraction(3, 2)
    assert set(witness) == {0, 1, 2}
    # max degree <= 1 with an edge: maximum 1-density is exactly 1
    matching = Graph(6, [(0, 1), (2, 3)])
    value, witness = max_one_density(matching)
    assert value == 1
    assert len(witness) == 2


def test_max_one_density_petersen_against_bruteforce():
    petersen = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                          (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                          (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    # brute force over all 2^10 subsets, exact rational comparison
    best = Fraction(0)
    for mask in range(1, 1 << 10):
        vs = [i for i in range(10) if mask >> i & 1]
        if len(vs) < 2:
            continue
        e = sum(1 for (u, v) in petersen.edges if mask >> u & 1 and mask >> v & 1)
        best = max(best, Fraction(e, len(vs) - 1))
    value, witness = max_one_density(petersen)
    assert value == best == Fraction(5, 3)
    sub = petersen.induced(list(witness))
    assert Fraction(sub.num_edges(), sub.n - 1) == value


def test_witness_attains_the_value():
    for seed in range(8):
        g = random_graph(9, 0.45, seed)
        value, witness = max_one_density(g)
        sub = g.induced(list(witness))
        assert Fraction(sub.num_edges(), sub.n - 1) == value


def test_edgeless_graph_has_zero_density():
    value, witness = max_one_density(Graph(4, []))
    assert value == 0 and len(witness) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_m1_matches_subset_oracle(n, seed):
    g = random_graph(n, 0.5, seed)
    assert max_one_density(g)[0] == m1_oracle(g)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 5), st.integers(0, 10_000))
def test_m1_at_most_half_max_degree_plus_one(n, max_deg, seed):
    g = random_bounded_degree_graph(n, max_deg, seed)
    value, _ = max_one_density(g)
    assert value <= Fraction(g.max_degree() + 1, 2)


def test_m1_dominates_every_induced_subgraph():
    for seed in range(5):
        g = random_graph(7, 0.5, seed)
        value, _ = max_one_density(g)
        for mask in range(1, 1 << 7):
            vs = [i for i in range(7) if mask >> i & 1]
            if len(vs) >= 2:
                assert one_density(g.induced(vs)) <= value


def test_flow_path_agrees_with_exhaustive_on_medium_components():
    # connected graphs where both implementations are exercised directly
    for n, seed in [(15, 1), (16, 2), (17, 3), (18, 4)]:
        g = random_bounded_degree_graph(n, 4, seed, p=0.8)
        comps = g.connected_components()
        comp = max(comps, key=len)
        sub = g.induced(comp)
        if sub.n < 3:
            continue
        num_e, den_e, mask_e = bitmask_loop_m1(sub)      # 17 and 18 exceed the scan's limit
        num_f, den_f, mask_f = _component_m1_flow(sub)
        assert Fraction(num_e, den_e) == Fraction(num_f, den_f)
        vs = [i for i in range(sub.n) if mask_f >> i & 1]
        w = sub.induced(vs)
        assert Fraction(w.num_edges(), w.n - 1) == Fraction(num_f, den_f)


def _spy_on_paths(monkeypatch):
    """Record the vertex count of every component each path is handed."""
    seen = {}
    for name in ("_component_m1_exhaustive", "_component_m1_flow"):
        real, seen[name] = getattr(density, name), []

        def spy(g, real=real, sizes=seen[name]):
            sizes.append(g.n)
            return real(g)

        monkeypatch.setattr(density, name, spy)
    return seen


def test_component_size_picks_the_path(monkeypatch):
    # cycles of EXHAUSTIVE_LIMIT and EXHAUSTIVE_LIMIT + 1 vertices side by side
    limit = density.EXHAUSTIVE_LIMIT
    seen = _spy_on_paths(monkeypatch)
    value, witness = max_one_density(disjoint_union(cycle_graph(limit), cycle_graph(limit + 1)))
    assert seen == {"_component_m1_exhaustive": [limit], "_component_m1_flow": [limit + 1]}
    assert value == Fraction(limit, limit - 1)
    assert witness == tuple(range(limit))


def test_large_component_uses_flow_path(monkeypatch):
    # sparse connected graph one vertex above the limit: the package takes
    # the flow search, which hands its peeled 15-vertex core to the scan,
    # and the bitmask loop (2^17 sets) cross-checks it
    n = density.EXHAUSTIVE_LIMIT + 1
    g = random_bounded_degree_graph(n, 3, seed=9, p=0.9)
    assert len(g.connected_components()) == 1
    num_e, den_e, _ = bitmask_loop_m1(g)
    seen = _spy_on_paths(monkeypatch)
    value, witness = max_one_density(g)
    assert seen == {"_component_m1_exhaustive": [15], "_component_m1_flow": [n]}
    assert value == Fraction(num_e, den_e)
    w = g.induced(list(witness))
    assert Fraction(w.num_edges(), w.n - 1) == value


def bitmask_loop_m1(g):
    """Best (e, v-1, mask) by one pure-Python loop over the masks in increasing order.

    S comes after S - u for its least vertex u, so e(S) = e(S - u) +
    |N(u) in S - u|; only a strictly larger ratio replaces the best, so
    ties keep the smallest mask.
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


def test_subset_scan_equals_the_bitmask_loop_on_the_catalog():
    for g in connected_catalog(8):
        if g.n >= 2:
            assert _component_m1_exhaustive(g) == bitmask_loop_m1(g), sorted(g.edges)


def _random_connected_graph(n, p, seed):
    """A random tree (each vertex joined to an earlier one) plus each other pair with probability p."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    return Graph(n, edges)


def test_subset_scan_equals_the_bitmask_loop_up_to_the_limit():
    for n in range(9, density.EXHAUSTIVE_LIMIT + 1):
        for seed, p in enumerate((0.1, 0.3, 0.6)):
            g = _random_connected_graph(n, p, 1000 * n + seed)
            assert _component_m1_exhaustive(g) == bitmask_loop_m1(g), (n, p)


def test_subset_scan_refuses_a_component_above_the_limit():
    # a cycle allocates nothing: the size check comes before any array
    with pytest.raises(InternalInvariantError):
        _component_m1_exhaustive(cycle_graph(density.EXHAUSTIVE_LIMIT + 1))


def test_subset_scan_of_an_edgeless_graph():
    assert _component_m1_exhaustive(Graph(5, [])) == (0, 1, 0)


def test_subset_scan_peak_allocation_at_the_limit():
    # EXHAUSTIVE_LIMIT's comment caps the scan's transient arrays at 16 MB
    g = cycle_graph(density.EXHAUSTIVE_LIMIT)
    tracemalloc.start()
    try:
        assert _component_m1_exhaustive(g) == (g.n, g.n - 1, (1 << g.n) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak


def test_ties_go_to_the_smallest_bitmask():
    # every edge of this tree, and the whole tree, has 1-density 1;
    # {1, 3} is the attaining set with the smallest bitmask (0b1010)
    tree = Graph(5, [(0, 4), (1, 3), (2, 3), (3, 4)])
    assert max_one_density(tree) == (1, (1, 3))


def _clique(vertices):
    return [(u, v) for u in vertices for v in vertices if u < v]


# K5 on 0..4 with a 25-vertex path hanging off vertex 4: from 35/29 the
# first cut already isolates the K5
K5_TAIL = Graph(30, _clique(range(5)) + [(v, v + 1) for v in range(4, 29)])
# K6 on 0..5, five K4s each hung off vertex 0 by one edge, and a 20-vertex
# path tail: from 70/45 the first cut keeps the K4s (density 50/25), only
# the second one isolates the K6
K6_K4S_TAIL = Graph(46, _clique(range(6))
                    + [e for k in range(5) for e in _clique(range(6 + 4 * k, 10 + 4 * k))]
                    + [(0, 6 + 4 * k) for k in range(5)]
                    + [(v, v + 1) for v in range(25, 45)])


@pytest.mark.parametrize("g, value, found", [
    (K5_TAIL, Fraction(5, 2), [0b11111]),
    (K6_K4S_TAIL, Fraction(3), [(1 << 26) - 1, 0b111111]),
])
def test_flow_path_steps_to_the_densest_core(monkeypatch, g, value, found):
    real, seen = density._denser_set, []

    def recording(*args):
        found, alive = real(*args)
        seen.append(found)
        return found, alive

    monkeypatch.setattr(density, "_denser_set", recording)
    num, den, mask = _component_m1_flow(g)
    assert Fraction(num, den) == value
    assert seen == found + [0]      # each improvement, then the failing cut
    assert mask == found[-1]
    witness = tuple(v for v in range(g.n) if mask >> v & 1)
    assert max_one_density(g) == (value, witness)


def test_flow_path_refuses_capacities_past_int32(monkeypatch):
    # scipy's maximum_flow wraps int32 capacities silently; the bound
    # 2nm + 1 is checked before any flow is run
    monkeypatch.setattr(density, "_INT32_MAX", 2 * 25 * 25)
    with pytest.raises(UnsupportedSizeError):
        _component_m1_flow(cycle_graph(25))
    monkeypatch.setattr(density, "_INT32_MAX", 2 * 25 * 25 + 1)
    assert _component_m1_flow(cycle_graph(25))[:2] == (25, 24)


def all_anchor_m1(g):
    """Maximum 1-density of a connected graph and an attaining mask, anchoring every vertex.

    Dinkelbach iteration from the density of the whole graph, each guess
    tested by the edge-node min cut on the whole graph with every vertex
    in turn as the anchor, highest degree first: no peeling, no core and
    no subset scan.
    """
    n, edges = g.n, g.sorted_edges()
    mask, value = (1 << n) - 1, Fraction(len(edges), n - 1)
    while True:
        found = _all_anchor_cut(n, edges, value)
        if not found:
            return value, mask
        mask = found
        value = Fraction(_edges_inside(g, mask), mask.bit_count() - 1)


def _all_anchor_cut(n, edges, g):
    """The source side of the first anchored cut that finds e(S) - g(|S|-1) > 0, or 0."""
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


def _edges_inside(g, mask):
    return sum((g.adj[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1) // 2


def max_degree_4_graph(n, seed):
    """Connected, 2n-1 edges, no degree above 4: seeded pairs taken while both ends have room.

    A draw that ends short of 2n-1 edges or disconnected is redrawn.
    """
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        rng.shuffle(pairs)
        deg = [0] * n
        edges = []
        for u, v in pairs:
            if deg[u] < 4 and deg[v] < 4 and len(edges) < 2 * n - 1:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        g = Graph(n, edges)
        if len(edges) == 2 * n - 1 and len(g.connected_components()) == 1:
            return g


def planted_clique_tree(n, k, seed):
    """K_k on 0..k-1, each later vertex joined to a random earlier one, plus n // 5 random pairs."""
    rng = random.Random(seed)
    edges = _clique(range(k)) + [(rng.randrange(v), v) for v in range(k, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(n // 5)]
    return Graph(n, edges)


# K9 on 0..8 and K8 on 9..16 joined by a 10-vertex path: the first guess
# 75/26 peels the path, and the 17-vertex core left is the two cliques
TWO_CLIQUES_PATH = Graph(27, _clique(range(9)) + _clique(range(9, 17))
                         + [(8, 17)] + [(v, v + 1) for v in range(17, 26)] + [(26, 9)])

ORACLE_GRAPHS = ([max_degree_4_graph(n, 31 * n + j)
                  for n in range(20, 61, 5) for j in range(2)]
                 + [planted_clique_tree(n, k, 7 * n + k) for n in (20, 30) for k in (4, 5, 6)]
                 + [TWO_CLIQUES_PATH, K5_TAIL, K6_K4S_TAIL])


@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=repr)
def test_core_path_agrees_with_the_all_anchor_oracle(g):
    assert len(g.connected_components()) == 1 and g.n > density.EXHAUSTIVE_LIMIT
    value, mask = all_anchor_m1(g)
    assert Fraction(_edges_inside(g, mask), mask.bit_count() - 1) == value
    got, witness = max_one_density(g)
    assert got == value
    assert one_density(g.induced(list(witness))) == value


def test_peeled_core_of_two_cliques_falls_apart():
    # the path goes at the first guess; the core left has two components
    core = density._peel(TWO_CLIQUES_PATH.adj, (1 << 27) - 1, 75, 26)
    assert core == (1 << 17) - 1
    assert len(TWO_CLIQUES_PATH.induced(range(17)).connected_components()) == 2
    assert max_one_density(TWO_CLIQUES_PATH) == (Fraction(9, 2), tuple(range(9)))


def _count_flows(monkeypatch):
    # each anchored cut makes exactly one maximum_flow call
    calls = []
    real = density._anchored_cut
    monkeypatch.setattr(density, "_anchored_cut", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("g, most", [
    (cycle_graph(200), 2),               # anchoring every vertex took 200 cuts
    (max_degree_4_graph(40, 2024), 8),   # and 41 here
])
def test_core_path_cut_count(monkeypatch, g, most):
    calls = _count_flows(monkeypatch)
    value, _ = max_one_density(g)
    assert len(calls) <= most
    assert value == all_anchor_m1(g)[0]


def test_capacity_refusal_runs_no_flow(monkeypatch):
    calls = _count_flows(monkeypatch)
    monkeypatch.setattr(density, "_INT32_MAX", 2 * 25 * 25)
    with pytest.raises(UnsupportedSizeError):
        _component_m1_flow(cycle_graph(25))
    assert calls == []


def test_scan_keys_fit_int32_at_the_limit():
    # the cached key weights are int32: every key e(S) * L/(|S|-1) stays below 2^31
    n = density.EXHAUSTIVE_LIMIT
    assert math.comb(n, 2) * math.lcm(*range(1, n)) < 2**31
    assert density._key_weights(n).dtype == np.int32
