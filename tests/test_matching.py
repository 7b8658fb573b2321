import hashlib
import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import random_bipartite_adj, random_graph
from spanembed.errors import InvalidArgumentError, UnsupportedSizeError
from spanembed.graphs import Graph, cycle_graph, disjoint_union, path_graph
from spanembed.matching import (
    UNMATCHED,
    HallVerdict,
    bipartite_matching,
    edmonds_matching,
    hall_check,
)
from spanembed.robustness import _greedy_matching
from spanembed.spread import FBInstance, FBParams, sample_coupled


def permanent_positive(adj, n):
    """Brute-force oracle: does some permutation hit only edges?"""
    sets = [set(a) for a in adj]
    return any(all(perm[i] in sets[i] for i in range(n))
               for perm in itertools.permutations(range(n)))


def _mat(lam, edges):
    """The lam x lam boolean matrix with entry (a, b) set for each edge (a, b)."""
    z = np.zeros((lam, lam), dtype=bool)
    for a, b in edges:
        z[a, b] = True
    return z


def test_hall_satisfied_on_perfect_matching_graph():
    v = hall_check(_mat(10, [(i, i) for i in range(10)]))
    assert v.satisfied and v.matching_size == 10


def test_hall_isolated_vertex_witness():
    v = hall_check(_mat(4, [(a, b) for a in range(3) for b in range(4)]))
    assert not v.satisfied
    assert v.witness == (3,)


def test_hall_deficient_witness_is_deficient():
    # a1, a2, a3 all only see b0: any two of them witness deficiency
    edges = [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (4, 4), (5, 5), (6, 6), (7, 7)]
    v = hall_check(_mat(8, edges))
    assert not v.satisfied
    nbrs = {b for a, b in edges if a in v.witness}
    assert len(nbrs) < len(v.witness)


def test_hall_matches_permanent_oracle_random():
    for seed in range(30):
        adj = random_bipartite_adj(8, 8, 0.5, seed)
        got = hall_check(_mat(8, [(a, b) for a in range(8) for b in adj[a]])).satisfied
        assert got == permanent_positive(adj, 8), seed


def test_hall_requires_balance():
    with pytest.raises(InvalidArgumentError, match="square"):
        hall_check(np.zeros((3, 2), dtype=bool))


def test_hall_check_replays_coupled_samples():
    # sha256 of (satisfied, witness, matching_size) on 960 seeded coupled
    # samples, recorded with the index-order augmenting-path matcher: C = 1
    # at lam 10/20/40 on dense F, and C = 2 on a sparse F at lam 16.  The
    # witness is the same for every maximum matching, so no matcher may move it.
    params = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
    verdicts = []
    for lam, p, c, samples in ((10, 0.8, 1, 300), (20, 0.8, 1, 300), (40, 0.8, 1, 300),
                               (16, 0.25, 2, 60)):
        adj = random_bipartite_adj(lam, lam, p, lam)
        f = FBInstance(lam, [(a, b) for a in range(lam) for b in adj[a]], params)
        for seed in range(samples):
            v = hall_check(sample_coupled(f, c, seed).z_mat)
            verdicts.append([v.satisfied, v.witness, v.matching_size])
    assert sum(not ok for ok, _, _ in verdicts) == 581
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == "ba6a3b1f6ba549f1cc6b9757613e7da46e0c3a2d926f53f4005792e5b938c861"


def test_hall_check_repeated_edges_and_empty_sides():
    # verdicts recorded with the index-order augmenting-path matcher
    assert hall_check(_mat(0, [])) == HallVerdict(True, None, 0)
    edges = [(0, 0), (0, 0), (1, 0), (1, 0), (2, 2), (2, 2)]
    assert hall_check(_mat(3, edges)) == HallVerdict(False, (0, 1), 2)
    edges = [(0, 0), (0, 1), (0, 1), (1, 1), (1, 1), (2, 2), (2, 2)]
    assert hall_check(_mat(3, edges)) == HallVerdict(True, None, 3)


def test_bipartite_matching_size_equals_networkx_oracle():
    # networkx's Hopcroft-Karp on its own graph structure is the reference
    for seed in range(40):
        rng = random.Random(seed)
        na, nb = rng.randint(0, 12), rng.randint(0, 12)
        adj = random_bipartite_adj(na, nb, rng.choice((0.1, 0.25, 0.5)), seed)
        z = np.zeros((na, nb), dtype=bool)
        for u in range(na):
            z[u, adj[u]] = True
        mate = bipartite_matching(z)
        ng = nx.Graph()
        ng.add_nodes_from(range(na + nb))
        ng.add_edges_from((u, na + v) for u in range(na) for v in adj[u])
        ref = nx.bipartite.maximum_matching(ng, top_nodes=range(na))
        matched = [u for u in range(na) if mate[u] != UNMATCHED]
        assert len(matched) == len(ref) // 2, seed
        assert all(z[u, mate[u]] for u in matched)
        assert len({mate[u] for u in matched}) == len(matched)


def test_bipartite_matching_reused_skeleton_equals_a_fresh_matrix():
    # shapes interleave, so each shape's CSR skeleton is refilled at
    # different nnz, from all-zero matrices and empty rows up to dense ones
    shapes = [(6, 6), (9, 4), (4, 9), (0, 5), (5, 0), (1, 1), (12, 12), (6, 6), (0, 0)]
    rng = np.random.default_rng(19)
    for i in range(300):
        shape = shapes[i % len(shapes)]
        p = (0.0, 0.05, 0.2, 0.5, 1.0)[i % 5]
        z = rng.random(shape) < p
        if i % 7 == 0 and shape[0] > 1:
            z[rng.integers(shape[0])] = False
        fresh = maximum_bipartite_matching(csr_array(z), perm_type="column")
        assert np.array_equal(bipartite_matching(z), fresh), (i, shape)


def test_bipartite_matching_refuses_int32_overflow():
    # a read-only broadcast view: 2.5e9 entries without the memory behind them;
    # the refusal comes before any CSR skeleton is touched
    z = np.broadcast_to(np.zeros(1, dtype=bool), (50_000, 50_000))
    with pytest.raises(UnsupportedSizeError, match="int32"):
        bipartite_matching(z)


def test_hall_check_matches_a_1500_chain():
    # a_i-b_i, a_i-b_{i+1} and a_last-b_0: an augmenting path runs along the
    # whole chain, which the matcher follows without recursion
    n = 1500
    edges = [(a, b) for a in range(n) for b in ((a, a + 1) if a < n - 1 else (0, a))]
    assert hall_check(_mat(n, edges)) == HallVerdict(True, None, n)
    # without b_0's two edges the alternating paths from the unmatched vertex reach all of A
    v = hall_check(_mat(n, [(a, b) for a, b in edges if b != 0]))
    assert v == HallVerdict(False, tuple(range(n)), n - 1)


# -- Edmonds on general graphs, networkx's blossom as the oracle ----------


def networkx_matching_size(g):
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges)
    return len(nx.max_weight_matching(ng, maxcardinality=True))


def matching_size(g, mate):
    """Edges of the matching ``mate``, after checking that it is one in g."""
    assert len(mate) == g.n
    for v, w in enumerate(mate):
        assert w == UNMATCHED or (mate[w] == v and g.has_edge(v, w)), (v, w)
    return sum(w != UNMATCHED for w in mate) // 2


def maximal_matching(g, order):
    """Mate list of the maximal matching that pairs vertices greedily in ``order``."""
    mate = [UNMATCHED] * g.n
    for v in order:
        if mate[v] == UNMATCHED:
            w = next((w for w in order if mate[w] == UNMATCHED and g.has_edge(v, w)), None)
            if w is not None:
                mate[v], mate[w] = w, v
    return mate


def warm_starts(g, seed):
    """The empty matching, the greedy one of containment, and a shuffled maximal one."""
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    return [None, _greedy_matching(g), maximal_matching(g, order)]


def assert_maximum_from_every_start(g, seed):
    want = networkx_matching_size(g)
    for start in warm_starts(g, seed):
        before = None if start is None else list(start)
        mate = edmonds_matching(g.adj, start)
        assert matching_size(g, mate) == want, (g.n, seed)
        assert start == before           # the warm start is not modified


def test_edmonds_size_equals_networkx_on_random_graphs():
    for n in range(2, 61):
        for k, p in enumerate((1.0 / n, 2.0 / n, 0.2)):
            seed = 100 * n + k
            assert_maximum_from_every_start(random_graph(n, p, seed), seed)


def odd_cycles_joined_by_paths(lengths, path_len):
    """Odd cycles in a row, consecutive ones joined by a path of ``path_len`` edges."""
    g = cycle_graph(lengths[0])
    for length in lengths[1:]:
        last = g.n - 1
        g = disjoint_union(g, path_graph(path_len - 1), cycle_graph(length))
        g = Graph(g.n, set(g.edges) | {(last, last + 1), (last + path_len - 1, last + path_len)})
    return g


def blossom_ring(cycle_len, ring_len):
    """``ring_len`` odd cycles arranged in an odd ring, each with a pendant vertex.

    A search that contracts the small cycles closes the ring through
    their bases, so blossoms end up nested inside a blossom.
    """
    size = cycle_len + 1
    edges = set()
    for i in range(ring_len):
        first = i * size
        edges |= {(first + j, first + (j + 1) % cycle_len) for j in range(cycle_len)}
        edges.add((first, first + cycle_len))                      # pendant
        edges.add((first + 1, (first + size + 2) % (ring_len * size)))   # ring edge
    return Graph(ring_len * size, edges)


def test_edmonds_on_blossom_gadgets():
    # the one augmenting path 0-1=2-6=5-4=3-7 runs round the blossom 2..6
    flower = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (3, 7)])
    mate = edmonds_matching(flower.adj, [UNMATCHED, 2, 1, 4, 3, 6, 5, UNMATCHED])
    assert mate == [1, 0, 6, 7, 5, 4, 2, 3]
    # the search from 5 closes the blossom 5-2=0-3=6-9=7-5 round its own root;
    # the one augmenting path, 5-7=9-6=3-0=2-8, leaves it at 2, so both sides
    # of the closing edge must be contracted
    rooted = Graph(10, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (2, 8), (3, 6),
                        (4, 7), (5, 7), (6, 9), (7, 9)])
    mate = edmonds_matching(rooted.adj, [2, 4, 0, 6, 1, UNMATCHED, 3, 9, UNMATCHED, 7])
    assert mate == [3, 4, 8, 0, 1, 7, 9, 5, 2, 6]
    gadgets = [odd_cycles_joined_by_paths(lengths, path_len)
               for lengths in ((3, 3), (3, 5, 7), (5, 3, 5, 3), (7, 7))
               for path_len in (1, 2, 3)]
    gadgets += [blossom_ring(c, r) for c in (3, 5) for r in (3, 5, 7)]
    for i, g in enumerate(gadgets):
        for seed in range(20):
            # relabel, so that roots and warm starts vary
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert_maximum_from_every_start(relabelled, 1000 * i + seed)


def test_edmonds_has_no_depth_limit():
    # a path whose greedy matching takes every second inner edge: the one
    # augmenting path has 1501 edges and visits every vertex
    n = 1502
    order = [n - 2] + list(range(n - 2)) + [n - 1]      # path order of the labels
    g = Graph(n, zip(order, order[1:]))
    start = _greedy_matching(g)
    assert matching_size(g, start) == 750
    mate = edmonds_matching(g.adj, start)
    assert matching_size(g, mate) == 751
    assert [mate[u] for u in order[::2]] == order[1::2]


def test_edmonds_rejects_a_bad_warm_start():
    g = path_graph(4)
    for bad in ([1, 0, UNMATCHED], [1, UNMATCHED, UNMATCHED, UNMATCHED],
                [2, UNMATCHED, 0, UNMATCHED], [1, 0, 3, 7]):
        with pytest.raises(InvalidArgumentError):
            edmonds_matching(g.adj, bad)
