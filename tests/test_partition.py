import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_graph, random_bounded_degree_graph, random_graph
from spanembed import partition
from spanembed.errors import InfeasibleParametersError, InternalInvariantError
from spanembed.graphs import (
    Graph,
    blow_up,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from spanembed.partition import (
    clique_factor,
    closed_second_neighborhood,
    distance_power_graph,
    equitable_coloring,
    format_partition,
)
from spanembed.robustness import random_min_degree_host


def brute_force_equitable_exists(h, k):
    """Tiny oracle: search all assignments for an equitable proper colouring."""
    n = h.n
    base, extra = divmod(n, k)
    caps = [base + 1 if i < extra else base for i in range(k)]
    for assign in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for c in assign:
            counts[c] += 1
        if sorted(counts) != sorted(caps):
            continue
        if all(assign[u] != assign[v] for u, v in h.edges):
            return True
    return False


def test_equitable_examples():
    ep = equitable_coloring(Graph(7, []), 3)
    assert sorted(len(p) for p in ep.parts) == [2, 2, 3]
    ep = equitable_coloring(complete_graph(4), 4)
    assert sorted(len(p) for p in ep.parts) == [1, 1, 1, 1]
    ep = equitable_coloring(cycle_graph(5), 3)
    assert sorted(len(p) for p in ep.parts) == [1, 2, 2]
    ep.validate(cycle_graph(5))
    assert brute_force_equitable_exists(cycle_graph(5), 3)


def test_equitable_rejects_small_k():
    with pytest.raises(InfeasibleParametersError):
        equitable_coloring(complete_graph(4), 3)


def test_equitable_restarts_after_a_failed_rebalance(monkeypatch):
    # the index-order greedy colouring of this graph cannot be rebalanced;
    # the first shuffled restart can
    results = []
    rebalance = partition._rebalance

    def recorded(h, classes):
        results.append(rebalance(h, classes))
        return results[-1]

    monkeypatch.setattr(partition, "_rebalance", recorded)
    g = random_bounded_degree_graph(8, 2, seed=803, p=1.0)
    equitable_coloring(g, 3).validate(g)
    assert results == [False, True]


def test_equitable_raises_after_max_restarts_at_every_size(monkeypatch):
    # no exhaustive fallback: once every restart fails, small graphs raise too
    calls = []
    monkeypatch.setattr(partition, "_rebalance", lambda h, classes: calls.append(h) and False)
    for g, k in ((cycle_graph(9), 3), (Graph(12, []), 5), (complete_graph(4), 4),
                 (random_bounded_degree_graph(12, 3, seed=7), 4), (cycle_graph(13), 3)):
        calls.clear()
        with pytest.raises(InternalInvariantError):
            equitable_coloring(g, k)
        assert len(calls) == partition.MAX_RESTARTS, g


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 10_000))
def test_equitable_invariants_random(n, max_deg, seed):
    h = random_bounded_degree_graph(n, max_deg, seed)
    for k in (h.max_degree() + 1, min(n, h.max_degree() + 3)):
        ep = equitable_coloring(h, k)
        ep.validate(h)
        assert ep.k == k


def test_clique_factor_examples():
    f = clique_factor(complete_graph(9), 3)
    assert len(f.cliques) == 3 and f.leftover == ()
    f.validate(complete_graph(9))

    k333 = blow_up(complete_graph(3), [3, 3, 3])
    f = clique_factor(k333, 3)
    assert len(f.cliques) == 3 and f.leftover == ()
    f.validate(k333)

    f = clique_factor(complete_graph(10), 3)
    assert len(f.leftover) == 1 <= 3 - 1
    f.validate(complete_graph(10))


def test_clique_factor_precondition():
    with pytest.raises(InfeasibleParametersError):
        clique_factor(cycle_graph(6), 3)


def test_clique_factor_near_extremal_random():
    for seed in range(10):
        n = 12 + seed
        r = 3 + seed % 2
        need = -(-(r - 1) * n // r)
        g = random_min_degree_host(n, need, seed)
        assert g.min_degree() >= need
        f = clique_factor(g, r)
        f.validate(g)
        assert len(f.leftover) <= r - 1


def test_distance_power_examples():
    assert distance_power_graph(path_graph(4), 5) == complete_graph(4)
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert distance_power_graph(two_triangles, 5) == two_triangles
    c12 = cycle_graph(12)
    p2 = distance_power_graph(c12, 2)
    assert all(p2.degree(v) == 4 for v in range(12))
    # independent count for one vertex, from networkx's distances
    dist = nx.single_source_shortest_path_length(nx_graph(c12), 0)
    assert sum(1 for v in range(1, 12) if dist[v] <= 2) == 4


def test_distance_power_equals_networkx_power():
    for seed in range(40):
        h = random_graph(seed % 30 + 1, 0.03 + seed % 5 * 0.04, seed)
        for radius in (1, 2, 3, 5):
            want = nx.power(nx_graph(h), radius)
            got = distance_power_graph(h, radius)
            assert got.edges == {(min(e), max(e)) for e in want.edges}, (seed, radius)


def test_closed_second_neighborhood_examples():
    iso = Graph(3, [])
    assert closed_second_neighborhood(iso, 1) == (1,)
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert closed_second_neighborhood(star, 0) == (0, 1, 2, 3, 4, 5)
    c8 = cycle_graph(8)
    assert len(closed_second_neighborhood(c8, 3)) == 5


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(2, 5), st.integers(0, 10_000))
def test_second_neighborhood_bound(n, max_deg, seed):
    h = random_bounded_degree_graph(n, max_deg, seed)
    delta = max(h.max_degree(), 2)
    for x in range(h.n):
        ball = closed_second_neighborhood(h, x)
        assert len(ball) <= 1 + delta + delta * delta <= delta ** 3


def test_partition_serialization_roundtrip():
    # nothing reads a partition back, so the written text is checked directly
    assert format_partition(((0, 2, 4), (1, 3), (5,))) == "0 2 4\n1 3\n5\n"
