from itertools import accumulate

import networkx as nx
import numpy as np
import pytest

from conftest import nx_graph, random_graph
from spanembed import graphs
from spanembed.errors import InvalidArgumentError
from spanembed.graphs import (
    GRAPH_MAX_N,
    Graph,
    bits,
    blow_up,
    clique_component_size,
    complete_graph,
    cycle_graph,
    disjoint_union,
    format_graph,
    int_pairs,
    parse_graph,
    path_graph,
    records,
)


def test_basic_invariants():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.num_edges() == 2
    assert g.has_edge(1, 0)
    assert g.degrees() == [1, 1, 1, 1]


def test_rejects_self_loops_and_bad_range():
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(0, 3)])


def test_components_and_bfs():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert g.connected_components() == [[0, 1, 2], [3, 4]]
    d = nx.single_source_shortest_path_length(nx_graph(g), 0)
    assert d[1] == d[2] == 1 and 3 not in d
    assert bits(g.ball(0, 1)) == bits(g.ball(0)) == [0, 1, 2]


def test_ball_equals_networkx_distances():
    for seed in range(60):
        g = random_graph(seed % 25, 0.02 + seed % 7 * 0.03, seed)
        ng = nx_graph(g)
        for v in range(g.n):
            for radius in (*range(7), None):
                want = nx.single_source_shortest_path_length(ng, v, cutoff=radius)
                assert bits(g.ball(v, radius)) == sorted(want), (seed, v, radius)


def test_components_are_cached_behind_fresh_lists():
    g = disjoint_union(path_graph(2), cycle_graph(3))
    comps = g.connected_components()
    comps[0].append(9)
    comps.pop()
    assert g.connected_components() == [[0, 1], [2, 3, 4]]
    cached = g._components             # searched once, on the first call
    g.connected_components()
    assert g._components is cached


@pytest.mark.parametrize("g, size", [
    (disjoint_union(complete_graph(3), complete_graph(3)), 3),
    (disjoint_union(complete_graph(2), complete_graph(2)), 2),
    (Graph(4, []), 1),
    (complete_graph(5), 5),
    (disjoint_union(complete_graph(3), complete_graph(2)), None),   # unequal sizes
    (cycle_graph(4), None),                                         # not a clique
    (disjoint_union(complete_graph(4), cycle_graph(4)), None),      # one is not
    (Graph(0, []), None),
])
def test_clique_component_size(g, size):
    assert clique_component_size(g) == size


def test_complement_of_cycle():
    c5 = cycle_graph(5)
    comp = c5.complement()
    assert comp.num_edges() == 10 - 5
    assert not (set(comp.edges) & set(c5.edges))


def test_induced_relabels():
    g = blow_up(complete_graph(2), [2, 3])
    sub = g.induced([0, 2, 3])
    assert sub.n == 3 and sub.num_edges() == 2


def test_text_roundtrip_sorted_and_comments():
    g = Graph(5, [(3, 1), (0, 4), (2, 0)])
    text = format_graph(g)
    lines = text.strip().splitlines()
    assert lines[0] == "n 5"
    assert lines[1:] == ["0 2", "0 4", "1 3"]
    again = parse_graph("# header comment\n" + text + "# trailing\n")
    assert again == g


def test_parse_errors():
    with pytest.raises(InvalidArgumentError):
        parse_graph("0 1\n")
    with pytest.raises(InvalidArgumentError):
        parse_graph("n 3\n0 1 2\n")
    # range errors name the edge's line, before a Graph is built
    for text, line in (("n 2\n0 5\n", 2), ("n 3\n# loop\n1 1\n", 3), ("n 3\n0 -1\n", 2)):
        with pytest.raises(InvalidArgumentError, match=f"line {line}: edge"):
            parse_graph(text)


def test_header_count_above_the_cap_is_refused_before_building(monkeypatch):
    # header-only texts: the count is refused at its line and no Graph is made
    monkeypatch.setattr(graphs, "Graph", None)
    for text, line, n in ((f"n {GRAPH_MAX_N + 1}\n", 1, GRAPH_MAX_N + 1),
                          ("# huge\nn 10000000000000\n", 2, 10**13)):
        with pytest.raises(InvalidArgumentError,
                           match=f"line {line}: n {n} is above the cap {GRAPH_MAX_N}"):
            parse_graph(text)
    with pytest.raises(InvalidArgumentError, match="line 1: n 4 is above the cap 3"):
        parse_graph("n 4\n", max_n=3)
    assert int_pairs("n 3\n0 1\n", "n", 3) == (3, [(2, 0, 1)])


def test_records_and_integer_pairs():
    text = "# head\n\nn 3   # count\n  0 1\n#\n1\t2 #\n"
    assert list(records(text)) == [(3, "n 3"), (4, "0 1"), (6, "1\t2")]
    assert int_pairs(text, "n") == (3, [(4, 0, 1), (6, 1, 2)])
    assert int_pairs("0 1\n", None) == (0, [(1, 0, 1)])
    assert int_pairs("# only a comment\n", None) == (0, [])
    with pytest.raises(InvalidArgumentError, match="line 3: expected header 'n <count>'"):
        int_pairs("# only\n# comments\n", "n")
    for header in ("n", "bipartite"):
        with pytest.raises(InvalidArgumentError, match=f"line 2: {header} -1 is negative"):
            int_pairs(f"# head\n{header} -1\n", header)


def test_adjacency_matrix_matches_edges():
    g = complete_graph(4)
    m = g.adjacency_matrix()
    assert m.sum() == 12 and not m.diagonal().any()


def test_numpy_integer_endpoints_give_a_symmetric_graph():
    # 1 << np.int64(70) wraps, so an uncoerced endpoint of 63 or more was lost
    g = Graph(100, [(np.int64(1), np.int64(70)), (np.int32(63), np.uint8(64)), (np.int64(99), 0)])
    assert g == Graph(100, [(1, 70), (63, 64), (0, 99)])
    assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in ((1, 70), (63, 64), (0, 99)))
    assert all(type(row) is int for row in g.adj)
    assert all(type(x) is int for e in g.sorted_edges() for x in e)
    for bad in ((0, 1.0), (np.float64(0), 1), ("0", 1)):
        with pytest.raises(InvalidArgumentError, match="not an integer"):
            Graph(3, [bad])


def _random_symmetric(n, p, seed):
    """A seeded symmetric loop-free boolean matrix and its edges as shuffled, flipped pairs."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in zip(*(a.tolist() for a in np.nonzero(upper)))]
    rng.shuffle(pairs)
    return upper | upper.T, pairs


@pytest.mark.parametrize("n, p, seed", [
    (0, 0.5, 0), (1, 0.5, 1), (2, 1.0, 2), (7, 0.4, 3), (63, 0.2, 4), (64, 0.5, 5),
    (65, 0.1, 6), (130, 0.05, 7), (200, 0.9, 8)])
def test_pair_and_matrix_constructions_agree(n, p, seed):
    mat, pairs = _random_symmetric(n, p, seed)
    want = {(u, v) for u in range(n) for v in range(u + 1, n) if mat[u, v]}
    a, b = Graph(n, pairs), Graph(n, mat)
    assert a._edges is None and b._edges is None          # no edge set until one is read
    assert a == b and hash(a) == hash(b) and a.adj == b.adj
    for g in (a, b):
        assert g.edges == want
        assert g.sorted_edges() == sorted(want)
        assert g.num_edges() == len(want)
        assert g.degrees() == mat.sum(axis=1).tolist()
        m = g.adjacency_matrix()
        assert m.dtype == bool and (m == mat).all() and not m.flags.writeable
    assert b.adjacency_matrix().base is mat               # kept, not copied
    assert mat.flags.writeable                            # the caller's array is left as it was


def _blow_up_by_pairs(r_graph, sizes):
    """Blow-up listed edge by edge, the construction ``blow_up`` replaced."""
    ends = [0, *accumulate(sizes)]
    return Graph(ends[-1], [(ends[i] + a, ends[j] + b) for i, j in r_graph.edges
                            for a in range(sizes[i]) for b in range(sizes[j])])


@pytest.mark.parametrize("r_graph, sizes", [
    (complete_graph(3), [3, 3, 3]),
    (cycle_graph(5), [1, 4, 0, 2, 70]),
    (path_graph(2), [40, 30]),
    (Graph(3, []), [2, 2, 2]),
    (complete_graph(1), [5]),
    (Graph(0, []), []),
])
def test_blow_up_equals_the_edge_list_construction(r_graph, sizes):
    g = blow_up(r_graph, sizes)
    want = _blow_up_by_pairs(r_graph, sizes)
    assert g == want and g.sorted_edges() == want.sorted_edges()


def test_complete_graph_equals_the_edge_list_construction():
    for n in range(71):
        want = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        g = complete_graph(n)
        assert g == want and g.sorted_edges() == want.sorted_edges(), n
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        complete_graph(-1)


def test_blow_up_of_random_reduced_graphs():
    for seed in range(10):
        r_graph = random_graph(6, 0.5, seed)
        sizes = [(seed * 7 + i * 3) % 11 for i in range(6)]
        assert blow_up(r_graph, sizes) == _blow_up_by_pairs(r_graph, sizes), seed


def test_matrix_refusals():
    square = np.zeros((3, 3), dtype=bool)
    looped = square.copy()
    looped[1, 1] = True
    one_way = square.copy()
    one_way[0, 2] = True
    for mat, match in ((np.zeros((3, 4), dtype=bool), "must be 3x3 bool"),
                       (np.zeros((4, 4), dtype=bool), "must be 3x3 bool"),
                       (np.zeros(9, dtype=bool), "must be 3x3 bool"),
                       (np.zeros((3, 3), dtype=np.int8), "must be 3x3 bool"),
                       (looped, "self-loop at vertex 1"),
                       (one_way, r"not symmetric at \(0,2\)")):
        with pytest.raises(InvalidArgumentError, match=match):
            Graph(3, mat)
