import networkx as nx
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
