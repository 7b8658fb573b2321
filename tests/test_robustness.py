import hashlib
import itertools
import json
import math
import random
from collections import Counter

import networkx as nx
import pytest

from conftest import random_graph
from spanembed import robustness
from spanembed.density import max_one_density
from spanembed.errors import InternalInvariantError, InvalidArgumentError
from spanembed.graphs import (
    Graph,
    blow_up,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_valid_embedding,
    path_graph,
)
from spanembed.robustness import (
    NO,
    TIMEOUT,
    YES,
    _cliques_from,
    _greedy_matching,
    ContainVerdict,
    ThresholdScan,
    clique_factor_pattern,
    contains_spanning,
    dirac_overlap_host,
    mixture_pattern,
    nested_gp,
    perfect_matching_pattern,
    random_min_degree_host,
    sample_gp,
    scan_thm91_grid,
    threshold_scan,
    unbalanced_multipartite_host,
)
from spanembed.seeds import child_seed


def permutation_oracle(gp, h):
    """Exhaustive containment oracle: try every bijection."""
    for perm in itertools.permutations(range(gp.n)):
        if all(gp.has_edge(perm[u], perm[v]) for u, v in h.edges):
            return True
    return False


def test_sample_gp_endpoints():
    g = complete_graph(8)
    assert sample_gp(g, 1.0, 5) == g
    assert sample_gp(g, 0.0, 5).num_edges() == 0
    with pytest.raises(InvalidArgumentError):
        sample_gp(g, 1.5, 0)


def test_nested_gp_is_sample_gp_at_every_grid_point():
    host, grid, seed = random_graph(10, 0.6, 1), (0.0, 0.25, 0.5, 0.75, 1.0), 7
    gps = list(nested_gp(host.n, host.sorted_edges(), grid, seed))
    assert gps == [sample_gp(host, p, seed) for p in grid]
    assert all(a.edges <= b.edges for a, b in zip(gps, gps[1:]))
    assert gps[0].num_edges() == 0 and gps[-1] == host


def test_sample_gp_mean_edges():
    g = complete_graph(20)
    total = sum(sample_gp(g, 0.5, seed).num_edges() for seed in range(10_000))
    mean = total / 10_000
    sigma = math.sqrt(190 * 0.25 / 10_000)
    assert abs(mean - 95) <= 3 * sigma


def test_contains_two_disjoint_edges_in_c4():
    h = Graph(4, [(0, 1), (2, 3)])
    v = contains_spanning(cycle_graph(4), h)
    assert v.yes
    assert permutation_oracle(cycle_graph(4), h)


def test_contains_degree_fast_path():
    h = Graph(4, [(0, 1), (0, 2), (0, 3)])
    gp = cycle_graph(4)
    assert contains_spanning(gp, h).kind == "no"


def test_contains_matches_permutation_oracle_small():
    import random
    rng = random.Random(0)
    for trial in range(28):
        n = rng.randint(4, 7) if trial < 22 else 8
        gp = Graph(n, [e for e in itertools.combinations(range(n), 2)
                       if rng.random() < 0.5])
        h = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < 0.3])
        got = contains_spanning(gp, h)
        assert got.kind in ("yes", "no")
        assert got.yes == permutation_oracle(gp, h), trial
        if got.yes:
            phi = got.embedding
            assert all(gp.has_edge(phi[u], phi[v]) for u, v in h.edges)


def test_matching_containment_with_isolated_pattern_vertices():
    # k disjoint edges plus n - 2k isolated vertices embed iff Gp has a
    # matching of k edges; networkx's blossom is the oracle
    decided_by_edmonds = 0
    for seed in range(40):
        n = random.Random(seed).randint(6, 30)
        gp = random_graph(n, 1.5 / n, seed)
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(gp.edges)
        best = len(nx.max_weight_matching(ng, maxcardinality=True))
        greedy = sum(u < w for u, w in enumerate(_greedy_matching(gp)))
        for k in range(1, n // 2 + 1):
            h = Graph(n, [(2 * i, 2 * i + 1) for i in range(k)])
            got = contains_spanning(gp, h)
            assert got.yes == (k <= best), (seed, k)
            if got.yes:
                assert is_valid_embedding(h, gp, got.embedding)
                decided_by_edmonds += greedy < k
    assert decided_by_edmonds >= 10


def test_contains_clique_factor_special_case():
    host = blow_up(complete_graph(4), [4, 4, 4, 4])
    h = clique_factor_pattern(16, 4)
    v = contains_spanning(host, h)
    assert v.yes
    phi = v.embedding
    assert all(host.has_edge(phi[u], phi[v_]) for u, v_ in h.edges)
    # remove one part's worth of cross edges: no factor anymore
    broken = Graph(16, [e for e in host.edges if 0 not in e])
    assert not contains_spanning(broken, h).yes


def test_contains_timeout_is_distinct():
    host = complete_graph(12)
    h = clique_factor_pattern(12, 3)
    v = contains_spanning(host, h, budget=2)
    assert v.kind == "timeout"


def _search_samples():
    """Seeded G(p) samples of the triangle-factor, K4-factor and mixture set-ups."""
    tri = clique_factor_pattern(30, 3)
    for k in range(10):
        host = random_min_degree_host(30, 20, seed=k)
        for p in (0.4, 0.5, 0.6, 0.7, 0.8):
            yield "tri", sample_gp(host, p, 100 * k + int(10 * p)), tri
    k4 = clique_factor_pattern(24, 4)
    for k in range(6):
        host = random_min_degree_host(24, 18, seed=k)
        for p in (0.5, 0.7, 0.85, 1.0):
            yield "k4", sample_gp(host, p, 1000 + 100 * k + int(100 * p)), k4
    for n in (12, 14, 16):
        mix = mixture_pattern(n, 2)
        for k in range(4):
            host = random_min_degree_host(n, n - 4, seed=k)
            for p in (0.4, 0.6, 0.8, 1.0):
                yield "mix", sample_gp(host, p, 5000 + 100 * n + 10 * k + int(10 * p)), mix


def test_containment_searches_replay():
    # every verdict, embedding and node count of the exact-cover and general
    # searches, pinned by digest: a change to the order in which cliques or
    # candidates are tried moves nodes_used
    verdicts = []
    kinds = Counter()
    for name, gp, h in _search_samples():
        got = contains_spanning(gp, h, budget=3000)
        if got.yes:
            assert is_valid_embedding(h, gp, got.embedding)
        kinds[name, got.kind] += 1
        embedding = sorted(got.embedding.items()) if got.yes else None
        verdicts.append([got.kind, embedding, got.nodes_used])
    assert kinds == {("tri", "yes"): 36, ("tri", "no"): 7, ("tri", "timeout"): 7,
                     ("k4", "yes"): 17, ("k4", "no"): 6, ("k4", "timeout"): 1,
                     ("mix", "yes"): 35, ("mix", "no"): 3, ("mix", "timeout"): 10}
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == "b3a26eb55498fabfe5fb3f7302cd16c6b3bef601337968cd293eb0e18baea0df"


def test_cliques_from_lists_cliques_by_least_vertex():
    for seed in range(12):
        n = 9 + seed % 4
        g = random_graph(n, 0.7, seed)
        for r in (3, 4, 5):
            for v in range(n):
                want = [c for c in itertools.combinations(range(n), r) if c[0] == v
                        and all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))]
                assert _cliques_from(g, v, r) == want, (seed, r, v)


def test_split_cliques_m1_is_componentwise_max():
    # m1 of a union of K3, P3 and C4 is the larger of m1 over its K3 part and its rest
    shapes = (complete_graph(3), path_graph(3), cycle_graph(4))
    for seed in range(20):
        rng = random.Random(seed)
        h = disjoint_union(*(rng.choice(shapes) for _ in range(rng.randint(1, 3))))
        if h.n > 8:
            continue
        h1, h2 = [], []
        for comp in h.connected_components():
            is_k3 = len(comp) == 3 and all(h.has_edge(u, v)
                                           for u, v in itertools.combinations(comp, 2))
            (h1 if is_k3 else h2).extend(comp)
        vals = [max_one_density(h.induced(part))[0] for part in (h1, h2) if len(part) >= 2]
        assert max_one_density(h)[0] == max(vals)


def test_threshold_scan_rows_and_monotone_coupling():
    host = dirac_overlap_host(20)
    scan = ThresholdScan(host, perfect_matching_pattern(20),
                         (0.05, 0.3, 1.0), trials=40, seed=2)
    rows = threshold_scan(scan)
    assert [r.p for r in rows] == [0.05, 0.3, 1.0]
    # p = 1 keeps the whole host, which satisfies the degree condition
    assert rows[-1].fraction == 1.0
    fracs = [r.fraction for r in rows]
    assert fracs == sorted(fracs)  # exact coupling makes this certain


def test_threshold_scan_decides_sample_gp(monkeypatch):
    # the coupled G(p) of trial t is the documented one: sample_gp at child_seed(seed, t)
    host, grid, seed = random_graph(12, 0.5, 3), (0.1, 0.3, 0.5, 0.8, 1.0), 2 ** 40 + 9
    decided = []
    real = robustness.contains_spanning
    monkeypatch.setattr(robustness, "contains_spanning",
                        lambda gp, *args: decided.append(gp) or real(gp, *args))
    threshold_scan(ThresholdScan(host, perfect_matching_pattern(12), grid, trials=6, seed=seed))
    assert decided == [sample_gp(host, p, child_seed(seed, t)) for t in range(6) for p in grid]


@pytest.mark.parametrize("kinds, rows", [
    ((YES, NO), None),
    ((YES, TIMEOUT, NO), None),
    ((YES, TIMEOUT), [(1, 0), (0, 1)]),
])
def test_threshold_scan_refuses_a_coupled_decrease(monkeypatch, kinds, rows):
    # a yes followed by a no on the nested G(p) of one trial is a bug; a
    # timeout in between or after decides nothing
    verdicts = iter(kinds)
    monkeypatch.setattr(robustness, "contains_spanning",
                        lambda *args: ContainVerdict(next(verdicts)))
    scan = ThresholdScan(complete_graph(6), perfect_matching_pattern(6),
                         (0.2, 0.5, 1.0)[:len(kinds)], trials=1, seed=3)
    if rows is None:
        with pytest.raises(InternalInvariantError, match="coupled monotonicity"):
            threshold_scan(scan)
    else:
        assert [(r.successes, r.timeouts) for r in threshold_scan(scan)] == rows


def test_threshold_scan_replays_matching_rows(monkeypatch):
    # a grid across the perfect-matching threshold of the overlap host, where
    # the greedy matching often falls short; counts recorded when networkx's
    # blossom decided those samples
    calls = []
    matcher = robustness.edmonds_matching
    monkeypatch.setattr(robustness, "edmonds_matching",
                        lambda *args: calls.append(1) or matcher(*args))
    scan = ThresholdScan(dirac_overlap_host(40), perfect_matching_pattern(40),
                         (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0), trials=40, seed=2025)
    rows = threshold_scan(scan)
    assert [(r.successes, r.timeouts) for r in rows] == [
        (0, 0), (0, 0), (6, 0), (24, 0), (37, 0), (40, 0), (40, 0)]
    assert len(calls) >= 50


def test_threshold_scan_replays_triangle_factor_rows():
    # a grid across the triangle-factor threshold of a near-extremal host,
    # with a budget that times out some searches; rows recorded with the
    # per-grid-point edge test and the per-node clique listing
    scan = ThresholdScan(random_min_degree_host(30, 20, seed=4), clique_factor_pattern(30, 3),
                         (0.35, 0.45, 0.55, 0.7, 1.0), trials=24, seed=77, budget=1500,
                         kind="tri")
    rows = threshold_scan(scan)
    assert [(r.successes, r.timeouts, r.flag) for r in rows] == [
        (0, 3, ""), (6, 14, "scan-unreliable"), (20, 4, ""), (24, 0, ""), (24, 0, "")]


def test_threshold_scan_on_an_edgeless_host():
    host = Graph(9, [])
    for pattern, successes in ((clique_factor_pattern(9, 3), 0),
                               (Graph(9, [(0, 1)]), 0),
                               (Graph(9, []), 3)):
        rows = threshold_scan(ThresholdScan(host, pattern, (0.5, 1.0), trials=3, seed=1))
        assert [(r.successes, r.timeouts) for r in rows] == [(successes, 0)] * 2


def test_threshold_scan_validates_grid():
    host = complete_graph(6)
    with pytest.raises(InvalidArgumentError):
        ThresholdScan(host, perfect_matching_pattern(6), (0.5, 0.5), 5, 0)
    with pytest.raises(InvalidArgumentError):
        ThresholdScan(host, perfect_matching_pattern(6), (0.0, 0.5), 5, 0)
    for trials in (0, -3):
        with pytest.raises(InvalidArgumentError, match="trials"):
            ThresholdScan(host, perfect_matching_pattern(6), (0.5, 1.0), trials, 0)
    for budget in (0, -4):
        with pytest.raises(InvalidArgumentError, match="budget"):
            ThresholdScan(host, perfect_matching_pattern(6), (0.5, 1.0), 5, 0, budget)


def test_threshold_scan_flags_timeouts():
    host = complete_graph(12)
    scan = ThresholdScan(host, clique_factor_pattern(12, 3), (0.9,),
                         trials=10, seed=1, budget=2)
    rows = threshold_scan(scan)
    assert rows[0].flag == "scan-unreliable"


def test_scan_thm91_shapes_and_tail():
    result = scan_thm91_grid(2, 12, gamma=0.2, seed=5, trials=40)
    kinds = {r.kind for r in result["rows"]}
    assert kinds == {"m1-grid", "improved-grid"}
    freq = result["bad_vertex_frequency"]
    bound = result["bad_vertex_bound"]
    sigma = math.sqrt(max(freq, 1e-4) / result["bad_vertex_samples"])
    assert freq <= bound + 3 * sigma


def test_named_hosts():
    g = dirac_overlap_host(100)
    assert g.n == 100 and g.min_degree() == 50
    u = unbalanced_multipartite_host(12, 2)
    assert u.n == 12
    assert not contains_spanning(u, clique_factor_pattern(12, 3)).yes
    r = random_min_degree_host(15, 10, seed=3)
    assert r.min_degree() >= 10


def test_pattern_generators():
    assert perfect_matching_pattern(8).num_edges() == 4
    assert clique_factor_pattern(9, 3).num_edges() == 9
    mix = mixture_pattern(14, 2)
    assert mix.n == 14 and mix.max_degree() == 2
