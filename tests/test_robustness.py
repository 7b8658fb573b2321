import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from conftest import nx_graph as _nx
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
    DEFAULT_BUDGET,
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
from spanembed.seeds import child_seed, py_rng


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


def _gp_by_definition(g, p, seed):
    # the G(p) stream contract: one uniform per sorted host edge, kept iff below p
    edges = g.sorted_edges()
    return {e for e, x in zip(edges, np.random.default_rng(seed).random(len(edges))) if x < p}


@pytest.mark.parametrize("g", [random_graph(n, 0.9, n) for n in (5, 23, 70)]
                         + [random_graph(n, 0.06, n) for n in (12, 40, 70)] + [Graph(30, [])])
def test_gp_keeps_the_edges_whose_uniform_lies_below_p(g):
    seed = 1000 + g.n + g.num_edges()
    drawn = np.random.default_rng(seed).random(g.num_edges()).tolist()
    grid = sorted({0.0, 1.0, *drawn[:3]})    # a uniform equal to p is out
    want = [_gp_by_definition(g, p, seed) for p in grid]
    assert [sample_gp(g, p, seed).edges for p in grid] == want
    pairs = g.sorted_edges()
    for edges in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        assert [gp.edges for gp in nested_gp(g.n, edges, grid, seed)] == want
    assert want[0] == set() and want[-1] == g.edges


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25])
def test_gp_refuses_a_point_outside_the_unit_interval(bad):
    host = complete_graph(6)
    with pytest.raises(InvalidArgumentError, match=r"p must lie in \[0,1\]"):
        nested_gp(host.n, host.sorted_edges(), (0.25, bad), 1)
    with pytest.raises(InvalidArgumentError, match=r"p must lie in \[0,1\]"):
        sample_gp(host, bad, 1)


def test_scan_of_a_complete_host_lists_no_edge_tuples():
    # a 2-trial matching scan of K_600 (179,700 edges): traced peak 6.2 MB; listing
    # the host's edges as tuples and ranking them each trial peaked at 27.7 MB
    host = complete_graph(600)
    tracemalloc.start()
    try:
        rows = threshold_scan(ThresholdScan(host, perfect_matching_pattern(600),
                                            (0.002, 0.005, 0.01, 0.05, 1.0), trials=2, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert [r.successes for r in rows] == [0, 0, 0, 2, 2]
    assert host._edges is None


def test_sample_gp_mean_edges():
    g = complete_graph(20)
    total = sum(sample_gp(g, 0.5, seed).num_edges() for seed in range(10_000))
    mean = total / 10_000
    sigma = math.sqrt(190 * 0.25 / 10_000)
    assert abs(mean - 95) <= 3 * sigma


def test_dirac_overlap_host_equals_the_edge_list_construction():
    for n in range(6, 41, 2):
        a = n // 2 + 1
        edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
        second = list(range(a - 2, n))
        edges += [(u, v) for i, u in enumerate(second) for v in second[i + 1:]]
        assert dirac_overlap_host(n) == Graph(n, edges), n


def _min_degree_host_by_pair_list(n, min_degree, seed):
    """The construction that shuffles the (u, v) pairs themselves."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    py_rng(seed).shuffle(edges)
    deg = [n - 1] * n
    kept = []
    for u, v in edges:
        if deg[u] > min_degree and deg[v] > min_degree:
            deg[u] -= 1
            deg[v] -= 1
        else:
            kept.append((u, v))
    return Graph(n, kept)


def test_min_degree_host_equals_the_pair_list_construction():
    for n in [*range(1, 41), 57, 100]:
        for k in sorted({0, n // 2, 3 * n // 4, n - 1}):
            for seed in (0, 7, 2**40 + 3):
                assert (random_min_degree_host(n, k, seed)
                        == _min_degree_host_by_pair_list(n, k, seed)), (n, k, seed)


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
    # every verdict, embedding and node count of the exact-cover search on the
    # triangle- and K4-factor samples, pinned by digest: a change to the order
    # in which cliques are tried moves nodes_used
    verdicts = []
    kinds = Counter()
    for name, gp, h in _search_samples():
        if name == "mix":
            continue
        got = contains_spanning(gp, h, budget=3000)
        if got.yes:
            assert is_valid_embedding(h, gp, got.embedding)
        kinds[name, got.kind] += 1
        embedding = sorted(got.embedding.items()) if got.yes else None
        verdicts.append([got.kind, embedding, got.nodes_used])
    assert kinds == {("tri", "yes"): 36, ("tri", "no"): 7, ("tri", "timeout"): 7,
                     ("k4", "yes"): 17, ("k4", "no"): 6, ("k4", "timeout"): 1}
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == "88bb0a78bf9f82895183e28c0e09c37c35c48921c2b4725cdb22ea4c53d01b1d"


# first letters of the verdicts on the mixture samples at the default budget,
# recorded with the general search before it broke symmetries (no timeouts)
MIX_FULL_BUDGET_KINDS = "nyyynyyynyyynyyynyyyynyyyyyynyyyyyyynyyyyyyyyyyy"


def test_general_search_keeps_the_full_budget_verdicts():
    # at budget 3000 the search decides all but two mixture samples, each
    # as the unpruned search decides it at the default budget
    kinds = Counter()
    mixes = [(gp, h) for name, gp, h in _search_samples() if name == "mix"]
    for (gp, h), want in zip(mixes, MIX_FULL_BUDGET_KINDS, strict=True):
        got = contains_spanning(gp, h, budget=3000)
        kinds[got.kind] += 1
        if got.kind != TIMEOUT:
            assert got.kind[0] == want
        if got.yes:
            assert is_valid_embedding(h, gp, got.embedding)
    assert kinds == {YES: 39, NO: 7, TIMEOUT: 2}


def test_orbit_pruned_search_equals_networkx_monomorphism():
    # disjoint unions of cliques, cycles and paths under a random labelling, so
    # components of one shape repeat and interleave; networkx is the oracle
    shapes = ([complete_graph(r) for r in (1, 2, 3, 4)]
              + [cycle_graph(k) for k in (4, 5, 6)] + [path_graph(3)])
    kinds = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        parts, size = [], rng.randint(4, 10)
        while sum(g.n for g in parts) < size:
            parts.append(rng.choice([g for g in shapes
                                     if g.n + sum(p.n for p in parts) <= 10]))
        h = disjoint_union(*parts)
        label = rng.sample(range(h.n), h.n)
        h = Graph(h.n, [(label[u], label[v]) for u, v in h.edges])
        gp = random_graph(h.n, rng.uniform(0.3, 0.8), seed)
        got = robustness._contains_backtracking(gp, h, robustness.DEFAULT_BUDGET)
        kinds[got.kind] += 1
        want = nx.algorithms.isomorphism.GraphMatcher(_nx(gp), _nx(h)).subgraph_is_monomorphic()
        assert got.yes == want, seed
        if got.yes:
            assert is_valid_embedding(h, gp, got.embedding)
    assert kinds[YES] >= 100 and kinds[NO] >= 100, kinds


def test_orbit_pairs_point_forward_in_the_search_order(monkeypatch):
    # on the unions above, every pair (a, b) has a < b and deg a = deg b, so the
    # search's (-degree, index) order places a first
    orbit_pairs, sizes = robustness._orbit_pairs, []

    def checked(h):
        pairs = orbit_pairs(h)
        assert all(a < b and h.degree(a) == h.degree(b) for a, b in pairs), pairs
        sizes.append(len(pairs))
        return pairs

    monkeypatch.setattr(robustness, "_orbit_pairs", checked)
    test_orbit_pruned_search_equals_networkx_monomorphism()
    assert len(sizes) == 300 and sum(sizes) > 0


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
    # each G(p) the scan decides is the documented one: sample_gp at child_seed(seed, t)
    # for a point p of the grid
    host, grid, seed = random_graph(12, 0.5, 3), (0.1, 0.3, 0.5, 0.8, 1.0), 2 ** 40 + 9
    decided = []
    real = robustness.contains_spanning
    monkeypatch.setattr(robustness, "contains_spanning",
                        lambda gp, *args: decided.append(gp) or real(gp, *args))
    threshold_scan(ThresholdScan(host, perfect_matching_pattern(12), grid, trials=6, seed=seed))
    points = {sample_gp(host, p, child_seed(seed, t)) for t in range(6) for p in grid}
    assert decided and all(gp in points for gp in decided)


def _keyed_by_point(monkeypatch, scan, kinds):
    """Make each G(p) of trial 0 of ``scan`` return the verdict kind listed for its point."""
    points = [sample_gp(scan.host, p, child_seed(scan.seed, 0)) for p in scan.p_grid]
    assert len(set(points)) == len(points)
    monkeypatch.setattr(robustness, "contains_spanning",
                        lambda gp, *args: ContainVerdict(kinds[points.index(gp)]))


@pytest.mark.parametrize("kinds, rows", [
    ((YES, TIMEOUT, NO), None),
    ((NO, TIMEOUT, YES, NO), None),
    ((YES, TIMEOUT), [(1, 0), (1, 0)]),
    ((TIMEOUT, YES, NO), [(0, 1), (1, 0), (1, 0)]),
    ((NO, TIMEOUT, TIMEOUT, YES), [(0, 0), (0, 1), (0, 1), (1, 0)]),
])
def test_threshold_scan_refuses_a_coupled_decrease(monkeypatch, kinds, rows):
    # a yes below a no among the verdicts a trial computes is a bug; a point the
    # bisection never decides is inferred from the nearest decided points, and
    # after a timeout the points between the last no and the first yes are decided
    scan = ThresholdScan(complete_graph(8), perfect_matching_pattern(8),
                         (0.2, 0.4, 0.6, 1.0)[-len(kinds):], trials=1, seed=3)
    _keyed_by_point(monkeypatch, scan, kinds)
    if rows is None:
        with pytest.raises(InternalInvariantError, match="coupled monotonicity"):
            threshold_scan(scan)
    else:
        assert [(r.successes, r.timeouts) for r in threshold_scan(scan)] == rows


def _reference_scans():
    """Seeded scans in each containment case, with and without timeouts."""
    grid = (0.15, 0.3, 0.45, 0.6, 0.75, 1.0)
    for seed in (1, 7 << 32):
        yield "matching", ThresholdScan(dirac_overlap_host(16), perfect_matching_pattern(16),
                                        grid, 12, seed)
        tri_host, mix_host = random_min_degree_host(15, 10, seed), random_min_degree_host(13, 9, seed)
        for budget in (DEFAULT_BUDGET, 30):
            yield "triangle factor", ThresholdScan(tri_host, clique_factor_pattern(15, 3),
                                                   grid, 12, seed, budget)
        for budget in (DEFAULT_BUDGET, 60):
            yield "mixture", ThresholdScan(mix_host, mixture_pattern(13, 2), grid, 12, seed, budget)


def test_threshold_scan_agrees_with_every_point_decided(monkeypatch):
    # the reference decides every grid point of every trial; the bisecting scan
    # must compute the same verdict wherever it computes one, and differ from
    # the reference only where the reference timed out
    decided = {}    # id of a decided G(p) -> verdict kind
    computed = []   # (trial seed, grid index, G(p)) for each graph the scan builds
    real_gp, real_contains = robustness.nested_gp, robustness.contains_spanning

    class Recorded:
        def __init__(self, n, edges, grid, seed):
            self.gps, self.seed = real_gp(n, edges, grid, seed), seed

        def __len__(self):
            return len(self.gps)

        def __getitem__(self, i):
            gp = self.gps[i]
            computed.append((self.seed, i, gp))
            return gp

    def contains(gp, *args):
        verdict = real_contains(gp, *args)
        decided[id(gp)] = verdict.kind
        return verdict

    monkeypatch.setattr(robustness, "nested_gp", Recorded)
    monkeypatch.setattr(robustness, "contains_spanning", contains)
    cases = Counter()
    for case, scan in _reference_scans():
        computed.clear()
        decided.clear()
        rows = threshold_scan(scan)
        k = len(scan.p_grid)
        reference = []
        for t in range(scan.trials):
            trial_seed = child_seed(scan.seed, t)
            gps = real_gp(scan.host.n, scan.host.sorted_edges(), scan.p_grid, trial_seed)
            want = [real_contains(gp, scan.pattern, scan.budget).kind for gp in gps]
            reference.append(want)
            mine = [(i, decided[id(gp)]) for s, i, gp in computed if s == trial_seed]
            assert len({i for i, _ in mine}) == len(mine)
            assert all(kind == want[i] for i, kind in mine)
            if TIMEOUT not in want:
                assert len(mine) <= math.ceil(math.log2(k + 1))
        ref_rows = [(col.count(YES), col.count(NO), col.count(TIMEOUT)) for col in zip(*reference)]
        got_rows = [(r.successes, r.trials - r.successes - r.timeouts, r.timeouts) for r in rows]
        timeout_free = all(TIMEOUT not in want for want in reference)
        if timeout_free:
            assert got_rows == ref_rows
        else:
            assert all(y >= ry and no >= rno and to <= rto
                       for (y, no, to), (ry, rno, rto) in zip(got_rows, ref_rows))
        cases[case, timeout_free] += 1
    assert set(cases) >= {("matching", True), ("triangle factor", True), ("mixture", True),
                          ("triangle factor", False), ("mixture", False)}


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


def _half_subset_share(host, gamma):
    """Share of (half-size subset, member) pairs, over every such subset,
    whose member keeps fewer than (3/4 + gamma/2) k neighbours inside."""
    k = host.n // 2
    need = (0.75 + gamma / 2) * k
    bad = total = 0
    for subset in itertools.combinations(range(host.n), k):
        smask = sum(1 << v for v in subset)
        bad += sum((host.adj[v] & smask).bit_count() < need for v in subset)
        total += k
    return Fraction(bad, total)


def test_scan_thm91_shapes_and_tail():
    result = scan_thm91_grid(2, 12, gamma=0.2, seed=5, trials=40)
    assert [r.kind for r in result["rows"]] == ["m1-grid"] * 4 + ["improved-grid"] * 4
    # the exact tail value draws no random numbers: the rows are the sampling version's
    assert [r.successes for r in result["rows"]] == [0, 1, 35, 40, 0, 0, 3, 38]
    # the host is K_12: each member keeps 5 < 0.85 * 6 neighbours
    assert result["bad_vertex_frequency"] == 1


@pytest.mark.parametrize("n, gamma, seed", [(8, 0.05, 0), (9, 0.1, 1), (10, 0.05, 2),
                                            (11, 0.01, 0), (11, 0.05, 3), (12, 0.02, 7),
                                            (12, 0.08, 1), (12, 0.1, 2**32)])
def test_scan_thm91_tail_equals_enumeration(monkeypatch, n, gamma, seed):
    scans = []
    monkeypatch.setattr(robustness, "threshold_scan", lambda scan: scans.append(scan) or [])
    freq = scan_thm91_grid(2, n, gamma, seed)["bad_vertex_frequency"]
    assert freq == _half_subset_share(scans[0].host, gamma)


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
