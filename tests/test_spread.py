import math

import numpy as np
import pytest

from conftest import random_bipartite_adj
from spanembed.errors import InvalidArgumentError
from spanembed.spread import (
    FBInstance,
    FBParams,
    check_fb_conditions,
    default_coupling_constant,
    estimate_matching_spread,
    format_fb_instance,
    parse_fb_instance,
    per_edge_union_bound,
    sample_coupled,
    sample_spread_matching,
    two_cprime_over_lambda,
    verify_coupling_monotone,
)

PARAMS = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)


def complete_instance(lam, params=PARAMS):
    return FBInstance(lam, [(a, b) for a in range(lam) for b in range(lam)], params)


def random_instance(lam, p, seed, params=PARAMS):
    adj = random_bipartite_adj(lam, lam, p, seed)
    return FBInstance(lam, [(a, b) for a in range(lam) for b in adj[a]], params)


def test_fb_checks_on_dense_random_instance():
    f = random_instance(12, 0.8, seed=1)
    rep = check_fb_conditions(f)
    assert rep.fb3_exact and rep.all_ok


def test_fb1_fails_on_sparse_vertex():
    f = FBInstance(6, [(0, 0)] + [(a, b) for a in range(1, 6) for b in range(6)], PARAMS)
    rep = check_fb_conditions(f)
    assert not rep.fb1_ok


def test_coupled_sample_full_retention_when_c_equals_lam():
    f = complete_instance(5)
    s = sample_coupled(f, 5, seed=3)
    assert s.z1 == f.edges
    assert s.z == f.edges


def test_coupled_sample_degree_one_vertex_draws():
    edges = [(0, 0)] + [(a, b) for a in range(1, 4) for b in range(4)]
    f = FBInstance(4, edges, PARAMS)
    for seed in range(5):
        s = sample_coupled(f, 2, seed)
        assert (0, 0) in s.z2  # the unique neighbour absorbs every draw


def coupled_oracle(f, c, seed):
    """The per-vertex loop that fixes sample_coupled's stream, on sorted edge lists."""
    rng = np.random.default_rng(seed)
    edges = sorted(f.edges)
    keep = rng.random(len(edges)) < c / f.lam
    z1 = {e for e, k in zip(edges, keep) if k}
    z2 = set()
    for a in range(f.lam):
        nbrs = [b for x, b in edges if x == a]
        if nbrs:
            for i in rng.integers(0, len(nbrs), size=c):
                z2.add((a, nbrs[i]))
    for b in range(f.lam):
        nbrs = [a for a, y in edges if y == b]
        if nbrs:
            for i in rng.integers(0, len(nbrs), size=c):
                z2.add((nbrs[i], b))
    return z1, z2


def test_coupled_sample_stream_matches_per_vertex_loop():
    # isolated A-vertices (0, 4) and B-vertices (lam-1, 2) draw nothing
    for lam, p in ((10, 0.5), (12, 0.2)):
        adj = random_bipartite_adj(lam, lam, p, seed=lam)
        edges = [(a, b) for a in range(lam) for b in adj[a]
                 if a not in (0, 4) and b not in (lam - 1, 2)]
        f = FBInstance(lam, edges, PARAMS)
        assert not f.adj_a[0] and not f.adj_b[lam - 1]
        for c in (1, 2, 3, 8, lam):
            for seed in range(30):
                s = sample_coupled(f, c, seed)
                assert (s.z1, s.z2) == coupled_oracle(f, c, seed), (lam, c, seed)


def test_instance_matrix_and_edge_list_agree():
    f = random_instance(7, 0.4, seed=9)
    g = FBInstance(7, f.mat.copy(), PARAMS)
    assert g.edges == f.edges and g.adj_a == f.adj_a and g.adj_b == f.adj_b
    assert all(b in f.adj_a[a] and a in f.adj_b[b] for a, b in f.edges)
    assert sum(map(len, f.adj_a)) == len(f.edges) == int(f.mat.sum())
    with pytest.raises(InvalidArgumentError):
        FBInstance(6, f.mat, PARAMS)                   # wrong shape
    with pytest.raises(InvalidArgumentError):
        FBInstance(7, f.mat.astype(int), PARAMS)       # not boolean
    with pytest.raises(InvalidArgumentError):
        FBInstance(7, [(0, 7)], PARAMS)


def test_coupled_sample_validates_c():
    f = complete_instance(4)
    with pytest.raises(InvalidArgumentError):
        sample_coupled(f, 5, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_coupled(f, 0, seed=0)


def test_per_edge_inclusion_matches_closed_form_oracle():
    # independent inclusion-exclusion oracle on K_{5,5} with C = 2:
    # miss Z1 with prob 1 - C/lam, each endpoint misses its C uniform
    # draws with prob (1 - 1/5)^C, all three mechanisms independent
    lam, c = 5, 2
    exact = 1 - (1 - c / lam) * ((1 - 1 / lam) ** c) ** 2
    f = complete_instance(lam)
    trials = 20_000
    hits = 0
    for i in range(trials):
        if (0, 0) in sample_coupled(f, c, seed=i).z:
            hits += 1
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(hits / trials - exact) <= 3 * sigma


def test_union_bound_dominates_closed_form():
    f = complete_instance(10)
    c = 4
    exact = 1 - (1 - c / 10) * ((1 - 1 / 10) ** c) ** 2
    assert exact <= per_edge_union_bound(f, c) and \
        per_edge_union_bound(f, c) <= two_cprime_over_lambda(f, c)


def test_per_edge_bound_monte_carlo_on_random_instance():
    # every edge's empirical Z-inclusion stays under the analytic union bound
    f = random_instance(8, 0.7, seed=11)
    c = 4
    trials = 4000
    counts = {e: 0 for e in f.edges}
    for i in range(trials):
        for e in sample_coupled(f, c, seed=i).z:
            counts[e] += 1
    bound = min(1.0, per_edge_union_bound(f, c))
    for e, hit in counts.items():
        p = hit / trials
        sigma = math.sqrt(p * (1 - p) / trials) + 1 / trials
        assert p <= bound + 3 * sigma, e


def test_matching_edges_independent_for_disjoint_pairs():
    # Z-membership of disjoint edges has empirical covariance near zero
    f = complete_instance(8)
    c = 3
    trials = 8000
    a = b = ab = 0
    for i in range(trials):
        z = sample_coupled(f, c, seed=i).z
        ia, ib = (0, 0) in z, (1, 1) in z
        a += ia
        b += ib
        ab += ia and ib
    cov = ab / trials - (a / trials) * (b / trials)
    assert abs(cov) < 4 / math.sqrt(trials)


def test_sample_matching_row_stochastic_and_subset_of_z():
    f = complete_instance(6)
    counts = np.zeros((6, 6))
    for i in range(600):
        draw = sample_spread_matching(f, 4, max_resamples=4, seed=i)
        assert draw.ok
        assert len(draw.matching) == 6
        a_seen = {a for a, _ in draw.matching}
        assert a_seen == set(range(6))
        for a, b in draw.matching:
            counts[a, b] += 1
    # each row sums to the trial count exactly: one match per vertex
    assert (counts.sum(axis=1) == 600).all()


def test_sample_matching_fails_with_isolated_vertex():
    edges = [(a, b) for a in range(1, 5) for b in range(5)]
    f = FBInstance(5, edges, PARAMS)
    draw = sample_spread_matching(f, 3, max_resamples=3, seed=9)
    assert not draw.ok
    assert draw.hall_witness == (0,)


def test_estimate_spread_trivial_cases():
    # an empty S holds on every successful draw and an S that is not a matching
    # on none; both count successful draws, as every other S does
    cases = ((complete_instance(6), 4, 8), (random_instance(8, 0.8, seed=3), 1, 0))
    for f, c, resamples in cases:
        successes = sum(sample_spread_matching(f, c, resamples, 1 ^ i).ok for i in range(50))
        est = estimate_matching_spread(f, c, [], trials=50, seed=1, max_resamples=resamples)
        assert est.estimate == 1.0
        assert est.trials == est.hits == successes
        est = estimate_matching_spread(f, c, [(0, 0), (0, 1)], trials=50, seed=1,
                                       max_resamples=resamples)
        assert est.hits == 0  # not a matching: probability zero by definition
        assert est.trials == successes
    assert 0 < successes < 50   # the second instance fails some draws


def test_estimate_spread_reference_run_consistency():
    # two independent seeds give estimates within combined radii
    f = random_instance(10, 0.8, seed=4)
    e1 = estimate_matching_spread(f, 8, [(0, 0)], trials=4000, seed=100)
    e2 = estimate_matching_spread(f, 8, [(0, 0)], trials=4000, seed=7_000_000)
    assert abs(e1.estimate - e2.estimate) <= e1.radius + e2.radius


def test_estimate_spread_replays_at_seed_xor_i():
    # trial i is sample_spread_matching at seed ^ i, failures leave the denominator
    f = random_instance(8, 0.8, seed=3)   # C = 1 without resampling fails often
    s = {(0, 0)}
    for seed in (0, 5, 2 ** 40):
        est = estimate_matching_spread(f, 1, s, trials=120, seed=seed, max_resamples=0)
        draws = [sample_spread_matching(f, 1, 0, seed ^ i) for i in range(120)]
        ok = [d for d in draws if d.ok]
        assert 0 < len(ok) < 120
        assert (est.trials, est.hits) == (len(ok), sum(s <= d.matching for d in ok))


def test_coupling_monotone_edge_absent_event():
    lam, c = 4, 2
    f = complete_instance(lam)
    report = verify_coupling_monotone(
        f, c, lambda z: (0, 0) not in z, trials=4000, seed=5, label="edge-absent")
    assert not report.violation
    # closed forms: Z1 misses with 1 - C/lam, Z2 with ((1-1/lam)^C)^2
    z1_exact = 1 - c / lam
    z2_exact = ((1 - 1 / lam) ** c) ** 2
    assert abs(report.z1_estimate.estimate - z1_exact) <= 4 * report.z1_estimate.radius
    assert abs(report.z2_estimate.estimate - z2_exact) <= 4 * report.z2_estimate.radius


def test_coupling_monotone_empty_event_at_full_retention():
    f = complete_instance(4)
    report = verify_coupling_monotone(f, 4, lambda z: len(z) == 0,
                                      trials=200, seed=2, label="empty")
    assert report.z_estimate.estimate == 0.0
    assert not report.violation


def test_hall_failure_event_ordering_on_fb_instance():
    f = random_instance(10, 0.8, seed=6)
    from spanembed.spread import canonical_matching

    def hall_violated(z):
        size, _ = canonical_matching(10, z)
        return size < 10

    report = verify_coupling_monotone(f, 6, hall_violated, trials=2000, seed=8,
                                      label="hall-violated")
    assert not report.violation


def test_default_constant_policy():
    f = complete_instance(40)
    assert default_coupling_constant(f) == 10  # ceil(8 / 0.8)
    tiny = complete_instance(4)
    assert default_coupling_constant(tiny) == 4


def test_instance_text_roundtrip():
    f = random_instance(5, 0.6, seed=2)
    text = format_fb_instance(f)
    again = parse_fb_instance(text, PARAMS)
    assert again.lam == 5 and again.edges == f.edges
    with pytest.raises(InvalidArgumentError):
        parse_fb_instance("bipartite 3\n0 1\n", PARAMS)  # b-side index too low
