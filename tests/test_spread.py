import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from conftest import format_fb_instance, random_bipartite_adj
from spanembed.errors import InvalidArgumentError
from spanembed.seeds import fresh_seed, py_rng
from spanembed.spread import (
    FBInstance,
    FBParams,
    check_fb_conditions,
    default_coupling_constant,
    estimate_matching_spread,
    parse_fb_instance,
    per_edge_union_bound,
    sample_coupled,
    sample_spread_matching,
    two_cprime_over_lambda,
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


def test_fb_check_rejects_negative_spot_samples():
    with pytest.raises(InvalidArgumentError, match="spot_samples"):
        check_fb_conditions(complete_instance(20), spot_samples=-1)


def test_fb_reports_replay():
    # sha256 of 72 reports, recorded before FB1-FB3 were read off the matrix:
    # FB3 exact at lam <= 14 and spot-checked above, with FB1, FB2 and FB3
    # each passing and failing on both paths; below p = 0.9 the last B-vertex
    # is isolated, which fails FB2
    reports = []
    for lam in (6, 9, 12, 14, 18, 30):
        for p in (0.35, 0.6, 0.85, 0.95):
            adj = random_bipartite_adj(lam, lam, p, 1000 * lam + int(100 * p))
            edges = [(a, b) for a in range(lam) for b in adj[a] if b != lam - 1 or p > 0.9]
            for d, b in ((0.8, 1), (1.0, 1), (0.9, 2)):
                f = FBInstance(lam, edges, FBParams(d=d, b=b, rho=0.1, mu=0.25, delta=2))
                r = check_fb_conditions(f, seed=lam + b, spot_samples=1000 if lam == 18 else 300)
                reports.append([r.fb1_ok, r.fb2_ok, r.fb3_ok, r.fb3_exact, r.detail])
    assert [sum(not r[k] for r in reports) for k in range(3)] == [36, 54, 38]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "fdb50293f50c6b6c4914c5fca71ed89c2dceb8d72abeb04b8f78d8ba650a1282"


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
        assert not f.mat[0].any() and not f.mat[:, lam - 1].any()
        for c in (1, 2, 3, 8, lam):
            for seed in range(30):
                s = sample_coupled(f, c, seed)
                assert (s.z1, s.z2) == coupled_oracle(f, c, seed), (lam, c, seed)


def test_spread_draws_replay():
    # sha256 of 400 seeded spread-matching draws and 12 coupled samples,
    # recorded with two neighbour-draw calls per sample and a fresh CSR
    # matrix per match.  The C = 1 slice resamples and fails with Hall
    # witnesses; the coupled samples include isolated vertices on both sides.
    records = []
    for lam, c in ((10, 8), (20, 10), (40, 10), (40, 1)):
        f = random_instance(lam, 0.8, seed=lam)
        for seed in range(100):
            d = sample_spread_matching(f, c, max_resamples=4, seed=seed)
            records.append([d.ok, sorted(d.matching) if d.ok else None, d.draws, d.hall_witness])
    assert sum(not r[0] for r in records) == 61
    assert sum(r[0] and r[2] > 1 for r in records) == 27
    adj = random_bipartite_adj(12, 12, 0.4, seed=7)
    f = FBInstance(12, [(a, b) for a in range(12) for b in adj[a]
                        if a not in (0, 5) and b not in (3, 11)], PARAMS)
    for c, seed in itertools.product((1, 3, 12), range(4)):
        s = sample_coupled(f, c, seed)
        records.append([sorted(s.z1), sorted(s.z2)])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "614566b7cdf700d6bc0b8e797ee2396cd36105dd0c1a75363fbb3d61a36a6e62"


def test_instance_matrix_and_edge_list_agree():
    f = random_instance(7, 0.4, seed=9)
    g = FBInstance(7, f.mat.copy(), PARAMS)
    assert g.edges == f.edges and (g.mat == f.mat).all()
    assert all(f.mat[a, b] for a, b in f.edges)
    assert len(f.edges) == int(f.mat.sum())
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


def test_spread_matchings_are_perfect_inside_z_and_f():
    # replay the documented stream: per draw a sample seed, then the
    # relabelling's 16 lam random bytes, all from py_rng(seed)
    f = random_instance(12, 0.6, seed=5)
    resampled = 0
    for seed in range(300):
        draw = sample_spread_matching(f, 1, max_resamples=4, seed=seed)
        if not draw.ok:
            continue
        rng = py_rng(seed)
        for _ in range(draw.draws):
            z = sample_coupled(f, 1, fresh_seed(rng)).z
            rng.randbytes(16 * 12)
        resampled += draw.draws > 1
        assert len(draw.matching) == 12
        assert {a for a, _ in draw.matching} == {b for _, b in draw.matching} == set(range(12))
        assert draw.matching <= z <= f.edges
    assert resampled >= 100


def test_sample_matching_fails_with_isolated_vertex():
    edges = [(a, b) for a in range(1, 5) for b in range(5)]
    f = FBInstance(5, edges, PARAMS)
    draw = sample_spread_matching(f, 3, max_resamples=3, seed=9)
    assert not draw.ok
    assert draw.hall_witness == (0,)


def test_sample_matching_refuses_a_negative_budget():
    # a budget below 0 would allow no draw at all
    with pytest.raises(InvalidArgumentError, match="max_resamples"):
        sample_spread_matching(complete_instance(4), 2, max_resamples=-1, seed=0)


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
