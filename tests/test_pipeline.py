import hashlib
import math

import pytest
from scipy.stats import chi2

from spanembed.errors import (
    EstimateUnreliableError,
    InvalidArgumentError,
)
from spanembed.graphs import Graph, complete_graph, empty_graph
from spanembed.pipeline import (
    HostParams,
    PartitionedHost,
    RGAConfig,
    blow_up,
    complete_with_buffers,
    estimate_vertex_spread,
    generate_regular_host,
    partition_pattern,
    pushforward_edge_spread,
    rga_embed,
    run_pipeline_once,
)
from spanembed.regularity import RegPairParams, check_super_regular_pair, INCONCLUSIVE
from spanembed.robustness import clique_factor_pattern, perfect_matching_pattern

K2 = complete_graph(2)
K3 = complete_graph(3)
# run_pipeline_once on triangle_setup(d=0.4), C=6, seeds 0..19
DIGEST = "b13299fc768a612a8ad38241a3ecf25825e3e363f631cb1134ef94a5dfc8fdb1"


def small_matching_setup(m=25, seed=3, alpha=0.3):
    host = generate_regular_host(K2, K2, m=m, d=0.5, seed=seed)
    pattern = partition_pattern(perfect_matching_pattern(2 * m), host, None,
                                alpha=alpha, seed=seed ^ 5)
    return host, pattern


def triangle_setup(m=25, seed=2, alpha=0.3, d=0.5):
    host = generate_regular_host(K3, K3, m=m, d=d, seed=seed)
    pattern = partition_pattern(clique_factor_pattern(3 * m, 3), host, None,
                                alpha=alpha, seed=seed ^ 5)
    return host, pattern


def test_generate_single_edge_host_is_super_regular():
    host = generate_regular_host(K2, K2, m=50, d=0.5, seed=1)
    assert [len(c) for c in host.clusters] == [50, 50]
    params = RegPairParams(min(1.0, host.params.eps), host.params.d)
    verdict = check_super_regular_pair(host.g, host.clusters[0], host.clusters[1],
                                       params, mode="refute", trials=300, seed=9)
    assert verdict.kind == INCONCLUSIVE  # min-degree passed, refuter silent


def test_generate_triangle_host():
    host = generate_regular_host(K3, K3, m=40, d=0.5, seed=4)
    assert host.g.n == 120 and host.r == 3


def test_generate_regular_only_pair_skips_min_degree():
    # R-edge outside R': generated at density d, no per-vertex floor demanded
    rp = Graph(2, [])
    host = generate_regular_host(Graph(2, [(0, 1)]), rp, m=30, d=0.3, seed=5)
    dens = host.g.num_edges() / (30 * 30)
    assert 0.15 < dens < 0.45


def test_generate_host_validates_arguments():
    with pytest.raises(InvalidArgumentError):
        generate_regular_host(K2, K2, m=10, d=0.5, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_regular_host(K2, K2, m=30, d=0.7, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_regular_host(K2, complete_graph(3), m=30, d=0.5, seed=0)


def test_partition_pattern_triangle_structure():
    host, pattern = triangle_setup()
    pattern.validate(host)
    assert [len(p) for p in pattern.parts] == [25, 25, 25]
    # buffers sit pairwise at H-distance > 5 (here: different triangles)
    h = pattern.h
    all_buf = [x for buf in pattern.buffers for x in buf]
    for i, x in enumerate(all_buf):
        dist = h.bfs_distances(x)
        for y in all_buf[i + 1:]:
            assert dist[y] == -1 or dist[y] > 5


def test_partition_pattern_edgeless_is_trivial():
    host = generate_regular_host(K2, K2, m=20, d=0.5, seed=8)
    pattern = partition_pattern(empty_graph(40), host, None, alpha=0.3, seed=1)
    pattern.validate(host)


def test_partition_pattern_honors_preplaced():
    host, _ = triangle_setup(m=25, seed=6)
    h = clique_factor_pattern(75, 3)
    xstar = {0: [0], 1: [1], 2: [2]}  # one fixed triangle in designated parts
    pattern = partition_pattern(h, host, xstar, alpha=0.3, seed=3)
    pattern.validate(host)
    for i, vs in xstar.items():
        for x in vs:
            assert x in pattern.parts[i]
            assert x not in pattern.buffers[i]


def test_rga_edgeless_pattern_never_starves():
    host = generate_regular_host(K2, K2, m=20, d=0.5, seed=8)
    pattern = partition_pattern(empty_graph(40), host, None, alpha=0.3, seed=1)
    out = rga_embed(host, pattern, RGAConfig(mu=0.25), seed=13)
    assert out.ok
    floor = max(1, int(0.025 * 20))
    assert all(s >= floor for s in out.sizes)


def test_rga_matching_pattern_success_and_floor():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    out = rga_embed(host, pattern, cfg, seed=21)
    assert out.ok
    assert min(out.sizes) >= max(1, int(cfg.floor_fraction * 25))


def test_rga_fails_fast_on_empty_needed_pair():
    # manual host with an R-edge whose pair has no host edges at all
    g = Graph(20, [])
    host = PartitionedHost(g, [range(10), range(10, 20)], K2, K2,
                           HostParams(eps=0.5, d=0.5, kappa=1.0))
    h = perfect_matching_pattern(20)
    parts = [tuple(range(0, 20, 2)), tuple(range(1, 20, 2))]
    buffers = [parts[0][:3], parts[1][:3]]
    from spanembed.pipeline import PartitionedPattern, PatternParams
    pattern = PartitionedPattern(h, parts, buffers, {}, PatternParams(0.3, 1))
    out = rga_embed(host, pattern, RGAConfig(mu=0.25), seed=2)
    assert not out.ok and out.fail_index >= 0


def test_completion_round_trip_and_validation():
    host, pattern = triangle_setup()
    cfg = RGAConfig(mu=0.25)
    rga = rga_embed(host, pattern, cfg, seed=31)
    assert rga.ok
    done = complete_with_buffers(host, pattern, rga, cfg, c=6, seed=77)
    assert done.ok
    phi = done.phi
    assert len(set(phi.values())) == pattern.h.n
    for x, y in pattern.h.edges:
        assert host.g.has_edge(phi[x], phi[y])
    # per-part instances got built with balanced sides
    assert all(f.lam == len(r) for f, r in zip(done.instances, rga.buffer_sets))


def test_completion_instances_follow_their_definition():
    # F_i joins buffer a to free slot b when b is adjacent to every image of
    # an H-neighbour of a; rebuilt here by set intersection.  At d = 0.4 the
    # host pairs are not complete, so neither is F_i.
    host, pattern = triangle_setup(d=0.4)
    cfg = RGAConfig(mu=0.25)
    checked = []
    for seed in range(8):
        rga = rga_embed(host, pattern, cfg, seed=seed)
        if not rga.ok:
            continue
        done = complete_with_buffers(host, pattern, rga, cfg, c=6, seed=seed)
        used = set(rga.phi.values())
        for i, f in enumerate(done.instances):
            free = [v for v in host.clusters[i] if v not in used]
            want = set()
            for ai, x in enumerate(rga.buffer_sets[i]):
                allowed = set(free)
                for y in pattern.h.neighbors(x):
                    allowed &= set(host.g.neighbors(done.phi[y]))
                want |= {(ai, free.index(v)) for v in allowed}
            assert f.lam == len(free) == len(rga.buffer_sets[i])
            assert f.edges == want
            checked.append(len(want) / f.lam ** 2)
    assert len(checked) >= 10 and max(checked) < 1


def test_pipeline_trials_replay_bit_identical():
    # digest of 20 trials, four of which fail in buffer completion, recorded
    # before the pipeline moved to boolean matrices
    host, pattern = triangle_setup(d=0.4)
    cfg = RGAConfig(mu=0.25)
    digest = hashlib.sha256()
    for seed in range(20):
        trial = run_pipeline_once(host, pattern, cfg, 6, seed)
        phi = None if trial.phi is None else sorted(trial.phi.items())
        digest.update(repr((trial.fail_stage, trial.rga_sizes, phi)).encode())
    assert digest.hexdigest() == DIGEST


def test_completion_with_vanishing_buffer_fraction():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.01)   # floor(mu |X_i|) = 0: no buffers at all
    rga = rga_embed(host, pattern, cfg, seed=5)
    assert rga.ok and all(len(b) == 0 for b in rga.buffer_sets)
    done = complete_with_buffers(host, pattern, rga, cfg, c=4, seed=6)
    assert done.ok and len(done.instances) == 0


def test_pipeline_success_rate_triangle():
    host, pattern = triangle_setup()
    cfg = RGAConfig(mu=0.25)
    ok = sum(run_pipeline_once(host, pattern, cfg, 6, 500 + i).ok for i in range(60))
    assert ok >= 54  # >= 90% at desk parameters


def test_vertex_spread_symmetric_single_probe():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    # probe a vertex that can never be drawn into the buffer set
    pool = set(pattern.buffers[0]) | set(pattern.buffers[1])
    x = next(x for x in pattern.parts[0] if x not in pool)
    v = host.clusters[0][7]
    report = estimate_vertex_spread(host, pattern, cfg, 5, [(x, v)],
                                    trials=2000, seed=4)
    est = report.estimates[0]
    assert abs(est.estimate - 1 / 25) <= est.radius + 0.01


def test_vertex_spread_wrong_cluster_probe_is_zero():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    x = pattern.parts[0][0]
    v = host.clusters[1][0]
    report = estimate_vertex_spread(host, pattern, cfg, 5, [(x, v)],
                                    trials=1000, seed=9)
    assert report.estimates[0].hits == 0


def test_vertex_spread_pair_probe_dominated_by_product():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    pool = set(pattern.buffers[0]) | set(pattern.buffers[1])
    mains0 = [x for x in pattern.parts[0] if x not in pool]
    x1, x2 = mains0[0], mains0[1]
    v1, v2 = host.clusters[0][3], host.clusters[0][11]
    single = estimate_vertex_spread(host, pattern, cfg, 5,
                                    [(x1, v1), (x2, v2)], trials=4000, seed=11)
    p1, p2 = (e.estimate for e in single.estimates)
    joint = estimate_vertex_spread(host, pattern, cfg, 5, [(x1, v1)],
                                   trials=1000, seed=12)
    # joint event via a direct count on fresh runs
    hits = 0
    n_ok = 0
    for i in range(4000):
        trial = run_pipeline_once(host, pattern, cfg, 5, 31_000 ^ i)
        if trial.ok:
            n_ok += 1
            hits += trial.phi[x1] == v1 and trial.phi[x2] == v2
    joint_est = hits / n_ok
    sigma = math.sqrt(max(joint_est, 1e-4) / n_ok)
    assert joint_est <= 2 * max(p1, 1 / 40) * max(p2, 1 / 40) + 3 * sigma


def test_vertex_spread_requires_trials_and_successes():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    with pytest.raises(InvalidArgumentError):
        estimate_vertex_spread(host, pattern, cfg, 5, [(0, 0)], trials=100, seed=0)
    # hostile: empty host graph forces rga starvation every time
    g = Graph(host.g.n, [])
    dead_host = PartitionedHost(g, host.clusters, host.r_graph, host.rprime, host.params)
    with pytest.raises(EstimateUnreliableError):
        estimate_vertex_spread(dead_host, pattern, cfg, 5, [(0, 0)],
                               trials=1000, seed=0)


def test_pushforward_trivial_and_incompatible_sets():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    assert pushforward_edge_spread(host, pattern, cfg, 5, [], 1000, 3).estimate == 1.0
    # two host edges sharing a vertex can never both be matching images
    u = host.clusters[0][0]
    vs = [v for v in host.clusters[1] if host.g.has_edge(u, v)][:2]
    s = [(u, vs[0]), (u, vs[1])]
    est = pushforward_edge_spread(host, pattern, cfg, 5, s, 1000, 3)
    assert est.hits == 0


def test_pushforward_single_edge_sanity():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    u = host.clusters[0][5]
    v = next(v for v in host.clusters[1] if host.g.has_edge(u, v))
    est = pushforward_edge_spread(host, pattern, cfg, 5, [(u, v)], 3000, 17)
    # matching pattern: about (n/2) edges spread over ~m^2 host pairs
    expected = 25 / (25 * 25)
    assert est.estimate <= 4 * expected + 3 * est.radius


def test_rga_first_choice_uniformity_chi_square():
    host, pattern = small_matching_setup(m=20, seed=12)
    cfg = RGAConfig(mu=0.25)
    counts = {}
    trials = 3000
    first = None
    for i in range(trials):
        out = rga_embed(host, pattern, cfg, seed=50_000 + i)
        assert out.ok
        pool = set(out.buffer_sets[0]) | set(out.buffer_sets[1])
        order_first = next(x for x in pattern.parts[0] if x not in pool)
        if first is None:
            fixed_pool = pool
            first = order_first
        elif order_first != first or pool != fixed_pool:
            continue  # keep the prefix fixed: same buffer draw only
        v = out.phi[first]
        counts[v] = counts.get(v, 0) + 1
    total = sum(counts.values())
    m = len(host.clusters[0])
    expected = total / m
    stat = sum((counts.get(v, 0) - expected) ** 2 / expected
               for v in host.clusters[0])
    pvalue = chi2.sf(stat, df=m - 1)
    assert pvalue >= 0.001


def test_rga_conditional_spread_bounded_by_floor_fraction():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    pool = set(pattern.buffers[0]) | set(pattern.buffers[1])
    x = next(x for x in pattern.parts[0] if x not in pool)
    v = host.clusters[0][2]
    hits = 0
    done = 0
    min_size = 10 ** 9
    for i in range(3000):
        out = rga_embed(host, pattern, cfg, seed=90_000 + i)
        if not out.ok:
            continue
        done += 1
        min_size = min(min_size, min(out.sizes))
        hits += out.phi.get(x) == v
    freq = hits / done
    sigma = math.sqrt(max(freq, 1e-4) / done)
    # one-probe form of the conditioned bound: 2 (1 / 2 nu n)^1 = 1 / (observed floor)
    assert freq <= 1 / min_size + 3 * sigma


def test_buffer_matchings_independent_across_parts():
    host, pattern = triangle_setup()
    cfg = RGAConfig(mu=0.25)
    e0 = e1 = e01 = 0
    trials = 2500
    done = 0
    for i in range(trials):
        trial = run_pipeline_once(host, pattern, cfg, 6, 7_000 ^ i)
        if not trial.ok:
            continue
        done += 1
        # events: lowest cluster vertex of part k is used by a buffer vertex
        phi = trial.phi
        inv = {v: x for x, v in phi.items()}
        a = inv[host.clusters[0][0]] in pattern.buffers[0]
        b = inv[host.clusters[1][0]] in pattern.buffers[1]
        e0 += a
        e1 += b
        e01 += a and b
    cov = e01 / done - (e0 / done) * (e1 / done)
    assert abs(cov) <= 4 / math.sqrt(done)


def test_blow_up_shape():
    g = blow_up(K2, [2, 3])
    assert g.n == 5 and g.num_edges() == 6


def test_image_restriction_validity_check():
    host, pattern = small_matching_setup()
    from spanembed.pipeline import PartitionedPattern, PatternParams
    x = pattern.parts[0][0]
    narrowed = PartitionedPattern(
        pattern.h, pattern.parts, pattern.buffers,
        {x: host.clusters[0][:10]}, pattern.params)
    assert narrowed.restrictions_valid(host, rho=0.1, zeta=0.3)
    assert not narrowed.restrictions_valid(host, rho=0.1, zeta=0.6)  # |I_x| too small
    assert not narrowed.restrictions_valid(host, rho=0.0, zeta=0.3)  # too many restricted


def test_rga_honors_image_restrictions():
    host, pattern = small_matching_setup()
    from spanembed.pipeline import PartitionedPattern, PatternParams
    pool = set(pattern.buffers[0])
    x = next(x for x in pattern.parts[0] if x not in pool)
    allowed = host.clusters[0][:5]
    narrowed = PartitionedPattern(pattern.h, pattern.parts, pattern.buffers,
                                  {x: allowed}, pattern.params)
    cfg = RGAConfig(mu=0.25)
    for seed in range(20):
        out = rga_embed(host, narrowed, cfg, seed)
        assert out.ok and out.phi[x] in allowed
