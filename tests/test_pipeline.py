import dataclasses
import hashlib
import math
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from scipy.stats import chi2

from conftest import nx_graph
from spanembed import pipeline
from spanembed.errors import (
    EstimateUnreliableError,
    GenerationFailedError,
    InternalInvariantError,
    InvalidArgumentError,
)
from spanembed.graphs import Graph, bits, blow_up, complete_graph
from spanembed.matching import hall_check
from spanembed.pipeline import (
    HostParams,
    PartitionedHost,
    RGAConfig,
    complete_with_buffers,
    estimate_vertex_spread,
    generate_regular_host,
    partition_pattern,
    pushforward_edge_spread,
    rga_embed,
    run_pipeline_once,
    _validate_full_embedding,
)
from spanembed.regularity import CERTIFIED, RegPairParams, check_super_regular_pair
from spanembed.robustness import clique_factor_pattern, perfect_matching_pattern
from spanembed.seeds import child_seed, count_trials, fresh_seed, py_rng
from spanembed.spread import check_fb_conditions

K2 = complete_graph(2)
K3 = complete_graph(3)
# run_pipeline_once on triangle_setup(d=0.4), C=6, seeds 0..19
DIGEST = "54dc0a5fb991bdd18cac2a8fbad347109c29b0c80276ae1441aafc4cffebeb47"


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
    params = RegPairParams(host.params.eps, host.params.d)
    verdict = check_super_regular_pair(host.g, host.clusters[0], host.clusters[1], params)
    assert verdict.kind == CERTIFIED  # min-degree passed, spectral norm 0 at edge probability 1


def test_generate_triangle_host():
    host = generate_regular_host(K3, K3, m=40, d=0.5, seed=4)
    assert host.g.n == 120 and host.r == 3


def test_generate_regular_only_pair_skips_min_degree():
    # R-edge outside R': generated at density d, no per-vertex floor demanded
    rp = Graph(2, [])
    host = generate_regular_host(Graph(2, [(0, 1)]), rp, m=30, d=0.3, seed=5)
    dens = host.g.num_edges() / (30 * 30)
    assert 0.15 < dens < 0.45


def test_host_generation_peak_allocation():
    # the host arrives as one 600 x 600 boolean matrix, never as an edge list:
    # traced peak 0.93 MB; listing the 120,000 cross edges as tuples peaked at 28 MB
    tracemalloc.start()
    try:
        host = generate_regular_host(K3, K3, m=200, d=0.5, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert host.g.n == 600 and host.g.num_edges() == 3 * 200 * 200
    assert host.g._edges is None


def test_generate_host_past_the_certificate_reach_fails_naming_the_pair():
    # at edge probability 1/2 and m = 350 the spectral norm is near sqrt(m) = 18.7,
    # above the bound 4/sqrt(m) * ceil(4 sqrt(m)) = 16.04: no attempt certifies
    with pytest.raises(GenerationFailedError) as exc:
        generate_regular_host(K2, Graph(2, []), m=350, d=0.5, seed=0)
    found = re.search(r"pair \(0,1\) inconclusive, spectral norm ([\d.]+) against bound ([\d.]+)",
                      str(exc.value))
    norm, bound = map(float, found.groups())
    assert bound == pytest.approx(4 / math.sqrt(350) * 75, abs=1e-4)
    assert norm > 1.05 * bound


def test_generate_host_validates_arguments():
    with pytest.raises(InvalidArgumentError):
        generate_regular_host(K2, K2, m=10, d=0.5, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_regular_host(K2, K2, m=30, d=0.7, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_regular_host(K2, complete_graph(3), m=30, d=0.5, seed=0)


def test_partitioned_host_rejects_a_vertex_count_off_the_blocks():
    params = HostParams(eps=0.5, d=0.5)
    for g, r_graph in ((Graph(21, []), K2), (Graph(0, []), K2), (Graph(4, []), Graph(0, []))):
        with pytest.raises(InvalidArgumentError, match="not a positive multiple"):
            PartitionedHost(g, r_graph, r_graph, params)


def test_partition_pattern_triangle_structure():
    host, pattern = triangle_setup()
    pattern.validate(host)
    assert [len(p) for p in pattern.parts] == [25, 25, 25]
    # buffers sit pairwise at H-distance > 5 (here: different triangles)
    h = pattern.h
    all_buf = [x for buf in pattern.buffers for x in buf]
    for i, x in enumerate(all_buf):
        dist = nx.single_source_shortest_path_length(nx_graph(h), x)
        for y in all_buf[i + 1:]:
            assert y not in dist or dist[y] > 5


def test_partition_pattern_edgeless_is_trivial():
    host = generate_regular_host(K2, K2, m=20, d=0.5, seed=8)
    pattern = partition_pattern(Graph(40, []), host, None, alpha=0.3, seed=1)
    pattern.validate(host)


def test_partition_pattern_refuses_preplaced_parts():
    host, pattern = triangle_setup(m=25, seed=6)
    h = clique_factor_pattern(75, 3)
    again = partition_pattern(h, host, {}, alpha=0.3, seed=6 ^ 5)
    assert (again.parts, again.buffers) == (pattern.parts, pattern.buffers)
    # refused before any other check: a pattern of the wrong size says so only without X*
    for xstar in ({0: [0], 1: [1], 2: [2]}, {0: []}, [(0, 0)]):
        for pat in (h, Graph(5, [])):
            with pytest.raises(InvalidArgumentError, match="pre-placed parts"):
                partition_pattern(pat, host, xstar, alpha=0.3, seed=3)
    with pytest.raises(InvalidArgumentError, match="same vertex count"):
        partition_pattern(Graph(5, []), host, None, alpha=0.3, seed=3)


def test_rga_edgeless_pattern_never_starves():
    host = generate_regular_host(K2, K2, m=20, d=0.5, seed=8)
    pattern = partition_pattern(Graph(40, []), host, None, alpha=0.3, seed=1)
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
    host = PartitionedHost(g, K2, K2, HostParams(eps=0.5, d=0.5))
    h = perfect_matching_pattern(20)
    parts = [tuple(range(0, 20, 2)), tuple(range(1, 20, 2))]
    buffers = [parts[0][:3], parts[1][:3]]
    from spanembed.pipeline import PartitionedPattern, PatternParams
    pattern = PartitionedPattern(h, parts, buffers, PatternParams(0.3, 1))
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


def _corrupt(host, pattern, phi, case):
    """A copy of the valid embedding ``phi`` broken as ``case`` says, and the message."""
    phi = dict(phi)
    h, part0, part1 = pattern.h, pattern.parts[0], pattern.parts[1]
    if case == "bijection":
        phi[part0[1]] = phi[part0[0]]
        return phi, "embedding is not a bijection"
    if case == "cluster":
        x, y = part0[4], part1[2]
        phi[x], phi[y] = phi[y], phi[x]
        return phi, f"vertex {min(x, y)} embedded outside its cluster"
    # swap two images inside cluster 0 so that at least two H-edges miss G
    for x in part0:
        for y in part0:
            swapped = dict(phi)
            swapped[x], swapped[y] = phi[y], phi[x]
            missed = sorted(e for e in h.edges
                            if not host.g.has_edge(swapped[e[0]], swapped[e[1]]))
            if len(missed) >= 2:
                a, b = missed[0]
                return swapped, f"H-edge ({a},{b}) not mapped to a host edge"
    raise AssertionError("no swap in cluster 0 misses two H-edges")


@pytest.mark.parametrize("case", ["bijection", "cluster", "edge"])
def test_validation_rejects_corrupted_embeddings(case):
    # d=0.4 leaves R'-pairs incomplete, so a swap inside a cluster can miss edges
    host, pattern = triangle_setup(d=0.4)
    trial = next(t for t in (run_pipeline_once(host, pattern, RGAConfig(mu=0.25), 6, seed)
                             for seed in range(20)) if t.ok)
    _validate_full_embedding(host, pattern, trial.phi)
    phi, message = _corrupt(host, pattern, trial.phi, case)
    with pytest.raises(InternalInvariantError) as exc:
        _validate_full_embedding(host, pattern, phi)
    assert str(exc.value) == message


def test_host_clusters_are_vertex_blocks():
    host, _ = triangle_setup()
    m, adj = host.m, host.adj_bool()
    assert m == 25 and len(host.clusters) == host.r == 3
    for i, cl in enumerate(host.clusters):
        assert cl == tuple(range(i * m, (i + 1) * m))
    assert list(host.cluster_of) == [v // m for v in range(host.g.n)]
    assert host.cluster_bool().tolist() == [[v // m == i for v in range(host.g.n)]
                                            for i in range(host.r)]
    for i, cols in enumerate(host.cluster_adj()):
        assert (cols == adj[:, i * m:(i + 1) * m]).all()
        assert np.shares_memory(cols, adj) and not cols.flags.writeable


def test_host_and_pattern_arrays_are_read_only():
    host, pattern = triangle_setup()
    columns = host.cluster_adj()
    assert host.cluster_adj() is columns
    for cl, cols in zip(host.clusters, columns):
        assert (cols == host.adj_bool()[:, list(cl)]).all()
    assert pattern.edge_array.tolist() == [list(e) for e in pattern.h.sorted_edges()]
    assert host.cluster_index.tolist() == list(host.cluster_of)
    assert pattern.part_index.tolist() == list(pattern.part_of)
    for a in (*columns, pattern.edge_array, host.cluster_index, pattern.part_index):
        with pytest.raises(ValueError):
            a[0] = 0


def test_pipeline_built_instances_meet_fb_conditions():
    # the k3 m=60 set-up of acceptance criterion 6 at d = 0.4, so that the
    # R'-pairs, and with them the F_i, are not complete; trial i draws its
    # stage seeds as run_pipeline_once does from child_seed(2025, i)
    host = generate_regular_host(K3, K3, m=60, d=0.4, seed=101)
    pattern = partition_pattern(clique_factor_pattern(180, 3), host, None,
                                alpha=0.25, seed=55)
    cfg = RGAConfig(mu=0.25)
    instances = []
    for i in range(40):
        master = py_rng(child_seed(2025, i))
        rga = rga_embed(host, pattern, cfg, fresh_seed(master))
        assert rga.ok
        done = complete_with_buffers(host, pattern, rga, cfg, 8, fresh_seed(master))
        assert done.ok
        instances += done.instances
    assert len(instances) == 120
    assert any(len(f.edges) < f.lam ** 2 for f in instances)
    for f in instances:
        assert check_fb_conditions(f, seed=1).all_ok


def test_sparse_host_buffer_failures_carry_a_hall_witness():
    # the set-up above at d = 0.3: 7 of 60 trials fail in buffer completion,
    # each on an F_i with no perfect matching; a buffer vertex whose row of
    # F_i is empty (trials 0 and 42) must be in the witness
    host = generate_regular_host(K3, K3, m=60, d=0.3, seed=101)
    pattern = partition_pattern(clique_factor_pattern(180, 3), host, None,
                                alpha=0.25, seed=55)
    cfg = RGAConfig(mu=0.25)
    failed, empty_rows = {}, 0
    for i in range(60):
        master = py_rng(child_seed(2025, i))
        rga = rga_embed(host, pattern, cfg, fresh_seed(master))
        assert rga.ok
        done = complete_with_buffers(host, pattern, rga, cfg, 8, fresh_seed(master))
        if done.ok:
            continue
        failed[i] = done.fail_part
        f, buf = done.instances[-1], rga.buffer_sets[done.fail_part]
        assert len(done.instances) == done.fail_part + 1
        assert not hall_check(f.mat).satisfied
        rows = [buf.index(x) for x in done.hall_witness]
        assert rows and len(set(rows)) == len(rows)
        assert np.count_nonzero(f.mat[rows].any(axis=0)) < len(rows)
        empty = {buf[a] for a in range(f.lam) if not f.mat[a].any()}
        assert empty <= set(done.hall_witness)
        empty_rows += bool(empty)
    assert failed == {0: 1, 2: 0, 19: 2, 30: 1, 35: 0, 42: 1, 52: 0}
    assert empty_rows == 2


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
                for y in bits(pattern.h.adj[x]):
                    allowed &= set(bits(host.g.adj[done.phi[y]]))
                want |= {(ai, free.index(v)) for v in allowed}
            assert f.lam == len(free) == len(rga.buffer_sets[i])
            assert f.edges == want
            checked.append(len(want) / f.lam ** 2)
    assert len(checked) >= 10 and max(checked) < 1


def test_pipeline_trials_replay_bit_identical():
    # digest of 20 trials, four of which fail in buffer completion, recorded
    # with spread matchings taken on a randomly relabelled Z
    host, pattern = triangle_setup(d=0.4)
    cfg = RGAConfig(mu=0.25)
    digest = hashlib.sha256()
    for seed in range(20):
        trial = run_pipeline_once(host, pattern, cfg, 6, seed)
        phi = None if trial.phi is None else sorted(trial.phi.items())
        digest.update(repr((trial.fail_stage, trial.rga_sizes, phi)).encode())
    assert digest.hexdigest() == DIGEST


def test_vertex_spread_is_flat_on_extreme_buffer_slot_pairs():
    # every (first or last buffer vertex, first or last cluster slot) pair:
    # a uniform image would give n * P(phi(x) = v) = n / m = 3.  Measured
    # 3.5 here; an index-order matcher on the unrelabelled Z gave 24.6, so
    # the bound of 8 keeps twice the measured value and still tells them apart
    host, pattern = triangle_setup(m=40)
    probes = sorted({(x, v) for buf, cl in zip(pattern.buffers, host.clusters)
                     for x in (min(buf), max(buf)) for v in (cl[0], cl[-1])})
    report = estimate_vertex_spread(host, pattern, RGAConfig(mu=0.25), 8, probes,
                                    trials=2000, seed=2025)
    assert report.successes == 2000
    assert host.g.n * max(e.hits for e in report.estimates) / report.successes <= 8.0


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


def test_vertex_spread_counts_every_pair_of_one_replayed_stream():
    # d = 0.4 makes some trials fail in buffer completion; the replay keeps
    # per-pair counts in a dict, and the old per-probe event count is the oracle
    host, pattern = triangle_setup(d=0.4)
    cfg, seed, trials = RGAConfig(mu=0.25), (7 << 32) | 3, 1000
    x0, x1 = pattern.buffers[0][0], pattern.parts[2][-1]
    probes = [(x0, host.clusters[0][3]), (x0, host.clusters[1][3]), (x1, host.clusters[2][0]),
              (x1, host.clusters[2][-1])]
    report = estimate_vertex_spread(host, pattern, cfg, 6, probes, trials, seed)
    outcomes, pairs = [], {}
    for t in range(trials):
        trial = run_pipeline_once(host, pattern, cfg, 6, child_seed(seed, t))
        outcomes.append((trial.fail_stage, min(trial.rga_sizes) if trial.rga_sizes else 0))
        for x, v in (trial.phi or {}).items():
            pairs[x, v] = pairs.get((x, v), 0) + 1
    assert report.outcomes == tuple(outcomes)
    successes = sum(not stage for stage, _ in outcomes)
    assert report.trials == trials and report.successes == successes < trials
    counts = np.zeros((host.g.n, host.m), dtype=int)
    for (x, v), k in pairs.items():
        cluster = host.clusters[pattern.part_of[x]]
        counts[x, cluster.index(v)] = k
    assert np.array_equal(report.counts, counts)
    assert (report.counts.sum(axis=1) == successes).all()
    assert not report.counts.flags.writeable
    oracle_successes, hits = count_trials(
        lambda trial_seed: run_pipeline_once(host, pattern, cfg, 6, trial_seed).phi,
        [lambda phi, x=x, v=v: phi[x] == v for x, v in probes], trials, seed)
    assert oracle_successes == successes
    assert [e.hits for e in report.estimates] == hits and hits[1] == 0
    # reports compare by value, without the count matrix
    assert report == dataclasses.replace(report, counts=np.zeros(1))
    assert report != dataclasses.replace(report, outcomes=report.outcomes[1:])


def test_vertex_spread_refuses_probes_outside_the_host(monkeypatch):
    # checked before any trial runs; test_vertex_spread_wrong_cluster_probe_is_zero
    # covers a v inside the host but outside x's cluster
    host, pattern = small_matching_setup()
    cfg, n = RGAConfig(mu=0.25), host.g.n
    calls = []
    monkeypatch.setattr(pipeline, "run_pipeline_once", lambda *args: calls.append(args))
    for probe in [(n, 0), (0, 10 ** 6), (-1, 0), (0, -1)]:
        with pytest.raises(InvalidArgumentError, match=re.escape(f"probe {probe}")):
            estimate_vertex_spread(host, pattern, cfg, 5, [(0, 0), probe], 1000, 0)
    assert calls == []


def test_vertex_spread_requires_trials_and_successes():
    host, pattern = small_matching_setup()
    cfg = RGAConfig(mu=0.25)
    with pytest.raises(InvalidArgumentError):
        estimate_vertex_spread(host, pattern, cfg, 5, [(0, 0)], trials=100, seed=0)
    # hostile: empty host graph forces rga starvation every time
    g = Graph(host.g.n, [])
    dead_host = PartitionedHost(g, host.r_graph, host.rprime, host.params)
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
