"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Frozen constants were measured
once on the fixed seeds used here and carry explicit safety margins;
they are never re-fitted at run time.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from catalog import connected_catalog, m1_oracle
from conftest import (
    backtracking_extender,
    random_bipartite_adj,
    random_bounded_degree_graph,
)
from spanembed.density import max_one_density
from spanembed.graphs import complete_graph, is_valid_embedding
from spanembed.partition import clique_factor, equitable_coloring
from spanembed.pipeline import (
    RGAConfig,
    estimate_vertex_spread,
    generate_regular_host,
    partition_pattern,
    pushforward_edge_spread,
)
from spanembed.robustness import (
    ThresholdScan,
    clique_factor_pattern,
    dirac_overlap_host,
    perfect_matching_pattern,
    random_min_degree_host,
    threshold_scan,
)
from spanembed.spread import (
    FBInstance,
    FBParams,
    canonical_matching,
    check_fb_conditions,
    sample_coupled,
    sample_spread_matching,
    two_cprime_over_lambda,
)
from spanembed.switching import PartialEmbedding, switching_embed
from spanembed.tailbounds import hypergeo_chernoff_bound, wilson_interval

# frozen constants (measured once at the seeds below, with safety margin)
MATCHING_SPREAD_CB = 30.0          # criterion 5: max edge freq * lambda was 9.7/16.7/24.1
VERTEX_SPREAD_CONSTANT = 60.0      # criterion 6: n * max probe was 38.6 (m=60), 50.0 (m=100)
                                   # over 50 probes when frozen; over every pair now 3.94, 4.26
PUSHFORWARD_CONSTANT = 4.0         # criterion 7: n * estimate was 2.5 (n=180), 1.5 (n=300)

CATALOG_BUDGET_SECONDS = 60.0


def report(num, ok, text):
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def catalog():
    start = time.time()
    graphs = connected_catalog(8)
    return graphs, time.time() - start


def test_criterion_1_m1_oracle_equivalence(catalog):
    graphs, gen_seconds = catalog
    start = time.time()
    mismatches = 0
    checked = 0
    for g in graphs:
        if g.n < 2:
            continue
        checked += 1
        if max_one_density(g)[0] != m1_oracle(g)[0]:
            mismatches += 1
    elapsed = gen_seconds + (time.time() - start)
    ok = mismatches == 0 and elapsed < CATALOG_BUDGET_SECONDS and checked >= 12112
    report(1, ok, f"{checked} connected graphs on <= 8 vertices, "
                  f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def _has_clique(g, size):
    return any(
        all(g.has_edge(u, v) for u, v in combinations(c, 2))
        for c in combinations(range(g.n), size)
    )


def test_criterion_2_clique_free_density_bound(catalog):
    graphs, _ = catalog
    violations = 0
    checked = 0
    for delta in (2, 3, 4):
        bound = Fraction(delta + 1, 2) - Fraction(1, 2 * (delta + 1))
        for g in graphs:
            if g.n < 2 or g.max_degree() > delta or _has_clique(g, delta + 1):
                continue
            checked += 1
            if max_one_density(g)[0] > bound:
                violations += 1
    ok = violations == 0 and checked > 1000
    report(2, ok, f"K_(D+1)-free bound on {checked} (graph, D) pairs, "
                  f"{violations} violations")


def test_criterion_3_switching_embedder_suite():
    rng = random.Random(20250810)
    successes = 0
    instances = 0
    while instances < 200:
        n = rng.randint(6, 12)
        h = random_bounded_degree_graph(n, 3, seed=rng.randrange(1 << 30), p=0.7)
        delta = max(1, h.max_degree())
        need = math.ceil(((2 * delta - 1) / (2 * delta) + 0.05) * n)
        if need > n - 1:
            need = n - 1
        g = random_min_degree_host(n, need, seed=rng.randrange(1 << 30))
        s_size = int(0.05 * delta * n)
        fixed = {}
        if s_size:
            xs = sorted(rng.sample(range(n), s_size))
            partial = backtracking_extender(g, h.induced(xs), {})
            if partial is None:
                continue
            fixed = {xs[i]: partial[i] for i in range(len(xs))}
        instances += 1
        phi_s = PartialEmbedding.of(h, g, fixed)
        out = switching_embed(g, h, phi_s, seed=rng.randrange(1 << 30))
        if not out.ok:
            continue
        phi = list(out.mapping)
        if not is_valid_embedding(h, g, phi):
            continue
        if any(phi[x] != v for x, v in fixed.items()):
            continue
        # replay the trace: mapped count must strictly increase per swap
        if not _trace_strictly_increases(g, h, fixed, out):
            continue
        # independent backtracking embedder agrees the extension is feasible
        if backtracking_extender(g, h, fixed) is None:
            continue
        successes += 1
    ok = successes == 200
    report(3, ok, f"{successes}/200 random extension instances embedded, verified "
                  f"edge-by-edge with strict swap progress and oracle-confirmed feasible")


def _trace_strictly_increases(g, h, fixed, out):
    # rebuild the seeded initial bijection, then replay the recorded swaps
    phi = list(out.mapping)
    for step in reversed(out.steps):
        phi[step.x], phi[step.y] = phi[step.y], phi[step.x]

    def mapped():
        return sum(1 for u, v in h.edges if g.has_edge(phi[u], phi[v]))

    last = mapped()
    for step in out.steps:
        phi[step.x], phi[step.y] = phi[step.y], phi[step.x]
        now = mapped()
        if now <= last:
            return False
        last = now
    return last == h.num_edges()


def test_criterion_4_equitable_and_clique_factor():
    rng = random.Random(44)
    bad_partitions = 0
    for _ in range(500):
        n = rng.randint(2, 60)
        delta = rng.randint(1, 5)
        h = random_bounded_degree_graph(n, delta, seed=rng.randrange(1 << 30))
        lo = h.max_degree() + 1
        k = rng.randint(lo, max(lo, min(n, lo + 4)))
        try:
            equitable_coloring(h, k).validate(h)
        except Exception:
            bad_partitions += 1
    bad_factors = 0
    for _ in range(200):
        r = rng.choice((3, 4, 5))
        n = rng.randint(3 * r, 45)
        need = -(-(r - 1) * n // r)
        g = random_min_degree_host(n, need, seed=rng.randrange(1 << 30))
        try:
            f = clique_factor(g, r)
            f.validate(g)
            if len(f.leftover) > r - 1:
                bad_factors += 1
        except Exception:
            bad_factors += 1
    ok = bad_partitions == 0 and bad_factors == 0
    report(4, ok, f"500 equitable partitions valid ({bad_partitions} bad), "
                  f"200 near-extremal clique factors valid ({bad_factors} bad)")


FB_SEEDS = {10: 1002, 20: 1000, 40: 1000}
FB_C = {10: 8, 20: 10, 40: 10}


def _fb_instance(lam):
    params = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
    adj = random_bipartite_adj(lam, lam, 0.8, FB_SEEDS[lam])
    f = FBInstance(lam, [(a, b) for a in range(lam) for b in adj[a]], params)
    assert check_fb_conditions(f, seed=5).all_ok, "instance must be FB-compliant"
    return f


def test_criterion_5_spread_matching():
    lines = []
    ok = True
    for lam in (10, 20, 40):
        f = _fb_instance(lam)
        c = FB_C[lam]
        trials = 1000
        hall_fails = 0
        edge_z_counts = {}
        match_counts = {}
        successes = 0
        for i in range(trials):
            sample = sample_coupled(f, c, seed=i)
            size, _ = canonical_matching(sample.z_mat)
            if size < lam:
                hall_fails += 1
            for e in sample.z:
                edge_z_counts[e] = edge_z_counts.get(e, 0) + 1
            draw = sample_spread_matching(f, c, max_resamples=4, seed=10 ** 6 + i)
            if draw.ok:
                successes += 1
                for e in draw.matching:
                    match_counts[e] = match_counts.get(e, 0) + 1
        z_bound = two_cprime_over_lambda(f, c)
        max_z = max(edge_z_counts.values()) / trials
        sigma_z = math.sqrt(max_z * (1 - max_z) / trials) + 1 / trials
        max_m = max(match_counts.values()) / successes
        hall_ok = hall_fails / trials < 0.5
        z_ok = max_z <= z_bound + 3 * sigma_z
        cb_ok = max_m * lam <= MATCHING_SPREAD_CB
        ok = ok and hall_ok and z_ok and cb_ok
        lines.append(f"lam={lam}: hall-fail {hall_fails}/{trials}, "
                     f"maxZ {max_z:.3f}<=2C'/lam {z_bound:.0f}, "
                     f"match*lam {max_m * lam:.1f}<=C_B {MATCHING_SPREAD_CB}")
    report(5, ok, "; ".join(lines))


def test_criterion_6_pipeline_vertex_spread():
    k3 = complete_graph(3)
    lines = []
    ok = True
    for m, seed in ((60, 2025), (100, 4050)):
        host = generate_regular_host(k3, k3, m=m, d=0.5, seed=101)
        pattern = partition_pattern(clique_factor_pattern(3 * m, 3), host, None,
                                    alpha=0.25, seed=55)
        spread = estimate_vertex_spread(host, pattern, RGAConfig(mu=0.25), 8, (), 10_000, seed)
        nmax = host.g.n * int(spread.counts.max()) / spread.successes
        ok = ok and nmax <= VERTEX_SPREAD_CONSTANT
        lines.append(f"{nmax:.2f} (m={m}, {spread.successes}/{spread.trials} successes)")
    report(6, ok, f"n*max P[phi(x)=v] over every (x, v) pair {', '.join(lines)} "
                  f"<= frozen {VERTEX_SPREAD_CONSTANT}")


def test_criterion_7_pushforward_single_edge():
    k2 = complete_graph(2)
    lines = []
    ok = True
    for m in (90, 150):
        n = 2 * m
        host = generate_regular_host(k2, k2, m=m, d=0.5, seed=303)
        pattern = partition_pattern(perfect_matching_pattern(n), host, None,
                                    alpha=0.25, seed=66)
        cfg = RGAConfig(mu=0.25)
        u = host.clusters[0][m // 2]
        v = next(w for w in host.clusters[1] if host.g.has_edge(u, w))
        want = (min(u, v), max(u, v))
        est = pushforward_edge_spread(host, pattern, cfg, 8, [want], 4000, 515)
        # m1(matching) = 1, so the normalization is n^(1/1)
        m1 = max_one_density(pattern.h)[0]
        assert m1 == 1
        scaled = est.estimate * n ** (1 / float(m1))
        ok = ok and scaled <= PUSHFORWARD_CONSTANT
        lines.append(f"n={n}: mu'(S) * n^(1/m1) = {scaled:.2f}")
    report(7, ok, "; ".join(lines) + f" <= frozen {PUSHFORWARD_CONSTANT}")


def test_criterion_8_threshold_scan_sanity():
    n = 100
    host = dirac_overlap_host(n)
    pattern = perfect_matching_pattern(n)
    p_lo = 0.2 * math.log(n) / n
    p_hi = 4 * math.log(n) / n
    scan = ThresholdScan(host, pattern, (p_lo, p_hi, 1.0), trials=1000, seed=12345)
    rows = threshold_scan(scan)   # raises if coupled monotonicity ever breaks
    lo_row, hi_row, one_row = rows
    lo_wilson = wilson_interval(lo_row.successes, lo_row.trials)
    hi_wilson = wilson_interval(hi_row.successes, hi_row.trials)
    # Theorem-level degree condition at p = 1: delta(G) = n/2 suffices for
    # a perfect matching, witnessed constructively by the switching embedder
    out = switching_embed(host, pattern, PartialEmbedding.empty(), seed=8)
    ok = (hi_row.fraction >= 0.9 and hi_wilson[0] > 0.9
          and lo_row.fraction <= 0.1 and lo_wilson[1] < 0.1
          and one_row.fraction == 1.0 and out.ok
          and all(r.timeouts == 0 for r in rows))
    report(8, ok, f"fractions {lo_row.fraction:.3f}@p={p_lo:.4f} (hi {lo_wilson[1]:.3f}<0.1), "
                  f"{hi_row.fraction:.3f}@p={p_hi:.4f} (lo {hi_wilson[0]:.3f}>0.9), "
                  f"{one_row.fraction:.1f}@p=1, switching witness ok={out.ok}")


def test_criterion_9_hypergeometric_tail():
    rng = np.random.default_rng(99)
    trials = 20_000
    worst = 0.0
    combos = 0
    ok = True
    for n in (60, 120, 200):
        m = n // 2
        for k in (n // 4, n // 2):
            expect = m * k / n
            for eps in (0.3, 0.5):
                for t in (eps * expect, (eps * expect + expect) / 2, expect):
                    xs = rng.hypergeometric(m, n - m, k, size=trials)
                    freq = float(np.mean(np.abs(xs - expect) >= t))
                    bound = hypergeo_chernoff_bound(eps, t)
                    sigma = math.sqrt(freq * (1 - freq) / trials) + 1 / trials
                    combos += 1
                    if freq > bound + 3 * sigma:
                        ok = False
                    worst = max(worst, freq - bound)
    report(9, ok, f"{combos} (n, eps, t) combinations, "
                  f"max excess over bound {worst:.4f} (must be <= 3 sigma)")
