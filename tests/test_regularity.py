import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_graph
from spanembed.errors import InvalidArgumentError
from spanembed.graphs import Graph, blow_up, complete_graph, cycle_graph
from spanembed.regularity import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    RegPairParams,
    _check_exact,
    _check_spectral,
    check_regular_pair,
    check_super_regular_pair,
    density,
)


def bipartite_graph(na, nb, edges):
    return Graph(na + nb, [(a, na + b) for a, b in edges])


def pure_python_regular_oracle(g, aa, bb, eps, d):
    """Independent exhaustive check, nested loops and direct float densities."""
    na, nb = len(aa), len(bb)
    e0 = sum(1 for a in aa for b in bb if g.has_edge(a, b))
    d0 = e0 / (na * nb)
    if d0 < d - eps:
        return REFUTED
    for amask in range(1, 1 << na):
        subset_a = [aa[i] for i in range(na) if amask >> i & 1]
        if len(subset_a) < eps * na:
            continue
        for bmask in range(1, 1 << nb):
            subset_b = [bb[j] for j in range(nb) if bmask >> j & 1]
            if len(subset_b) < eps * nb:
                continue
            e = sum(1 for a in subset_a for b in subset_b if g.has_edge(a, b))
            if abs(e / (len(subset_a) * len(subset_b)) - d0) > eps:
                return REFUTED
    return CERTIFIED


def table_regular_oracle(g, aa, bb, eps, d):
    """Second independent check: one dense numpy table of all sub-pair counts."""
    na, nb = len(aa), len(bb)
    adj = np.array([[g.has_edge(a, b) for b in bb] for a in aa], dtype=np.float64)
    e0 = adj.sum()
    if e0 / (na * nb) < d - eps:
        return REFUTED
    amasks = np.arange(1 << na, dtype=np.uint32)
    bmasks = np.arange(1 << nb, dtype=np.uint32)
    a_mem = ((amasks[:, None] >> np.arange(na)) & 1).astype(np.float64)
    b_mem = ((bmasks[:, None] >> np.arange(nb)) & 1).astype(np.float64)
    counts = a_mem @ adj @ b_mem.T
    sa = a_mem.sum(axis=1)
    sb = b_mem.sum(axis=1)
    qa = sa >= eps * na
    qb = sb >= eps * nb
    sizes = sa[qa, None] * sb[None, qb]
    dev = np.abs(counts[np.ix_(qa, qb)] / np.maximum(sizes, 1) - e0 / (na * nb))
    return REFUTED if (dev[sizes > 0] > eps).any() else CERTIFIED


def assert_witness_refutes(g, aa, bb, eps, d, verdict):
    """A refuting witness meets the definition, checked in exact fractions.

    eps and d are read as the decimals they are written as, so that 0.2 * 10 is 2.
    """
    eps, d = Fraction(str(eps)), Fraction(str(d))
    e0 = sum(1 for a in aa for b in bb if g.has_edge(a, b))
    d0 = Fraction(e0, len(aa) * len(bb))
    if verdict.detail.startswith("base density"):
        assert (verdict.witness_a, verdict.witness_b) == (tuple(aa), tuple(bb))
        assert d0 < d - eps
        return
    wa, wb = verdict.witness_a, verdict.witness_b
    assert set(wa) <= set(aa) and set(wb) <= set(bb)
    assert len(wa) >= eps * len(aa) and len(wb) >= eps * len(bb)
    e = sum(1 for a in wa for b in wb if g.has_edge(a, b))
    assert abs(Fraction(e, len(wa) * len(wb)) - d0) > eps


def test_density_examples():
    kb = blow_up(complete_graph(2), [3, 4])
    assert density(kb, range(3), range(3, 7)) == 1.0
    empty_pair = Graph(5, [])
    assert density(empty_pair, [0, 1], [2, 3, 4]) == 0.0
    c6 = cycle_graph(6)
    assert density(c6, [0, 2, 4], [1, 3, 5]) == pytest.approx(6 / 9)
    with pytest.raises(InvalidArgumentError):
        density(kb, [0, 1], [1, 4])
    with pytest.raises(InvalidArgumentError):
        density(kb, [], [3, 4])


def test_complete_pair_certified_any_eps():
    kb = blow_up(complete_graph(2), [5, 5])
    for eps in (0.1, 0.5, 1.0):
        v = check_regular_pair(kb, range(5), range(5, 10), RegPairParams(eps, 1.0))
        assert v.kind == CERTIFIED


def test_perfect_matching_pair_verdicts_under_d_minus_eps_convention():
    # matched half subsets push the sub-pair density to 1/|A'|, so the
    # deviation tops out at 1/3 - 1/10: refutable at eps below that, not above.
    # the (d - eps) base-density convention keeps 0.1 >= d - eps in both cases.
    g = bipartite_graph(10, 10, [(i, i) for i in range(10)])
    aa, bb = list(range(10)), list(range(10, 20))
    hi = check_regular_pair(g, aa, bb, RegPairParams(0.3, 0.3))
    assert hi.kind == pure_python_regular_oracle(g, aa, bb, 0.3, 0.3) == CERTIFIED
    lo = check_regular_pair(g, aa, bb, RegPairParams(0.2, 0.2))
    assert lo.kind == pure_python_regular_oracle(g, aa, bb, 0.2, 0.2) == REFUTED
    assert_witness_refutes(g, aa, bb, 0.2, 0.2, lo)


def test_base_density_refutation():
    g = bipartite_graph(4, 4, [(0, 0)])
    v = check_regular_pair(g, range(4), range(4, 8), RegPairParams(0.2, 0.5))
    assert v.kind == REFUTED and "base density" in v.detail


def test_exact_matches_pure_python_oracle_small_parts():
    for seed in range(12):
        na = 4 + seed % 4
        nb = 4 + (seed // 3) % 4
        g = random_graph(na + nb, 0.5, seed).induced(list(range(na + nb)))
        aa, bb = list(range(na)), list(range(na, na + nb))
        eps = (0.2, 0.3, 0.45)[seed % 3]
        d = (0.3, 0.5)[seed % 2]
        got = check_regular_pair(g, aa, bb, RegPairParams(eps, d))
        want = pure_python_regular_oracle(g, aa, bb, eps, d)
        assert got.kind == want, (seed, eps, d)
        if got.refuted:
            assert_witness_refutes(g, aa, bb, eps, d, got)


def test_exact_matches_table_oracle():
    # balanced 12x12 pairs, then unbalanced ones with either side the larger
    rng = np.random.default_rng(7)
    for na, nb in ((12, 12), (12, 12), (12, 12), (14, 6), (6, 14), (13, 9)):
        edges = [(a, b) for a in range(na) for b in range(nb) if rng.random() < 0.5]
        g = bipartite_graph(na, nb, edges)
        aa, bb = list(range(na)), list(range(na, na + nb))
        got = check_regular_pair(g, aa, bb, RegPairParams(0.25, 0.4))
        want = table_regular_oracle(g, aa, bb, 0.25, 0.4)
        assert got.kind == want, (na, nb)
        if got.refuted:
            assert_witness_refutes(g, aa, bb, 0.25, 0.4, got)


def test_witness_deviates_most_when_a_violation_sits_on_eps():
    # some sub-pairs of this seeded 10x9 pair deviate by exactly eps = 7/20,
    # and 0.35 * 90 rounds down, so the float comparison flags them too;
    # the witness is the violating sub-pair that deviates most
    rng = np.random.default_rng(9389)
    rng.integers(1, 11, size=2)          # the part sizes, 10 and 9, were drawn first
    p = rng.random()
    block = rng.random((10, 9)) < p
    g = bipartite_graph(10, 9, [(a, b) for a in range(10) for b in range(9) if block[a, b]])
    aa, bb = list(range(10)), list(range(10, 19))
    v = check_regular_pair(g, aa, bb, RegPairParams(0.35, 0.1))
    assert v.refuted
    assert_witness_refutes(g, aa, bb, 0.35, 0.1, v)


def test_part_size_picks_exact_check_or_certificate():
    # parts of at most 14 are decided exactly; a larger part on either
    # side goes to the spectral certificate, which a complete pair passes
    kb = blow_up(complete_graph(2), [14, 14])
    v = check_regular_pair(kb, range(14), range(14, 28), RegPairParams(0.3, 0.5))
    assert v.kind == CERTIFIED and v.detail == ""
    for na, nb in ((15, 5), (5, 15)):
        kb = blow_up(complete_graph(2), [na, nb])
        v = check_regular_pair(kb, range(na), range(na, na + nb), RegPairParams(0.3, 0.5))
        assert v.kind == CERTIFIED and v.detail.startswith("spectral norm 0.0000")


def test_certificate_certifies_or_stays_inconclusive():
    # I - J/20 has spectral norm 1 > 0.1 * sqrt(2 * 2): proves nothing, refutes nothing
    aa, bb = list(range(20)), list(range(20, 40))
    g = bipartite_graph(20, 20, [(i, i) for i in range(20)])
    v = check_regular_pair(g, aa, bb, RegPairParams(0.1, 0.05))
    assert v.kind == INCONCLUSIVE and v.witness_a is None
    assert v.detail == "spectral norm 1.0000 against bound 0.2000"
    kb = blow_up(complete_graph(2), [20, 20])
    assert check_regular_pair(kb, aa, bb, RegPairParams(0.2, 0.9)).kind == CERTIFIED
    # the base density still refutes a large pair, with the whole pair as witness
    v = check_regular_pair(Graph(40, []), aa, bb, RegPairParams(0.2, 0.5))
    assert v.kind == REFUTED
    assert_witness_refutes(Graph(40, []), aa, bb, 0.2, 0.5, v)


def test_certificate_never_certifies_what_the_exact_check_refutes():
    # random pairs with sides 2..14 through both deciders: the certificate is sound
    rng = np.random.default_rng(2026)
    kinds = []
    for _ in range(4000):
        na, nb = rng.integers(2, 15, size=2)
        block = rng.random((na, nb)) < rng.random()
        g = bipartite_graph(na, nb, [(a, b) for a, b in zip(*np.nonzero(block))])
        aa, bb = list(range(na)), list(range(na, na + nb))
        params = RegPairParams(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0, 1)))
        kinds.append((_check_spectral(g, aa, bb, params).kind,
                      _check_exact(g, aa, bb, params).kind))
    assert (CERTIFIED, REFUTED) not in kinds
    assert kinds.count((CERTIFIED, CERTIFIED)) >= 500
    assert sum(exact == CERTIFIED for _, exact in kinds) > kinds.count((CERTIFIED, CERTIFIED))


def test_super_regular_examples():
    kb = blow_up(complete_graph(2), [6, 6])
    assert check_super_regular_pair(kb, range(6), range(6, 12),
                                    RegPairParams(0.3, 1.0)).kind == CERTIFIED
    # isolated vertex in A refutes with that vertex as witness when d - eps > 0
    g = bipartite_graph(4, 4, [(a, b) for a in range(3) for b in range(4)])
    v = check_super_regular_pair(g, range(4), range(4, 8), RegPairParams(0.2, 0.5))
    assert v.kind == REFUTED and v.witness_a == (3,)


def test_generated_double_density_pairs_pass_super_regular_check():
    # raw pairs sampled at density 2d clear the min-degree floor (d - eps)|B|
    # and the spectral certificate
    m, d = 24, 0.4
    params = RegPairParams(4 / math.sqrt(m), d)
    rng = np.random.default_rng(17)
    passed = 0
    for _ in range(100):
        block = rng.random((m, m)) < 2 * d
        g = bipartite_graph(m, m, [(a, b) for a in range(m) for b in range(m)
                                   if block[a, b]])
        verdict = check_super_regular_pair(g, range(m), range(m, 2 * m), params)
        passed += verdict.kind == CERTIFIED
    assert passed == 100


def test_regularity_robustness_under_small_alterations():
    # certified pairs stay unrefuted at (eps + 3(sqrt(a)+sqrt(b)), d - 2(a+b))
    # after swapping a small fraction of vertices in and out
    found = 0
    for seed in range(40):
        g = random_graph(28, 0.5, seed)
        aa, bb = list(range(12)), list(range(12, 24))
        eps, d = 0.4, 0.4
        if check_regular_pair(g, aa, bb, RegPairParams(eps, d)).kind != CERTIFIED:
            continue
        found += 1
        aa_hat = aa[:-1] + [24]
        bb_hat = bb[:-1] + [25]
        alpha = 2 / len(aa_hat)
        beta = 2 / len(bb_hat)
        eps_hat = min(1.0, eps + 3 * (math.sqrt(alpha) + math.sqrt(beta)))
        d_hat = max(0.0, d - 2 * (alpha + beta))
        v = check_regular_pair(g, aa_hat, bb_hat, RegPairParams(eps_hat, d_hat))
        assert v.kind != REFUTED, seed
    assert found >= 3
