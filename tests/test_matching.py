import itertools
import random

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import random_bipartite_adj
from spanembed.errors import InvalidArgumentError, UnsupportedSizeError
from spanembed.matching import hall_check, kuhn_matching


def permanent_positive(adj, n):
    """Brute-force oracle: does some permutation hit only edges?"""
    sets = [set(a) for a in adj]
    return any(all(perm[i] in sets[i] for i in range(n))
               for perm in itertools.permutations(range(n)))


def test_hall_satisfied_on_perfect_matching_graph():
    edges = [(i, 10 + i) for i in range(10)]
    v = hall_check(range(10), range(10, 20), edges)
    assert v.satisfied and v.matching_size == 10


def test_hall_isolated_vertex_witness():
    edges = [(a, 4 + b) for a in range(3) for b in range(4)]
    v = hall_check(range(4), range(4, 8), edges)
    assert not v.satisfied
    assert v.witness == (3,)


def test_hall_deficient_witness_is_deficient():
    # a1, a2, a3 all only see b0: any two of them witness deficiency
    edges = [(1, 8), (2, 8), (3, 8), (0, 9), (0, 10), (4, 12), (5, 13), (6, 14), (7, 15)]
    v = hall_check(range(8), range(8, 16), edges)
    assert not v.satisfied
    nbrs = {b for a, b in edges if a in v.witness}
    assert len(nbrs) < len(v.witness)


def test_hall_matches_permanent_oracle_random():
    for seed in range(30):
        adj = random_bipartite_adj(8, 8, 0.5, seed)
        edges = [(a, 8 + b) for a in range(8) for b in adj[a]]
        got = hall_check(range(8), range(8, 16), edges).satisfied
        assert got == permanent_positive(adj, 8), seed


def test_hall_requires_balance():
    with pytest.raises(InvalidArgumentError):
        hall_check(range(3), range(3, 5), [])


def test_kuhn_size_equals_scipy_maximum_matching():
    # scipy's Hopcroft-Karp serves only as an independent reference here
    for seed in range(20):
        na = random.Random(seed).randint(3, 12)
        adj = random_bipartite_adj(na, na, 0.4, seed)
        size, pair_l, _ = kuhn_matching(na, na, adj)
        rows = [u for u in range(na) for _ in adj[u]]
        cols = [v for u in range(na) for v in adj[u]]
        biadj = csr_array((np.ones(len(rows)), (rows, cols)), shape=(na, na))
        ref = maximum_bipartite_matching(biadj, perm_type="column")
        assert size == int((ref >= 0).sum())
        assert all(pair_l[u] == -1 or pair_l[u] in adj[u] for u in range(na))


def test_kuhn_is_deterministic_function_of_edges():
    adj = random_bipartite_adj(9, 9, 0.5, 3)
    a = kuhn_matching(9, 9, adj)
    b = kuhn_matching(9, 9, [list(x) for x in adj])
    assert a == b


def test_kuhn_recursion_overflow_is_unsupported_size():
    # a_i-b_i, a_i-b_{i+1} and a_last-b_0: the last vertex augments along the whole chain
    n = 1500
    adj = [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]
    with pytest.raises(UnsupportedSizeError, match="1500 x 1500"):
        kuhn_matching(n, n, adj)
    edges = [(a, n + b) for a in range(n) for b in adj[a]]
    with pytest.raises(UnsupportedSizeError):
        hall_check(range(n), range(n, 2 * n), edges)
    # short chains stay within the limit
    assert kuhn_matching(50, 50, [[i, i + 1] for i in range(49)] + [[0, 49]])[0] == 50
