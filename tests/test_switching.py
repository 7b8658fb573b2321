import math
import random
from fractions import Fraction

import pytest

from conftest import backtracking_extender, random_bounded_degree_graph
from spanembed.errors import InvalidArgumentError
from spanembed.graphs import Graph, complete_graph, disjoint_union, cycle_graph, is_valid_embedding
from spanembed.robustness import random_min_degree_host
from spanembed.switching import (
    PartialEmbedding,
    delta_e_upper_bound,
    switching_embed,
)


def test_delta_e_upper_bound_values():
    assert delta_e_upper_bound(1) == Fraction(1, 2)
    assert delta_e_upper_bound(2) == Fraction(3, 4)
    assert delta_e_upper_bound(3) == Fraction(5, 6)
    with pytest.raises(InvalidArgumentError):
        delta_e_upper_bound(0)


def test_partial_embedding_validation():
    h = cycle_graph(4)
    g = complete_graph(4)
    PartialEmbedding.of(h, g, {0: 1, 1: 2})
    with pytest.raises(InvalidArgumentError):
        PartialEmbedding.of(h, g, {0: 1, 1: 1})          # not injective
    sparse = Graph(4, [(2, 3)])
    with pytest.raises(InvalidArgumentError):
        PartialEmbedding.of(h, sparse, {0: 0, 1: 1})     # domain edge unmapped


def test_empty_pattern_succeeds_without_swaps():
    h = Graph(5, [])
    g = complete_graph(5)
    out = switching_embed(g, h, PartialEmbedding.empty(), seed=1)
    assert out.ok and out.steps == ()
    assert sorted(out.mapping) == list(range(5))


def test_two_triangles_into_complete_host():
    h = disjoint_union(cycle_graph(3), cycle_graph(3))
    g = complete_graph(6)
    phi_s = PartialEmbedding.of(h, g, {0: 4})
    out = switching_embed(g, h, phi_s, seed=7)
    assert out.ok
    assert out.mapping[0] == 4
    assert is_valid_embedding(h, g, list(out.mapping))


def test_stuck_failure_is_reported_with_state():
    h = cycle_graph(4)
    g = Graph(4, [])
    out = switching_embed(g, h, PartialEmbedding.empty(), seed=0)
    assert not out.ok and "stuck" in out.note
    assert sorted(out.mapping) == list(range(4))


def test_random_extension_suite_with_oracle():
    """Desk-size version of the big randomized suite; full run in acceptance."""
    rng = random.Random(5)
    successes = 0
    for trial in range(40):
        n = rng.randint(6, 12)
        h = random_bounded_degree_graph(n, 3, seed=trial, p=0.7)
        delta = max(1, h.max_degree())
        bound = math.ceil(((2 * delta - 1) / (2 * delta) + 0.05) * n)
        g = random_min_degree_host(n, min(bound, n - 1), seed=1000 + trial)
        s_size = min(int(0.05 * delta * n), n)
        fixed = {}
        if s_size:
            xs = sorted(rng.sample(range(n), s_size))
            oracle = backtracking_extender(g, h.induced(xs), {})
            if oracle is None:
                continue
            fixed = {xs[i]: oracle[i] for i in range(len(xs))}
        phi_s = PartialEmbedding.of(h, g, fixed)
        out = switching_embed(g, h, phi_s, seed=trial)
        assert out.ok, f"trial {trial} got stuck"
        successes += 1
        phi = list(out.mapping)
        assert is_valid_embedding(h, g, phi)
        for x, v in fixed.items():
            assert phi[x] == v
        assert len(out.steps) <= h.num_edges()
        # independent feasibility oracle agrees an extension exists
        assert backtracking_extender(g, h, fixed) is not None
    assert successes >= 30


def test_trace_monotone_progress():
    """Replaying the trace step by step never decreases the mapped count."""
    h = random_bounded_degree_graph(10, 3, seed=3, p=0.8)
    g = random_min_degree_host(10, 9, seed=4)
    out = switching_embed(g, h, PartialEmbedding.empty(), seed=11)
    assert out.ok
    # reconstruct the run: start from the same seeded bijection
    from spanembed.seeds import py_rng
    rng = py_rng(11)
    free_g = list(range(10))
    rng.shuffle(free_g)
    phi = free_g[:]

    def mapped_count():
        return sum(1 for u, v in h.edges if g.has_edge(phi[u], phi[v]))

    last = mapped_count()
    for step in out.steps:
        phi[step.x], phi[step.y] = phi[step.y], phi[step.x]
        now = mapped_count()
        assert now > last
        last = now
    assert last == h.num_edges()


def test_mismatched_sizes_rejected():
    with pytest.raises(InvalidArgumentError):
        switching_embed(complete_graph(5), complete_graph(4),
                        PartialEmbedding.empty(), seed=0)
