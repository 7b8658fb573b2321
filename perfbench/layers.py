"""The traced layers: which functions are wrapped, what their hooks count,
and the per-layer metrics computed from the spans.

Hooks recover counts the library computes and then drops (``draws`` of
a spread matching, ``nodes_used`` of a containment verdict, RGA
candidate sizes and failure points) and check every output they see:
pipeline embeddings, spread matchings and containment verdicts.  The
hooks' own time is kept out of every span.
"""

from __future__ import annotations

import networkx as nx

from spanembed.graphs import is_valid_embedding
from tracing import Tracer
from workloads import BLOSSOM, M1Part, check_embedding, density, \
    is_perfect_matching_in, pipeline, robustness, spread

ATLAS_MAX_N = 7
CASES = ("matching", "clique_factor", "backtracking")
SETUP_LAYERS = ("regularity.check_regular_pair", "switching.switching_embed",
                "partition.equitable_coloring", "spread.check_fb_conditions")


def containment_case(h) -> str:
    """The special case of ``contains_spanning`` that a pattern selects."""
    if h.max_degree() <= 1:
        return "matching"
    comps = h.connected_components()
    sizes = {len(c) for c in comps}
    if len(sizes) == 1:
        r = sizes.pop()
        if r >= 3 and h.num_edges() == len(comps) * r * (r - 1) // 2:
            return "clique_factor"
    return "backtracking"


class Layers:
    """Every traced layer, wrapped on the module its callers look it up on."""

    def __init__(self):
        self.tracer = t = Tracer()
        self.failures: list[str] = []
        self.embeddings: list[tuple[int, ...]] = []
        self.rga_min_cand: int | None = None
        self._cases: dict[int, tuple[object, str]] = {}

        for attr, name, after in (
            ("rga_embed", "pipeline.rga_embed", self._after_rga),
            ("complete_with_buffers", "pipeline.complete_with_buffers", self._after_completion),
            ("FBInstance", "spread.FBInstance", None),
            ("sample_spread_matching", "spread.sample_spread_matching", self._after_matching),
            ("check_regular_pair", "regularity.check_regular_pair", None),
            ("switching_embed", "switching.switching_embed", None),
            ("equitable_coloring", "partition.equitable_coloring", None),
        ):
            t.add(pipeline, attr, name, after)
        for attr, name, after in (
            ("sample_spread_matching", "spread.sample_spread_matching", self._after_matching),
            ("sample_coupled", "spread.sample_coupled", None),
            ("canonical_matching", "spread.canonical_matching", None),
            ("hall_check", "matching.hall_check", None),
            ("check_fb_conditions", "spread.check_fb_conditions", None),
        ):
            t.add(spread, attr, name, after)
        t.add(robustness, "threshold_scan", "robustness.threshold_scan")
        t.add(robustness, "contains_spanning", self._containment_name, self._after_containment)
        t.add(nx, "max_weight_matching", "networkx.max_weight_matching")
        t.add(density, "max_one_density", self._density_name, self._after_density)

    def reset(self) -> None:
        self.tracer.reset()
        self.failures = []
        self.embeddings = []
        self.rga_min_cand = None

    # -- names and hooks ------------------------------------------------

    def _containment_name(self, gp, h, *_, **__) -> str:
        cached = self._cases.get(id(h))
        if cached is None or cached[0] is not h:
            cached = self._cases[id(h)] = (h, containment_case(h))
        return f"robustness.contains_spanning.{cached[1]}"

    @staticmethod
    def _density_name(h) -> str:
        size = "atlas" if h.n <= ATLAS_MAX_N else f"n{h.n}"
        return f"density.max_one_density.{size}"

    def _after_rga(self, res, *_, **__):
        c = self.tracer.counts
        c["rga_fail"] += not res.ok
        if res.sizes:
            low = min(res.sizes)
            self.rga_min_cand = low if self.rga_min_cand is None else min(self.rga_min_cand, low)

    def _after_completion(self, res, host, pattern, *_, **__):
        if not res.ok:
            self.tracer.counts["completion_fail"] += 1
            return
        self.failures += check_embedding(host, pattern, res.phi, "traced pipeline trial")
        self.embeddings.append(tuple(res.phi[x] for x in range(pattern.h.n)))

    def _after_matching(self, draw, f, *_, **__):
        self.tracer.counts["draws"] += draw.draws
        if draw.ok and not is_perfect_matching_in(draw.matching, f):
            self.failures.append(f"traced spread matching at lam={f.lam} is not perfect in F")

    def _after_containment(self, verdict, gp, h, *_, **__):
        self.tracer.counts["contains_nodes"] += verdict.nodes_used
        if verdict.yes:
            if not is_valid_embedding(h, gp, verdict.embedding):
                self.failures.append("traced containment: YES embedding is invalid")
        elif verdict.kind == robustness.NO and self._cases[id(h)][1] == "matching":
            g = nx.Graph()
            g.add_nodes_from(range(gp.n))
            g.add_edges_from(gp.edges)
            if len(BLOSSOM(g, maxcardinality=True)) >= h.num_edges():
                self.failures.append("traced containment: NO verdict but networkx matches")

    def _after_density(self, res, h):
        self.tracer.counts["flow_components"] += sum(
            len(comp) > density.EXHAUSTIVE_LIMIT for comp in h.connected_components())

    # -- metrics ----------------------------------------------------------

    def setup_metrics(self) -> dict[str, tuple[float, str]]:
        """Busy seconds of the layers that only set-up runs."""
        return {f"{name}.s": (self.tracer.busy(name), "s") for name in SETUP_LAYERS}

    def metrics(self) -> dict[str, tuple[float, str]]:
        t, c = self.tracer, self.tracer.counts
        out: dict[str, tuple[float, str]] = {}

        def timed(name):
            out[f"{name}.s"] = (t.busy(name), "s")
            out[f"{name}.calls"] = (t.calls(name), "count")

        timed("pipeline.rga_embed")
        out["pipeline.rga_embed.fail"] = (c["rga_fail"], "count")
        out["pipeline.rga_min_cand"] = (self.rga_min_cand or 0, "count")
        timed("pipeline.complete_with_buffers")
        out["pipeline.complete_with_buffers.self_s"] = (
            t.self_time("pipeline.complete_with_buffers"), "s")
        out["pipeline.complete_with_buffers.fail"] = (c["completion_fail"], "count")
        timed("spread.FBInstance")
        timed("spread.sample_spread_matching")
        calls = t.calls("spread.sample_spread_matching")
        out["spread.sample_spread_matching.draws"] = (c["draws"], "count")
        out["spread.draws_per_matching"] = (c["draws"] / calls if calls else 0.0, "ratio")
        timed("spread.sample_coupled")
        timed("spread.canonical_matching")
        timed("matching.hall_check")
        containment_calls = {}
        for case in CASES:
            timed(f"robustness.contains_spanning.{case}")
            containment_calls[case] = t.calls(f"robustness.contains_spanning.{case}")
        out["robustness.contains_nodes"] = (c["contains_nodes"], "count")
        out["robustness.gp_build.s"] = (t.self_time("robustness.threshold_scan"), "s")
        timed("networkx.max_weight_matching")
        blossoms = t.calls("networkx.max_weight_matching")
        matching_calls = containment_calls["matching"]
        out["scan.blossom_share"] = (blossoms / matching_calls if matching_calls else 0.0,
                                     "ratio")
        for size in ("atlas",) + tuple(f"n{n}" for n in M1Part.SIZES):
            name = f"density.max_one_density.{size}"
            out[f"{name}.ms_p50"] = (t.p50_ms(name), "ms")
        out["density.flow_components"] = (c["flow_components"], "count")
        return out
