"""The benchmark's workloads: seeded inputs, timed units, output checks.

A workload is two parts, each one traffic of the toolkit.  Each part
builds every input of its unit from the run seed in ``setup``: graphs,
instances and trial seeds.  The harness runs one unit of every part as a
batch and repeats the batch until the run's time is up; the first unit's
outputs give the exact statistics (and, in the traced run, the exact
per-layer counts), and every later unit must reproduce them.  A unit
samples enough inputs that its cost hardly depends on the seed.

Checks are written here, independently of the library, and run outside
the timed region.  A part drives the library only through its public
module functions, looked up on the module at call time so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
import random
import statistics
import time
import zlib
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np

from spanembed.errors import GenerationFailedError, PartitionFailedError
from spanembed.graphs import Graph, complete_graph, is_valid_embedding

pipeline = importlib.import_module("spanembed.pipeline")
robustness = importlib.import_module("spanembed.robustness")
spread = importlib.import_module("spanembed.spread")
# ``spanembed.density`` is shadowed by the re-exported regularity.density function
density = importlib.import_module("spanembed.density")

BLOSSOM = nx.max_weight_matching     # the untraced original, for the checks

# exact statistics of the first unit, by workload; unit per name
EXACT_STATS = {
    "pipeline_fail_frac": "ratio", "pipeline_spread_nmax": "scaled",
    "spread_fail_frac": "ratio", "spread_lam_maxfreq": "scaled",
    "scan_timeout_frac": "ratio",
}


def derive(seed: int, *keys) -> int:
    """A 63-bit seed for ``keys`` under the run seed."""
    words = [seed] + [zlib.crc32(str(k).encode()) for k in keys]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0]) >> 1


class Part:
    """One traffic of a workload: ``setup`` builds inputs, ``run_unit`` is the timed unit.

    The unit is the same work on every repetition: its inputs are fixed
    in ``setup``, so repetitions differ only in how fast the machine ran
    them, and their outputs must be identical.
    """

    name = ""
    ops_metric = ""      # the part's throughput by name, at its median unit
    pieces = 1           # equal shares of the unit, each timed on its own

    def __init__(self, seed: int):
        self.seed = seed
        self.piece_s: list[float] = []      # run_unit appends one time per piece

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> list[str]:
        """Untimed, before the first timed unit: one message per failed check."""
        self.run_unit()
        return []

    def run_unit(self) -> tuple[int, object]:
        """Timed: returns (operations attempted, outputs); records each piece's time."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Untimed: one message per failed output check."""
        return []

    def stats(self, out) -> dict[str, tuple[float, str]]:
        """Exact statistics of one unit's outputs."""
        return {}

    def trace_checks(self, layers, out) -> list[str]:
        """Checks on what the traced run's hooks saw, against the traced outputs."""
        return []

    def rates(self, ops: int, unit_s: list[float]) -> dict[str, tuple[float, str]]:
        """Throughput by name at the median of the last timed units, ``unit_s``."""
        return {self.ops_metric: (ops / statistics.median(unit_s), "1/s")}


# -- pipeline: RGA plus buffer completion (criterion-6 traffic) ----------


class PipelinePart(Part):
    """k3 reduced graph with R'=R, m=100, d=0.5, triangle factor, alpha=mu=0.25, C=8."""

    name = "pipeline"
    ops_metric = "pipeline_trials_per_s"
    M, D, ALPHA, MU, C = 100, 0.5, 0.25, 0.25, 8
    PROBES = 50
    TRIALS = 1000            # the estimator's minimum
    pieces = 10              # of TRIALS / pieces consecutive trials each
    WARM_UP = 10             # trials replayed through run_pipeline_once and checked

    def setup(self):
        k3 = complete_graph(3)
        h = robustness.clique_factor_pattern(3 * self.M, 3)
        # inputs are redrawn deterministically if a seed gives an unusable host
        for attempt in range(10):
            try:
                host = pipeline.generate_regular_host(
                    k3, k3, m=self.M, d=self.D, seed=derive(self.seed, "host", attempt))
                pattern = pipeline.partition_pattern(
                    h, host, None, alpha=self.ALPHA, seed=derive(self.seed, "pattern", attempt))
                break
            except (GenerationFailedError, PartitionFailedError):
                continue
        else:
            raise RuntimeError("no usable pipeline host in 10 draws")
        host.adj_bool()
        host.cluster_bool()
        self.host, self.pattern = host, pattern
        self.cfg = pipeline.RGAConfig(mu=self.MU)
        self.probes = self._probe_set(random.Random(derive(self.seed, "probes")))
        self.trial_seed = derive(self.seed, self.name, "trials")

    def _probe_set(self, rng):
        """Every (extreme buffer vertex, extreme cluster slot) pair, then seeded pairs.

        The index-order canonical matching concentrates on the extreme
        pairs, so the set always includes them.
        """
        host, pattern = self.host, self.pattern
        probes = set()
        for i, cl in enumerate(host.clusters):
            buf = pattern.buffers[i]
            probes |= {(x, v) for x in (buf[0], buf[-1]) for v in (cl[0], cl[-1])}
        while len(probes) < self.PROBES:
            i = rng.randrange(host.r)
            probes.add((rng.choice(pattern.parts[i]), rng.choice(host.clusters[i])))
        return sorted(probes)

    def warm_up(self):
        """A few trials through ``run_pipeline_once``, each embedding checked."""
        bad = []
        for i in range(self.WARM_UP):
            trial = pipeline.run_pipeline_once(self.host, self.pattern, self.cfg, self.C,
                                               self.trial_seed ^ i)
            if trial.ok:
                bad += check_embedding(self.host, self.pattern, trial.phi,
                                       f"pipeline trial {i}")
        return bad

    def run_unit(self):
        # the estimator runs its trials through the module's run_pipeline_once;
        # a wrapper marks the start of every piece (about 1 us per 10 ms trial)
        once = pipeline.run_pipeline_once
        per_piece = self.TRIALS // self.pieces
        marks: list[float] = []

        def marked(*args, **kwargs):
            if len(marks) * per_piece == marked.calls:
                marks.append(time.perf_counter())
            marked.calls += 1
            return once(*args, **kwargs)

        marked.calls = 0
        pipeline.run_pipeline_once = marked
        try:
            report = pipeline.estimate_vertex_spread(
                self.host, self.pattern, self.cfg, self.C, self.probes,
                trials=self.TRIALS, seed=self.trial_seed)
        finally:
            pipeline.run_pipeline_once = once
        marks.append(time.perf_counter())
        self.piece_s += [end - start for start, end in zip(marks, marks[1:])]
        return self.TRIALS, report

    def check(self, report):
        bad = []
        if report.trials != self.TRIALS or not 0 < report.successes <= report.trials:
            bad.append(f"pipeline: {report.successes}/{report.trials} successes")
        if any(not 0 <= e.hits <= report.successes for e in report.estimates):
            bad.append("pipeline: a probe count exceeds the successes")
        return bad

    def stats(self, report):
        hits = max(e.hits for e in report.estimates)
        return {
            "pipeline_fail_frac": (1 - report.successes / report.trials, "ratio"),
            "pipeline_spread_nmax": (self.host.g.n * hits / report.successes, "scaled"),
        }

    def trace_checks(self, layers, report):
        """Probe counts recomputed from every embedding the traced run saw."""
        hits = [0] * len(self.probes)
        for phi in layers.embeddings:
            for k, (x, v) in enumerate(self.probes):
                hits[k] += phi[x] == v
        want = [e.hits for e in report.estimates]
        if hits != want or len(layers.embeddings) != report.successes:
            return ["pipeline: probe counts disagree with the traced embeddings"]
        return []


def check_embedding(host, pattern, phi, where) -> list[str]:
    """A pipeline embedding is valid and keeps every vertex in its cluster."""
    h = pattern.h
    if not is_valid_embedding(h, host.g, phi):
        return [f"{where}: not a valid embedding"]
    if any(host.cluster_of[phi[x]] != pattern.part_of[x] for x in range(h.n)):
        return [f"{where}: a vertex left its cluster"]
    return []


# -- spread: spread matchings on FB instances (criterion-5 traffic) -------


class SpreadPart(Part):
    """FB-compliant instances at lam 10/20/40, p=0.8, plus a lam=40, C=1 slice."""

    name = "spread"
    ops_metric = "spread_matchings_per_s"
    # (lam, C, calls per unit); the last slice fails Hall on most first draws
    SLICES = ((10, 8, 600), (20, 10, 600), (40, 10, 600), (40, 1, 120))
    MAIN = 3                 # slices that enter the exact spread statistic
    P_EDGE = 0.8
    MAX_RESAMPLES = 4
    pieces = 10              # each takes a tenth of every slice's calls

    def setup(self):
        params = spread.FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
        self.instances = {}
        for lam in sorted({lam for lam, _, _ in self.SLICES}):
            for attempt in range(1000):
                rng = random.Random(derive(self.seed, "fb", lam, attempt))
                edges = [(a, b) for a in range(lam) for b in range(lam)
                         if rng.random() < self.P_EDGE]
                f = spread.FBInstance(lam, edges, params)
                if spread.check_fb_conditions(f, seed=derive(self.seed, "fb3", lam)).all_ok:
                    break
            else:
                raise RuntimeError(f"no FB-compliant instance at lam={lam}")
            self.instances[lam] = f
        self.call_seeds = [[derive(self.seed, self.name, k, i) for i in range(calls)]
                           for k, (_, _, calls) in enumerate(self.SLICES)]

    def run_unit(self):
        out = [[] for _ in self.SLICES]
        for piece in range(self.pieces):
            start = time.perf_counter()
            for draws, (lam, c, calls), seeds in zip(out, self.SLICES, self.call_seeds):
                f = self.instances[lam]
                step = calls // self.pieces
                draws += [spread.sample_spread_matching(f, c, self.MAX_RESAMPLES, s)
                          for s in seeds[piece * step:(piece + 1) * step]]
            self.piece_s.append(time.perf_counter() - start)
        return sum(calls for _, _, calls in self.SLICES), out

    def check(self, out):
        bad = []
        for (lam, c, _), draws in zip(self.SLICES, out):
            f = self.instances[lam]
            for draw in draws:
                if draw.ok:
                    if not is_perfect_matching_in(draw.matching, f):
                        bad.append(f"spread: lam={lam} C={c} matching is not "
                                   f"a perfect matching of F")
                elif draw.draws != self.MAX_RESAMPLES + 1 or not draw.hall_witness:
                    bad.append(f"spread: lam={lam} C={c} failed without "
                               f"exhausting resamples or without a Hall witness")
        return bad

    def stats(self, out):
        attempted = failed = 0
        worst = 0.0
        for k, (lam, _, _) in enumerate(self.SLICES):
            counts: dict = {}
            successes = 0
            for draw in out[k]:
                attempted += 1
                if not draw.ok:
                    failed += 1
                    continue
                successes += 1
                for e in draw.matching:
                    counts[e] = counts.get(e, 0) + 1
            if k < self.MAIN:
                worst = max(worst, lam * max(counts.values()) / successes)
        return {
            "spread_fail_frac": (failed / attempted, "ratio"),
            "spread_lam_maxfreq": (worst, "scaled"),
        }


def is_perfect_matching_in(matching, f) -> bool:
    a_ends = {a for a, _ in matching}
    b_ends = {b for _, b in matching}
    return (len(matching) == f.lam == len(a_ends) == len(b_ends)
            and all(e in f.edges for e in matching))


# -- scan: coupled threshold scans (criterion 8 and Theorem 9.1 traffic) ---


class ScanPart(Part):
    """Matching, triangle-factor and clique-mixture slices through the scan layer."""

    name = "scan"
    ops_metric = "scan_trials_per_s"
    N_MATCH, GRID_POINTS = 100, 10
    TRI_N, TRI_DEGREE, TRI_GRID = 30, 20, (0.4, 0.5, 0.6, 0.8)
    MIX_N, MIX_GAMMA = 12, 0.2
    # trials per unit: the matching slice runs MATCH_SCANS scans of MATCH_TRIALS
    # trials, the first of which networkx replays; the triangle slice runs one
    # trial on each of TRI_HOSTS seeded hosts; the mixture slice runs one
    # scan_thm91_grid call of MIX_TRIALS trials per piece
    MATCH_SCANS, MATCH_TRIALS, TRI_HOSTS, MIX_TRIALS = 12, 8, 48, 30
    pieces = 4               # each takes a quarter of the scans of every slice
    # node budget of the searching slices: the cost of a triangle-factor search
    # near its threshold is heavy-tailed across hosts (the slowest 5% of
    # searches took two thirds of the time at 1e5 nodes), so a search past
    # this budget ends as a TIMEOUT verdict, counted in scan_timeout_frac
    SEARCH_BUDGET = 2_000

    def setup(self):
        n = self.N_MATCH
        lo, hi = 0.2 * math.log(n) / n, 4 * math.log(n) / n
        k = self.GRID_POINTS
        self.match_grid = tuple(lo * (hi / lo) ** (i / (k - 1)) for i in range(k)) + (1.0,)
        self.match_host = robustness.dirac_overlap_host(n)
        self.match_pattern = robustness.perfect_matching_pattern(n)
        self.tri_pattern = robustness.clique_factor_pattern(self.TRI_N, 3)
        self.tri_hosts = [robustness.random_min_degree_host(
            self.TRI_N, self.TRI_DEGREE, derive(self.seed, "tri-host", k))
            for k in range(self.TRI_HOSTS)]
        self.match_seeds = [derive(self.seed, self.name, "match", k)
                            for k in range(self.MATCH_SCANS)]
        self.tri_seeds = [derive(self.seed, self.name, "tri", k) for k in range(self.TRI_HOSTS)]
        self.mix_seeds = [derive(self.seed, self.name, "mix", k) for k in range(self.pieces)]

    def run_unit(self):
        match, tri, mix = [], [], []
        m, t = self.MATCH_SCANS // self.pieces, self.TRI_HOSTS // self.pieces
        for piece in range(self.pieces):
            start = time.perf_counter()
            for seed in self.match_seeds[piece * m:(piece + 1) * m]:
                match.append(robustness.threshold_scan(robustness.ThresholdScan(
                    self.match_host, self.match_pattern, self.match_grid, self.MATCH_TRIALS,
                    seed)))
            for k in range(piece * t, (piece + 1) * t):
                tri.append(robustness.threshold_scan(robustness.ThresholdScan(
                    self.tri_hosts[k], self.tri_pattern, self.TRI_GRID, 1, self.tri_seeds[k],
                    self.SEARCH_BUDGET)))
            mix.append(robustness.scan_thm91_grid(
                2, self.MIX_N, self.MIX_GAMMA, self.mix_seeds[piece], trials=self.MIX_TRIALS,
                budget=self.SEARCH_BUDGET)["rows"])
            self.piece_s.append(time.perf_counter() - start)
        trials = (self.MATCH_SCANS * self.MATCH_TRIALS + self.TRI_HOSTS
                  + self.pieces * self.MIX_TRIALS)
        return trials, match + tri + mix

    def check(self, out):
        bad = []
        for rows in out:
            for row in rows:
                if row.successes < 0 or row.successes + row.timeouts > row.trials:
                    bad.append(f"scan: row {row.kind}@{row.p} counts out of range")
            for lo, hi in zip(rows, rows[1:]):
                if (lo.kind == hi.kind and not lo.timeouts and not hi.timeouts
                        and hi.successes < lo.successes):
                    bad.append(f"scan: {lo.kind} not monotone in p")
        for match in out[:self.MATCH_SCANS]:
            if match[-1].successes != match[-1].trials:
                bad.append("scan: the host lost its perfect matching at p=1")
        if [r.successes for r in out[0]] != self._matching_oracle(self.match_seeds[0]):
            bad.append("scan: matching-slice counts disagree with networkx")
        return bad

    def _matching_oracle(self, scan_seed):
        """Matching-slice successes per grid point, replayed with networkx.

        The scan's seed contract: trial t draws one uniform per sorted
        host edge from the generator seeded with ``seed XOR t``.
        """
        edges = self.match_host.sorted_edges()
        need = self.N_MATCH // 2
        counts = [0] * len(self.match_grid)
        for t in range(self.MATCH_TRIALS):
            u = np.random.default_rng(scan_seed ^ t).random(len(edges))
            for gi, p in enumerate(self.match_grid):
                g = nx.Graph()
                g.add_nodes_from(range(self.N_MATCH))
                g.add_edges_from(e for e, x in zip(edges, u) if x < p)
                counts[gi] += len(BLOSSOM(g, maxcardinality=True)) == need
        return counts

    def stats(self, out):
        calls = sum(r.trials for rows in out for r in rows)
        timeouts = sum(r.timeouts for rows in out for r in rows)
        return {"scan_timeout_frac": (timeouts / calls, "ratio")}


# -- m1: exact maximum 1-density (criteria 1 and 2 traffic) ---------------


class M1Part(Part):
    """Every connected atlas graph, and seeded max-degree-4 graphs at n=16..40.

    The atlas, relabelled by the seed, measures per-call overhead on the
    exhaustive path.  The ladder takes ``PER_SIZE`` seeded graphs of every
    size, on both sides of ``EXHAUSTIVE_LIMIT``: the exhaustive path
    against the flow path.
    """

    name = "m1"
    ops_metric = ""
    SIZES = (16, 20, 25, 40)
    PER_SIZE = 3
    pieces = PER_SIZE        # each takes two atlas passes and one graph of every size
    # the atlas is repeated so that it takes about a sixth of the unit
    ATLAS_PASSES = 6

    def setup(self):
        rng = random.Random(derive(self.seed, "relabel"))
        self.atlas = []
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n < 2 or not nx.is_connected(g):
                continue
            perm = rng.sample(range(n), n)
            self.atlas.append(Graph(n, [(perm[u], perm[v]) for u, v in g.edges()]))
        # 2n-1 edges: an integer m1 of 2 would end the flow path's bisection
        # early, and the parity of the edge count would swing a graph's cost 6x
        self.ladder = [[bounded_degree_connected(n, 4, 2 * n - 1,
                                                 derive(self.seed, "ladder", n, j))
                        for n in self.SIZES] for j in range(self.PER_SIZE)]
        self.split_s: list[tuple[float, float]] = []    # (atlas, ladder) seconds per piece

    def run_unit(self):
        atlas, ladder = [], []
        for graphs in self.ladder:
            start = time.perf_counter()
            atlas += [[density.max_one_density(g) for g in self.atlas]
                      for _ in range(self.ATLAS_PASSES // self.pieces)]
            middle = time.perf_counter()
            ladder += [density.max_one_density(g) for g in graphs]
            end = time.perf_counter()
            self.split_s.append((middle - start, end - middle))
            self.piece_s.append(end - start)
        return self.ATLAS_PASSES * len(self.atlas) + len(ladder), (atlas, ladder)

    def check(self, out):
        atlas, ladder = out
        bad = [f"m1: atlas pass {k} differs from the first"
               for k in range(1, len(atlas)) if atlas[k] != atlas[0]]
        for g, (value, witness) in zip(self.atlas, atlas[0]):
            if value != subset_scan_m1(g) or not attains(g, witness, value):
                bad.append(f"m1 atlas: wrong value or witness on {sorted(g.edges)}")
        for g, (value, witness) in zip((g for graphs in self.ladder for g in graphs), ladder):
            if value < Fraction(g.num_edges(), g.n - 1) or not attains(g, witness, value):
                bad.append(f"m1 ladder: n={g.n} value {value} not attained by its witness")
        return bad

    def rates(self, ops, unit_s):
        """Atlas and ladder throughput apart, each at its median over the pieces."""
        timed = self.split_s[-self.pieces * len(unit_s):]
        atlas_s = statistics.median(a for a, _ in timed)
        ladder_s = statistics.median(b for _, b in timed)
        return {
            "m1_atlas_graphs_per_s": (self.ATLAS_PASSES // self.pieces * len(self.atlas)
                                      / atlas_s, "1/s"),
            "m1_ladder_graphs_per_s": (len(self.SIZES) / ladder_s, "1/s"),
        }


def bounded_degree_connected(n: int, max_degree: int, m: int, seed: int) -> Graph:
    """Random connected graph with exactly ``m`` edges under a degree cap.

    Edges are taken in seeded order while both ends have room; a draw
    that ends short of ``m`` edges or disconnected is redrawn.
    """
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    while True:
        rng.shuffle(pairs)
        deg = [0] * n
        edges = []
        for u, v in pairs:
            if deg[u] < max_degree and deg[v] < max_degree:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
                if len(edges) == m:
                    break
        g = Graph(n, edges)
        if len(edges) == m and len(g.connected_components()) == 1:
            return g


def edges_within(g: Graph, vertices) -> int:
    mask = sum(1 << v for v in vertices)
    return sum((g.adj[v] & mask).bit_count() for v in vertices) // 2


def attains(g: Graph, witness, value: Fraction) -> bool:
    w = set(witness)
    return len(w) >= 2 and Fraction(edges_within(g, w), len(w) - 1) == value


def subset_scan_m1(g: Graph) -> Fraction:
    """Maximum of e(S)/(|S|-1) over every vertex subset with two or more vertices."""
    best_e, best_d = 0, 1
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        if size >= 2:
            e = sum((g.adj[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1) // 2
            if e * best_d > best_e * (size - 1):
                best_e, best_d = e, size - 1
    return Fraction(best_e, best_d)


# each workload runs one unit of each of its parts per batch; the parts of
# one workload bypass the mechanisms that the other workload's parts exercise
WORKLOADS = {
    "pipeline_scan": (PipelinePart, ScanPart),
    "spread_m1": (SpreadPart, M1Part),
}

# every part's throughput by name; the traced run reports 0 for absent parts
RATES = ("pipeline_trials_per_s", "scan_trials_per_s", "spread_matchings_per_s",
         "m1_atlas_graphs_per_s", "m1_ladder_graphs_per_s")
