"""End-to-end random-greedy + buffer-matching embedding pipeline.

The pipeline embeds a bounded-degree pattern H into a partitioned host
G in two stages.  First a random greedy stage embeds the main vertices
one by one, each uniformly at random into its candidate set (unused
cluster vertices adjacent to all images of earlier H-neighbours),
failing if a candidate set drops below mu/10 of the cluster.  Then the
reserved buffer vertices are completed per part via spread perfect
matchings of the bipartite candidate graphs, so that the resulting
distribution over embeddings spreads no vertex pair above O(1/n).

Hosts are generated synthetically rather than extracted from a
regularity partition: reduced-graph node i blows up to the cluster of
m vertices [i m, (i+1) m), cross-pairs get independent edges
(probability 2d on super-regular pairs, d on merely regular ones), and
the construction is re-verified with the regularity checkers before
use.  The blow-up R* of R on which the pattern is partitioned numbers
its slots the same way, so a slot of R* is a host vertex.  Synthetic
hosts have no exceptional vertices, so no pattern vertex has its images
restricted to a subset of its cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EstimateUnreliableError,
    InfeasibleParametersError,
    InternalInvariantError,
    InvalidArgumentError,
    GenerationFailedError,
    PartitionFailedError,
)
from .graphs import Graph, bits, blow_up, clique_component_size
from .partition import closed_second_neighborhood, distance_power_graph, equitable_coloring
from .regularity import CERTIFIED, RegPairParams, check_regular_pair, check_super_regular_pair
from .seeds import (block_integers, check_seed, count_trials, fresh_seed, np_rng, py_rng,
                    trial_draws)
from .spread import FBInstance, FBParams, SpreadEstimate, sample_spread_matching
from .switching import PartialEmbedding, switching_embed

HOST_ATTEMPTS = 10          # host draws before generation gives up
SWITCH_ATTEMPTS = 20        # switching-embedder runs per pattern partition
MAX_RESAMPLES = 8           # coupled-sampler redraws per buffer part
RHO_RATIO = 0.4             # F_i's rho as a fraction of mu
MIN_SUCCESS_RATE = 0.1      # success share below which spread estimates are refused

# -- partitioned host --------------------------------------------------


@dataclass(frozen=True)
class HostParams:
    eps: float
    d: float


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PartitionedHost:
    """Host graph G, reduced graph R and super-regular factor R'.

    Node i of R owns the vertex block V_i = [i m, (i+1) m) of G, where
    m = |V(G)| / |V(R)|: the slot layout of the blow-up R* of R, so a
    host vertex and its R*-slot share one index.  ``cluster_of[v]`` and
    ``cluster_index[v]`` are v // m.
    """

    __slots__ = ("g", "m", "clusters", "r_graph", "rprime", "params",
                 "cluster_of", "cluster_index", "_cluster_adj")

    def __init__(self, g: Graph, r_graph: Graph, rprime: Graph, params: HostParams):
        if rprime.n != r_graph.n or not rprime.edges <= r_graph.edges:
            raise InvalidArgumentError("R' must be a spanning subgraph of R")
        r = r_graph.n
        if r == 0 or g.n == 0 or g.n % r:
            raise InvalidArgumentError(
                f"host vertex count {g.n} is not a positive multiple of r = {r}")
        m = self.m = g.n // r
        self.g = g
        self.clusters = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(r))
        self.r_graph = r_graph
        self.rprime = rprime
        self.params = params
        self.cluster_index = _frozen(np.arange(g.n, dtype=np.intp) // m)
        self.cluster_of = tuple(self.cluster_index.tolist())
        self._cluster_adj = None

    @property
    def r(self) -> int:
        return self.r_graph.n

    def adj_bool(self) -> np.ndarray:
        return self.g.adjacency_matrix()

    def cluster_bool(self) -> np.ndarray:
        """r x n membership matrix: row i marks the vertices of V_i."""
        return self.cluster_index == np.arange(self.r)[:, None]

    def cluster_adj(self) -> tuple[np.ndarray, ...]:
        """Per cluster i, the host columns ``adj[:, V_i]`` as read-only views (cached)."""
        if self._cluster_adj is None:
            adj, m = self.adj_bool(), self.m
            self._cluster_adj = tuple(_frozen(adj[:, i * m:(i + 1) * m]) for i in range(self.r))
        return self._cluster_adj

    def __repr__(self):
        return f"PartitionedHost(n={self.g.n}, r={self.r}, m={self.m})"


def check_cluster_size(m: int) -> int:
    """``m`` itself if clusters of m vertices are large enough to verify (m >= 20)."""
    if m < 20:
        raise InvalidArgumentError(f"cluster size must be at least 20, got {m}")
    return m


def check_density(d: float) -> float:
    """``d`` itself if it lies in (0, 0.5], so that 2d is a probability."""
    if not 0 < d <= 0.5:
        raise InvalidArgumentError(f"need 0 < d <= 0.5 so 2d is a probability, got {d}")
    return d


def generate_regular_host(r_graph: Graph, rprime: Graph, m: int, d: float,
                          seed: int) -> PartitionedHost:
    """Blow up R to clusters of size m with verified (eps,d)-regular pairs.

    Cross-edges appear independently with probability 2d on R'-pairs and
    d on the remaining R-pairs, giving super-regular pairs generous
    degree slack.  Every pair must then be certified at eps = 4/sqrt(m):
    per-vertex minimum degree (d - eps) m on R'-pairs and the spectral
    regularity certificate on all R-pairs.  A pair drawn at edge
    probability 1 always certifies; at 0.6 the certificate's reach ends
    near m = 250.  Failed attempts resample with a fresh child seed, up
    to HOST_ATTEMPTS times.
    """
    check_cluster_size(m)
    check_density(d)
    check_seed(seed)
    r = r_graph.n
    n = r * m
    eps = 4.0 / math.sqrt(m)
    params = RegPairParams(eps, d)
    master = py_rng(seed)

    for _ in range(HOST_ATTEMPTS):
        rng = np_rng(fresh_seed(master))
        mat = np.zeros((n, n), dtype=bool)
        for i, j in sorted(r_graph.edges):
            p = 2 * d if (i, j) in rprime.edges else d
            block = rng.random((m, m)) < p
            mat[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
            mat[j * m:(j + 1) * m, i * m:(i + 1) * m] = block.T
        host = PartitionedHost(Graph(n, mat), r_graph, rprime, HostParams(eps, d))
        for i, j in sorted(r_graph.edges):
            check = check_super_regular_pair if (i, j) in rprime.edges else check_regular_pair
            verdict = check(host.g, host.clusters[i], host.clusters[j], params)
            if verdict.kind != CERTIFIED:
                break
        else:
            return host
    raise GenerationFailedError(
        f"host verification failed in {HOST_ATTEMPTS} attempts: pair ({i},{j}) "
        f"{verdict.kind}, {verdict.detail}", witness=(verdict.witness_a, verdict.witness_b))


# -- partitioned pattern -----------------------------------------------


@dataclass(frozen=True)
class PatternParams:
    alpha: float
    delta: int


class PartitionedPattern:
    """Pattern H with parts X_i and potential buffers.

    ``nbrs[x]`` lists the H-neighbours of x in ascending order;
    ``part_index`` is ``part_of`` as an array, and ``edge_array`` holds
    the edges of H in sorted order, one per row; both are read-only.
    """

    __slots__ = ("h", "parts", "buffers", "params", "part_of", "part_index", "nbrs",
                 "edge_array")

    def __init__(self, h: Graph, parts: Sequence[Sequence[int]],
                 buffers: Sequence[Sequence[int]], params: PatternParams):
        self.h = h
        self.parts = tuple(tuple(sorted(p)) for p in parts)
        self.buffers = tuple(tuple(sorted(b)) for b in buffers)
        self.params = params
        part_of = [-1] * h.n
        for i, part in enumerate(self.parts):
            for x in part:
                part_of[x] = i
        self.part_of = tuple(part_of)
        self.part_index = _frozen(np.array(part_of, dtype=np.intp))
        self.nbrs = tuple(bits(mask) for mask in h.adj)
        self.edge_array = _frozen(np.array(h.sorted_edges(), dtype=np.intp).reshape(-1, 2))

    def validate(self, host: PartitionedHost) -> None:
        h, r_graph, rprime = self.h, host.r_graph, host.rprime
        if len(self.parts) != host.r or len(self.buffers) != host.r:
            raise InternalInvariantError("pattern parts must align with host clusters")
        covered = set()
        for i, part in enumerate(self.parts):
            if len(part) != host.m:
                raise InternalInvariantError(f"|X_{i}| = {len(part)} != |V_{i}| = {host.m}")
            covered |= set(part)
        if covered != set(range(h.n)):
            raise InternalInvariantError("parts do not partition the pattern vertices")
        for x, y in h.edges:
            i, j = self.part_of[x], self.part_of[y]
            if i == j or not r_graph.has_edge(i, j):
                raise InternalInvariantError(
                    f"H-edge ({x},{y}) crosses parts ({i},{j}) outside E(R)")
        for i, buf in enumerate(self.buffers):
            if not set(buf) <= set(self.parts[i]):
                raise InternalInvariantError(f"buffer {i} not inside its part")
            if len(buf) < self.params.alpha * len(self.parts[i]) - 1e-9:
                raise InternalInvariantError(f"buffer {i} below the alpha fraction")
            for x in buf:
                for y in bits(h.adj[x]):
                    j = self.part_of[y]
                    if not rprime.has_edge(i, j):
                        raise InternalInvariantError(
                            f"buffer vertex {x}: edge into part {j} leaves R'")
                    for z in bits(h.adj[y]):
                        if z == x:
                            continue
                        k = self.part_of[z]
                        if not rprime.has_edge(j, k):
                            raise InternalInvariantError(
                                f"buffer vertex {x}: second neighbourhood leaves R'")

    def __repr__(self):
        return f"PartitionedPattern(n={self.h.n}, r={len(self.parts)})"


def partition_pattern(h: Graph, host: PartitionedHost, xstar: dict | None,
                      alpha: float, seed: int) -> PartitionedPattern:
    """Partition H compatibly with the host and reserve buffer vertices.

    Three steps.  I: pick pairwise far-apart potential buffer vertices
    (an independent set of the distance-5 power of H, equitably
    coloured) and earmark ceil(alpha |V_i|) of them per part.  II: for
    each buffer vertex, equitably colour its closed second
    neighbourhood and pin those vertices to the parts of the R'-clique
    containing the buffer's part, so buffer neighbourhoods run along
    R'.  III: extend this partial placement to a bijection V(H) ->
    V(R*) with the switching embedder on the blow-up R* of R; the
    preimages of the blown-up parts are the X_i.

    ``xstar`` must be None or empty: no part of H is placed in advance.
    """
    if not (xstar is None or xstar == {}):
        raise InvalidArgumentError(f"pre-placed parts are not supported, got {xstar!r}")
    if h.n != host.g.n:
        raise InvalidArgumentError("pattern and host must have the same vertex count")
    if not 0 < alpha < 1:
        raise InvalidArgumentError(f"alpha must lie in (0,1), got {alpha}")
    delta = max(1, h.max_degree())
    if clique_component_size(host.rprime) is None:
        raise InvalidArgumentError("R' components must be cliques of equal size")
    cliques = host.rprime.connected_components()
    if any(len(c) < delta + 1 for c in cliques):
        raise InfeasibleParametersError(
            f"R' cliques must have at least delta+1 = {delta + 1} nodes")
    clique_of = {}
    for comp in cliques:
        for node in comp:
            clique_of[node] = comp

    master = py_rng(seed)

    # Step I: far-apart potential buffer vertices
    power = distance_power_graph(h, 5)
    coloring = equitable_coloring(power, power.max_degree() + 1)
    b0 = sorted(max(coloring.parts, key=lambda p: (len(p), -min(p) if p else 0)))
    needs = [int(-(-alpha * host.m // 1))] * host.r
    if sum(needs) > len(b0):
        raise InfeasibleParametersError(
            f"need {sum(needs)} buffer candidates, independent set has {len(b0)}")
    buffers = []
    at = 0
    for need in needs:
        buffers.append(tuple(b0[at:at + need]))
        at += need

    # Step II: pin second neighbourhoods of buffers along R'-cliques
    slots = {i: list(host.clusters[i]) for i in range(host.r)}
    placed: dict[int, int] = {}
    for i in range(host.r):
        comp = clique_of[i]
        ell = len(comp)
        for x in buffers[i]:
            ball = list(closed_second_neighborhood(h, x))
            hx = h.induced(ball)
            classes = equitable_coloring(hx, ell).parts
            classes = sorted((tuple(ball[v] for v in cls) for cls in classes if cls),
                             key=min)
            own = next(c for c in classes if x in c)
            rest = [c for c in classes if c is not own]
            targets = [i] + [node for node in comp if node != i]
            for cls, node in zip([own] + rest, targets):
                for y in sorted(cls):
                    if y in placed:
                        raise InternalInvariantError("buffer neighbourhoods overlap")
                    if not slots[node]:
                        raise InfeasibleParametersError(
                            f"cluster {node} ran out of slots while pinning buffers")
                    placed[y] = slots[node].pop(0)

    # Step III: extend to all of H on the blow-up of R, whose slots are host vertices
    rstar = blow_up(host.r_graph, [host.m] * host.r)
    phi_s = PartialEmbedding.of(h, rstar, placed)
    for _ in range(SWITCH_ATTEMPTS):
        outcome = switching_embed(rstar, h, phi_s, fresh_seed(master))
        if outcome.ok:
            break
    else:
        raise PartitionFailedError(
            "switching embedder could not complete the pattern partition", trace=outcome.steps)

    parts: list[list[int]] = [[] for _ in range(host.r)]
    for x in range(h.n):
        parts[host.cluster_of[outcome.mapping[x]]].append(x)
    pattern = PartitionedPattern(h, parts, buffers, PatternParams(alpha, delta))
    pattern.validate(host)
    return pattern


# -- random greedy stage -----------------------------------------------


@dataclass(frozen=True)
class RGAConfig:
    mu: float = 0.25

    def __post_init__(self):
        if not 0 < self.mu < 1:
            raise InvalidArgumentError(f"mu must lie in (0,1), got {self.mu}")

    @property
    def floor_fraction(self) -> float:
        return self.mu / 10.0


@dataclass(frozen=True)
class RGAResult:
    ok: bool
    phi: dict[int, int]
    sizes: tuple[int, ...]
    buffer_sets: tuple[tuple[int, ...], ...]
    fail_index: int = -1


def rga_embed(host: PartitionedHost, pattern: PartitionedPattern,
              cfg: RGAConfig, seed: int) -> RGAResult:
    """Embed the main vertices greedily, uniformly within candidate sets.

    Buffer vertices (mu |X_i| per part, drawn from the potential buffer
    pool) are excluded and left for the matching stage.  Main vertices
    are processed round-robin across parts, ascending index within a
    part.  The candidate set of x is the unused part of its cluster,
    intersected with the host neighbourhoods of all previously embedded
    H-neighbours; the stage fails when that set is smaller than max(1, floor_fraction |V(x)|).
    """
    rng = np_rng(seed)

    buffer_sets = []
    for i, pool in enumerate(pattern.buffers):
        want = int(cfg.mu * len(pattern.parts[i]))
        if want > len(pool):
            raise InfeasibleParametersError(
                f"part {i}: mu|X_i| = {want} buffer vertices wanted, pool has {len(pool)}")
        pick = rng.choice(len(pool), size=want, replace=False) if want else []
        buffer_sets.append(tuple(sorted(pool[k] for k in pick)))
    excluded = set().union(*buffer_sets)

    queues = [[x for x in part if x not in excluded] for part in pattern.parts]
    order = [x for tier in zip_longest(*queues) for x in tier if x is not None]

    # per cluster: its vertices, its free slots and every host row restricted
    # to it; candidates are slot indices into the cluster
    clusters, cluster_adj = host.clusters, host.cluster_adj()
    free = [np.ones(host.m, dtype=bool) for _ in clusters]
    floor = max(1, int(cfg.floor_fraction * host.m))
    part_of, nbrs = pattern.part_of, pattern.nbrs

    # one pick per vertex, each equal to rng.integers(len(cands)); rng draws
    # nothing after this loop
    pick_slot = block_integers(rng, len(order))
    phi: dict[int, int] = {}
    sizes = []
    for t, x in enumerate(order):
        part = part_of[x]
        avail = free[part]
        rows = cluster_adj[part]
        for y in nbrs[x]:
            if y in phi:
                avail = avail & rows[phi[y]]
        cands = avail.nonzero()[0]
        k = len(cands)
        sizes.append(k)
        if k < floor:
            return RGAResult(False, phi, tuple(sizes), tuple(buffer_sets), fail_index=t)
        slot = cands[pick_slot(k)]
        phi[x] = clusters[part][slot]
        free[part][slot] = False
    return RGAResult(True, phi, tuple(sizes), tuple(buffer_sets))


# -- buffer completion stage -------------------------------------------


@dataclass(frozen=True)
class CompletionResult:
    ok: bool
    phi: dict[int, int]
    instances: tuple[FBInstance, ...]
    fail_part: int = -1
    hall_witness: tuple[int, ...] | None = None


def complete_with_buffers(host: PartitionedHost, pattern: PartitionedPattern,
                          rga: RGAResult, cfg: RGAConfig, c: int, seed: int) -> CompletionResult:
    """Finish an RGA embedding by matching buffers to leftover vertices.

    Per part, the candidate graph F_i joins each unembedded buffer
    vertex to the unused cluster vertices adjacent to all images of its
    embedded H-neighbours; a spread perfect matching of F_i assigns the
    images.  Fails
    with the part index and a Hall witness if some part admits no
    perfect matching within the resampling budget (a buffer vertex
    left without candidates is always in the witness).
    """
    if not rga.ok:
        raise InvalidArgumentError("cannot complete a failed greedy stage")
    adj = host.adj_bool()
    n, m = host.g.n, host.m
    used = np.zeros(n, dtype=bool)
    used[list(rga.phi.values())] = True
    master = py_rng(seed)

    phi = dict(rga.phi)
    instances = []
    delta = max(1, pattern.params.delta)
    for i in range(host.r):
        a_list = rga.buffer_sets[i]
        free = i * m + np.flatnonzero(~used[i * m:(i + 1) * m])
        if len(a_list) != len(free):
            raise InternalInvariantError(
                f"part {i}: {len(a_list)} buffers vs {len(free)} free vertices")
        lam = len(a_list)
        if lam == 0:
            continue
        images = []
        for x in a_list:
            try:
                images.append([phi[y] for y in pattern.nbrs[x]])
            except KeyError as missing:
                raise InternalInvariantError(f"buffer vertex {x} has an unembedded "
                                             f"neighbour {missing.args[0]}") from None
        # row a of F_i ANDs the host rows of a's neighbour images on the free
        # slots; image lists are padded with index n, an all-True row
        width = max(map(len, images))
        host_rows = np.ones((n + 1, lam), dtype=bool)
        host_rows[:n] = adj[:, free]
        padded = np.array([im + [n] * (width - len(im)) for im in images], dtype=np.intp)
        mat = host_rows[padded.reshape(lam, width)].all(axis=1)
        params = FBParams(d=host.params.d, b=max(1, min(width, delta)),
                          rho=RHO_RATIO * cfg.mu, mu=cfg.mu, delta=delta)
        f = FBInstance(lam, mat, params)
        instances.append(f)
        draw = sample_spread_matching(f, min(c, lam), MAX_RESAMPLES, fresh_seed(master))
        if not draw.ok:
            witness = tuple(a_list[a] for a in draw.hall_witness or ())
            return CompletionResult(False, phi, tuple(instances), i, witness)
        b_list = free.tolist()
        for ai, bi in draw.matching:
            phi[a_list[ai]] = b_list[bi]

    _validate_full_embedding(host, pattern, phi)
    return CompletionResult(True, phi, tuple(instances))


def _validate_full_embedding(host, pattern, phi) -> None:
    h = pattern.h
    if len(phi) != h.n or len(set(phi.values())) != h.n:
        raise InternalInvariantError("embedding is not a bijection")
    image = np.array([phi[x] for x in range(h.n)], dtype=np.intp)
    outside = np.flatnonzero(host.cluster_index[image] != pattern.part_index)
    if len(outside):
        raise InternalInvariantError(f"vertex {outside[0]} embedded outside its cluster")
    edges = pattern.edge_array
    missed = np.flatnonzero(~host.adj_bool()[image[edges[:, 0]], image[edges[:, 1]]])
    if len(missed):
        x, y = edges[missed[0]]
        raise InternalInvariantError(f"H-edge ({x},{y}) not mapped to a host edge")


# -- whole-pipeline runners --------------------------------------------


@dataclass(frozen=True)
class PipelineTrial:
    ok: bool
    phi: dict[int, int] | None
    rga_sizes: tuple[int, ...]
    fail_stage: str = ""


def run_pipeline_once(host: PartitionedHost, pattern: PartitionedPattern,
                      cfg: RGAConfig, c: int, seed: int) -> PipelineTrial:
    master = py_rng(seed)
    rga = rga_embed(host, pattern, cfg, fresh_seed(master))
    if not rga.ok:
        return PipelineTrial(False, None, rga.sizes, "rga")
    completion = complete_with_buffers(host, pattern, rga, cfg, c, fresh_seed(master))
    if not completion.ok:
        return PipelineTrial(False, None, rga.sizes, f"buffers[{completion.fail_part}]")
    return PipelineTrial(True, completion.phi, rga.sizes)


@dataclass(frozen=True)
class VertexSpreadReport:
    """Trial t's (fail_stage, smallest RGA candidate set) is ``outcomes[t]``;
    ``counts[x, s]`` (read-only, not compared) counts the successes that
    mapped x to slot s of its cluster."""
    probes: tuple[tuple[int, int], ...]
    estimates: tuple[SpreadEstimate, ...]
    trials: int
    successes: int
    outcomes: tuple[tuple[str, int], ...]
    counts: np.ndarray = field(compare=False, repr=False)


def estimate_vertex_spread(host: PartitionedHost, pattern: PartitionedPattern,
                           cfg: RGAConfig, c: int,
                           probes: Sequence[tuple[int, int]],
                           trials: int, seed: int) -> VertexSpreadReport:
    """Empirical P(phi(x) = v) for every pair, over success-conditioned pipeline runs.

    One (n, m) int32 matrix counts every success; each probe is read off
    it, 0 for a v outside x's cluster.  Requires at least 10^3 trials and
    probes in [0, n); raises EstimateUnreliableError, naming the failures
    per stage, when fewer than MIN_SUCCESS_RATE of them give an embedding.
    """
    if trials < 1000:
        raise InvalidArgumentError(f"need at least 1000 trials, got {trials}")
    n, m = host.g.n, host.m
    probes = tuple(probes)
    for x, v in probes:
        if not (0 <= x < n and 0 <= v < n):
            raise InvalidArgumentError(f"probe ({x}, {v}) has a vertex outside [0, {n})")
    counts, rows, outcomes = np.zeros((n, m), np.int32), np.arange(n), []
    for trial in trial_draws(
            lambda trial_seed: run_pipeline_once(host, pattern, cfg, c, trial_seed), trials, seed):
        outcomes.append((trial.fail_stage, min(trial.rga_sizes, default=0)))
        if trial.ok:
            image = np.fromiter(map(trial.phi.__getitem__, range(n)), np.intp, count=n)
            counts[rows, image % m] += 1
    successes = sum(not stage for stage, _ in outcomes)
    if successes < MIN_SUCCESS_RATE * trials:
        stages = [stage for stage, _ in outcomes if stage]
        per_stage = ", ".join(f"{s} {stages.count(s)}" for s in sorted(set(stages)))
        raise EstimateUnreliableError(f"only {successes}/{trials} pipeline successes; "
                                      f"estimates unreliable (failures: {per_stage})")
    own = [host.cluster_of[v] == pattern.part_of[x] for x, v in probes]
    ests = tuple(SpreadEstimate(f"phi({x})={v}", successes, int(counts[x, v % m]) if ok else 0)
                 for (x, v), ok in zip(probes, own))
    return VertexSpreadReport(probes, ests, trials, successes, tuple(outcomes), _frozen(counts))


def pushforward_edge_spread(host: PartitionedHost, pattern: PartitionedPattern,
                            cfg: RGAConfig, c: int,
                            s_edges: Iterable[tuple[int, int]],
                            trials: int, seed: int) -> SpreadEstimate:
    """Empirical P(S within the image edge set phi(E(H))) over pipeline draws."""
    want = {tuple(sorted(e)) for e in s_edges}   # S outside E(G) is legal, never covered
    successes, (hits,) = count_trials(
        lambda trial_seed: run_pipeline_once(host, pattern, cfg, c, trial_seed).phi,
        [lambda phi: want <= {tuple(sorted((phi[x], phi[y]))) for x, y in pattern.h.edges}],
        trials, seed)
    label = f"edges[{','.join(f'{u}-{v}' for u, v in sorted(want))}]"
    return SpreadEstimate(label, successes, hits)
