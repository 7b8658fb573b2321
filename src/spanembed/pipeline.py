"""End-to-end random-greedy + buffer-matching embedding pipeline.

The pipeline embeds a bounded-degree pattern H into a partitioned host
G in two stages.  First a random greedy stage embeds the main vertices
one by one, each uniformly at random into its candidate set (unused
cluster vertices adjacent to all images of earlier H-neighbours),
failing if a candidate set drops below a configured floor.  Then the
reserved buffer vertices are completed per part via spread perfect
matchings of the bipartite candidate graphs, so that the resulting
distribution over embeddings spreads no vertex pair above O(1/n).

Hosts are generated synthetically rather than extracted from a
regularity partition: each reduced-graph node blows up to a cluster of
m fresh vertices, cross-pairs get independent edges (probability 2d on
super-regular pairs, d on merely regular ones), and the construction is
re-verified with the regularity checkers before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EstimateUnreliableError,
    InfeasibleParametersError,
    InternalInvariantError,
    InvalidArgumentError,
    GenerationFailedError,
    PartitionFailedError,
)
from .graphs import Graph, bits
from .partition import closed_second_neighborhood, distance_power_graph, equitable_coloring
from .regularity import (
    INCONCLUSIVE,
    RegPairParams,
    check_regular_pair,
    check_super_regular_pair,
)
from .seeds import check_seed, count_trials, fresh_seed, np_rng, py_rng
from .spread import FBInstance, FBParams, SpreadEstimate, sample_spread_matching
from .switching import PartialEmbedding, switching_embed


# -- partitioned host --------------------------------------------------


@dataclass(frozen=True)
class HostParams:
    eps: float
    d: float
    kappa: float


class PartitionedHost:
    """Host graph with clusters, reduced graph R, and super-regular factor R'."""

    __slots__ = ("g", "clusters", "r_graph", "rprime", "params",
                 "cluster_of", "_adj_bool", "_cluster_bool")

    def __init__(self, g: Graph, clusters: Sequence[Sequence[int]],
                 r_graph: Graph, rprime: Graph, params: HostParams):
        if rprime.n != r_graph.n or not rprime.edges <= r_graph.edges:
            raise InvalidArgumentError("R' must be a spanning subgraph of R")
        if len(clusters) != r_graph.n:
            raise InvalidArgumentError("one cluster per reduced-graph node required")
        self.g = g
        self.clusters = tuple(tuple(sorted(c)) for c in clusters)
        self.r_graph = r_graph
        self.rprime = rprime
        self.params = params
        cluster_of = [-1] * g.n
        for i, cl in enumerate(self.clusters):
            for v in cl:
                if cluster_of[v] != -1:
                    raise InvalidArgumentError(f"vertex {v} in two clusters")
                cluster_of[v] = i
        if any(c < 0 for c in cluster_of):
            raise InvalidArgumentError("clusters do not cover the host vertex set")
        sizes = [len(c) for c in self.clusters]
        if min(sizes) == 0 or max(sizes) > params.kappa * min(sizes):
            raise InvalidArgumentError(f"cluster sizes {sizes} are not kappa-balanced")
        self.cluster_of = tuple(cluster_of)
        self._adj_bool = None
        self._cluster_bool = None

    @property
    def r(self) -> int:
        return self.r_graph.n

    def adj_bool(self) -> np.ndarray:
        if self._adj_bool is None:
            self._adj_bool = self.g.adjacency_matrix()
        return self._adj_bool

    def cluster_bool(self) -> np.ndarray:
        if self._cluster_bool is None:
            m = np.zeros((self.r, self.g.n), dtype=bool)
            for i, cl in enumerate(self.clusters):
                m[i, list(cl)] = True
            self._cluster_bool = m
        return self._cluster_bool

    def __repr__(self):
        return (f"PartitionedHost(n={self.g.n}, r={self.r}, "
                f"sizes={[len(c) for c in self.clusters]})")


def generate_regular_host(r_graph: Graph, rprime: Graph, m: int, d: float,
                          seed: int, refuter_trials: int = 100,
                          max_attempts: int = 10) -> PartitionedHost:
    """Blow up R to clusters of size m with verified (eps,d)-regular pairs.

    Cross-edges appear independently with probability 2d on R'-pairs and
    d on the remaining R-pairs, giving super-regular pairs generous
    degree slack.  Every pair must then survive verification at
    eps = 4/sqrt(m): per-vertex minimum degree (d - eps) m on R'-pairs
    and the randomized regularity refuter on all R-pairs.  Failed
    attempts resample with a fresh child seed, up to ``max_attempts``.
    """
    if rprime.n != r_graph.n or not rprime.edges <= r_graph.edges:
        raise InvalidArgumentError("R' must be a spanning subgraph of R")
    if m < 20:
        raise InvalidArgumentError(f"cluster size must be at least 20, got {m}")
    if not 0 < d <= 0.5:
        raise InvalidArgumentError(f"need 0 < d <= 0.5 so 2d is a probability, got {d}")
    check_seed(seed)
    r = r_graph.n
    n = r * m
    eps = 4.0 / math.sqrt(m)
    params = RegPairParams(min(eps, 1.0), d)
    clusters = [list(range(i * m, (i + 1) * m)) for i in range(r)]
    master = py_rng(seed)
    last_witness = None

    for _ in range(max_attempts):
        rng = np_rng(fresh_seed(master))
        edges: list[tuple[int, int]] = []
        for i, j in sorted(r_graph.edges):
            p = 2 * d if (i, j) in rprime.edges else d
            block = rng.random((m, m)) < p
            us, vs = np.nonzero(block)
            base_i, base_j = i * m, j * m
            edges.extend(zip((us + base_i).tolist(), (vs + base_j).tolist()))
        g = Graph(n, edges)

        ok = True
        for i, j in sorted(r_graph.edges):
            check = check_super_regular_pair if (i, j) in rprime.edges else check_regular_pair
            verdict = check(g, clusters[i], clusters[j], params, mode="refute",
                            trials=refuter_trials, seed=fresh_seed(master))
            if verdict.kind != INCONCLUSIVE:
                ok, last_witness = False, (verdict.witness_a, verdict.witness_b)
                break
        if ok:
            return PartitionedHost(g, clusters, r_graph, rprime,
                                   HostParams(eps, d, 1.0))
    raise GenerationFailedError(
        f"host verification failed in {max_attempts} attempts", witness=last_witness
    )


# -- partitioned pattern -----------------------------------------------


@dataclass(frozen=True)
class PatternParams:
    alpha: float
    delta: int


class PartitionedPattern:
    """Pattern H with parts X_i, potential buffers, and image restrictions.

    ``nbrs[x]`` lists the H-neighbours of x in ascending order.
    """

    __slots__ = ("h", "parts", "buffers", "restrictions", "params", "part_of", "nbrs")

    def __init__(self, h: Graph, parts: Sequence[Sequence[int]],
                 buffers: Sequence[Sequence[int]],
                 restrictions: Mapping[int, Sequence[int]],
                 params: PatternParams):
        self.h = h
        self.parts = tuple(tuple(sorted(p)) for p in parts)
        self.buffers = tuple(tuple(sorted(b)) for b in buffers)
        self.restrictions = {x: tuple(sorted(vs)) for x, vs in restrictions.items()}
        self.params = params
        part_of = [-1] * h.n
        for i, part in enumerate(self.parts):
            for x in part:
                part_of[x] = i
        self.part_of = tuple(part_of)
        self.nbrs = tuple(bits(mask) for mask in h.adj)

    def restrictions_valid(self, host: "PartitionedHost", rho: float, zeta: float) -> bool:
        """(rho, zeta)-validity: per part at most rho |X_i| restricted
        vertices, each allowed at least zeta |V_i| images."""
        counts = [0] * len(self.parts)
        for x, allowed in self.restrictions.items():
            i = self.part_of[x]
            counts[i] += 1
            if len(allowed) < zeta * len(host.clusters[i]):
                return False
        return all(c <= rho * len(p) for c, p in zip(counts, self.parts))

    def validate(self, host: PartitionedHost) -> None:
        h, r_graph, rprime = self.h, host.r_graph, host.rprime
        if len(self.parts) != host.r or len(self.buffers) != host.r:
            raise InternalInvariantError("pattern parts must align with host clusters")
        covered = set()
        for i, part in enumerate(self.parts):
            if len(part) != len(host.clusters[i]):
                raise InternalInvariantError(
                    f"|X_{i}| = {len(part)} != |V_{i}| = {len(host.clusters[i])}")
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
        for x, allowed in self.restrictions.items():
            i = self.part_of[x]
            if not set(allowed) <= set(host.clusters[i]):
                raise InternalInvariantError(f"restriction of {x} leaves cluster {i}")

    def __repr__(self):
        return f"PartitionedPattern(n={self.h.n}, r={len(self.parts)})"


def _rprime_cliques(r_graph: Graph, rprime: Graph) -> list[list[int]]:
    comps = rprime.connected_components()
    ell = len(comps[0])
    for comp in comps:
        if len(comp) != ell:
            raise InvalidArgumentError("R' components must be cliques of equal size")
        for a in range(len(comp)):
            for b in range(a + 1, len(comp)):
                if not rprime.has_edge(comp[a], comp[b]):
                    raise InvalidArgumentError("R' component is not a clique")
    return comps


def partition_pattern(h: Graph, host: PartitionedHost,
                      xstar: Mapping[int, Iterable[int]] | None,
                      alpha: float, seed: int,
                      switch_attempts: int = 20) -> PartitionedPattern:
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

    Pre-placed parts ``xstar`` are honoured: they stay in their
    designated parts and never meet a buffer.
    """
    if h.n != host.g.n:
        raise InvalidArgumentError("pattern and host must have the same vertex count")
    if not 0 < alpha < 1:
        raise InvalidArgumentError(f"alpha must lie in (0,1), got {alpha}")
    delta = max(1, h.max_degree())
    cliques = _rprime_cliques(host.r_graph, host.rprime)
    if any(len(c) < delta + 1 for c in cliques):
        raise InfeasibleParametersError(
            f"R' cliques must have at least delta+1 = {delta + 1} nodes")
    clique_of = {}
    for comp in cliques:
        for node in comp:
            clique_of[node] = comp

    xstar = {i: sorted(vs) for i, vs in (xstar or {}).items() if vs}
    xstar_all = [v for vs in xstar.values() for v in vs]
    if len(set(xstar_all)) != len(xstar_all):
        raise InvalidArgumentError("pre-placed parts overlap")
    for i, vs in xstar.items():
        if len(vs) > alpha * len(host.clusters[i]):
            raise InvalidArgumentError(f"pre-placed part {i} exceeds alpha |V_{i}|")
    for x, y in h.edges:
        ix = next((i for i, vs in xstar.items() if x in vs), None)
        iy = next((i for i, vs in xstar.items() if y in vs), None)
        if ix is not None and iy is not None:
            if ix == iy or not host.r_graph.has_edge(ix, iy):
                raise InvalidArgumentError("pre-placed parts are not an R-partition")

    master = py_rng(seed)

    # Step I: far-apart potential buffer vertices
    far = set(range(h.n))
    for x0 in xstar_all:
        dist = h.bfs_distances(x0)
        far -= {u for u in range(h.n) if 0 <= dist[u] <= 3}
    u_verts = sorted(far)
    power = distance_power_graph(h, 5)
    pw = power.induced(u_verts)
    coloring = equitable_coloring(pw, pw.max_degree() + 1)
    b0_local = max(coloring.parts, key=lambda p: (len(p), -min(p) if p else 0))
    b0 = sorted(u_verts[i] for i in b0_local)
    needs = [int(-(-alpha * len(cl) // 1)) for cl in host.clusters]
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

    def take_slot(node: int, x: int) -> None:
        if not slots[node]:
            raise InfeasibleParametersError(
                f"cluster {node} ran out of slots while pinning buffers")
        placed[x] = slots[node].pop(0)

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
                    take_slot(node, y)
    for i, vs in xstar.items():
        for x in vs:
            take_slot(i, x)

    # Step III: extend to all of H on the blow-up of R
    rstar = blow_up(host.r_graph, [len(cl) for cl in host.clusters])
    host_index = {v: idx for idx, v in enumerate(_blowup_order(host))}
    phi_s = PartialEmbedding.of(h, rstar, {x: host_index[v] for x, v in placed.items()})
    outcome = None
    for _ in range(switch_attempts):
        outcome = switching_embed(rstar, h, phi_s, fresh_seed(master))
        if outcome.ok:
            break
    if outcome is None or not outcome.ok:
        raise PartitionFailedError(
            "switching embedder could not complete the pattern partition",
            trace=None if outcome is None else outcome.trace)

    order = _blowup_order(host)
    parts: list[list[int]] = [[] for _ in range(host.r)]
    for x in range(h.n):
        v = order[outcome.mapping[x]]
        parts[host.cluster_of[v]].append(x)
    pattern = PartitionedPattern(h, parts, buffers, {}, PatternParams(alpha, delta))
    pattern.validate(host)
    return pattern


def blow_up(r_graph: Graph, sizes: Sequence[int]) -> Graph:
    """Replace node i by an independent set of sizes[i], edges by complete pairs."""
    offsets = []
    o = 0
    for s in sizes:
        offsets.append(o)
        o += s
    edges = []
    for i, j in r_graph.edges:
        edges.extend(
            (offsets[i] + a, offsets[j] + b)
            for a in range(sizes[i]) for b in range(sizes[j])
        )
    return Graph(o, edges)


def _blowup_order(host: PartitionedHost) -> list[int]:
    """Host vertices in cluster-block order, matching blow_up's slot layout."""
    out = []
    for cl in host.clusters:
        out.extend(cl)
    return out


# -- random greedy stage -----------------------------------------------


@dataclass(frozen=True)
class RGAConfig:
    mu: float = 0.25
    zeta: float = 1.0
    theta: float | None = None        # candidate floor fraction; default mu*zeta/10

    def __post_init__(self):
        if not 0 < self.mu < 1:
            raise InvalidArgumentError(f"mu must lie in (0,1), got {self.mu}")
        if not 0 < self.zeta <= 1:
            raise InvalidArgumentError(f"zeta must lie in (0,1], got {self.zeta}")

    @property
    def floor_fraction(self) -> float:
        return self.theta if self.theta is not None else self.mu * self.zeta / 10.0


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
    intersected with its image restriction and with the host
    neighbourhoods of all previously embedded H-neighbours; the stage
    fails when that set is smaller than max(1, floor_fraction |V(x)|).
    """
    rng = np_rng(seed)
    adj = host.adj_bool()

    buffer_sets = []
    for i, pool in enumerate(pattern.buffers):
        want = int(cfg.mu * len(pattern.parts[i]))
        if want > len(pool):
            raise InfeasibleParametersError(
                f"part {i}: mu|X_i| = {want} buffer vertices wanted, pool has {len(pool)}")
        pick = rng.choice(len(pool), size=want, replace=False) if want else []
        buffer_sets.append(tuple(sorted(pool[k] for k in pick)))
    excluded = set().union(*map(set, buffer_sets)) if buffer_sets else set()

    queues = [[x for x in part if x not in excluded] for part in pattern.parts]
    order = []
    at = [0] * len(queues)
    remaining = sum(len(q) for q in queues)
    while remaining:
        for i, q in enumerate(queues):
            if at[i] < len(q):
                order.append(q[at[i]])
                at[i] += 1
                remaining -= 1

    # per cluster: its vertices, its free slots, every host row restricted to
    # it, and the candidate floor; candidates are slot indices into the cluster
    members = [np.flatnonzero(row) for row in host.cluster_bool()]
    free = [np.ones(len(cl), dtype=bool) for cl in members]
    cluster_adj = [adj[:, cl] for cl in members]
    floors = [max(1, int(cfg.floor_fraction * len(cl))) for cl in members]
    part_of, nbrs = pattern.part_of, pattern.nbrs
    restr_masks = {x: np.isin(members[part_of[x]], allowed)
                   for x, allowed in pattern.restrictions.items()}

    phi: dict[int, int] = {}
    sizes = []
    for t, x in enumerate(order):
        part = part_of[x]
        avail = free[part]
        if x in restr_masks:
            avail = avail & restr_masks[x]
        rows = cluster_adj[part]
        for y in nbrs[x]:
            if y in phi:
                avail = avail & rows[phi[y]]
        cands = avail.nonzero()[0]
        sizes.append(len(cands))
        if len(cands) < floors[part]:
            return RGAResult(False, phi, tuple(sizes), tuple(buffer_sets), fail_index=t)
        slot = cands[rng.integers(len(cands))]
        phi[x] = int(members[part][slot])
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
                          rga: RGAResult, cfg: RGAConfig, c: int, seed: int,
                          max_resamples: int = 8,
                          rho_ratio: float = 0.4) -> CompletionResult:
    """Finish an RGA embedding by matching buffers to leftover vertices.

    Per part, the candidate graph F_i joins each unembedded buffer
    vertex to the unused cluster vertices adjacent to all images of its
    embedded H-neighbours; a spread perfect matching of F_i assigns the
    images.  Fails with the part index and a Hall witness if some part
    admits no perfect matching within the resampling budget.
    """
    if not rga.ok:
        raise InvalidArgumentError("cannot complete a failed greedy stage")
    adj = host.adj_bool()
    n = host.g.n
    used = np.zeros(n, dtype=bool)
    used[list(rga.phi.values())] = True
    master = py_rng(seed)

    phi = dict(rga.phi)
    instances = []
    delta = max(1, pattern.params.delta)
    for i in range(host.r):
        a_list = rga.buffer_sets[i]
        free = np.flatnonzero(host.cluster_bool()[i] & ~used)
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
                          rho=rho_ratio * cfg.mu, mu=cfg.mu, delta=delta)
        f = FBInstance(lam, mat, params)
        instances.append(f)
        draw = sample_spread_matching(f, min(c, lam), max_resamples, fresh_seed(master))
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
    outside = np.flatnonzero(np.array(host.cluster_of)[image] != pattern.part_of)
    if len(outside):
        raise InternalInvariantError(f"vertex {outside[0]} embedded outside its cluster")
    for x, allowed in pattern.restrictions.items():
        if phi[x] not in allowed:
            raise InternalInvariantError(f"vertex {x} violates its image restriction")
    edges = np.array(list(h.edges), dtype=np.intp).reshape(-1, 2)
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
                      cfg: RGAConfig, c: int, seed: int,
                      max_resamples: int = 8) -> PipelineTrial:
    master = py_rng(seed)
    rga = rga_embed(host, pattern, cfg, fresh_seed(master))
    if not rga.ok:
        return PipelineTrial(False, None, rga.sizes, "rga")
    completion = complete_with_buffers(host, pattern, rga, cfg, c,
                                       fresh_seed(master), max_resamples)
    if not completion.ok:
        return PipelineTrial(False, None, rga.sizes, f"buffers[{completion.fail_part}]")
    return PipelineTrial(True, completion.phi, rga.sizes)


@dataclass(frozen=True)
class VertexSpreadReport:
    probes: tuple[tuple[int, int], ...]
    estimates: tuple[SpreadEstimate, ...]
    trials: int
    successes: int

    @property
    def max_estimate(self) -> float:
        return max((e.estimate for e in self.estimates), default=0.0)

    def spread_constant(self, n: int) -> float:
        return n * self.max_estimate


def estimate_vertex_spread(host: PartitionedHost, pattern: PartitionedPattern,
                           cfg: RGAConfig, c: int,
                           probes: Sequence[tuple[int, int]],
                           trials: int, seed: int,
                           min_success_rate: float = 0.1) -> VertexSpreadReport:
    """Empirical P(phi(x) = v) per probe over success-conditioned pipeline runs.

    Requires at least 10^3 trials; raises EstimateUnreliableError when
    fewer than ``min_success_rate`` of them produce an embedding.
    """
    if trials < 1000:
        raise InvalidArgumentError(f"need at least 1000 trials, got {trials}")
    successes, hits = count_trials(
        lambda trial_seed: run_pipeline_once(host, pattern, cfg, c, trial_seed).phi,
        [lambda phi, x=x, v=v: phi[x] == v for x, v in probes], trials, seed)
    if successes < min_success_rate * trials:
        raise EstimateUnreliableError(
            f"only {successes}/{trials} pipeline successes; estimates unreliable")
    ests = tuple(SpreadEstimate(f"phi({x})={v}", successes, hit)
                 for (x, v), hit in zip(probes, hits))
    return VertexSpreadReport(tuple(probes), ests, trials, successes)


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
