"""Command-line surface.

Each subcommand takes only the flags its body reads:

- m1 --graph; equitable --graph k; clique-factor --graph r
- embed-switch host pattern [--phi] [--seed] [--out]
- spread-matching --instance [--c --d --b --event] [--seed] [--trials]
  [--out]; FB's rho, mu and delta, which no part of the command reads,
  are fixed at 0.1, 0.25 and b
- pipeline --config [--out] and scan --config [--out]; seed and trials
  come from the config only (seed 0, 200 pipeline or 1000 scan trials
  by default); pipeline runs max(1000, trials) trials once, the first
  `trials` for the rows CSV and all of them for the `-spread` CSV
- scan-thm91 [--n] [--gamma] [--seed] [--trials] [--out]; delta is 2,
  gamma lies in (0, 1/4), and the exact tail value goes to stderr

Exit codes: 0 success, 2 invalid input, 3 infeasible parameters, 4
timeout-dominated scan.

Config files are flat key-value text: one `key value` per line, #
comments allowed.  A key the command does not read, a repeated key, or a
value that is malformed or fails the library's own check is invalid
input at its line.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .density import max_one_density
from .errors import (
    EstimateUnreliableError,
    GenerationFailedError,
    InfeasibleParametersError,
    InvalidArgumentError,
    PartitionFailedError,
    UnsupportedSizeError,
)
from .graphs import GRAPH_MAX_N, complete_graph, disjoint_union, int_pairs, read_graph, records
from .partition import clique_factor, equitable_coloring, format_partition
from .pipeline import (
    RGAConfig,
    check_cluster_size,
    check_density,
    estimate_vertex_spread,
    generate_regular_host,
    partition_pattern,
)
from .robustness import (
    DEFAULT_BUDGET,
    SCAN_COLUMNS,
    ThresholdScan,
    check_count,
    check_p_grid,
    clique_factor_pattern,
    dirac_overlap_host,
    mixture_pattern,
    perfect_matching_pattern,
    random_min_degree_host,
    scan_thm91_grid,
    threshold_scan,
    unbalanced_multipartite_host,
)
from .seeds import check_seed, child_seed, count_trials
from .spread import (
    FBParams,
    SpreadEstimate,
    canonical_matching,
    default_coupling_constant,
    estimate_matching_spread,
    parse_fb_instance,
    sample_coupled,
)
from .switching import PartialEmbedding, switching_embed

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT_SCAN = 4


PIPELINE_KEYS = ("delta", "d", "m", "r", "mu", "C", "trials", "seed")
SCAN_KEYS = ("n", "seed", "host", "pattern", "pgrid", "trials", "budget")
SCAN_MAX_N = 2000   # a complete host on 2000 vertices plus a 2-trial scan peaks at 140 MB


def parse_config(path: str, keys: tuple[str, ...]) -> dict[str, tuple[int, str]]:
    """Read a config file into ``{key: (line number, value)}``.

    Keys outside ``keys`` and keys given twice are invalid input.
    """
    out: dict[str, tuple[int, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in records(text):
        key, _, val = line.partition(" ")
        if key not in keys:
            raise InvalidArgumentError(
                f"line {lineno}: unknown key {key!r}; expected one of {' '.join(keys)}")
        if key in out:
            raise InvalidArgumentError(f"line {lineno}: key {key!r} repeats line {out[key][0]}")
        out[key] = (lineno, val.strip())
    return out


def config_value(conf: dict[str, tuple[int, str]], key: str, convert, default=None):
    """``convert`` applied to the value of ``key``, or ``default`` when it is absent.

    A value ``convert`` cannot parse, or refuses with InvalidArgumentError,
    is invalid input at its line.
    """
    if key not in conf:
        return default
    lineno, raw = conf[key]
    try:
        return convert(raw)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"line {lineno}: {exc}") from None
    except ValueError:
        raise InvalidArgumentError(f"line {lineno}: bad value {raw!r} for {key}") from None


def _clique_multiple(r: int, delta: int) -> int:
    """``r`` itself if R's r nodes split into cliques of delta + 1."""
    if r % (delta + 1):
        raise InvalidArgumentError(f"r = {r} must be a multiple of delta+1 = {delta + 1}")
    return r


def _scan_size(n: int) -> int:
    """``n`` itself if it lies in [1, SCAN_MAX_N]: a scan holds an index per host edge."""
    check_count("n", n)
    if n > SCAN_MAX_N:
        raise InvalidArgumentError(f"n must be <= {SCAN_MAX_N}, got {n}")
    return n


def _emit_csv(path: str | None, header, rows) -> None:
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


# -- subcommand bodies --------------------------------------------------


def cmd_m1(args) -> int:
    g = read_graph(args.graph)
    value, witness = max_one_density(g)
    print(f"m1 {value.numerator}/{value.denominator}")
    print("witness " + " ".join(str(v) for v in witness))
    return EXIT_OK


def cmd_embed_switch(args) -> int:
    g = read_graph(args.host)
    h = read_graph(args.pattern)
    mapping, line_of = {}, {}
    if args.phi:
        with open(args.phi, "r", encoding="utf-8") as fh:
            _, pairs = int_pairs(fh.read())
        for lineno, x, v in pairs:
            if x in line_of:
                raise InvalidArgumentError(f"line {lineno}: vertex {x} repeats line {line_of[x]}")
            if not (0 <= x < h.n and 0 <= v < g.n):
                raise InvalidArgumentError(
                    f"line {lineno}: need x in [0,{h.n}) and v in [0,{g.n}), got {x} {v}")
            line_of[x] = lineno
            mapping[x] = v
    phi_s = PartialEmbedding.of(h, g, mapping)
    outcome = switching_embed(g, h, phi_s, args.seed)
    if not outcome.ok:
        print("failure: stuck", file=sys.stderr)
        return EXIT_INFEASIBLE
    for x, v in enumerate(outcome.mapping):
        print(f"{x} {v}")
    rows = [[s.time, s.x, s.y, s.repaired[0], s.repaired[1]] for s in outcome.steps]
    _emit_csv(args.out, ["time", "x", "y", "edge_u", "edge_v"], rows)
    return EXIT_OK


def cmd_equitable(args) -> int:
    g = read_graph(args.graph)
    part = equitable_coloring(g, args.k)
    sys.stdout.write(format_partition(part.parts))
    return EXIT_OK


def cmd_clique_factor(args) -> int:
    g = read_graph(args.graph)
    factor = clique_factor(g, args.r)
    sys.stdout.write(format_partition(factor.cliques))
    print("leftover " + " ".join(str(v) for v in factor.leftover))
    return EXIT_OK


def cmd_spread_matching(args) -> int:
    check_count("--trials", args.trials)
    params = FBParams(d=args.d, b=args.b, rho=0.1, mu=0.25, delta=args.b)
    with open(args.instance, "r", encoding="utf-8") as fh:
        inst = parse_fb_instance(fh.read(), params)
    events = [_parse_event(spec, inst.lam) for spec in args.event]
    c = args.c if args.c else default_coupling_constant(inst)
    rows = []
    for edges in events:
        if edges is None:
            _, (hits,) = count_trials(
                lambda trial_seed: sample_coupled(inst, c, trial_seed).z_mat,
                [lambda z: canonical_matching(z)[0] < inst.lam], args.trials, args.seed)
            est = SpreadEstimate("hall-fail", args.trials, hits)
        else:
            est = estimate_matching_spread(inst, c, edges, args.trials, args.seed)
        rows.append([est.event, est.trials, est.hits,
                     f"{est.estimate:.6f}", f"{est.radius:.6f}"])
    _emit_csv(args.out, ["event", "trials", "hits", "estimate", "radius"], rows)
    return EXIT_OK


def _parse_event(spec: str, lam: int) -> list[tuple[int, int]] | None:
    """The edges of a ``contains:a-b[,..]`` spec, or None for ``hall-fail``."""
    if spec == "hall-fail":
        return None
    if not spec.startswith("contains:"):
        raise InvalidArgumentError(
            f"unknown event spec {spec!r}; use hall-fail or contains:a-b[,..]")
    edges = []
    for token in spec.split(":", 1)[1].split(","):
        a, _, b = token.partition("-")
        try:
            edge = (int(a), int(b))
        except ValueError:
            raise InvalidArgumentError(f"bad edge {token!r} in {spec!r}; expected a-b") from None
        if not all(0 <= end < lam for end in edge):
            raise InvalidArgumentError(
                f"edge {token!r} in {spec!r}: both ends are side indices in [0, {lam})")
        edges.append(edge)
    return edges


def cmd_pipeline(args) -> int:
    conf = parse_config(args.config, PIPELINE_KEYS)
    delta = config_value(conf, "delta", lambda v: check_count("delta", int(v)), 2)
    d = config_value(conf, "d", lambda v: check_density(float(v)), 0.5)
    m = config_value(conf, "m", lambda v: check_cluster_size(int(v)), 40)
    r = config_value(conf, "r", lambda v: _clique_multiple(check_count("r", int(v)), delta),
                     delta + 1)
    cfg = config_value(conf, "mu", lambda v: RGAConfig(float(v)), RGAConfig())
    c = config_value(conf, "C", lambda v: check_count("C", int(v)), 8)
    trials = config_value(conf, "trials", lambda v: check_count("trials", int(v)), 200)
    seed = config_value(conf, "seed", lambda v: check_seed(int(v)), 0)
    if r * m > GRAPH_MAX_N:
        key = next(k for k in ("m", "r", "delta") if k in conf)
        raise InvalidArgumentError(f"line {conf[key][0]}: a host of r*m = {r}*{m} vertices "
                                   f"is above the cap {GRAPH_MAX_N}")
    blocks = r // (delta + 1)
    rgraph = disjoint_union(*[complete_graph(delta + 1)] * blocks)
    host = generate_regular_host(rgraph, rgraph, m, d, seed)
    pattern = partition_pattern(clique_factor_pattern(r * m, delta + 1), host, None,
                                alpha=cfg.mu, seed=child_seed(seed, 1))
    report = estimate_vertex_spread(host, pattern, cfg, c, (), max(1000, trials), seed)
    rows = [[t, int(not stage), stage, low]
            for t, (stage, low) in enumerate(report.outcomes[:trials])]
    _emit_csv(args.out, ["trial", "ok", "fail_stage", "min_candidate"], rows)

    counts, successes = report.counts, report.successes
    slots = counts.argmax(axis=1).tolist()
    best = [SpreadEstimate(f"phi({x})", successes, int(counts[x, s])) for x, s in enumerate(slots)]
    agg = [[x, pattern.part_of[x] * m + s, e.trials, e.hits, f"{e.estimate:.6f}",
            f"{e.radius:.6f}"] for x, (s, e) in enumerate(zip(slots, best))]
    top = max(e.estimate for e in best)
    agg.append(["max", "", successes, "", f"{top:.6f}", f"{host.g.n * top:.4f}"])
    path = None
    if args.out:
        root, ext = os.path.splitext(args.out)
        path = root + ("-spread.csv" if ext else "-spread")
    _emit_csv(path, ["x", "v", "successes", "hits", "estimate", "radius_or_nmax"], agg)
    return EXIT_OK


_HOSTS = {
    "dirac-overlap": lambda n, seed: dirac_overlap_host(n),
    "unbalanced-multipartite": lambda n, seed: unbalanced_multipartite_host(n, 2),
    "complete": lambda n, seed: complete_graph(n),
}

_PATTERNS = {
    "matching": perfect_matching_pattern,
    "triangle-factor": lambda n: clique_factor_pattern(n, 3),
    "mixture": lambda n: mixture_pattern(n, 2),
}


def cmd_scan(args) -> int:
    conf = parse_config(args.config, SCAN_KEYS)
    n = config_value(conf, "n", lambda v: _scan_size(int(v)), 20)
    seed = config_value(conf, "seed", lambda v: check_seed(int(v)), 0)
    host_name = config_value(conf, "host", str, "complete")
    if host_name in _HOSTS:
        host = _HOSTS[host_name](n, seed)
    elif host_name.startswith("min-degree:"):
        host = config_value(conf, "host",
                            lambda v: random_min_degree_host(n, int(v.split(":", 1)[1]), seed))
    else:
        host = read_graph(host_name, SCAN_MAX_N)
        if "n" in conf and n != host.n:
            raise InvalidArgumentError(
                f"line {conf['n'][0]}: n {n}, but the host file has {host.n} vertices")
    pattern_name = config_value(conf, "pattern", str, "matching")
    pattern = (_PATTERNS[pattern_name](host.n) if pattern_name in _PATTERNS
               else read_graph(pattern_name, SCAN_MAX_N))
    if pattern.n != host.n:    # only a pattern file can differ
        raise InvalidArgumentError(f"line {conf['pattern'][0]}: the pattern file has {pattern.n} "
                                   f"vertices, the host {host.n}")
    grid = config_value(conf, "pgrid",
                        lambda v: check_p_grid(tuple(float(tok) for tok in v.split(","))))
    if grid is None:
        raise InvalidArgumentError("scan config needs a pgrid line")
    trials = config_value(conf, "trials", lambda v: check_count("trials", int(v)), 1000)
    budget = config_value(conf, "budget", lambda v: check_count("budget", int(v)), DEFAULT_BUDGET)
    scan = ThresholdScan(host, pattern, grid, trials=trials, seed=seed, budget=budget)
    rows = threshold_scan(scan)
    _emit_csv(args.out, SCAN_COLUMNS, [r.as_csv_row() for r in rows])
    if any(r.flag for r in rows):
        return EXIT_TIMEOUT_SCAN
    return EXIT_OK


def cmd_scan_thm91(args) -> int:
    result = scan_thm91_grid(2, args.n, args.gamma, args.seed, trials=args.trials)
    _emit_csv(args.out, SCAN_COLUMNS, [r.as_csv_row() for r in result["rows"]])
    freq = result["bad_vertex_frequency"]
    print(f"bad-vertex frequency {freq.numerator}/{freq.denominator}", file=sys.stderr)
    if any(r.flag for r in result["rows"]):
        return EXIT_TIMEOUT_SCAN
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spanembed", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, trials=True):
        p.add_argument("--seed", type=int, default=0)
        if trials:
            p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--out", type=str, default=None, help="CSV output path")

    p = sub.add_parser("m1", help="exact maximum 1-density of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_m1)

    p = sub.add_parser("embed-switch", help="switching embedding extending a partial map")
    common(p, trials=False)
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--phi", default=None, help="partial embedding file: 'x v' lines")
    p.set_defaults(func=cmd_embed_switch)

    p = sub.add_parser("equitable", help="equitable colouring into k independent sets")
    p.add_argument("--graph", required=True)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_equitable)

    p = sub.add_parser("clique-factor", help="K_r-factor covering all but at most r-1 vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_clique_factor)

    p = sub.add_parser("spread-matching", help="coupled-sampler matching statistics")
    common(p)
    p.add_argument("--instance", required=True, help="bipartite instance file")
    p.add_argument("--c", type=int, default=0, help="coupling constant; 0 = default policy")
    p.add_argument("--d", type=float, default=0.8)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--event", action="append", default=None,
                   help="hall-fail or contains:a-b[,a-b...]; repeatable")
    p.set_defaults(func=cmd_spread_matching)

    p = sub.add_parser("pipeline", help="toy-scale end-to-end embedding pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scan", help="threshold scan over a p-grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("scan-thm91", help="two-grid mixture scan; exact tail value on stderr")
    common(p)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--gamma", type=float, default=0.05, help="in (0, 1/4)")
    p.set_defaults(func=cmd_scan_thm91)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "spread-matching" and not args.event:
            args.event = ["hall-fail"]
        return args.func(args)
    except (InvalidArgumentError, UnsupportedSizeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InfeasibleParametersError, GenerationFailedError,
            PartitionFailedError, EstimateUnreliableError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
