"""Command-line surface.

Subcommands: m1, embed-switch, equitable, clique-factor,
spread-matching, pipeline, scan, scan-thm91.  Global flags --seed,
--trials, --out, --graph, --config apply where meaningful.  Exit
codes: 0 success, 2 invalid input, 3 infeasible parameters, 4
timeout-dominated scan.

Config files are flat key-value text: one `key value` (or `key=value`)
per line, # comments allowed.  A key the command does not read, a
repeated key or a malformed value is invalid input.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .density import max_one_density
from .errors import (
    EstimateUnreliableError,
    GenerationFailedError,
    InfeasibleParametersError,
    InvalidArgumentError,
    PartitionFailedError,
    SpanembedError,
    UnsupportedSizeError,
)
from .graphs import complete_graph, disjoint_union, parse_int, read_graph
from .partition import clique_factor, equitable_coloring, format_partition
from .pipeline import (
    RGAConfig,
    estimate_vertex_spread,
    generate_regular_host,
    partition_pattern,
    run_pipeline_once,
)
from .robustness import (
    SCAN_COLUMNS,
    ThresholdScan,
    clique_factor_pattern,
    dirac_overlap_host,
    mixture_pattern,
    perfect_matching_pattern,
    random_min_degree_host,
    scan_thm91_grid,
    threshold_scan,
    unbalanced_multipartite_host,
)
from .seeds import child_seed, count_trials
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


PIPELINE_KEYS = ("delta", "d", "m", "r", "mu", "zeta", "theta", "C", "trials", "seed")
SCAN_KEYS = ("n", "seed", "host", "pattern", "pgrid", "trials", "budget")


def parse_config(path: str, keys: tuple[str, ...]) -> dict[str, tuple[int, str]]:
    """Read a config file into ``{key: (line number, value)}``.

    Keys outside ``keys`` and keys given twice are invalid input.
    """
    out: dict[str, tuple[int, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            key = key.strip()
            if key not in keys:
                raise InvalidArgumentError(
                    f"line {lineno}: unknown key {key!r}; expected one of {' '.join(keys)}")
            if key in out:
                raise InvalidArgumentError(
                    f"line {lineno}: key {key!r} repeats line {out[key][0]}")
            out[key] = (lineno, val.strip())
    return out


def config_value(conf: dict[str, tuple[int, str]], key: str, convert, default=None):
    """``convert`` applied to the value of ``key``, or ``default`` when it is absent."""
    if key not in conf:
        return default
    lineno, raw = conf[key]
    try:
        return convert(raw)
    except ValueError:
        raise InvalidArgumentError(f"line {lineno}: bad value {raw!r} for {key}") from None


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _open_out(path: str | None):
    return open(path, "w", newline="", encoding="utf-8") if path else sys.stdout


def _emit_csv(path: str | None, header, rows) -> None:
    fh = _open_out(path)
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
    mapping = {}
    if args.phi:
        with open(args.phi, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    parts = line.split()
                    if len(parts) != 2:
                        raise InvalidArgumentError(
                            f"line {lineno}: expected 'x v', got {raw!r}")
                    mapping[parse_int(parts[0], lineno)] = parse_int(parts[1], lineno)
    phi_s = PartialEmbedding.of(h, g, mapping)
    outcome = switching_embed(g, h, phi_s, args.seed)
    if not outcome.ok:
        print("failure: stuck", file=sys.stderr)
        return EXIT_INFEASIBLE
    for x, v in enumerate(outcome.mapping):
        print(f"{x} {v}")
    rows = [[s.time, s.x, s.y, s.repaired[0], s.repaired[1]] for s in outcome.trace.steps]
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
    if args.trials < 1:
        raise InvalidArgumentError(f"--trials = {args.trials} must be >= 1")
    params = FBParams(d=args.d, b=args.b, rho=args.rho, mu=args.mu, delta=args.delta)
    with open(args.instance, "r", encoding="utf-8") as fh:
        inst = parse_fb_instance(fh.read(), params)
    c = args.c if args.c else default_coupling_constant(inst)
    rows = []
    for spec in args.event:
        est = _run_matching_event(inst, c, spec, args.trials, args.seed)
        rows.append([est.event, est.trials, est.hits,
                     f"{est.estimate:.6f}", f"{est.radius:.6f}"])
    _emit_csv(args.out, ["event", "trials", "hits", "estimate", "radius"], rows)
    return EXIT_OK


def _run_matching_event(inst, c, spec, trials, seed) -> SpreadEstimate:
    if spec == "hall-fail":
        _, (hits,) = count_trials(
            lambda trial_seed: sample_coupled(inst, c, trial_seed).z_mat,
            [lambda z: canonical_matching(inst.lam, z)[0] < inst.lam], trials, seed)
        return SpreadEstimate("hall-fail", trials, hits)
    if spec.startswith("contains:"):
        edges = []
        for token in spec.split(":", 1)[1].split(","):
            a, _, b = token.partition("-")
            try:
                edge = (int(a), int(b))
            except ValueError:
                raise InvalidArgumentError(
                    f"bad edge {token!r} in {spec!r}; expected a-b") from None
            if not all(0 <= end < inst.lam for end in edge):
                raise InvalidArgumentError(
                    f"edge {token!r} in {spec!r}: both ends are side indices in [0, {inst.lam})")
            edges.append(edge)
        return estimate_matching_spread(inst, c, edges, trials, seed)
    raise InvalidArgumentError(f"unknown event spec {spec!r}; use hall-fail or contains:a-b[,..]")


def cmd_pipeline(args) -> int:
    conf = parse_config(args.config, PIPELINE_KEYS)
    delta = config_value(conf, "delta", int, 2)
    d = config_value(conf, "d", float, 0.5)
    m = config_value(conf, "m", int, 40)
    r = config_value(conf, "r", int, delta + 1)
    mu = config_value(conf, "mu", float, 0.25)
    zeta = config_value(conf, "zeta", float, 1.0)
    theta = config_value(conf, "theta", float)
    c = config_value(conf, "C", int, 8)
    trials = config_value(conf, "trials", int, 200)
    seed = config_value(conf, "seed", int, args.seed)
    for key, value, low in (("delta", delta, 0), ("r", r, 1), ("trials", trials, 1)):
        if value < low:
            raise InvalidArgumentError(f"line {conf[key][0]}: {key} = {value} must be >= {low}")
    if r % (delta + 1):
        raise InvalidArgumentError(f"r = {r} must be a multiple of delta+1 = {delta + 1}")
    blocks = r // (delta + 1)
    rgraph = disjoint_union(*[complete_graph(delta + 1) for _ in range(blocks)])
    host = generate_regular_host(rgraph, rgraph, m, d, seed)
    pattern = partition_pattern(clique_factor_pattern(r * m, delta + 1), host, None,
                                alpha=mu, seed=child_seed(seed, 1))
    cfg = RGAConfig(mu=mu, zeta=zeta, theta=theta)
    rows = []
    for t in range(trials):
        trial = run_pipeline_once(host, pattern, cfg, c, child_seed(seed, t))
        rows.append([t, int(trial.ok), trial.fail_stage,
                     min(trial.rga_sizes) if trial.rga_sizes else 0])
    _emit_csv(args.out, ["trial", "ok", "fail_stage", "min_candidate"], rows)

    n = host.g.n
    probes = []
    for j in range(min(20, n)):
        part = j % r
        xs = pattern.parts[part]
        vs = host.clusters[part]
        probes.append((xs[j % len(xs)], vs[(j * 7) % len(vs)]))
    probes = sorted(set(probes))
    report = estimate_vertex_spread(host, pattern, cfg, c, probes,
                                    max(1000, trials), child_seed(seed, 0xFEED))
    agg = [[x, v, report.successes, e.hits, f"{e.estimate:.6f}", f"{e.radius:.6f}"]
           for (x, v), e in zip(report.probes, report.estimates)]
    agg.append(["max", "", report.successes, "",
                f"{report.max_estimate:.6f}", f"{report.spread_constant(n):.4f}"])
    path = None
    if args.out:
        path = args.out.rsplit(".", 1)[0] + "-spread.csv" if "." in args.out else args.out + "-spread"
    _emit_csv(path, ["probe_x", "probe_v", "successes", "hits", "estimate", "radius_or_nmax"], agg)
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
    n = config_value(conf, "n", int, 20)
    seed = config_value(conf, "seed", int, args.seed)
    host_name = config_value(conf, "host", str, "complete")
    if host_name in _HOSTS:
        host = _HOSTS[host_name](n, seed)
    elif host_name.startswith("min-degree:"):
        min_degree = config_value(conf, "host", lambda v: int(v.split(":", 1)[1]))
        host = random_min_degree_host(n, min_degree, seed)
    else:
        host = read_graph(host_name)
    pattern_name = config_value(conf, "pattern", str, "matching")
    pattern = (_PATTERNS[pattern_name](host.n) if pattern_name in _PATTERNS
               else read_graph(pattern_name))
    grid = config_value(conf, "pgrid", _float_list)
    if grid is None:
        raise InvalidArgumentError("scan config needs a pgrid line")
    scan = ThresholdScan(host, pattern, grid,
                         trials=config_value(conf, "trials", int, args.trials),
                         seed=seed, budget=config_value(conf, "budget", int, 10_000_000))
    rows = threshold_scan(scan)
    _emit_csv(args.out, SCAN_COLUMNS, [r.as_csv_row() for r in rows])
    if any(r.flag for r in rows):
        return EXIT_TIMEOUT_SCAN
    return EXIT_OK


def cmd_scan_thm91(args) -> int:
    result = scan_thm91_grid(args.delta, args.n, args.gamma, args.seed,
                             trials=args.trials)
    rows = [r.as_csv_row() for r in result["rows"]]
    rows.append(["bad-vertex", "", result["bad_vertex_samples"], "", "",
                 f"{result['bad_vertex_frequency']:.6f}",
                 f"{result['bad_vertex_bound']:.6f}", "", ""])
    _emit_csv(args.out, SCAN_COLUMNS, rows)
    if any(r.flag for r in result["rows"]):
        return EXIT_TIMEOUT_SCAN
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spanembed", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--out", type=str, default=None, help="CSV output path")

    p = sub.add_parser("m1", help="exact maximum 1-density of a graph")
    common(p)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_m1)

    p = sub.add_parser("embed-switch", help="switching embedding extending a partial map")
    common(p)
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--phi", default=None, help="partial embedding file: 'x v' lines")
    p.set_defaults(func=cmd_embed_switch)

    p = sub.add_parser("equitable", help="equitable colouring into k independent sets")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_equitable)

    p = sub.add_parser("clique-factor", help="K_r-factor covering all but at most r-1 vertices")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_clique_factor)

    p = sub.add_parser("spread-matching", help="coupled-sampler matching statistics")
    common(p)
    p.add_argument("--instance", required=True, help="bipartite instance file")
    p.add_argument("--c", type=int, default=0, help="coupling constant; 0 = default policy")
    p.add_argument("--d", type=float, default=0.8)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--mu", type=float, default=0.25)
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--event", action="append", default=None,
                   help="hall-fail or contains:a-b[,a-b...]; repeatable")
    p.set_defaults(func=cmd_spread_matching)

    p = sub.add_parser("pipeline", help="toy-scale end-to-end embedding pipeline")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scan", help="threshold scan over a p-grid")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("scan-thm91", help="two-grid mixture scan with tail check")
    common(p)
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--gamma", type=float, default=0.2)
    p.set_defaults(func=cmd_scan_thm91)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "spread-matching" and not args.event:
            args.event = ["hall-fail"]
        return args.func(args)
    except (InvalidArgumentError, UnsupportedSizeError, OSError, UnicodeDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InfeasibleParametersError, GenerationFailedError,
            PartitionFailedError, EstimateUnreliableError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SpanembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
