"""spanembed benchmark: one workload per process.

    python3 perfbench/run.py --workload pipeline_scan --seed 1 --seconds 45 --trace 0

Workloads: pipeline_scan and spread_m1, each made of two parts (see
workloads.py and BENCHMARK.json for what each exercises and why).  Each
part's unit is a fixed amount of work whose inputs all come from
``--seed``; a batch is one unit of each part.

``--trace 0`` sets up several times (``setup_s`` is the median), warms
up, then repeats the batch until about ``--seconds`` of batches have
been measured.  Every part times its unit in equal pieces; ``batch_p90_s``
is the batch time at the 90th percentile of each part's piece times,
reported with the peak resident set.  The machine's speed moves in
phases: its slower phase shows in nearly every run while its faster
phases come and go, so the slower tail of a run's pieces is steadier
from run to run than their median.  ``--trace 1`` runs each unit once
plainly and once with per-layer wrappers installed, and reports the
per-layer busy times, exact counts, exact statistics and the tracing
overhead.  Either way every output is checked outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same figures by name for reading.  Each run also writes its
result and a manifest (versions, core count, commit) under
``perfbench/results/``.  A failed check makes the exit code 1; missing
library sources make it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# set-up repetitions: at least five, and about a twentieth of the measured time
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SHARE = 5, 200, 0.05


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must lie in [0, 2^63)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def ref_loop() -> float:
    """Median seconds of a fixed pure-Python plus numpy loop.

    Reported as a machine-drift reference next to the timings; never
    used to normalise them.
    """
    import numpy as np

    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        a = np.arange(200_000, dtype=np.int64)
        for _ in range(20):
            a = np.sort(a * 7919 % 200_003)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def untraced(classes, args):
    setups = []

    def set_up():
        parts = [cls(args.seed) for cls in classes]
        start = time.perf_counter()
        for part in parts:
            part.setup()
        setups.append(time.perf_counter() - start)
        return parts

    parts = set_up()
    bad = [message for part in parts for message in part.warm_up()]
    for part in parts:
        part.piece_s.clear()
    unit_s: list[list[float]] = [[] for _ in parts]
    batch_s: list[float] = []
    ops, first = [0] * len(parts), [None] * len(parts)
    # batches until the next one would end further past --seconds than short of it
    while len(batch_s) < 3 or sum(batch_s) + statistics.median(batch_s) / 2 < args.seconds:
        # set-up repetitions are spread over the run, a small share of its time
        while len(setups) < SETUP_MAX_REPS and sum(setups) < SETUP_SHARE * sum(batch_s):
            set_up()
        for k, part in enumerate(parts):
            start = time.perf_counter()
            ops[k], out = part.run_unit()
            unit_s[k].append(time.perf_counter() - start)
            if first[k] is None:
                first[k] = out
                bad += part.check(out)
            elif out != first[k]:
                bad.append(f"{part.name}: unit {len(unit_s[k])} gave other outputs than the first")
        batch_s.append(sum(times[-1] for times in unit_s))
    while len(setups) < SETUP_MIN_REPS:
        set_up()
    metrics = {
        "batch_p90_s": (sum(part.pieces * p90(part.piece_s) for part in parts), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {"batch_p50_s": (statistics.median(batch_s), "s")}
    for k, part in enumerate(parts):
        notes.update(part.rates(ops[k], unit_s[k]))
        notes.update(part.stats(first[k]))
    notes.update({
        "batches": (len(batch_s), "count"),
        "measured_s": (sum(batch_s), "s"),
        "setup_reps": (len(setups), "count"),
    })
    detail = {"batch_s": batch_s, "unit_s": unit_s, "setup_s": setups,
              "piece_s": [part.piece_s for part in parts]}
    return metrics, notes, sum(ops) * len(batch_s), bad, detail


def traced(classes, args):
    from layers import Layers
    from workloads import EXACT_STATS, RATES

    layers = Layers()
    parts = [cls(args.seed) for cls in classes]
    layers.tracer.install()
    for part in parts:
        part.setup()
    layers.tracer.uninstall()
    metrics = layers.setup_metrics()
    layers.reset()
    metrics.update({name: (0.0, unit) for name, unit in EXACT_STATS.items()})
    metrics.update({name: (0.0, "1/s") for name in RATES})

    bad = [message for part in parts for message in part.warm_up()]
    plain_s = traced_s = 0.0
    attempted = 0
    for part in parts:
        start = time.perf_counter()
        ops, plain_out = part.run_unit()
        seconds = time.perf_counter() - start
        plain_s += seconds
        attempted += 2 * ops
        metrics.update(part.rates(ops, [seconds]))
        bad += part.check(plain_out)
        hooks_before = layers.tracer.hook_s
        layers.tracer.install()
        try:
            start = time.perf_counter()
            _, out = part.run_unit()
            traced_s += time.perf_counter() - start - (layers.tracer.hook_s - hooks_before)
        finally:
            layers.tracer.uninstall()
        bad += part.trace_checks(layers, out)
        if out != plain_out:
            bad.append(f"{part.name}: the traced unit gave other outputs than the plain one")
        metrics.update(part.stats(out))
    bad += layers.failures

    metrics.update(layers.metrics())
    metrics["trace.untraced_batch_s"] = (plain_s, "s")
    metrics["trace.batch_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    layers.tracer.write_csv(RESULTS / f"{args.workload}-seed{args.seed}-spans.csv")
    return metrics, {}, attempted, bad, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spanembed" / "__init__.py").is_file():
        print(f"run.py: no spanembed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    classes = WORKLOADS.get(args.workload)
    if classes is None:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    calib_start = ref_loop()
    metrics, notes, attempted, bad, detail = (traced if args.trace else untraced)(classes, args)
    calib_end = ref_loop()
    if args.trace:
        metrics["calib.ref_loop_s"] = ((calib_start + calib_end) / 2, "s")
    notes["calib.ref_loop_s.start"] = (calib_start, "s")
    notes["calib.ref_loop_s.end"] = (calib_end, "s")

    info = manifest(args)
    print("manifest " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for message in bad:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": min(len(bad), attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"manifest": info, "result": result,
                               "notes": {k: v[0] for k, v in notes.items()}, **detail}, indent=1))
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
