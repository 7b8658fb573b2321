import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import format_fb_instance
from spanembed import cli, pipeline, robustness, spread
from spanembed.cli import build_parser, main
from spanembed.errors import InternalInvariantError, InvalidArgumentError
from spanembed.graphs import (
    GRAPH_MAX_N,
    Graph,
    complete_graph,
    cycle_graph,
    format_graph,
    parse_graph,
)
from spanembed.pipeline import (
    RGAConfig,
    generate_regular_host,
    partition_pattern,
    run_pipeline_once,
)
from spanembed.seeds import child_seed
from spanembed.spread import FBInstance, FBParams, parse_fb_instance


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write, tmp_path


def test_cli_import_leaves_networkx_out():
    # networkx is a test-only oracle: the library must run without it
    code = "import sys, spanembed.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_m1_subcommand(files, capsys):
    write, _ = files
    g = write("g.txt", format_graph(cycle_graph(5)))
    assert main(["m1", "--graph", g]) == 0
    out = capsys.readouterr().out
    assert "m1 5/4" in out


def test_m1_bad_file_is_exit_2(files, capsys):
    write, _ = files
    g = write("bad.txt", "not a graph\n")
    assert main(["m1", "--graph", g]) == 2
    for name, text, line in [("n.txt", "n x\n", 1), ("edge.txt", "n 3\n0 a\n", 2),
                             ("count.txt", "n -2\n", 1), ("range.txt", "n 2\n0 5\n", 2),
                             ("loop.txt", "n 3\n0 1\n1 1\n", 3)]:
        assert main(["m1", "--graph", write(name, text)]) == 2
        assert f"line {line}:" in capsys.readouterr().err
    # a vertex count past the cap is refused at its header, before a Graph is built
    assert main(["m1", "--graph", write("huge.txt", "n 10000000000000\n0 1\n")]) == 2
    assert (f"line 1: n 10000000000000 is above the cap {GRAPH_MAX_N}"
            in capsys.readouterr().err)
    # a directory or a file that is not text is not a graph either
    _, tmp = files
    (tmp / "bin.txt").write_bytes(b"n 3\n\xff\xfe\n")
    for path in (str(tmp), str(tmp / "bin.txt")):
        assert main(["m1", "--graph", path]) == 2
    # malformed partial embeddings are bad input files too
    k3 = write("k3.txt", format_graph(complete_graph(3)))
    for text in ("0 x\n", "0 1 2\n"):
        phi = write("phi.txt", text)
        assert main(["embed-switch", k3, k3, "--phi", phi]) == 2
        assert "line 1" in capsys.readouterr().err
    # so are pairs outside V(H) x V(G)
    for text, line in (("0 1\n3 0\n", 2), ("0 3\n", 1), ("-1 0\n", 1), ("0 0\n1 -2\n", 2)):
        assert main(["embed-switch", k3, k3, "--phi", write("phi.txt", text)]) == 2
        assert f"line {line}:" in capsys.readouterr().err
    # a pattern vertex mapped twice is refused, not resolved by its last line
    phi = write("phi.txt", "0 0\n0 2\n")
    assert main(["embed-switch", k3, k3, "--phi", phi]) == 2
    assert "line 2: vertex 0 repeats line 1" in capsys.readouterr().err


def test_repeated_edge_is_exit_2_naming_both_lines(files, capsys):
    # refused, not merged into one edge: a repeated line is a malformed file
    write, _ = files
    for command, text, where in [
        ("m1", "n 3\n0 1\n0 1\n", "line 3: edge (0,1) repeats line 2"),
        ("m1", "n 3\n0 1\n# the same edge reversed\n1 0\n", "line 4: edge (1,0) repeats line 2"),
        ("spread-matching", "bipartite 2\n0 2\n1 3\n0 2\n", "line 4: edge (0,2) repeats line 2"),
    ]:
        flag = "--graph" if command == "m1" else "--instance"
        assert main([command, flag, write("dup.txt", text)]) == 2, text
        captured = capsys.readouterr()
        assert where in captured.err and captured.out == ""


# reader -> the header line its format starts with ("" for none)
READERS = {"graph": "n 4\n", "fb-instance": "bipartite 2\n", "phi": ""}
# case -> (body, the body line an error names, whether the header precedes the
# body, the readers for which the text is well formed)
MALFORMED = {
    "three tokens": ("0 2\n\n1 2 3\n", 3, True, set()),
    "non-integer": ("0 2  # fine\n1 x\n", 2, True, set()),
    "missing header": ("0 2\n", 1, False, {"phi"}),
    "comments only": ("# nothing\n\n# here\n", 4, False, {"phi"}),
}


def _reader_error(reader, text, files, capsys):
    """The invalid-input message of ``reader`` on ``text``, or None if it reads it."""
    write, _ = files
    try:
        if reader == "graph":
            parse_graph(text)
        elif reader == "fb-instance":
            parse_fb_instance(text, FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2))
        else:
            k3 = write("k3.txt", format_graph(complete_graph(3)))
            code = main(["embed-switch", k3, k3, "--phi", write("phi.txt", text)])
            err = capsys.readouterr().err
            assert code in (0, 2)
            return err if code == 2 else None
    except InvalidArgumentError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_text_readers_name_the_malformed_line(reader, case, files, capsys):
    body, line, headed, well_formed = MALFORMED[case]
    header = READERS[reader] if headed else ""
    error = _reader_error(reader, header + body, files, capsys)
    if reader in well_formed:
        assert error is None
    else:
        assert error is not None and f"line {line + bool(header)}:" in error


def test_embed_switch_subcommand(files, capsys):
    write, tmp = files
    host = write("host.txt", format_graph(complete_graph(6)))
    pat = write("pat.txt", format_graph(
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])))
    phi = write("phi.txt", "0 3\n")
    out_csv = str(tmp / "trace.csv")
    assert main(["embed-switch", host, pat, "--phi", phi,
                 "--seed", "3", "--out", out_csv]) == 0
    out = capsys.readouterr().out
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert lines[0] == ["0", "3"]
    assert len(lines) == 6
    header = open(out_csv).readline().strip()
    assert header == "time,x,y,edge_u,edge_v"


def test_equitable_and_exit_3_on_infeasible(files, capsys):
    write, _ = files
    g = write("g.txt", format_graph(complete_graph(4)))
    assert main(["equitable", "--graph", g, "4"]) == 0
    assert main(["equitable", "--graph", g, "3"]) == 3


def test_clique_factor_subcommand(files, capsys):
    write, _ = files
    g = write("g.txt", format_graph(complete_graph(10)))
    assert main(["clique-factor", "--graph", g, "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4  # three cliques + leftover line
    assert "leftover" in out
    c6 = write("c6.txt", format_graph(cycle_graph(6)))
    assert main(["clique-factor", "--graph", c6, "3"]) == 3


def test_spread_matching_subcommand(files, capsys):
    write, _ = files
    params = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
    inst = FBInstance(5, [(a, b) for a in range(5) for b in range(5)], params)
    path = write("inst.txt", format_fb_instance(inst))
    assert main(["spread-matching", "--instance", path, "--c", "3",
                 "--trials", "200", "--seed", "1",
                 "--event", "hall-fail", "--event", "contains:0-0"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["event", "trials", "hits", "estimate", "radius"]
    assert rows[1][0] == "hall-fail"
    assert rows[2][0].startswith("contains")


def test_scan_subcommand_and_exit_4(files, capsys):
    write, _ = files
    cfg = write("scan.cfg", "host dirac-overlap\nn 16\npattern matching\n"
                            "pgrid 0.2,1.0\ntrials 20\nseed 3\n")
    assert main(["scan", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("kind,p,trials")

    slow = write("slow.cfg", "host complete\nn 12\npattern triangle-factor\n"
                             "pgrid 0.9\ntrials 10\nseed 1\nbudget 2\n")
    assert main(["scan", "--config", slow]) == 4


def test_pipeline_subcommand(files, tmp_path, capsys):
    write, _ = files
    cfg = write("pipe.cfg", "delta 2\nd 0.5\nm 20\nr 3\nmu 0.25\nC 5\n"
                            "trials 25\nseed 11\n")
    out_csv = str(tmp_path / "pipe.csv")
    assert main(["pipeline", "--config", cfg, "--out", out_csv]) == 0
    rows = list(csv.reader(open(out_csv)))
    assert rows[0] == ["trial", "ok", "fail_stage", "min_candidate"]
    assert len(rows) == 26
    spread_rows = list(csv.reader(open(str(tmp_path / "pipe-spread.csv"))))
    assert spread_rows[0] == ["x", "v", "successes", "hits", "estimate", "radius_or_nmax"]
    # one row per pattern vertex, its image in its own cluster, then the all-pairs max
    assert [int(row[0]) for row in spread_rows[1:-1]] == list(range(60))
    host = generate_regular_host(complete_graph(3), complete_graph(3), 20, 0.5, 11)
    pattern = partition_pattern(robustness.clique_factor_pattern(60, 3), host, None,
                                alpha=0.25, seed=child_seed(11, 1))
    assert [int(row[1]) // 20 for row in spread_rows[1:-1]] == list(pattern.part_of)
    top = max(int(row[3]) for row in spread_rows[1:-1])
    successes = int(spread_rows[-1][2])
    assert spread_rows[-1][0] == "max" and successes >= 100
    assert spread_rows[-1][4:] == [f"{top / successes:.6f}", f"{60 * top / successes:.4f}"]


def test_pipeline_spread_csv_sits_beside_the_rows_csv(files, tmp_path):
    # the suffix is cut from the file name only: a dot in a directory name stays
    write, _ = files
    cfg = write("pipe.cfg", "m 20\ntrials 3\nseed 2\n")
    run_dir = tmp_path / "run.d"
    run_dir.mkdir()
    assert main(["pipeline", "--config", cfg, "--out", str(run_dir / "rows")]) == 0
    assert main(["pipeline", "--config", cfg, "--out", str(run_dir / "rows.csv")]) == 0
    assert sorted(os.listdir(run_dir)) == ["rows", "rows-spread", "rows-spread.csv", "rows.csv"]
    assert not (tmp_path / "run-spread.csv").exists()
    with open(run_dir / "rows-spread") as a, open(run_dir / "rows-spread.csv") as b:
        assert a.read() == b.read()


def test_pipeline_runs_one_stream_of_trials(files, tmp_path, monkeypatch):
    # max(1000, trials) calls in all, wherever the name is looked up: the rows
    # are the first trials of the stream the spread counts come from
    write, _ = files
    cfg = write("pipe.cfg", "m 20\nC 5\ntrials 25\nseed 11\n")
    once, calls = pipeline.run_pipeline_once, []

    def counted(*args):
        calls.append(args[-1])
        return once(*args)

    monkeypatch.setattr(pipeline, "run_pipeline_once", counted)
    monkeypatch.setattr(cli, "run_pipeline_once", counted, raising=False)
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "pipe.csv")]) == 0
    assert calls == [child_seed(11, t) for t in range(1000)]


def test_pipeline_refusal_writes_no_csv(files, tmp_path, capsys):
    # a sparse host starves the greedy stage: exit 3 before any CSV, failures named by stage
    write, _ = files
    cfg = write("pipe.cfg", "d 0.1\nm 20\ntrials 5\nseed 1\n")
    out_csv = tmp_path / "pipe.csv"
    assert main(["pipeline", "--config", cfg, "--out", str(out_csv)]) == 3
    err = capsys.readouterr().err
    assert "pipeline successes" in err and re.search(r"\brga \d+", err)
    assert sorted(os.listdir(tmp_path)) == ["pipe.cfg"]


def test_pipeline_rows_are_trials_at_child_seeds(files, tmp_path):
    # row t is run_pipeline_once at child_seed(seed, t) on the config's host and pattern
    write, _ = files
    cfg = write("pipe.cfg", "delta 2\nd 0.5\nm 20\nr 3\nmu 0.25\nC 5\ntrials 6\nseed 11\n")
    out_csv = str(tmp_path / "pipe.csv")
    assert main(["pipeline", "--config", cfg, "--out", out_csv]) == 0
    host = generate_regular_host(complete_graph(3), complete_graph(3), 20, 0.5, 11)
    pattern = partition_pattern(robustness.clique_factor_pattern(60, 3), host, None,
                                alpha=0.25, seed=child_seed(11, 1))
    trials = [run_pipeline_once(host, pattern, RGAConfig(0.25), 5, child_seed(11, t))
              for t in range(6)]
    assert list(csv.reader(open(out_csv)))[1:] == [
        [str(t), str(int(trial.ok)), trial.fail_stage, str(min(trial.rga_sizes))]
        for t, trial in enumerate(trials)]


def test_scan_thm91_subcommand(capsys):
    assert main(["scan-thm91", "--n", "12", "--gamma", "0.1",
                 "--seed", "2", "--trials", "10"]) == 0
    assert "bad-vertex" in capsys.readouterr().err


def test_scan_thm91_size_cap(capsys, monkeypatch):
    # the largest n measured timeout-free runs; one more is refused before any scan
    cap = robustness.THM91_MAX_N
    assert main(["scan-thm91", "--n", str(cap), "--trials", "1"]) == 0
    assert "bad-vertex" in capsys.readouterr().err
    scans = []
    monkeypatch.setattr(robustness, "threshold_scan", lambda scan: scans.append(scan) or [])
    assert main(["scan-thm91", "--n", str(cap + 1), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert f"n <= {cap}" in captured.err and captured.out == ""
    assert scans == []


def test_scan_thm91_bad_gamma_is_exit_2(capsys, monkeypatch):
    # delta(G) >= (3/4 + gamma) n needs gamma < 1/4: a bad gamma is refused before any scan runs
    scans = []
    monkeypatch.setattr(robustness, "threshold_scan", lambda scan: scans.append(scan) or [])
    for gamma in ("nan", "inf", "-inf", "-0.5", "0", "0.25", "1.5", "2", "5"):
        assert main(["scan-thm91", "--n", "12", f"--gamma={gamma}", "--trials", "2"]) == 2, gamma
        captured = capsys.readouterr()
        assert "gamma" in captured.err and captured.out == ""
    assert scans == []


def test_scan_thm91_csv_holds_schema_rows_only(capsys):
    assert main(["scan-thm91", "--n", "10", "--seed", "2", "--trials", "5"]) == 0
    captured = capsys.readouterr()
    lines = list(csv.reader(io.StringIO(captured.out)))
    assert lines[0] == list(robustness.SCAN_COLUMNS)
    assert {line[0] for line in lines[1:]} == {"m1-grid", "improved-grid"}
    # each vertex of the 8-regular host misses one other, which shares its half of 5
    # with probability 4/9 and leaves it 3 < 0.775 * 5 fellow members as neighbours
    assert "bad-vertex frequency 4/9" in captured.err


def test_scan_thm91_default_gamma_host_is_not_complete(monkeypatch):
    gamma = build_parser().parse_args(["scan-thm91"]).gamma
    scans = []
    monkeypatch.setattr(robustness, "threshold_scan", lambda scan: scans.append(scan) or [])
    for n in range(10, robustness.THM91_MAX_N + 1):
        robustness.scan_thm91_grid(2, n, gamma, 0)
        assert scans[-1].host.num_edges() < n * (n - 1) // 2, n


def test_unknown_event_is_exit_2(files, capsys):
    write, _ = files
    params = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
    inst = FBInstance(4, [(a, b) for a in range(4) for b in range(4)], params)
    path = write("inst.txt", format_fb_instance(inst))
    for spec in ("bogus", "contains:0-x", "contains:0", "contains:", "contains:0-1-2",
                 "contains:0-4", "contains:4-0", "contains:0--1"):
        assert main(["spread-matching", "--instance", path, "--event", spec]) == 2, spec
    # both ends are side indices in [0, lam), not file labels
    assert main(["spread-matching", "--instance", path, "--trials", "20",
                 "--event", "contains:0-3,3-0"]) == 0
    for text in ("bipartite x\n", "bipartite 2\n0 b\n", "bipartite 2\n0\n"):
        bad = write("bad.txt", text)
        assert main(["spread-matching", "--instance", bad]) == 2
    # a side size past half the graph vertex cap is refused at its header, before any array
    capsys.readouterr()
    huge = write("huge.txt", "bipartite 10000000000000\n0 10000000000000\n")
    assert main(["spread-matching", "--instance", huge]) == 2
    assert (f"line 1: bipartite 10000000000000 is above the cap {GRAPH_MAX_N // 2}"
            in capsys.readouterr().err)


def test_spread_matching_checks_every_event_before_drawing(files, capsys, monkeypatch):
    write, _ = files
    params = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
    inst = FBInstance(4, [(a, b) for a in range(4) for b in range(4)], params)
    path = write("inst.txt", format_fb_instance(inst))
    never = mock.Mock(side_effect=AssertionError("drew before refusing"))
    monkeypatch.setattr(cli, "sample_coupled", never)
    monkeypatch.setattr(spread, "sample_spread_matching", never)
    for first in ("hall-fail", "contains:0-1"):
        assert main(["spread-matching", "--instance", path, "--trials", "3000",
                     "--event", first, "--event", "contains:0-x"]) == 2, first
        captured = capsys.readouterr()
        assert "bad edge '0-x'" in captured.err and captured.out == ""
    never.assert_not_called()


def test_spread_matching_bad_trials_is_exit_2(files, capsys):
    write, _ = files
    params = FBParams(d=0.8, b=1, rho=0.1, mu=0.25, delta=2)
    inst = FBInstance(10, [(a, b) for a in range(10) for b in range(10)], params)
    path = write("inst.txt", format_fb_instance(inst))
    for trials in ("0", "-3"):
        for event in ("hall-fail", "contains:0-1"):
            assert main(["spread-matching", "--instance", path, "--trials", trials,
                         "--event", event]) == 2
            captured = capsys.readouterr()
            assert "--trials" in captured.err and captured.out == ""


def test_bad_config_is_exit_2(files, capsys):
    write, _ = files
    scan = "host dirac-overlap\nn 16\npattern matching\npgrid 0.2,1.0\nseed 3\n"
    pipe = "delta 2\nd 0.5\nm 20\nr 3\nmu 0.25\nC 5\ntrials 25\nseed 11\n"
    for command, text, where in [
        ("scan", scan + "trails 3\n", "line 6"),       # misspelt key, not ignored
        ("scan", scan + "seed 4\n", "line 6"),         # repeated key
        ("scan", scan.replace("0.2,1.0", "0.5,x"), "line 4"),
        ("scan", scan.replace("n 16", "n sixteen"), "line 2"),
        ("pipeline", pipe + "gamma 0.1\n", "line 9"),  # documented once, never read
        ("pipeline", pipe + "zeta 1.0\n", "unknown key"),
        ("pipeline", pipe.replace("m 20", "m 2o"), "line 3"),
        ("pipeline", pipe.replace("r 3", "r 0"), "line 4"),
        ("pipeline", pipe.replace("r 3", "r -3"), "line 4"),
        ("pipeline", pipe.replace("delta 2", "delta -1"), "line 1"),
        ("pipeline", pipe.replace("C 5", "C 0"), "line 6"),
        ("pipeline", pipe.replace("C 5", "C -3"), "line 6"),
        ("pipeline", pipe.replace("trials 25", "trials -3"), "line 7"),
        ("pipeline", pipe.replace("m 20", "m 19"), "line 3"),
        ("pipeline", pipe.replace("d 0.5", "d 0.6"), "line 2"),
        ("pipeline", pipe.replace("d 0.5", "d 0"), "line 2"),
        ("pipeline", pipe.replace("mu 0.25", "mu 1"), "line 5"),
        ("pipeline", pipe.replace("mu 0.25", "mu nan"), "line 5"),
        ("scan", scan + "trials -3\n", "line 6: trials must be >= 1, got -3"),
        ("scan", scan + "budget -4\n", "line 6: budget must be >= 1, got -4"),
        ("scan", scan + "budget 0\n", "line 6: budget must be >= 1, got 0"),
        ("scan", scan.replace("0.2,1.0", "0.5,0.2"), "line 4: p-grid must be strictly increasing"),
        ("scan", scan.replace("0.2,1.0", "0.5,2"), "line 4: p values must lie in (0,1]"),
        ("pipeline", pipe + "theta 0.1\n", "line 9: unknown key 'theta'"),
        ("pipeline", pipe.replace("m 20", "m=20"), "line 3: unknown key 'm=20'"),
        # range errors of the library name their line too
        ("pipeline", pipe.replace("seed 11", "seed -1"), "line 8: seed must fit"),
        ("scan", scan.replace("seed 3", "seed -1"), "line 5: seed must fit"),
        ("pipeline", pipe.replace("delta 2", "delta 0"), "line 1: delta must be >= 1, got 0"),
        ("pipeline", pipe.replace("r 3", "r 4"), "line 4: r = 4 must be a multiple of delta+1"),
        # a host above the graph vertex cap is refused before anything is built
        ("pipeline", pipe.replace("m 20", "m 100000000"),
         f"line 3: a host of r*m = 3*100000000 vertices is above the cap {GRAPH_MAX_N}"),
        ("pipeline", pipe.replace("m 20", "m 3334"), "line 3: a host of r*m = 3*3334 vertices"),
        ("pipeline", pipe.replace("m 20\n", "").replace("r 3", "r 252"),
         "line 3: a host of r*m = 252*40 vertices"),
        # a scan host's minimum degree lies in [0, n-1]
        ("scan", scan.replace("dirac-overlap", "min-degree:-3"),
         "line 1: min degree -3 outside [0, 15] on 16 vertices"),
        ("scan", scan.replace("dirac-overlap", "min-degree:16"),
         "line 1: min degree 16 outside [0, 15] on 16 vertices"),
        ("scan", scan.replace("dirac-overlap", "min-degree:x"), "line 1: bad value"),
    ]:
        cfg = write("bad.cfg", text)
        assert main([command, "--config", cfg]) == 2, (command, text)
        assert where in capsys.readouterr().err


def test_scan_config_n_below_1_is_exit_2(files, capsys):
    write, _ = files
    for n in ("0", "-2"):
        cfg = write("scan.cfg", f"pgrid 0.5,1.0\nn {n}\ntrials 2\n")
        assert main(["scan", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"line 2: n must be >= 1, got {n}" in captured.err and captured.out == ""


def test_scan_config_file_sizes_are_checked_before_any_trial(files, capsys, monkeypatch):
    write, _ = files
    host = write("g6.txt", format_graph(complete_graph(6)))
    pattern = write("h4.txt", format_graph(Graph(4, [(0, 1), (2, 3)])))
    monkeypatch.setattr(cli, "threshold_scan", mock.Mock(side_effect=AssertionError))
    for text, where in ((f"pgrid 0.5,1.0\nn 40\nhost {host}\n",
                         "line 2: n 40, but the host file has 6 vertices"),
                        (f"pgrid 0.5,1.0\nhost {host}\npattern {pattern}\n",
                         "line 3: the pattern file has 4 vertices, the host 6"),
                        (f"n 6\npattern {pattern}\nhost {host}\n",
                         "line 2: the pattern file has 4 vertices, the host 6"),
                        (f"n 12\npattern {pattern}\n",
                         "line 2: the pattern file has 4 vertices, the host 12")):
        cfg = write("scan.cfg", text)
        assert main(["scan", "--config", cfg]) == 2, text
        captured = capsys.readouterr()
        assert where in captured.err and captured.out == "", captured.err


def test_scan_config_n_above_cap_is_exit_2(files, capsys):
    # refused at its line before any host is built: a complete host on n vertices
    # has n(n-1)/2 edges, and one on 100000 vertices exhausts memory
    write, _ = files
    n = cli.SCAN_MAX_N + 1
    never = mock.Mock(side_effect=AssertionError)
    for host in ("complete", "dirac-overlap", "unbalanced-multipartite", "min-degree:3"):
        cfg = write("scan.cfg", f"pgrid 0.5,1.0\nn {n}\nhost {host}\ntrials 2\n")
        with mock.patch.dict(cli._HOSTS, {name: never for name in cli._HOSTS}), \
                mock.patch.object(cli, "random_min_degree_host", never):
            assert main(["scan", "--config", cfg]) == 2, host
        captured = capsys.readouterr()
        assert f"line 2: n must be <= {n - 1}, got {n}" in captured.err and captured.out == ""
    assert never.call_count == 0
    assert cli._scan_size(cli.SCAN_MAX_N) == cli.SCAN_MAX_N


def test_scan_graph_file_above_cap_is_exit_2(files, capsys, monkeypatch):
    # a header-only host or pattern file is refused at its header: nothing is built
    write, _ = files
    n = cli.SCAN_MAX_N + 1
    big = write("big.txt", f"n {n}\n")
    monkeypatch.setattr(cli, "threshold_scan", mock.Mock(side_effect=AssertionError))
    for text in (f"pgrid 0.5,1.0\nhost {big}\n", f"pgrid 0.5,1.0\nn 6\npattern {big}\n"):
        assert main(["scan", "--config", write("scan.cfg", text)]) == 2, text
        captured = capsys.readouterr()
        assert f"line 1: n {n} is above the cap {n - 1}" in captured.err and captured.out == ""


REMOVED_FLAGS = [(argv, flag) for argv in (["m1", "--graph", "g.txt"],
                                           ["equitable", "--graph", "g.txt", "2"],
                                           ["clique-factor", "--graph", "g.txt", "3"])
                 for flag in ("--seed", "--trials", "--out")] + [
    (["embed-switch", "h.txt", "p.txt"], "--trials"),
    (["pipeline", "--config", "p.cfg"], "--trials"),
    (["pipeline", "--config", "p.cfg"], "--seed"),
    (["scan", "--config", "s.cfg"], "--seed"),
    (["scan", "--config", "s.cfg"], "--trials"),
    (["spread-matching", "--instance", "f.txt"], "--delta"),
    (["scan-thm91"], "--delta"),
    (["spread-matching", "--instance", "f.txt"], "--rho"),
    (["spread-matching", "--instance", "f.txt"], "--mu"),
]


@pytest.mark.parametrize("argv, flag", REMOVED_FLAGS,
                         ids=[f"{argv[0]} {flag}" for argv, flag in REMOVED_FLAGS])
def test_flag_the_body_never_reads_is_exit_2(argv, flag):
    # refused by the parser, before any file is read, instead of silently ignored
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [flag, "5"])
    assert exc.value.code == 2


def test_internal_key_error_propagates(monkeypatch):
    # a KeyError inside a command is a bug, not invalid input: it is not turned into exit 2
    def broken(args):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "cmd_m1", broken)
    with pytest.raises(KeyError):
        main(["m1", "--graph", "g.txt"])


def test_internal_invariant_error_propagates(monkeypatch):
    # a failed postcondition is a bug, not invalid input: it is not turned into exit 2
    def broken(args):
        raise InternalInvariantError("postcondition")
    monkeypatch.setattr(cli, "cmd_m1", broken)
    with pytest.raises(InternalInvariantError):
        main(["m1", "--graph", "g.txt"])


def test_spread_matching_long_chain_is_exit_0(files, capsys):
    # a_i-b_i, a_i-b_{i+1}, a_last-b_0: Z keeps the chain, and an augmenting
    # path may run along all of it
    write, _ = files
    n = 1500
    lines = [f"bipartite {n}"] + [f"{a} {n + b}" for a in range(n)
                                  for b in ((a, a + 1) if a < n - 1 else (0, a))]
    path = write("chain.txt", "\n".join(lines) + "\n")
    assert main(["spread-matching", "--instance", path, "--trials", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["event,trials,hits,estimate,radius", "hall-fail,1,0,0.000000,0.995000"]


# -- fuzz: random files and arguments map onto the documented exit codes --

SMALL = st.integers(-30, 30)      # every number drawn below lies in [-30, 30]


def num(lo, hi):
    """Mostly a plausible value in [lo, hi], otherwise anything small."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi), SMALL).map(str)


WORDS = st.sampled_from(["n", "x", "bipartite", "0.5", "-", "1-2", "=", "#", ""])
RAW_TEXT = st.lists(st.lists(st.one_of(SMALL.map(str), WORDS), max_size=3).map(" ".join),
                    max_size=8).map("\n".join)


@st.composite
def graph_text(draw, n=st.integers(0, 12)):
    n = draw(n)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=3))
    else:
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]), max_size=3 * n, unique_by=lambda e: (min(e), max(e)))
        ) if n > 1 else []
    return "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in edges]) + "\n"


@st.composite
def instance_text(draw):
    lam = draw(st.integers(0, 8))
    side_a = st.integers(0, max(lam - 1, 0))
    side_b = st.integers(lam, max(2 * lam - 1, lam))
    edges = draw(st.lists(st.tuples(side_a, side_b), max_size=lam * lam, unique=True))
    if draw(st.booleans()):    # often dense enough for a perfect matching
        # each edge once: a-a and a-(a+1) coincide at lam = 1, and either may be drawn above
        edges = list(dict.fromkeys(edges + [(a, lam + b) for a in range(lam)
                                            for b in (a, (a + 1) % lam)]))
    return "\n".join([f"bipartite {lam}"] + [f"{a} {b}" for a, b in edges]) + "\n"


GRAPHS = st.one_of(graph_text(), graph_text(), RAW_TEXT)
EDGE_SPEC = st.one_of(st.tuples(num(0, 8), num(0, 8)).map("-".join), WORDS)
EVENTS = st.one_of(st.sampled_from(["hall-fail", "bogus"]),
                   st.lists(EDGE_SPEC, max_size=3).map(lambda t: "contains:" + ",".join(t)))


@st.composite
def scan_config(draw):
    values = {
        "n": num(2, 12),
        "seed": num(0, 30),
        "host": st.one_of(st.sampled_from(["dirac-overlap", "unbalanced-multipartite",
                                           "complete", "@h", ".", "missing"]),
                          num(0, 12).map(lambda k: f"min-degree:{k}")),
        "pattern": st.sampled_from(["matching", "triangle-factor", "mixture", "@p", "x"]),
        "pgrid": st.lists(st.one_of(st.sampled_from(["0.2", "0.5", "1.0", "x"]), SMALL.map(str)),
                          min_size=1, max_size=4).map(",".join),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    if draw(st.integers(0, 9)):
        keys = sorted(set(keys) | {"n", "pgrid"})
    lines = [f"{key} {draw(values[key])}" for key in keys]
    if draw(st.integers(0, 9)) == 7:
        lines.append("trails 3")
    # always set: the defaults allow a long search and 1000 trials
    lines.append(f"budget {draw(num(1, 30))}")
    lines.append(f"trials {draw(num(1, 5))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def cli_case(draw):
    """(argv, files); an @ in either stands for the directory the files are written to."""
    kind = draw(st.sampled_from(["m1", "embed-switch", "equitable", "clique-factor",
                                 "spread-matching", "scan", "scan-thm91"]))
    files = {"h": draw(GRAPHS)}
    seed = ["--seed", draw(num(0, 30))]
    if kind == "m1":
        argv = ["m1", "--graph", "@h"]
    elif kind == "embed-switch":
        if draw(st.integers(0, 3)):   # mostly the equal orders the embedder needs
            n = draw(st.integers(0, 12))
            files["h"] = draw(graph_text(st.just(n)))
            files["p"] = draw(graph_text(st.just(n)))
        else:
            files["p"] = draw(GRAPHS)
        argv = ["embed-switch", "@h", "@p", *seed]
        if draw(st.booleans()):
            pairs = st.lists(st.tuples(num(0, 12), num(0, 12)).map(" ".join), max_size=3)
            files["phi"] = draw(st.one_of(pairs.map("\n".join), RAW_TEXT))
            argv += ["--phi", "@phi"]
    elif kind in ("equitable", "clique-factor"):
        argv = [kind, "--graph", "@h", draw(num(1, 6))]
    elif kind == "spread-matching":
        files["f"] = draw(st.one_of(instance_text(), instance_text(), RAW_TEXT))
        argv = ["spread-matching", "--instance", "@f", "--trials", draw(num(1, 30)),
                "--c", draw(num(0, 4)), *seed]
        for spec in draw(st.lists(EVENTS, max_size=2)):
            argv += ["--event", spec]
    elif kind == "scan":
        files["p"] = draw(GRAPHS)
        files["cfg"] = draw(scan_config())
        argv = ["scan", "--config", "@cfg"]
    else:
        # at most 3 trials: the mixture search runs on the default budget
        gamma = st.one_of(st.sampled_from(["0.2", "nan", "inf", "-0.5", "5"]), SMALL.map(str))
        argv = ["scan-thm91", "--n", draw(num(8, 16)), "--trials", str(draw(st.integers(-1, 3))),
                "--gamma", draw(gamma), *seed]
    return argv, files


@settings(max_examples=1000)
@given(cli_case())
def test_cli_fuzz_exit_codes(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text.replace("@", tmp + os.sep))
        argv = [a.replace("@", tmp + os.sep) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3, 4), argv


# -- fuzz: a pipeline config with a bad line is refused at that line --

# per key: values the config may hold, and values it refuses whatever the other lines say
PIPELINE_VALUES = {
    "delta": (num(1, 3), st.sampled_from(["0", "-1", "1.5", "x", ""])),
    "d": (st.sampled_from(["0.5", "0.3", "0.25"]),
          st.sampled_from(["0", "-0.1", "0.6", "nan", "inf", "x"])),
    "m": (num(20, 60), st.sampled_from(["19", "0", "-20", "20.0", "2o"])),
    "r": (num(1, 12), st.sampled_from(["0", "-3", "3.0", "x"])),
    "mu": (st.sampled_from(["0.25", "0.1", "0.5"]),
           st.sampled_from(["0", "1", "-0.5", "nan", "inf", "x"])),
    "C": (num(1, 8), st.sampled_from(["0", "-2", "1.5", "x"])),
    "trials": (num(1, 30), st.sampled_from(["0", "-3", "2.5", "x"])),
    "seed": (num(0, 30), st.sampled_from(["-1", str(1 << 64), "0x1", "x"])),
}


@st.composite
def bad_pipeline_config(draw):
    keys = draw(st.lists(st.sampled_from(sorted(PIPELINE_VALUES)), unique=True))
    lines = [f"{key} {draw(PIPELINE_VALUES[key][0])}" for key in keys]
    key = draw(st.sampled_from(sorted(PIPELINE_VALUES)))
    bad = draw(st.sampled_from(["value", "unknown", "repeat", "equals"]))
    if bad == "value":
        lines = [line for line in lines if line.split(" ")[0] != key]
        lines.append(f"{key} {draw(PIPELINE_VALUES[key][1])}")
    elif bad == "unknown":
        lines.append(draw(st.sampled_from(["theta 0.1", "gamma 0.1", "M 20", "trails 3"])))
    elif bad == "repeat":
        lines += [f"{key} {draw(PIPELINE_VALUES[key][0])}"] * 2
    else:
        lines = [line for line in lines if line.split(" ")[0] != key]
        lines.append(f"{key}={draw(PIPELINE_VALUES[key][0])}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300)
@given(bad_pipeline_config())
def test_cli_fuzz_bad_pipeline_config_names_its_line(text):
    # refused while the config is read: no host is generated
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pipe.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with mock.patch.object(cli, "generate_regular_host", side_effect=AssertionError), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pipeline", "--config", path])
    assert code == 2, text
    assert re.search(r"line \d+:", err.getvalue()), (text, err.getvalue())
