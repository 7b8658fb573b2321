import contextlib
import csv
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanembed.cli import main
from spanembed.graphs import Graph, complete_graph, cycle_graph, format_graph
from spanembed.spread import FBInstance, FBParams, format_fb_instance


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write, tmp_path


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
    for name, text in [("n.txt", "n x\n"), ("edge.txt", "n 3\n0 a\n")]:
        assert main(["m1", "--graph", write(name, text)]) == 2
        assert "line" in capsys.readouterr().err
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
    assert spread_rows[-1][0] == "max"


def test_scan_thm91_subcommand(capsys):
    assert main(["scan-thm91", "--n", "12", "--gamma", "0.1",
                 "--seed", "2", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "bad-vertex" in out


def test_unknown_event_is_exit_2(files):
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
        ("pipeline", pipe.replace("m 20", "m 2o"), "line 3"),
        ("pipeline", pipe.replace("r 3", "r 0"), "line 4"),
        ("pipeline", pipe.replace("r 3", "r -3"), "line 4"),
        ("pipeline", pipe.replace("delta 2", "delta -1"), "line 1"),
        ("pipeline", pipe.replace("trials 25", "trials -3"), "line 7"),
        ("scan", scan + "trials -3\n", "trials must be >= 1"),
    ]:
        cfg = write("bad.cfg", text)
        assert main([command, "--config", cfg]) == 2, (command, text)
        assert where in capsys.readouterr().err


def test_spread_matching_too_deep_chain_is_exit_2(files, capsys):
    # a_i-b_i, a_i-b_{i+1}, a_last-b_0: Z keeps the chain and the matcher recurses along it
    write, _ = files
    n = 1500
    lines = [f"bipartite {n}"] + [f"{a} {n + b}" for a in range(n)
                                  for b in ((a, a + 1) if a < n - 1 else (0, a))]
    path = write("chain.txt", "\n".join(lines) + "\n")
    assert main(["spread-matching", "--instance", path, "--trials", "1"]) == 2
    assert "1500 x 1500" in capsys.readouterr().err


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
            lambda e: e[0] != e[1]), max_size=3 * n)) if n > 1 else []
    return "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in edges]) + "\n"


@st.composite
def instance_text(draw):
    lam = draw(st.integers(0, 8))
    side_a = st.integers(0, max(lam - 1, 0))
    side_b = st.integers(lam, max(2 * lam - 1, lam))
    edges = draw(st.lists(st.tuples(side_a, side_b), max_size=lam * lam))
    if draw(st.booleans()):    # often dense enough for a perfect matching
        edges += [(a, lam + b) for a in range(lam) for b in (a, (a + 1) % lam)]
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
        "trials": num(1, 5),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    if draw(st.integers(0, 9)):
        keys = sorted(set(keys) | {"n", "pgrid"})
    lines = [f"{key} {draw(values[key])}" for key in keys]
    if draw(st.integers(0, 9)) == 7:
        lines.append("trails 3")
    lines.append(f"budget {draw(num(1, 30))}")   # always set: the default allows a long search
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def cli_case(draw):
    """(argv, files); an @ in either stands for the directory the files are written to."""
    kind = draw(st.sampled_from(["m1", "embed-switch", "equitable", "clique-factor",
                                 "spread-matching", "scan"]))
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
    else:
        files["p"] = draw(GRAPHS)
        files["cfg"] = draw(scan_config())
        argv = ["scan", "--config", "@cfg", "--trials", draw(num(1, 5))]
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
