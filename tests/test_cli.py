import csv
import io

import pytest

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
    assert main(["spread-matching", "--instance", path,
                 "--event", "bogus"]) == 2
    for text in ("bipartite x\n", "bipartite 2\n0 b\n", "bipartite 2\n0\n"):
        bad = write("bad.txt", text)
        assert main(["spread-matching", "--instance", bad]) == 2


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
    ]:
        cfg = write("bad.cfg", text)
        assert main([command, "--config", cfg]) == 2, (command, text)
        assert where in capsys.readouterr().err
