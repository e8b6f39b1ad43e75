import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fdsolve.cli import bench_aggregates, main, run_bench

INTRO_MODEL = json.dumps({
    "variables": [{"name": "A", "domain": [3, 5]},
                  {"name": "B", "domain": [3, 4]},
                  {"name": "C", "domain": [1, 2]},
                  {"name": "D", "domain": [1, 2]}],
    "constraints": [{"type": "neq", "vars": [a, b]}
                    for i, a in enumerate("ABCD")
                    for b in "ABCD"[i + 1:]],
})


@pytest.fixture
def intro_path(tmp_path):
    path = tmp_path / "intro.json"
    path.write_text(INTRO_MODEL)
    return str(path)


def test_count_dds_report(intro_path, capsys):
    assert main(["count", "--model", intro_path, "--engine", "dds",
                 "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == "6"
    assert report["exact"] is True
    assert report["decomposition_nodes"] == 1
    assert report["choice_nodes"] == 2
    assert report["engine"] == "dds"


def test_count_engines_agree(intro_path, capsys):
    counts = {}
    for engine in ("dfs", "dds"):
        assert main(["count", "--model", intro_path, "--engine", engine,
                     "--report", "json"]) == 0
        counts[engine] = json.loads(capsys.readouterr().out)["count"]
    assert counts["dfs"] == counts["dds"] == "6"


def test_count_text_report(intro_path, capsys):
    assert main(["count", "--model", intro_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["count                6",
                         "exact                true",
                         "engine               dds",
                         "heuristic            maxdeg-ff"]
    assert [line[:21] for line in lines] == [
        f"{label:<21}" for label in (
            "count", "exact", "engine", "heuristic", "nodes", "choice nodes",
            "decomposition nodes", "fails", "solutions found", "propagations",
            "max depth", "wall time")]
    assert re.fullmatch(r"wall time {12}\d+\.\d{4}s", lines[-1])
    assert main(["count", "--model", intro_path, "--report", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "count", "exact", "engine", "heuristic", "nodes", "choice_nodes",
        "decomposition_nodes", "fails", "solutions_found", "propagations",
        "max_depth", "wall_time"]


def test_count_trace_dot(intro_path, tmp_path, capsys):
    dot = tmp_path / "trace.dot"
    assert main(["count", "--model", intro_path, "--engine", "dds",
                 "--trace-dot", str(dot)]) == 0
    capsys.readouterr()
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count('label="□"') == 1


def test_enumerate(intro_path, capsys):
    assert main(["enumerate", "--model", intro_path, "--engine", "dds",
                 "--max-solutions", "4", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["solutions"]) == 4
    assert payload["complete"] is False
    assert main(["enumerate", "--model", intro_path, "--engine", "dfs",
                 "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["solutions"]) == 6
    assert payload["complete"] is True
    assert all(len(set(s.values())) == 4 for s in payload["solutions"])


@pytest.mark.parametrize("limit", [5, 6, 7])
def test_enumerate_engines_agree_on_complete(intro_path, capsys, limit):
    # the intro model has 6 solutions: the list is whole from 6 on
    for engine in ("dfs", "dds"):
        assert main(["enumerate", "--model", intro_path, "--engine", engine,
                     "--max-solutions", str(limit), "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["solutions"]) == min(limit, 6)
        assert payload["complete"] is (limit >= 6)
    assert main(["enumerate", "--model", intro_path, "--engine", "dfs",
                 "--max-solutions", str(limit)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"# {min(limit, 6)} solution(s), "
        f"complete={'true' if limit >= 6 else 'false'}")


@pytest.mark.parametrize("engine", ["dfs", "dds"])
def test_enumerate_rejects_max_solutions_below_one(intro_path, capsys, engine):
    for bad in ("0", "-3"):
        assert main(["enumerate", "--model", intro_path, "--engine", engine,
                     "--max-solutions", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-solutions must be at least 1")


def test_gen_coloring_roundtrip(tmp_path, capsys):
    out = tmp_path / "model.json"
    args = ["gen-coloring", "--nodes", "8", "--edge-prob", "0.3",
            "--colors", "3", "--seed", "11", "--output", str(out)]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first  # bit-reproducible for a fixed seed
    assert main(["count", "--model", str(out), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"] is True


def test_gen_saw_and_count(tmp_path, capsys):
    out = tmp_path / "saw.json"
    assert main(["gen-saw", "--length", "3", "--output", str(out)]) == 0
    assert main(["count", "--model", str(out), "--engine", "dds",
                 "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == "12"


def test_limit_flag(intro_path, capsys):
    assert main(["count", "--model", intro_path, "--limit", "2",
                 "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"] is False
    assert int(report["count"]) >= 2


@pytest.mark.parametrize("argv, message", [
    (["count", "--limit", "-3"], "error: limit must be at least 0, got -3\n"),
    (["count", "--trace-dot", "TRACE", "--trace-max-nodes", "-1"],
     "error: max_nodes must be at least 0, got -1\n"),
    (["bench", "--nodes", "5", "--instances", "1", "--limit", "-3"],
     "error: limit must be at least 0, got -3\n"),
    (["gen-coloring", "--nodes", "-3", "--edge-prob", "0.3", "--colors", "3"],
     "error: node count must be at least 0, got -3\n"),
    (["bench", "--nodes", "-3"],
     "error: node count must be at least 0, got -3\n"),
    (["bench", "--instances", "-1"],
     "error: instances must be at least 0, got -1\n"),
], ids=["count-limit", "count-trace-max-nodes", "bench-limit",
        "gen-coloring-nodes", "bench-nodes", "bench-instances"])
def test_negative_limits_exit_nonzero(intro_path, tmp_path, capsys, argv,
                                      message):
    argv = [str(tmp_path / "trace.dot") if a == "TRACE" else a for a in argv]
    if argv[0] == "count":
        argv += ["--model", intro_path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_errors_exit_nonzero(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["count", "--model", missing]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["count", "--model", str(bad)]) == 1
    assert "syntax error" in capsys.readouterr().err
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "variables": [{"name": "x", "domain": {"range": [0, 10 ** 18]}}],
        "constraints": []}))
    assert main(["count", "--model", str(huge)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: variables[0]: range [0, 1000000000000000000]")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("ref", [["B"], {"name": "B"}, 1, None, True])
def test_non_string_reference_is_a_located_error(tmp_path, capsys, command,
                                                 ref):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({
        "variables": [{"name": "A", "domain": [0, 1]},
                      {"name": "B", "domain": [0, 1]}],
        "constraints": [{"type": "neq", "vars": ["A", ref]}]}))
    assert main([command, "--model", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: constraints[0]: unknown variable")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("exc, message", [
    (RecursionError("maximum recursion depth exceeded"),
     "error: maximum recursion depth exceeded\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["recursion", "memory"])
def test_resource_errors_exit_nonzero(intro_path, monkeypatch, capsys, exc,
                                      message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr("fdsolve.cli.dds_count", exhausted)
    assert main(["count", "--model", intro_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_interrupt_exits_130(intro_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("fdsolve.cli.dds_count", interrupted)
    assert main(["count", "--model", intro_path]) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""


def test_closed_pipe_exits_141(tmp_path, capsys):
    # the reader closes the pipe after the first of the 8-monomer walks
    # (about 120 KB of output), as ``| head -n 1`` does: no error line and
    # no "Exception ignored" from the flush at exit, and 128 + SIGPIPE
    model = tmp_path / "saw8.json"
    assert main(["gen-saw", "--length", "8", "--output", str(model)]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-m", "fdsolve.cli", "enumerate", "--model",
         str(model)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert child.stdout.readline().startswith(b"p0=")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 141
    finally:
        child.kill()
        child.wait()
    assert err == b""


def test_bench_harness(capsys):
    records = run_bench(nodes=8, edge_probs=[0.3], colors=3, instances=3,
                        seed=5)
    assert len(records) == 3
    aggs = bench_aggregates(records)
    assert 0.3 in aggs and aggs[0.3]["instances"] == 3
    assert main(["bench", "--nodes", "8", "--edge-prob", "0.3", "--colors",
                 "3", "--instances", "2", "--seed", "5", "--report",
                 "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["records"]) == 2
    assert "0.3" in payload["aggregates"]
