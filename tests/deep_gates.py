"""Gates on deep and large inputs, one table row each; ``-k`` selects rows.

    python -m pytest tests/deep_gates.py -v -s

The benchmark's jobs go about 20 levels deep, so the ROADMAP's gates on
deep or large inputs live here, outside tier-1 (the file's name is not
``test_*.py``): 3-value ``Neq`` chains of 5,000 variables and of 2,000
under each heuristic, 1,000-position ``Slide`` and ``Regular`` rows, a
250-variable permutation, ``fdsolve count`` on 10^6-value ``Linear`` and
40-monomer ``gen-saw`` models, and one ``propagate`` in which a Hall set
prunes a 10^6-value domain.  Every row pins its results and peaks under
1 GB of RSS, a row with a cut-off must be stopped by it, and some rows
bound their time.  Each row runs in a child process of its own, whose
peak RSS ``os.wait4`` reads: a CLI row's child is ``python -m
fdsolve.cli``, timed whole, and a library row's child is this file, which
times the run alone and imports no pytest, so its RSS compares with
ROADMAP.md's numbers.
"""
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import fdsolve
from fdsolve import AllDifferent, Dfa, Neq, Regular, Slide, new_problem
from fdsolve.model_io import saw_document, serialize_model
from fdsolve.models import WalkSpec

CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
MAX_MB = 1024
SHOWN = ("count", "exact", "nodes", "max_depth", "status", "events", "left")


def problem(domains, *props):
    state = new_problem(domains)
    for prop in props:
        state.post(prop)
    return state


def neq_chain(n):
    return problem([{0, 1, 2}] * n, *(Neq(i, i + 1) for i in range(n - 1)))


def slide_row(n):
    # no three consecutive 1s, as windows of three
    triples = [(a, b, c) for a in range(3) for b in range(3)
               for c in range(3) if (a, b, c) != (1, 1, 1)]
    return problem([{0, 1, 2}] * n, Slide(range(n), 3, triples))


def regular_row(n):
    # no three consecutive 1s: state q has just read q 1s
    return problem([{0, 1, 2}] * n, Regular(range(n), Dfa(3, 0, [0, 1, 2], {
        (q, s): q + 1 if s == 1 else 0
        for q in range(3) for s in range(3) if (q, s) != (2, 1)})))


def permutation(n):
    return problem([range(n)] * n, AllDifferent(range(n)))


def hall_set(n):
    # n variables over {0..n-1}, a Hall set, and one over {0..10^6-1}
    return problem([range(n)] * n + [range(10 ** 6)],
                   AllDifferent(range(n + 1)))


def linear_model(size):
    # A + B = 10 over {0..size-1}
    return json.dumps({
        "variables": [{"name": v, "domain": {"range": [0, size - 1]}}
                      for v in "AB"],
        "constraints": [{"type": "linear", "coeffs": [1, 1],
                         "vars": ["A", "B"], "rel": "eq", "rhs": 10}]})


def saw_model(size):
    # what fdsolve gen-saw writes
    return serialize_model(saw_document(WalkSpec(size)))


class Row(NamedTuple):
    build: Callable   # size -> a state, or a CLI row's model document
    size: int
    engine: str       # dfs_count, dds_count, propagate, "fdsolve dfs|dds"
    heuristic: Optional[str] = None   # None: the default
    limit: Optional[int] = 10         # the cut-off; None: the default
    pins: dict = {}                   # results that must be exactly these
    seconds: Optional[float] = None   # bound on the run's time
    timeout: Optional[float] = None   # the child is killed after this


ENGINES = ("dfs_count", "dds_count")
HEURISTICS = ("input", "ff", "maxdeg", "maxdeg-ff")
# each row by its id: builder, size, engine and heuristic
ROWS = {"-".join(filter(None, (row.build.__name__, str(row.size),
                             row.engine.replace(" ", "-"), row.heuristic))): row
        for row in [
    *(Row(neq_chain, 5000, engine) for engine in ENGINES),
    *(Row(neq_chain, 2000, "dfs_count", h,
          pins={"count": 11, "nodes": 2019, "max_depth": 2000})
      for h in HEURISTICS),
    # DDS under a degree heuristic fixes every odd variable, which leaves
    # each even one isolated with two values: 2^1000 combinations
    *(Row(neq_chain, 2000, "dds_count", h,
          pins={"count": 2 ** 1000, "nodes": 1001, "max_depth": 1000}
          if h.startswith("maxdeg")
          else {"count": 12, "nodes": 2008, "max_depth": 1999})
      for h in HEURISTICS),
    *(Row(build, 1000, engine, pins=pins) for build in (slide_row, regular_row)
      for engine, pins in zip(ENGINES, ({"count": 11, "nodes": 1021},
                                        {"count": 12, "nodes": 1002}))),
    *(Row(permutation, 250, engine,
          pins={"count": 11, "nodes": 269, "max_depth": 251})
      for engine in ENGINES),
    *(Row(linear_model, 10 ** 6, f"fdsolve {engine}", limit=None,
          pins={"count": "11", "exact": True}, seconds=10, timeout=60)
      for engine in ("dfs", "dds")),
    *(Row(saw_model, 40, f"fdsolve {engine}", pins={"count": count},
          seconds=30, timeout=120)
      for engine, count in (("dfs", "11"), ("dds", "12"))),
    Row(hall_set, 1000, "propagate", limit=None,
        pins={"status": "BRANCHABLE", "events": 1000, "left": 999000},
        seconds=5),
]}


def run_child(argv, timeout):
    """Run argv to its exit, or kill it (-9) after ``timeout`` seconds if
    given; return its exit code, its standard output and its peak MB."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             env=CHILD_ENV)
    timer = threading.Timer(timeout, child.kill)
    if timeout:
        timer.start()
    try:
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    # reaped here, so the Popen object must not wait for it
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024


def pytest_generate_tests(metafunc):
    # not pytest.mark.parametrize: this file, run as a child, imports no pytest
    metafunc.parametrize("name, row", ROWS.items(), ids=ROWS)


def test_row(name, row, tmp_path):
    argv = [sys.executable, __file__, name]
    if row.engine.startswith("fdsolve "):
        model = tmp_path / "model.json"
        model.write_text(row.build(row.size))
        limit = [] if row.limit is None else ["--limit", str(row.limit)]
        argv = [sys.executable, "-m", "fdsolve.cli", "count", "--model",
                str(model), "--engine", row.engine.split()[1], *limit,
                "--report", "json"]
    t0 = time.perf_counter()
    code, out, mb = run_child(argv, row.timeout)
    wall = time.perf_counter() - t0
    assert code == 0, f"the child exited with {code}"
    got = json.loads(out)
    seconds = got.get("seconds", wall)
    shown = (f"{k} {v}" if len(str(v)) < 13 else f"{k} ~10^{len(str(v)) - 1}"
             for k, v in got.items() if k in SHOWN)
    print(f"{name}: {', '.join(shown)}, {seconds:.2f} s, {mb:.0f} MB peak RSS")
    if row.limit is not None:
        assert not got["exact"] and int(got["count"]) > row.limit
    assert {k: got[k] for k in row.pins} == row.pins
    assert row.seconds is None or seconds < row.seconds
    assert mb < MAX_MB


if __name__ == "__main__":
    row = ROWS[sys.argv[1]]
    state = row.build(row.size)
    t0 = time.perf_counter()
    if row.engine == "propagate":
        got = {"status": state.propagate().name,
               "events": state.counters.domain_events,
               "left": len(state.domains[row.size])}
    else:
        heuristic = () if row.heuristic is None else (row.heuristic,)
        r = getattr(fdsolve, row.engine)(state, *heuristic, limit=row.limit)
        got = {"count": r.count, "exact": r.exact, "nodes": r.stats.nodes,
               "max_depth": r.stats.max_depth}
    print(json.dumps({**got, "seconds": time.perf_counter() - t0}))
