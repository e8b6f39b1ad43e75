"""Search-identity gates, one table row each; ``-k`` selects rows.

    python -m pytest tests/identity_gates.py -v

Each row runs the benchmark harness, ``bench/run.py --seconds 1``, on one
workload at one seed in a child process, which must exit 0.  Every job's
count and search statistics must then equal the committed seed-1 or
seed-7 results in ``tests/data/``, so a change to a search tree fails
here.  A seed-1 row runs with ``--trace 1``, and its traced propagation
and domain-event counters must equal ``tests/data/trace_seed1_engine.json``,
so a change to what propagation does fails too.  The ``sequence`` rows run
again with every propagator memo capped at 0 entries, so each ``Slide``
and ``Regular`` outcome, its split included, is computed afresh: the memos
must change no search tree, and no traced counter either.  The file's name
is not ``test_*.py``, so tier-1 does not collect it; the eight rows take
about 30 s.
"""
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
SAME = "compared: 0 result and 0 statistics differences"

# bench/run.py run as a script, its own directory first on the path, after
# every propagator memo is capped at 0 entries
CAPPED = """\
import runpy, sys
import fdsolve.propagators
fdsolve.propagators._MEMO_CAP = 0
sys.path.insert(0, "bench")
sys.argv = ["bench/run.py", *sys.argv[1:]]
runpy.run_path("bench/run.py", run_name="__main__")
"""


class Row(NamedTuple):
    workload: str
    seed: int          # seed 1 runs traced
    capped: bool = False


ROWS = {f"{row.workload}-seed{row.seed}{'-nomemo' if row.capped else ''}": row
        for row in [
    *(Row(workload, seed) for seed in (1, 7)
      for workload in ("coloring", "saw", "sequence")),
    *(Row("sequence", seed, capped=True) for seed in (1, 7)),
]}


def bench(*args, capped=False) -> subprocess.CompletedProcess:
    """Run bench/run.py with ``args`` from the checkout's root, with every
    propagator memo capped at 0 entries if ``capped``."""
    script = ["-c", CAPPED] if capped else ["bench/run.py"]
    return subprocess.run([sys.executable, *script, *args], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True)


def test_row(name, row, tmp_path):
    results = tmp_path / "results.json"
    traced = ["--trace", "1"] if row.seed == 1 else []
    run = bench("--workload", row.workload, "--seed", str(row.seed),
                "--seconds", "1", "--results", str(results), *traced,
                capped=row.capped)
    assert run.returncode == 0, run.stderr
    compare = bench("--compare",
                    str(DATA / f"bench_seed{row.seed}_{row.workload}.json"),
                    str(results))
    print(compare.stdout, end="")
    assert SAME in compare.stdout
    if traced:
        metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
        want = json.loads((DATA / "trace_seed1_engine.json").read_text())
        want = want[row.workload]
        assert {k: metrics[k]["value"] for k in want} == want


def pytest_generate_tests(metafunc):
    # one test per row, named by its id, as in deep_gates.py
    metafunc.parametrize("name, row", ROWS.items(), ids=ROWS)
