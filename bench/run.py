"""fdsolve benchmark: coloring, self-avoiding walks and hub-and-rows
sequences, timed end to end and, in a separate traced run, per layer.

Run from the repository root:

    python3 bench/run.py --workload coloring --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload saw --seed 1 --seconds 30 --results a.json
    python3 bench/run.py --compare a.json b.json

A run is single-process and closed-loop.  It builds every instance of the
workload from the seed, then repeats rounds while another round fits into
``--seconds``.  A round takes the instances in turn and runs one job at a
time on each: ``dfs_count``, ``dds_count``, ``dds_tree`` + ``tree_expand``
and ``dfs_enumerate``.  Every result is checked against an independent
oracle.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
README.md in this directory lists the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# set-ups are repeated at least this often and for at least this long
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
PROPAGATORS = ("Neq", "AllDifferent", "Table", "Regular", "Slide")
JOB_KINDS = ("dfs", "dds", "enumerate")

# Speed calibration.  On a shared virtual machine the processor's speed
# drifts by 10-40% over seconds to minutes, and a whole run can land in a
# slow spell.  While jobs run, a SpeedProbe times a fixed pure-Python loop
# that shares no code with fdsolve every REF_EVERY_S.  Each round's wall
# seconds of each job kind, less the probe's own time, are scaled by
# REF_NOMINAL_S / (the loop's median time while that kind ran in that
# round).  The reported times are wall seconds at the speed at which the
# loop takes REF_NOMINAL_S, about its median on the 2-core machine the
# bench was tuned on.  Raw wall seconds go to standard error.
REF_NOMINAL_S = 0.002
REF_EVERY_S = 0.025


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return perf_counter() - t0


class SpeedProbe:
    """While active, times ``reference_loop`` REF_EVERY_S after the end of
    the previous sample, from a SIGALRM handler, so that long jobs are
    sampled while they run.  Samples are filed under ``kind``, the job kind
    the caller says is running; ``spent`` is the time they took, which
    callers subtract."""

    def __init__(self):
        # job kind running when sampled -> loop times
        self.refs: dict[str, list[float]] = {}
        self.kind = "setup"
        self.spent = 0.0
        self.active = False

    def sample(self, *_signal_args):
        t0 = perf_counter()
        self.refs.setdefault(self.kind, []).append(reference_loop())
        self.spent += perf_counter() - t0
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def speed(self, kind: str) -> float:
        """Median loop time while ``kind`` ran, or over every sample when
        that kind drew fewer than five."""
        own = self.refs.get(kind, [])
        if len(own) < 5:
            own = [t for ts in self.refs.values() for t in ts]
        return statistics.median(own)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)
        return self

    def __exit__(self, *_exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.refs:
            self.sample()


def load_fdsolve() -> None:
    """Import fdsolve from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fdsolve", "__init__.py")):
        raise SystemExit(f"error: no fdsolve sources under {SRC}")
    sys.path.insert(0, SRC)
    import fdsolve
    if os.path.dirname(os.path.dirname(os.path.abspath(fdsolve.__file__))) != SRC:
        raise SystemExit(f"error: imported fdsolve from {fdsolve.__file__}, "
                         f"not from {SRC}")


@dataclass
class Instance:
    key: str
    doc: object
    state: object
    oracle: int = 0


@dataclass
class Round:
    """One pass over every job of the workload."""

    # job kind -> summed wall seconds / counting engine -> summed nodes
    seconds: dict = field(default_factory=lambda: dict.fromkeys(JOB_KINDS, 0.0))
    nodes: dict = field(default_factory=lambda: {"dfs": 0, "dds": 0})
    # the machine's speed while this round's jobs ran
    probe: Optional["SpeedProbe"] = None
    # "<instance>:<job>" -> count and search statistics
    records: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0

    def scaled(self, kind: str) -> float:
        """Seconds of one job kind at the reference speed."""
        return self.seconds[kind] * REF_NOMINAL_S / self.probe.speed(kind)

    def solve_seconds(self) -> float:
        return sum(self.seconds.values())


class Bench:
    def __init__(self, name: str, seed: int):
        from fdsolve import search
        import workloads
        self.search = search
        self.workload = workloads.WORKLOADS[name]
        # the workload's generator, an attribute so the traced run can
        # time it as the models layer
        self.docs = self.workload.docs
        self.seed = seed
        self.heuristic = search.Heuristic.MAX_DEGREE_FIRST_FAIL
        # each job's record from its first round; later rounds must repeat it
        self.first_records: dict[str, dict] = {}

    # -- set-up: models + model_io --------------------------------------

    def setup(self) -> list[Instance]:
        """Generate, serialize, parse and build every instance."""
        from fdsolve import model_io
        out = []
        for key, doc in self.docs(self.seed):
            parsed = model_io.parse_model(model_io.serialize_model(doc))
            out.append(Instance(key, parsed, parsed.build_state()))
        return out

    def timed_setups(self) -> tuple[list[Instance], list[float], list[float]]:
        """Instances plus the raw and the speed-scaled seconds of each
        repeated set-up."""
        self.setup()  # warm-up: fills the generators' seed-free caches
        raw, scaled = [], []
        t_start = perf_counter()
        while (len(raw) < SETUP_REPEATS
               or perf_counter() - t_start < SETUP_SECONDS):
            gc.collect()
            with SpeedProbe() as probe:
                for _ in range(3):
                    probe.sample()
                spent = probe.spent
                t0 = perf_counter()
                instances = self.setup()
                raw.append(perf_counter() - t0 - (probe.spent - spent))
            scaled.append(raw[-1] * REF_NOMINAL_S / probe.speed("setup"))
        for inst in instances:
            inst.oracle = self.workload.oracle(inst.doc)
        return instances, raw, scaled

    # -- one round of jobs ----------------------------------------------

    def run_round(self, instances: list[Instance], probed=True) -> Round:
        """One pass over every job; ``probed`` samples the machine's speed
        while the jobs run (the traced rounds do without)."""
        search, h, wl = self.search, self.heuristic, self.workload
        rnd = Round()
        probe = SpeedProbe()

        def job(inst, name, kind, call, check):
            rnd.attempted += 1
            key = f"{inst.key}:{name}"
            probe.kind = kind
            spent = probe.spent
            t0 = perf_counter()
            try:
                result = call()
            except Exception:
                result = None
                problem = f"raised\n{traceback.format_exc()}"
            rnd.seconds[kind] += perf_counter() - t0 - (probe.spent - spent)
            if result is not None:
                record, problem = check(inst, result)
                rnd.records[key] = record
                first = self.first_records.setdefault(key, record)
                if not problem and record != first:
                    problem = f"gave {record}, its first round gave {first}"
            if problem:
                rnd.errors.append(f"{key}: {problem}")

        def tree_enumerate(inst):
            tree = search.dds_tree(inst.state, h, limit=wl.enum_k)
            return tree, search.tree_expand(tree.tree, wl.enum_k)

        gc.collect()
        with probe if probed else contextlib.nullcontext():
            for inst in instances:
                job(inst, "dfs_count", "dfs",
                    lambda: search.dfs_count(inst.state, h,
                                             limit=wl.dfs_limit),
                    lambda i, r: self._check_count(r, i, wl.dfs_limit, rnd,
                                                   "dfs"))
                job(inst, "dds_count", "dds",
                    lambda: search.dds_count(inst.state, h,
                                             limit=wl.dds_limit),
                    lambda i, r: self._check_count(r, i, wl.dds_limit, rnd,
                                                   "dds"))
                job(inst, "dds_tree", "enumerate",
                    lambda: tree_enumerate(inst), self._check_tree)
                job(inst, "dfs_enumerate", "enumerate",
                    lambda: search.dfs_enumerate(inst.state, h, wl.enum_k),
                    self._check_dfs_enumerate)
        rnd.probe = probe
        return rnd

    # -- checks: each returns (record, problem or None) ------------------

    @staticmethod
    def _stats(stats) -> dict:
        out = asdict(stats)
        del out["wall_time"]
        return out

    def _check_count(self, res, inst, limit, rnd, engine):
        rnd.nodes[engine] += res.stats.nodes
        record = {"count": str(res.count), "exact": res.exact,
                  **self._stats(res.stats)}
        want = inst.oracle
        if res.count > want:
            return record, f"count {res.count} exceeds the oracle's {want}"
        if res.exact != (limit is None or want <= limit):
            return record, (f"exact={res.exact} with oracle {want} and "
                            f"limit {limit}")
        if res.exact and res.count != want:
            return record, f"count {res.count}, oracle {want}"
        if not res.exact and res.count <= limit:
            return record, f"cut off at {res.count}, not past limit {limit}"
        return record, None

    def _check_tree(self, inst, result):
        tree, sols = result
        record = {"solutions": len(sols), "exact": tree.exact,
                  **self._stats(tree.stats)}
        if tree.exact != (inst.oracle <= self.workload.enum_k):
            return record, f"tree exact={tree.exact} with oracle {inst.oracle}"
        if tree.exact and self.search.tree_count(tree.tree) != inst.oracle:
            return record, "tree_count differs from the oracle"
        return record, self._check_solutions(sols, inst, self.workload.enum_k)

    def _check_dfs_enumerate(self, inst, result):
        sols, complete, stats = result
        record = {"solutions": len(sols), "exact": complete,
                  **self._stats(stats)}
        if complete != (inst.oracle < self.workload.enum_k):
            return record, f"complete={complete} with oracle {inst.oracle}"
        return record, self._check_solutions(sols, inst, self.workload.enum_k)

    @staticmethod
    def _check_solutions(sols, inst, k: int) -> Optional[str]:
        """Distinct, total, inside the declared domains, every posted
        constraint satisfied, and min(k, count) of them."""
        want = min(k, inst.oracle)
        if len(sols) != want:
            return f"{len(sols)} solutions, expected {want}"
        domains = [set(v.values) for v in inst.doc.variables]
        seen = set()
        for sol in sols:
            row = tuple(sol.get(x) for x in range(len(domains)))
            if len(sol) != len(domains) or any(
                    v not in d for v, d in zip(row, domains)):
                return f"solution {sol} is not a total assignment"
            if row in seen:
                return f"solution {sol} repeated"
            seen.add(row)
            for c in inst.doc.constraints:
                if not c.satisfied([row[x] for x in c.vars]):
                    return f"solution {sol} violates {c!r}"
        return None


def repeat(seconds: float, body) -> list:
    """Call ``body`` while another call fits in ``seconds`` (at least once);
    returns the results."""
    out, took = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(body())
        took.append(perf_counter() - t0)
        if perf_counter() - t_start + statistics.median(took) > seconds:
            return out


def end_to_end(bench: Bench, args) -> tuple[dict, list[Round]]:
    instances, raw_setup, setup = bench.timed_setups()
    rounds = repeat(args.seconds, lambda: bench.run_round(instances))
    med = statistics.median
    metrics = {
        "setup_s": (med(setup), "s"),
        "dfs_count_s": (med(r.scaled("dfs") for r in rounds), "s"),
        "dds_count_s": (med(r.scaled("dds") for r in rounds), "s"),
        "dfs_nodes_per_s": (med(r.nodes["dfs"] / r.scaled("dfs")
                                for r in rounds), "1/s"),
        "dds_nodes_per_s": (med(r.nodes["dds"] / r.scaled("dds")
                                for r in rounds), "1/s"),
        "enumerate_s": (med(r.scaled("enumerate") for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print("raw wall seconds (median over rounds): setup "
          f"{med(raw_setup):.4f}, " + ", ".join(
              f"{kind} {med(r.seconds[kind] for r in rounds):.4f}"
              for kind in JOB_KINDS), file=sys.stderr)
    return metrics, rounds


def layer_targets(bench: Bench):
    """(owner, attribute, span name, counts prunings) per layer boundary."""
    from fdsolve import engine, graph, model_io, propagators, search
    targets = [
        (engine.ProblemState, "clone", "engine.clone", False),
        (engine.ProblemState, "propagate", "engine.propagate", False),
        (graph, "build_constraint_graph", "graph.build_constraint_graph", False),
        (search, "build_constraint_graph", "graph.build_constraint_graph", False),
        (graph, "components", "graph.components", False),
        (graph, "decompose_analysis", "graph.decompose_analysis", False),
        (search, "decompose_analysis", "graph.decompose_analysis", False),
        (search, "choose", "search.choose", False),
        (search, "order_components", "search.order_components", False),
        (search, "dfs_count", "search.dfs", False),
        (search, "dds_count", "search.dds", False),
        (search, "dds_tree", "search.dds_tree", False),
        (search, "tree_expand", "search.tree_expand", False),
        (search, "dfs_enumerate", "search.dfs_enumerate", False),
        (model_io, "serialize_model", "model_io.serialize", False),
        (model_io, "parse_model", "model_io.parse", False),
        (model_io.ModelDocument, "build_state", "model_io.build_state", False),
        (bench, "docs", "models.build", False),
    ]
    for name in PROPAGATORS:
        cls = getattr(propagators, name)
        targets.append((cls, "filter", f"propagators.{name}.filter", True))
        targets.append((cls, "hyperedges", f"propagators.{name}.hyperedges",
                        False))
    return targets


# spans whose children are wrapped too report self time, the rest total time
SELF_TIMED = {"engine.propagate", "graph.build_constraint_graph",
              "graph.decompose_analysis", "search.dfs", "search.dds",
              "search.choose", "search.order_components", "search.dds_tree",
              "search.dfs_enumerate"}
SOLVE_LAYERS = ("search", "engine", "propagators", "graph")


def per_layer(bench: Bench, args) -> tuple[dict, list[Round], list[str]]:
    """Untraced and traced rounds in pairs; per-layer numbers are medians
    over the traced rounds, boundary checks use the first of them."""
    import spans
    from fdsolve import search
    rec = spans.Recorder()
    factory = spans.CountingFactory(search.PropagationCounters)
    instances, _raw, _scaled = bench.timed_setups()
    samples: list[dict] = []
    plain: list[Round] = []
    traced: list[Round] = []
    first_calls: dict[str, int] = {}
    shares: dict[str, float] = {}

    def pair():
        plain.append(bench.run_round(instances))
        rec.reset()
        factory.made.clear()
        rec.patch(layer_targets(bench))
        search.PropagationCounters = factory
        try:
            rec.check_lookups("fdsolve", skip=("fdsolve.cli",))
            bench.setup()
            rnd = bench.run_round(instances, probed=False)
        finally:
            rec.unpatch()
            search.PropagationCounters = factory.cls
        traced.append(rnd)
        samples.append(layer_sample(rec, factory, rnd))
        if not first_calls:
            first_calls.update(rec.calls)
            shares.update(layer_shares(rec))

    repeat(args.seconds, pair)
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_value, unit) in samples[0].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(
        t.solve_seconds() / p.solve_seconds() for p, t in zip(plain, traced)),
        "ratio")
    problems = [f"traced run saw no call at layer boundary {b}"
                for b in bench.workload.boundaries if not first_calls.get(b)]
    coverage = metrics["trace.self_coverage"][0]
    if not 0.5 < coverage <= 1.0 + 1e-9:
        problems.append(f"span self times cover {coverage:.3f} of the traced "
                        f"solve time: spans double count or miss work")
    print("layer self-time shares: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()),
        file=sys.stderr)
    return metrics, plain + traced, problems


def layer_shares(rec) -> dict[str, float]:
    own = {layer: sum(v for k, v in rec.self_s.items()
                      if k.split(".")[0] == layer) for layer in SOLVE_LAYERS}
    total = sum(own.values())
    return {layer: v / total for layer, v in own.items()}


def layer_sample(rec, factory, rnd: Round) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    calls, total, own = rec.calls, rec.total_s, rec.self_s

    def timing(span, with_calls=True):
        if with_calls:
            out[f"{span}.calls"] = (calls.get(span, 0), "count")
        if span in SELF_TIMED:
            out[f"{span}.self_s"] = (own.get(span, 0.0), "s")
        else:
            out[f"{span}.s"] = (total.get(span, 0.0), "s")

    timing("engine.clone")
    timing("engine.propagate")
    out["engine.propagations"] = (sum(c.propagations for c in factory.made),
                                  "count")
    out["engine.domain_events"] = (sum(c.domain_events for c in factory.made),
                                   "count")
    for name in PROPAGATORS:
        span = f"propagators.{name}.filter"
        timing(span)
        n = calls.get(span, 0)
        out[f"{span}.prune_ratio"] = (rec.pruned.get(span, 0) / n if n else 0.0,
                                      "ratio")
        timing(f"propagators.{name}.hyperedges")
    for span in ("graph.build_constraint_graph", "graph.components",
                 "graph.decompose_analysis"):
        timing(span)

    def records(kind):
        return [r for k, r in rnd.records.items() if k.endswith(":" + kind)]

    analyses = calls.get("graph.decompose_analysis", 0)
    splits = sum(r["decomposition_nodes"]
                 for r in records("dds_count") + records("dds_tree"))
    out["graph.split_ratio"] = (splits / analyses if analyses else 0.0, "ratio")
    for engine in ("dfs", "dds"):
        rs = records(f"{engine}_count")
        prefix = f"search.{engine}"
        for name in ("nodes", "choice_nodes", "decomposition_nodes", "fails"):
            out[f"{prefix}.{name}"] = (sum(r[name] for r in rs), "count")
        out[f"{prefix}.max_depth"] = (max((r["max_depth"] for r in rs),
                                          default=0), "count")
        nodes = out[f"{prefix}.nodes"][0]
        out[f"{prefix}.fail_ratio"] = (out[f"{prefix}.fails"][0] / nodes
                                       if nodes else 0.0, "ratio")
        out[f"{prefix}.self_s"] = (own.get(prefix, 0.0), "s")
    timing("search.choose")
    timing("search.order_components")
    for span in ("search.dds_tree", "search.tree_expand",
                 "search.dfs_enumerate", "models.build", "model_io.serialize",
                 "model_io.parse", "model_io.build_state"):
        timing(span, with_calls=False)
    solve_self = sum(v for k, v in own.items()
                     if k.split(".")[0] in SOLVE_LAYERS)
    out["trace.self_coverage"] = (solve_self / rnd.solve_seconds(), "ratio")
    return out


# -- result files and compare mode --------------------------------------------


def write_results(path: str, args, rounds: list[Round]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "jobs": rounds[0].records}, fh, indent=1, sort_keys=True)
        fh.write("\n")


# fields that define what was computed; any other field is a statistic
RESULT_FIELDS = ("count", "exact", "solutions")


def compare(old_path: str, new_path: str) -> int:
    """Exit 1 on any job or count difference; list statistics differences."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    failures, stat_diffs = [], []
    for name in ("workload", "seed"):
        if old[name] != new[name]:
            failures.append(f"{name}: {old[name]} vs {new[name]}")
    for key in sorted(set(old["jobs"]) | set(new["jobs"])):
        a, b = old["jobs"].get(key), new["jobs"].get(key)
        if a is None or b is None:
            failures.append(f"{key}: only in {old_path if b is None else new_path}")
            continue
        for name in sorted(set(a) | set(b)):
            if a.get(name) == b.get(name):
                continue
            line = f"{key}: {name} {a.get(name)} -> {b.get(name)}"
            (failures if name in RESULT_FIELDS else stat_diffs).append(line)
    for line in stat_diffs:
        print(f"statistics differ: {line}")
    for line in failures:
        print(f"RESULT DIFFERS: {line}")
    print(f"{len(old['jobs'])} jobs compared: {len(failures)} result and "
          f"{len(stat_diffs)} statistics differences")
    return 1 if failures else 0


# -- entry point ------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("coloring", "saw", "sequence"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", metavar="PATH",
                    help="write every job's count and search statistics")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two --results files and exit")
    args = ap.parse_args(argv)
    if not args.compare and not args.workload:
        ap.error("--workload is required unless --compare is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    load_fdsolve()
    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics, rounds, problems = per_layer(bench, args)
    else:
        (metrics, rounds), problems = end_to_end(bench, args), []
    if args.results:
        write_results(args.results, args, rounds)
    errors = [e for r in rounds for e in r.errors]
    for line in errors + problems:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = len(errors)
    correct = not errors and not problems
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} jobs, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
