"""Command-line interface: counting, enumeration, model generators, and the
DFS-versus-decomposition benchmark harness."""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .model_io import (ModelDocument, ModelError, coloring_document,
                       parse_model, saw_document, serialize_model)
from .models import ColoringSpec, WalkSpec, erdos_renyi
from .search import (DEFAULT_HEURISTIC, CountResult, Heuristic, SearchTrace,
                     dds_count, dds_tree, dfs_count, dfs_enumerate, trace_dot,
                     tree_count, tree_expand)

DEFAULT_LIMIT = 10 ** 6


def _run_report(result: CountResult, engine: str, heuristic: Heuristic,
               form: str) -> str:
    """Lossless summary of a count run, as ``text`` or ``json``; the count
    is a decimal string.  Both forms list every ``SearchStats`` field
    after the four run fields."""
    fields = {"count": str(result.count), "exact": result.exact,
              "engine": engine, "heuristic": heuristic.value,
              **asdict(result.stats)}
    if form == "json":
        return json.dumps(fields, indent=2)
    lines = []
    for name, value in fields.items():
        if name == "exact":
            value = str(value).lower()
        elif name == "wall_time":
            value = f"{value:.4f}s"
        lines.append(f"{name.replace('_', ' '):<21}{value}")
    return "\n".join(lines)


def _limit(value: int) -> Optional[int]:
    # 0 disables the cut-off
    return None if value == 0 else value


def _load_model(path: str) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_count(args) -> int:
    doc = _load_model(args.model)
    state = doc.build_state()
    heuristic = Heuristic(args.heuristic)
    trace = SearchTrace(max_nodes=args.trace_max_nodes) if args.trace_dot else None
    if args.engine == "dds":
        result = dds_count(state, heuristic, limit=_limit(args.limit), trace=trace)
    else:
        result = dfs_count(state, heuristic, limit=_limit(args.limit), trace=trace)
    if trace is not None:
        with open(args.trace_dot, "w", encoding="utf-8") as fh:
            fh.write(trace_dot(trace) + "\n")
    print(_run_report(result, args.engine, heuristic, args.report))
    return 0


def _cmd_enumerate(args) -> int:
    if args.max_solutions < 1:
        raise ValueError("--max-solutions must be at least 1, "
                         f"got {args.max_solutions}")
    doc = _load_model(args.model)
    state = doc.build_state()
    heuristic = Heuristic(args.heuristic)
    names = doc.names
    if args.engine == "dds":
        result = dds_tree(state, heuristic, limit=args.max_solutions)
        solutions = tree_expand(result.tree, args.max_solutions)
        complete = result.exact and tree_count(result.tree) <= args.max_solutions
        stats = result.stats
    else:
        # one solution past the maximum tells whether the list is whole
        solutions, _, stats = dfs_enumerate(state, heuristic,
                                            args.max_solutions + 1)
        complete = len(solutions) <= args.max_solutions
    named = [{names[x]: v for x, v in sorted(sol.items())}
             for sol in solutions[:args.max_solutions]]
    if args.report == "json":
        print(json.dumps({"solutions": named, "complete": complete,
                          "engine": args.engine, "nodes": stats.nodes},
                         indent=2))
    else:
        for sol in named:
            print(" ".join(f"{k}={sol[k]}" for k in names if k in sol))
        print(f"# {len(named)} solution(s), complete={str(complete).lower()}")
    return 0


def _cmd_gen_coloring(args) -> int:
    graph = erdos_renyi(args.nodes, args.edge_prob, args.seed)
    doc = coloring_document(ColoringSpec(graph, args.colors))
    _write_output(serialize_model(doc), args.output)
    return 0


def _cmd_gen_saw(args) -> int:
    doc = saw_document(WalkSpec(args.length, args.bound))
    _write_output(serialize_model(doc), args.output)
    return 0


# -- benchmark harness ---------------------------------------------------------


@dataclass
class BenchRecord:
    edge_prob: float
    instance: int
    seed: int
    count: str
    exact: bool
    dfs_nodes: int
    dds_nodes: int
    dfs_time: float
    dds_time: float

    @property
    def node_ratio(self) -> float:
        return self.dfs_nodes / self.dds_nodes

    @property
    def time_ratio(self) -> float:
        return self.dfs_time / self.dds_time if self.dds_time > 0 else float("inf")


def run_bench(nodes: int, edge_probs: Sequence[float], colors: int,
              instances: int, seed: int,
              heuristic: Heuristic = DEFAULT_HEURISTIC,
              limit: Optional[int] = DEFAULT_LIMIT) -> list[BenchRecord]:
    """Count colorings of seeded random graphs with both engines and record
    per-instance search-tree-size and runtime ratios (DFS over the
    decomposing engine)."""
    if instances < 0:
        raise ValueError(f"instances must be at least 0, got {instances}")
    records = []
    for p in edge_probs:
        for i in range(instances):
            inst_seed = seed + i
            graph = erdos_renyi(nodes, p, inst_seed)
            root = coloring_document(ColoringSpec(graph, colors)).build_state()
            dfs = dfs_count(root, heuristic, limit=limit)
            dds = dds_count(root, heuristic, limit=limit)
            if dfs.exact and dds.exact and dfs.count != dds.count:
                raise AssertionError(
                    f"engine disagreement on p={p} seed={inst_seed}: "
                    f"{dfs.count} vs {dds.count}")
            records.append(BenchRecord(
                edge_prob=p, instance=i, seed=inst_seed, count=str(dds.count),
                exact=dds.exact,
                dfs_nodes=dfs.stats.nodes, dds_nodes=dds.stats.nodes,
                dfs_time=dfs.stats.wall_time, dds_time=dds.stats.wall_time))
    return records


def bench_aggregates(records: Sequence[BenchRecord]) -> dict[float, dict[str, float]]:
    out: dict[float, dict[str, float]] = {}
    for p in sorted({r.edge_prob for r in records}):
        rs = [r for r in records if r.edge_prob == p]
        out[p] = {
            "mean_node_ratio": statistics.fmean(r.node_ratio for r in rs),
            "mean_time_ratio": statistics.fmean(r.time_ratio for r in rs),
            "instances": len(rs),
        }
    return out


def _cmd_bench(args) -> int:
    heuristic = Heuristic(args.heuristic)
    t0 = time.perf_counter()
    records = run_bench(args.nodes, args.edge_prob or [0.20, 0.30, 0.40],
                        args.colors, args.instances, args.seed, heuristic,
                        _limit(args.limit))
    elapsed = time.perf_counter() - t0
    aggregates = bench_aggregates(records)
    if args.report == "json":
        print(json.dumps({
            "nodes": args.nodes, "colors": args.colors,
            "instances": args.instances, "seed": args.seed,
            "records": [r.__dict__ | {"node_ratio": r.node_ratio,
                                      "time_ratio": r.time_ratio}
                        for r in records],
            "aggregates": {str(p): agg for p, agg in aggregates.items()},
            "elapsed": elapsed}, indent=2))
    else:
        print(f"coloring bench: {args.nodes} nodes, {args.colors} colors, "
              f"{args.instances} instances per density, seed {args.seed}")
        print(f"{'p':>6} {'inst':>4} {'count':>12} {'dfs nodes':>10} "
              f"{'dds nodes':>10} {'ST ratio':>9} {'RT ratio':>9}")
        for r in records:
            print(f"{r.edge_prob:>6.2f} {r.instance:>4} {r.count:>12} "
                  f"{r.dfs_nodes:>10} {r.dds_nodes:>10} "
                  f"{r.node_ratio:>9.2f} {r.time_ratio:>9.2f}")
        print("aggregate DFS/DDS ratios:")
        for p, agg in aggregates.items():
            print(f"  p={p:.2f}  mean ST ratio {agg['mean_node_ratio']:.2f}  "
                  f"mean RT ratio {agg['mean_time_ratio']:.2f}")
        print(f"elapsed {elapsed:.1f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsolve",
        description="Finite-domain solution counting with plain and "
                    "decomposing depth-first search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solve_flags(p):
        p.add_argument("--model", required=True, help="model document path")
        p.add_argument("--engine", choices=["dfs", "dds"], default="dds")
        p.add_argument("--heuristic",
                       choices=[h.value for h in Heuristic],
                       default=DEFAULT_HEURISTIC.value)
        p.add_argument("--report", choices=["text", "json"], default="text")

    p_count = sub.add_parser("count", help="count all solutions")
    add_solve_flags(p_count)
    p_count.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                         help="full-solution cut-off (0 = none)")
    p_count.add_argument("--trace-dot", help="write the search tree as DOT")
    p_count.add_argument("--trace-max-nodes", type=int, default=5000)
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list solutions")
    add_solve_flags(p_enum)
    p_enum.add_argument("--max-solutions", type=int, default=DEFAULT_LIMIT)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_gc = sub.add_parser("gen-coloring",
                          help="emit a random graph-coloring model")
    p_gc.add_argument("--nodes", type=int, required=True)
    p_gc.add_argument("--edge-prob", type=float, required=True)
    p_gc.add_argument("--colors", type=int, required=True)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--output", help="path (default: stdout)")
    p_gc.set_defaults(func=_cmd_gen_coloring)

    p_gs = sub.add_parser("gen-saw",
                          help="emit a self-avoiding-walk model")
    p_gs.add_argument("--length", type=int, required=True,
                      help="number of chain monomers")
    p_gs.add_argument("--bound", type=int, default=None,
                      help="lattice box half-width (default: length)")
    p_gs.add_argument("--output", help="path (default: stdout)")
    p_gs.set_defaults(func=_cmd_gen_saw)

    p_bench = sub.add_parser("bench",
                             help="DFS vs decomposing search on random "
                                  "coloring instances")
    p_bench.add_argument("--nodes", type=int, default=15)
    p_bench.add_argument("--edge-prob", type=float, action="append",
                         help="density; repeat the flag for several",
                         default=None)
    p_bench.add_argument("--colors", type=int, default=3)
    p_bench.add_argument("--instances", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--heuristic",
                         choices=[h.value for h in Heuristic],
                         default=DEFAULT_HEURISTIC.value)
    p_bench.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p_bench.add_argument("--report", choices=["text", "json"], default="text")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a process killed by Ctrl-C
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
