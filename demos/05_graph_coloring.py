"""Counting proper colorings of random graphs, checked against
deletion-contraction, plus a miniature density sweep.

Sparse graphs decompose often during search, so the decomposing engine
wins big there; dense graphs stay connected and the gap narrows.
"""
from fdsolve import (ColoringSpec, chromatic_oracle, coloring_document,
                     dds_count, dfs_count, erdos_renyi, maximal_cliques)
from fdsolve.cli import bench_aggregates, run_bench

g = erdos_renyi(9, 0.35, seed=4)
print(f"random graph: 9 nodes, {len(g.edges)} edges")
big = [c for c in maximal_cliques(g) if len(c) > 2]
print(f"maximal cliques of size > 2: {[sorted(c) for c in big]}")

k = 3
state = coloring_document(ColoringSpec(g, k)).build_state()
print(f"\nproper {k}-colorings:")
print("  deletion-contraction oracle:", chromatic_oracle(g, k))
print("  plain DFS:                  ", dfs_count(state).count)
print("  decomposing engine:         ", dds_count(state).count)

print("\ndensity sweep (12 nodes, 3 colors, 8 instances per density):")
records = run_bench(nodes=12, edge_probs=[0.20, 0.30, 0.40], colors=3,
                    instances=8, seed=1)
for p, agg in bench_aggregates(records).items():
    print(f"  p={p:.2f}: mean search-tree ratio DFS/DDS = "
          f"{agg['mean_node_ratio']:7.2f}")
print("(the full benchmark lives in `fdsolve bench`)")
