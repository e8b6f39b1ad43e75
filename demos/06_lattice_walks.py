"""Self-avoiding chain placements on the square lattice.

One variable per chain monomer over integer-coded lattice points, a
neighbour table per consecutive pair, and one global all-different for
self-avoidance.  The all-different's internal split is what lets these
models decompose at all: it covers every variable, so without it the
constraint graph would never fall apart.
"""
from fdsolve import (WalkSpec, dds_count, dfs_count, lattice_point,
                     saw_document, saw_walk_count, dds_tree, tree_expand)

print("walks from the origin (first monomer pinned):")
print(f"  {'monomers':>8} {'steps':>5} {'oracle':>7} {'dfs':>7} {'dds':>7} "
      f"{'dfs nodes':>9} {'dds nodes':>9}")
for length in range(1, 7):
    oracle = saw_walk_count(length)
    state = saw_document(WalkSpec(length)).build_state()
    dfs = dfs_count(state)
    dds = dds_count(state)
    print(f"  {length:>8} {length - 1:>5} {oracle:>7} {dfs.count:>7} "
          f"{dds.count:>7} {dfs.stats.nodes:>9} {dds.stats.nodes:>9}")

spec = WalkSpec(4)
result = dds_tree(saw_document(spec).build_state())
print("\na few 3-step walks, decoded back to lattice points:")
for sol in tree_expand(result.tree, 4):
    walk = [lattice_point(sol[i], spec.bound) for i in range(spec.length)]
    print("  " + " -> ".join(str(p) for p in walk))
