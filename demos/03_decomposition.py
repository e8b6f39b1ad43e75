"""Constraint-graph reflection and independent partial problems.

A problem splits when the reflected constraint hypergraph falls apart.
Global constraints would glue everything together forever if they were
reflected as one big hyperedge, so each propagator reports its scope
split into the finest fragments its own structure justifies.
"""
import itertools

from fdsolve import (AllDifferent, Linear, Neq, build_constraint_graph,
                     components, decompose_analysis, new_problem)
from fdsolve.propagators import EQ


def linked(state):
    """Constraint-bearing components; two or more make a decomposition."""
    return [sorted(c) for c in decompose_analysis(state).linked]


print("pairwise-different warm-up after root propagation:")
state = new_problem([{3, 5}, {3, 4}, {1, 2}, {1, 2}])
for i, j in itertools.combinations(range(4), 2):
    state.post(Neq(i, j))
state.propagate()
graph = build_constraint_graph(state)
print("  hyperedges:", [sorted(e) for e in graph.edges])
print("  components:", [sorted(c) for c in components(graph)])
print("  linked components:", linked(state), "\n")

print("one global all-different over w,x in {0,1} and y,z in {2,3}:")
state = new_problem([{0, 1}, {0, 1}, {2, 3}, {2, 3}])
state.post(AllDifferent([0, 1, 2, 3]))
state.propagate()
graph = build_constraint_graph(state)
print("  the variable-value graph has two components, so the single")
print("  constraint contributes two hyperedges:",
      [sorted(e) for e in graph.edges])
print("  linked components:", linked(state), "\n")

print("a linear constraint never splits (every variable depends on all):")
state = new_problem([{0, 1, 2}] * 4)
state.post(Linear((1, 1, 1, 1), (0, 1, 2, 3), EQ, 4))
state.propagate()
print("  hyperedges:",
      [sorted(e) for e in build_constraint_graph(state).edges])
print("  linked components:", linked(state))
