"""Constraint-graph reflection and independent partial problems.

A problem splits when the reflected constraint hypergraph falls apart.
Global constraints would glue everything together forever if they were
reflected as one big hyperedge, so each propagator reports its scope
split into the finest fragments its own structure justifies.
"""
import itertools

from fdsolve import AllDifferent, Linear, Neq, decompose_analysis, new_problem
from fdsolve.propagators import EQ


def splits(state):
    """Each stored propagator's scope split: the hyperedges it reflects."""
    return [sorted(e) for prop in state.propagators.values()
            for e in prop.hyperedges(state)]


def linked(state):
    """Constraint-bearing components; two or more make a decomposition."""
    return [sorted(c) for c in decompose_analysis(state).linked]


print("pairwise-different warm-up after root propagation:")
state = new_problem([{3, 5}, {3, 4}, {1, 2}, {1, 2}])
for i, j in itertools.combinations(range(4), 2):
    state.post(Neq(i, j))
state.propagate()
print("  hyperedges:", splits(state))
print("  linked components:", linked(state), "\n")

print("one global all-different over w,x in {0,1} and y,z in {2,3}:")
state = new_problem([{0, 1}, {0, 1}, {2, 3}, {2, 3}])
state.post(AllDifferent([0, 1, 2, 3]))
state.propagate()
print("  the variable-value graph has two components, so the single")
print("  constraint contributes two hyperedges:", splits(state))
print("  linked components:", linked(state), "\n")

print("a linear constraint never splits (every variable depends on all):")
state = new_problem([{0, 1, 2}] * 4)
state.post(Linear((1, 1, 1, 1), (0, 1, 2, 3), EQ, 4))
state.propagate()
print("  hyperedges:", splits(state))
print("  linked components:", linked(state))
