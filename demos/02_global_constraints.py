"""The global constraints: what each one prunes and when it entails."""
from fdsolve import (AllDifferent, Dfa, Linear, Regular, Slide, Table,
                     new_problem)
from fdsolve.propagators import EQ

print("all-different detects Hall sets via maximum matching:")
state = new_problem([{0, 1}, {0, 1}, {0, 1, 2}])
state.post(AllDifferent([0, 1, 2]))
state.propagate()
print("  w,x in {0,1} soak up both small values, so y =",
      sorted(state.domains[2]), "\n")

print("linear filtering is bounds reasoning:")
state = new_problem([set(range(11)), set(range(4))])
state.post(Linear((1, 1), (0, 1), EQ, 5))
state.propagate()
print("  x + y = 5 with x in 0..10, y in 0..3 narrows x to",
      sorted(state.domains[0]), "\n")

print("table constraints keep exactly the supported values:")
state = new_problem([{0}, {0, 1}])
state.post(Table((0, 1), [(0, 1), (1, 0)]))
state.propagate()
print("  tuples {(0,1),(1,0)} with x=0 force y =", sorted(state.domains[1]),
      "\n")

print("a regular constraint runs its word through an automaton:")
alternating = Dfa(2, 0, [0], {(0, 0): 1, (1, 1): 0})  # accepts (01)*
state = new_problem([{0, 1}] * 4)
state.post(Regular((0, 1, 2, 3), alternating))
state.propagate()
print("  (01)* over four binary variables leaves only",
      [state.value(x) for x in range(state.num_vars)], "\n")

print("slide re-applies one window relation along a sequence:")
state = new_problem([{0, 1}, {0}, {0, 1}])
state.post(Slide((0, 1, 2), 2, [(0, 1), (1, 0)]))
state.propagate()
print("  adjacent-differ windows with the middle pinned to 0 give",
      [state.value(x) for x in range(state.num_vars)])
