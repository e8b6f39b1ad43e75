"""Domains, propagation, and entailment on a four-variable warm-up.

A in {3,5}, B in {3,4}, C and D in {1,2}, all pairwise different.  Watch
what one round of propagation does to the constraint store.
"""
import itertools

from fdsolve import Neq, new_problem

state = new_problem([{3, 5}, {3, 4}, {1, 2}, {1, 2}])
names = "ABCD"
for i, j in itertools.combinations(range(4), 2):
    state.post(Neq(i, j))

print("before propagation:")
for i, name in enumerate(names):
    print(f"  {name} in {sorted(state.domains[i])}")
print(f"  active constraints: {len(state.propagators)}")

status = state.propagate()

print(f"\nafter propagation: {status.value}")
for i, name in enumerate(names):
    print(f"  {name} in {sorted(state.domains[i])}")
print(f"  active constraints: {len(state.propagators)}")
print("""
No domain changed, but four of the six inequalities vanished: A-C, A-D,
B-C and B-D compare disjoint domains, so they hold no matter what and
their propagators are entailed away.  Only A!=B and C!=D can still act.
""")

print("a write marks its variable, and propagate wakes its propagators:")
probe = state.clone()
probe.tell_eq(0, 3)
probe.propagate()
print(f"  after A=3: B in {sorted(probe.domains[1])} (the clone changed,")
print(f"  the original still has B in {sorted(state.domains[1])})")

probe = state.clone()
probe.remove_value(2, 2)
probe.remove_value(3, 2)
print(f"  after C!=2, D!=2: propagate() -> {probe.propagate().value}")
