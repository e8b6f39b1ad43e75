"""One integer policy at every public entry point: a value or count is
converted with ``operator.index``, so every integral type is taken as the
int it stands for, and anything else raises a ``TypeError`` that names the
constraint or the argument; a count below its least value raises a
``ValueError``."""
import enum
import itertools

import pytest

from fdsolve import (EQ, LEQ, AllDifferent, ColoringSpec, Dfa, Linear, Neq,
                     Regular, SearchTrace, Slide, Table, UGraph, WalkSpec,
                     chromatic_oracle, dds_count, dds_tree, dfs_count,
                     dfs_enumerate, erdos_renyi, new_problem, saw_walk_count,
                     tree_count, tree_expand)
from fdsolve.cli import run_bench

ONE_TWO = Dfa(2, 0, [1], {(0, 1): 1, (1, 2): 1})


def small_state():
    state = new_problem([{0, 1, 2}, {0, 1, 2}])
    state.post(Neq(0, 1))
    return state


def a_tree():
    return dds_tree(small_state()).tree


# each entry point, given one non-integer ``bad`` where an integer belongs,
# and the constraint and argument its message names
SITES = {
    "new_problem": (lambda bad: new_problem([[0, bad], [1]]),
                    "new_problem: domains"),
    "Neq": (lambda bad: Neq(0, bad), "Neq: vars"),
    "Linear-coefficient": (lambda bad: Linear([1, bad], [0, 1], LEQ, 1),
                           "Linear: coeffs"),
    "Linear-variable": (lambda bad: Linear([1], [bad], LEQ, 1),
                        "Linear: vars"),
    "Linear-rhs": (lambda bad: Linear([1], [0], EQ, bad), "Linear: rhs"),
    "AllDifferent": (lambda bad: AllDifferent([0, bad]),
                     "AllDifferent: vars"),
    "Table-variable": (lambda bad: Table((0, bad), [(0, 1)]),
                       "Table: vars"),
    "Table-tuple": (lambda bad: Table((0, 1), [(0, 1), (1, bad)]),
                    "Table: tuples"),
    "Dfa-state_count": (lambda bad: Dfa(bad, 0, [0], {}),
                        "Dfa: state_count"),
    "Dfa-start": (lambda bad: Dfa(2, bad, [0], {}), "Dfa: start"),
    "Dfa-final": (lambda bad: Dfa(2, 0, [bad], {}), "Dfa: finals"),
    "Dfa-transition": (lambda bad: Dfa(2, 0, [0], {(0, bad): 1}),
                       "Dfa: transitions"),
    "Regular": (lambda bad: Regular((0, bad), ONE_TWO), "Regular: vars"),
    "Slide-width": (lambda bad: Slide((0, 1, 2), bad, [(0, 1)]),
                    "Slide: width"),
    "Slide-tuple": (lambda bad: Slide((0, 1, 2), 2, [(bad, 1)]),
                    "Slide: tuples"),
    "UGraph": (lambda bad: UGraph(bad, []), "UGraph: n"),
    "UGraph-edge": (lambda bad: UGraph(3, [(0, 2), (bad, 1)]),
                    "UGraph: edges"),
    "erdos_renyi": (lambda bad: erdos_renyi(bad, 0.5, 1), "erdos_renyi: n"),
    "ColoringSpec": (lambda bad: ColoringSpec(UGraph(2, [(0, 1)]), bad),
                     "ColoringSpec: colors"),
    "WalkSpec-length": (WalkSpec, "WalkSpec: length"),
    "WalkSpec-bound": (lambda bad: WalkSpec(2, bad), "WalkSpec: bound"),
    "chromatic_oracle": (lambda bad: chromatic_oracle(UGraph(2, [(0, 1)]),
                                                      bad),
                         "chromatic_oracle: k"),
    "saw_walk_count": (saw_walk_count, "saw_walk_count: length"),
    "dfs_count-limit": (lambda bad: dfs_count(small_state(), limit=bad),
                        "limit"),
    "dds_count-limit": (lambda bad: dds_count(small_state(), limit=bad),
                        "limit"),
    "dds_tree-limit": (lambda bad: dds_tree(small_state(), limit=bad),
                       "limit"),
    "dfs_enumerate-max_solutions": (
        lambda bad: dfs_enumerate(small_state(), max_solutions=bad),
        "max_solutions"),
    "SearchTrace-max_nodes": (lambda bad: SearchTrace(max_nodes=bad),
                              "max_nodes"),
    "tree_expand-max_solutions": (lambda bad: tree_expand(a_tree(), bad),
                                  "max_solutions"),
    "run_bench-instances": (lambda bad: run_bench(3, [0.5], 2, bad, 1),
                            "instances"),
}


@pytest.mark.parametrize("bad", [1.0, 2.5, "1"], ids=["float-1", "float",
                                                      "string"])
@pytest.mark.parametrize("site", SITES)
def test_a_non_integer_raises_a_type_error_naming_the_argument(site, bad):
    make, what = SITES[site]
    with pytest.raises(TypeError) as raised:
        make(bad)
    assert str(raised.value) == (f"{what}: '{type(bad).__name__}' object "
                                 "cannot be interpreted as an integer")


# each count argument below its least value
@pytest.mark.parametrize("make, message", [
    (lambda: dfs_count(small_state(), limit=-1),
     "limit must be at least 0, got -1"),
    (lambda: dds_count(small_state(), limit=-1),
     "limit must be at least 0, got -1"),
    (lambda: dds_tree(small_state(), limit=-1),
     "limit must be at least 0, got -1"),
    (lambda: dfs_enumerate(small_state(), max_solutions=0),
     "max_solutions must be at least 1, got 0"),
    (lambda: SearchTrace(max_nodes=-1), "max_nodes must be at least 0, got -1"),
    (lambda: tree_expand(a_tree(), -1),
     "max_solutions must be at least 0, got -1"),
], ids=["dfs_count", "dds_count", "dds_tree", "dfs_enumerate", "SearchTrace",
        "tree_expand"])
def test_a_negative_count_raises_a_value_error(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


def test_integral_values_are_the_ints_they_stand_for():
    # bools, IntEnum members and generators of them, everywhere an integer
    # is taken, build the model that plain ints build, holding exact ints
    state = new_problem([(v for v in (False, True, Colour.GREEN)),
                         {0, Colour.RED, 2}, [0, 1, 2], [True, 2]])
    assert state.domains == [frozenset({0, 1, 2})] * 3 + [frozenset({1, 2})]
    parity = {(0, 0): 0, (0, 1): 1, (0, 2): 0, (1, 0): 1, (1, 1): 0, (1, 2): 1}
    # symbols 1 and 2 as members
    dfa = Dfa(Colour.GREEN, False, [False, True],
              {(q, Colour(s) if s else s): r for (q, s), r in parity.items()})
    steps = [(0, 1), (1, 2), (1, 0), (2, 1), (0, 2)]
    posted = [Neq(False, Colour.RED),
              Linear([True, 1], [0, Colour.GREEN], LEQ, 3),
              Slide((1, 2, 3), Colour.GREEN, [(True, 2), *steps[:2], *steps]),
              Regular((0, True), dfa), AllDifferent((Colour.RED, 3))]
    assert posted == [Neq(0, 1), Linear([1, 1], [0, 2], LEQ, 3),
                      Slide((1, 2, 3), 2, steps),
                      Regular((0, 1), Dfa(2, 0, [0, 1], parity)),
                      AllDifferent((1, 3))]
    numbers = [v for d in state.domains for v in d]
    numbers += [v for con in posted for v in con.vars]
    numbers += [*posted[1].coeffs, posted[1].rhs, posted[2].width,
                dfa.state_count, dfa.start, *dfa.finals,
                *(v for (q, s), r in dfa.transitions.items() for v in (q, s, r)),
                SearchTrace(max_nodes=Colour.GREEN).max_nodes]
    graph = UGraph(Colour.GREEN, [(False, Colour.RED)])
    walk = WalkSpec(Colour.RED, Colour.GREEN)
    numbers += [graph.n, *itertools.chain(*graph.edges), walk.length,
                walk.bound, ColoringSpec(graph, Colour.GREEN).colors]
    assert graph == UGraph(2, [(0, 1)]) and walk == WalkSpec(1, 2)
    assert {type(v) for v in numbers} == {int}
    for con in posted:
        state.post(con)
    # the counts take integral values too
    assert dfs_count(state).count == dds_count(state).count == 5
    for engine in dfs_count, dds_count:
        result = engine(state, limit=True)
        assert (result.count, result.exact) == (2, False)
    result = dds_tree(state, limit=Colour.GREEN)
    assert (tree_count(result.tree), result.exact) == (3, False)
    assert len(tree_expand(result.tree, True)) == 1
    solutions, complete, _ = dfs_enumerate(state, max_solutions=Colour.GREEN)
    assert (len(solutions), complete) == (2, False)
