import dataclasses
import enum
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdsolve import (EQ, LEQ, AllDifferent, Dfa, Heuristic, Linear, Neq,
                     ProblemState, Regular, Slide, StateStatus, Table,
                     dds_count, dfs_count, new_problem, propagators)
from fdsolve.propagators import (ENTAILED, FAILED, STABLE, PropagationResult,
                                 _max_matching, _Memo, _regin, _supports,
                                 _tarjan)

from randcsp import (product_structure_ok, random_state,
                     random_state_with_slide, support_filtered_domains)


def run_filter(state, prop):
    state.post(prop)
    return state.propagate()


# -- neq ---------------------------------------------------------------------


def test_neq_assigned_side_prunes_and_entails():
    state = new_problem([{3}, {3, 4}])
    prop = Neq(0, 1)
    state.post(prop)
    assert prop.filter(state) is PropagationResult.ENTAILED
    assert sorted(state.domains[1]) == [4]


def test_neq_disjoint_entails_without_pruning():
    state = new_problem([{3, 5}, {1, 2}])
    prop = Neq(0, 1)
    # disjointness oracle: no shared value
    assert state.domains[0].isdisjoint(state.domains[1])
    assert prop.filter(state) is PropagationResult.ENTAILED
    assert sorted(state.domains[0]) == [3, 5]


def test_neq_both_assigned_equal_fails():
    state = new_problem([{1}, {1}])
    assert Neq(0, 1).filter(state) is PropagationResult.FAILED


# -- linear ------------------------------------------------------------------


def test_linear_bounds_pruning():
    state = new_problem([set(range(11)), set(range(4))])
    assert run_filter(state, Linear((1, 1), (0, 1), EQ, 5)) \
        is StateStatus.BRANCHABLE
    assert sorted(state.domains[0]) == [2, 3, 4, 5]
    assert sorted(state.domains[1]) == [0, 1, 2, 3]


def test_linear_entailed_when_bounds_guarantee():
    state = new_problem([{0, 1, 2, 3}, {0, 1, 2, 3}])
    prop = Linear((1, 1), (0, 1), LEQ, 100)
    state.post(prop)
    assert prop.filter(state) is PropagationResult.ENTAILED


def test_linear_failed_when_bounds_exclude():
    state = new_problem([set(range(5, 10)), set(range(5, 10))])
    assert Linear((1, 1), (0, 1), EQ, 1).filter(state) \
        is PropagationResult.FAILED


def test_linear_validation():
    with pytest.raises(ValueError):
        Linear((0, 1), (0, 1), EQ, 3)  # zero coefficient
    with pytest.raises(ValueError):
        Linear((), (), EQ, 3)  # empty
    with pytest.raises(ValueError):
        Linear((1, 1), (0, 0), EQ, 3)  # repeated variable


def test_linear_never_removes_supported_value():
    # bounds filtering may keep unsupported values, but must never drop a
    # supported one
    import random
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        doms = [set(rng.sample(range(-2, 7), rng.randint(2, 4)))
                for _ in range(n)]
        cs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
        rhs = rng.randint(-6, 12)
        prop = Linear(cs, tuple(range(n)), rng.choice([EQ, LEQ]), rhs)
        state = new_problem(doms)
        supported = support_filtered_domains(state, prop)
        state.post(prop)
        status = state.propagate()
        if supported is None:
            continue  # bounds reasoning need not detect hole-only conflicts
        assert status is not StateStatus.FAILED
        checked += 1
        for x, values in supported.items():
            for v in values:
                assert v in state.domains[x]
    assert checked > 20


def reference_linear_filter(self, state):
    """``Linear.filter`` removing each pruned value with its own
    ``remove_value`` call: the reference for its one-pass pruning."""
    while True:
        lo, hi = self._bounds(state)
        if lo > self.rhs:
            return FAILED
        if self.rel == EQ and hi < self.rhs:
            return FAILED
        changed = False
        for a, x in zip(self.coeffs, self.vars):
            d = state.domains[x]
            if a > 0:
                term_lo, term_hi = a * min(d), a * max(d)
            else:
                term_lo, term_hi = a * max(d), a * min(d)
            # residual interval for the term a*x
            ub = self.rhs - (lo - term_lo)
            lb = (self.rhs - (hi - term_hi)) if self.rel == EQ else None
            for v in d:
                t = a * v
                if t > ub or (lb is not None and t < lb):
                    if state.remove_value(x, v):
                        changed = True
            if state.failed:
                return FAILED
        if not changed:
            break
    lo, hi = self._bounds(state)
    if self.rel == LEQ:
        return ENTAILED if hi <= self.rhs else STABLE
    if lo == hi == self.rhs:
        return ENTAILED
    return STABLE


@st.composite
def linear_cases(draw):
    n = draw(st.integers(1, 4))
    doms = [draw(st.sets(st.integers(-300, 300), min_size=1, max_size=300))
            for _ in range(n)]
    coeffs = tuple(draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                 min_size=n, max_size=n)))
    rel = draw(st.sampled_from([EQ, LEQ]))
    rhs = draw(st.integers(-600 * n, 600 * n))
    return doms, Linear(coeffs, tuple(range(n)), rel, rhs)


@settings(max_examples=300, deadline=None)
@given(linear_cases())
def test_linear_filter_matches_value_by_value_removal(case):
    # the same status, final domains, domain events and changed variables
    # as removing each value on its own; a failed state's count of unfixed
    # variables is never read
    doms, prop = case
    got, want = new_problem(doms), new_problem(doms)
    assert prop.filter(got) is reference_linear_filter(prop, want)
    assert got.domains == want.domains
    assert got.counters.domain_events == want.counters.domain_events
    assert got._changed == want._changed
    assert got.failed == want.failed
    if not got.failed:
        assert got._unfixed == want._unfixed


# -- alldifferent -------------------------------------------------------------


def test_alldiff_hall_pruning():
    state = new_problem([{0, 1}, {0, 1}, {0, 1, 2}])
    assert run_filter(state, AllDifferent([0, 1, 2])) is StateStatus.BRANCHABLE
    assert sorted(state.domains[2]) == [2]


def test_alldiff_decomposable_but_stable():
    state = new_problem([{0, 1}, {0, 1}, {2, 3}, {2, 3}])
    prop = AllDifferent([0, 1, 2, 3])
    state.post(prop)
    assert prop.filter(state) is PropagationResult.STABLE
    assert all(len(d) == 2 for d in state.domains)
    assert [sorted(e) for e in prop.hyperedges(state)] == [[0, 1], [2, 3]]


def test_alldiff_duplicate_assignment_fails():
    state = new_problem([{1}, {1}, {0, 2}])
    assert AllDifferent([0, 1, 2]).filter(state) is PropagationResult.FAILED


def test_alldiff_entailed_when_assigned_distinct():
    state = new_problem([{1}, {2}, {3}])
    assert AllDifferent([0, 1, 2]).filter(state) is PropagationResult.ENTAILED


def test_alldiff_entailed_when_pairwise_disjoint():
    state = new_problem([{0, 1}, {2, 3}, {4, 5}])
    assert AllDifferent([0, 1, 2]).filter(state) is PropagationResult.ENTAILED


def test_alldiff_long_augmenting_path_needs_no_recursion():
    # variable i takes i, until the last variable's 0 is held by variable 0:
    # its augmenting path then runs through every variable, and under a
    # recursion limit just above the current depth a recursive matching
    # would fail.  Every value keeps a matching, so nothing is pruned.
    n = 300
    doms = [{i, i + 1} for i in range(n - 1)] + [{0, -1}]
    state = new_problem(doms)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        status = run_filter(state, AllDifferent(range(n)))
    finally:
        sys.setrecursionlimit(saved)
    assert status is StateStatus.BRANCHABLE
    assert state.domains == doms


@st.composite
def alldiff_domains(draw):
    # sparse: values from up to 40, most of them matched to no variable;
    # tight: no more values than variables, so Hall sets and failures occur.
    # Domain sizes keep the brute-force oracle's product under 20,000.
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        values = draw(st.integers(n, 40))
    else:
        values = draw(st.integers(1, n))
    size = min(values, int(20000 ** (1 / n)))
    return draw(st.lists(st.sets(st.integers(0, values - 1), min_size=1,
                                 max_size=size), min_size=n, max_size=n))


def value_graph_components(doms):
    """Variable groups of the connected components of the variable-value
    graph, by a union-find over variable and value nodes."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            a = parent[a]
        return a

    for i, d in enumerate(doms):
        for v in d:
            parent[find(("v", v))] = find(("x", i))
    groups = {}
    for i, d in enumerate(doms):
        if len(d) != 1:
            groups.setdefault(find(("x", i)), set()).add(i)
    return sorted(groups.values(), key=min)


@settings(max_examples=300, deadline=None)
@given(alldiff_domains())
def test_alldiff_filter_and_split_against_oracles(doms):
    state = new_problem(doms)
    prop = AllDifferent(range(len(doms)))
    assert [set(e) for e in prop.hyperedges(state)] \
        == value_graph_components(doms)
    expected = support_filtered_domains(state, prop)
    result = prop.filter(state)
    if expected is None:
        assert result is PropagationResult.FAILED
        return
    assert result is not PropagationResult.FAILED
    assert state.domains == [expected[x] for x in prop.vars]
    assert [set(e) for e in prop.hyperedges(state)] \
        == value_graph_components(state.domains)
    # one call reaches the fixpoint: a second one prunes nothing
    filtered = list(state.domains)
    assert prop.filter(state) is result
    assert all(a is b for a, b in zip(state.domains, filtered))


def reference_alldiff_filter(prop, state):
    """``AllDifferent.filter`` without its short-cuts: Régin's pass over the
    whole scope on every call, assigned variables included, pruning each
    variable in scope order and its values in domain iteration order."""
    n = len(prop.vars)
    doms = [state.domains[x] for x in prop.vars]
    matched = _max_matching(doms)
    if matched is None:
        return FAILED
    match_of_var, match_of_val = matched

    # Régin's digraph (matched edges var->val, the others val->var)
    # with each variable merged into its matched value: y -> x iff x
    # can take m(y); pred[x] lists those y in the order of D(x)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for x, d in enumerate(doms):
        for v in d:
            y = match_of_val.get(v)
            if y is not None and y != x:
                succ[y].append(x)
                pred[x].append(y)
    # the seeds: variables that can take a free value, a value of D(x)
    # other than m(x) and the m(y) of its predecessors
    reached = [len(d) > len(ys) + 1 for d, ys in zip(doms, pred)]
    stack = [x for x in range(n) if reached[x]]
    while stack:
        for w in succ[stack.pop()]:
            if not reached[w]:
                reached[w] = True
                stack.append(w)

    # an edge (x, m(y)) survives iff y is reached or shares x's SCC; a
    # cycle through an unreached variable stays unreached, so the SCCs
    # are taken over those alone, and a reached x is in none of them
    unreached = [u for u in range(n) if not reached[u]]
    if unreached:
        # a reached variable's successors are reached too, so only
        # unreached variables keep arcs here; without any, every SCC is
        # a single variable
        arcs = [[w for w in ws if not reached[w]] for ws in succ]
        scc = _tarjan(arcs, unreached) if any(arcs) else range(n)
        for i in range(n):
            for j in pred[i]:
                if not reached[j] and scc[i] != scc[j]:
                    state.remove_value(prop.vars[i], match_of_var[j])
        if state.failed:
            return FAILED
        doms = [state.domains[x] for x in prop.vars]

    # pairwise disjoint domains, assigned ones among them, entail it
    if sum(map(len, doms)) == len(set().union(*doms)):
        return ENTAILED
    return STABLE


class RemovalLog(ProblemState):
    """A state that logs every write as the variable and the set of values
    it removes: every write, ``remove_value`` too, goes through ``narrow``."""

    __slots__ = ("removals",)

    def __init__(self, domains):
        super().__init__(domains)
        self.removals = []

    def narrow(self, x, kept):
        self.removals.append((x, set(self.domains[x] - kept)))
        super().narrow(x, kept)


def losses(removals):
    """The values each variable lost, the variables in the order of their
    first removal."""
    lost = {}
    for x, gone in removals:
        lost.setdefault(x, set()).update(gone)
    return list(lost.items())


def assert_filters_agree(doms, scope):
    """The filter and ``reference_alldiff_filter`` give the same status,
    the same values lost by each variable in the same scope order, the
    same final domains and the same number of domain events; the filter
    writes each shrunk domain once.  Which value leaves a domain first is
    not observable through the state."""
    prop = AllDifferent(scope)
    got, want = RemovalLog(doms), RemovalLog(doms)
    result = prop.filter(got)
    assert result is reference_alldiff_filter(prop, want)
    assert losses(got.removals) == losses(want.removals)
    assert len(got.removals) == len(losses(got.removals))
    assert got.domains == want.domains
    assert got.counters.domain_events == want.counters.domain_events
    return result, got


@st.composite
def alldiff_domains_with_assigned(draw):
    # alldiff_domains with 0..n of its variables fixed to a value of the
    # union of the domains, so two of them may share one
    doms = draw(alldiff_domains())
    values = sorted(set().union(*doms))
    for i in draw(st.sets(st.integers(0, len(doms) - 1))):
        doms[i] = {draw(st.sampled_from(values))}
    return doms


@settings(max_examples=400, deadline=None)
@given(st.one_of(alldiff_domains(), alldiff_domains_with_assigned()),
       st.data())
def test_alldiff_filter_matches_reference_removal_by_removal(doms, data):
    # a shuffled scope, so scope order and variable order differ
    assert_filters_agree(doms, data.draw(st.permutations(range(len(doms)))))


# 25 values whose iteration order is not ascending: 512 comes before 135
LARGE = set(range(0, 200, 9)) | {512, 1000}


@pytest.mark.parametrize("doms, result, regin", [
    ([{1}, {2}, {3}], ENTAILED, False),
    ([{1}, {1}, {0, 1, 2}], FAILED, False),
    ([{0}, {1}, {0, 1}], FAILED, True),
    ([{0}, {0, 1, 2}, {1, 2}, {1, 2}], FAILED, True),
    ([{2}, {0, 1, 2}, {1, 2, 3}], STABLE, False),
    ([{0, 1}, {0, 1, 2}, {0, 1, 2}], STABLE, False),
    ([{0, 1}, {0, 1}, {0, 1, 2}], STABLE, True),
    ([{1000}, LARGE], ENTAILED, False),
    ([{512}, {135}, LARGE], ENTAILED, False),
    ([{135, 512}, {135, 512}, LARGE], STABLE, True),
], ids=["all-assigned-distinct", "assigned-share-a-value",
        "open-inside-assigned", "hall-set-after-stripping",
        "stripping-prunes-in-scope-order", "sizes-2-3-3-pass",
        "sizes-2-2-3-go-to-regin", "one-value-leaves-a-large-domain",
        "stripped-values-leave-in-domain-order",
        "regin-prunes-in-domain-order"])
def test_alldiff_strip_and_size_test_cases(doms, result, regin, monkeypatch):
    runs = []

    def counted(rest):
        runs.append(rest)
        return _regin(rest)

    monkeypatch.setattr(propagators, "_regin", counted)
    for scope in ([0, 1, 2, 3][:len(doms)], [3, 2, 1, 0][-len(doms):]):
        runs.clear()
        got, state = assert_filters_agree(doms, scope)
        assert got is result
        assert bool(runs) is regin
        if result is FAILED:
            assert state.removals == []


def reference_alldiff_split(prop, state):
    """The split by a union-find over every scope variable, assigned ones
    and their values included, restricted to the unassigned variables."""
    doms = [state.domains[x] for x in prop.vars]
    parent = list(range(len(doms)))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    owner = {}
    for i, d in enumerate(doms):
        for v in d:
            j = owner.setdefault(v, i)
            if j != i:
                parent[find(j)] = find(i)
    groups = {}
    for i, x in enumerate(prop.vars):
        if len(doms[i]) != 1:
            groups.setdefault(find(i), []).append(x)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(alldiff_domains(), alldiff_domains_with_assigned()),
       st.data())
def test_alldiff_split_matches_union_find_over_whole_scope(doms, data):
    # the split takes the open variables alone, on states where an open
    # domain may hold an assigned value and at the filter's fixpoint, where
    # none does
    prop = AllDifferent(data.draw(st.permutations(range(len(doms)))))
    state = new_problem(doms)
    assert prop.hyperedges(state) == reference_alldiff_split(prop, state)
    if prop.filter(state) is not FAILED:
        assert prop.hyperedges(state) == reference_alldiff_split(prop, state)


# -- table --------------------------------------------------------------------


def test_table_forced_support():
    state = new_problem([{0}, {0, 1}])
    assert run_filter(state, Table((0, 1), [(0, 1), (1, 0)])) \
        is StateStatus.SOLVED
    assert sorted(state.domains[1]) == [1]


def test_table_full_product_entailed():
    state = new_problem([{0, 1}, {2, 3}])
    prop = Table((0, 1), list(itertools.product([0, 1], [2, 3])))
    state.post(prop)
    assert prop.filter(state) is PropagationResult.ENTAILED


def test_table_empty_fails():
    state = new_problem([{0, 1}, {0, 1}])
    assert Table((0, 1), []).filter(state) is PropagationResult.FAILED
    # no positions: only the empty tuple is a solution
    assert Table((), []).filter(new_problem([])) is PropagationResult.FAILED
    assert Table((), [()]).filter(new_problem([])) \
        is PropagationResult.ENTAILED


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


@pytest.mark.parametrize("make", [
    lambda rows: Table((0, 1), rows),
    lambda rows: Slide((0, 1, 2), 2, rows),
], ids=["table", "slide"])
@pytest.mark.parametrize("rows", [
    lambda: [[1, 2], [2, 1]],
    lambda: (iter(t) for t in [(1, 2), (2, 1)]),
    lambda: [(True, 2), (2, True)],
    lambda: [(Colour.RED, Colour.GREEN), [Colour.GREEN, 1]],
], ids=["lists", "generators", "bools", "intenum"])
def test_tuples_are_stored_as_exact_int_tuples(make, rows):
    tuples = make(rows()).tuples
    assert isinstance(tuples, frozenset)
    assert tuples == {(1, 2), (2, 1)}
    assert all(type(t) is tuple and all(type(v) is int for v in t)
               for t in tuples)


# each invalid input with the exception and message it raises; where an
# input has two defects, the message of the check that runs first wins:
# variables, then Slide's width, then the values, then the arity
def case(make, error, message, id):
    return pytest.param(make, error, message, id=id)


NOT = " object cannot be interpreted as an integer"
WIDTH = "Slide: window width must be in 1..len(vars)"


@pytest.mark.parametrize("make, error, message", [
    case(lambda: Table((0, 1), [(1, 2, 3)]), ValueError,
         "Table: tuple arity mismatch", "table-arity"),
    case(lambda: Table((0,), [(1,), ()]), ValueError,
         "Table: tuple arity mismatch", "table-empty-row"),
    case(lambda: Table((0, 0), [(1, 2)]), ValueError,
         "Table: variables must be pairwise distinct, got (0, 0)",
         "table-repeated-var"),
    case(lambda: Table((0, -1), [(1, 2)]), ValueError,
         "Table: negative variable index in (0, -1)", "table-negative-var"),
    case(lambda: Table(("a",), [(1,)]), TypeError,
         "Table: vars: 'str'" + NOT, "table-var-literal"),
    case(lambda: Table((0, 1), [("x", 1)]), TypeError,
         "Table: tuples: 'str'" + NOT, "table-value-literal"),
    case(lambda: Table((0, 1), [1, 2]), TypeError,
         "'int' object is not iterable", "table-row-not-iterable"),
    case(lambda: Table((0, 1), None), TypeError,
         "'NoneType' object is not iterable", "table-tuples-none"),
    case(lambda: Table((0, 0), [(1, 2, 3)]), ValueError,
         "Table: variables must be pairwise distinct, got (0, 0)",
         "table-repeated-var-and-arity"),
    case(lambda: Table((0, -1), [(1, 2, 3)]), ValueError,
         "Table: negative variable index in (0, -1)",
         "table-negative-var-and-arity"),
    case(lambda: Table((0, 1), [(1, "x"), (1, 2, 3)]), TypeError,
         "Table: tuples: 'str'" + NOT, "table-literal-then-arity"),
    case(lambda: Table((0, 1), [(1, 2, 3), (1, "x")]), TypeError,
         "Table: tuples: 'str'" + NOT, "table-arity-then-literal"),
    case(lambda: Slide((0, 1), 3, [(0, 0, 0)]), ValueError, WIDTH,
         "slide-width-too-large"),
    case(lambda: Slide((0, 1), 0, []), ValueError, WIDTH, "slide-width-zero"),
    case(lambda: Slide((), 1, [(0,)]), ValueError, WIDTH, "slide-no-vars"),
    case(lambda: Slide((0, 1, 2), 2, [(0, 0, 0)]), ValueError,
         "Slide: tuple arity mismatch", "slide-arity"),
    case(lambda: Slide((0, 1), "x", [(0,)]), TypeError,
         "Slide: width: 'str'" + NOT, "slide-width-literal"),
    case(lambda: Slide((0, 1), 3, [(0, 0)]), ValueError, WIDTH,
         "slide-width-and-arity"),
    case(lambda: Slide((0, 0), 1, [(0, 0)]), ValueError,
         "Slide: variables must be pairwise distinct, got (0, 0)",
         "slide-repeated-var-and-arity"),
    case(lambda: Slide((0, 1), 2, [(0, "x"), (0,)]), TypeError,
         "Slide: tuples: 'str'" + NOT, "slide-literal-and-arity"),
    # a relation built for one arity, handed to a constraint of another
    case(lambda: Table((0, 1, 2), Table((0, 1), [(1, 2)]).tuples),
         ValueError, "Table: tuple arity mismatch",
         "table-relation-of-other-arity"),
    case(lambda: Slide((0, 1, 2), 3, Table((0, 1), [(1, 2)]).tuples),
         ValueError, "Slide: tuple arity mismatch",
         "slide-relation-of-other-arity"),
])
def test_table_arity_validation(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert str(raised.value) == message


def test_constraints_over_one_relation_share_it_and_its_adjacency():
    first = Table((0, 1), [(0, 1), (1, 0)])
    second = Table((2, 3), first.tuples)
    row = Slide((4, 5, 6), 2, first.tuples)
    assert second.tuples is first.tuples and row.tuples is first.tuples
    assert second._adjacency is first._adjacency
    # an equal relation built apart has an adjacency of its own
    apart = Table((0, 1), [(0, 1), (1, 0)])
    assert apart.tuples == first.tuples
    assert apart._adjacency is not first._adjacency
    assert apart._adjacency == first._adjacency
    # a binary Table filters through its relation's adjacency, shared by
    # every Table over it, and caches nothing else on the relation
    pair = Table((0, 1), [(0, 1), (1, 0)])
    again = Table((1, 2), pair.tuples)
    assert pair.filter(new_problem([{0, 1}] * 2)) is STABLE
    assert again._adjacency is pair._adjacency
    assert pair._adjacency is pair.tuples._adjacency
    assert set(vars(pair.tuples)) == {"_adjacency"}
    assert pair._adjacency == ({0: {1}, 1: {0}}, {0: {1}, 1: {0}})
    # a Table of other than two variables and a Slide scan the tuples and
    # cache nothing on the relation
    triple = Table((0, 1, 2), [(0, 1, 0), (1, 0, 1)])
    assert triple.filter(new_problem([{0, 1}] * 3)) is STABLE
    slide = Slide((0, 1, 2), 2, [(0, 1), (1, 0)])
    assert slide.filter(new_problem([{0, 1}] * 3)) is STABLE
    assert vars(triple.tuples) == {} and vars(slide.tuples) == {}


@st.composite
def binary_table_cases(draw):
    # domains and tuple values over -3..12, wider than table_cases': some
    # tuples hold values outside the domains, some domain values have no
    # tuple, and a relation may be empty
    values = st.integers(-3, 12)
    doms = draw(st.lists(st.sets(values, min_size=1), min_size=2, max_size=2))
    tuples = draw(st.sets(st.tuples(values, values), max_size=40))
    return doms, tuples


@settings(max_examples=300, deadline=None)
@given(binary_table_cases())
def test_binary_table_filter_matches_tuple_scan(case):
    # the adjacency kernel keeps what the scan of the same relation's live
    # tuples keeps, and reports the same outcome
    doms, tuples = case
    state = new_problem(doms)
    table = Table((0, 1), tuples)
    before = list(state.domains)
    valid, support = _supports(table.tuples, before)
    result = table.filter(state)
    if not valid:
        assert result is FAILED and state.domains == before
        return
    assert state.domains == support
    assert result is (ENTAILED if valid == math.prod(map(len, support))
                      else STABLE)


@st.composite
def table_cases(draw):
    # domains over 0..4 and tuple values over -1..5: some tuples hold values
    # outside the domains, and some domain values have no tuple; a table
    # over no variables holds the empty tuple or nothing, and takes no tells
    arity = draw(st.sampled_from([0, 1, 2, 3]))
    doms = draw(st.lists(st.sets(st.integers(0, 4), min_size=1),
                         min_size=arity, max_size=arity))
    tuples = draw(st.lists(st.tuples(*[st.integers(-1, 5)] * arity),
                           max_size=25))
    tells = draw(st.lists(st.tuples(st.sampled_from(["eq", "neq"]),
                                    st.integers(0, max(arity - 1, 0)),
                                    st.integers(0, 4)),
                          max_size=4 if arity else 0))
    return doms, tuples, tells


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_table_filter_against_naive_supports(case):
    doms, tuples, tells = case
    state = new_problem(doms)
    prop = Table(range(len(doms)), tuples)
    # filter once on the initial domains, then again after each tell
    for tell in [None] + tells:
        if tell is not None:
            op, x, v = tell
            (state.tell_eq if op == "eq" else state.remove_value)(x, v)
        before = [set(d) for d in state.domains]
        live = {t for t in tuples
                if all(v in d for v, d in zip(t, before))}
        result = prop.filter(state)
        if not live:
            assert result is PropagationResult.FAILED
            assert state.domains == before  # failed before any narrow
            return
        assert state.domains == [{t[i] for t in live}
                                 for i in range(len(doms))]
        combos = set(itertools.product(*state.domains))
        expected = PropagationResult.ENTAILED if combos <= live \
            else PropagationResult.STABLE
        assert result is expected


# -- regular ------------------------------------------------------------------


def zero_one_alternating_dfa():
    # accepts (01)*
    return Dfa(2, 0, [0], {(0, 0): 1, (1, 1): 0})


def test_regular_forces_unique_word():
    # derived oracle: of the 16 binary words of length 4, only 0101 is
    # accepted by (01)*
    dfa = zero_one_alternating_dfa()
    accepted = [w for w in itertools.product([0, 1], repeat=4)
                if dfa.accepts(w)]
    assert accepted == [(0, 1, 0, 1)]
    state = new_problem([{0, 1}] * 4)
    assert run_filter(state, Regular((0, 1, 2, 3), dfa)) is StateStatus.SOLVED
    assert state.domains == [{0}, {1}, {0}, {1}]


def test_regular_universal_dfa_entailed():
    dfa = Dfa(1, 0, [0], {(0, 0): 0, (0, 1): 0})
    state = new_problem([{0, 1}] * 3)
    prop = Regular((0, 1, 2), dfa)
    state.post(prop)
    assert prop.filter(state) is PropagationResult.ENTAILED
    assert all(len(d) == 2 for d in state.domains)


def test_regular_unreachable_finals_fail():
    dfa = Dfa(2, 0, [1], {(0, 0): 0})
    state = new_problem([{0}])
    assert Regular((0,), dfa).filter(state) is PropagationResult.FAILED


def test_regular_memory_follows_transitions_not_declared_states():
    # two transitions among a million declared states: the unfolding must
    # not build anything per declared state
    tracemalloc.start()
    try:
        dfa = Dfa(10 ** 6, 0, [0], {(0, 1): 1, (1, 0): 0})
        state = new_problem([{0, 1}] * 4)
        result = Regular(range(4), dfa).filter(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is PropagationResult.ENTAILED
    assert state.domains == [{1}, {0}, {1}, {0}]
    assert peak < 1 << 20


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(1, 1, [0], {})
    with pytest.raises(ValueError):
        Dfa(1, 0, [2], {})
    with pytest.raises(ValueError):
        Dfa(1, 0, [0], {(0, 0): 3})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2)), max_size=9),
       st.lists(st.integers(0, 2), max_size=3), st.randoms())
def test_dfa_and_regular_hash_agrees_with_eq(states, moves, finals, rng):
    # the same automaton, its transitions and finals given in another
    # order, is equal and hashes equal; so does a Regular over it
    transitions = {(q % states, s): r % states for q, s, r in moves}
    finals = [f % states for f in finals]
    shuffled = list(transitions.items())
    rng.shuffle(shuffled)
    a = Dfa(states, 0, finals, transitions)
    b = Dfa(states, 0, reversed(finals), dict(shuffled))
    assert a == b and hash(a) == hash(b)
    assert hash(Regular((0, 1), a)) == hash(Regular([0, 1], b))
    other = Dfa(states, 0, finals, {**transitions, (0, 3): 0})
    assert other != a
    assert len({a, b, other}) == 2


def brute_force_runs(vars_, doms, tied):
    """The unassigned variables of ``vars_`` cut into fragments wherever
    ``tied[p]`` says position p is not tied to position p + 1."""
    fragments, run = [], []
    for p, x in enumerate(vars_):
        if len(doms[x]) != 1:
            run.append(x)
        if (p == len(vars_) - 1 or not tied[p]) and run:
            fragments.append(frozenset(run))
            run = []
    return fragments


@st.composite
def regular_cases(draw):
    states = draw(st.integers(1, 3))
    transitions = draw(st.dictionaries(
        st.tuples(st.integers(0, states - 1), st.integers(0, 2)),
        st.integers(0, states - 1)))
    finals = draw(st.sets(st.integers(0, states - 1)))
    n = draw(st.integers(1, 5))
    doms = draw(st.lists(st.sets(st.integers(0, 2), min_size=1),
                         min_size=n, max_size=n))
    return Dfa(states, 0, finals, transitions), doms


@settings(max_examples=300, deadline=None)
@given(regular_cases())
def test_regular_filter_and_split_against_brute_force(case):
    dfa, doms = case
    n = len(doms)
    prop = Regular(range(n), dfa)
    words = [w for w in itertools.product(*map(sorted, doms))
             if dfa.accepts(w)]
    state = new_problem(doms)
    result = prop.filter(state)
    if not words:
        assert result is PropagationResult.FAILED
        return
    # pruned to the symbols of the accepted words, and entailed exactly
    # when every word of the pruned domains is accepted
    assert state.domains == [{w[i] for w in words} for i in range(n)]
    every = all(map(dfa.accepts, itertools.product(*state.domains)))
    assert result is (PropagationResult.ENTAILED if every
                      else PropagationResult.STABLE)
    # the automaton states the accepted words pass through; the scope
    # splits after position p when a single state is live there
    live = [set() for _ in range(n + 1)]
    for w in words:
        q = dfa.start
        for i, symbol in enumerate(w, 1):
            q = dfa.transitions[q, symbol]
            live[i].add(q)
    want = brute_force_runs(prop.vars, state.domains,
                            [len(live[p + 1]) != 1 for p in range(n)])
    assert prop.hyperedges(state) == want
    # through propagate, with the split read from the memo
    kept = new_problem(doms)
    h = kept.post(prop)
    kept.propagate()
    assert kept.domains == state.domains
    if h in kept.propagators:
        assert prop.hyperedges(kept) == want


@st.composite
def long_regular_models(draw):
    """One Regular over 6-10 positions, a random 2-4 state DFA over 3-4
    symbols, and a few Neq between its variables."""
    n = draw(st.integers(6, 10))
    symbols = range(draw(st.integers(3, 4)))
    states = draw(st.integers(2, 4))
    # each transition is there with probability states / (states + 1)
    targets = draw(st.lists(st.integers(-1, states - 1),
                            min_size=states * len(symbols),
                            max_size=states * len(symbols)))
    transitions = {qs: r for qs, r in zip(
        itertools.product(range(states), symbols), targets) if r >= 0}
    finals = draw(st.sets(st.integers(0, states - 1), min_size=1))
    doms = draw(st.lists(st.sets(st.sampled_from(symbols), min_size=1),
                         min_size=n, max_size=n))
    # at most 20,000 words, so the oracle can list them
    while math.prod(map(len, doms)) > 20_000:
        max(doms, key=len).pop()
    vars_ = draw(st.permutations(range(n)))
    neqs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True), max_size=3))
    return Dfa(states, 0, finals, transitions), vars_, doms, neqs


def accepted_words(dfa, doms):
    """Every word over ``doms`` that ``dfa`` accepts, by walking its
    transitions."""
    words = []

    def walk(q, prefix):
        if len(prefix) == len(doms):
            if q in dfa.finals:
                words.append(tuple(prefix))
            return
        for s in sorted(doms[len(prefix)]):
            r = dfa.transitions.get((q, s))
            if r is not None:
                walk(r, prefix + [s])

    walk(dfa.start, [])
    return words


def regular_cuts(dfa, doms):
    """The positions 1..n-1 before which every accepted word over ``doms``
    passes through one automaton state; none when no word is accepted."""
    live = [set() for _ in range(len(doms) + 1)]
    for w in accepted_words(dfa, doms):
        q = dfa.start
        for i, symbol in enumerate(w, 1):
            q = dfa.transitions[q, symbol]
            live[i].add(q)
    return {i for i in range(1, len(doms)) if len(live[i]) == 1}


def memo_outcome(prop, doms):
    """The outcome that the memo of ``prop`` stores for the scope domains
    ``doms``."""
    key = tuple(doms)
    assert key in prop._outcomes
    return prop._outcomes[key]


def regular_neq_fixpoint(doms, prop, neqs):
    """The domains filtered to the values of the accepted words and by each
    Neq with a fixed side, over and over until none changes, or None once
    one empties."""
    doms = [set(d) for d in doms]
    while True:
        words = accepted_words(prop.dfa, [doms[x] for x in prop.vars])
        if not words:
            return None
        before = [set(d) for d in doms]
        for i, x in enumerate(prop.vars):
            doms[x] = {w[i] for w in words}
        for a, b in neqs:
            for fixed, other in ((a, b), (b, a)):
                if len(doms[fixed]) == 1:
                    doms[other] -= doms[fixed]
        if not all(doms):
            return None
        if doms == before:
            return doms


@settings(max_examples=200, deadline=None)
@given(long_regular_models(), st.data())
def test_regular_slot_cuts_and_fixpoint_through_search(model, data):
    # through clones, one or two tells and propagate, up to 6 times: the
    # outcome memo holds the current domains with the positions where every
    # accepted word passes through one automaton state, and the domains
    # are the joint fixpoint of the words
    dfa, vars_, doms, neqs = model
    prop = Regular(vars_, dfa)
    state = new_problem(doms)
    h = state.post(prop)
    for a, b in neqs:
        state.post(Neq(a, b))
    status = state.propagate()
    want = regular_neq_fixpoint(doms, prop, neqs)
    for _ in range(data.draw(st.integers(1, 6))):
        assert (status is StateStatus.FAILED) is (want is None)
        if want is None:
            return
        assert state.domains == want
        scope = tuple(state.domains[x] for x in prop.vars)
        if h in state.propagators:
            edges = prop.hyperedges(state)
            # a stored propagator's outcome is stable and narrows
            # nothing, and its split breaks the open positions before
            # each layer where every accepted word passes through one
            # automaton state; the split read is the stored one
            status, split, *narrowed = memo_outcome(prop, scope)
            assert status is STABLE and not narrowed
            cuts = sum(1 << i for i in regular_cuts(dfa, scope))
            assert list(split) == edges == reference_runs(prop, scope, cuts)
        else:
            assert all(map(dfa.accepts, itertools.product(
                *(sorted(state.domains[x]) for x in prop.vars))))
        if status is StateStatus.SOLVED:
            return
        state = state.clone()
        for _ in range(data.draw(st.integers(1, 2))):
            free = [x for x in range(len(doms)) if len(state.domains[x]) > 1]
            if not free:
                break
            x = data.draw(st.sampled_from(free))
            v = data.draw(st.sampled_from(sorted(state.domains[x])))
            (state.tell_eq if data.draw(st.booleans())
             else state.remove_value)(x, v)
        want = regular_neq_fixpoint(state.domains, prop, neqs)
        status = state.propagate()


# -- slide ---------------------------------------------------------------------


def test_slide_window_pruning():
    # windows must differ; middle variable assigned 0 forces both ends to 1
    state = new_problem([{0, 1}, {0}, {0, 1}])
    assert run_filter(state, Slide((0, 1, 2), 2, [(0, 1), (1, 0)])) \
        is StateStatus.SOLVED
    assert state.domains == [{1}, {0}, {1}]


def test_slide_single_window_is_table():
    rows = [(0, 1), (1, 0)]
    for doms in ([{0}, {0, 1}], [{0, 1}, {0, 1}], [{1}, {1}]):
        s_slide = new_problem([set(d) for d in doms])
        s_table = new_problem([set(d) for d in doms])
        r1 = run_filter(s_slide, Slide((0, 1), 2, rows))
        r2 = run_filter(s_table, Table((0, 1), rows))
        assert r1 == r2
        assert [sorted(d) for d in s_slide.domains] == \
            [sorted(d) for d in s_table.domains]


def test_slide_empty_tuples_fail():
    state = new_problem([{0, 1}] * 3)
    assert Slide((0, 1, 2), 2, []).filter(state) is PropagationResult.FAILED


def test_slide_width_validation():
    with pytest.raises(ValueError):
        Slide((0, 1), 3, [(0, 0, 0)])


@st.composite
def slide_models(draw):
    n = draw(st.integers(2, 6))
    width = draw(st.integers(1, min(3, n)))
    doms = draw(st.lists(st.sets(st.integers(0, 3), min_size=1),
                         min_size=n, max_size=n))
    tuples = draw(st.lists(st.tuples(*[st.integers(0, 3)] * width),
                           max_size=30))
    return doms, width, tuples


@settings(max_examples=150, deadline=None)
@given(slide_models())
def test_slide_counts_like_chain_of_tables(model):
    doms, width, tuples = model
    n = len(doms)
    slid, chained = new_problem(doms), new_problem(doms)
    slid.post(Slide(range(n), width, tuples))
    for w in range(n - width + 1):
        chained.post(Table(range(w, w + width), tuples))
    for count in (dds_count, dfs_count):
        assert count(slid).count == count(chained).count


@st.composite
def dense_slide_models(draw):
    # all but a few tuples allowed: windows entail often, but not all
    n = draw(st.integers(3, 6))
    width = draw(st.integers(2, 3))
    doms = draw(st.lists(st.sets(st.integers(0, 3), min_size=1),
                         min_size=n, max_size=n))
    banned = draw(st.sets(st.tuples(*[st.integers(0, 3)] * width),
                          min_size=1, max_size=8))
    tuples = set(itertools.product(range(4), repeat=width)) - banned
    return doms, width, sorted(tuples)


@settings(max_examples=300, deadline=None)
@given(st.one_of(slide_models(), dense_slide_models()), st.data())
def test_slide_split_against_window_entailment(model, data):
    doms, width, tuples = model
    n, m = len(doms), len(doms) - width + 1
    prop = Slide(range(n), width, tuples)
    state = new_problem(doms)
    h = state.post(prop)
    tells = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                                         st.integers(0, 3)), max_size=3))
    for tell in [None] + tells:
        if tell is not None:
            eq, x, v = tell
            (state.tell_eq if eq else state.remove_value)(x, v)
        if state.propagate() is not StateStatus.BRANCHABLE \
                or h not in state.propagators:
            return
        # a position stands alone when every window over it is entailed,
        # and is then tied to neither neighbour
        entailed = [set(itertools.product(*state.domains[w:w + width]))
                    <= set(tuples) for w in range(m)]
        alone = [all(entailed[max(0, p - width + 1):p + 1])
                 for p in range(n)]
        tied = [p + 1 < n and not alone[p] and not alone[p + 1]
                for p in range(n)]
        want = brute_force_runs(prop.vars, state.domains, tied)
        assert prop.hyperedges(state) == want


def naive_slide_fixpoint(doms, width, tuples):
    """Every window rescanned until no domain changes: the fixpoint domains,
    or None once some window has no live tuple."""
    doms = [set(d) for d in doms]
    changed = True
    while changed:
        changed = False
        for w in range(len(doms) - width + 1):
            live = [t for t in tuples
                    if all(v in d for v, d in zip(t, doms[w:w + width]))]
            if not live:
                return None
            for j in range(width):
                support = {t[j] for t in live}
                if doms[w + j] != support:
                    doms[w + j] = support
                    changed = True
    return doms


@settings(max_examples=300, deadline=None)
@given(slide_models(), st.data())
def test_slide_filter_against_naive_window_fixpoint(model, data):
    doms, width, tuples = model
    n = len(doms)
    state = new_problem(doms)
    prop = Slide(range(n), width, tuples)
    # the same filters run directly, without a slot, and inside propagate,
    # where each filter after the first starts from the slot the last kept
    kept = new_problem(doms)
    h = kept.post(prop)
    # filter on the initial domains, then again after each tell
    tells = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                                         st.integers(0, 3)), max_size=3))
    for tell in [None] + tells:
        if tell is not None:
            eq, x, v = tell
            for s in (state, kept):
                (s.tell_eq if eq else s.remove_value)(x, v)
            if state.failed:
                return
        want = naive_slide_fixpoint(state.domains, width, set(tuples))
        result = prop.filter(state)
        status = kept.propagate()
        if want is None:
            assert result is PropagationResult.FAILED
            assert status is StateStatus.FAILED
            return
        assert state.domains == want
        assert kept.domains == want
        entailed = all(set(itertools.product(*want[w:w + width])) <= set(tuples)
                       for w in range(n - width + 1))
        assert result is (PropagationResult.ENTAILED if entailed
                          else PropagationResult.STABLE)
        assert (h in kept.propagators) is not entailed


def test_slide_split_on_entailed_windows():
    # all tuples allowed around position 1 once it is assigned, so the
    # sequence splits there
    rows = list(itertools.product([0, 1], repeat=2))
    state = new_problem([{0, 1}, {0}, {0, 1}])
    prop = Slide((0, 1, 2), 2, rows)
    state.post(prop)
    state.propagate()
    if prop in state.propagators.values():
        edges = prop.hyperedges(state)
        assert all(len(e) == 1 for e in edges)


# -- kernel memos -------------------------------------------------------------------


class ChangeLog(ProblemState):
    """A state that logs each domain change, in order: the variable and the
    values it lost.  Every write goes through ``narrow``."""

    __slots__ = ("changes",)

    def __init__(self, domains):
        super().__init__(domains)
        self.changes = []

    def narrow(self, x, kept):
        self.changes.append((x, self.domains[x] - kept))
        super().narrow(x, kept)


def unmemoised(make):
    """``make()`` with every memo capped at 0 entries, so it stores nothing
    while it runs."""
    with mock.patch.object(propagators, "_MEMO_CAP", 0):
        return make()


def memo_run(prop, doms, tells):
    """What filtering ``prop`` shows: one direct call, then ``prop`` alone
    through ``propagate`` on ``doms`` and after each tell.  Per step: the
    status, the changes, the domains in iteration order, the domain events
    and, after each propagate, the split."""
    state = ChangeLog(doms)
    steps = [(prop.filter(state), state.changes,
              [list(d) for d in state.domains], state.counters.domain_events)]
    state = ChangeLog(doms)
    state.post(prop)
    for tell in [None] + tells:
        if tell is not None:
            eq, x, v = tell
            x %= len(doms)
            (state.tell_eq if eq else state.remove_value)(x, v)
        status = state.propagate()
        steps.append((status, list(state.changes),
                      [list(d) for d in state.domains],
                      state.counters.domain_events, prop.hyperedges(state)))
        if status is not StateStatus.BRANCHABLE:
            break
    return steps


@st.composite
def memo_slide_models(draw):
    # slide_models with width 1 and width == len(vars) drawn as often as
    # any other width, and dense tables where windows entail
    n = draw(st.integers(1, 5))
    width = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    doms = draw(st.lists(st.sets(st.integers(0, 3), min_size=1),
                         min_size=n, max_size=n))
    if width <= 3 and draw(st.booleans()):
        banned = draw(st.sets(st.tuples(*[st.integers(0, 3)] * width),
                              max_size=6))
        tuples = set(itertools.product(range(4), repeat=width)) - banned
    else:
        tuples = draw(st.lists(st.tuples(*[st.integers(0, 3)] * width),
                               max_size=30))
    return doms, width, sorted(tuples)


TELLS = st.lists(st.tuples(st.booleans(), st.integers(0, 9),
                           st.integers(0, 3)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(memo_slide_models(), st.lists(st.lists(st.sets(
    st.integers(0, 3), min_size=1), min_size=5, max_size=5), max_size=3),
       TELLS)
def test_slide_warm_memo_filters_like_a_fresh_instance(model, other, tells):
    # the memo warmed on other states and on this very run, against an
    # equal instance run with its memo capped at 0, so recomputing each
    # window scan
    doms, width, tuples = model
    prop = Slide(range(len(doms)), width, tuples)
    for warm in other:
        prop.filter(new_problem(warm[:len(doms)]))
    memo_run(prop, doms, tells)
    assert prop._scans and prop._outcomes
    fresh = Slide(range(len(doms)), width, tuples)
    assert memo_run(prop, doms, tells) \
        == unmemoised(lambda: memo_run(fresh, doms, tells))
    assert not fresh._scans and not fresh._outcomes


@settings(max_examples=200, deadline=None)
@given(regular_cases(), st.lists(st.lists(st.sets(
    st.integers(0, 2), min_size=1), min_size=5, max_size=5), max_size=3),
       TELLS)
def test_regular_warm_memo_filters_like_a_fresh_instance(case, other, tells):
    # as for Slide, with the memo on the automaton
    dfa, doms = case
    prop = Regular(range(len(doms)), dfa)
    for warm in other:
        prop.filter(new_problem(warm[:len(doms)]))
    memo_run(prop, doms, tells)
    assert dfa._steps and prop._outcomes
    fresh = Regular(range(len(doms)), Dfa(
        dfa.state_count, dfa.start, dfa.finals, dict(dfa.transitions)))
    assert memo_run(prop, doms, tells) \
        == unmemoised(lambda: memo_run(fresh, doms, tells))
    assert not fresh.dfa._steps and not fresh._outcomes


def test_memos_stay_under_their_cap():
    # a search over 100-value domains meets far more window domains and
    # live-state sets than a memo stores; the counts still hold.  Each next
    # value is the last plus 1 or 3 (Slide) or plus 1 or 2 (Regular), mod
    # 100, so n variables take 100 * 2 ** (n - 1) words
    n, values = 4, range(100)
    words = 100 * 2 ** (n - 1)
    pairs = [(a, (a + step) % 100) for a in values for step in (1, 3)]
    slide = Slide(range(n), 2, pairs)
    for count in (dfs_count, dds_count):
        state = new_problem([values] * n)
        state.post(slide)
        assert count(state).count == words
    assert len(slide._scans) == len(slide._outcomes) == propagators._MEMO_CAP

    # state 0 starts; state q + 1 has just read symbol q
    dfa = Dfa(101, 0, range(1, 101), {
        **{(0, s): s + 1 for s in values},
        **{(q + 1, (q + step) % 100): (q + step) % 100 + 1
           for q in values for step in (1, 2)}})
    regular = Regular(range(n), dfa)
    for count in (dfs_count, dds_count):
        state = new_problem([values] * n)
        state.post(regular)
        assert count(state).count == words
    assert len(dfa._steps) == len(regular._outcomes) == propagators._MEMO_CAP
    for owner in (dfa, slide, regular):
        assert len(owner._sets) <= propagators._MEMO_CAP


def test_memos_hold_interned_sets():
    # after a search whose sets all fit in the intern tables, every domain
    # in a memo key, every set a memo stores and every stored result is the
    # one its owner's intern table holds, so equal ones met in different
    # states are held once
    dfa = Dfa(3, 0, [0, 1, 2], {(0, 0): 0, (0, 1): 1, (0, 2): 0,
                                (1, 0): 0, (1, 1): 2, (1, 2): 0,
                                (2, 0): 0, (2, 2): 0})
    slide = Slide(range(8), 2, [(a, b) for a in range(3) for b in range(3)
                                if a + b != 2])
    regular = Regular(range(8, 16), dfa)
    for count in (dfs_count, dds_count):
        state = new_problem([range(3)] * 16)
        state.post(slide)
        state.post(regular)
        for x in range(8):
            state.post(Neq(x, x + 8))
        assert count(state, Heuristic.MAX_DEGREE).count > 0

    def held(owner, sets):
        return all(owner._sets[d] is d for d in sets)

    for owner in (slide, regular, dfa):
        assert len(owner._sets) < propagators._MEMO_CAP
    assert slide._scans and slide._outcomes and regular._outcomes \
        and dfa._steps
    for owner in (slide, regular):
        for doms, outcome in owner._outcomes.items():
            assert held(owner, doms)
            assert held(owner, outcome[3::2])
            assert owner._sets[outcome] is outcome
            # (status, split, x1, kept1, ...), each narrowed domain of a
            # scope variable: the split of a stable outcome that narrows
            # nothing is a tuple of interned runs of the variables open in
            # the key, in position order; any other outcome keeps its cut
            # bitmask, a failed one 0
            status, split = outcome[:2]
            assert set(outcome[2::2]) <= set(owner.vars)
            if status is not STABLE or len(outcome) > 2:
                assert type(split) is int
                assert split == 0 or status is not FAILED
                continue
            assert type(split) is tuple and all(split) and held(owner, split)
            order = [x for e in split
                     for x in sorted(e, key=owner.vars.index)]
            assert order == [x for x, d in zip(owner.vars, doms)
                             if len(d) != 1]
    for window, scan in slide._scans.items():
        assert held(slide, window)
        assert slide._sets[scan] is scan
        if scan is not None and scan[1] is not None:
            assert held(slide, scan[1])
    for (states, symbols), step in dfa._steps.items():
        assert held(dfa, (states, symbols, step[1]))
        assert dfa._sets[step] is step


def test_memo_keys_on_equal_domains_and_stops_storing_at_its_cap():
    # equal keys built from distinct set objects hit one entry, stored with
    # the interned sets and result, and the kernel runs once; a full memo
    # hands back what the kernel computes and stores nothing more
    calls = []

    def kernel(key):
        calls.append(key)
        return frozenset().union(*key)

    sets = {}
    memo = _Memo(kernel, sets)
    first = (frozenset({1, 2}), frozenset({3}))
    again = (frozenset([2, 1]), frozenset([3]))
    assert again[0] is not first[0]
    assert memo[first] == memo[again] == {1, 2, 3}
    assert calls == [first] and list(memo) == [first]
    key, = memo
    assert all(sets[d] is d for d in key)
    assert sets[memo[first]] is memo[first]
    with mock.patch.object(propagators, "_MEMO_CAP", 1):
        assert memo[frozenset({4}),] == {4}
    assert len(calls) == 2 and list(memo) == [first]


def logged_filter(prop, doms):
    """One direct filter call on ``doms``: its status, the changes it made
    in order, the domain events and the domains it left."""
    state = ChangeLog(doms)
    status = prop.filter(state)
    return (status, state.changes, state.counters.domain_events,
            state.domains)


@settings(max_examples=200, deadline=None)
@example(model=([{0}, {0, 1}, {0}], 2, [(0, 1), (1, 1)]), regular=None,
         overflow=False)
@given(memo_slide_models(), st.one_of(st.none(), regular_cases()),
       st.booleans())
def test_outcome_memo_hit_replays_the_filter(model, regular, overflow):
    # a memo hit replays the filter of an equal instance run with every
    # memo capped at 0: the same changes in the same order, the same status
    # and domain events, narrowing done before a failure included.  With
    # overflow, 260 distinct scopes fill the memo first, so the drawn
    # domains compute without storing; the count then still matches brute
    # force, and nothing is stored past the cap
    doms, width, tuples = model
    prop = Slide(range(len(doms)), width, tuples)
    if regular is not None:
        dfa, doms = regular
        prop = Regular(range(len(doms)), dfa)
    if overflow:
        for i in range(260):
            logged_filter(prop, [{0, 1, 2, 3, 10 + i}] * len(doms))
    first = logged_filter(prop, doms)
    want = unmemoised(lambda: logged_filter(cold(prop), doms))
    assert first == want
    if not overflow:
        memo_outcome(prop, [frozenset(d) for d in doms])
    assert logged_filter(prop, doms) == want
    assert len(prop._outcomes) <= propagators._MEMO_CAP
    if overflow:
        state = new_problem(doms)
        state.post(prop)
        assert dds_count(state).count == sum(map(prop.satisfied,
                                                 itertools.product(*doms)))


def test_slide_replays_restrictions_before_a_failure():
    # window (0, 1) cuts x1 to {1}, then window (1, 2) has no live tuple:
    # the hit narrows x1 and fails, as the computation did
    prop = Slide(range(3), 2, [(0, 1), (1, 1)])
    doms = [{0}, {0, 1}, {0}]
    want = (FAILED, [(1, {0})], 1, [{0}, {1}, {0}])
    assert logged_filter(prop, doms) == want
    assert memo_outcome(prop, [frozenset(d) for d in doms]) == \
        (FAILED, 0, 1, frozenset({1}))
    # a failed outcome has no cuts: its split is one run of the open
    # positions of the domains asked about
    assert prop.hyperedges(new_problem(doms)) == [frozenset({1})]
    assert logged_filter(prop, doms) == want


def reference_runs(prop, doms, cuts):
    """The split of a ``Slide`` or ``Regular`` as its ``hyperedges`` built
    it from the domains ``doms`` and a bitmask of cuts, before the split
    was memoised."""
    # the unassigned variables cut before each position in the cuts,
    # as one fragment per non-empty run, in position order
    edges, run = [], []
    for p, x in enumerate(prop.vars):
        if cuts >> p & 1 and run:
            edges.append(frozenset(run))
            run = []
        if len(doms[p]) != 1:
            run.append(x)
    if run:
        edges.append(frozenset(run))
    return edges


def reference_cuts(prop, doms):
    """The cuts of the scope domains ``doms`` by enumeration, as a bitmask:
    0 when the filter fails; for a ``Slide``, p and p + 1 around each
    position whose covering windows all take every combination of their
    fixpoint domains; for a ``Regular``, each position 1..n-1 before which
    every accepted word passes through one automaton state."""
    if isinstance(prop, Regular):
        return sum(1 << i for i in regular_cuts(prop.dfa, doms))
    n, k = len(doms), prop.width
    fixed = window_fixpoint(doms, [Slide(range(n), k, prop.tuples)])
    if fixed is None:
        return 0
    entailed = [set(itertools.product(*fixed[w:w + k])) <= prop.tuples
                for w in range(n - k + 1)]
    cuts = 0
    for p in range(n):
        if all(entailed[max(0, p - k + 1):p + 1]):
            cuts |= 3 << p
    return cuts


@settings(max_examples=300, deadline=None)
@example(model=([{0}, {0, 1}, {0}], 2, [(0, 1), (1, 1)]), regular=None,
         data=None)
@given(memo_slide_models(), st.one_of(st.none(), regular_cases()),
       st.data())
def test_row_split_matches_reference_runs(model, regular, data):
    # the split read from the outcome memo, on a miss, on a hit and with
    # every memo capped at 0, is the old conversion of the enumerated cuts:
    # on the drawn domains (off a fixpoint, or failing), and on their
    # fixpoint, over a permuted scope
    doms, width, tuples = model
    if regular is not None:
        dfa, doms = regular
    n = len(doms)
    order = list(range(n)) if data is None else data.draw(st.permutations(
        range(n)))
    prop = (Slide(order, width, tuples) if regular is None
            else Regular(order, dfa))
    scopes = [[frozenset(d) for d in doms]]
    fixed = (window_fixpoint(doms, [Slide(range(n), width, tuples)])
             if regular is None else
             [set(w) for w in zip(*accepted_words(dfa, doms))] or None)
    if fixed is not None:
        scopes.append([frozenset(d) for d in fixed])
    for scope in scopes:
        # variable x holds the domain of its position in the scope
        state = new_problem([scope[order.index(x)] for x in range(n)])
        want = reference_runs(prop, scope, reference_cuts(prop, scope))
        assert unmemoised(lambda: cold(prop).hyperedges(state)) == want
        fresh = cold(prop)
        assert tuple(scope) not in fresh._outcomes
        assert fresh.hyperedges(state) == want
        assert tuple(scope) in fresh._outcomes
        assert fresh.hyperedges(state) == want
        assert prop.hyperedges(state) == prop.hyperedges(state) == want


# -- split memos ------------------------------------------------------------------


def window_fixpoint(doms, props):
    """Every neq and every slide window filtered to its supports by
    enumeration, over and over until no domain changes: the fixpoint their
    filters reach, or None once one has no allowed tuple left."""
    checks = []
    for prop in props:
        if isinstance(prop, Slide):
            for w in range(len(prop.vars) - prop.width + 1):
                checks.append((prop.vars[w:w + prop.width],
                               prop.tuples.__contains__))
        else:
            checks.append((prop.vars, prop.satisfied))
    doms = [set(d) for d in doms]
    changed = True
    while changed:
        changed = False
        for vars_, satisfied in checks:
            live = [t for t in itertools.product(*(sorted(doms[x])
                                                   for x in vars_))
                    if satisfied(t)]
            if not live:
                return None
            for j, x in enumerate(vars_):
                support = {t[j] for t in live}
                if doms[x] != support:
                    doms[x] = support
                    changed = True
    return doms


def cold(prop):
    """An instance equal to ``prop`` whose memos, its automaton's included,
    are empty."""
    if isinstance(prop, Regular):
        return Regular(prop.vars, dataclasses.replace(prop.dfa))
    return dataclasses.replace(prop)


def assert_memo_splits_agree(state):
    """Each split, computed and then read from a warm memo, equals the one
    an equal instance computes with every memo capped at 0."""
    for prop in state.propagators.values():
        want = unmemoised(lambda: cold(prop).hyperedges(state))
        assert prop.hyperedges(state) == prop.hyperedges(state) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([random_state, random_state_with_slide]),
       st.integers(0, 10 ** 6), st.data())
def test_slots_agree_with_recomputation(make, seed, data):
    # through propagate, a clone and a random tell, up to 3 times; the
    # splits are also compared on the told clone before it propagates,
    # where the memo has met domains no filter has narrowed
    state = make(seed)
    posted = list(state.propagators.values())
    # neq and each slide window filter to their supports, so propagation
    # ends at the unique joint fixpoint of those; linear keeps bounds only
    windowed = all(isinstance(p, (Slide, Neq)) for p in posted)
    status = state.propagate()
    for _ in range(data.draw(st.integers(0, 3)) + 1):
        if status is StateStatus.FAILED:
            return
        for prop in posted:
            combos = itertools.product(*(sorted(state.domains[x])
                                         for x in prop.vars))
            if prop not in state.propagators.values():
                assert all(map(prop.satisfied, combos))
            elif isinstance(prop, Slide):
                assert not all(map(prop.satisfied, combos))
        if status is StateStatus.SOLVED:
            return
        assert_memo_splits_agree(state)
        state = state.clone()
        x = data.draw(st.sampled_from(
            [x for x in range(state.num_vars) if len(state.domains[x]) > 1]))
        v = data.draw(st.sampled_from(sorted(state.domains[x])))
        (state.tell_eq if data.draw(st.booleans())
         else state.remove_value)(x, v)
        assert_memo_splits_agree(state)
        want = window_fixpoint(state.domains, posted) if windowed else None
        status = state.propagate()
        if windowed:
            assert (status is StateStatus.FAILED) is (want is None)
            assert want is None or state.domains == want


# -- entailment by a propagator's own pruning ----------------------------------


# each propagator's first filter prunes its domains to a point where every
# remaining combination satisfies it; the entailment test must read the
# domains after that pruning, not the frozensets it replaced
OWN_PRUNING_ENTAILS = {
    "neq": ([{3}, {3, 4}], Neq(0, 1)),
    "alldifferent": ([{1}, {1, 2}, {1, 2, 3}], AllDifferent([0, 1, 2])),
    "table": ([{0, 1}, {0, 1}], Table((0, 1), [(0, 0), (0, 1)])),
    # words that start with 0
    "regular": ([{0, 1}, {0, 1}],
                Regular((0, 1), Dfa(2, 0, [1], {(0, 0): 1, (1, 0): 1,
                                                (1, 1): 1}))),
    "slide": ([{0, 1}] * 3, Slide((0, 1, 2), 2, [(0, 0), (0, 1)])),
}


@pytest.mark.parametrize("name", sorted(OWN_PRUNING_ENTAILS))
def test_own_pruning_entails(name):
    doms, prop = OWN_PRUNING_ENTAILS[name]
    state = new_problem(doms)
    assert prop.filter(state) is PropagationResult.ENTAILED
    assert state.domains != doms
    state = new_problem(doms)
    state.post(prop)
    assert state.propagate() is not StateStatus.FAILED
    assert state.propagators == {}


# -- GAC equivalence (support-filtering oracle) --------------------------------


def single_constraint_states(seed):
    import random
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    doms = [set(rng.sample(range(5), rng.randint(1, 5))) for _ in range(n)]
    kind = rng.choice(["alldifferent", "table", "regular"])
    if kind == "alldifferent" and n >= 2:
        prop = AllDifferent(range(n))
    elif kind == "table":
        full = itertools.product(*[sorted(d) for d in doms])
        prop = Table(tuple(range(n)), [t for t in full if rng.random() < 0.6])
    else:
        ns = rng.randint(2, 4)
        trans = {}
        for q in range(ns):
            for s in range(5):
                if rng.random() < 0.7:
                    trans[(q, s)] = rng.randrange(ns)
        prop = Regular(tuple(range(n)),
                       Dfa(ns, 0, [q for q in range(ns) if rng.random() < 0.5],
                           trans))
    return new_problem(doms), prop


def test_gac_equivalence_against_support_oracle():
    checked = 0
    for seed in range(120):
        state, prop = single_constraint_states(seed)
        expected = support_filtered_domains(state, prop)
        state.post(prop)
        status = state.propagate()
        if expected is None:
            assert status is StateStatus.FAILED
            continue
        checked += 1
        assert status is not StateStatus.FAILED
        for x, values in expected.items():
            assert state.domains[x] == values
    assert checked > 40


def test_filters_never_entail_while_violations_remain():
    for seed in range(80):
        state = random_state(seed)
        posted = dict(state.propagators)
        if state.propagate() is StateStatus.FAILED:
            continue
        for h, prop in posted.items():
            if h in state.propagators:
                continue
            doms = [sorted(state.domains[x]) for x in prop.vars]
            assert all(prop.satisfied(t)
                       for t in itertools.product(*doms))


# -- scope splits ---------------------------------------------------------------


def test_hyperedges_examples():
    state = new_problem([{0, 1}, {0, 1}, {2, 3}, {2, 3}])
    ad = AllDifferent([0, 1, 2, 3])
    state.post(ad)
    state.propagate()
    assert [sorted(e) for e in ad.hyperedges(state)] == [[0, 1], [2, 3]]

    # each AllDifferent split below also equals the union-find oracle's;
    # first, a shuffled scope whose first group seen has the larger minimum
    cases = [([{10, 11}, {0, 1}, {10, 11}, {0, 1}], [3, 2, 0, 1],
              [[0, 2], [1, 3]])]
    # a late variable whose domain bridges two groups formed before it,
    # with a group apart from both seen between them; then one that meets
    # the merged group on a value of its second part only, and one that
    # meets it on a value only that one brought
    cases.append(([{0, 1}, {2, 3}, {1, 2}, {7, 8}, {3, 4}, {4, 5}],
                  [0, 3, 1, 2, 4, 5], [[0, 1, 2, 4, 5], [3]]))
    # 25 groups of two, over {2i, 2i + 1}, in a scope that interleaves them,
    # plus an assigned variable on a value of the last group
    doms = [{2 * (i // 2), 2 * (i // 2) + 1} for i in range(50)] + [{49}]
    cases.append((doms, [*range(0, 51, 2), *range(49, 0, -2)],
                  [[2 * i, 2 * i + 1] for i in range(25)]))
    for doms, scope, want in cases:
        state = new_problem(doms)
        ad = AllDifferent(scope)
        got = ad.hyperedges(state)
        assert [sorted(e) for e in got] == want
        assert got == reference_alldiff_split(ad, state)

    state = new_problem([{0, 1, 2}] * 3)
    lin = Linear((1, 1, 1), (0, 1, 2), EQ, 3)
    state.post(lin)
    state.propagate()
    assert [sorted(e) for e in lin.hyperedges(state)] == [[0, 1, 2]]


def test_regular_hyperedges_split_at_singleton_layer():
    # (01)* over 4 vars with the first two fixed to 0,1: the automaton is
    # back in its single start state after position 1, so the runs split
    dfa = zero_one_alternating_dfa()
    state = new_problem([{0}, {1}, {0, 1}, {0, 1}])
    prop = Regular((0, 1, 2, 3), dfa)
    state.post(prop)
    state.propagate()
    if prop in state.propagators.values():
        edges = prop.hyperedges(state)
        assert all(len(e) <= 2 for e in edges)
        flat = sorted(x for e in edges for x in e)
        assert 0 not in flat and 1 not in flat


def test_hyperedges_partition_unassigned_scope():
    cases = [random_state(s) for s in range(60)]
    cases += [random_state_with_slide(s) for s in range(30)]
    for state in cases:
        if state.propagate() is StateStatus.FAILED:
            continue
        for prop in state.propagators.values():
            edges = prop.hyperedges(state)
            flat = [x for e in edges for x in e]
            unassigned = [x for x in prop.vars if len(state.domains[x]) != 1]
            assert sorted(flat) == sorted(unassigned)  # disjoint + coverage


def test_decomposition_soundness_product_structure():
    cases = [random_state(s) for s in range(60)]
    cases += [random_state_with_slide(s) for s in range(30)]
    checked = 0
    for state in cases:
        if state.propagate() is StateStatus.FAILED:
            continue
        for prop in state.propagators.values():
            assert product_structure_ok(state, prop)
            checked += 1
    assert checked > 50
