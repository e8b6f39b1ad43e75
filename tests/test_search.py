import dataclasses
import hashlib
import itertools
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdsolve import (EQ, AllDifferent, And, Heuristic, Linear, Neq, Or,
                     SearchTrace, StateStatus, Table, dds_count, dds_tree,
                     dfs_count, dfs_enumerate, new_problem, trace_dot,
                     tree_count, tree_expand)
from fdsolve import graph, search
from fdsolve.graph import (build_constraint_graph, components,
                           decompose_analysis)
from fdsolve.search import choose, order_components

from deep_gates import neq_chain
from randcsp import (brute_force_count, enumerate_solutions, intro_state,
                     permuted,
                     random_clustered_state, random_state,
                     random_state_with_slide, relabelled, table_as_regular)

ALL_HEURISTICS = list(Heuristic)
GENERATORS = st.sampled_from([random_state, random_clustered_state,
                              random_state_with_slide])
SEEDS = st.integers(0, 10 ** 6)


# -- choose -------------------------------------------------------------------


def test_choose_first_fail_prefers_small_domain():
    state = new_problem([{3, 5}, {0, 1, 2}])
    assert choose(state, Heuristic.FIRST_FAIL, [0, 1]) == (0, 3)


def test_choose_max_degree():
    state = new_problem([{0, 1}] * 4)
    state.post(Neq(0, 1))
    state.post(Neq(0, 2))
    state.post(Neq(0, 3))
    state.propagate()
    assert choose(state, Heuristic.MAX_DEGREE, [0, 1, 2, 3])[0] == 0


def test_choose_tie_breaks_by_index():
    state = new_problem([{0, 1}, {0, 1}, {0, 1}])
    state.post(Neq(0, 1))
    state.post(Neq(1, 2))
    state.post(Neq(0, 2))
    state.propagate()
    for h in ALL_HEURISTICS:
        assert choose(state, h, [0, 1, 2])[0] == 0


def search_state(make, seed, data):
    """A random state after a few random tells: in search, where
    constraints are partly entailed and partly split."""
    state = make(seed)
    status = state.propagate()
    for _ in range(data.draw(st.integers(0, 3))):
        if status is not StateStatus.BRANCHABLE:
            break
        x = data.draw(st.sampled_from(
            [x for x in range(state.num_vars) if len(state.domains[x]) > 1]))
        v = data.draw(st.sampled_from(sorted(state.domains[x])))
        (state.tell_eq if data.draw(st.booleans())
         else state.remove_value)(x, v)
        status = state.propagate()
    assume(status is StateStatus.BRANCHABLE)
    return state


def edge_degrees(cands, edges):
    """Each candidate's number of ``edges`` holding it."""
    degree = dict.fromkeys(cands, 0)
    for edge in edges:
        for x in edge:
            if x in degree:
                degree[x] += 1
    return degree


@settings(max_examples=200, deadline=None)
@given(GENERATORS, SEEDS, st.data())
def test_choose_degrees_match_reflected_graph(make, seed, data):
    # the two degree sources over every open variable: plain DFS's store
    # splits (no degrees given) and the graph DDS reflects
    state = search_state(make, seed, data)
    cands = [x for x in range(state.num_vars) if len(state.domains[x]) > 1]
    degree = edge_degrees(cands, build_constraint_graph(state).edges)
    for h in ALL_HEURISTICS:
        assert choose(state, h, cands) == choose(state, h, cands, degree)


def reference_choose(state, heuristic, scope, graph=None):
    """``choose`` without its short-cuts: every candidate sorted, every
    degree counted, ties broken by an explicit index key."""
    domains = state.domains
    cands = sorted([x for x in scope if len(domains[x]) != 1])
    if not cands:
        raise ValueError("choose() needs at least one unassigned variable in scope")
    if heuristic in (Heuristic.MAX_DEGREE, Heuristic.MAX_DEGREE_FIRST_FAIL):
        degree = dict.fromkeys(cands, 0)
        if graph is None:
            for prop in state.propagators.values():
                for edge in prop.hyperedges(state):
                    inside = [x for x in edge if x in degree]
                    if len(inside) >= 2:
                        for x in inside:
                            degree[x] += 1
        else:
            for edge in graph.edges:
                for x in edge:
                    if x in degree:
                        degree[x] += 1
    if heuristic is Heuristic.INPUT_ORDER:
        x = cands[0]
    elif heuristic is Heuristic.FIRST_FAIL:
        x = min(cands, key=lambda c: (len(domains[c]), c))
    elif heuristic is Heuristic.MAX_DEGREE:
        x = min(cands, key=lambda c: (-degree[c], c))
    else:
        x = min(cands, key=lambda c: (-degree[c], len(domains[c]), c))
    return (x, min(domains[x]))


@settings(max_examples=300, deadline=None)
@given(GENERATORS, SEEDS, st.data())
def test_choose_matches_reference(make, seed, data):
    # states from search, with or without their store, on range and set
    # scopes, some with a single candidate
    state = search_state(make, seed, data)
    if data.draw(st.booleans()):
        state = new_problem(state.domains)  # the same domains, an empty store
    n = state.num_vars
    unfixed = [x for x in range(n) if len(state.domains[x]) > 1]
    kind = data.draw(st.sampled_from(["range", "reversed", "set", "single"]))
    if kind == "range":
        scope = range(n)
    elif kind == "reversed":
        scope = range(n - 1, -1, -1)
    elif kind == "set":
        scope = data.draw(st.sets(st.sampled_from(range(n)), min_size=1))
        assume(not scope.isdisjoint(unfixed))
    else:
        keep = data.draw(st.sampled_from(unfixed))
        if data.draw(st.booleans()):
            # every other variable fixed: a range scope with one candidate
            for x in unfixed:
                if x != keep:
                    state.tell_eq(x, min(state.domains[x]))
            scope = range(n)
        else:
            fixed = [x for x in range(n) if len(state.domains[x]) == 1]
            scope = {keep} | data.draw(st.sets(st.sampled_from(fixed))
                                       if fixed else st.just(set()))
    cands = sorted(x for x in scope if len(state.domains[x]) > 1)
    graphs = [build_constraint_graph(state, scope)]
    if len(cands) == sum(len(d) > 1 for d in state.domains):
        # the store's splits are the edges over every open variable only
        graphs.append(None)
    for graph in graphs:
        degree = None if graph is None else edge_degrees(cands, graph.edges)
        for h in ALL_HEURISTICS:
            assert (choose(state, h, cands, degree)
                    == reference_choose(state, h, scope, graph=graph))


def reference_dfs(root, heuristic, limit):
    """A recursive plain DFS that clones before the left child, asks
    ``reference_choose`` over every variable at each choice node and stops
    once more than ``limit`` solutions are found: its decisions in order,
    its solutions in order, and the count, ``exact`` flag and statistics
    it should report (a node's depth is its number of decisions)."""
    n, decisions, solutions = root.num_vars, [], []
    stats = dict.fromkeys(["nodes", "choice_nodes", "fails", "max_depth"], 0)

    def visit(state, depth):
        stats["nodes"] += 1
        stats["max_depth"] = max(stats["max_depth"], depth)
        status = state.propagate()
        if status is StateStatus.FAILED:
            stats["fails"] += 1
            return
        if status is StateStatus.SOLVED:
            solutions.append(state.solution())
            return
        stats["choice_nodes"] += 1
        x, v = reference_choose(state, heuristic, range(n))
        decisions.append((x, v))
        left = state.clone()
        left.tell_eq(x, v)
        visit(left, depth + 1)
        if limit is None or len(solutions) <= limit:
            state.remove_value(x, v)
            visit(state, depth + 1)

    visit(root.clone(), 0)
    found = len(solutions)
    return decisions, solutions, dict(
        count=found, exact=limit is None or found <= limit,
        solutions_found=found, **stats)


def dfs_report(count, exact, stats):
    """What a DFS run reports, in ``reference_dfs``'s terms."""
    return dict(count=count, exact=exact, nodes=stats.nodes,
                choice_nodes=stats.choice_nodes, fails=stats.fails,
                solutions_found=stats.solutions_found,
                max_depth=stats.max_depth)


def traced_decisions(trace):
    """The ``x = v`` decisions of a recorded search, in the order their left
    children were entered."""
    assert not trace.truncated
    return [(int(m[1]), int(m[2])) for _p, _c, label in trace.edges
            if (m := re.fullmatch(r"x(\d+)=(-?\d+)", label))]


@settings(max_examples=100, deadline=None)
@given(GENERATORS, SEEDS, st.integers(0, 12), st.integers(1, 12))
def test_dfs_decisions_match_recursive_reference(make, seed, limit, k):
    # plain DFS branches over its parent's open variables only; it must
    # decide as a search that asks every variable at every node, and count,
    # list and report statistics as that recursive search does
    state = make(seed)
    traces = []
    real_run = search._Run

    def traced_run(heuristic, limit, _trace):
        # dfs_enumerate takes no trace, so its run is handed one
        traces.append(SearchTrace(max_nodes=10 ** 6))
        return real_run(heuristic, limit, traces[-1])

    for h in ALL_HEURISTICS:
        for lim in (None, limit):
            trace = SearchTrace(max_nodes=10 ** 6)
            result = dfs_count(state, h, limit=lim, trace=trace)
            decisions, _solutions, report = reference_dfs(state, h, lim)
            assert traced_decisions(trace) == decisions
            assert dfs_report(result.count, result.exact,
                              result.stats) == report
        for max_solutions in (k, 10 ** 6):
            traces.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(search, "_Run", traced_run)
                listed, complete, stats = dfs_enumerate(state, h,
                                                        max_solutions)
            decisions, solutions, report = reference_dfs(
                state, h, max_solutions - 1)
            assert traced_decisions(traces[0]) == decisions
            assert listed == solutions
            assert dfs_report(len(listed), complete, stats) == report


def reference_dds_decisions(root, heuristic):
    """The decisions, in order, of a recursive decomposing search without a
    cut-off that asks ``reference_choose`` at each choice node and orders
    a decomposition's parts by it: first the part holding its pick over
    their union, then the rest by minimum, stopping at the first part
    without solutions."""
    decisions = []

    def visit(state, scope):
        # the number of solutions below ``state`` over ``scope``
        if state.propagate() is StateStatus.FAILED:
            return 0
        if all(len(state.domains[x]) == 1 for x in scope):
            return 1
        analysis = decompose_analysis(state, scope)
        free = 1
        for x in analysis.isolated:
            free *= len(state.domains[x])
        linked = analysis.linked
        if not linked:
            return free
        if len(linked) >= 2:
            union = set().union(*linked)
            picked, _v = reference_choose(state, heuristic, union)
            first = next(c for c in linked if picked in c)
            total = free
            for part in [first] + sorted((c for c in linked if c is not first),
                                         key=min):
                total *= visit(state.clone(), part)
                if not total:
                    break
            return total
        x, v = reference_choose(state, heuristic, linked[0])
        decisions.append((x, v))
        left = state.clone()
        left.tell_eq(x, v)
        count = visit(left, linked[0])
        state.remove_value(x, v)
        return free * (count + visit(state, linked[0]))

    visit(root.clone(), frozenset(range(root.num_vars)))
    return decisions


@settings(max_examples=100, deadline=None)
@given(GENERATORS, SEEDS)
def test_dds_decisions_match_recursive_reference(make, seed):
    # the walker's choice nodes and component order must decide as a
    # recursive search that counts degrees off the store
    state = make(seed)
    for h in ALL_HEURISTICS:
        want = reference_dds_decisions(state, h)
        for engine in (dds_count, dds_tree):
            trace = SearchTrace(max_nodes=10 ** 6)
            engine(state, h, trace=trace)
            assert traced_decisions(trace) == want


def test_dfs_builds_no_constraint_graph(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("DFS built a constraint graph")

    monkeypatch.setattr(graph, "build_constraint_graph", refuse)
    monkeypatch.setattr(search, "build_constraint_graph", refuse)
    for h in ALL_HEURISTICS:
        assert dfs_count(intro_state(), h).count == 6
        assert len(dfs_enumerate(intro_state(), h)[0]) == 6


def test_dfs_enumerate_builds_no_tree(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("DFS enumeration expanded a solution tree")

    monkeypatch.setattr(search, "_expand", refuse)
    for h in ALL_HEURISTICS:
        for k, complete in ((10 ** 6, True), (4, False)):
            sols, done, _stats = dfs_enumerate(intro_state(), h, k)
            assert len(sols) == min(k, 6) and done is complete


# -- counting engines -----------------------------------------------------------


def test_dfs_count_intro():
    result = dfs_count(intro_state())
    assert result.count == 6 and result.exact


def test_dfs_failed_root():
    state = new_problem([{1}, {1}])
    state.post(Neq(0, 1))
    result = dfs_count(state)
    assert result.count == 0 and result.stats.fails == 1


def test_counts_triangle_colorings():
    state = new_problem([{0, 1, 2}] * 3)
    state.post(AllDifferent([0, 1, 2]))
    for h in ALL_HEURISTICS:
        assert dfs_count(state, h).count == 6
        assert dds_count(state, h).count == 6


def test_dds_intro_structure():
    result = dds_count(intro_state())
    assert result.count == 6
    assert result.stats.decomposition_nodes == 1
    assert result.stats.choice_nodes == 2


def test_dds_degenerates_to_dfs_without_decomposition():
    state = new_problem([{0, 1, 2, 3}] * 5)
    state.post(Linear((1,) * 5, tuple(range(5)), EQ, 7))
    for h in ALL_HEURISTICS:
        a = dfs_count(state, h)
        b = dds_count(state, h)
        assert a.count == b.count
        assert b.stats.decomposition_nodes == 0
        assert (a.stats.nodes, a.stats.fails, a.stats.choice_nodes) == \
            (b.stats.nodes, b.stats.fails, b.stats.choice_nodes)


def test_dds_short_circuits_failed_component():
    # component {2,3,4}: three vars, two values, pairwise different: no
    # solutions; component {0,1} is satisfiable but ordered second
    state = new_problem([{0, 1, 2}, {0, 1, 2}, {0, 1}, {0, 1}, {0, 1}])
    for i, j in itertools.combinations((2, 3, 4), 2):
        state.post(Neq(i, j))
    state.post(Neq(0, 1))
    trace = SearchTrace()
    result = dds_count(state, Heuristic.FIRST_FAIL, trace=trace)
    assert result.count == 0
    # nothing was explored after the failing first component
    assert all(label != "part1" for _p, _c, label in trace.edges)


def test_engine_agreement_on_random_instances():
    for seed in range(80):
        state = random_state(seed)
        want = brute_force_count(state)
        counts = set()
        for h in ALL_HEURISTICS:
            counts.add(dfs_count(state, h).count)
            counts.add(dds_count(state, h).count)
        assert counts == {want}


def test_stats_invariants():
    for seed in range(30):
        state = random_state(seed)
        for result in (dfs_count(state), dds_count(state)):
            s = result.stats
            leaves = s.fails + s.solutions_found
            assert s.nodes == s.choice_nodes + s.decomposition_nodes + leaves
            assert s.fails <= s.nodes


def test_limit_semantics():
    for seed in range(40):
        state = random_state(seed)
        want = brute_force_count(state)
        for engine in (dfs_count, dds_count):
            result = engine(state, limit=10)
            if result.exact:
                assert result.count == want
            else:
                assert want > 10
                assert result.count >= 10


def test_negative_limits_are_rejected():
    state = intro_state()
    for engine in (dfs_count, dds_count, dds_tree):
        with pytest.raises(ValueError, match="limit must be at least 0, got -3"):
            engine(state, limit=-3)
        # 0 stops after the first full solution, None never stops
        assert not engine(state, limit=0).exact
        assert engine(state, limit=None).exact
    with pytest.raises(ValueError, match="max_nodes must be at least 0, got -1"):
        SearchTrace(max_nodes=-1)
    trace = SearchTrace(max_nodes=0)
    dfs_count(state, trace=trace)
    assert trace.nodes == [] and trace.truncated


@pytest.mark.parametrize("engine",
                         [dfs_count, dds_count, dds_tree, dfs_enumerate])
def test_heuristic_is_a_member_or_its_value(engine):
    state = neq_chain(12)
    for bad in ("bogus", 42):
        with pytest.raises(ValueError, match="heuristic must be one of "
                           "'input', 'ff', 'maxdeg', 'maxdeg-ff', got"):
            engine(state, heuristic=bad)
    for h in Heuristic:
        results = [engine(state, heuristic=g) for g in (h.value, h)]
        for r in results:
            (r[-1] if isinstance(r, tuple) else r.stats).wall_time = 0
        assert results[0] == results[1]
    assert dds_count(state, heuristic="input").stats.nodes == 6143


def test_zero_variable_problem_counts_one():
    state = new_problem([])
    assert dfs_count(state).count == 1
    assert dds_count(state).count == 1


# -- component ordering -----------------------------------------------------------


def build_two_components():
    state = new_problem([{0, 1, 2}, {0, 1, 2}, {3, 4}, {3, 4}])
    state.post(Neq(0, 1))
    state.post(Neq(2, 3))
    state.propagate()
    return state


def test_order_components_moves_selected_first():
    state = new_problem([{0, 1, 2}] * 2 + [{3, 4}] * 2 + [{0, 1, 2}] * 2)
    for x in (0, 2, 4):
        state.post(Neq(x, x + 1))
    state.propagate()
    graph = build_constraint_graph(state)
    parts = components(graph)
    assert parts == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    # first-fail selects variable 2 (domain size 2): its part leads, and
    # the others keep their order
    x, _v = choose(state, Heuristic.FIRST_FAIL, sorted(graph.nodes),
                   graph.edges)
    assert x == 2
    assert order_components(parts, x) == [parts[1], parts[0], parts[2]]


def test_order_components_keeps_order_when_first_selected():
    parts = components(build_constraint_graph(build_two_components()))
    assert order_components(parts, 1) == list(parts)


def test_order_components_input_order_picks_lowest_variable():
    state = build_two_components()
    graph = build_constraint_graph(state)
    x, _v = choose(state, Heuristic.INPUT_ORDER, sorted(graph.nodes),
                   graph.edges)
    assert order_components(components(graph), x) == [frozenset({0, 1}),
                                                      frozenset({2, 3})]


# -- solution trees -----------------------------------------------------------------


def leaf_count(tree):
    if not tree.children:
        return 1
    return sum(leaf_count(c) for c in tree.children)


def test_dds_tree_intro_shape():
    result = dds_tree(intro_state())
    tree = result.tree
    assert result.exact
    assert isinstance(tree, And) and len(tree.children) == 2
    first, second = tree.children
    assert isinstance(first, Or) and isinstance(second, Or)
    assert leaf_count(first) == 3 and leaf_count(second) == 2
    assert tree_count(tree) == 6


def test_dds_tree_solved_root_is_leaf():
    state = new_problem([{3}, {7}])
    result = dds_tree(state)
    assert result.tree == And([], {0: 3, 1: 7})
    assert dds_tree(new_problem([])).tree == And([], {})


def test_dds_tree_failed_root_is_empty_or():
    state = new_problem([{1}, {1}])
    state.post(Neq(0, 1))
    result = dds_tree(state)
    assert isinstance(result.tree, Or) and result.tree.children == []


def test_tree_count_examples():
    three = Or([And([], {0: 0}), And([], {0: 1}), And([], {0: 2})])
    other = Or([And([], {1: 0}), And([], {1: 1}), And([], {1: 2})])
    assert tree_count(And([three, other])) == 9
    assert tree_count(And([], {0: 1})) == 1
    two = Or([And([], {0: 0}), And([], {0: 1})])
    assert tree_count(Or([And([two, other]), And([], {5: 5})])) == 7


def test_tree_expand_intro():
    result = dds_tree(intro_state())
    sols = tree_expand(result.tree, 10)
    assert len(sols) == 6
    as_tuples = {tuple(s[i] for i in range(4)) for s in sols}
    assert len(as_tuples) == 6
    for t in as_tuples:
        assert len(set(t)) == 4  # pairwise different


def test_tree_expand_limits():
    result = dds_tree(intro_state())
    assert tree_expand(result.tree, 0) == []
    assert len(tree_expand(result.tree, 2)) == 2
    assert tree_expand(And([], {0: 3}), 5) == [{0: 3}]


def test_tree_matches_count_and_oracle():
    for seed in range(50):
        state = random_state(seed)
        result = dds_tree(state)
        assert result.exact
        want = dds_count(state)
        assert tree_count(result.tree) == want.count
        sols = tree_expand(result.tree, 10 ** 9)
        assert len(sols) == want.count
        as_tuples = {tuple(s[x] for x in range(state.num_vars)) for s in sols}
        assert as_tuples == enumerate_solutions(state)


def test_tree_with_limit_expands_enough():
    # intro example has 6 solutions; a cut-off at 3 still yields 3 valid ones
    result = dds_tree(intro_state(), limit=3)
    assert not result.exact
    sols = tree_expand(result.tree, 3)
    assert len(sols) == 3
    for s in sols:
        assert len({s[x] for x in range(4)}) == 4


def test_dfs_enumerate():
    sols, complete, _stats = dfs_enumerate(intro_state(), max_solutions=100)
    assert complete and len(sols) == 6
    some, complete, _stats = dfs_enumerate(intro_state(), max_solutions=2)
    assert not complete and len(some) == 2


def test_dfs_enumerate_rejects_max_solutions_below_one():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_solutions"):
            dfs_enumerate(intro_state(), max_solutions=bad)


# -- tracing ---------------------------------------------------------------------


def test_trace_dot_intro_dds():
    trace = SearchTrace()
    dds_count(intro_state(), trace=trace)
    assert [k for _n, k in trace.nodes].count("decomposition") == 1
    dot = trace_dot(trace)
    assert dot.count('label="□"') == 1
    assert dot.startswith("digraph")


def test_trace_dot_failed_root():
    state = new_problem([{1}, {1}])
    state.post(Neq(0, 1))
    trace = SearchTrace()
    dfs_count(state, trace=trace)
    assert [k for _n, k in trace.nodes] == ["fail"]
    assert 'shape=box' in trace_dot(trace)


def test_trace_dfs_has_no_decomposition_nodes():
    trace = SearchTrace()
    dfs_count(intro_state(), trace=trace)
    kinds = [k for _n, k in trace.nodes]
    assert kinds.count("decomposition") == 0
    assert kinds.count("choice") == 5


def test_trace_cap():
    trace = SearchTrace(max_nodes=3)
    dfs_count(intro_state(), trace=trace)
    assert len(trace.nodes) == 3 and trace.truncated
    assert "(truncated)" in trace_dot(trace)


# -- heuristic independence ----------------------------------------------------------


def test_counts_independent_of_heuristic():
    for seed in range(30):
        state = random_state(seed)
        counts = {dds_count(state, h).count for h in ALL_HEURISTICS}
        assert len(counts) == 1


def test_cutoff_counts_full_solutions_only():
    # two components, 3 x 2 solutions; a limit of 4 must be measured in
    # full solutions, not in partial ones (of which there are only 5)
    state = intro_state()
    result = dds_count(state, limit=4)
    assert not result.exact
    assert result.count >= 4


def test_choose_requires_unassigned():
    state = new_problem([{1}])
    with pytest.raises(ValueError):
        choose(state, Heuristic.FIRST_FAIL, [])


# -- metamorphic oracles ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(GENERATORS, SEEDS, st.data())
def test_variable_permutation_keeps_counts(make, seed, data):
    state = make(seed)
    perm = data.draw(st.permutations(range(state.num_vars)))
    renamed = permuted(state, perm)
    want = brute_force_count(state)
    for h in ALL_HEURISTICS:
        for engine in (dfs_count, dds_count):
            a, b = engine(state, h), engine(renamed, h)
            assert a.exact and b.exact and a.count == b.count == want


@settings(max_examples=30, deadline=None)
@given(GENERATORS, SEEDS, SEEDS)
def test_value_relabelling_keeps_counts(make, seed, relabel_seed):
    # domains of large and negative ints iterate in another order than
    # small ones, and their minimum, the branching value, moves
    state = make(seed)
    assume(not any(isinstance(p, Linear) for p in state.propagators.values()))
    renamed = relabelled(state, relabel_seed)
    want = brute_force_count(state)
    assert brute_force_count(renamed) == want
    for h in ALL_HEURISTICS:
        for engine in (dfs_count, dds_count):
            a, b = engine(state, h), engine(renamed, h)
            assert a.exact and b.exact and a.count == b.count == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([random_state, random_clustered_state]), SEEDS)
def test_table_as_regular_keeps_counts(make, seed):
    # each table posted again as a regular constraint over the trie of its
    # tuples: the same solutions, filtered by another propagator
    state = make(seed)
    assume(any(isinstance(p, Table) for p in state.propagators.values()))
    trie = table_as_regular(state)
    assert not any(isinstance(p, Table) for p in trie.propagators.values())
    want = brute_force_count(state)
    assert brute_force_count(trie) == want
    for h in ALL_HEURISTICS:
        for engine in (dfs_count, dds_count):
            a, b = engine(state, h), engine(trie, h)
            assert a.exact and b.exact and a.count == b.count == want


@settings(max_examples=60, deadline=None)
@given(GENERATORS, SEEDS, st.data())
def test_redundant_constraint_keeps_counts(make, seed, data):
    # the same constraint object under a second handle: each handle has its
    # own place in the store and its own wake-ups, and both read one memo
    state = make(seed)
    want = brute_force_count(state)
    prop = data.draw(st.sampled_from(list(state.propagators.values())))
    state.post(prop)
    assert brute_force_count(state) == want
    for h in ALL_HEURISTICS:
        for engine in (dfs_count, dds_count):
            result = engine(state, h)
            assert result.exact and result.count == want


@settings(max_examples=60, deadline=None)
@given(GENERATORS, SEEDS, st.integers(1, 30))
def test_tree_expand_yields_distinct_solutions(make, seed, k):
    # up to k assignments of every variable, all different, each inside the
    # declared domains and satisfying every posted constraint; DFS
    # enumeration also says whether it listed them all
    state = make(seed)
    want = brute_force_count(state)
    for h in ALL_HEURISTICS:
        listed = [tree_expand(dds_tree(state, h, limit=limit).tree, k)
                  for limit in (None, k)]
        enumerated, complete, _stats = dfs_enumerate(state, h, k)
        assert complete == (want < k)
        for sols in listed + [enumerated]:
            assert len(sols) == min(k, want)
            rows = {tuple(sorted(s.items())) for s in sols}
            assert len(rows) == len(sols)
            for s in sols:
                assert sorted(s) == list(range(state.num_vars))
                assert all(s[x] in d for x, d in enumerate(state.domains))
                assert all(p.satisfied([s[x] for x in p.vars])
                           for p in state.propagators.values())


@settings(max_examples=60, deadline=None)
@given(GENERATORS, SEEDS)
def test_tree_count_equals_dds_count(make, seed):
    state = make(seed)
    for h in ALL_HEURISTICS:
        assert tree_count(dds_tree(state, h).tree) == dds_count(state, h).count


@settings(max_examples=60, deadline=None)
@given(GENERATORS, SEEDS, st.integers(1, 20))
def test_cutoff_count_is_lower_bound(make, seed, limit):
    state = make(seed)
    want = brute_force_count(state)
    for h in ALL_HEURISTICS:
        for engine in (dfs_count, dds_count):
            result = engine(state, h, limit=limit)
            if result.exact:
                assert result.count == want
            else:
                assert limit < result.count <= want


# -- deep search and pinned results ----------------------------------------------


def test_deep_search_needs_no_recursion():
    # DFS goes ~n levels deep on the chain, DDS and its tree ~n/2; under a
    # recursion limit just above the current depth, a recursive engine,
    # tree_count or tree_expand would fail
    n = 300
    state = neq_chain(n)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        dfs = dfs_count(state, limit=10)
        dds = dds_count(state, limit=10)
        tree = dds_tree(state, limit=10)
        count = tree_count(tree.tree)
        sols = tree_expand(tree.tree, 3)
        enumerated, complete, stats = dfs_enumerate(state, max_solutions=3)
    finally:
        sys.setrecursionlimit(saved)
    assert (dfs.count, dfs.exact) == (11, False) and dfs.stats.max_depth >= n - 1
    assert not dds.exact and dds.count > 10
    assert not tree.exact and tree.stats.max_depth >= n // 2 and count > 10
    assert len(enumerated) == 3 and not complete and stats.max_depth >= n - 1
    for sol in sols + enumerated:
        assert all(sol[i] != sol[i + 1] for i in range(n - 1))


GOLDEN_SEEDS = range(0, 500, 12)
# digest of golden_text() as the recursive engines produced it
GOLDEN_SHA256 = "07a375adf853483c619a94e681867ac2fadebd990eed26eacbbbc7cad110b4f3"


def golden_text():
    """Every result the engines report on a slice of the random corpus,
    as text: counts, exact flags, statistics, DOT traces, solution lists."""
    def stats(s):
        return [getattr(s, f.name) for f in dataclasses.fields(s)
                if f.name != "wall_time"]

    def solutions(sols):
        return [sorted(s.items()) for s in sols]

    rows = []
    for seed in GOLDEN_SEEDS:
        state = random_state(seed, min_vars=4, max_vars=8, max_dom=4)
        for h in ALL_HEURISTICS:
            for limit in (None, 5):
                for engine in (dfs_count, dds_count):
                    trace = SearchTrace()
                    r = engine(state, h, limit=limit, trace=trace)
                    rows.append((r.count, r.exact, stats(r.stats), trace_dot(trace)))
                trace = SearchTrace()
                r = dds_tree(state, h, limit=limit, trace=trace)
                rows.append((tree_count(r.tree), r.exact, stats(r.stats),
                             trace_dot(trace), solutions(tree_expand(r.tree, 40))))
            for k in (5, 10 ** 6):
                sols, complete, s = dfs_enumerate(state, h, k)
                rows.append((solutions(sols), complete, stats(s)))
    return repr(rows)


def test_golden_results():
    digest = hashlib.sha256(golden_text().encode()).hexdigest()
    assert digest == GOLDEN_SHA256
