from contextlib import contextmanager
from math import prod
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from fdsolve import (EQ, AllDifferent, Linear, Neq, ProblemState,
                     StateStatus, dds_count, new_problem)
from fdsolve import graph as graph_module
from fdsolve import search
from fdsolve.graph import (DecompositionAnalysis, build_constraint_graph,
                           components, decompose_analysis)

from randcsp import (brute_force_count, enumerate_solutions, intro_state,
                     open_variables, random_clustered_state, random_state,
                     random_state_with_slide, watched_decompositions)

GENERATORS = st.sampled_from([random_state, random_clustered_state,
                              random_state_with_slide])


def open_graph(state, scope=None):
    """The open variables of ``scope`` (by default every variable) and the
    edges ``build_constraint_graph`` gives over them."""
    nodes = open_variables(state, scope)
    return nodes, build_constraint_graph(state, nodes)


def test_intro_graph_after_root_propagation():
    state = intro_state()
    assert state.propagate() is StateStatus.BRANCHABLE
    nodes, edges = open_graph(state)
    assert nodes == frozenset({0, 1, 2, 3})
    assert sorted(sorted(e) for e in edges) == [[0, 1], [2, 3]]


def test_alldiff_graph_decomposed():
    state = new_problem([{0, 1}, {0, 1}, {2, 3}, {2, 3}])
    state.post(AllDifferent([0, 1, 2, 3]))
    state.propagate()
    _nodes, edges = open_graph(state)
    assert sorted(sorted(e) for e in edges) == [[0, 1], [2, 3]]


def test_linear_graph_single_edge():
    state = new_problem([{0, 1, 2}] * 3)
    state.post(Linear((1, 1, 1), (0, 1, 2), EQ, 3))
    state.propagate()
    _nodes, edges = open_graph(state)
    assert [sorted(e) for e in edges] == [[0, 1, 2]]


def test_components_examples():
    state = intro_state()
    state.propagate()
    comps = components(*open_graph(state))
    assert [sorted(c) for c in comps] == [[0, 1], [2, 3]]

    chain = new_problem([{0, 1}] * 3)
    chain.post(Neq(0, 1))
    chain.post(Neq(1, 2))
    chain.propagate()
    comps = components(*open_graph(chain))
    assert [sorted(c) for c in comps] == [[0, 1, 2]]

    bare = new_problem([{0, 1}] * 3)
    comps = components(*open_graph(bare))
    assert [sorted(c) for c in comps] == [[0], [1], [2]]

    # one edge and a free variable: the edge's nodes form one group
    single = new_problem([{0, 1}] * 3)
    single.post(Neq(0, 2))
    single.propagate()
    nodes, edges = open_graph(single)
    assert len(edges) == 1
    comps = components(nodes, edges)
    assert [sorted(c) for c in comps] == [[0, 2], [1]]


def reference_components(nodes, edges):
    """Connected node sets by a plain union-find over every node, sorted
    by their lowest node."""
    parent = {x: x for x in nodes}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for edge in edges:
        first, *rest = edge
        for x in rest:
            parent[find(x)] = find(first)
    groups = {}
    for x in nodes:
        groups.setdefault(find(x), set()).add(x)
    return sorted(map(frozenset, groups.values()), key=min)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_components_match_reference_union_find(data):
    # random hypergraphs: no edge, one edge, and many overlapping ones
    nodes = data.draw(st.frozensets(st.integers(0, 60)))
    edges = []
    if len(nodes) >= 2:
        edges = data.draw(st.lists(st.frozensets(
            st.sampled_from(sorted(nodes)), min_size=2), max_size=20))
    got = components(nodes, tuple(edges))
    assert type(got) is tuple
    assert all(type(c) is frozenset for c in got)
    assert list(got) == reference_components(nodes, edges)


def watched(state):
    """The decomposition nodes of a decomposing search of ``state``."""
    with watched_decompositions() as seen:
        dds_count(state)
    return seen


def test_decomposition_parts_intro():
    # the root is the only decomposition node
    (root,) = watched(intro_state())
    assert root.scope == frozenset(range(4))
    assert root.parts == (frozenset({0, 1}), frozenset({2, 3}))
    assert root.isolated == ()


def test_decomposition_parts_attach_riders_to_first_component():
    # the riders, one assigned variable and one unconstrained variable,
    # are in the watched scope but in no part: the assigned one is dropped
    # and the unconstrained one is isolated, counted by its domain size
    state = new_problem([{5}, {0, 1, 2}, {0, 1}, {0, 1}, {2, 3}, {2, 3}])
    state.post(Neq(2, 3))
    state.post(Neq(4, 5))
    (root,) = watched(state)
    assert root.scope == frozenset(range(6))
    assert root.parts == (frozenset({2, 3}), frozenset({4, 5}))
    assert root.isolated == (1,)


def test_no_decomposition_when_connected():
    state = new_problem([{0, 1, 2}] * 3)
    state.post(Linear((1, 1, 1), (0, 1, 2), EQ, 3))
    assert watched(state) == []


def test_no_decomposition_single_component_with_assigned():
    state = new_problem([{7}, {9}, {0, 1}, {0, 1}, {0, 1}])
    state.post(Neq(2, 3))
    state.post(Neq(3, 4))
    assert watched(state) == []
    state.propagate()
    assert len(decompose_analysis(state).linked) == 1


def watched_scopes(state):
    """The scope and the linked parts of each decomposition node of a
    decomposing search of ``state``."""
    return [set(scope) for node in watched(state)
            for scope in (node.scope, *node.parts)]


def test_partial_problem_restriction_and_factorization():
    # every decomposition the engine performs yields independent partial
    # problems: projections match and counts factor
    with watched_decompositions() as records:
        for seed in range(60):
            dds_count(random_state(seed, max_vars=8, max_dom=4))
        for seed in range(40):
            dds_count(random_clustered_state(seed))
    assert len(records) > 20
    for state, scope, parts, isolated in records[:80]:
        all_vars = sorted(scope)
        whole = enumerate_solutions(state, scope=all_vars)
        # count factorization: the parts' counts times the isolated
        # variables' domain sizes
        assert len(whole) == prod(
            brute_force_count(state, scope=p) for p in parts) * prod(
            len(state.domains[x]) for x in isolated)
        # restriction equality on satisfiable states (projection of the
        # whole solution set equals the partial problem's solutions)
        if whole:
            for part in parts:
                idx = [all_vars.index(x) for x in sorted(part)]
                projected = {tuple(sol[i] for i in idx) for sol in whole}
                assert projected == enumerate_solutions(state, scope=part)
        # free-variable accounting: each unassigned scope variable is
        # isolated or in exactly one part, and the parts hold no other
        unassigned = {x for x in all_vars if len(state.domains[x]) != 1}
        seen = [x for p in parts for x in p] + list(isolated)
        assert sorted(seen) == sorted(unassigned)


def test_determinism():
    for seed in (3, 17, 40):
        a = random_state(seed)
        b = random_state(seed)
        a.propagate()
        b.propagate()
        assert decompose_analysis(a) == decompose_analysis(b)
        (_na, ea), (_nb, eb) = open_graph(a), open_graph(b)
        assert sorted(sorted(e) for e in ea) == sorted(sorted(e) for e in eb)


def test_scope_restricted_graph():
    state = intro_state()
    state.propagate()
    nodes, edges = open_graph(state, {0, 1})
    assert nodes == frozenset({0, 1})
    assert [sorted(e) for e in edges] == [[0, 1]]


def test_analysis_classifies_isolated():
    state = new_problem([{5}, {0, 1, 2}, {0, 1}, {0, 1}])
    state.post(Neq(2, 3))
    state.propagate()
    analysis = decompose_analysis(state)
    assert [sorted(c) for c in analysis.linked] == [[2, 3]]
    assert analysis.isolated == (1,)


def full_scan_graph(state, scope):
    """The graph of ``scope`` from every stored propagator's split: its
    nodes and its sorted edge multiset."""
    nodes = open_variables(state, scope)
    edges = []
    for prop in state.propagators.values():
        for edge in prop.hyperedges(state):
            if len(edge & nodes) >= 2:
                edges.append(sorted(edge & nodes))
    return nodes, sorted(edges)


def search_states(make, seed, data):
    """A random state through propagate, a clone and random tells, also
    each told clone before it propagates."""
    state = make(seed)
    status = state.propagate()
    for _ in range(data.draw(st.integers(0, 3)) + 1):
        if status is not StateStatus.BRANCHABLE:
            return
        yield state
        state = state.clone()
        x = data.draw(st.sampled_from(
            [x for x in range(state.num_vars) if len(state.domains[x]) > 1]))
        v = data.draw(st.sampled_from(sorted(state.domains[x])))
        (state.tell_eq if data.draw(st.booleans())
         else state.remove_value)(x, v)
        yield state
        status = state.propagate()


def drawn_scopes(state, parts, data):
    """Every variable (None and a range), ``parts`` (the scopes and parts
    of a decomposing search's decomposition nodes), and a random
    subset."""
    every = range(state.num_vars)
    return [None, every, *parts, data.draw(st.sets(st.sampled_from(every)))]


@contextmanager
def handed_nodes():
    """Yield a list that gets the ``nodes`` argument of each call to the
    graph helpers inside the block, patched where ``decompose_analysis``
    looks them up."""
    seen = []
    build, join = graph_module.build_constraint_graph, graph_module.components

    def spy_build(state, nodes):
        seen.append(nodes)
        return build(state, nodes)

    def spy_components(nodes, edges):
        seen.append(nodes)
        return join(nodes, edges)

    with mock.patch.object(graph_module, "build_constraint_graph", spy_build), \
            mock.patch.object(graph_module, "components", spy_components):
        yield seen


def assert_one_node_set(seen, nodes):
    """Both helpers got one frozenset, ``nodes``, at a scope pass over two
    or more open variables, and neither ran below two."""
    if len(nodes) < 2:
        assert seen == []
    else:
        assert seen and all(got is seen[0] for got in seen)
        assert type(seen[0]) is frozenset and seen[0] == nodes


@contextmanager
def checked_scope_passes():
    """At each decomposing-search node's scope pass inside the block,
    assert that the graph helpers got the node's open scope variables as
    one frozenset."""
    analyse = search.decompose_analysis
    with handed_nodes() as seen:
        def check(state, scope):
            seen.clear()
            analysis = analyse(state, scope)
            assert_one_node_set(seen, open_variables(state, scope))
            return analysis

        with mock.patch.object(search, "decompose_analysis", check):
            yield


@settings(max_examples=200, deadline=None)
@given(GENERATORS, st.integers(0, 10 ** 6), st.data())
def test_scope_graph_equals_full_store_scan(make, seed, data):
    with checked_scope_passes():
        parts = watched_scopes(make(seed))
    for state in search_states(make, seed, data):
        every = range(state.num_vars)
        for scope in drawn_scopes(state, parts, data):
            nodes, edges = full_scan_graph(state,
                                           every if scope is None else scope)
            with handed_nodes() as seen:
                decompose_analysis(state, scope)
            assert_one_node_set(seen, nodes)
            got = build_constraint_graph(state, nodes)
            assert type(got) is tuple
            assert sorted(sorted(e) for e in got) == edges


def reference_analysis(state, scope):
    """``decompose_analysis`` from the full store scan: the parts of two
    or more variables, the sorted singletons, and per linked variable the
    number of edges holding it."""
    nodes, edges = full_scan_graph(state, scope)
    parts = reference_components(nodes, edges)
    linked = tuple(part for part in parts if len(part) >= 2)
    isolated = tuple(sorted(x for part in parts if len(part) == 1
                            for x in part))
    degree = {x: sum(x in edge for edge in edges)
              for part in linked for x in part}
    return DecompositionAnalysis(linked, isolated, degree)


@settings(max_examples=200, deadline=None)
@given(GENERATORS, st.integers(0, 10 ** 6), st.data())
def test_analysis_equals_reference(make, seed, data):
    # the scopes of the graph oracle above, plus one with no open variable
    # and one with exactly one
    parts = watched_scopes(make(seed))
    for state in search_states(make, seed, data):
        every = range(state.num_vars)
        fixed = [x for x in every if len(state.domains[x]) == 1]
        unfixed = [x for x in every if len(state.domains[x]) != 1]
        closed = data.draw(st.sets(st.sampled_from(fixed))) if fixed else set()
        scopes = [*drawn_scopes(state, parts, data), closed]
        if unfixed:
            scopes.append(closed | {data.draw(st.sampled_from(unfixed))})
        for scope in scopes:
            analysis = decompose_analysis(state, scope)
            assert analysis == reference_analysis(
                state, every if scope is None else scope)
            # the candidates of choose, ascending
            assert list(analysis.degree) == sorted(analysis.degree)


def graph_analysis(state, scope):
    """``decompose_analysis`` as ``build_constraint_graph`` and
    ``components`` give it over the scope's sorted open variables: the
    linked parts, the isolated variables, and the degree map's items in
    order."""
    free = sorted(x for x in scope if len(state.domains[x]) != 1)
    if len(free) < 2:
        return (), tuple(free), []
    nodes = frozenset(free)
    edges = build_constraint_graph(state, nodes)
    comps = components(nodes, edges)
    linked = tuple(c for c in comps if len(c) >= 2)
    isolated = tuple(x for c in comps if len(c) == 1 for x in c)
    degree = [(x, sum(x in e for e in edges))
              for x in free if x not in isolated]
    return linked, isolated, degree


def refuse(*_args, **_kwargs):
    raise AssertionError("the analysis searched for components")


@settings(max_examples=200, deadline=None)
@given(GENERATORS, st.integers(0, 10 ** 6), st.data())
def test_spanning_edge_analysis_equals_graph_reference(make, seed, data):
    # on the drawn scopes, and on scopes whose open variables are one
    # stored propagator's fragment, the degree map's items are compared in
    # order; a fragment scope is one linked part found without a component
    # search
    parts = watched_scopes(make(seed))
    for state in search_states(make, seed, data):
        every = range(state.num_vars)
        fixed = [x for x in every if len(state.domains[x]) == 1]
        scopes = [(scope, False) for scope in drawn_scopes(state, parts, data)]
        for prop in state.propagators.values():
            for edge in prop.hyperedges(state):
                if len(edge) >= 2:
                    riders = (data.draw(st.sets(st.sampled_from(fixed)))
                              if fixed else set())
                    scopes.append((edge | riders, True))
        for scope, spanning in scopes:
            want = graph_analysis(state, every if scope is None else scope)
            with mock.patch.object(graph_module, "components",
                                   refuse if spanning else components):
                linked, isolated, degree = decompose_analysis(state, scope)
            assert (linked, isolated, list(degree.items())) == want
            if spanning:
                assert linked == (scope - set(fixed),)
                assert isolated == ()


def test_one_open_variable_asks_no_propagator(monkeypatch):
    # Neq(1, 2) is stored, but the scope holds only one of its variables
    state = new_problem([{5}, {0, 1}, {0, 1, 2}])
    state.post(Neq(1, 2))
    assert state.propagate() is StateStatus.BRANCHABLE

    def refuse(*_args, **_kwargs):
        raise AssertionError("the analysis asked the store")

    monkeypatch.setattr(ProblemState, "propagators_on", refuse)
    monkeypatch.setattr("fdsolve.graph.build_constraint_graph", refuse)
    assert decompose_analysis(state, {2}) == ((), (2,), {})
    assert decompose_analysis(state, {0, 1}) == ((), (1,), {})
    # a fully assigned scope has no nodes
    assert decompose_analysis(state, {0}) == ((), (), {})
    assert decompose_analysis(state, set()) == ((), (), {})
