import itertools
import sys

import pytest

from fdsolve import (AllDifferent, ColoringSpec, Neq, UGraph, WalkSpec,
                     chromatic_oracle, coloring_document, dds_count, dfs_count,
                     erdos_renyi, lattice_point, maximal_cliques, new_problem,
                     saw_document, saw_walk_count)
from fdsolve.models import lattice_code

from randcsp import brute_force_count, intro_state


# -- random graphs -------------------------------------------------------------


def test_erdos_renyi_extremes():
    assert erdos_renyi(6, 0.0, 1).edges == frozenset()
    assert len(erdos_renyi(6, 1.0, 1).edges) == 15


def test_erdos_renyi_deterministic():
    a = erdos_renyi(12, 0.3, 42)
    b = erdos_renyi(12, 0.3, 42)
    c = erdos_renyi(12, 0.3, 43)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_ugraph_validation():
    with pytest.raises(ValueError):
        UGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        UGraph(3, [(0, 5)])
    with pytest.raises(ValueError, match="node count"):
        UGraph(-3, [])
    for edges in ([(0, 1, 2)], [(0, 1, 2), (1,)]):
        with pytest.raises(ValueError, match="two ends"):
            UGraph(3, edges)
    assert UGraph(0, []).n == 0


# -- maximal cliques -------------------------------------------------------------


def test_cliques_triangle():
    g = UGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert maximal_cliques(g) == [frozenset({0, 1, 2})]


def test_cliques_path():
    g = UGraph(3, [(0, 1), (1, 2)])
    assert sorted(sorted(c) for c in maximal_cliques(g)) == [[0, 1], [1, 2]]


def test_cliques_k4_minus_edge():
    g = UGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert sorted(sorted(c) for c in maximal_cliques(g)) == \
        [[0, 1, 2], [1, 2, 3]]


def is_clique(g, nodes):
    return all((min(u, v), max(u, v)) in g.edges
               for u, v in itertools.combinations(sorted(nodes), 2))


def test_cliques_against_exhaustive_subset_oracle():
    for seed in range(15):
        g = erdos_renyi(7, 0.45, seed)
        found = set(maximal_cliques(g))
        # oracle: all cliques by subset enumeration, keep the maximal ones
        cliques = [frozenset(s)
                   for r in range(1, 8)
                   for s in itertools.combinations(range(7), r)
                   if is_clique(g, s)]
        maximal = {c for c in cliques
                   if not any(c < d for d in cliques)}
        assert found == maximal


def test_cliques_need_no_recursion():
    # Bron-Kerbosch goes one level deeper per clique member; under a
    # recursion limit just above the current depth, the 100-clique of a
    # complete graph would fail a recursive expansion
    g = UGraph(100, itertools.combinations(range(100), 2))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        cliques = maximal_cliques(g)
    finally:
        sys.setrecursionlimit(saved)
    assert cliques == [frozenset(range(100))]


# -- coloring model ---------------------------------------------------------------


def coloring_layout(g):
    """The cliques and the edges the coloring document posts, in order: the
    variables of each AllDifferent, then the pair of each Neq."""
    constraints = coloring_document(ColoringSpec(g, 3)).constraints
    big = [frozenset(c.vars) for c in constraints
           if isinstance(c, AllDifferent)]
    rest = [(c.x, c.y) for c in constraints if isinstance(c, Neq)]
    assert len(big) + len(rest) == len(constraints)
    return big, rest


def test_coloring_triangle_layout():
    g = UGraph(3, [(0, 1), (1, 2), (0, 2)])
    big, rest = coloring_layout(g)
    assert len(big) == 1 and rest == []
    state = coloring_document(ColoringSpec(g, 3)).build_state()
    assert len(state.propagators) == 1


def test_coloring_path_layout():
    g = UGraph(3, [(0, 1), (1, 2)])
    big, rest = coloring_layout(g)
    assert big == [] and len(rest) == 2
    state = coloring_document(ColoringSpec(g, 2)).build_state()
    assert all(isinstance(p, Neq) for p in state.propagators.values())


def test_coloring_k4_needs_four_colors():
    g = UGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert chromatic_oracle(g, 3) == 0
    for k, want in ((3, 0), (4, 24)):
        state = coloring_document(ColoringSpec(g, k)).build_state()
        assert dds_count(state).count == want


def test_clique_edge_coverage():
    # every edge is in a posted alldifferent or has a posted neq, never both;
    # each alldifferent is a maximal clique, and the neqs come in order
    for seed in range(10):
        g = erdos_renyi(8, 0.4, seed)
        big, rest = coloring_layout(g)
        assert all(c in maximal_cliques(g) for c in big)
        assert rest == sorted(rest)
        covered = set()
        for c in big:
            covered.update((min(u, v), max(u, v))
                           for u, v in itertools.combinations(sorted(c), 2))
        assert set(rest).isdisjoint(covered)
        assert set(rest) | covered == set(g.edges)


# -- chromatic oracle ----------------------------------------------------------------


def test_chromatic_examples():
    triangle = UGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert chromatic_oracle(triangle, 3) == 6  # k(k-1)(k-2)
    edgeless = UGraph(3, [])
    assert chromatic_oracle(edgeless, 2) == 8  # 2**3
    one_edge = UGraph(2, [(0, 1)])
    assert chromatic_oracle(one_edge, 2) == 2


def test_chromatic_guard():
    with pytest.raises(ValueError):
        chromatic_oracle(UGraph(13, []), 2)


def test_chromatic_oracle_needs_no_recursion():
    # deletion-contraction turns an n-cycle into an (n-1)-cycle and a path,
    # one level deeper per node; under a recursion limit just above the
    # current depth a recursive expansion of the 100-cycle would fail
    n, k = 100, 3
    cycle = UGraph(n, [(i, (i + 1) % n) for i in range(n)])
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        count = chromatic_oracle(cycle, k, max_nodes=n)
    finally:
        sys.setrecursionlimit(saved)
    assert count == (k - 1) ** n + (-1) ** n * (k - 1)


def test_chromatic_matches_direct_enumeration():
    for seed in range(8):
        g = erdos_renyi(6, 0.4, seed)
        for k in (2, 3):
            direct = sum(
                all(c[u] != c[v] for u, v in g.edges)
                for c in itertools.product(range(k), repeat=6))
            assert chromatic_oracle(g, k) == direct


def test_solver_agrees_with_chromatic_oracle():
    for seed in range(12):
        g = erdos_renyi(5 + seed % 4, 0.35, seed)
        k = 2 + seed % 3
        want = chromatic_oracle(g, k)
        state = coloring_document(ColoringSpec(g, k)).build_state()
        assert dfs_count(state).count == want
        assert dds_count(state).count == want


# -- self-avoiding walks ----------------------------------------------------------------


def test_lattice_codes_roundtrip():
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert lattice_point(lattice_code(x, y, 3), 3) == (x, y)


def test_walk_spec_validation():
    with pytest.raises(ValueError):
        WalkSpec(0)
    with pytest.raises(ValueError):
        WalkSpec(5, bound=3)


def test_walk_oracle_known_counts():
    assert [saw_walk_count(L) for L in range(1, 7)] == [1, 4, 12, 36, 100, 284]


def test_saw_model_counts():
    for length, want in ((1, 1), (2, 4), (4, 36)):
        state = saw_document(WalkSpec(length)).build_state()
        assert dds_count(state).count == want


def test_saw_model_matches_walk_oracle():
    for length in range(1, 6):
        want = saw_walk_count(length)
        state = saw_document(WalkSpec(length)).build_state()
        assert dds_count(state).count == want


# -- brute force oracle ----------------------------------------------------------------


def test_brute_force_examples():
    assert brute_force_count(intro_state()) == 6
    pair = new_problem([{1}, {1}])
    pair.post(Neq(0, 1))
    assert brute_force_count(pair) == 0
    assert brute_force_count(new_problem([{0, 1, 2}, {0, 1, 2}])) == 9


def test_brute_force_guard():
    state = new_problem([set(range(100))] * 4)
    with pytest.raises(ValueError):
        brute_force_count(state)
