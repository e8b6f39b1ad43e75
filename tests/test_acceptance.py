"""Acceptance suite: one test per release criterion, each at its stated
tolerance (exact unless noted).  Run with ``pytest tests/test_acceptance.py
-v -s`` to get one summary line per criterion."""
import itertools
import random
import time
from contextlib import contextmanager
from math import prod

import pytest

from fdsolve import (AllDifferent, ColoringSpec, Heuristic, Linear, Neq,
                     SearchTrace, UGraph, WalkSpec, chromatic_oracle,
                     coloring_document, dds_count, dfs_count, erdos_renyi,
                     new_problem, saw_document, saw_walk_count)
from fdsolve.cli import bench_aggregates, run_bench
from fdsolve.propagators import EQ

from randcsp import (brute_force_count, enumerate_solutions, intro_state,
                     random_state, watched_decompositions)

ALL_HEURISTICS = list(Heuristic)
CORPUS_SIZE = 500


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2}: FAIL  {title}")
        raise
    print(f"\ncriterion {num:2}: PASS  {title}")


@pytest.fixture(scope="module")
def corpus():
    """The seeded random instances shared by criteria 1, 4 and 9."""
    return [(seed, random_state(seed, min_vars=4, max_vars=8, max_dom=4))
            for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Oracle counts, engine counts for every heuristic, and the
    decompositions performed along the way.  Each row's ``watched`` maps a
    heuristic to the number of decompositions the watch saw in its
    decomposing search and the search's own ``decomposition_nodes``."""
    t0 = time.perf_counter()
    rows = []
    with watched_decompositions() as decompositions:
        for seed, state in corpus:
            oracle = brute_force_count(state)
            counts, watched = {}, {}
            for h in ALL_HEURISTICS:
                counts["dfs", h] = dfs_count(state, h).count
                before = len(decompositions)
                result = dds_count(state, h)
                counts["dds", h] = result.count
                watched[h] = (len(decompositions) - before,
                              result.stats.decomposition_nodes)
            rows.append((seed, state, oracle, counts, watched))
    elapsed = time.perf_counter() - t0
    return rows, decompositions, elapsed


def test_decomposition_watch_sees_every_decomposition(corpus_results):
    # the oracle checks of decompositions see each one only if the walker
    # makes its scope pass through ``search.decompose_analysis``
    rows, decompositions, _elapsed = corpus_results
    assert decompositions
    for seed, _state, _oracle, _counts, watched in rows:
        for h, (seen, nodes) in watched.items():
            assert seen == nodes, (seed, h)


def test_criterion_1_oracle_equivalence(corpus_results):
    rows, _decompositions, elapsed = corpus_results
    with criterion(1, f"oracle equivalence on {len(rows)} random instances "
                      f"x 4 heuristics x 2 engines ({elapsed:.1f}s)"):
        assert len(rows) >= 500
        for seed, _state, oracle, counts, _watched in rows:
            for key, got in counts.items():
                assert got == oracle, (seed, key, got, oracle)
        assert elapsed < 120.0


def test_criterion_2_intro_example_structure():
    with criterion(2, "intro example: 6 solutions; decomposing engine uses "
                      "1 decomposition + 2 choices, plain DFS 5 choices"):
        for h in ALL_HEURISTICS:
            dds = dds_count(intro_state(), h)
            assert dds.count == 6
            assert dds.stats.decomposition_nodes == 1
            assert dds.stats.choice_nodes == 2
            dfs = dfs_count(intro_state(), h)
            assert dfs.count == 6
            assert dfs.stats.choice_nodes == 5
            assert dfs.stats.decomposition_nodes == 0


def test_criterion_3_alldifferent_scope_split():
    with criterion(3, "all-different splits into [{w,x},{y,z}] on the "
                      "disjoint-pairs example"):
        state = new_problem([{0, 1}, {0, 1}, {2, 3}, {2, 3}])
        prop = AllDifferent([0, 1, 2, 3])
        state.post(prop)
        state.propagate()
        assert [sorted(e) for e in prop.hyperedges(state)] == \
            [[0, 1], [2, 3]]


def test_criterion_4_factorization(corpus_results):
    _rows, decompositions, _elapsed = corpus_results
    with criterion(4, f"count factorization holds for all "
                      f"{len(decompositions)} decompositions performed"):
        assert decompositions
        for state, scope, parts, isolated in decompositions:
            whole = brute_force_count(state, scope=scope)
            assert whole == prod(
                brute_force_count(state, scope=p) for p in parts) * prod(
                len(state.domains[x]) for x in isolated)


def test_criterion_5_chromatic_agreement():
    t0 = time.perf_counter()
    with criterion(5, "solver equals deletion-contraction oracle on 30 "
                      "seeded random graphs"):
        for seed in range(30):
            n = 5 + seed % 5          # 5..9 nodes
            p = 0.2 + 0.1 * (seed % 4)
            k = 2 + seed % 3          # 2..4 colors
            g = erdos_renyi(n, p, seed)
            want = chromatic_oracle(g, k)
            state = coloring_document(ColoringSpec(g, k)).build_state()
            assert dfs_count(state).count == want, (seed, n, p, k)
            assert dds_count(state).count == want, (seed, n, p, k)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_walk_counts():
    t0 = time.perf_counter()
    with criterion(6, "walk model counts 4, 12, 36, 100, 284 for 1..5 steps, "
                      "confirmed by the walk oracle"):
        # oracle first: direct enumeration fixes the expected values
        expected = [saw_walk_count(length) for length in range(2, 7)]
        assert expected == [4, 12, 36, 100, 284]
        for length, want in zip(range(2, 7), expected):
            state = saw_document(WalkSpec(length)).build_state()
            assert dds_count(state).count == want
            assert dfs_count(state).count == want
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_density_trend():
    t0 = time.perf_counter()
    with criterion(7, "mean DFS/DDS search-tree ratio > 1 when sparse and "
                      "non-increasing with density (n=15, k=3, 50 seeds)"):
        records = run_bench(nodes=15, edge_probs=[0.20, 0.30, 0.40],
                            colors=3, instances=50, seed=0)
        aggs = bench_aggregates(records)
        ratios = [aggs[p]["mean_node_ratio"] for p in (0.20, 0.30, 0.40)]
        assert ratios[0] > 1.0
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert time.perf_counter() - t0 < 600.0


def _failing_first_instance(rng):
    """Sat pair at low indices; unsatisfiable pairwise-different cluster
    whose first variable has the smallest domain, so first-fail explores
    the failing part first while plain DFS interleaves."""
    m = rng.choice([5, 6])            # m vars over m-1 values: no solution
    sat_vals = set(range(100, 100 + m - 2))
    doms = [set(sat_vals), set(sat_vals)]
    doms.append({0, 1})               # the smallest domain: explored first
    doms.extend(set(range(m - 1)) for _ in range(m - 1))
    state = new_problem(doms)
    state.post(Neq(0, 1))
    for i, j in itertools.combinations(range(2, 2 + m), 2):
        state.post(Neq(i, j))
    return state


def _unsat_second_instance(rng):
    """Three components ordered sat / unsat / sat by the heuristic rule."""
    m = rng.choice([4, 5])            # unsat cluster size
    doms = [set(range(m - 1)) for _ in range(m)]          # unsat: 0..m-1
    sat2 = [m, m + 1]
    doms += [set(range(10, 13)), set(range(10, 13))]      # sat2
    sat1 = [m + 2, m + 3]
    doms += [{20, 21}, {20, 21}]                          # sat1, min size
    state = new_problem(doms)
    for i, j in itertools.combinations(range(m), 2):
        state.post(Neq(i, j))
    state.post(Neq(sat2[0], sat2[1]))
    state.post(Neq(sat1[0], sat1[1]))
    return state


def test_criterion_8_short_circuit():
    with criterion(8, "failing component short-circuits its siblings; "
                      "decomposing search beats DFS when failure comes "
                      "first"):
        for seed in range(20):
            rng = random.Random(seed)

            state = _unsat_second_instance(rng)
            trace = SearchTrace(max_nodes=100000)
            result = dds_count(state, Heuristic.FIRST_FAIL, trace=trace)
            labels = [label for _p, _c, label in trace.edges]
            assert result.count == 0
            assert "part1" in labels       # the failing part was reached
            assert "part2" not in labels   # nothing after the failure

            state = _failing_first_instance(rng)
            trace = SearchTrace(max_nodes=100000)
            dds = dds_count(state, Heuristic.FIRST_FAIL, trace=trace)
            labels = [label for _p, _c, label in trace.edges]
            assert dds.count == 0
            assert "part1" not in labels   # sat sibling never explored
            dfs = dfs_count(state, Heuristic.FIRST_FAIL)
            assert dds.stats.nodes < dfs.stats.nodes


def test_criterion_9_cutoff_semantics(corpus_results):
    rows, _decompositions, _elapsed = corpus_results
    with criterion(9, "limit 10: inexact results only when the true count "
                      "exceeds 10, and then count >= 10"):
        for seed, state, oracle, _counts, _watched in rows:
            for engine in (dfs_count, dds_count):
                for h in ALL_HEURISTICS:
                    result = engine(state, h, limit=10)
                    if result.exact:
                        assert result.count == oracle, (seed, h)
                    else:
                        assert oracle > 10, (seed, h)
                        assert result.count >= 10, (seed, h)


def test_criterion_10_degeneration_on_linear():
    with criterion(10, "one all-covering linear constraint: identical "
                       "node/fail statistics, zero decompositions"):
        cases = [
            ([{0, 1, 2, 3}] * 5, (1, 1, 1, 1, 1), 7),
            ([{0, 1, 2}] * 4, (1, -1, 1, -1), 0),
            ([{0, 1, 2, 3, 4}] * 4, (2, 1, 1, 1), 9),
        ]
        for doms, coeffs, rhs in cases:
            state = new_problem([set(d) for d in doms])
            state.post(Linear(coeffs, tuple(range(len(doms))), EQ, rhs))
            for h in ALL_HEURISTICS:
                dfs = dfs_count(state, h)
                dds = dds_count(state, h)
                assert dds.stats.decomposition_nodes == 0
                assert dfs.count == dds.count
                assert (dfs.stats.nodes, dfs.stats.fails,
                        dfs.stats.choice_nodes, dfs.stats.solutions_found) == \
                    (dds.stats.nodes, dds.stats.fails,
                     dds.stats.choice_nodes, dds.stats.solutions_found)
