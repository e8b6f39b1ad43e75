import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdsolve import (AllDifferent, Linear, Neq, StateStatus, dds_count,
                     dfs_count, new_problem)
from fdsolve.propagators import EQ

from randcsp import (brute_force_count, enumerate_solutions, intro_state,
                     random_clustered_state, random_state,
                     random_state_with_slide)


def test_new_problem_intro():
    state = intro_state()
    assert state.num_vars == 4
    assert sorted(state.domains[0]) == [3, 5]
    assert sorted(state.domains[1]) == [3, 4]
    assert sorted(state.domains[2]) == [1, 2]


def test_new_problem_zero_vars():
    state = new_problem([])
    assert state.propagate() is StateStatus.SOLVED
    assert state.solution() == {}


def test_new_problem_empty_domain_fails():
    state = new_problem([set()])
    assert state.propagate() is StateStatus.FAILED


def test_post_returns_handles_and_validates():
    state = new_problem([{3, 5}, {3, 4}, {1, 2}, {1, 2}])
    h = state.post(AllDifferent([0, 1, 2, 3]))
    assert h == 0
    assert len(state.propagators[h].hyperedges(state)) >= 1
    with pytest.raises(ValueError):
        Neq(0, 0)  # degenerate scope
    with pytest.raises(ValueError):
        state.post(Neq(0, 9))  # unknown variable


def test_post_linear_prunes_to_bounds():
    # x + y = 5, x in 0..10, y in 0..3  ->  x in 2..5
    state = new_problem([set(range(11)), set(range(4))])
    state.post(Linear((1, 1), (0, 1), EQ, 5))
    assert state.propagate() is StateStatus.BRANCHABLE
    assert sorted(state.domains[0]) == [2, 3, 4, 5]


def test_propagate_intro_entails_disjoint_pairs():
    state = intro_state()
    assert state.propagate() is StateStatus.BRANCHABLE
    # A-C, A-D, B-C, B-D are entailed away; A-B and C-D remain
    assert len(state.propagators) == 2
    assert sorted(state.domains[0]) == [3, 5]  # no pruning
    assert sorted(state.domains[3]) == [1, 2]


def test_propagate_alldiff_hall_set():
    state = new_problem([{0, 1}, {0, 1}, {0, 1, 2}])
    state.post(AllDifferent([0, 1, 2]))
    assert state.propagate() is StateStatus.BRANCHABLE
    assert sorted(state.domains[2]) == [2]


def test_propagate_neq_both_assigned_equal():
    state = new_problem([{1}, {1}])
    state.post(Neq(0, 1))
    assert state.propagate() is StateStatus.FAILED


def test_tell_eq_and_neq():
    state = new_problem([{3, 5}, {3, 4}])
    state.remove_value(1, 3)
    assert sorted(state.domains[1]) == [4]
    state.tell_eq(0, 3)
    assert sorted(state.domains[0]) == [3]
    state.tell_eq(0, 7)
    assert len(state.domains[0]) == 0
    # an empty domain has nothing left to lose, as under restrict
    events = state.counters.domain_events
    state.tell_eq(0, 7)
    assert state.counters.domain_events == events
    assert state.propagate() is StateStatus.FAILED


def tell_subject(store):
    """x0 has 3 values, x1 2, x2 1, x3 3; with a store, the propagators on
    every variable, one of them posted since the last propagation and the
    rest at their fixpoint."""
    state = new_problem([{0, 1, 2}, {0, 1}, {5}, {0, 1, 2}])
    if store:
        state.post(Neq(0, 3))
        state.post(AllDifferent([0, 1, 3]))
        state.post(AllDifferent([1, 2, 3]))
        state.post(Neq(1, 3))
        assert state.propagate() is StateStatus.BRANCHABLE
        state.post(Neq(0, 1))
    return state


def bookkeeping(state):
    """What a write leaves behind, then what the next propagate makes of it."""
    told = (list(state.domains), state.failed, set(state._changed),
            state._fresh, state.counters.domain_events, state._unfixed)
    status = state.propagate()
    return told, (status, list(state.domains), state.counters.domain_events)


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("x, v", [(0, 7), (0, 1), (1, 0), (2, 5)],
                         ids=["outside", "3-value", "2-value", "1-value"])
def test_tell_eq_keeps_the_books_of_restrict(store, x, v):
    # tell_eq is restrict(x, {v}) without building the set; it must leave
    # the same state behind
    reference = tell_subject(store)
    reference.restrict(x, {v})
    state = tell_subject(store)
    state.tell_eq(x, v)
    assert bookkeeping(state) == bookkeeping(reference)


def neq_pair():
    """x0, x1 in {0, 1}, different, propagated: two solutions."""
    state = new_problem([{0, 1}, {0, 1}])
    state.post(Neq(0, 1))
    assert state.propagate() is StateStatus.BRANCHABLE
    return state


def test_a_write_between_propagations_is_propagated():
    # each write marks its variable, and the next propagate wakes its
    # propagators, whoever made the write: here no solution is left
    state = neq_pair()
    state.remove_value(0, 1)
    state.remove_value(1, 1)
    assert dfs_count(state).count == dds_count(state).count == 0
    assert state.propagate() is StateStatus.FAILED
    for write in (lambda s: s.restrict(0, {0}), lambda s: s.tell_eq(0, 0)):
        state = neq_pair()
        write(state)
        assert dfs_count(state).count == dds_count(state).count == 1
        assert state.propagate() is StateStatus.SOLVED
        assert state.solution() == {0: 0, 1: 1}


def test_a_pending_change_is_carried_and_refused():
    # a clone carries the changes its state has not yet propagated
    state = neq_pair()
    state.remove_value(0, 1)
    copy = state.clone()
    copy.remove_value(1, 1)
    assert copy.propagate() is StateStatus.FAILED
    assert state.propagate() is StateStatus.SOLVED
    assert state.solution() == {0: 0, 1: 1}
    # it carries the posts not yet propagated too: the clone runs the new
    # propagator, and so does its state afterwards
    state = new_problem([{0}, {0, 1}])
    state.post(Neq(0, 1))
    with pytest.raises(ValueError):
        state.solution()
    copy = state.clone()
    for s in (copy, state):
        runs = s.counters.propagations
        assert s.propagate() is StateStatus.SOLVED
        assert s.counters.propagations - runs == 1
        assert s.solution() == {0: 0, 1: 1}
    # every variable fixed but not yet propagated is no solution
    state = neq_pair()
    state.tell_eq(0, 0)
    state.tell_eq(1, 0)
    with pytest.raises(ValueError):
        state.solution()
    # both ways of failing leave no change pending
    assert state.propagate() is StateStatus.FAILED
    assert not state._changed
    state = neq_pair()
    state.tell_eq(0, 7)
    assert state._changed
    assert state.propagate() is StateStatus.FAILED
    assert not state._changed


def test_a_post_after_a_write_runs_with_the_woken_propagators():
    # the new propagator is pending at once and the woken one is queued
    # only when propagate starts, so the new one runs first, finds nothing
    # to do, and runs again once x0 = 0 has left x1 = 1: then x2 = 0
    state = new_problem([{0, 1}, {0, 1}, {0, 1}])
    state.post(Neq(0, 1))
    assert state.propagate() is StateStatus.BRANCHABLE
    runs = state.counters.propagations
    state.remove_value(0, 1)
    state.post(Neq(1, 2))
    assert state._fresh == 1
    assert state.propagate() is StateStatus.SOLVED
    assert state.solution() == {0: 0, 1: 1, 2: 0}
    assert state.counters.propagations - runs == 3


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([random_state, random_clustered_state,
                        random_state_with_slide]),
       st.integers(0, 10 ** 6), st.data())
def test_writes_between_propagations_count_like_a_fresh_state(make, seed,
                                                              data):
    # narrowing a propagated state through any writer and counting it
    # agrees with a fresh state posted on the narrowed domains
    state = make(seed)
    assume(state.propagate() is not StateStatus.FAILED)
    for _ in range(data.draw(st.integers(1, 3))):
        x = data.draw(st.integers(0, state.num_vars - 1))
        # a value outside the domain too, which may empty it
        values = st.sampled_from(sorted(state.domains[x]) + [-1])
        kind = data.draw(st.sampled_from(["remove", "restrict", "eq"]))
        if kind == "remove":
            state.remove_value(x, data.draw(values))
        elif kind == "restrict":
            state.restrict(x, set(data.draw(st.lists(values))))
        else:
            state.tell_eq(x, data.draw(values))
    fresh = new_problem(state.domains)
    for prop in state.propagators.values():
        fresh.post(prop)
    want = brute_force_count(fresh)
    assert brute_force_count(state) == want
    for engine in (dfs_count, dds_count):
        assert engine(state).count == engine(fresh).count == want
    assert state.propagate() is fresh.propagate()


def test_clone_independence():
    # a clone shares every domain set; a change on either side puts a new
    # set in that side's list and leaves the other side's domain alone
    changes = (lambda s: s.remove_value(0, 3), lambda s: s.restrict(1, {4}),
               lambda s: s.tell_eq(2, 1))
    for change in changes:
        for copy_changes in (True, False):
            state = intro_state()
            state.propagate()
            copy = state.clone()
            assert all(a is b for a, b in zip(state.domains, copy.domains))
            changed, other = (copy, state) if copy_changes else (state, copy)
            before = list(other.domains)
            change(changed)
            assert all(a is b for a, b in zip(other.domains, before))
            assert [sorted(d) for d in other.domains] == \
                [[3, 5], [3, 4], [1, 2], [1, 2]]
            assert changed.domains != before
    state = intro_state()
    state.propagate()
    copy = state.clone()
    copy.tell_eq(0, 3)
    copy.propagate()
    assert sorted(state.domains[0]) == [3, 5]
    assert sorted(state.domains[1]) == [3, 4]
    assert len(copy.domains[0]) == 1
    # clones share one subscription table and one handle numbering:
    # posting on either side after the clone, in either order, gives the
    # two posts different handles, and each side's wake-ups skip the
    # other's handle, which is missing from their store
    for copy_first in (True, False):
        state = new_problem([{1, 2, 3}] * 4)
        state.post(Neq(0, 1))
        state.propagate()
        copy = state.clone()
        posts = [(copy, Neq(2, 3)), (state, Neq(0, 2))]
        handles = []
        for s, prop in posts if copy_first else reversed(posts):
            handles.append(s.post(prop))
            assert s.propagate() is StateStatus.BRANCHABLE
        assert sorted(handles) == [1, 2]
        assert list(state.propagators.values()) == [Neq(0, 1), Neq(0, 2)]
        assert list(copy.propagators.values()) == [Neq(0, 1), Neq(2, 3)]
        counters = state.counters  # one sink, shared with the copy
        for s, x, runs in ((state, 3, 0), (copy, 0, 1), (state, 2, 2),
                           (copy, 2, 1)):
            before = counters.propagations
            s.tell_eq(x, 3)
            assert s.propagate() is StateStatus.BRANCHABLE
            assert counters.propagations - before == runs
        assert [sorted(d) for d in state.domains] == \
            [[1, 2], [1, 2, 3], [3], [3]]
        assert [sorted(d) for d in copy.domains] == [[3], [1, 2], [3], [1, 2]]


def test_clone_of_solved_is_solved():
    state = new_problem([{1}, {2}])
    state.post(Neq(0, 1))
    assert state.propagate() is StateStatus.SOLVED
    assert state.clone().propagate() is StateStatus.SOLVED


def test_clone_preserves_entailed_removal():
    state = intro_state()
    state.propagate()
    assert len(state.clone().propagators) == len(state.propagators) == 2


def test_solution():
    state = new_problem([{3}, {4}, {1}, {2}])
    assert state.propagate() is StateStatus.SOLVED
    assert state.solution() == {0: 3, 1: 4, 2: 1, 3: 2}
    branchable = intro_state()
    branchable.propagate()
    with pytest.raises(ValueError):
        branchable.solution()


def test_monotonicity_and_idempotence():
    for seed in range(40):
        state = random_state(seed)
        before = [set(d) for d in state.domains]
        status = state.propagate()
        after = [set(d) for d in state.domains]
        for b, a in zip(before, after):
            assert a <= b
        if status is not StateStatus.FAILED:
            again = state.propagate()
            assert again == status
            assert [set(d) for d in state.domains] == after


def test_propagation_soundness():
    # no value participating in a solution is ever removed
    for seed in range(60):
        state = random_state(seed, max_vars=8, max_dom=4)
        solutions = enumerate_solutions(state)
        status = state.propagate()
        if not solutions:
            continue  # failure allowed to be detected or not at the root
        assert status is not StateStatus.FAILED
        for sol in solutions:
            for x, v in enumerate(sol):
                assert v in state.domains[x]


def test_entailment_soundness():
    import itertools
    for seed in range(60):
        state = random_state(seed)
        posted = dict(state.propagators)
        if state.propagate() is StateStatus.FAILED:
            continue
        removed = [p for h, p in posted.items() if h not in state.propagators]
        for prop in removed:
            doms = [sorted(state.domains[x]) for x in prop.vars]
            for combo in itertools.product(*doms):
                assert prop.satisfied(combo)


def test_counter_sink_shared_across_clones():
    state = intro_state()
    copy = state.clone()
    copy.propagate()
    assert state.counters.propagations > 0
    assert state.counters is copy.counters


def test_brute_force_matches_enumeration():
    for seed in range(30):
        state = random_state(seed)
        assert brute_force_count(state) == len(enumerate_solutions(state))


def random_small_neq_state(seed):
    """Up to 4 variables whose domains over 0..3 may start empty or fixed,
    and random inequalities between them."""
    rng = random.Random(seed)
    n = rng.randint(0, 4)
    state = new_problem([rng.sample(range(4), rng.randint(0, 3))
                         for _ in range(n)])
    for _ in range(rng.randint(0, n) if n >= 2 else 0):
        state.post(Neq(*rng.sample(range(n), 2)))
    return state


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([random_state, random_clustered_state,
                        random_state_with_slide, random_small_neq_state]),
       st.integers(0, 10 ** 6), st.data())
def test_solved_exactly_when_every_domain_is_a_singleton(make, seed, data):
    # the state counts its unfixed variables instead of scanning domains;
    # tells may name values outside the domain, and clones carry the count
    def check(status):
        sizes = [len(d) for d in state.domains]
        if 0 in sizes:
            assert status is StateStatus.FAILED
        elif status is not StateStatus.FAILED:
            assert (status is StateStatus.SOLVED) == all(n == 1 for n in sizes)
        return status

    state = make(seed)
    status = check(state.propagate())
    for _ in range(data.draw(st.integers(0, 3))):
        if status is StateStatus.FAILED or not state.num_vars:
            break
        if data.draw(st.booleans()):
            state = state.clone()
        x = data.draw(st.integers(0, state.num_vars - 1))
        v = data.draw(st.integers(-1, 6))
        (state.tell_eq if data.draw(st.booleans())
         else state.remove_value)(x, v)
        status = check(state.propagate())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([random_state, random_clustered_state,
                        random_state_with_slide, random_small_neq_state]),
       st.integers(0, 10 ** 6), st.data())
def test_tells_record_exactly_the_domains_they_change(make, seed, data):
    # a tell counts one domain event per domain it changes; a no-op tell
    # (tell_eq on the same singleton, remove_value of an absent value)
    # changes nothing and queues no propagator; tell_eq outside the domain
    # fails
    state = make(seed)
    status = state.propagate()
    for _ in range(data.draw(st.integers(1, 4))):
        if status is StateStatus.FAILED or not state.num_vars:
            break
        counters = state.counters
        kind = data.draw(st.sampled_from(["any", "same", "absent"]))
        if kind == "same":
            fixed = [x for x in range(state.num_vars)
                     if len(state.domains[x]) == 1]
            if not fixed:
                continue
            x = data.draw(st.sampled_from(fixed))
            eq, v = True, state.value(x)
        else:
            x = data.draw(st.integers(0, state.num_vars - 1))
            v = data.draw(st.integers(-1, 6))
            if kind == "absent":
                assume(v not in state.domains[x])
                eq = False
            else:
                eq = data.draw(st.booleans())
        before, events = list(state.domains), counters.domain_events
        (state.tell_eq if eq else state.remove_value)(x, v)
        changed = [y for y, d in enumerate(before) if d != state.domains[y]]
        assert changed in ([], [x])
        assert counters.domain_events == events + len(changed)
        if kind != "any":
            assert not changed
        runs = counters.propagations
        status = state.propagate()
        if not changed:
            assert counters.propagations == runs
        if eq and v not in before[x]:
            assert status is StateStatus.FAILED
