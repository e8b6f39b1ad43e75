"""Shared test helpers: seeded random instances and brute-force oracles."""
from __future__ import annotations

import dataclasses
import itertools
import random
from contextlib import contextmanager
from math import prod
from typing import NamedTuple
from unittest import mock

from fdsolve import (EQ, LEQ, AllDifferent, Dfa, Linear, Neq, Regular, Slide,
                     Table, new_problem)
from fdsolve import search


def intro_state():
    """Four variables, pairwise different: A{3,5} B{3,4} C{1,2} D{1,2}."""
    state = new_problem([{3, 5}, {3, 4}, {1, 2}, {1, 2}])
    for i, j in itertools.combinations(range(4), 2):
        state.post(Neq(i, j))
    return state


def random_state(seed: int, min_vars: int = 4, max_vars: int = 8,
                 max_dom: int = 4, max_product: int = 20000):
    """Seeded random CSP over a mix of neq/linear/alldifferent/table/regular.

    Domain sizes stay at or below ``max_dom``; the assignment space is kept
    small enough for brute-force checking.
    """
    rng = random.Random(seed)
    while True:
        n = rng.randint(min_vars, max_vars)
        doms = [set(rng.sample(range(6), rng.randint(2, max_dom)))
                for _ in range(n)]
        product = 1
        for d in doms:
            product *= len(d)
        if product <= max_product:
            break
    state = new_problem(doms)
    for _ in range(rng.randint(2, 5)):
        kind = rng.choice(["neq", "linear", "alldifferent", "table", "regular"])
        if kind == "neq":
            x, y = rng.sample(range(n), 2)
            state.post(Neq(x, y))
        elif kind == "linear":
            k = rng.randint(2, min(3, n))
            vs = rng.sample(range(n), k)
            cs = [rng.choice([-2, -1, 1, 2]) for _ in vs]
            lo = sum(c * min(doms[v]) if c > 0 else c * max(doms[v])
                     for c, v in zip(cs, vs))
            hi = sum(c * max(doms[v]) if c > 0 else c * min(doms[v])
                     for c, v in zip(cs, vs))
            state.post(Linear(tuple(cs), tuple(vs), rng.choice([EQ, LEQ]),
                              rng.randint(lo, hi)))
        elif kind == "alldifferent":
            k = rng.randint(2, min(4, n))
            state.post(AllDifferent(rng.sample(range(n), k)))
        elif kind == "table":
            k = rng.randint(2, min(3, n))
            vs = rng.sample(range(n), k)
            full = itertools.product(*[sorted(doms[v]) for v in vs])
            rows = [t for t in full if rng.random() < 0.5]
            state.post(Table(tuple(vs), rows))
        else:
            k = rng.randint(2, min(4, n))
            vs = rng.sample(range(n), k)
            ns = rng.randint(2, 3)
            trans = {}
            for q in range(ns):
                for s in range(6):
                    if rng.random() < 0.7:
                        trans[(q, s)] = rng.randrange(ns)
            dfa = Dfa(ns, 0, [q for q in range(ns) if rng.random() < 0.5],
                      trans)
            state.post(Regular(tuple(vs), dfa))
    return state


def random_clustered_state(seed: int):
    """Random CSP whose constraints stay inside 2-3 variable clusters, so
    the constraint graph decomposes during (often at the start of) search."""
    rng = random.Random(seed + 31337)
    clusters = []
    base = 0
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(2, 3)
        clusters.append(list(range(base, base + size)))
        base += size
    doms = [set(rng.sample(range(5), rng.randint(2, 4))) for _ in range(base)]
    state = new_problem(doms)
    for cluster in clusters:
        kind = rng.choice(["neq", "alldifferent", "table"])
        if kind == "neq" or len(cluster) < 2:
            for i in range(len(cluster) - 1):
                state.post(Neq(cluster[i], cluster[i + 1]))
        elif kind == "alldifferent":
            state.post(AllDifferent(cluster))
        else:
            full = itertools.product(*[sorted(doms[v]) for v in cluster])
            rows = [t for t in full if rng.random() < 0.6]
            state.post(Table(tuple(cluster), rows))
    return state


def random_state_with_slide(seed: int):
    """Random CSP guaranteed to contain one slide constraint."""
    rng = random.Random(seed + 90001)
    n = rng.randint(4, 6)
    doms = [set(rng.sample(range(4), rng.randint(2, 3))) for _ in range(n)]
    state = new_problem(doms)
    width = rng.randint(2, 3)
    union = sorted(set().union(*doms))
    rows = [t for t in itertools.product(union, repeat=width)
            if rng.random() < 0.6]
    state.post(Slide(tuple(range(n)), width, rows))
    if rng.random() < 0.5:
        x, y = rng.sample(range(n), 2)
        state.post(Neq(x, y))
    return state


class Decomposition(NamedTuple):
    """A decomposition node of a decomposing search: a clone of its
    propagated state, its scope, and its scope pass's linked parts (two or
    more) and isolated variables."""

    state: object
    scope: frozenset
    parts: tuple
    isolated: tuple


@contextmanager
def watched_decompositions():
    """Yield a list that gets a ``Decomposition`` for each decomposition
    node a decomposing search reaches inside the block.

    The walker makes one ``decompose_analysis`` call per node that has
    not failed and looks the name up as a global of ``fdsolve.search``, so
    a wrapper patched in there sees every node's scope pass.
    """
    seen = []
    analyse = search.decompose_analysis

    def watch(state, scope):
        analysis = analyse(state, scope)
        if len(analysis.linked) >= 2:
            seen.append(Decomposition(state.clone(), frozenset(scope),
                                      analysis.linked, analysis.isolated))
        return analysis

    with mock.patch.object(search, "decompose_analysis", watch):
        yield seen


def permuted(state, perm):
    """The same problem with variable x renamed perm[x]: domains moved,
    every stored constraint posted again over the renamed variables."""
    doms = [None] * state.num_vars
    for x, d in enumerate(state.domains):
        doms[perm[x]] = d
    out = new_problem(doms)
    for prop in state.propagators.values():
        if isinstance(prop, Neq):
            out.post(Neq(perm[prop.x], perm[prop.y]))
        else:
            out.post(dataclasses.replace(
                prop, vars=tuple(perm[x] for x in prop.vars)))
    return out


def relabelled(state, seed: int):
    """The same problem with every value renamed by a seeded injective map
    onto large and negative ints: domains, table and slide tuples, and
    automaton symbols.  A linear constraint has no such renaming."""
    values = set().union(*state.domains)
    for prop in state.propagators.values():
        if isinstance(prop, Linear):
            raise ValueError("a value renaming does not keep linear constraints")
        if isinstance(prop, (Table, Slide)):
            values.update(itertools.chain.from_iterable(prop.tuples))
        elif isinstance(prop, Regular):
            values.update(s for _q, s in prop.dfa.transitions)
    rng = random.Random(seed)
    images: dict[int, None] = {}
    while len(images) < len(values):
        images[rng.randrange(-2 ** 70, 2 ** 70)] = None
    f = dict(zip(sorted(values), images))
    out = new_problem([{f[v] for v in d} for d in state.domains])
    for prop in state.propagators.values():
        if isinstance(prop, (Table, Slide)):
            prop = dataclasses.replace(
                prop, tuples=[tuple(f[v] for v in t) for t in prop.tuples])
        elif isinstance(prop, Regular):
            dfa = prop.dfa
            prop = Regular(prop.vars, Dfa(
                dfa.state_count, dfa.start, dfa.finals,
                {(q, f[s]): r for (q, s), r in dfa.transitions.items()}))
        out.post(prop)
    return out


def trie_dfa(tuples) -> Dfa:
    """An automaton accepting exactly ``tuples``: a trie whose states are
    the tuples' prefixes, the root starting and the whole tuples final."""
    ids = {(): 0}
    trans = {}
    for t in tuples:
        q = 0
        for k, v in enumerate(t):
            trans[(q, v)] = q = ids.setdefault(t[:k + 1], len(ids))
    return Dfa(len(ids), 0, [ids[t] for t in tuples], trans)


def table_as_regular(state):
    """The same problem with every table constraint posted again as a
    regular constraint over the trie of its tuples."""
    out = new_problem(state.domains)
    for prop in state.propagators.values():
        if isinstance(prop, Table):
            prop = Regular(prop.vars, trie_dfa(prop.tuples))
        out.post(prop)
    return out


def enumerate_solutions(state, scope=None) -> set[tuple]:
    """All satisfying assignments by direct enumeration of the current
    domains, on the declarative `satisfied` path only.

    With ``scope``, constraints crossing the boundary are checked by
    projection (some completion outside the scope must exist); solutions
    are tuples in sorted variable order of the scope.
    """
    if scope is None:
        vars_ = list(range(state.num_vars))
    else:
        vars_ = sorted(scope)
    scope_set = set(vars_)
    inner = [p for p in state.propagators.values()
             if set(p.vars) <= scope_set]
    crossing = [p for p in state.propagators.values()
                if set(p.vars) & scope_set and not set(p.vars) <= scope_set]

    def cross_ok(prop, values):
        outside = [x for x in prop.vars if x not in scope_set]
        for completion in itertools.product(
                *(sorted(state.domains[x]) for x in outside)):
            filled = dict(zip(outside, completion))
            tup = [filled.get(x, values.get(x)) for x in prop.vars]
            if prop.satisfied(tup):
                return True
        return False

    out = set()
    for combo in itertools.product(*(sorted(state.domains[x]) for x in vars_)):
        values = dict(zip(vars_, combo))
        if all(p.satisfied([values[x] for x in p.vars]) for p in inner) and \
                all(cross_ok(p, values) for p in crossing):
            out.add(combo)
    return out


def brute_force_count(state, scope=None,
                      max_product: int = 10 ** 7) -> int:
    """Exact count by enumerating assignments and checking each constraint's
    tuple semantics directly; no propagation involved.

    With ``scope`` the count is of the state restricted to those variables:
    constraints crossing the scope boundary are checked by projection
    (some completion of the outside variables must exist).
    """
    if scope is None:
        vars_ = list(range(state.num_vars))
    else:
        vars_ = sorted(scope)
    scope_set = set(vars_)
    size = prod(len(state.domains[x]) for x in vars_)
    if size > max_product:
        raise ValueError(f"assignment space {size} exceeds guard {max_product}")

    inner = []
    crossing = []
    for propagator in state.propagators.values():
        touched = [x for x in propagator.vars if x in scope_set]
        if not touched:
            continue
        if len(touched) == len(propagator.vars):
            inner.append(propagator)
        else:
            crossing.append(propagator)

    cross_cache: list[dict] = [dict() for _ in crossing]

    def cross_ok(ci: int, propagator, values: dict[int, int]) -> bool:
        key = tuple(values[x] for x in propagator.vars if x in scope_set)
        cached = cross_cache[ci].get(key)
        if cached is not None:
            return cached
        outside = [x for x in propagator.vars if x not in scope_set]
        for completion in itertools.product(*(sorted(state.domains[x]) for x in outside)):
            filled = dict(zip(outside, completion))
            tup = [filled[x] if x in filled else values[x] for x in propagator.vars]
            if propagator.satisfied(tup):
                cross_cache[ci][key] = True
                return True
        cross_cache[ci][key] = False
        return False

    count = 0
    domains = [sorted(state.domains[x]) for x in vars_]
    for combo in itertools.product(*domains):
        values = dict(zip(vars_, combo))
        if all(p.satisfied([values[x] for x in p.vars]) for p in inner) and \
           all(cross_ok(ci, p, values) for ci, p in enumerate(crossing)):
            count += 1
    return count


def support_filtered_domains(state, prop) -> dict[int, set[int]] | None:
    """Brute-force support filtering for a single constraint: a value
    survives iff some satisfying tuple over the current domains uses it.
    Returns None when no tuple survives."""
    doms = [sorted(state.domains[x]) for x in prop.vars]
    survivors = [t for t in itertools.product(*doms) if prop.satisfied(t)]
    if not survivors:
        return None
    out = {x: set() for x in prop.vars}
    for t in survivors:
        for x, v in zip(prop.vars, t):
            out[x].add(v)
    return out


def product_structure_ok(state, prop) -> bool:
    """Check a reported scope split: the surviving tuple set must factor
    as a product over the reported fragments."""
    scope = list(prop.vars)
    doms = [sorted(state.domains[x]) for x in scope]
    survivors = [t for t in itertools.product(*doms) if prop.satisfied(t)]
    if not survivors:
        return True
    edges = prop.hyperedges(state)
    blocks = [[scope.index(x) for x in sorted(e)] for e in edges]
    expected = 1
    for block in blocks:
        expected *= len({tuple(t[i] for i in block) for t in survivors})
    # assigned positions contribute singleton factors; the fragments must
    # cover everything else, so equality of sizes means equality of sets
    return len(survivors) == expected
