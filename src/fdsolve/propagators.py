"""Constraint propagators: filtering, entailment detection, and scope splitting.

Each constraint class plays three roles:

* ``filter(state)`` narrows domains through ``state.narrow``, directly or
  by ``remove_value``, and reports ``FAILED`` / ``ENTAILED`` / ``STABLE``.
* ``satisfied(values)`` checks one full tuple against the constraint's
  declarative semantics.  This path never touches the filtering code, so
  brute-force oracles built on it stay independent of propagation.
* ``hyperedges(state)`` reports the constraint's scope split into the
  finest fragments its structure currently justifies, restricted to
  unassigned variables.  The fragments partition the unassigned scope;
  the graph layer drops fragments smaller than two variables.  Search
  asks only at a propagation fixpoint; off one, ``Slide`` and ``Regular``
  break the positions open in the domains asked about at the cuts of the
  domains their filter would leave.

Constraint instances are immutable: clones of a problem state share them,
and no propagator keeps anything in a state.  ``Slide`` and ``Regular``
split their scope at cuts, the positions before which a run of variables
breaks off.

Three kernels are pure functions of their owner's data and a tuple of
domains, and each is memoised on its owner in a ``_Memo``, a dict keyed by
the domains themselves.  A ``Slide`` or ``Regular`` keeps one memo
(``_Runs._outcomes``) from its scope's domains to the whole outcome of its
filter, which ``filter`` replays and whose split ``hyperedges`` reads
(an outcome off a fixpoint keeps its cuts instead); a miss reads
``Slide._scans``, the memo of one window's scan, or ``Dfa._steps``, the
memo of one layer of ``Regular``'s unfolding.  A memo is not state.
What it returns is what the kernel computes, in every state alike, and
it stores at most ``_MEMO_CAP`` entries, past which the kernel computes
without storing.  Each owner interns the sets in its memos' keys
and results, and the results themselves (``_sets``), so equal ones are
held once.  A kernel may thus be handed and hand back sets equal to, not
the same as, the ones it would otherwise meet or build.  Two equal sets
of colliding values may iterate in different orders; nothing the solver
reports depends on that order, since branching takes a domain's smallest
value and solutions are listed sorted.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import gt, index
from typing import Iterable, Sequence


class PropagationResult(enum.Enum):
    FAILED = "failed"
    ENTAILED = "entailed"
    STABLE = "stable"


FAILED = PropagationResult.FAILED
ENTAILED = PropagationResult.ENTAILED
STABLE = PropagationResult.STABLE

EQ = "eq"
LEQ = "leq"

# the most entries one kernel memo or intern table stores; past it the
# kernel computes without storing, so a search over large domains holds a
# bounded memo
_MEMO_CAP = 256


def _intern(table: dict, value):
    """The value equal to ``value`` that ``table`` holds, taking ``value`` in
    if there is none and ``table`` holds fewer than ``_MEMO_CAP`` values: a
    memo that stores interned sets holds each only once."""
    if len(table) < _MEMO_CAP:
        return table.setdefault(value, value)
    return table.get(value, value)


class _Memo(dict):
    """The memo of a kernel, a pure function of a tuple of sets: ``memo[key]``
    is ``kernel(key)``.  While the memo holds fewer than ``_MEMO_CAP``
    entries, a miss interns the key's sets and the result in ``sets`` and
    stores the result under the key; past that it computes without
    storing."""

    __slots__ = ("kernel", "sets")

    def __init__(self, kernel, sets: dict):
        super().__init__()
        self.kernel, self.sets = kernel, sets

    def __missing__(self, key):
        if len(self) >= _MEMO_CAP:
            return self.kernel(key)
        sets = self.sets
        key = tuple([_intern(sets, s) for s in key])
        self[key] = value = _intern(sets, self.kernel(key))
        return value


def _ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as exact ints, converted with ``operator.index``, which
    takes the integral types (``int``, ``bool``, ``IntEnum``, ...) and
    nothing else: the one conversion of user values in the library.  A
    value it refuses raises a ``TypeError`` whose message starts with
    ``what``, the constraint and the argument, as in ``"Linear: coeffs"``."""
    try:
        return tuple(map(index, values))
    except TypeError as exc:
        raise TypeError(f"{what}: {exc}") from None


def _count(value, name: str, least: int) -> int:
    """The count argument ``name`` as an exact int (see ``_ints``), at
    least ``least`` or a ``ValueError``."""
    (n,) = _ints((value,), name)
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


def _check_distinct(vars: Sequence[int], what: str) -> tuple[int, ...]:
    vs = _ints(vars, f"{what}: vars")
    if len(set(vs)) != len(vs):
        raise ValueError(f"{what}: variables must be pairwise distinct, got {vs}")
    if vs and min(vs) < 0:
        raise ValueError(f"{what}: negative variable index in {vs}")
    return vs


class _Whole:
    """Base of the propagators whose scope never splits: its unassigned
    variables are one fragment."""

    def hyperedges(self, state) -> list[frozenset[int]]:
        domains = state.domains
        free = [x for x in self.vars if len(domains[x]) != 1]
        return [frozenset(free)] if free else []


class _Runs:
    """Base of the propagators whose scope splits into runs at cuts.

    ``_narrow(doms)`` computes the whole filter outcome on the scope's
    domains: the status, the split or the cuts, and then, flat, each
    narrowed domain ``x, kept`` in the order the computation narrowed it.
    ``filter`` replays them with ``narrow``, each interned set becoming the
    domain itself, so domain events and wake order are the computation's.
    An outcome that is stable and narrows nothing is a fixpoint's, and it
    holds the split that ``_split`` makes of ``doms`` and their
    cuts.  Search asks for splits only at a fixpoint, from the propagators
    it stores, so ``hyperedges`` reads that split with one memo lookup and
    no pass over the positions.  Any other outcome keeps the cuts of the
    domains its filter leaves, a bitmask over positions (0 for a failure,
    which has no cuts), and ``hyperedges`` splits the domains asked about
    at those.  Holding the split only where search reads it, each fragment
    interned, keeps the memo small.
    """

    @cached_property
    def _sets(self) -> dict:
        """The intern table of the sets and results in this propagator's
        memos."""
        return {}

    @cached_property
    def _outcomes(self) -> _Memo:
        """The memo of ``_narrow``: the scope's domains -> its outcome."""
        return _Memo(self._narrow, self._sets)

    def filter(self, state) -> PropagationResult:
        domains = state.domains
        outcome = iter(self._outcomes[tuple([domains[x] for x in self.vars])])
        status, _ = next(outcome), next(outcome)
        for x, kept in zip(outcome, outcome):
            state.narrow(x, kept)
        return status

    def hyperedges(self, state) -> list[frozenset[int]]:
        domains = state.domains
        doms = tuple([domains[x] for x in self.vars])
        split = self._outcomes[doms][1]
        if split.__class__ is int:
            split = self._split(doms, split)
        return list(split)

    def _split(self, doms, cuts: int) -> tuple[frozenset[int], ...]:
        """The variables open in ``doms``, cut before each position in the
        bitmask ``cuts``, as one fragment per non-empty run, in position
        order, each fragment interned."""
        sets, edges, run = self._sets, [], []
        for p, x in enumerate(self.vars):
            if cuts >> p & 1 and run:
                edges.append(_intern(sets, frozenset(run)))
                run = []
            if len(doms[p]) != 1:
                run.append(x)
        if run:
            edges.append(_intern(sets, frozenset(run)))
        return tuple(edges)


@dataclass(frozen=True, eq=True)
class Neq(_Whole):
    """Binary inequality x != y."""

    x: int
    y: int

    def __post_init__(self):
        x, y = _check_distinct((self.x, self.y), "Neq")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def vars(self) -> tuple[int, ...]:
        return (self.x, self.y)

    def filter(self, state) -> PropagationResult:
        dx = state.domains[self.x]
        dy = state.domains[self.y]
        if len(dx) == 1 and len(dy) == 1:
            return FAILED if dx == dy else ENTAILED
        if len(dx) == 1:
            state.remove_value(self.y, next(iter(dx)))
        elif len(dy) == 1:
            state.remove_value(self.x, next(iter(dy)))
        if state.failed:
            return FAILED
        # a domain read before a pruning is the frozenset it replaced
        if state.domains[self.x].isdisjoint(state.domains[self.y]):
            return ENTAILED
        return STABLE

    def satisfied(self, values: Sequence[int]) -> bool:
        return values[0] != values[1]


@dataclass(frozen=True, eq=True)
class Linear(_Whole):
    """sum(coeffs[i] * vars[i]) == rhs  (rel=EQ)  or  <= rhs  (rel=LEQ).

    Filtering is bounds consistency; the scope never splits because every
    variable functionally depends on all others.
    """

    coeffs: tuple[int, ...]
    vars: tuple[int, ...]
    rel: str
    rhs: int

    def __post_init__(self):
        vs = _check_distinct(self.vars, "Linear")
        cs = _ints(self.coeffs, "Linear: coeffs")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "rhs", _ints((self.rhs,), "Linear: rhs")[0])
        if len(cs) != len(vs) or not vs:
            raise ValueError("Linear: need matching non-empty coeffs/vars")
        if any(c == 0 for c in cs):
            raise ValueError("Linear: zero coefficient")
        if self.rel not in (EQ, LEQ):
            raise ValueError(f"Linear: bad relation {self.rel!r}")

    def _bounds(self, state) -> tuple[int, int]:
        lo = hi = 0
        for a, x in zip(self.coeffs, self.vars):
            d = state.domains[x]
            if a > 0:
                lo += a * min(d)
                hi += a * max(d)
            else:
                lo += a * max(d)
                hi += a * min(d)
        return lo, hi

    def filter(self, state) -> PropagationResult:
        # loop to a local fixpoint so one filter call is idempotent
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
                # residual interval for the term a*x, pruned in one pass
                ub = self.rhs - (lo - term_lo)
                if self.rel == EQ:
                    lb = self.rhs - (hi - term_hi)
                    kept = frozenset([v for v in d if lb <= a * v <= ub])
                else:
                    kept = frozenset([v for v in d if a * v <= ub])
                if len(kept) != len(d):
                    state.narrow(x, kept)
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

    def satisfied(self, values: Sequence[int]) -> bool:
        total = sum(a * v for a, v in zip(self.coeffs, values))
        return total == self.rhs if self.rel == EQ else total <= self.rhs


@dataclass(frozen=True, eq=True)
class AllDifferent:
    """All variables take pairwise different values.

    Filtering enforces generalized arc consistency in three steps.  Each
    assigned variable is a Hall set of one: its value leaves every other
    domain, and two assigned variables on one value fail.  The open
    variables' residual domains, those values removed, then hold no Hall
    set if their sizes s_1 <= ... <= s_k pass a size test: s_i > i for
    every i < k and s_k >= k.  Then the residual domains are the fixpoint.
    Otherwise Régin's matching construction (``_regin``) runs over the
    open variables and their residual domains alone.  Open variables linked
    by shared values form the scope split, with pairwise disjoint value sets.
    """

    vars: tuple[int, ...]

    def __init__(self, vars: Sequence[int]):
        vs = _check_distinct(vars, "AllDifferent")
        if len(vs) < 2:
            raise ValueError("AllDifferent: need at least 2 variables")
        object.__setattr__(self, "vars", vs)

    def filter(self, state) -> PropagationResult:
        vars, domains = self.vars, state.domains
        doms = [domains[x] for x in vars]
        taken: set = set()
        free = []
        for i, d in enumerate(doms):
            if len(d) != 1:
                free.append(i)
            elif taken.isdisjoint(d):
                taken |= d
            else:
                return FAILED
        # a domain less the taken values it holds: a difference with few
        # values copies the domain's compact table, one with many would
        # grow a new table that the state then keeps
        rest = [doms[i] - (taken & doms[i]) for i in free] if taken else \
            [doms[i] for i in free]
        # the size test: a value is pruned only through a Hall set of
        # j < k open variables within j values, but any j of them hold at
        # least s_j > j; a matching needs s_k >= k, which s_k >= s_(k-1) > k-1
        # gives when k > 1, and a non-empty residual when k = 1
        sizes = sorted(map(len, rest))
        if sizes and (not sizes[-1]
                      or not all(map(gt, sizes, range(1, len(sizes))))):
            rest = _regin(rest)
            if rest is None:
                return FAILED
        # each shrunk domain is written once, by scope position; a matching
        # keeps a value in every domain, so none empties
        for i, kept in zip(free, rest):
            if len(kept) != len(doms[i]):
                state.narrow(vars[i], kept)
        # with the assigned values distinct and stripped, the domains are
        # pairwise disjoint iff the open ones are
        if len(rest) < 2 or sum(map(len, rest)) == len(set().union(*rest)):
            return ENTAILED
        return STABLE

    def satisfied(self, values: Sequence[int]) -> bool:
        return len(set(values)) == len(values)

    def hyperedges(self, state) -> list[frozenset[int]]:
        # connected components of the variable-value graph over the open
        # variables: each, in scope order, joins the first group whose value
        # set meets its domain and pours every other such group into it, so
        # the value sets stay pairwise disjoint.  An assigned variable holds
        # one value: it links no two open variables that value does not.
        domains = state.domains
        groups: list = []  # [value set, members] pairs
        for x in self.vars:
            d = domains[x]
            if len(d) == 1:
                continue
            joined, apart = None, []
            for group in groups:
                if d.isdisjoint(group[0]):
                    apart.append(group)
                elif joined:
                    joined[0] |= group[0]
                    joined[1] += group[1]
                else:
                    joined = group
                    group[0] |= d
                    group[1].append(x)
            apart.append(joined or [set(d), [x]])
            groups = apart
        return sorted((frozenset(m) for _, m in groups), key=min)


def _max_matching(doms) -> tuple[list, dict] | None:
    """A greedy matching completed by Kuhn's augmenting paths; None if some
    variable stays free."""
    n = len(doms)
    match_of_var: list = [None] * n
    match_of_val: dict = {}
    # small domains first: fewer values taken from the larger ones
    order = sorted(range(n), key=lambda i: len(doms[i]))
    for i in order:
        for v in doms[i]:
            if v not in match_of_val:
                match_of_var[i] = v
                match_of_val[v] = i
                break
    for i in order:
        if match_of_var[i] is None and not _augment(
                doms, i, match_of_var, match_of_val):
            return None
    return match_of_var, match_of_val


def _regin(doms) -> list | None:
    """Régin's filter (AAAI 1994): each domain of ``doms`` cut down to the
    values that some matching covering every variable gives it, or None if
    no such matching exists.

    It works on a graph over the variables alone: each variable is merged
    with its matched value, and ``y -> x`` whenever ``x`` can take the
    value matched to ``y``.  A value survives iff its edge lies in some
    maximum matching: it is free or matched to ``x`` itself, or its owner
    is reachable from a variable that can take a free value, or its owner
    shares an SCC with ``x``.  The SCCs are computed only over the
    variables no free value reaches.
    """
    n = len(doms)
    matched = _max_matching(doms)
    if matched is None:
        return None
    match_of_var, match_of_val = matched

    # Régin's digraph (matched edges var->val, the others val->var) with
    # each variable merged into its matched value: y -> x iff x can take
    # m(y); pred[x] lists those y
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
    # cycle through an unreached variable stays unreached, so the SCCs are
    # taken over those alone, and a reached x is in none of them
    unreached = [u for u in range(n) if not reached[u]]
    if not unreached:
        return doms
    # a reached variable's successors are reached too, so only unreached
    # variables keep arcs here; without any, every SCC is a single variable
    arcs = [[w for w in ws if not reached[w]] for ws in succ]
    scc = _tarjan(arcs, unreached) if any(arcs) else range(n)
    kept = list(doms)
    for i, ys in enumerate(pred):
        gone = {match_of_var[j] for j in ys
                if not reached[j] and scc[i] != scc[j]}
        if gone:
            kept[i] = doms[i] - gone
    return kept


def _augment(doms, root: int, match_of_var: list, match_of_val: dict) -> bool:
    """Find an augmenting path from variable ``root`` and flip it.

    Depth-first over each variable's values in domain iteration order, on
    an explicit stack of (variable, its untried values), so the path length
    is not bound by the recursion limit.  ``via[k]`` is the value the k-th
    variable on the stack tries; the variable matched to it sits one entry
    above.
    """
    seen: set = set()
    stack = [(root, iter(doms[root]))]
    via: list = []
    while stack:
        _i, untried = stack[-1]
        for v in untried:
            if v in seen:
                continue
            seen.add(v)
            via.append(v)
            j = match_of_val.get(v)
            if j is None:
                for (i, _rest), w in zip(stack, via):
                    match_of_var[i] = w
                    match_of_val[w] = i
                return True
            stack.append((j, iter(doms[j])))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


def _tarjan(succ: list[list[int]], nodes: list[int]) -> list[int]:
    """Iterative Tarjan SCC over ``nodes``, whose arcs in ``succ`` stay among
    them; returns a component id per node, -1 for the nodes outside.  A node
    that is visited but not yet in a component is on Tarjan's stack."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    visits = comps = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = visits
        visits += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, untried = work[-1]
            for w in untried:
                if index[w] < 0:
                    index[w] = low[w] = visits
                    visits += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        comp[w] = comps
                        if w == node:
                            break
                    comps += 1
    return comp


class _Relation(frozenset):
    """The tuple set of a ``Table`` or ``Slide``: a frozenset of exact int
    tuples of one arity, which every constraint built over it shares along
    with its support masks."""

    @cached_property
    def _support_masks(self) -> tuple[int, list[dict[int, int]]]:
        """Bitmasks over the tuples in sorted order, tuple k being bit k:
        the mask of all tuples, and per position a dict from each value to
        the mask of the tuples holding it there (none for an empty
        relation).  Built on the first filter call of any constraint over
        this relation, and once for all of them."""
        masks: list[dict[int, int]] = [{} for _ in next(iter(self), ())]
        for k, t in enumerate(sorted(self)):
            for m, v in zip(masks, t):
                m[v] = m.get(v, 0) | 1 << k
        return (1 << len(self)) - 1, masks


def _relation(tuples: Iterable[Sequence[int]], arity: int,
              what: str) -> _Relation:
    """``tuples`` as a relation of exact int tuples of ``arity`` values,
    built in C-level passes, with ``_ints`` applied only when some value is
    not an exact int already; a relation built here before is kept as it
    is, so the constraints over it share it."""
    if tuples.__class__ is not _Relation:
        rows = list(map(tuple, tuples))
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            rows = [_ints(row, f"{what}: tuples") for row in rows]
        tuples = _Relation(rows)
    if not {arity}.issuperset(map(len, tuples)):
        raise ValueError(f"{what}: tuple arity mismatch")
    return tuples


def _shared_masks(con) -> tuple[int, list[dict[int, int]]]:
    """The support masks of ``con``'s relation, cached on ``con`` so that a
    filter call reads them as one attribute."""
    return con.tuples._support_masks


def _supports(masks, doms) -> tuple[int, list[set[int]]]:
    """Compact-Table's support scan (Demeulenaere et al., CP 2016): live
    tuples = AND over positions of the OR of the domain values' masks.
    Returns their number and per position the values they hold, if any."""
    live, by_pos = masks
    for m, d in zip(by_pos, doms):
        col = 0
        for v in d:
            col |= m.get(v, 0)
        live &= col
        if not live:
            return 0, []
    return live.bit_count(), [{v for v in d if m.get(v, 0) & live}
                              for m, d in zip(by_pos, doms)]


@dataclass(frozen=True, eq=True)
class Table(_Whole):
    """Extensional constraint: the variables' tuple must be in ``tuples``;
    GAC through bitset support masks, built once per relation and shared by
    every constraint over it.

    Unlike a ``Slide`` window, the scan is not memoised, because its keys
    are large.  In one pass of both counts over the self-avoiding walks
    (``bench`` workload ``saw``, seed 7), about half of the 4,966 scans
    repeat a key, but the 2,320 distinct keys hold 1.7 MB of domains of up
    to 225 values, while all ``Table`` filtering takes about 0.05 s a
    round.
    """

    vars: tuple[int, ...]
    tuples: frozenset[tuple[int, ...]]
    _masks = cached_property(_shared_masks)

    def __init__(self, vars: Sequence[int], tuples: Iterable[Sequence[int]]):
        vs = _check_distinct(vars, "Table")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "tuples", _relation(tuples, len(vs), "Table"))

    def filter(self, state) -> PropagationResult:
        doms = [state.domains[x] for x in self.vars]
        valid, support = _supports(self._masks, doms)
        if valid == 0:
            return FAILED
        for x, d, sup in zip(self.vars, doms, support):
            if len(sup) != len(d):
                state.narrow(x, frozenset(sup))
        # a live tuple supports every position, so no domain empties, and
        # the domains are now exactly the supports
        return ENTAILED if valid == math.prod(map(len, support)) else STABLE

    def satisfied(self, values: Sequence[int]) -> bool:
        return tuple(values) in self.tuples


@dataclass(frozen=True, eq=True)
class Dfa:
    """Deterministic finite automaton over integer symbols with a partial
    transition map ``(state, symbol) -> state``.

    Hashed by content, transitions included, so a ``Dfa`` and a
    ``Regular`` over it hash like the other constraints.  ``_step`` is the
    forward step of ``Regular``'s unfolding, memoised here in ``_steps``,
    so every ``Regular`` over one automaton object shares the memo.
    """

    state_count: int
    start: int
    finals: frozenset[int]
    transitions: dict[tuple[int, int], int]

    def __init__(self, state_count: int, start: int, finals: Iterable[int],
                 transitions: dict[tuple[int, int], int]):
        object.__setattr__(self, "state_count",
                           _ints((state_count,), "Dfa: state_count")[0])
        object.__setattr__(self, "start", _ints((start,), "Dfa: start")[0])
        object.__setattr__(self, "finals", frozenset(_ints(finals, "Dfa: finals")))
        arcs = [_ints((q, s, r), "Dfa: transitions")
                for (q, s), r in transitions.items()]
        object.__setattr__(self, "transitions", {(q, s): r for q, s, r in arcs})
        if not (0 <= self.start < self.state_count):
            raise ValueError("Dfa: start state out of range")
        if any(not (0 <= f < self.state_count) for f in self.finals):
            raise ValueError("Dfa: final state out of range")
        for (q, _s), r in self.transitions.items():
            if not (0 <= q < self.state_count and 0 <= r < self.state_count):
                raise ValueError("Dfa: transition state out of range")

    def __hash__(self) -> int:
        return hash((self.state_count, self.start, self.finals,
                     frozenset(self.transitions.items())))

    @cached_property
    def _arcs(self) -> dict[int, dict[int, tuple[int, int, int]]]:
        """Per state that has transitions, its arcs ``(state, symbol, next
        state)`` by symbol, each tuple built once."""
        arcs: dict[int, dict[int, tuple[int, int, int]]] = {}
        for (q, s), r in self.transitions.items():
            arcs.setdefault(q, {})[s] = (q, s, r)
        return arcs

    @cached_property
    def _steps(self) -> _Memo:
        """The memo of ``_step``: (live states, symbols) -> its result."""
        return _Memo(self._step, self._sets)

    @cached_property
    def _sets(self) -> dict:
        """The intern table of the state and symbol sets and the results in
        ``_steps``."""
        return {}

    @cached_property
    def _start_set(self) -> frozenset[int]:
        return frozenset((self.start,))

    def _step(self, key: tuple[frozenset[int], frozenset[int]]):
        """One layer of the unfolding from the live states over the symbols
        of ``key``: the arcs out of those states labelled with one of those
        symbols, by state and then by symbol in iteration order, and the set
        of states they reach."""
        states, symbols = key
        arcs = self._arcs
        out, nxt = [], set()
        for q in states:
            move = arcs.get(q)
            if move:
                for s in symbols:
                    arc = move.get(s)
                    if arc is not None:
                        out.append(arc)
                        nxt.add(arc[2])
        return tuple(out), _intern(self._sets, frozenset(nxt))

    def accepts(self, word: Sequence[int]) -> bool:
        q = self.start
        for s in word:
            q = self.transitions.get((q, s))
            if q is None:
                return False
        return q in self.finals


@dataclass(frozen=True, eq=True)
class Regular(_Runs):
    """The variables, read as a word, must be accepted by ``dfa``.

    Filtering works on the unfolded automaton: one layer of automaton
    states per position, arcs labelled with domain values, pruned by
    forward/backward reachability.  Layers left with a single live state
    are the points where the scope splits.  A miss of the outcome memo
    unfolds from scratch: each forward step comes from the automaton's
    memo ``_steps``, and the backward pass counts afresh.
    """

    vars: tuple[int, ...]
    dfa: Dfa

    def __init__(self, vars: Sequence[int], dfa: Dfa):
        vs = _check_distinct(vars, "Regular")
        if not vs:
            raise ValueError("Regular: need at least one variable")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "dfa", dfa)

    def _layers(self, doms):
        """Forward/backward pruned unfolding, in Pesant's layered graph
        (CP 2004).

        Returns (live_per_layer, symbols_per_position): each layer maps its
        live automaton states to their number of accepted suffixes, counted
        on the backward pass, and each position's symbols are those of its
        live arcs.
        """
        n, dfa = len(doms), self.dfa
        steps = dfa._steps
        states, arcs = dfa._start_set, []
        for d in doms:
            out, states = steps[states, d]
            arcs.append(out)
        live: list = [None] * n + [dict.fromkeys(states & dfa.finals, 1)]
        symbols: list = [None] * n
        for i in range(n - 1, -1, -1):
            ways, after, used = {}, live[i + 1], set()
            for q, s, r in arcs[i]:
                w = after.get(r)
                if w:
                    used.add(s)
                    ways[q] = ways.get(q, 0) + w
            live[i], symbols[i] = ways, used
        return live, symbols

    def _narrow(self, doms) -> tuple:
        live, symbols = self._layers(doms)
        accepted = live[0].get(self.dfa.start, 0)
        if not accepted:
            return FAILED, 0
        # every position keeps a live arc, so no domain empties; the
        # single-live-state layers stay so on the narrowed domains
        outcome, sets, words = [], self._sets, 1
        for x, d, allowed in zip(self.vars, doms, symbols):
            words *= len(allowed)
            if len(allowed) != len(d):
                outcome += (x, _intern(sets, frozenset(allowed)))
        cuts = sum([1 << i for i in range(1, len(live) - 1)
                    if len(live[i]) == 1])
        # exact entailment: the pruned domains hold no value outside an
        # accepted word, so every word is accepted iff the counts agree
        if accepted == words:
            return ENTAILED, cuts, *outcome
        if outcome:
            return STABLE, cuts, *outcome
        return STABLE, self._split(doms, cuts)

    def satisfied(self, values: Sequence[int]) -> bool:
        return self.dfa.accepts(values)


@dataclass(frozen=True, eq=True)
class Slide(_Runs):
    """One k-ary extensional constraint slid over a variable sequence: each
    window of ``width`` consecutive variables must take a tuple from
    ``tuples``.

    Kept monolithic (not desugared into separate table constraints) so the
    scope can split at positions whose covering windows are all entailed.
    Every window is filtered with the same bitset support masks as ``Table``,
    through ``_scan``, which is memoised per ``Slide`` in ``_scans`` on the
    window's domains and serves the misses of the outcome memo.
    """

    vars: tuple[int, ...]
    width: int
    tuples: frozenset[tuple[int, ...]]
    _masks = cached_property(_shared_masks)

    def __init__(self, vars: Sequence[int], width: int, tuples: Iterable[Sequence[int]]):
        vs = _check_distinct(vars, "Slide")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "width", _ints((width,), "Slide: width")[0])
        if not (1 <= self.width <= len(vs)):
            raise ValueError("Slide: window width must be in 1..len(vars)")
        object.__setattr__(self, "tuples",
                           _relation(tuples, self.width, "Slide"))

    @cached_property
    def _over(self) -> tuple[tuple[int, ...], ...]:
        """Per position the windows over it."""
        n, k = len(self.vars), self.width
        return tuple(tuple(range(max(0, p - k + 1), min(n - k + 1, p + 1)))
                     for p in range(n))

    @cached_property
    def _scans(self) -> _Memo:
        """The memo of ``_scan``: window domains -> its result."""
        return _Memo(self._scan, self._sets)

    def _scan(self, doms: tuple[frozenset[int], ...]):
        """One window over the domains ``doms``: None if no tuple of it is
        live, else whether every combination of its supports is live, and
        the cut: None if every value of ``doms`` has a support, else each
        domain cut down to its supports, the domain itself where the cut
        drops nothing."""
        valid, support = _supports(self._masks, doms)
        if not valid:
            return None
        cut = None
        if any(len(s) != len(d) for d, s in zip(doms, support)):
            sets = self._sets
            cut = tuple([d if len(s) == len(d) else
                         _intern(sets, frozenset(s))
                         for d, s in zip(doms, support)])
        return valid == math.prod(map(len, support)), cut

    def _narrow(self, doms) -> tuple:
        k, vars, over = self.width, self.vars, self._over
        doms = list(doms)
        m = len(doms) - k + 1
        # scan the windows first in first out, from a queue that starts with
        # every window and takes in each window over a domain that another
        # window's scan narrows; entailed: whether each window's last scan
        # found every combination of its supports live, which narrowing
        # to the supports keeps
        entailed = [False] * m
        queue, queued = deque(range(m)), [True] * m
        scans, outcome = self._scans, []
        while queue:
            w = queue.popleft()
            queued[w] = False
            window = tuple(doms[w:w + k])
            result = scans[window]
            if result is None:
                return FAILED, 0, *outcome
            entailed[w], cut = result
            if cut is None:
                continue
            # a live window supports a value at every position, so no
            # domain empties; a cut domain is a subset, smaller iff it drops
            # a value
            for p, (d, c) in enumerate(zip(window, cut), w):
                if len(c) != len(d):
                    doms[p] = c
                    outcome += (vars[p], c)
                    for w2 in over[p]:
                        if w2 != w and not queued[w2]:
                            queued[w2] = True
                            queue.append(w2)
        # the cuts p and p + 1 around each position whose covering windows
        # are all entailed, on the domains left: each window's last scan
        # cut nothing that is not cut now
        alone, cuts = [True] * len(doms), 0
        for w in range(m):
            if not entailed[w]:
                alone[w:w + k] = [False] * k
        for p, a in enumerate(alone):
            if a:
                cuts |= 3 << p
        if all(entailed):
            return ENTAILED, cuts, *outcome
        if outcome:
            return STABLE, cuts, *outcome
        # nothing narrowed: the domains left are the ones asked about
        return STABLE, self._split(doms, cuts)

    def satisfied(self, values: Sequence[int]) -> bool:
        k = self.width
        return all(tuple(values[i:i + k]) in self.tuples
                   for i in range(len(values) - k + 1))
