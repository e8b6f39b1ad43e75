"""Problem state: integer domains, a propagator store, and the fixpoint loop.

A ``ProblemState`` owns one array of finite integer domains plus the
propagators posted on them.  ``propagate`` runs queued propagators to a
mutual fixpoint and drops entailed ones from the store, so later graph
reflection only sees constraints that can still act.  A domain is a
``frozenset`` of ints, read directly and changed only through ``narrow``,
which puts a smaller frozenset in its place in ``domains``; a set read
from ``domains`` therefore never changes, so code that prunes must read
the domain again to see its own work.  A domain may be empty only
transiently, and emptying it marks the state failed.  A filter hands
``narrow`` the smaller domain it has built; ``remove_value`` and
``tell_eq`` build it for one value.  ``narrow`` keeps the books: it
counts one domain event per value removed, updates the number of unfixed
variables and the failed flag, and marks the variable changed.  Only
``propagate`` wakes propagators: at the start of each round it queues the
propagators on every changed variable, so a write made by a filter, by
branching or by a caller between two propagations is propagated alike.
The queue lives only while ``propagate`` runs; between two propagations
a state keeps the number of propagators posted since the last one, which
are the newest entries of its store and run first.

States are cloned before branching.  A clone copies what can differ
between two states: the list of domains, the propagator store, the
changed variables and three scalars.  It shares the domain frozensets
themselves, the immutable propagators, the run-level statistics sink,
the subscription lists and the handle numbering.  No propagator keeps
anything in a state: what one caches about domains it has seen lives in
its own memo, which is not state (see ``propagators``).

The subscription lists map each variable to the handles of the
propagators posted on it; ``propagators_on`` reads them, so the graph of
a scope is built from the propagators on its variables alone.  Every
clone of a state shares one table, to which ``post`` only appends, and
readers skip each handle missing from their own store: an entailed
propagator's, or one posted in another clone.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable

from .propagators import PropagationResult, _ints


class StateStatus(enum.Enum):
    FAILED = "failed"
    SOLVED = "solved"
    BRANCHABLE = "branchable"


@dataclass
class PropagationCounters:
    """Run-level counters shared by every clone in one search run."""

    propagations: int = 0
    domain_events: int = 0


class ProblemState:
    """Variables with finite domains plus the active propagator store."""

    __slots__ = ("domains", "propagators", "counters", "_subs", "_handles",
                 "_changed", "_fresh", "_failed", "_unfixed")

    def __init__(self, domains: Iterable[Iterable[int]]):
        # a domain object given for several variables is converted once,
        # and they share its frozenset, as the clones of a state do; the
        # object is kept with its set, so its id is not reused meanwhile
        built: dict[int, tuple[object, frozenset[int]]] = {}

        def convert(d) -> frozenset[int]:
            hit = built.get(id(d))
            if hit is None:
                hit = built[id(d)] = (
                    d, frozenset(_ints(d, "new_problem: domains")))
            return hit[1]

        self.domains: list[frozenset[int]] = [convert(d) for d in domains]
        self.propagators: dict[int, object] = {}
        self._subs: list[list[int]] = [[] for _ in self.domains]
        self._handles = itertools.count()
        self._changed: set[int] = set()
        # propagators posted since the last propagation
        self._fresh = 0
        self._failed = any(len(d) == 0 for d in self.domains)
        # variables whose domain has more than one value
        self._unfixed = sum(len(d) > 1 for d in self.domains)
        self.counters = PropagationCounters()

    # -- introspection -------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.domains)

    @property
    def failed(self) -> bool:
        return self._failed

    def is_assigned(self, x: int) -> bool:
        return len(self.domains[x]) == 1

    def value(self, x: int) -> int:
        """The single remaining value; only meaningful when assigned."""
        (v,) = self.domains[x]
        return v

    def propagators_on(self, xs: Iterable[int]) -> dict[int, object]:
        """The stored propagators on a variable of ``xs``, each once, by
        handle, found through the subscription lists of ``xs``."""
        props, subs = self.propagators, self._subs
        return {h: props[h] for x in xs for h in subs[x] if h in props}

    # -- posting -------------------------------------------------------

    def post(self, propagator) -> int:
        """Add a propagator to the store; the next ``propagate`` runs it
        first, after any posted before it."""
        for x in propagator.vars:
            if not (0 <= x < self.num_vars):
                raise ValueError(f"unknown variable index {x}")
        # the handle is new to every clone sharing the table
        handle = next(self._handles)
        self.propagators[handle] = propagator
        for x in propagator.vars:
            self._subs[x].append(handle)
        self._fresh += 1
        return handle

    # -- domain mutation (propagators and branching go through these) ---

    def narrow(self, x: int, kept: frozenset[int]) -> None:
        """Put ``kept``, a proper subset of x's domain, in its place: the one
        write, counting a domain event per value removed."""
        self.counters.domain_events += len(self.domains[x]) - len(kept)
        self.domains[x] = kept
        self._changed.add(x)
        # a write always shrinks, so one value left means x was just fixed
        if len(kept) == 1:
            self._unfixed -= 1
        elif not kept:
            self._failed = True

    def remove_value(self, x: int, v: int) -> bool:
        d = self.domains[x]
        if v in d:
            self.narrow(x, d - {v})
            return True
        return False

    def tell_eq(self, x: int, v: int) -> None:
        """Branch on ``x = v``: narrow x's domain to its values in ``{v}``; a
        value outside the domain empties it, and the state fails."""
        d = self.domains[x]
        kept = d & {v}
        if kept != d:
            self.narrow(x, kept)

    # -- propagation -----------------------------------------------------

    def propagate(self) -> StateStatus:
        """Run the fresh propagators and wake those on every changed
        variable, to mutual fixpoint.

        The queue starts with the propagators posted since the last
        propagation, in post order.  Each round first queues, in
        subscription order, the stored propagators on the variables
        changed since the last round, then runs the oldest queued
        propagator.  Entailed propagators leave the store and are never
        re-executed in this state or any clone of it.
        """
        changed = self._changed
        if self._failed:
            changed.clear()
            return StateStatus.FAILED
        # no filter posts, so the store only loses entries while the queue
        # runs; the fresh handles are its newest
        props = self.propagators
        if not props:
            # nothing to wake: the case at most DFS nodes once every
            # constraint is entailed
            changed.clear()
        else:
            fresh = self._fresh
            queue = list(props)[-fresh:] if fresh else []
            self._fresh = 0
            queued = set(queue)
            subs, counters = self._subs, self.counters
            h, i = None, 0
            while True:
                # each filter call is idempotent, so the propagator that
                # just ran is not rescheduled for its own prunings
                for x in changed:
                    for h2 in subs[x]:
                        if h2 != h and h2 not in queued and h2 in props:
                            queue.append(h2)
                            queued.add(h2)
                changed.clear()
                if i == len(queue):
                    break
                h = queue[i]
                i += 1
                queued.discard(h)
                counters.propagations += 1
                # a queued handle is in the store: a propagator leaves it
                # only while it runs, and then it is in no queue
                result = props[h].filter(self)
                if result is PropagationResult.FAILED or self._failed:
                    self._failed = True
                    changed.clear()
                    return StateStatus.FAILED
                if result is PropagationResult.ENTAILED:
                    del props[h]
        # no domain is empty here, so every variable is assigned exactly
        # when none has more than one value (or there are no variables)
        if not self._unfixed:
            return StateStatus.SOLVED
        return StateStatus.BRANCHABLE

    # -- snapshots -------------------------------------------------------

    def clone(self) -> "ProblemState":
        """Independent snapshot that carries the changes and the posts not
        yet propagated; shares the domain frozensets, the counter sink,
        the subscription lists and the handle numbering."""
        new = ProblemState.__new__(ProblemState)
        new.domains = self.domains.copy()
        new.propagators = dict(self.propagators)
        new.counters = self.counters
        new._subs = self._subs
        new._handles = self._handles
        new._changed = self._changed.copy()
        new._fresh = self._fresh
        new._failed = self._failed
        new._unfixed = self._unfixed
        return new

    def solution(self) -> dict[int, int]:
        """Total assignment of a solved state."""
        if self._failed or self._fresh or self._changed or self._unfixed:
            raise ValueError("solution() requires a solved state")
        return {x: v for x, (v,) in enumerate(self.domains)}


def new_problem(domains: Iterable[Iterable[int]]) -> ProblemState:
    """Fresh state with one variable per input value set and no propagators."""
    return ProblemState(domains)
