"""Constraint-graph reflection and connected-component decomposition.

Decomposing search analyses its scope at every branchable node, in one
pass: ``decompose_analysis`` lists the scope's unassigned variables once
and answers from them whether the scope is solved (none is open), which
variables are isolated, which parts are linked and each linked
variable's degree.  Below two open variables no edge of two or more can
exist, so the pass asks no propagator.  Otherwise it reflects the
hypergraph of the scope: nodes are its unassigned variables, and
hyperedges come from the scope split of each active propagator on one of
them.  Those propagators are reached through the subscription lists of
the nodes, not by a scan of the whole store, so the work follows the
scope; the edges are those such a scan finds, in another order.  A split
is a pure function of the domains: a ``Slide`` or ``Regular`` reads it
from the memo entry its filter replays (see ``propagators``).  Connected
components of this graph are independent partial problems; solving them
separately and multiplying the counts is exact.  When one edge holds
every node, the scope is one linked part and no component search runs:
that is most nodes of a search that seldom splits.  Plain DFS builds no
graph: its branching reads the degrees off the same scope splits
directly.

The pass hands the frozenset of open variables it has listed to two
helpers: ``build_constraint_graph`` gives the edges over those nodes,
``components`` the connected node sets.  They stay separate functions,
looked up as module globals, because the benchmark's traced runs patch
and time each of them there.
"""
from __future__ import annotations

from typing import NamedTuple


class DecompositionAnalysis(NamedTuple):
    """A scope's open variables split into the connected components that
    carry a constraint (``linked``) and isolated (unconstrained,
    multi-valued) variables, ascending.  ``degree`` maps each variable of
    a linked part, ascending, to the number of graph edges holding it.  A
    scope with no open variable has none of the three."""

    linked: tuple[frozenset[int], ...]
    isolated: tuple[int, ...]
    degree: dict[int, int]


def build_constraint_graph(state, nodes: frozenset[int]
                           ) -> tuple[frozenset[int], ...]:
    """The edges over ``nodes``, the open variables the caller has
    listed: each stored propagator's split, reached through the nodes'
    subscription lists and cut down to them, if two or more remain.  No
    domain is read here; entailed propagators, no longer stored, give
    none."""
    edges = []
    for prop in state.propagators_on(nodes).values():
        for edge in prop.hyperedges(state):
            if not edge <= nodes:
                edge &= nodes
            if len(edge) >= 2:
                edges.append(edge)
    return tuple(edges)


def components(nodes: frozenset[int], edges) -> tuple[frozenset[int], ...]:
    """Maximal connected sets of ``nodes`` under ``edges``; a node in no
    edge is a singleton component.

    Components are ordered by their lowest contained variable index.  Only
    the nodes of an edge are joined: each maps to the list of its group,
    and a merge moves the smaller group into the larger.
    """
    group_of: dict[int, list[int]] = {}
    for edge in edges:
        it = iter(edge)
        first = next(it)
        group = group_of.get(first)
        if group is None:
            group = group_of[first] = [first]
        for x in it:
            other = group_of.get(x)
            if other is None:
                group.append(x)
                group_of[x] = group
            elif other is not group:
                if len(other) > len(group):
                    group, other = other, group
                group.extend(other)
                for y in other:
                    group_of[y] = group
    comps = [frozenset(g) for g in
             {id(g): g for g in group_of.values()}.values()]
    comps.extend(frozenset((x,)) for x in nodes if x not in group_of)
    comps.sort(key=min)
    return tuple(comps)


def decompose_analysis(state, scope=None) -> DecompositionAnalysis:
    """Component analysis of a propagated state over ``scope`` (by default
    every variable), in one pass over it.

    The linked parts are the components of two or more variables; an
    isolated variable carries no constraint and only multiplies the
    solution count by its domain size.  With fewer than two open
    variables no propagator is asked: a single one is isolated.  When
    one edge holds every open variable, they are one linked part and no
    component search runs.
    """
    domains = state.domains
    if scope is None:
        scope = range(len(domains))
    free = [x for x in scope if len(domains[x]) != 1]
    free.sort()
    if len(free) < 2:
        return DecompositionAnalysis((), tuple(free), {})
    nodes = frozenset(free)
    edges = build_constraint_graph(state, nodes)
    degree = dict.fromkeys(free, 0)
    if len(free) in map(len, edges):
        # an edge is cut down to the nodes, so one of their size holds
        # them all
        linked, isolated = (nodes,), ()
    else:
        linked = []
        isolated = []
        # singletons in ascending order: the components are sorted by
        # their lowest variable
        for comp in components(nodes, edges):
            if len(comp) >= 2:
                linked.append(comp)
            else:
                isolated.extend(comp)
        linked, isolated = tuple(linked), tuple(isolated)
        for x in isolated:
            del degree[x]
    for edge in edges:
        for x in edge:
            degree[x] += 1
    return DecompositionAnalysis(linked, isolated, degree)
