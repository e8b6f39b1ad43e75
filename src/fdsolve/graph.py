"""Constraint-graph reflection and connected-component decomposition.

Decomposing search analyses its scope at every branchable node, in one
pass: ``decompose_analysis`` lists the scope's unassigned variables once
and answers from them whether the scope is solved (none is open), which
variables are isolated, which parts are linked and each linked
variable's degree.  Below two open variables no edge of two or more can
exist, so the pass asks no propagator.  Otherwise it builds the
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

``build_constraint_graph`` gives a ``ConstraintGraph`` of nodes and plain
frozenset edges, ``components`` the tuple of its connected node sets, and
``decompose_analysis`` runs the first and, unless one edge holds every
node, the second, looking them up as module globals.
"""
from __future__ import annotations

from typing import NamedTuple


class ConstraintGraph(NamedTuple):
    """Hypergraph over unassigned variables; edges of size < 2 are dropped
    at build time."""

    nodes: frozenset[int]
    edges: tuple[frozenset[int], ...]


class DecompositionAnalysis(NamedTuple):
    """A scope's open variables split into the connected components that
    carry a constraint (``linked``) and isolated (unconstrained,
    multi-valued) variables, ascending.  ``degree`` maps each variable of
    a linked part, ascending, to the number of graph edges holding it.  A
    scope with no open variable has none of the three."""

    linked: tuple[frozenset[int], ...]
    isolated: tuple[int, ...]
    degree: dict[int, int]


def build_constraint_graph(state, scope=None) -> ConstraintGraph:
    """Reflect the current store into an explicit hypergraph.

    ``scope`` restricts the graph to a variable subset (used by component
    sub-searches); by default all variables are considered.  The
    propagators are reached through the subscription lists of the scope's
    unassigned variables, so the work follows the scope, not the store;
    one whose unassigned variables all lie outside the scope has no edge
    to give.  Entailed propagators contribute nothing because the store
    no longer holds them.
    """
    domains = state.domains
    if scope is None:
        scope = range(len(domains))
    nodes = frozenset([x for x in scope if len(domains[x]) != 1])
    edges = []
    for prop in state.propagators_on(nodes).values():
        for edge in prop.hyperedges(state):
            if not edge <= nodes:
                edge &= nodes
            if len(edge) >= 2:
                edges.append(edge)
    return ConstraintGraph(nodes, tuple(edges))


def components(graph: ConstraintGraph) -> tuple[frozenset[int], ...]:
    """Maximal connected node sets; isolated nodes are singleton components.

    Components are ordered by their lowest contained variable index.  Only
    the nodes of an edge are joined: each maps to the list of its group,
    and a merge moves the smaller group into the larger.
    """
    group_of: dict[int, list[int]] = {}
    for edge in graph.edges:
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
    comps.extend(frozenset((x,)) for x in graph.nodes if x not in group_of)
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
    graph = build_constraint_graph(state, free)
    edges = graph.edges
    degree = dict.fromkeys(free, 0)
    if len(free) in map(len, edges):
        # an edge is cut down to the nodes, so one of their size holds
        # them all
        linked, isolated = (graph.nodes,), ()
    else:
        linked = []
        isolated = []
        # singletons in ascending order: the components are sorted by
        # their lowest variable
        for comp in components(graph):
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
