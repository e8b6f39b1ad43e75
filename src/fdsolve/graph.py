"""Constraint-graph reflection and connected-component decomposition.

Decomposing search rebuilds the hypergraph of its scope at every node it
analyses: nodes are the scope's unassigned variables, and hyperedges come
from the scope split of each active propagator on one of them.  Those
propagators are reached through the subscription lists of the nodes, not
by a scan of the whole store, so the work follows the scope; the edges
are those such a scan finds, in another order.  A split is a pure
function of the domains: a ``Slide`` or ``Regular`` reads it from the
memo entry its filter replays (see ``propagators``).  Connected
components of this graph are independent partial problems; solving them
separately and multiplying the counts is exact.  Plain DFS builds no
graph: its branching reads the degrees off the same scope splits
directly.

``build_constraint_graph`` gives a ``ConstraintGraph`` of nodes and plain
frozenset edges, ``components`` the tuple of its connected node sets, and
``decompose_analysis`` runs both, looking them up as module globals, and
sorts the components into linked ones and isolated variables.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConstraintGraph:
    """Hypergraph over unassigned variables; edges of size < 2 are dropped
    at build time."""

    nodes: frozenset[int]
    edges: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class DecompositionAnalysis:
    """Connected components split into constraint-bearing ones and isolated
    (unconstrained, multi-valued) variables, with the graph they came from."""

    linked: tuple[frozenset[int], ...]
    isolated: tuple[int, ...]
    graph: ConstraintGraph


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
            edge = edge & nodes
            if len(edge) >= 2:
                edges.append(edge)
    return ConstraintGraph(nodes=nodes, edges=tuple(edges))


def components(graph: ConstraintGraph) -> tuple[frozenset[int], ...]:
    """Maximal connected node sets; isolated nodes are singleton components.

    Components are ordered by their lowest contained variable index.  Only
    the nodes of an edge are joined: each maps to the list of its group,
    and a merge moves the smaller group into the larger.  A graph with at
    most one edge needs no merging.
    """
    edges = graph.edges
    if len(edges) > 1:
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
        joined = group_of
        comps = [frozenset(g) for g in
                 {id(g): g for g in group_of.values()}.values()]
    else:
        joined = edges[0] if edges else ()
        comps = list(edges)
    comps.extend(frozenset((x,)) for x in graph.nodes if x not in joined)
    comps.sort(key=min)
    return tuple(comps)


def decompose_analysis(state, scope=None) -> DecompositionAnalysis:
    """Component analysis of a propagated state.

    Splits the components into constraint-bearing ones (``linked``) and
    isolated unassigned variables, which carry no constraint and only
    multiply the solution count by their domain size.
    """
    graph = build_constraint_graph(state, scope)
    linked = []
    isolated = []
    for comp in components(graph):
        if len(comp) >= 2:
            linked.append(comp)
        else:
            isolated.extend(comp)
    return DecompositionAnalysis(linked=tuple(linked),
                                 isolated=tuple(sorted(isolated)),
                                 graph=graph)

