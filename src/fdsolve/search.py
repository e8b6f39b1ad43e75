"""Search engines: plain depth-first counting and decomposing counting.

Both engines branch by equality (left child posts x = v, right child posts
x != v) and clone the state before each branch but the last, which takes
the node's own state.  The decomposing engine additionally checks, at
every branchable node, whether the constraint graph has fallen apart into
independent partial problems; if so it solves the parts separately and
multiplies their counts, short-circuiting once a part has no solutions.

Both engines, for counts and for solution trees alike, run one iterative
walker over this AND/OR search space: choice nodes are or-nodes,
decomposition nodes and-nodes, and the result is folded by a count
algebra (sums and products) or a tree algebra (``Or`` and ``And`` nodes).
Plain DFS enumeration counts too, keeping each solution as the walk
reaches it, and builds no tree.

Plain DFS keeps each choice node's open variables, ascending, and its
children pick among those that are still open, not among all n
variables: a variable fixed at a node stays fixed below it, so the
candidates, their order and the decisions are those of a scan over every
variable.

Cut-offs apply to full solutions only: a partial solution of one
component is counted against the limit only once every sibling component
explored before it is complete, so the certified total is a true lower
bound of the final count.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from itertools import islice
from math import prod
from typing import Callable, NamedTuple, Optional, Union

from .engine import PropagationCounters, ProblemState, StateStatus
# bench/run.py's traced runs patch ``search.build_constraint_graph``, so
# the name stays here although nothing in this module calls it
from .graph import build_constraint_graph, decompose_analysis  # noqa: F401


class Heuristic(enum.Enum):
    """Variable selection strategies, ties always broken by lowest variable
    index.  The branching value is the chosen variable's domain minimum."""

    INPUT_ORDER = "input"
    FIRST_FAIL = "ff"
    MAX_DEGREE = "maxdeg"
    MAX_DEGREE_FIRST_FAIL = "maxdeg-ff"


DEFAULT_HEURISTIC = Heuristic.MAX_DEGREE_FIRST_FAIL


@dataclass
class SearchStats:
    nodes: int = 0
    choice_nodes: int = 0
    decomposition_nodes: int = 0
    fails: int = 0
    solutions_found: int = 0
    propagations: int = 0
    max_depth: int = 0
    wall_time: float = 0.0


@dataclass
class CountResult:
    count: int
    exact: bool
    stats: SearchStats


@dataclass(slots=True)
class Leaf:
    assignment: dict[int, int]


@dataclass(slots=True)
class Or:
    children: list


@dataclass(slots=True)
class And:
    children: list
    fixed: dict[int, int] = field(default_factory=dict)


SolutionTree = Union[Leaf, Or, And]


@dataclass
class TreeResult:
    tree: SolutionTree
    exact: bool
    stats: SearchStats


class SearchTrace:
    """Bounded record of visited search nodes, for DOT export."""

    def __init__(self, max_nodes: int = 5000):
        if max_nodes < 0:
            raise ValueError(f"max_nodes must be at least 0, got {max_nodes}")
        self.max_nodes = max_nodes
        self.nodes: list[tuple[int, str]] = []          # (id, kind)
        self.edges: list[tuple[int, int, str]] = []     # (parent, child, label)
        self.truncated = False

    def add(self, parent: Optional[int], kind: str, label: str) -> Optional[int]:
        if len(self.nodes) >= self.max_nodes:
            self.truncated = True
            return None
        nid = len(self.nodes)
        self.nodes.append((nid, kind))
        if parent is not None:
            self.edges.append((parent, nid, label))
        return nid


def trace_dot(trace: SearchTrace) -> str:
    """Render a recorded search as a DOT digraph.

    Choice nodes are circles, decomposition nodes circles with an inner
    square, failures filled boxes, solutions diamonds.
    """
    styles = {
        "choice": 'shape=circle, label=""',
        "decomposition": 'shape=circle, label="□"',
        "fail": 'shape=box, style=filled, fillcolor=gray60, label=""',
        "solution": 'shape=diamond, label=""',
    }
    lines = ["digraph search {", "  node [fontsize=10];"]
    for nid, kind in trace.nodes:
        lines.append(f"  n{nid} [{styles[kind]}];")
    for parent, child, label in trace.edges:
        lines.append(f'  n{parent} -> n{child} [label="{label}"];')
    if trace.truncated:
        lines.append('  trunc [shape=plaintext, label="(truncated)"];')
    lines.append("}")
    return "\n".join(lines)


# -- heuristics ---------------------------------------------------------


def choose(state: ProblemState, heuristic: Heuristic, cands,
           edges=None) -> tuple[int, int]:
    """Pick the branching variable among ``cands``, unassigned variables in
    ascending order, and its minimum value, as a pair ``(x, v)``.

    A degree is the number of ``edges`` holding the candidate.  Decomposing
    search passes the edges of the graph its component analysis has just
    built.  Plain DFS passes none: its edges are then the stored
    propagators' splits of two or more variables, the graph over every
    unassigned variable, since a split holds only unassigned ones.

    Two short-cuts give the same decision for less work: a single
    candidate is every heuristic's pick, and without an edge (an empty
    store has none) every degree is 0, so ``maxdeg`` picks the lowest
    index and ``maxdeg-ff`` falls back to first-fail.
    """
    if not cands:
        raise ValueError("choose() needs at least one unassigned variable")
    domains = state.domains
    if len(cands) == 1:
        x = cands[0]
        return x, min(domains[x])
    degree = None
    if heuristic in (Heuristic.MAX_DEGREE, Heuristic.MAX_DEGREE_FIRST_FAIL):
        if edges is None and state.propagators:
            edges = [edge for prop in state.propagators.values()
                     for edge in prop.hyperedges(state) if len(edge) >= 2]
        if edges:
            degree = dict.fromkeys(cands, 0)
            for edge in edges:
                for x in edge:
                    if x in degree:
                        degree[x] += 1
    # min and max return the first best candidate, the lowest index
    if heuristic is Heuristic.INPUT_ORDER or (
            heuristic is Heuristic.MAX_DEGREE and degree is None):
        x = cands[0]
    elif heuristic is Heuristic.FIRST_FAIL or degree is None:
        x = min(cands, key=lambda c: len(domains[c]))
    elif heuristic is Heuristic.MAX_DEGREE:
        x = max(cands, key=degree.__getitem__)
    else:
        x = min(cands, key=lambda c: (-degree[c], len(domains[c])))
    return x, min(domains[x])


def order_components(parts, x: int) -> list[frozenset[int]]:
    """A decomposition's parts in exploration order: the part holding ``x``,
    the node's pick over their union, so a failure-seeking heuristic fails
    inside the first part explored, then the rest in their given order."""
    first = next(part for part in parts if x in part)
    return [first] + [part for part in parts if part is not first]


# -- the walker -------------------------------------------------------------


class _Cutoff:
    """Tracks certified full solutions against an optional limit: the
    search stops once more than ``limit`` are certified."""

    __slots__ = ("limit", "certified", "hit")

    def __init__(self, limit: Optional[int]):
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be at least 0, got {limit}")
        self.limit = limit
        self.certified = 0
        self.hit = False

    def note(self, n: int) -> None:
        if n:
            self.certified += n
            if self.limit is not None and self.certified > self.limit:
                self.hit = True


class _Run:
    __slots__ = ("heuristic", "stats", "cutoff", "trace", "hook")

    def __init__(self, heuristic, limit, trace, hook=None):
        self.heuristic = heuristic
        self.stats = SearchStats()
        self.cutoff = _Cutoff(limit)
        self.trace = trace
        self.hook = hook


class _Algebra(NamedTuple):
    """How the walker folds the tree it explores into a result.  ``factor``
    is the number of combinations of a node's unconstrained variables, and
    ``total`` is ``factor`` times the counts of a decomposition's parts."""

    zero: Callable     # () -> value of a failed node
    solved: Callable   # (state, scope) -> value of a fully assigned scope
    context: Callable  # (state, scope, isolated) -> what a node adds itself
    choice: Callable   # (context, factor, values) -> value of a choice node
    conjoin: Callable  # (context, values, total) -> value of a decomposition
    count: Callable    # value -> its number of solutions


_COUNTS = _Algebra(
    zero=lambda: 0,
    solved=lambda state, scope: 1,
    context=lambda state, scope, isolated: None,
    choice=lambda _ctx, factor, values: factor * sum(values),
    conjoin=lambda _ctx, _values, total: total,
    count=lambda value: value)


def _tree_context(state, scope, isolated):
    """The node's assigned variables, and an or-node of single-variable
    leaves per unconstrained variable."""
    fixed = {x: state.value(x) for x in sorted(scope) if state.is_assigned(x)}
    groups = [Or([Leaf({x: v}) for v in sorted(state.domains[x])])
              for x in isolated]
    return fixed, groups


def _tree_choice(ctx, factor, values):
    fixed, groups = ctx
    branches = [tree for tree, n in values if n]
    core = branches[0] if len(branches) == 1 else Or(branches)
    count = factor * sum(n for _tree, n in values)
    if fixed or groups:
        return And([core] + groups, fixed), count
    return core, count


def _tree_conjoin(ctx, values, total):
    if total == 0:
        return Or([]), 0
    fixed, groups = ctx
    return And([tree for tree, _n in values] + groups, fixed), total


# values are (tree, count) pairs
_TREES = _Algebra(
    zero=lambda: (Or([]), 0),
    solved=lambda state, scope: (Leaf({x: state.value(x) for x in sorted(scope)}), 1),
    context=_tree_context,
    choice=_tree_choice,
    conjoin=_tree_conjoin,
    count=lambda value: value[1])


class _Frame:
    """An inner node whose children are being searched.

    A choice node (``decision`` set) has two children over its one
    component ``parts``: ``x = v``, then ``x != v`` of ``decision``; in
    plain DFS ``parts`` is the node's open variables, ascending.  A
    decomposition node (``decision`` None) has one child per component in
    the ordered list ``parts``, and ``total`` is ``factor`` times the
    counts of its finished children.  ``values`` collects the finished
    children's results.  A child's state is cloned from ``state`` only once
    the child before it is finished; the last child takes ``state`` itself
    and leaves None behind.
    """

    __slots__ = ("state", "mult", "me", "ctx", "factor", "parts", "decision",
                 "values", "total")

    def __init__(self, state, mult, me, ctx, factor, parts, decision):
        self.state = state
        self.mult = mult
        self.me = me
        self.ctx = ctx
        self.factor = factor
        self.parts = parts
        self.decision = decision
        self.values = []
        self.total = factor


def _walk(state: ProblemState, run: _Run, algebra, decompose: bool):
    """Search the tree below ``state`` depth-first and fold it with
    ``algebra``: ``_COUNTS``, perhaps with its own ``solved``, or, with
    ``decompose`` on, ``_TREES``.

    Open inner nodes live on an explicit stack, so the search depth is
    bound by memory rather than by the interpreter's recursion limit; a
    node's depth is the size of the stack when it is entered.  With
    ``decompose`` off this is plain DFS: no graph analysis, unconstrained
    variables are branched on like any other, a choice node's context is
    None, and its children's scope is its own open variables.
    """
    stats, cutoff, heuristic = run.stats, run.cutoff, run.heuristic
    zero, solved, context, choice, conjoin, count = algebra
    FAILED, SOLVED = StateStatus.FAILED, StateStatus.SOLVED
    # nodes are recorded and edge labels built only for a trace
    trace = run.trace
    tracing = trace is not None
    stack: list[_Frame] = []
    n = state.num_vars
    scope = frozenset(range(n)) if decompose else range(n)
    mult, tparent, label = 1, None, "root"
    while True:
        status = state.propagate()
        stats.nodes += 1
        depth = len(stack)
        if depth > stats.max_depth:
            stats.max_depth = depth
        frame = None
        if status is FAILED:
            stats.fails += 1
            if tracing:
                trace.add(tparent, "fail", label)
            value = zero()
        elif status is SOLVED or (
                decompose and all(state.is_assigned(x) for x in scope)):
            # a partial problem is done once its own variables are assigned
            stats.solutions_found += 1
            cutoff.note(mult)
            if tracing:
                trace.add(tparent, "solution", label)
            value = solved(state, scope)
        elif not decompose:
            stats.choice_nodes += 1
            me = trace.add(tparent, "choice", label) if tracing else None
            # the node's open variables, ascending: its children's scope,
            # since a variable fixed here stays fixed below
            domains = state.domains
            scope = [x for x in scope if len(domains[x]) != 1]
            frame = _Frame(state, mult, me, None, 1, scope,
                           choose(state, heuristic, scope))
        else:
            analysis = decompose_analysis(state, scope)
            factor = prod(len(state.domains[x]) for x in analysis.isolated)
            ctx = context(state, scope, analysis.isolated)
            linked = analysis.linked
            if not linked:
                # only unconstrained variables left: every combination extends
                stats.solutions_found += 1
                cutoff.note(mult * factor)
                if tracing:
                    trace.add(tparent, "solution", label)
                value = conjoin(ctx, [], factor)
            else:
                # one pick over the linked parts' union: a choice node's
                # decision, or the part a decomposition explores first
                graph = analysis.graph
                decision = choose(state, heuristic, sorted(
                    graph.nodes.difference(analysis.isolated)), graph.edges)
                if len(linked) == 1:
                    stats.choice_nodes += 1
                    kind, parts = "choice", linked[0]
                else:
                    stats.decomposition_nodes += 1
                    kind = "decomposition"
                    parts = order_components(linked, decision[0])
                    decision = None
                    if run.hook is not None:
                        cover = [set(c) for c in linked]
                        # the components partition the scope's unassigned
                        # variables
                        cover[0] |= scope.difference(*linked)
                        run.hook(state, cover)
                me = trace.add(tparent, kind, label) if tracing else None
                frame = _Frame(state, mult, me, ctx, factor, parts, decision)
        if frame is not None:
            stack.append(frame)
        else:
            # hand values up until an open node has a child left to search;
            # a decomposition stops at its first part without solutions
            while True:
                if not stack:
                    return value
                frame = stack[-1]
                values = frame.values
                values.append(value)
                if frame.decision is not None:
                    if len(values) == 1 and not cutoff.hit:
                        break
                    stack.pop()
                    value = choice(frame.ctx, frame.factor, values)
                else:
                    frame.total *= count(value)
                    if (len(values) < len(frame.parts) and frame.total
                            and not cutoff.hit):
                        break
                    stack.pop()
                    value = conjoin(frame.ctx, values, frame.total)
        i = len(frame.values)
        decision = frame.decision
        if decision is None:
            last = i == len(frame.parts) - 1
            scope = frame.parts[i]
            # only the last part certifies full solutions against the cut-off
            mult = frame.mult * frame.total if last else 0
        else:
            last = i == 1
            scope = frame.parts
            mult = frame.mult * frame.factor
        if last:
            # nothing reads a frame's state once its last child starts
            state, frame.state = frame.state, None
        else:
            state = frame.state.clone()
        tparent = frame.me
        if decision is None:
            if tracing:
                label = f"part{i}"
        else:
            x, v = decision
            if i == 0:
                state.tell_eq(x, v)
                if tracing:
                    label = f"x{x}={v}"
            else:
                state.tell_neq(x, v)
                if tracing:
                    label = f"x{x}!={v}"


def _search(root: ProblemState, run: _Run, algebra, decompose: bool):
    state = root.clone()
    state.counters = PropagationCounters()
    t0 = time.perf_counter()
    value = _walk(state, run, algebra, decompose)
    run.stats.wall_time = time.perf_counter() - t0
    run.stats.propagations = state.counters.propagations
    return value


def _count(root: ProblemState, run: _Run, decompose: bool) -> CountResult:
    count = _search(root, run, _COUNTS, decompose)
    if run.cutoff.hit:
        return CountResult(run.cutoff.certified, False, run.stats)
    return CountResult(count, True, run.stats)


# -- public engines ------------------------------------------------------------


def dfs_count(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
              limit: Optional[int] = None,
              trace: Optional[SearchTrace] = None) -> CountResult:
    """Count all solutions by plain depth-first search."""
    return _count(root, _Run(heuristic, limit, trace), decompose=False)


def dfs_enumerate(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
                  max_solutions: int = 10 ** 6) -> tuple[list[dict[int, int]], bool, SearchStats]:
    """Collect up to ``max_solutions`` full assignments depth-first.

    The returned flag is True only when the list is known to be the whole
    solution set.
    """
    if max_solutions < 1:
        raise ValueError(f"max_solutions must be at least 1, got {max_solutions}")
    solutions: list[dict[int, int]] = []

    def keep(state, _scope):
        solutions.append(state.solution())
        return 1

    # the cut-off trips at the max_solutions-th solution and stops the walk
    run = _Run(heuristic, max_solutions - 1, None)
    _search(root, run, _COUNTS._replace(solved=keep), decompose=False)
    return solutions, not run.cutoff.hit, run.stats


def dds_count(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
              limit: Optional[int] = None,
              trace: Optional[SearchTrace] = None,
              decompose_hook: Optional[Callable] = None) -> CountResult:
    """Count all solutions, decomposing into independent partial problems
    whenever the constraint graph falls apart.

    ``decompose_hook(state, parts)`` is called at every decomposition with
    the propagated state and the variable partition (diagnostics hook; do
    not mutate the state).  The search goes on with that state object, and
    its last part is searched on it, so a hook that keeps the state must
    keep ``state.clone()``.  The first part also holds the scope's assigned
    and unconstrained variables, so the parts cover the whole scope.
    """
    return _count(root, _Run(heuristic, limit, trace, decompose_hook),
                  decompose=True)


def dds_tree(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
             limit: Optional[int] = None,
             trace: Optional[SearchTrace] = None) -> TreeResult:
    """Build the and/or tree compactly representing the solution set.

    With a cut-off the tree may be truncated (exact=False); truncation only
    ever drops alternatives, never component children of an and-node, so a
    truncated tree still expands to valid full assignments.
    """
    run = _Run(heuristic, limit, trace)
    tree, _n = _search(root, run, _TREES, decompose=True)
    return TreeResult(tree, not run.cutoff.hit, run.stats)


# -- solution trees ---------------------------------------------------------


def tree_count(tree: SolutionTree) -> int:
    """Solutions represented: products at and-nodes, sums at or-nodes."""
    # post-order on an explicit stack; each inner node is seen twice, the
    # second time with its children's counts on top of ``counts``
    counts: list[int] = []
    stack = [(tree, False)]
    while stack:
        node, folded = stack.pop()
        if isinstance(node, Leaf):
            counts.append(1)
        elif not folded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
        else:
            start = len(counts) - len(node.children)
            mine = counts[start:]
            del counts[start:]
            counts.append(sum(mine) if isinstance(node, Or) else prod(mine))
    return counts[0]


def tree_expand(tree: SolutionTree, max_solutions: int) -> list[dict[int, int]]:
    """First ``max_solutions`` full assignments, in deterministic order
    (alternatives concatenated, and-children combined with the last child
    varying fastest)."""
    return list(islice(_expand(tree), max(max_solutions, 0)))


def _expand(tree: SolutionTree):
    """Lazily yield the assignments of ``tree``.

    Each stack entry is a linked list of subtrees still to combine plus the
    assignment built so far.  An and-node contributes its fixed values and
    then each child in turn; an or-node's alternatives are pushed in
    reverse so the first is expanded first.
    """
    stack = [((tree, None), {})]
    while stack:
        todo, acc = stack.pop()
        if todo is None:
            yield acc
            continue
        node, rest = todo
        if isinstance(node, Leaf):
            stack.append((rest, {**acc, **node.assignment}))
        elif isinstance(node, Or):
            stack.extend(((child, rest), acc) for child in reversed(node.children))
        else:
            for child in reversed(node.children):
                rest = (child, rest)
            stack.append((rest, {**acc, **node.fixed}))
