"""Search engines: plain depth-first counting and decomposing counting.

Both engines branch by equality (left child posts x = v, right child posts
x != v) and clone the state before each branch but the last, which takes
the node's own state.  The decomposing engine additionally checks, at
every branchable node, whether the constraint graph has fallen apart into
independent partial problems; if so it solves the parts separately and
multiplies their counts, short-circuiting once a part has no solutions.
One pass over the node's scope, ``decompose_analysis``, answers all that
the node asks: whether the scope is solved, its isolated variables (whose
domain sizes are a factor of the count), the linked variables it picks
among and their degrees.  Below two open variables that pass asks no
propagator.

Each engine runs its own iterative walker.  Plain DFS, for counts and
enumeration alike, is an OR-only loop: a choice node pushes its pending
right branch and searches its left child, and each leaf pops the newest
pending branch.  Its count is the number of solution leaves, so it folds
no values, and it keeps each solution as it reaches it and builds no
tree.  The decomposing engine runs an AND/OR walker: choice nodes are
or-nodes, decomposition nodes and-nodes, and the result is folded by a
count algebra (sums and products) or a tree algebra (``Or`` and ``And``
nodes).

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
class Or:
    """Alternatives: the union of the children's assignments."""

    children: list


@dataclass(slots=True)
class And:
    """The ``fixed`` values joined with one assignment of each child, the
    children over pairwise disjoint variables.  A childless ``And`` is one
    assignment."""

    children: list
    fixed: dict[int, int] = field(default_factory=dict)


SolutionTree = Union[Or, And]


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
           degree=None) -> tuple[int, int]:
    """Pick the branching variable among ``cands``, unassigned variables in
    ascending order, and its minimum value, as a pair ``(x, v)``.

    ``degree`` maps each candidate to the number of constraint-graph edges
    holding it.  Decomposing search passes the degree map of its node's
    one scope pass (``decompose_analysis``), whose keys are the
    candidates; a node with fewer than two open variables has no edge
    and never gets here.  Plain DFS passes none: the degrees are then
    counted here over the stored propagators' splits of two or more
    variables, the graph over every unassigned variable, since a split
    holds only unassigned ones.

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
    if (heuristic in (Heuristic.MAX_DEGREE, Heuristic.MAX_DEGREE_FIRST_FAIL)
            and degree is None and state.propagators):
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
            heuristic is Heuristic.MAX_DEGREE and not degree):
        x = cands[0]
    elif heuristic is Heuristic.FIRST_FAIL or not degree:
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


# -- the walkers ------------------------------------------------------------


class _Run:
    """One search run: its heuristic, statistics and optional trace, and
    the full solutions it has certified against an optional cut-off.  The
    search stops once more than ``limit`` are certified, and ``hit``
    records that it did; otherwise ``certified`` is the exact count."""

    __slots__ = ("heuristic", "stats", "trace", "limit", "certified", "hit")

    def __init__(self, heuristic, limit: Optional[int], trace):
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be at least 0, got {limit}")
        # a member or its value string; choose compares members with ``is``
        try:
            self.heuristic = Heuristic(heuristic)
        except ValueError:
            raise ValueError(
                f"heuristic must be one of "
                f"{', '.join(repr(h.value) for h in Heuristic)}, "
                f"got {heuristic!r}") from None
        self.stats = SearchStats()
        self.trace = trace
        self.limit = limit
        self.certified = 0
        self.hit = False

    def note(self, n: int) -> None:
        if n:
            self.certified += n
            if self.limit is not None and self.certified > self.limit:
                self.hit = True


class _Algebra(NamedTuple):
    """How the AND/OR walker folds the tree it explores into a result.
    ``factor`` is the number of combinations of a node's unconstrained
    variables, and ``total`` is ``factor`` times the counts of a
    decomposition's parts.  A solved node is a decomposition with no
    parts: its tree is the childless ``And`` of its fixed values.  A failed
    node is ``conjoin(None, [], 0)``, which reads no context: a count of 0,
    or the empty ``Or``."""

    context: Callable  # (state, scope, isolated) -> what a node adds itself
    choice: Callable   # (context, factor, values) -> value of a choice node
    conjoin: Callable  # (context, values, total) -> value of a decomposition
    count: Callable    # value -> its number of solutions


_COUNTS = _Algebra(
    context=lambda state, scope, isolated: None,
    choice=lambda _ctx, factor, values: factor * sum(values),
    conjoin=lambda _ctx, _values, total: total,
    count=lambda value: value)


def _tree_context(state, scope, isolated):
    """The node's assigned variables, and an or-node of childless
    and-nodes, one per value, per unconstrained variable."""
    fixed = {x: state.value(x) for x in sorted(scope) if state.is_assigned(x)}
    groups = [Or([And([], {x: v}) for v in sorted(state.domains[x])])
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
    context=_tree_context,
    choice=_tree_choice,
    conjoin=_tree_conjoin,
    count=lambda value: value[1])


class _Frame:
    """An inner node of the AND/OR walker whose children are being searched.

    A choice node (``decision`` set) has two children over its one
    component ``parts``: ``x = v``, then ``x != v`` of ``decision``.  A
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


def _dfs(state: ProblemState, run: _Run, solutions: Optional[list] = None):
    """Plain DFS below ``state``: certify its solution leaves in ``run``
    and, given ``solutions``, append each full assignment.

    An OR-only loop over a stack of pending right branches.  A choice node
    pushes ``(state, x, v, open variables, depth, trace id)`` and searches
    its left child ``x = v`` on a clone; a leaf stops the search once the
    cut-off is hit and otherwise pops the newest entry, whose right child
    ``x != v`` takes that node's own state.  Both children sit one level
    below their node, and a node's children pick among its open variables.
    """
    stats, heuristic = run.stats, run.heuristic
    FAILED, SOLVED = StateStatus.FAILED, StateStatus.SOLVED
    # nodes are recorded and edge labels built only for a trace
    trace = run.trace
    tracing = trace is not None
    pending: list[tuple] = []
    scope = range(state.num_vars)
    depth, tparent, label = 0, None, "root"
    while True:
        status = state.propagate()
        stats.nodes += 1
        if status is FAILED:
            stats.fails += 1
            if tracing:
                trace.add(tparent, "fail", label)
        elif status is SOLVED:
            stats.solutions_found += 1
            run.note(1)
            if tracing:
                trace.add(tparent, "solution", label)
            if solutions is not None:
                solutions.append(state.solution())
            if run.hit:
                return
        else:
            stats.choice_nodes += 1
            me = trace.add(tparent, "choice", label) if tracing else None
            # the node's open variables, ascending: its children's scope,
            # since a variable fixed here stays fixed below
            domains = state.domains
            scope = [x for x in scope if len(domains[x]) != 1]
            x, v = choose(state, heuristic, scope)
            pending.append((state, x, v, scope, depth, me))
            state = state.clone()
            state.tell_eq(x, v)
            # only a left child can raise max_depth: its right sibling, at
            # the same depth, is entered after it
            depth += 1
            if depth > stats.max_depth:
                stats.max_depth = depth
            tparent = me
            if tracing:
                label = f"x{x}={v}"
            continue
        if not pending:
            return
        state, x, v, scope, depth, tparent = pending.pop()
        state.remove_value(x, v)
        depth += 1
        if tracing:
            label = f"x{x}!={v}"


def _walk(state: ProblemState, run: _Run, algebra):
    """Search the AND/OR tree below ``state`` depth-first, decomposing
    wherever the constraint graph falls apart, and fold it with
    ``algebra``: ``_COUNTS`` or ``_TREES``.

    Open inner nodes live on an explicit stack, so the search depth is
    bound by memory rather than by the interpreter's recursion limit; a
    node's depth is the size of the stack when it is entered.
    """
    stats, heuristic = run.stats, run.heuristic
    context, choice, conjoin, count = algebra
    FAILED = StateStatus.FAILED
    # nodes are recorded and edge labels built only for a trace
    trace = run.trace
    tracing = trace is not None
    stack: list[_Frame] = []
    scope = frozenset(range(state.num_vars))
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
            value = conjoin(None, [], 0)
        else:
            # the node's one pass over its scope; a solved state has no
            # open variable in it
            linked, isolated, degree = decompose_analysis(state, scope)
            domains = state.domains
            factor = prod([len(domains[x]) for x in isolated])
            if not linked:
                # a partial problem is done once its own variables are
                # assigned, and every combination of unconstrained ones
                # extends it
                stats.solutions_found += 1
                run.note(mult * factor)
                if tracing:
                    trace.add(tparent, "solution", label)
                value = conjoin(context(state, scope, isolated), [], factor)
            else:
                ctx = context(state, scope, isolated)
                # one pick over the linked parts' union, the degree map's
                # keys: a choice node's decision, or the part a
                # decomposition explores first
                decision = choose(state, heuristic, list(degree), degree)
                if len(linked) == 1:
                    stats.choice_nodes += 1
                    kind, parts = "choice", linked[0]
                else:
                    stats.decomposition_nodes += 1
                    kind = "decomposition"
                    parts = order_components(linked, decision[0])
                    decision = None
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
                    if len(values) == 1 and not run.hit:
                        break
                    stack.pop()
                    value = choice(frame.ctx, frame.factor, values)
                else:
                    frame.total *= count(value)
                    if (len(values) < len(frame.parts) and frame.total
                            and not run.hit):
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
                state.remove_value(x, v)
                if tracing:
                    label = f"x{x}!={v}"


def _search(root: ProblemState, run: _Run, walk, *args):
    """Run ``walk(state, run, *args)`` on a clone of ``root`` with fresh
    propagation counters, and time it into ``run.stats``."""
    state = root.clone()
    state.counters = PropagationCounters()
    t0 = time.perf_counter()
    value = walk(state, run, *args)
    run.stats.wall_time = time.perf_counter() - t0
    run.stats.propagations = state.counters.propagations
    return value


# -- public engines ------------------------------------------------------------


def dfs_count(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
              limit: Optional[int] = None,
              trace: Optional[SearchTrace] = None) -> CountResult:
    """Count all solutions by plain depth-first search."""
    run = _Run(heuristic, limit, trace)
    _search(root, run, _dfs)
    return CountResult(run.certified, not run.hit, run.stats)


def dfs_enumerate(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
                  max_solutions: int = 10 ** 6) -> tuple[list[dict[int, int]], bool, SearchStats]:
    """Collect up to ``max_solutions`` full assignments depth-first.

    The returned flag is True only when the list is known to be the whole
    solution set.
    """
    if max_solutions < 1:
        raise ValueError(f"max_solutions must be at least 1, got {max_solutions}")
    solutions: list[dict[int, int]] = []
    # the cut-off trips at the max_solutions-th solution and stops the walk
    run = _Run(heuristic, max_solutions - 1, None)
    _search(root, run, _dfs, solutions)
    return solutions, not run.hit, run.stats


def dds_count(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
              limit: Optional[int] = None,
              trace: Optional[SearchTrace] = None) -> CountResult:
    """Count all solutions, decomposing into independent partial problems
    whenever the constraint graph falls apart.  A finished run certifies
    every solution, so its certified total is the folded count."""
    run = _Run(heuristic, limit, trace)
    _search(root, run, _walk, _COUNTS)
    return CountResult(run.certified, not run.hit, run.stats)


def dds_tree(root: ProblemState, heuristic: Heuristic = DEFAULT_HEURISTIC,
             limit: Optional[int] = None,
             trace: Optional[SearchTrace] = None) -> TreeResult:
    """Build the and/or tree compactly representing the solution set.

    With a cut-off the tree may be truncated (exact=False); truncation only
    ever drops alternatives, never component children of an and-node, so a
    truncated tree still expands to valid full assignments.
    """
    run = _Run(heuristic, limit, trace)
    tree, _n = _search(root, run, _walk, _TREES)
    return TreeResult(tree, not run.hit, run.stats)


# -- solution trees ---------------------------------------------------------


def tree_count(tree: SolutionTree) -> int:
    """Solutions represented: products at and-nodes, sums at or-nodes."""
    # post-order on an explicit stack; each inner node is seen twice, the
    # second time with its children's counts on top of ``counts``
    counts: list[int] = []
    stack = [(tree, False)]
    while stack:
        node, folded = stack.pop()
        if not folded:
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
        if isinstance(node, Or):
            stack.extend(((child, rest), acc) for child in reversed(node.children))
        else:
            for child in reversed(node.children):
                rest = (child, rest)
            stack.append((rest, {**acc, **node.fixed}))
