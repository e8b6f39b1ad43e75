"""Graphs, model specs, lattice codes and the independent counting oracles.

Two model families: proper graph colorings of a ``UGraph`` and planar
self-avoiding walks on the square lattice, boxed and coded by
``lattice_code``.  Each family's layout (one all-different per large
maximal clique plus binary inequalities for the remaining edges; neighbour
tables along the chain plus one global all-different) lives in the one
function that builds its document: ``model_io.coloring_document`` and
``model_io.saw_document``.  The oracles count the same objects without
any propagation: deletion-contraction for colorings and direct walk
enumeration for walks.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Optional

from .propagators import _ints


# -- undirected graphs ------------------------------------------------------


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph on nodes 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        object.__setattr__(self, "n", _ints((n,), "UGraph: n")[0])
        if self.n < 0:
            raise ValueError(f"node count must be at least 0, got {self.n}")
        edges = list(map(tuple, edges))
        if not {2}.issuperset(map(len, edges)):
            raise ValueError("UGraph: each edge must have two ends")
        # one conversion of every end, however many edges
        ends = iter(_ints(itertools.chain(*edges), "UGraph: edges"))
        norm = set()
        for u, v in zip(ends, ends):
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside 0..{self.n - 1}")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(norm))


def erdos_renyi(n: int, p: float, seed: int) -> UGraph:
    """Random graph: each of the n(n-1)/2 pairs kept with probability p,
    deterministically from the seed."""
    (n,) = _ints((n,), "erdos_renyi: n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return UGraph(n, edges)


def maximal_cliques(g: UGraph) -> list[frozenset[int]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting.

    The open calls live on an explicit stack of (R, P, X, untried
    candidates), so the clique size is not bound by the recursion limit.
    Moving a tried candidate from P to X right after its child's sets are
    taken is the same as doing it when the child returns: the child owns
    new sets.
    """
    neigh: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        neigh[u].add(v)
        neigh[v].add(u)
    out: list[frozenset[int]] = []
    stack: list[tuple[set[int], set[int], set[int], Iterator[int]]] = []
    r: set[int] = set()
    p, x = set(range(g.n)), set()
    while True:
        if p or x:
            pivot = max(sorted(p | x), key=lambda u: len(p & neigh[u]))
            stack.append((r, p, x, iter(sorted(p - neigh[pivot]))))
        else:
            out.append(frozenset(r))
        # descend into the next candidate of the deepest open call
        while stack:
            top_r, top_p, top_x, untried = stack[-1]
            v = next(untried, None)
            if v is not None:
                break
            stack.pop()
        else:
            return sorted(out, key=lambda c: sorted(c))
        r, p, x = top_r | {v}, top_p & neigh[v], top_x & neigh[v]
        top_p.remove(v)
        top_x.add(v)


# -- graph coloring ---------------------------------------------------------


@dataclass(frozen=True)
class ColoringSpec:
    graph: UGraph
    colors: int

    def __post_init__(self):
        object.__setattr__(self, "colors",
                           _ints((self.colors,), "ColoringSpec: colors")[0])
        if self.colors < 1:
            raise ValueError("need at least one color")


def chromatic_oracle(g: UGraph, k: int, max_nodes: int = 12) -> int:
    """Exact number of proper k-colorings by deletion-contraction.

    Independent of the solver; guarded to small graphs.  Subproblems are
    counted on an explicit stack, so the depth of the deletion-contraction
    is not bound by the recursion limit.
    """
    (k,) = _ints((k,), "chromatic_oracle: k")
    if g.n > max_nodes:
        raise ValueError(f"chromatic_oracle limited to {max_nodes} nodes")

    def falling(n: int) -> int:
        out = 1
        for i in range(n):
            out *= (k - i)
            if out == 0:
                return 0
        return out

    def comps(nodes: frozenset, edges: frozenset) -> list[tuple[frozenset, frozenset]]:
        adj = {u: set() for u in nodes}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen: set = set()
        parts = []
        for start in nodes:
            if start in seen:
                continue
            stack = [start]
            comp = set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            seen |= comp
            parts.append((frozenset(comp),
                          frozenset(e for e in edges if e[0] in comp)))
        return parts

    def expand(nodes: frozenset, edges: frozenset):
        """The count in closed form, or how it combines from the counts of
        smaller subproblems: (sign per subproblem or None for a product,
        the subproblems)."""
        n = len(nodes)
        m = len(edges)
        if not edges:
            return k ** n
        if m == n * (n - 1) // 2:
            return falling(n)
        parts = comps(nodes, edges)
        if len(parts) > 1:
            return None, parts
        if m == n - 1:
            # connected with n-1 edges: a tree
            return k * (k - 1) ** (n - 1)
        u, v = min(edges)
        deleted = frozenset(e for e in edges if e != (u, v))
        # contract v into u
        merged = set()
        for a, b in deleted:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                merged.add((min(a2, b2), max(a2, b2)))
        return (1, -1), [(nodes, deleted), (nodes - {v}, frozenset(merged))]

    memo: dict = {}
    # subproblems waiting for the counts of their own subproblems
    waiting: dict = {}
    root = (frozenset(range(g.n)), frozenset(g.edges))
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        split = waiting.get(key)
        if split is None:
            split = expand(*key)
            if isinstance(split, int):
                memo[key] = split
                stack.pop()
                continue
            waiting[key] = split
        signs, subs = split
        todo = [sub for sub in subs if sub not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        del waiting[key]
        if signs is None:
            memo[key] = prod(memo[sub] for sub in subs)
        else:
            memo[key] = sum(sign * memo[sub] for sign, sub in zip(signs, subs))
    return memo[root]


# -- self-avoiding lattice walks ---------------------------------------------


@dataclass(frozen=True)
class WalkSpec:
    """Chain of ``length`` monomers on the square lattice, boxed to
    [-bound, bound]^2 with the first monomer pinned to the origin."""

    length: int
    bound: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "length",
                           _ints((self.length,), "WalkSpec: length")[0])
        if self.length < 1:
            raise ValueError("need at least one monomer")
        object.__setattr__(self, "bound", self.length if self.bound is None
                           else _ints((self.bound,), "WalkSpec: bound")[0])
        if self.bound < self.length:
            raise ValueError("box must hold any walk: bound >= length")


def lattice_code(x: int, y: int, bound: int) -> int:
    """Dense integer code of lattice point (x, y) inside the box."""
    side = 2 * bound + 1
    return (x + bound) * side + (y + bound)


def lattice_point(code: int, bound: int) -> tuple[int, int]:
    side = 2 * bound + 1
    return code // side - bound, code % side - bound


def saw_walk_count(length: int) -> int:
    """Brute-force walk oracle: directly enumerate self-avoiding walks of
    ``length`` monomers (length - 1 steps) from the origin."""
    (length,) = _ints((length,), "saw_walk_count: length")
    if length < 1:
        raise ValueError("need at least one monomer")

    def extend(path: list[tuple[int, int]], visited: set) -> int:
        if len(path) == length:
            return 1
        x, y = path[-1]
        total = 0
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (nx, ny) not in visited:
                visited.add((nx, ny))
                path.append((nx, ny))
                total += extend(path, visited)
                path.pop()
                visited.discard((nx, ny))
        return total

    return extend([(0, 0)], {(0, 0)})
