"""Seeded instance generators and independent count oracles.

Each workload turns ``--seed`` into a list of keyed model documents and
fixes the cut-offs of the solver jobs run on them.  The oracles below count
the same objects without the solver's propagation or search, so a count is
checked against something that cannot share its defects.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Callable, Optional

from fdsolve import model_io, models
from fdsolve.model_io import ModelDocument, VariableDecl
from fdsolve.propagators import Dfa, Regular, Slide, Table

# the paper's cut-off: counting stops after 10^6 full solutions
PAPER_LIMIT = 10 ** 6


# -- coloring ---------------------------------------------------------------

# Criterion-7 graph family: 15 nodes, 3 colours, edge probabilities 0.2 /
# 0.3 / 0.4, graph seeds 0..49, as in ``run_bench(15, [0.2, 0.3, 0.4], 3,
# 50, 0)``.  The graphs are fixed and the benchmark seed only relabels their
# vertices: fresh random graphs differ several-fold in DFS work from one
# seed to the next, while a relabelling keeps the colouring count and the
# DFS node count.  DFS visits about two nodes per colouring, so the 5
# graphs with more than COLORING_MAX_COUNT colourings (half of the set's
# DFS nodes, one graph alone 43%) are left out to keep the round short
# and no single graph in charge of the DFS time.
COLORING_NODES = 15
COLORING_PROBS = (0.2, 0.3, 0.4)
COLORING_INSTANCES = 50
COLORING_COLORS = 3
COLORING_MAX_COUNT = 10_000
COLORING_ENUM_K = 20


@functools.cache
def _coloring_graphs() -> tuple[tuple[float, int], ...]:
    """(edge probability, graph seed) of the graphs the workload keeps."""
    kept = []
    for p in COLORING_PROBS:
        for i in range(COLORING_INSTANCES):
            g = models.erdos_renyi(COLORING_NODES, p, i)
            doc = model_io.coloring_document(
                models.ColoringSpec(g, COLORING_COLORS))
            if coloring_oracle(doc) <= COLORING_MAX_COUNT:
                kept.append((p, i))
    return tuple(kept)


def coloring_docs(seed: int) -> list[tuple[str, ModelDocument]]:
    rng = random.Random(seed)
    out = []
    for p, i in _coloring_graphs():
        g = models.erdos_renyi(COLORING_NODES, p, i)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = models.UGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        doc = model_io.coloring_document(models.ColoringSpec(g, COLORING_COLORS))
        out.append((f"coloring/p{p}/g{i}", doc))
    return out


def coloring_oracle(doc: ModelDocument) -> int:
    """Proper colourings by a frontier dynamic programme.

    Vertices are coloured one at a time, next the one that leaves the
    fewest coloured vertices with an uncoloured neighbour (the frontier);
    the table maps the frontier's colours to the number of ways to reach
    them.  Reads the graph back from the document's constraints: every
    pair inside an all-different or a neq is an edge.
    """
    n = len(doc.variables)
    colors = len(doc.variables[0].values) if n else 0
    adj: list[set[int]] = [set() for _ in range(n)]
    for c in doc.constraints:
        for a in c.vars:
            adj[a].update(b for b in c.vars if b != a)
    layer: dict[tuple, int] = {(): 1}
    frontier: tuple = ()
    done: set[int] = set()

    def after(v):
        placed = done | {v}
        return tuple(u for u in frontier + (v,) if adj[u] - placed)

    while len(done) < n:
        v = min((x for x in range(n) if x not in done),
                key=lambda x: (len(after(x)), x))
        keep = after(v)
        done.add(v)
        nxt: dict[tuple, int] = {}
        for key, ways in layer.items():
            col = dict(zip(frontier, key))
            banned = {col[u] for u in adj[v] if u in col}
            for c in range(colors):
                if c in banned:
                    continue
                col[v] = c
                nk = tuple(col[u] for u in keep)
                nxt[nk] = nxt.get(nk, 0) + ways
        layer, frontier = nxt, keep
    return sum(layer.values())


# -- self-avoiding walks ----------------------------------------------------

# Walk lengths (monomers).  There is one model per length, so the seed
# picks how it is encoded: one of the 8 rotations and reflections of the
# lattice maps every point to another code.  The domain minimum the
# branching picks changes with it, and the search work stays the same.  A
# random permutation of the codes instead moved the DDS and enumeration
# work by up to 10% between seeds.
SAW_LENGTHS = (7, 8)
SAW_ENUM_K = 150
_SYMMETRIES = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
               (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0))


def saw_docs(seed: int) -> list[tuple[str, ModelDocument]]:
    a, b, c, d = _SYMMETRIES[random.Random(seed).randrange(8)]
    out = []
    for length in SAW_LENGTHS:
        spec = models.WalkSpec(length)
        doc = model_io.saw_document(spec)
        code = {}
        for v in {v for decl in doc.variables for v in decl.values}:
            x, y = models.lattice_point(v, spec.bound)
            code[v] = models.lattice_code(a * x + b * y, c * x + d * y,
                                          spec.bound)
        decls = tuple(VariableDecl(decl.name,
                                   tuple(sorted(code[v] for v in decl.values)))
                      for decl in doc.variables)
        cons = tuple(Table(con.vars, [tuple(code[v] for v in t)
                                      for t in con.tuples])
                     if isinstance(con, Table) else con
                     for con in doc.constraints)
        out.append((f"saw/L{length}", ModelDocument(decls, cons)))
    return out


def saw_oracle(doc: ModelDocument) -> int:
    return models.saw_walk_count(len(doc.variables))


# -- hub-and-rows sequences -------------------------------------------------

# One hub variable h over {0,1,2} starts SEQ_ROWS rows of SEQ_ROW_LEN
# further variables.  Row r is the sequence (h, r_1..r_T) under a width-2
# Slide with a pair table and a Regular "no three consecutive 1s"
# automaton.  Fixing h splits the rows apart, so DDS decomposes.
#
# The tables are the 5-of-9 value-pair sets (density ~0.6) under which a
# row can follow every hub value.  Every seed uses each of them once and
# only the dealing of tables to models and rows is random: with freshly
# drawn tables the DDS work of one seed was up to twice that of another.
SEQ_ROWS = 3
SEQ_ROW_LEN = 7
SEQ_VALUES = (0, 1, 2)
SEQ_PAIRS = 5
SEQ_DFS_LIMIT = 300
SEQ_ENUM_K = 100

# states count the trailing run of 1s; every state accepts
_MAX_TWO_ONES = Dfa(3, 0, (0, 1, 2), {
    **{(q, 0): 0 for q in range(3)},
    **{(q, 2): 0 for q in range(3)},
    (0, 1): 1, (1, 1): 2,
})


def _row_count(pairs: frozenset, hub: int, length: int) -> int:
    """Rows of ``length`` values after ``hub``: every consecutive pair in
    ``pairs`` and no three consecutive 1s, by a transfer matrix over
    (previous value, trailing run of 1s)."""
    ways = {(hub, 1 if hub == 1 else 0): 1}
    for _ in range(length):
        nxt: dict[tuple[int, int], int] = {}
        for (prev, run), w in ways.items():
            for v in SEQ_VALUES:
                if (prev, v) not in pairs:
                    continue
                r = run + 1 if v == 1 else 0
                if r <= 2:
                    nxt[(v, r)] = nxt.get((v, r), 0) + w
        ways = nxt
    return sum(ways.values())


@functools.cache
def _table_pool() -> tuple[frozenset, ...]:
    pairs = [(a, b) for a in SEQ_VALUES for b in SEQ_VALUES]
    pool = [frozenset(c) for c in itertools.combinations(pairs, SEQ_PAIRS)]
    return tuple(t for t in pool
                 if all(_row_count(t, h, SEQ_ROW_LEN) for h in SEQ_VALUES))


def sequence_docs(seed: int) -> list[tuple[str, ModelDocument]]:
    tables = list(_table_pool())
    random.Random(seed).shuffle(tables)
    out = []
    for m in range(len(tables) // SEQ_ROWS):
        decls = [VariableDecl("h", SEQ_VALUES)]
        cons: list[object] = []
        for r, pairs in enumerate(tables[m * SEQ_ROWS:(m + 1) * SEQ_ROWS]):
            first = len(decls)
            decls += [VariableDecl(f"r{r}_{t}", SEQ_VALUES)
                      for t in range(1, SEQ_ROW_LEN + 1)]
            row = (0,) + tuple(range(first, len(decls)))
            cons.append(Slide(row, 2, sorted(pairs)))
            cons.append(Regular(row, _MAX_TWO_ONES))
        out.append((f"sequence/m{m}", ModelDocument(tuple(decls), tuple(cons))))
    return out


def sequence_oracle(doc: ModelDocument) -> int:
    """Sum over hub values of the product of the row transfer counts."""
    tables = [c.tuples for c in doc.constraints if isinstance(c, Slide)]
    length = (len(doc.variables) - 1) // len(tables)
    return sum(prod(_row_count(t, hub, length) for t in tables)
               for hub in SEQ_VALUES)


@dataclass(frozen=True)
class Workload:
    """Instance generator, count oracle, counting cut-offs (None counts
    exactly) and the number of solutions the enumeration jobs ask for."""

    docs: Callable[[int], list[tuple[str, ModelDocument]]]
    oracle: Callable[[ModelDocument], int]
    dfs_limit: Optional[int]
    dds_limit: Optional[int]
    enum_k: int
    # layer boundaries the traced run must see called at least once
    boundaries: tuple[str, ...]


_COMMON = ("engine.clone", "engine.propagate", "graph.build_constraint_graph",
           "graph.components", "graph.decompose_analysis", "search.dfs",
           "search.dds", "search.choose", "search.dds_tree",
           "search.tree_expand", "search.dfs_enumerate", "models.build",
           "model_io.serialize", "model_io.parse", "model_io.build_state")

WORKLOADS = {
    "coloring": Workload(
        coloring_docs, coloring_oracle, PAPER_LIMIT, PAPER_LIMIT,
        COLORING_ENUM_K,
        _COMMON + ("propagators.Neq.filter", "propagators.Neq.hyperedges",
                   "propagators.AllDifferent.filter",
                   "propagators.AllDifferent.hyperedges",
                   "search.order_components")),
    "saw": Workload(
        saw_docs, saw_oracle, PAPER_LIMIT, PAPER_LIMIT, SAW_ENUM_K,
        _COMMON + ("propagators.Table.filter", "propagators.Table.hyperedges",
                   "propagators.AllDifferent.filter",
                   "propagators.AllDifferent.hyperedges")),
    "sequence": Workload(
        sequence_docs, sequence_oracle, SEQ_DFS_LIMIT, None,
        SEQ_ENUM_K,
        _COMMON + ("propagators.Slide.filter", "propagators.Slide.hyperedges",
                   "propagators.Regular.filter",
                   "propagators.Regular.hyperedges",
                   "search.order_components")),
}
