"""Model documents: a JSON format for problems, with named variables.

Canonical shape::

    {
      "variables": [
        {"name": "A", "domain": [3, 5]},
        {"name": "B", "domain": {"range": [0, 3]}}
      ],
      "relations": {"r0": [[3, 4], [5, 3]]},
      "constraints": [
        {"type": "neq", "vars": ["A", "B"]},
        {"type": "linear", "coeffs": [1, 1], "vars": ["A", "B"],
         "rel": "eq", "rhs": 8},
        {"type": "alldifferent", "vars": ["A", "B"]},
        {"type": "table", "vars": ["A", "B"], "tuples": "r0"},
        {"type": "table", "vars": ["B", "A"], "tuples": "r0"},
        {"type": "regular", "vars": ["A", "B"],
         "dfa": {"states": 2, "start": 0, "finals": [0],
                 "transitions": [[0, 3, 1], [1, 4, 0]]}},
        {"type": "slide", "vars": ["A", "B"], "width": 2,
         "tuples": [[3, 4]]}
      ]
    }

Domains are explicit value lists or ``{"range": [lo, hi]}`` with at most
``MAX_RANGE_VALUES`` values; parsing normalizes both to sorted value
tuples, one tuple for all the variables with equal domains, and
``serialize_model`` writes a run of consecutive values as a range where
that text is the shorter.  DFA transitions are ``[state, symbol, state]``
triples.  A ``table`` or ``slide`` entry's ``tuples`` is either its rows
or the name of a relation in ``relations``, an optional object from names
to rows; ``serialize_model`` names each tuple set that two or more
constraints hold, ``r0``, ``r1``, ... in order of first use, and writes
the others inline.

The two generated models are laid out here, each in the function that
builds its document from a ``models`` spec: ``coloring_document`` and
``saw_document``.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

from .engine import ProblemState, new_problem
from .models import ColoringSpec, WalkSpec, lattice_code, maximal_cliques
from .propagators import (EQ, LEQ, AllDifferent, Dfa, Linear, Neq, Regular,
                          Slide, Table, _Relation, _relation)


# a range is expanded value by value, so its size is bounded before that
MAX_RANGE_VALUES = 1_000_000
# the constraint types a document may name
_KINDS = ("neq", "linear", "alldifferent", "table", "regular", "slide")


class ModelError(ValueError):
    """Raised for malformed model documents, with a located message."""


@dataclass(frozen=True)
class VariableDecl:
    name: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class ModelDocument:
    """Validated model: variable declarations plus constraints over
    variable indices (the propagator objects themselves)."""

    variables: tuple[VariableDecl, ...]
    constraints: tuple[object, ...]

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def build_state(self) -> ProblemState:
        state = new_problem([v.values for v in self.variables])
        for c in self.constraints:
            state.post(c)
        return state


def _is_int(v) -> bool:
    # JSON true/false parse to bool, which Python counts as an int
    return isinstance(v, int) and not isinstance(v, bool)


def _all_ints(values: Iterable) -> bool:
    """Whether every value parsed from JSON is an integer, in one C-level
    pass: ``json.loads`` yields ``int``, ``bool`` and ``float`` numbers and
    never an ``int`` subclass, so ``type(v) is int`` is ``_is_int(v)``."""
    return {int}.issuperset(map(type, values))


def _parse_domain(raw, where: str, known: dict) -> tuple[int, ...]:
    """The domain ``raw`` as sorted values.  ``known`` holds each distinct
    domain parsed so far under its values, and a range also under
    ``("range", lo, hi)``, so equal domains are one tuple and a range met
    again is neither expanded nor hashed again."""
    if isinstance(raw, list):
        if not _all_ints(raw):
            raise ModelError(f"{where}: domain values must be integers")
        values = tuple(sorted(set(raw)))
        return known.setdefault(values, values)
    if isinstance(raw, dict) and set(raw) == {"range"}:
        rng = raw["range"]
        if (not isinstance(rng, list) or len(rng) != 2
                or not _all_ints(rng)):
            raise ModelError(f"{where}: range must be [lo, hi]")
        lo, hi = rng
        if hi - lo + 1 > MAX_RANGE_VALUES:
            raise ModelError(f"{where}: range [{lo}, {hi}] has {hi - lo + 1} "
                             f"values, more than {MAX_RANGE_VALUES}")
        key = ("range", lo, hi)
        if key not in known:
            values = tuple(range(lo, hi + 1))
            known[key] = known.setdefault(values, values)
        return known[key]
    raise ModelError(f"{where}: domain must be a value list or {{\"range\": [lo, hi]}}")


def _declare(names: dict[str, int], name, i: int) -> None:
    """Enter ``name`` in ``names`` as variable ``i``, refusing a name that
    is not a string or is there already: the one rule for reading and for
    writing a document."""
    if not isinstance(name, str):
        raise ModelError(f"variables[{i}]: name must be a string")
    if name in names:
        raise ModelError(f"variables[{i}]: duplicate variable name {name!r}")
    names[name] = i


def _resolve(names: dict[str, int], raw_vars, where: str) -> tuple[int, ...]:
    if not isinstance(raw_vars, list) or not raw_vars:
        raise ModelError(f"{where}: 'vars' must be a non-empty list")
    out = []
    for name in raw_vars:
        if not isinstance(name, str) or name not in names:
            raise ModelError(f"{where}: unknown variable {name!r}")
        out.append(names[name])
    return tuple(out)


def _checked_relation(raw: list, arity: int, where: str,
                      built: dict) -> _Relation:
    """The relation of the rows ``raw``, validated as a whole in C-level
    passes and, only when that fails, row by row, so that the first
    defective row sets the message; one equal to a relation in ``built``
    is that one, so equal tuple sets are held once."""
    # json.loads yields no list subclass, so ``type(row) is list`` is
    # ``isinstance(row, list)``
    if not ({list}.issuperset(map(type, raw))
            and {arity}.issuperset(map(len, raw))
            and _all_ints(chain.from_iterable(raw))):
        for row in raw:
            if not isinstance(row, list) or len(row) != arity:
                raise ModelError(f"{where}: tuple arity mismatch (expected {arity})")
            if not _all_ints(row):
                raise ModelError(f"{where}: tuple values must be integers")
    # checked: the rows are the relation's tuples as they are
    rel = _Relation(map(tuple, raw))
    return built.setdefault(rel, rel)


def _parse_relations(raw, built: dict) -> dict[str, _Relation]:
    """The named relations of ``raw``, each validated once, whether or not
    a constraint names it; a relation's arity is its first row's length."""
    if not isinstance(raw, dict):
        raise ModelError("'relations' must be an object")
    named = {}
    for name, rows in raw.items():
        where = f"relations[{name!r}]"
        if not isinstance(rows, list) or (rows and not isinstance(rows[0], list)):
            raise ModelError(f"{where}: a relation must be a list of rows")
        named[name] = _checked_relation(rows, len(rows[0]) if rows else 0,
                                        where, built)
    return named


def _parse_tuples(raw, arity: int, where: str, named: dict[str, _Relation],
                  built: dict) -> _Relation:
    """The relation of a ``tuples`` field: inline rows, or the name of a
    relation in ``named``, which must have ``arity`` values per row."""
    if isinstance(raw, list):
        return _checked_relation(raw, arity, where, built)
    if not isinstance(raw, str):
        raise ModelError(
            f"{where}: 'tuples' must be a list of rows or a relation name")
    if raw not in named:
        raise ModelError(f"{where}: unknown relation {raw!r}")
    rel = named[raw]
    # an empty relation has rows of any arity
    got = len(next(iter(rel), ()))
    if rel and got != arity:
        raise ModelError(
            f"{where}: relation {raw!r} has arity {got}, not {arity}")
    return rel


def _parse_dfa(raw, where: str, built: dict) -> Dfa:
    """The automaton ``raw`` describes, validated; one equal to an automaton
    in ``built`` is that one, so equal automata are held once."""
    if not isinstance(raw, dict):
        raise ModelError(f"{where}: 'dfa' must be an object")
    try:
        states = raw["states"]
        start = raw["start"]
        finals = raw["finals"]
        transitions = raw["transitions"]
    except KeyError as missing:
        raise ModelError(f"{where}: dfa is missing field {missing}") from None
    if not (_is_int(states) and _is_int(start) and isinstance(finals, list)
            and _all_ints(finals)):
        raise ModelError(
            f"{where}: dfa states, start and finals must be integers")
    trans = {}
    if not isinstance(transitions, list):
        raise ModelError(f"{where}: dfa transitions must be [state, symbol, state] rows")
    for row in transitions:
        if not isinstance(row, list) or len(row) != 3 \
                or not _all_ints(row):
            raise ModelError(f"{where}: bad dfa transition {row!r}")
        q, s, r = row
        if (q, s) in trans:
            raise ModelError(f"{where}: duplicate dfa transition on ({q}, {s})")
        trans[(q, s)] = r
    try:
        dfa = Dfa(states, start, finals, trans)
    except (ValueError, TypeError) as exc:
        raise ModelError(f"{where}: malformed automaton: {exc}") from None
    return built.setdefault(dfa, dfa)


def parse_model(text: str) -> ModelDocument:
    """Parse and validate a model document; raises ModelError with a
    located message on any defect."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past int()'s digit
        # limit; RecursionError comes from deeply nested arrays or objects
        raise ModelError(f"syntax error: {exc}") from None
    if not isinstance(raw, dict):
        raise ModelError("document must be a JSON object")
    raw_vars = raw.get("variables")
    if not isinstance(raw_vars, list):
        raise ModelError("'variables' must be a list")
    decls = []
    names: dict[str, int] = {}
    domains: dict[tuple, tuple[int, ...]] = {}
    for i, rv in enumerate(raw_vars):
        where = f"variables[{i}]"
        if not isinstance(rv, dict) or "name" not in rv or "domain" not in rv:
            raise ModelError(f"{where}: need 'name' and 'domain'")
        name = rv["name"]
        _declare(names, name, i)
        decls.append(VariableDecl(name, _parse_domain(rv["domain"], where,
                                                      domains)))

    # each distinct automaton and tuple set once, so the Regular
    # constraints over an automaton share its step memo, and the Table and
    # Slide constraints over a tuple set share what their filters build of
    # it: its adjacency or its support masks
    automata: dict = {}
    relations: dict = {}
    named = _parse_relations(raw.get("relations", {}), relations)
    raw_cons = raw.get("constraints", [])
    if not isinstance(raw_cons, list):
        raise ModelError("'constraints' must be a list")
    constraints = []
    for i, rc in enumerate(raw_cons):
        where = f"constraints[{i}]"
        if not isinstance(rc, dict) or "type" not in rc:
            raise ModelError(f"{where}: need a 'type' field")
        kind = rc["type"]
        if kind not in _KINDS:
            raise ModelError(f"{where}: unknown constraint type {kind!r}")
        vs = _resolve(names, rc.get("vars"), where)
        try:
            if kind == "neq":
                if len(vs) != 2:
                    raise ModelError(f"{where}: neq takes exactly 2 variables")
                constraints.append(Neq(vs[0], vs[1]))
            elif kind == "linear":
                coeffs = rc.get("coeffs")
                if not isinstance(coeffs, list) or not _all_ints(coeffs):
                    raise ModelError(f"{where}: 'coeffs' must be integers")
                rel = rc.get("rel")
                if rel not in (EQ, LEQ):
                    raise ModelError(f"{where}: 'rel' must be 'eq' or 'leq'")
                rhs = rc.get("rhs")
                if not _is_int(rhs):
                    raise ModelError(f"{where}: 'rhs' must be an integer")
                constraints.append(Linear(tuple(coeffs), vs, rel, rhs))
            elif kind == "alldifferent":
                constraints.append(AllDifferent(vs))
            elif kind == "table":
                tuples = _parse_tuples(rc.get("tuples"), len(vs), where,
                                       named, relations)
                constraints.append(Table(vs, tuples))
            elif kind == "regular":
                dfa = _parse_dfa(rc.get("dfa"), where, automata)
                constraints.append(Regular(vs, dfa))
            else:  # slide
                width = rc.get("width")
                if not _is_int(width):
                    raise ModelError(f"{where}: 'width' must be an integer")
                tuples = _parse_tuples(rc.get("tuples"), width, where,
                                       named, relations)
                constraints.append(Slide(vs, width, tuples))
        except ModelError:
            raise
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{where}: {exc}") from None
    return ModelDocument(tuple(decls), tuple(constraints))


def _domain_entry(values: tuple[int, ...]) -> list[int] | dict:
    """A domain as ``serialize_model`` writes it: a run of consecutive
    values as ``{"range": [lo, hi]}`` where that text is shorter than the
    value list, and the list otherwise.  A run of more than
    ``MAX_RANGE_VALUES`` values stays a list, which the parser takes at any
    length; the run test compares the values with a range only when the
    two lengths agree, so a wide sparse domain builds nothing."""
    listed = list(values)
    if (values and values[-1] - values[0] + 1 == len(values)
            <= MAX_RANGE_VALUES
            and values == tuple(range(values[0], values[-1] + 1))):
        run = {"range": [values[0], values[-1]]}
        # the reprs of this dict and of an int list are as long as their
        # JSON texts, and quicker to make
        if len(repr(run)) < len(repr(listed)):
            return run
    return listed


def serialize_model(doc: ModelDocument) -> str:
    """Canonical JSON text, one line per variable, per named relation and
    per constraint; parse(serialize(doc)) == doc.  A document
    ``parse_model`` would refuse, with a name that is not a string or is
    declared twice, or a constraint over an undeclared index, raises a
    located ``ModelError``."""
    names = doc.names
    if (not all(isinstance(name, str) for name in names)
            or len(set(names)) < len(names)):
        # locate the first name parse_model would refuse
        declared: dict[str, int] = {}
        for i, name in enumerate(names):
            _declare(declared, name, i)
    # by key, so that an index no variable has, negative ones too, misses
    names = dict(enumerate(names))
    # each distinct domain object written once, and shared by the entries
    # of the variables that declare it
    written = {id(v.values): v.values for v in doc.variables}
    written = {key: _domain_entry(values) for key, values in written.items()}
    raw_vars = [{"name": v.name, "domain": written[id(v.values)]}
                for v in doc.variables]
    # a tuple set two or more constraints hold, equal ones counted as one,
    # is written and sorted once, under a name, r0, r1, ... in order of
    # first use
    held = Counter(c.tuples for c in doc.constraints
                   if isinstance(c, (Table, Slide)))
    named: dict[_Relation, str] = {}

    def rows(rel) -> list:
        return sorted(map(list, rel))

    def tuples(rel):
        if held[rel] < 2:
            return rows(rel)
        return named.setdefault(rel, f"r{len(named)}")

    raw_cons = []
    try:
        for j, c in enumerate(doc.constraints):
            if isinstance(c, Neq):
                raw_cons.append({"type": "neq",
                                 "vars": [names[c.x], names[c.y]]})
            elif isinstance(c, Linear):
                raw_cons.append({"type": "linear", "coeffs": list(c.coeffs),
                                 "vars": [names[x] for x in c.vars],
                                 "rel": c.rel, "rhs": c.rhs})
            elif isinstance(c, AllDifferent):
                raw_cons.append({"type": "alldifferent",
                                 "vars": [names[x] for x in c.vars]})
            elif isinstance(c, Table):
                raw_cons.append({"type": "table",
                                 "vars": [names[x] for x in c.vars],
                                 "tuples": tuples(c.tuples)})
            elif isinstance(c, Regular):
                raw_cons.append({"type": "regular",
                                 "vars": [names[x] for x in c.vars],
                                 "dfa": {"states": c.dfa.state_count,
                                         "start": c.dfa.start,
                                         "finals": sorted(c.dfa.finals),
                                         "transitions": sorted(
                                             [q, s, r] for (q, s), r
                                             in c.dfa.transitions.items())}})
            elif isinstance(c, Slide):
                raw_cons.append({"type": "slide",
                                 "vars": [names[x] for x in c.vars],
                                 "width": c.width,
                                 "tuples": tuples(c.tuples)})
            else:
                raise ModelError(f"cannot serialize constraint {c!r}")
    except KeyError as exc:
        # only the names are looked up by key in this loop
        raise ModelError(f"constraints[{j}]: unknown variable index "
                         f"{exc.args[0]}") from None
    # one compact line per entry: readable, and dumped by the C encoder
    # (indent= would switch json to its pure-Python one)
    def entries(items: list) -> str:
        return "[" + ",".join("\n  " + json.dumps(i) for i in items) + "\n ]"

    relations = (' "relations": {'
                 + ",".join(f"\n  {json.dumps(name)}: {json.dumps(rows(rel))}"
                            for rel, name in named.items())
                 + "\n },\n") if named else ""
    return (f'{{"variables": {entries(raw_vars)},\n{relations}'
            f' "constraints": {entries(raw_cons)}}}')


# -- document generators ------------------------------------------------------


def coloring_document(spec: ColoringSpec) -> ModelDocument:
    """Coloring model as a document: variables n0..n{N-1} over the colors,
    one ``AllDifferent`` per maximal clique of three or more nodes, in
    ``maximal_cliques`` order, then one ``Neq`` per edge in no such clique,
    in ascending order."""
    colors = tuple(range(spec.colors))
    decls = tuple(VariableDecl(f"n{i}", colors) for i in range(spec.graph.n))
    cliques = [sorted(c) for c in maximal_cliques(spec.graph) if len(c) > 2]
    # the edges of a sorted clique, as UGraph holds them: smaller end first
    covered = {e for c in cliques for e in combinations(c, 2)}
    constraints: list[object] = [AllDifferent(c) for c in cliques]
    constraints += [Neq(u, v) for u, v in sorted(spec.graph.edges - covered)]
    return ModelDocument(decls, tuple(constraints))


def saw_document(spec: WalkSpec) -> ModelDocument:
    """Walk model as a document: variables p0..p{L-1} over the coded points
    of the box, p0 pinned to the origin; a table of lattice steps between
    consecutive points, and one ``AllDifferent`` over all of them."""
    b = spec.bound
    side = range(-b, b + 1)
    # one tuple of the box's points, which every free variable declares
    points = tuple(sorted(lattice_code(x, y, b) for x in side for y in side))
    decls = (VariableDecl("p0", (lattice_code(0, 0, b),)),
             *(VariableDecl(f"p{i}", points) for i in range(1, spec.length)))
    # one relation for every step, built once
    steps = _relation(((lattice_code(x, y, b), lattice_code(x + dx, y + dy, b))
                       for x in side for y in side
                       for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                       if -b <= x + dx <= b and -b <= y + dy <= b),
                      2, "Table")
    constraints: list[object] = [Table((i, i + 1), steps)
                                 for i in range(spec.length - 1)]
    if spec.length >= 2:
        constraints.append(AllDifferent(range(spec.length)))
    return ModelDocument(decls, tuple(constraints))
