"""Model documents: a JSON format for problems, with named variables.

Canonical shape::

    {
      "variables": [
        {"name": "A", "domain": [3, 5]},
        {"name": "B", "domain": {"range": [0, 3]}}
      ],
      "constraints": [
        {"type": "neq", "vars": ["A", "B"]},
        {"type": "linear", "coeffs": [1, 1], "vars": ["A", "B"],
         "rel": "eq", "rhs": 8},
        {"type": "alldifferent", "vars": ["A", "B"]},
        {"type": "table", "vars": ["A", "B"], "tuples": [[3, 4], [5, 3]]},
        {"type": "regular", "vars": ["A", "B"],
         "dfa": {"states": 2, "start": 0, "finals": [0],
                 "transitions": [[0, 3, 1], [1, 4, 0]]}},
        {"type": "slide", "vars": ["A", "B"], "width": 2,
         "tuples": [[3, 4]]}
      ]
    }

Domains are explicit value lists or ``{"range": [lo, hi]}`` with at most
``MAX_RANGE_VALUES`` values; parsing normalizes both to sorted value
tuples.  DFA transitions are ``[state, symbol, state]`` triples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .engine import ProblemState, new_problem
from .models import ColoringSpec, UGraph, WalkSpec, coloring_plan, saw_plan
from .propagators import (EQ, LEQ, AllDifferent, Dfa, Linear, Neq, Regular,
                          Slide, Table)


# a range is expanded value by value, so its size is bounded before that
MAX_RANGE_VALUES = 1_000_000


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


def _parse_domain(raw, where: str) -> tuple[int, ...]:
    if isinstance(raw, list):
        if not all(_is_int(v) for v in raw):
            raise ModelError(f"{where}: domain values must be integers")
        return tuple(sorted(set(raw)))
    if isinstance(raw, dict) and set(raw) == {"range"}:
        rng = raw["range"]
        if (not isinstance(rng, list) or len(rng) != 2
                or not all(_is_int(v) for v in rng)):
            raise ModelError(f"{where}: range must be [lo, hi]")
        lo, hi = rng
        if hi - lo + 1 > MAX_RANGE_VALUES:
            raise ModelError(f"{where}: range [{lo}, {hi}] has {hi - lo + 1} "
                             f"values, more than {MAX_RANGE_VALUES}")
        return tuple(range(lo, hi + 1))
    raise ModelError(f"{where}: domain must be a value list or {{\"range\": [lo, hi]}}")


def _resolve(names: dict[str, int], raw_vars, where: str) -> tuple[int, ...]:
    if not isinstance(raw_vars, list) or not raw_vars:
        raise ModelError(f"{where}: 'vars' must be a non-empty list")
    out = []
    for name in raw_vars:
        if not isinstance(name, str) or name not in names:
            raise ModelError(f"{where}: unknown variable {name!r}")
        out.append(names[name])
    return tuple(out)


def _parse_tuples(raw, arity: int, where: str) -> list[tuple[int, ...]]:
    if not isinstance(raw, list):
        raise ModelError(f"{where}: 'tuples' must be a list of rows")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != arity:
            raise ModelError(f"{where}: tuple arity mismatch (expected {arity})")
        if not all(_is_int(v) for v in row):
            raise ModelError(f"{where}: tuple values must be integers")
        rows.append(tuple(row))
    return rows


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
            and all(_is_int(f) for f in finals)):
        raise ModelError(
            f"{where}: dfa states, start and finals must be integers")
    trans = {}
    if not isinstance(transitions, list):
        raise ModelError(f"{where}: dfa transitions must be [state, symbol, state] rows")
    for row in transitions:
        if not isinstance(row, list) or len(row) != 3 \
                or not all(_is_int(v) for v in row):
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
    for i, rv in enumerate(raw_vars):
        where = f"variables[{i}]"
        if not isinstance(rv, dict) or "name" not in rv or "domain" not in rv:
            raise ModelError(f"{where}: need 'name' and 'domain'")
        name = rv["name"]
        if not isinstance(name, str):
            raise ModelError(f"{where}: name must be a string")
        if name in names:
            raise ModelError(f"{where}: duplicate variable name {name!r}")
        names[name] = i
        decls.append(VariableDecl(name, _parse_domain(rv["domain"], where)))

    raw_cons = raw.get("constraints", [])
    if not isinstance(raw_cons, list):
        raise ModelError("'constraints' must be a list")
    constraints = []
    # each distinct automaton once, so the Regular constraints over it
    # share its step memo
    automata: dict = {}
    for i, rc in enumerate(raw_cons):
        where = f"constraints[{i}]"
        if not isinstance(rc, dict) or "type" not in rc:
            raise ModelError(f"{where}: need a 'type' field")
        kind = rc["type"]
        try:
            if kind == "neq":
                vs = _resolve(names, rc.get("vars"), where)
                if len(vs) != 2:
                    raise ModelError(f"{where}: neq takes exactly 2 variables")
                constraints.append(Neq(vs[0], vs[1]))
            elif kind == "linear":
                vs = _resolve(names, rc.get("vars"), where)
                coeffs = rc.get("coeffs")
                if not isinstance(coeffs, list) or \
                        not all(_is_int(c) for c in coeffs):
                    raise ModelError(f"{where}: 'coeffs' must be integers")
                rel = rc.get("rel")
                if rel not in (EQ, LEQ):
                    raise ModelError(f"{where}: 'rel' must be 'eq' or 'leq'")
                rhs = rc.get("rhs")
                if not _is_int(rhs):
                    raise ModelError(f"{where}: 'rhs' must be an integer")
                constraints.append(Linear(tuple(coeffs), vs, rel, rhs))
            elif kind == "alldifferent":
                vs = _resolve(names, rc.get("vars"), where)
                constraints.append(AllDifferent(vs))
            elif kind == "table":
                vs = _resolve(names, rc.get("vars"), where)
                rows = _parse_tuples(rc.get("tuples"), len(vs), where)
                constraints.append(Table(vs, rows))
            elif kind == "regular":
                vs = _resolve(names, rc.get("vars"), where)
                dfa = _parse_dfa(rc.get("dfa"), where, automata)
                constraints.append(Regular(vs, dfa))
            elif kind == "slide":
                vs = _resolve(names, rc.get("vars"), where)
                width = rc.get("width")
                if not _is_int(width):
                    raise ModelError(f"{where}: 'width' must be an integer")
                rows = _parse_tuples(rc.get("tuples"), width, where)
                constraints.append(Slide(vs, width, rows))
            else:
                raise ModelError(f"{where}: unknown constraint type {kind!r}")
        except ModelError:
            raise
        except ValueError as exc:
            raise ModelError(f"{where}: {exc}") from None
    return ModelDocument(tuple(decls), tuple(constraints))


def serialize_model(doc: ModelDocument) -> str:
    """Canonical JSON text, one line per variable and per constraint;
    parse(serialize(doc)) == doc."""
    names = doc.names
    raw_vars = [{"name": v.name, "domain": list(v.values)}
                for v in doc.variables]
    raw_cons = []
    for c in doc.constraints:
        if isinstance(c, Neq):
            raw_cons.append({"type": "neq", "vars": [names[c.x], names[c.y]]})
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
                             "tuples": sorted(list(t) for t in c.tuples)})
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
                             "tuples": sorted(list(t) for t in c.tuples)})
        else:
            raise ModelError(f"cannot serialize constraint {c!r}")
    # one compact line per entry: readable, and dumped by the C encoder
    # (indent= would switch json to its pure-Python one)
    def entries(items: list) -> str:
        return "[" + ",".join("\n  " + json.dumps(i) for i in items) + "\n ]"

    return (f'{{"variables": {entries(raw_vars)},\n'
            f' "constraints": {entries(raw_cons)}}}')


# -- document generators ------------------------------------------------------


def coloring_document(spec: ColoringSpec) -> ModelDocument:
    """Coloring model as a document: variables n0..n{N-1} over the colors."""
    colors = tuple(range(spec.colors))
    decls = tuple(VariableDecl(f"n{i}", colors) for i in range(spec.graph.n))
    big, rest = coloring_plan(spec.graph)
    constraints: list[object] = [AllDifferent(sorted(c)) for c in big]
    constraints += [Neq(u, v) for u, v in rest]
    return ModelDocument(decls, tuple(constraints))


def saw_document(spec: WalkSpec) -> ModelDocument:
    """Walk model as a document: variables p0..p{L-1} over coded points."""
    domains, steps = saw_plan(spec)
    decls = tuple(VariableDecl(f"p{i}", tuple(sorted(d)))
                  for i, d in enumerate(domains))
    constraints: list[object] = [Table((i, i + 1), steps)
                                 for i in range(spec.length - 1)]
    if spec.length >= 2:
        constraints.append(AllDifferent(range(spec.length)))
    return ModelDocument(decls, tuple(constraints))
