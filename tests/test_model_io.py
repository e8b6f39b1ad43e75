import hashlib
import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsolve import (ColoringSpec, ModelError, Table, UGraph, WalkSpec,
                     dds_count, dfs_count, parse_model, serialize_model)
from fdsolve import model_io
from fdsolve.model_io import coloring_document, saw_document

CANONICAL = """
{
  "variables": [
    {"name": "A", "domain": [3, 5]},
    {"name": "B", "domain": [3, 4]},
    {"name": "C", "domain": {"range": [1, 2]}},
    {"name": "D", "domain": {"range": [1, 2]}}
  ],
  "constraints": [
    {"type": "neq", "vars": ["A", "B"]},
    {"type": "alldifferent", "vars": ["A", "B", "C", "D"]},
    {"type": "linear", "coeffs": [1, 1], "vars": ["C", "D"], "rel": "leq",
     "rhs": 10},
    {"type": "table", "vars": ["C", "D"], "tuples": [[1, 2], [2, 1]]},
    {"type": "regular", "vars": ["C", "D"],
     "dfa": {"states": 2, "start": 0, "finals": [0, 1],
             "transitions": [[0, 1, 1], [0, 2, 1], [1, 1, 0], [1, 2, 0]]}},
    {"type": "slide", "vars": ["A", "B", "C"], "width": 2,
     "tuples": [[3, 4], [5, 3], [5, 4], [4, 1], [3, 1], [3, 2], [4, 2]]}
  ]
}
"""


def intro_document_text():
    names = ["A", "B", "C", "D"]
    variables = [{"name": "A", "domain": [3, 5]},
                 {"name": "B", "domain": [3, 4]},
                 {"name": "C", "domain": [1, 2]},
                 {"name": "D", "domain": [1, 2]}]
    constraints = [{"type": "neq", "vars": [a, b]}
                   for i, a in enumerate(names)
                   for b in names[i + 1:]]
    return json.dumps({"variables": variables, "constraints": constraints})


def test_parse_canonical_document():
    doc = parse_model(CANONICAL)
    assert doc.names == ["A", "B", "C", "D"]
    assert doc.variables[2].values == (1, 2)  # range normalized
    assert len(doc.constraints) == 6
    state = doc.build_state()
    assert state.num_vars == 4
    assert len(state.propagators) == 6


def test_equal_automata_are_parsed_once():
    # the rows of one document share an automaton object, and with it the
    # automaton's step memo; a different automaton stays apart
    raw = json.loads(CANONICAL)
    regular = raw["constraints"][4]
    other = json.loads(json.dumps(regular))
    other["dfa"]["transitions"].reverse()
    third = json.loads(json.dumps(regular))
    third["dfa"]["finals"] = [1]
    raw["constraints"] += [{**other, "vars": ["A", "B"]}, third]
    doc = parse_model(json.dumps(raw))
    first, second, last = doc.constraints[4], doc.constraints[6], \
        doc.constraints[7]
    assert second.dfa is first.dfa
    assert last.dfa != first.dfa and last.dfa is not first.dfa


def shared_relations_text():
    """The canonical document with two more rows over the table's tuple set,
    one in another row order and one a slide, and a table over another
    set."""
    raw = json.loads(CANONICAL)
    table = raw["constraints"][3]
    raw["constraints"] += [
        {**table, "vars": ["D", "C"], "tuples": table["tuples"][::-1]},
        {"type": "slide", "vars": ["C", "D"], "width": 2,
         "tuples": table["tuples"]},
        {**table, "tuples": [[1, 2]]}]
    return json.dumps(raw)


def test_equal_tuple_sets_are_parsed_once():
    # the rows of one document share a relation object, and with it the
    # relation's support masks; a different tuple set stays apart
    doc = parse_model(shared_relations_text())
    table, slide = doc.constraints[3], doc.constraints[5]
    reordered, slid, other = doc.constraints[6:]
    assert reordered.tuples is table.tuples and slid.tuples is table.tuples
    assert reordered._masks is table._masks
    assert other.tuples != table.tuples and other.tuples is not table.tuples
    assert slide.tuples is not table.tuples


def test_walk_steps_are_one_relation():
    doc = saw_document(WalkSpec(8))
    tables = [c for c in doc.constraints if isinstance(c, Table)]
    assert len(tables) == 7
    assert all(t.tuples is tables[0].tuples for t in tables)


@pytest.mark.parametrize("make, digest", [
    (lambda: saw_document(WalkSpec(8)),
     "88e06462efab5620e568977798e86a96"
     "59748b2a3f809d4f42ed279f8c2e949c"),
    (lambda: coloring_document(ColoringSpec(erdos_graph(), 3)),
     "f493ca1c2ef232d72ad93afedb634375"
     "4c06b927f416ef8fa2dcf1553fb5a93b"),
    (lambda: parse_model(CANONICAL),
     "d0d3c90160fcf3076b441774d2ccba49"
     "0afcffb907871860d9aeb9c2296353af"),
    (lambda: parse_model(shared_relations_text()),
     "b5e8fa58b1e4c6f0096572f8e33e53ad"
     "7f1caad58499db6b19837bc4cffa9d6e"),
], ids=["gen-saw", "gen-coloring", "canonical", "shared-relations"])
def test_serialized_text_is_pinned(make, digest):
    # sha256 of the text: constraints that share a relation serialize it
    # exactly as constraints that each hold an equal copy
    text = serialize_model(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_roundtrip():
    for text in (CANONICAL, intro_document_text()):
        doc = parse_model(text)
        assert parse_model(serialize_model(doc)) == doc


def test_generated_documents_roundtrip_and_solve():
    coloring = coloring_document(ColoringSpec(erdos_graph(), 3))
    assert parse_model(serialize_model(coloring)) == coloring
    walk = saw_document(WalkSpec(3))
    assert parse_model(serialize_model(walk)) == walk
    assert dds_count(walk.build_state()).count == 12


def test_serialized_text_has_one_line_per_entry():
    for doc in (parse_model(CANONICAL), saw_document(WalkSpec(5)),
                coloring_document(ColoringSpec(erdos_graph(), 3)),
                parse_model('{"variables": [], "constraints": []}')):
        text = serialize_model(doc)
        assert parse_model(text) == doc
        assert serialize_model(parse_model(text)) == text
        entries = len(doc.variables) + len(doc.constraints)
        assert len(text.splitlines()) <= entries + 4


def erdos_graph():
    from fdsolve import erdos_renyi
    return erdos_renyi(6, 0.4, 7)


def test_intro_document_counts_six():
    doc = parse_model(intro_document_text())
    state = doc.build_state()
    assert dfs_count(state).count == 6
    assert dds_count(state).count == 6


def test_empty_constraints_count_product_of_domains():
    doc = parse_model(json.dumps({
        "variables": [{"name": "x", "domain": [0, 1, 2]},
                      {"name": "y", "domain": [0, 1]}],
        "constraints": []}))
    assert dfs_count(doc.build_state()).count == 6


def test_deeply_nested_document_is_a_syntax_error():
    with pytest.raises(ModelError, match="syntax error"):
        parse_model("[" * 200_000)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="integer string conversion has no digit limit")
def test_overlong_integer_is_a_syntax_error():
    with pytest.raises(ModelError, match="syntax error"):
        parse_model('{"variables": [{"name": "x", "domain": [%s]}], '
                    '"constraints": []}' % ("9" * 5000))


def test_parse_errors():
    with pytest.raises(ModelError, match="syntax error"):
        parse_model("{not json")
    with pytest.raises(ModelError, match="unknown variable"):
        parse_model(json.dumps({
            "variables": [{"name": "x", "domain": [0]}],
            "constraints": [{"type": "neq", "vars": ["x", "zz"]}]}))
    for ref in (["x"], {"x": 0}, 0, None):
        with pytest.raises(ModelError, match="constraints.0.: unknown var"):
            parse_model(json.dumps({
                "variables": [{"name": "x", "domain": [0]}],
                "constraints": [{"type": "alldifferent",
                                 "vars": ["x", ref]}]}))
    with pytest.raises(ModelError, match="arity"):
        parse_model(json.dumps({
            "variables": [{"name": "x", "domain": [0]},
                          {"name": "y", "domain": [0]}],
            "constraints": [{"type": "table", "vars": ["x", "y"],
                             "tuples": [[1, 2, 3]]}]}))
    with pytest.raises(ModelError, match="automaton"):
        parse_model(json.dumps({
            "variables": [{"name": "x", "domain": [0]}],
            "constraints": [{"type": "regular", "vars": ["x"],
                             "dfa": {"states": 1, "start": 5, "finals": [],
                                     "transitions": []}}]}))
    with pytest.raises(ModelError, match="duplicate variable"):
        parse_model(json.dumps({
            "variables": [{"name": "x", "domain": [0]},
                          {"name": "x", "domain": [1]}],
            "constraints": []}))
    with pytest.raises(ModelError, match="unknown constraint type"):
        parse_model(json.dumps({
            "variables": [{"name": "x", "domain": [0]}],
            "constraints": [{"type": "wat", "vars": ["x"]}]}))


# -- mutated documents -----------------------------------------------------------


def json_paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


# values that fit where they land as often as not
JSON_VALUES = st.integers(0, 5) | st.sampled_from("ABCD") | st.recursive(
    st.sampled_from([None, True, False, -3, 1.5, 10 ** 20, "", "E", "neq",
                     "range", "eq"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "domain", "vars", "type", "range"]), inner,
        max_size=3),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    """The canonical document after one to three mutations below its root,
    each replacing a value, dropping a key or list item, or nesting a value
    in a list or an object; the mutations stop once both top-level keys are
    dropped, since nothing is left below the root."""
    doc = json.loads(CANONICAL)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(["replace", "drop", "list", "object"]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "replace":
            parent[key] = draw(JSON_VALUES)
        elif kind == "drop":
            del parent[key]
        else:
            parent[key] = [parent[key]] if kind == "list" \
                else {"vars": parent[key]}
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_and_count_or_raise_model_error(text):
    try:
        doc = parse_model(text)
    except ModelError:
        return
    assert dfs_count(doc.build_state()).count == \
        dds_count(doc.build_state()).count


def two_var_doc(domain=(0, 1), constraint=None):
    return {"variables": [{"name": "x", "domain": domain},
                          {"name": "y", "domain": [0, 1]}],
            "constraints": [constraint] if constraint else []}


DFA = {"states": 1, "start": 0, "finals": [0], "transitions": [[0, 1, 0]]}


@pytest.mark.parametrize("doc, where", [
    (two_var_doc([True, False, 1]), "variables[0]: domain values"),
    (two_var_doc({"range": [False, 3]}), "variables[0]: range"),
    (two_var_doc(constraint={"type": "table", "vars": ["x", "y"],
                             "tuples": [[0, True]]}), "constraints[0]: tuple"),
    (two_var_doc(constraint={"type": "slide", "vars": ["x", "y"],
                             "width": True, "tuples": [[0]]}),
     "constraints[0]: 'width'"),
    (two_var_doc(constraint={"type": "regular", "vars": ["x", "y"],
                             "dfa": {**DFA, "states": True}}),
     "constraints[0]: dfa states"),
    (two_var_doc(constraint={"type": "regular", "vars": ["x", "y"],
                             "dfa": {**DFA, "start": False}}),
     "constraints[0]: dfa states"),
    (two_var_doc(constraint={"type": "regular", "vars": ["x", "y"],
                             "dfa": {**DFA, "finals": [False]}}),
     "constraints[0]: dfa states"),
    (two_var_doc(constraint={"type": "regular", "vars": ["x", "y"],
                             "dfa": {**DFA, "transitions": [[0, True, 0]]}}),
     "constraints[0]: bad dfa transition"),
    (two_var_doc(constraint={"type": "linear", "coeffs": [1, True],
                             "vars": ["x", "y"], "rel": "eq", "rhs": 1}),
     "constraints[0]: 'coeffs'"),
    (two_var_doc(constraint={"type": "linear", "coeffs": [1, 1],
                             "vars": ["x", "y"], "rel": "eq", "rhs": True}),
     "constraints[0]: 'rhs'"),
])
def test_booleans_are_not_integers(doc, where):
    with pytest.raises(ModelError, match=re.escape(where)):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("tuples, message", [
    ([[0, 1], [1.5, 0], [0, 1, 1]], "tuple values must be integers"),
    ([[0, 1], [0, 1, 1], [1.5, 0]], "tuple arity mismatch (expected 2)"),
])
def test_first_defective_row_sets_the_message(tuples, message):
    # the value check reads type(v) is int, which here is _is_int(v):
    # json.loads yields int, bool and float numbers, never an int subclass
    doc = two_var_doc(constraint={"type": "table", "vars": ["x", "y"],
                                  "tuples": tuples})
    with pytest.raises(ModelError, match=re.escape(
            "constraints[0]: " + message)):
        parse_model(json.dumps(doc))


def test_range_size_is_bounded(monkeypatch):
    huge = two_var_doc({"range": [0, 10 ** 18]})
    with pytest.raises(ModelError, match=re.escape(
            "variables[0]: range [0, 1000000000000000000] has "
            "1000000000000000001 values, more than 1000000")):
        parse_model(json.dumps(huge))
    monkeypatch.setattr(model_io, "MAX_RANGE_VALUES", 5)
    doc = parse_model(json.dumps(two_var_doc({"range": [-2, 2]})))
    assert doc.variables[0].values == (-2, -1, 0, 1, 2)
    with pytest.raises(ModelError, match=re.escape("has 6 values, more than 5")):
        parse_model(json.dumps(two_var_doc({"range": [-2, 3]})))
