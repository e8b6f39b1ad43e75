import enum
import hashlib
import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsolve import (ColoringSpec, ModelError, Neq, Table, UGraph, WalkSpec,
                     dds_count, dfs_count, parse_model, serialize_model)
from fdsolve import model_io
from fdsolve.model_io import ModelDocument, coloring_document, saw_document

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


def test_named_canonical_parses_as_its_inline_form():
    named = parse_model(named_canonical_text())
    raw = json.loads(CANONICAL)
    raw["constraints"].append({**raw["constraints"][3], "vars": ["D", "C"]})
    assert named == parse_model(json.dumps(raw))


def test_equal_tuple_sets_are_parsed_once():
    # the rows of one document share a relation object, and with it the
    # relation's adjacency; a different tuple set stays apart
    doc = parse_model(shared_relations_text())
    table, slide = doc.constraints[3], doc.constraints[5]
    reordered, slid, other = doc.constraints[6:]
    assert reordered.tuples is table.tuples and slid.tuples is table.tuples
    assert reordered._adjacency is table._adjacency
    assert table._adjacency is table.tuples._adjacency
    assert other.tuples != table.tuples and other.tuples is not table.tuples
    assert slide.tuples is not table.tuples


def test_walk_steps_are_one_relation():
    doc = saw_document(WalkSpec(8))
    tables = [c for c in doc.constraints if isinstance(c, Table)]
    assert len(tables) == 7
    assert all(t.tuples is tables[0].tuples for t in tables)


def test_equal_domains_are_one_tuple_and_one_set():
    # C and D are one range, E the same values as a list out of order
    raw = json.loads(CANONICAL)
    raw["variables"].append({"name": "E", "domain": [2, 1, 2]})
    doc = parse_model(json.dumps(raw))
    a, b, c, d, e = (v.values for v in doc.variables)
    assert c is d and e is c and c == (1, 2)
    assert a is not b
    state = doc.build_state()
    assert state.domains[2] is state.domains[3] is state.domains[4]
    assert state.domains[0] is not state.domains[1]
    walk = saw_document(WalkSpec(6)).build_state()
    assert len({id(dom) for dom in walk.domains[1:]}) == 1


def test_a_range_is_expanded_once_and_apart_from_its_ends():
    # a range met again is the first one's tuple, and a two-value list
    # whose values are a range's ends is not that range
    domains = [{"range": [3, 7]}, [3, 7], {"range": [3, 7]}, [7, 3]]
    doc = parse_model(json.dumps({
        "variables": [{"name": f"v{i}", "domain": dom}
                      for i, dom in enumerate(domains)],
        "constraints": []}))
    a, b, c, d = (v.values for v in doc.variables)
    assert a == (3, 4, 5, 6, 7) and a is c
    assert b == (3, 7) and b is d


def test_range_domains_roundtrip():
    # a run is written as a range only where that text is the shorter: not
    # for two values, nor for a gap, nor for five one-digit values
    domains = [{"range": [-3, 40]}, [1, 2], [0, 1, 2, 4, 5, 6, 7],
               [0, 1, 2, 3, 4], {"range": [0, 5]}, {"range": [7, 7]}]
    text = json.dumps({"variables": [{"name": f"v{i}", "domain": dom}
                                     for i, dom in enumerate(domains)],
                       "constraints": [{"type": "neq",
                                        "vars": ["v0", "v4"]}]})
    doc = parse_model(text)
    written = serialize_model(doc)
    assert [v["domain"] for v in json.loads(written)["variables"]] == [
        {"range": [-3, 40]}, [1, 2], [0, 1, 2, 4, 5, 6, 7], [0, 1, 2, 3, 4],
        {"range": [0, 5]}, [7]]
    assert parse_model(written) == doc
    assert serialize_model(parse_model(written)) == written


def test_domains_the_parser_bounds_are_written_as_lists():
    # a run longer than the parser takes as a range, and two values far
    # apart, stay value lists, and the texts read back
    run = model_io.MAX_RANGE_VALUES + 1
    doc = ModelDocument((model_io.VariableDecl("long", tuple(range(run))),
                         model_io.VariableDecl("wide", (0, 10**12))), ())
    written = serialize_model(doc)
    long, wide = (v["domain"] for v in json.loads(written)["variables"])
    assert isinstance(long, list) and len(long) == run
    assert wide == [0, 10**12]
    assert parse_model(written) == doc


@pytest.mark.parametrize("variables, constraints, message", [
    (("a", "a"), (), "variables[1]: duplicate variable name 'a'"),
    (("a", 7), (), "variables[1]: name must be a string"),
    (("a", "b"), (Neq(0, 1), Neq(1, 2)),
     "constraints[1]: unknown variable index 2"),
], ids=["duplicate-name", "non-string-name", "undeclared-index"])
def test_serialize_refuses_what_parse_refuses(variables, constraints,
                                              message):
    # a document built through the library that parse_model would not
    # read back is refused before any text is written
    doc = ModelDocument(tuple(model_io.VariableDecl(name, (0, 1))
                              for name in variables), constraints)
    with pytest.raises(ModelError) as err:
        serialize_model(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("domains, constraints, message", [
    (((0, 1), (0.5, 1)), (), "variables[1]: domain values must be integers"),
    (((0, 1), ("x",)), (), "variables[1]: domain values must be integers"),
    (((0, 1), (0, 1)), (Neq(0, 1), Table((), [()])),
     "constraints[1]: 'vars' must be a non-empty list"),
], ids=["float-value", "string-value", "empty-scope"])
def test_serialize_refuses_values_and_scopes_parse_refuses(domains,
                                                           constraints,
                                                           message):
    # a domain value with no integer reading, and a constraint over no
    # variables, which the library takes but a document cannot hold
    doc = ModelDocument(tuple(model_io.VariableDecl(f"v{i}", values)
                              for i, values in enumerate(domains)),
                        constraints)
    with pytest.raises(ModelError) as err:
        serialize_model(doc)
    assert str(err.value) == message


def test_a_shared_bad_domain_is_located_at_its_first_variable():
    bad = (0, 0.5)
    doc = ModelDocument((model_io.VariableDecl("a", (0, 1)),
                         model_io.VariableDecl("b", bad),
                         model_io.VariableDecl("c", bad)), ())
    with pytest.raises(ModelError, match=re.escape(
            "variables[1]: domain values must be integers")):
        serialize_model(doc)


class Shade(enum.IntEnum):
    DARK = 3
    LIGHT = 4


def test_bool_and_enum_domain_values_are_written_as_ints():
    # as build_state takes them, so the text reads back into an equal
    # document with the same domains
    doc = ModelDocument((model_io.VariableDecl("a", (True, 2)),
                         model_io.VariableDecl("b", (Shade.DARK, Shade.LIGHT))),
                        ())
    written = serialize_model(doc)
    assert [v["domain"] for v in json.loads(written)["variables"]] == [
        [1, 2], [3, 4]]
    assert parse_model(written) == doc
    assert parse_model(written).build_state().domains == \
        doc.build_state().domains


@pytest.mark.parametrize("make, digest", [
    (lambda: saw_document(WalkSpec(8)),
     "44330581b2fb91d9e2394310dbbe58aa"
     "dc677e9cee2db6e4a7ca3d4e992b3ad6"),
    (lambda: coloring_document(ColoringSpec(erdos_graph(), 3)),
     "f493ca1c2ef232d72ad93afedb634375"
     "4c06b927f416ef8fa2dcf1553fb5a93b"),
    (lambda: parse_model(CANONICAL),
     "d0d3c90160fcf3076b441774d2ccba49"
     "0afcffb907871860d9aeb9c2296353af"),
    (lambda: parse_model(shared_relations_text()),
     "eba86f9f7f736f9ab9088cf46ab6f64a"
     "b9a332dd349466a76d8ff2bb11b7c4ba"),
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
    # a named relation is one entry, and its object two lines more
    for doc in (parse_model(CANONICAL), saw_document(WalkSpec(5)),
                coloring_document(ColoringSpec(erdos_graph(), 3)),
                parse_model(shared_relations_text()),
                parse_model('{"variables": [], "constraints": []}')):
        text = serialize_model(doc)
        assert parse_model(text) == doc
        assert serialize_model(parse_model(text)) == text
        relations = json.loads(text).get("relations", {})
        entries = len(doc.variables) + len(relations) + len(doc.constraints)
        assert len(text.splitlines()) == entries + 4 + 2 * bool(relations)


def test_shared_tuple_sets_are_written_once():
    # named in order of first use; a set one constraint holds stays inline
    raw = json.loads(serialize_model(parse_model(shared_relations_text())))
    assert raw["relations"] == {"r0": [[1, 2], [2, 1]]}
    tuples = [c.get("tuples") for c in raw["constraints"]]
    assert tuples[3] == tuples[6] == tuples[7] == "r0"
    assert isinstance(tuples[5], list) and tuples[8] == [[1, 2]]
    assert "relations" not in json.loads(serialize_model(parse_model(
        CANONICAL)))


@pytest.mark.parametrize("length", range(1, 9))
def test_walk_documents_roundtrip(length):
    doc = saw_document(WalkSpec(length))
    text = serialize_model(doc)
    assert parse_model(text) == doc
    assert len(json.loads(text).get("relations", {})) == (length > 2)


def test_equal_relations_held_apart_are_written_once():
    # every table over a copy of the step relation of its own, as the
    # bench's recoded walks hold them
    doc = saw_document(WalkSpec(6))
    copies = ModelDocument(doc.variables, tuple(
        Table(c.vars, list(c.tuples)) if isinstance(c, Table) else c
        for c in doc.constraints))
    assert copies.constraints[0].tuples is not copies.constraints[1].tuples
    text = serialize_model(copies)
    assert text == serialize_model(doc)
    parsed = parse_model(text)
    assert parsed == copies
    assert len({id(c.tuples) for c in parsed.constraints
                if isinstance(c, Table)}) == 1


def test_inline_and_named_equal_rows_are_one_relation():
    doc = parse_model(json.dumps({
        "variables": [{"name": "x", "domain": [1, 2]},
                      {"name": "y", "domain": [1, 2]}],
        "relations": {"swap": [[1, 2], [2, 1]], "unused": [[7]]},
        "constraints": [
            {"type": "table", "vars": ["x", "y"], "tuples": "swap"},
            {"type": "table", "vars": ["y", "x"], "tuples": [[2, 1], [1, 2]]},
            {"type": "slide", "vars": ["x", "y"], "width": 2,
             "tuples": "swap"}]}))
    named, inline, slid = doc.constraints
    assert inline.tuples is named.tuples and slid.tuples is named.tuples
    assert inline._adjacency is named._adjacency
    assert dds_count(doc.build_state()).count == 2
    # the slide scanned the shared tuples and cached nothing beside the
    # tables' adjacency on them
    assert set(vars(named.tuples)) == {"_adjacency"}


def test_an_empty_named_relation_has_any_arity():
    doc = parse_model(json.dumps(two_var_doc(
        constraint={"type": "table", "vars": ["x", "y"], "tuples": "none"},
        relations={"none": []})))
    assert dfs_count(doc.build_state()).count == 0


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


def named_canonical_text():
    """The canonical document with its table and slide rows in
    ``relations``, referenced by name, and a second table over the first."""
    raw = json.loads(CANONICAL)
    table, slide = raw["constraints"][3], raw["constraints"][5]
    raw["relations"] = {"pairs": table["tuples"], "steps": slide["tuples"]}
    table["tuples"], slide["tuples"] = "pairs", "steps"
    raw["constraints"].append({**table, "vars": ["D", "C"]})
    return json.dumps(raw)


# values that fit where they land as often as not
JSON_VALUES = st.integers(0, 5) | st.sampled_from("ABCD") | st.recursive(
    st.sampled_from([None, True, False, -3, 1.5, 10 ** 20, "", "E", "neq",
                     "range", "eq", "pairs", "steps"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "domain", "vars", "type", "range"]), inner,
        max_size=3),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    """The canonical document, with its rows inline or in named relations,
    after one to three mutations below its root, each replacing a value,
    dropping a key or list item, or nesting a value in a list or an object;
    the mutations stop once every top-level key is dropped, since nothing is
    left below the root."""
    doc = json.loads(draw(st.sampled_from([CANONICAL,
                                           named_canonical_text()])))
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


def two_var_doc(domain=(0, 1), constraint=None, relations=None):
    doc = {"variables": [{"name": "x", "domain": domain},
                         {"name": "y", "domain": [0, 1]}],
           "constraints": [constraint] if constraint else []}
    if relations is not None:
        doc["relations"] = relations
    return doc


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
    # the value check reads type(v) is int, which refuses bools and floats:
    # json.loads yields int, bool and float numbers, never another int
    # subclass
    doc = two_var_doc(constraint={"type": "table", "vars": ["x", "y"],
                                  "tuples": tuples})
    with pytest.raises(ModelError, match=re.escape(
            "constraints[0]: " + message)):
        parse_model(json.dumps(doc))


TABLE_XY = {"type": "table", "vars": ["x", "y"], "tuples": "r"}


@pytest.mark.parametrize("doc, message", [
    (two_var_doc(relations=[[0, 1]]), "'relations' must be an object"),
    (two_var_doc(relations={"r": 5}),
     "relations['r']: a relation must be a list of rows"),
    (two_var_doc(relations={"r": [5, [0, 1]]}),
     "relations['r']: a relation must be a list of rows"),
    # unreferenced relations are checked too, the first bad row first
    (two_var_doc(relations={"r": [[0, 1], [0, 1, 1], [1.5, 0]]}),
     "relations['r']: tuple arity mismatch (expected 2)"),
    (two_var_doc(relations={"r": [[0, 1], [1.5, 0], [0, 1, 1]]}),
     "relations['r']: tuple values must be integers"),
    (two_var_doc(relations={"r": [[0, 1], [0, True]]}),
     "relations['r']: tuple values must be integers"),
    (two_var_doc(relations={"r": [[0, 1]], "s": [[0], 1]}),
     "relations['s']: tuple arity mismatch (expected 1)"),
    (two_var_doc(constraint=TABLE_XY), "constraints[0]: unknown relation 'r'"),
    (two_var_doc(constraint={**TABLE_XY, "tuples": "s"},
                 relations={"r": [[0, 1]]}),
     "constraints[0]: unknown relation 's'"),
    (two_var_doc(constraint=TABLE_XY, relations={"r": [[0, 1, 1]]}),
     "constraints[0]: relation 'r' has arity 3, not 2"),
    (two_var_doc(constraint={"type": "slide", "vars": ["x", "y"],
                             "width": 1, "tuples": "r"},
                 relations={"r": [[0, 1]]}),
     "constraints[0]: relation 'r' has arity 2, not 1"),
    (two_var_doc(constraint={**TABLE_XY, "tuples": 5}),
     "constraints[0]: 'tuples' must be a list of rows or a relation name"),
    (two_var_doc(constraint={**TABLE_XY, "tuples": {"r": [[0, 1]]}},
                 relations={"r": [[0, 1]]}),
     "constraints[0]: 'tuples' must be a list of rows or a relation name"),
])
def test_named_relation_errors(doc, message):
    with pytest.raises(ModelError, match=re.escape(message)):
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
