import json
import math
import sys

import pytest

import pctree as pt
from pctree import build_circuit
from pctree.circuit import Leaf, Product, Sum
from pctree.errors import BadWeights, CycleDetected, ParseError, SchemaError
from pctree.serialize import (
    _list_text,
    circuit_from_document,
    circuit_to_document,
    export_dot,
    read_circuit,
    write_circuit,
)

# the k=1 hard instance, written out by hand node for node
HARD_K1_DOCUMENT = """
{"version": 1, "num_vars": 4, "root": 10, "nodes": [
  {"id": 0, "kind": "leaf", "var": 0},
  {"id": 1, "kind": "leaf", "var": 1},
  {"id": 2, "kind": "leaf", "var": 2},
  {"id": 3, "kind": "leaf", "var": 3},
  {"id": 4, "kind": "product", "children": [0, 1, 5, 6]},
  {"id": 5, "kind": "leaf", "var": 2, "negated": true},
  {"id": 6, "kind": "leaf", "var": 3, "negated": true},
  {"id": 7, "kind": "product", "children": [2, 3, 8, 9]},
  {"id": 8, "kind": "leaf", "var": 0, "negated": true},
  {"id": 9, "kind": "leaf", "var": 1, "negated": true},
  {"id": 10, "kind": "sum", "children": [4, 7], "weights": [1, 1]}
]}
"""


def test_round_trip_through_files(tmp_path):
    path = tmp_path / "hard.json"
    c = pt.build_hard_instance(1)
    write_circuit(c, path)
    again = read_circuit(path)
    assert again.nodes == c.nodes
    assert (again.num_vars, again.root) == (c.num_vars, c.root)
    # canonical documents survive a second pass byte for byte
    text = path.read_text()
    write_circuit(circuit_from_document(json.loads(text)), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    assert circuit_to_document(c) == json.loads(text)


def _dumps_rendering(c) -> str:
    """The document text as json.dumps renders each record, one per line."""
    records = []
    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf):
            records.append({"id": v, "kind": "leaf", "var": node.var, "negated": node.negated})
        elif isinstance(node, Sum):
            records.append({"id": v, "kind": "sum", "children": list(node.children),
                            "weights": list(node.weights)})
        else:
            records.append({"id": v, "kind": "product", "children": list(node.children)})
    body = ",\n".join("    " + json.dumps(rec, separators=(", ", ": ")) for rec in records)
    return (f'{{\n  "version": 1,\n  "num_vars": {c.num_vars},\n  "root": {c.root},\n'
            f'  "nodes": [\n{body}\n  ]\n}}\n')


def test_writer_matches_json_dumps(tmp_path):
    # weights build_circuit would refuse, so the table goes through Circuit
    special = pt.Circuit(5, [Leaf(0), Leaf(1, True), Leaf(2), Leaf(3, True), Leaf(4),
                             Sum((0, 1, 2, 3, 4), (math.nan, math.inf, -0.0, 5e-324, 1e16)),
                             Sum((5,), (-math.inf,)),
                             Product((6, 0))], 7)
    dag = pt.random_valid_pc(pt.GenParams(n=6, seed=3, reuse_prob=0.5))
    for c in (special, dag, pt.build_hard_instance(2)):
        write_circuit(c, tmp_path / "c.json")
        assert (tmp_path / "c.json").read_text() == _dumps_rendering(c)
    assert '"weights": [NaN, Infinity, -0.0, 5e-324, 1e+16]' in _dumps_rendering(special)



def test_list_rendering_matches_json_dumps():
    """Plain ints and finite floats print by repr; everything else the
    JSON encoder renders goes through it, byte for byte as json.dumps."""
    class Id(int):
        def __repr__(self):
            return f"Id({int(self)})"

    class Weight(float):
        def __repr__(self):
            return "Weight"

    cases = [(), (0, 1), (3, 12345678901234567890), (0.5, -0.0, 5e-324, 1e16, 1.0 / 3.0),
             (1, 2.5), (math.nan,), (0.5, math.inf), (-math.inf, 1.0), (True, 1), (0, False),
             (Id(7), 2), (Weight(0.25), 0.5)]
    for values in cases:
        assert _list_text(values) == json.dumps(list(values), separators=(", ", ": "))

def test_read_tree_shares_one_leaf_per_slot(tmp_path):
    dag = pt.random_valid_pc(pt.GenParams(n=6, seed=1, reuse_prob=0.5))
    tree = pt.duplicate_to_tree(dag)
    path = tmp_path / "tree.json"
    write_circuit(tree, path)
    again = read_circuit(path)
    assert again.nodes == tree.nodes
    assert again.topo_order == tree.topo_order
    leaves = [node for node in again.nodes if isinstance(node, Leaf)]
    assert len(leaves) > 2 * tree.num_vars
    assert len({id(node) for node in leaves}) <= 2 * tree.num_vars


def test_weights_round_trip_exactly(tmp_path):
    c = build_circuit(1, [Leaf(0), Leaf(0, True),
                          Sum((0, 1), (1.0 / 3.0, 0.1 + 0.2))], 2)
    path = tmp_path / "w.json"
    write_circuit(c, path)
    assert read_circuit(path).nodes[2].weights == c.nodes[2].weights


def test_handwritten_hard_instance_document(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(HARD_K1_DOCUMENT)
    c = read_circuit(path)
    report = c.validity()
    assert report.decomposable and report.smooth
    assert pt.poly_equal(pt.extract_polynomial(c),
                         pt.extract_polynomial(pt.build_hard_instance(1)), 0.0)


def test_schema_errors():
    base = json.loads(HARD_K1_DOCUMENT)

    missing_weights = json.loads(HARD_K1_DOCUMENT)
    del missing_weights["nodes"][10]["weights"]
    with pytest.raises(SchemaError):
        circuit_from_document(missing_weights)

    extra_field = json.loads(HARD_K1_DOCUMENT)
    extra_field["nodes"][0]["weights"] = [1.0]
    with pytest.raises(SchemaError):
        circuit_from_document(extra_field)

    bad_kind = json.loads(HARD_K1_DOCUMENT)
    bad_kind["nodes"][0]["kind"] = "max"
    with pytest.raises(SchemaError):
        circuit_from_document(bad_kind)

    sparse_ids = json.loads(HARD_K1_DOCUMENT)
    sparse_ids["nodes"][0]["id"] = 99
    with pytest.raises(SchemaError):
        circuit_from_document(sparse_ids)

    dup_ids = json.loads(HARD_K1_DOCUMENT)
    dup_ids["nodes"][1]["id"] = 0
    with pytest.raises(SchemaError):
        circuit_from_document(dup_ids)

    wrong_version = json.loads(HARD_K1_DOCUMENT)
    wrong_version["version"] = 2
    with pytest.raises(SchemaError):
        circuit_from_document(wrong_version)
    for version in (True, 1.0):
        wrong_version["version"] = version
        with pytest.raises(SchemaError, match="version"):
            circuit_from_document(wrong_version)

    bad_type = json.loads(HARD_K1_DOCUMENT)
    bad_type["nodes"][0]["negated"] = 1
    with pytest.raises(SchemaError):
        circuit_from_document(bad_type)

    with pytest.raises(SchemaError):
        circuit_from_document([base])

    def broken(edit):
        doc = json.loads(HARD_K1_DOCUMENT)
        edit(doc)
        return doc

    cases = [
        (lambda d: d.update(num_vars="4"), "'num_vars' must be an integer"),
        (lambda d: d.update(comment="extra"), "document keys"),
        (lambda d: d.update(nodes=[]), "non-empty list"),
        (lambda d: d.update(nodes=[[0, "leaf", 0]] + d["nodes"][1:]), "JSON object"),
        (lambda d: d["nodes"][4].update(children=[0, 1, 5, 6.0]), "list of integers"),
        (lambda d: d["nodes"][10].update(weights=["1", "1"]), "list of numbers"),
        # json.loads reads 1 followed by 400 zeros as an int no float holds
        (lambda d: d["nodes"][10].update(weights=[10 ** 400, 1]), "sum 10: a weight is too large"),
        # a list is unhashable: the kind lookup must not raise TypeError
        (lambda d: d["nodes"][0].update(kind=["leaf"]), r"unknown node kind \['leaf'\]"),
    ]
    for edit, message in cases:
        with pytest.raises(SchemaError, match=message):
            circuit_from_document(broken(edit))


def _edit(path, value):
    """Set ``doc[path[0]][path[1]]...`` in a parsed HARD_K1_DOCUMENT."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


# faults in the middle of a valid document, each with its message
@pytest.mark.parametrize("edit, message", [
    (_edit(("nodes", 4, "children"), [0, True, 5, 6]), "node 4: 'children' must be a list of integers"),
    (_edit(("nodes", 10, "weights"), [1.0, False]), "sum 10: 'weights' must be a list of numbers"),
    (_edit(("nodes", 10, "weights"), [1.0, "1"]), "sum 10: 'weights' must be a list of numbers"),
    pytest.param(_edit(("nodes", 4, "children"), 5), "node 4: 'children' must be a list of integers",
                 id="children-not-a-list"),
    pytest.param(_edit(("nodes", 10, "weights"), "1.0"), "sum 10: 'weights' must be a list of numbers",
                 id="weights-not-a-list"),
    (_edit(("nodes", 5, "id"), 5.0), "leaf node: field 'id' must be an integer"),
    (_edit(("nodes", 5, "id"), True), "leaf node: field 'id' must be an integer"),
    (_edit(("nodes", 5, "id"), -1), r"node ids must be dense \(0..len-1\)"),
    # eleven records, ids 0-4 and 6-11
    (_edit(("nodes", 5, "id"), 11), r"node ids must be dense \(0..len-1\)"),
    (_edit(("nodes", 6, "id"), 2), "duplicate node id 2"),
    (_edit(("nodes", 5, "negated"), 1), "leaf 5: 'negated' must be a boolean"),
    (_edit(("nodes", 5, "negated"), None), "leaf 5: 'negated' must be a boolean"),
    (_edit(("nodes", 5, "var"), 2.0), "leaf 5: field 'var' must be an integer"),
    (_edit(("nodes", 3), [3, "leaf", 3]), "each node must be a JSON object"),
    (_edit(("nodes", 7, "kind"), "max"), "unknown node kind 'max'"),
])
def test_record_faults(edit, message):
    doc = json.loads(HARD_K1_DOCUMENT)
    edit(doc)
    with pytest.raises(SchemaError, match=f"^{message}$"):
        circuit_from_document(doc)


def test_int_subclasses_are_rejected_as_bools_are_and_int_weights_accepted():
    """An id, variable, size or child is a plain int: an int subclass is
    refused with a bool's message.  A weight may be an int or a float."""
    class Id(int):
        pass

    for edit, message in [
            (_edit(("nodes", 4, "children"), [Id(0), 1, 5, 6]), "node 4: 'children' must be a list of integers"),
            (_edit(("nodes", 4, "id"), Id(4)), "product node: field 'id' must be an integer"),
            (_edit(("nodes", 5, "var"), Id(2)), "leaf 5: field 'var' must be an integer"),
            (_edit(("num_vars",), Id(4)), "document: field 'num_vars' must be an integer")]:
        doc = json.loads(HARD_K1_DOCUMENT)
        edit(doc)
        with pytest.raises(SchemaError, match=f"^{message}$"):
            circuit_from_document(doc)
    doc = json.loads(HARD_K1_DOCUMENT)
    doc["nodes"][10]["weights"] = [1, 1.0]
    c = circuit_from_document(doc)
    assert c.nodes == circuit_from_document(json.loads(HARD_K1_DOCUMENT)).nodes
    assert c.nodes[10].weights == (1.0, 1.0)


def test_structural_errors_propagate():
    doc = {"version": 1, "num_vars": 1, "root": 0, "nodes": [
        {"id": 0, "kind": "sum", "children": [1], "weights": [1.0]},
        {"id": 1, "kind": "sum", "children": [0], "weights": [1.0]},
    ]}
    with pytest.raises(CycleDetected):
        circuit_from_document(doc)
    # json.loads accepts these non-standard tokens as float nan / inf
    for token in ("NaN", "Infinity", "-Infinity"):
        text = ('{"version": 1, "num_vars": 1, "root": 1, "nodes": ['
                '{"id": 0, "kind": "leaf", "var": 0}, '
                f'{{"id": 1, "kind": "sum", "children": [0], "weights": [{token}]}}]}}')
        with pytest.raises(BadWeights, match="sum 1"):
            circuit_from_document(json.loads(text))


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_circuit(path)
    # bytes that are not UTF-8, here a UTF-16 byte order mark
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError, match="broken.json"):
        read_circuit(path)
    # nesting deeper than the decoder's recursion limit
    path.write_text("[" * 100_000)
    with pytest.raises(ParseError, match="broken.json"):
        read_circuit(path)
    # a number past the interpreter's int digit limit, where it has one
    if hasattr(sys, "get_int_max_str_digits"):
        path.write_text('{"version": 1, "num_vars": 1, "root": 0, "nodes": ['
                        '{"id": 0, "kind": "leaf", "var": ' + "9" * 5000 + '}]}')
        with pytest.raises(ParseError, match="broken.json"):
            read_circuit(path)


def _dot_statements(text: str) -> tuple[list[str], list[str]]:
    lines = [ln.strip().rstrip(";") for ln in text.splitlines()]
    nodes = [ln for ln in lines if ln.startswith("n") and "->" not in ln]
    edges = [ln for ln in lines if "->" in ln]
    return nodes, edges


def test_export_dot_statement_counts():
    c = pt.random_valid_pc(pt.GenParams(n=4, seed=2, reuse_prob=0.4))
    text = export_dot(c)
    nodes, edges = _dot_statements(text)
    s = c.stats()
    assert len(nodes) == s.num_nodes
    assert len(edges) == s.num_edges
    assert text.startswith("digraph circuit {")
    assert text.rstrip().endswith("}")
    assert text.count("{") == text.count("}")
    for ln in text.splitlines()[1:-1]:
        assert ln.endswith(";")


def test_export_dot_labels():
    c = build_circuit(2, [Leaf(0), Leaf(1, True), Product((0, 1)),
                          Sum((2,), (0.5,))], 3)
    text = export_dot(c)
    assert 'n0 [label="x_0" shape=plaintext];' in text
    assert 'n1 [label="~x_1" shape=plaintext];' in text
    assert 'label="×"' in text
    assert 'n3 -> n2 [label="0.5"];' in text
    # unit weights carry no label
    unit = build_circuit(1, [Leaf(0), Sum((0,), (1.0,))], 1)
    assert "label=" not in export_dot(unit).splitlines()[-2]
