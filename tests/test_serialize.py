import json

import pytest

import pctree as pt
from pctree import build_circuit
from pctree.circuit import Leaf, Product, Sum
from pctree.errors import BadWeights, CycleDetected, ParseError, SchemaError
from pctree.serialize import (
    circuit_from_document,
    circuit_to_document,
    document_to_text,
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
    doc = circuit_to_document(circuit_from_document(json.loads(text)))
    assert document_to_text(doc) == text


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

    bad_type = json.loads(HARD_K1_DOCUMENT)
    bad_type["nodes"][0]["negated"] = 1
    with pytest.raises(SchemaError):
        circuit_from_document(bad_type)

    with pytest.raises(SchemaError):
        circuit_from_document([base])


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
