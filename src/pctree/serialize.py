"""Circuit interchange: a JSON document format and a DOT export.

Document layout (version 1)::

    {"version": 1, "num_vars": 4, "root": 10,
     "nodes": [{"id": 0, "kind": "leaf", "var": 0, "negated": false},
               {"id": 1, "kind": "sum", "children": [0], "weights": [1.0]},
               {"id": 2, "kind": "product", "children": [0, 1]}]}

Ids must be dense (0..len-1, any order in the list); weights are written
with shortest round-trip precision so write/read is lossless.  Reading
always goes through :func:`pctree.circuit.build_circuit`, so structural
errors surface with the same exceptions as programmatic construction.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .circuit import Circuit, Leaf, Node, Product, Sum, build_circuit
from .errors import ParseError, SchemaError

_FIELDS = {
    "leaf": ({"id", "kind", "var"}, {"negated"}),
    "sum": ({"id", "kind", "children", "weights"}, set()),
    "product": ({"id", "kind", "children"}, set()),
}


def circuit_to_document(c: Circuit) -> dict[str, Any]:
    nodes = []
    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf):
            nodes.append({"id": v, "kind": "leaf", "var": node.var, "negated": node.negated})
        elif isinstance(node, Sum):
            nodes.append({"id": v, "kind": "sum", "children": list(node.children),
                          "weights": list(node.weights)})
        else:
            nodes.append({"id": v, "kind": "product", "children": list(node.children)})
    return {"version": 1, "num_vars": c.num_vars, "root": c.root, "nodes": nodes}


def document_to_text(doc: dict[str, Any]) -> str:
    """Render with one node record per line, for diffable fixtures."""
    head = (f'{{\n  "version": {doc["version"]},\n  "num_vars": {doc["num_vars"]},\n'
            f'  "root": {doc["root"]},\n  "nodes": [\n')
    body = ",\n".join("    " + json.dumps(rec, separators=(", ", ": "))
                      for rec in doc["nodes"])
    return head + body + "\n  ]\n}\n"


def _expect_int(rec: dict, key: str, what: str) -> int:
    value = rec.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what}: field '{key}' must be an integer")
    return value


def circuit_from_document(doc: Any) -> Circuit:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    expected = {"version", "num_vars", "root", "nodes"}
    if set(doc) != expected:
        raise SchemaError(f"document keys must be exactly {sorted(expected)}")
    if _expect_int(doc, "version", "document") != 1:
        raise SchemaError(f"unsupported document version {doc['version']!r}")
    num_vars = _expect_int(doc, "num_vars", "document")
    root = _expect_int(doc, "root", "document")
    records = doc["nodes"]
    if not isinstance(records, list) or not records:
        raise SchemaError("'nodes' must be a non-empty list")

    table: dict[int, Node] = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise SchemaError("each node must be a JSON object")
        kind = rec.get("kind")
        if not isinstance(kind, str) or kind not in _FIELDS:
            raise SchemaError(f"unknown node kind {kind!r}")
        required, optional = _FIELDS[kind]
        keys = set(rec)
        if not required <= keys or not keys <= required | optional:
            raise SchemaError(f"node fields {sorted(keys)} do not match kind '{kind}'")
        nid = _expect_int(rec, "id", f"{kind} node")
        if nid in table:
            raise SchemaError(f"duplicate node id {nid}")
        if kind == "leaf":
            negated = rec.get("negated", False)
            if not isinstance(negated, bool):
                raise SchemaError(f"leaf {nid}: 'negated' must be a boolean")
            table[nid] = Leaf(_expect_int(rec, "var", f"leaf {nid}"), negated)
            continue
        children = rec["children"]
        if (not isinstance(children, list)
                or any(not isinstance(ch, int) or isinstance(ch, bool) for ch in children)):
            raise SchemaError(f"node {nid}: 'children' must be a list of integers")
        if kind == "sum":
            weights = rec["weights"]
            if (not isinstance(weights, list)
                    or any(not isinstance(w, (int, float)) or isinstance(w, bool) for w in weights)):
                raise SchemaError(f"sum {nid}: 'weights' must be a list of numbers")
            try:  # Sum converts every weight with float()
                table[nid] = Sum(tuple(children), weights)
            except OverflowError:  # an integer beyond the float range
                raise SchemaError(f"sum {nid}: a weight is too large for a float") from None
        else:
            table[nid] = Product(tuple(children))
    if set(table) != set(range(len(records))):
        raise SchemaError("node ids must be dense (0..len-1)")
    return build_circuit(num_vars, [table[i] for i in range(len(records))], root)


def write_circuit(c: Circuit, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_to_text(circuit_to_document(c)))


def read_circuit(path: str | os.PathLike) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    # a JSONDecodeError is a ValueError, as is a number past the int digit
    # limit; a RecursionError means nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return circuit_from_document(doc)


def export_dot(c: Circuit) -> str:
    """Graph description: sums as '+' ellipses, products as '×' boxes,
    leaves as plain x_i / ~x_i labels, and edge labels only for weights
    different from one."""
    lines = ["digraph circuit {", "  rankdir=TB;"]
    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf):
            name = f"~x_{node.var}" if node.negated else f"x_{node.var}"
            lines.append(f'  n{v} [label="{name}" shape=plaintext];')
        elif isinstance(node, Sum):
            lines.append(f'  n{v} [label="+" shape=ellipse];')
        else:
            lines.append(f'  n{v} [label="×" shape=box];')
    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf):
            continue
        if isinstance(node, Sum):
            for ch, w in zip(node.children, node.weights):
                if w == 1.0:
                    lines.append(f"  n{v} -> n{ch};")
                else:
                    lines.append(f'  n{v} -> n{ch} [label="{w:.12g}"];')
        else:
            for ch in node.children:
                lines.append(f"  n{v} -> n{ch};")
    lines.append("}")
    return "\n".join(lines) + "\n"
