"""Circuit interchange: a JSON document format and a DOT export.

Document layout (version 1)::

    {"version": 1, "num_vars": 4, "root": 10,
     "nodes": [{"id": 0, "kind": "leaf", "var": 0, "negated": false},
               {"id": 1, "kind": "sum", "children": [0], "weights": [1.0]},
               {"id": 2, "kind": "product", "children": [0, 1]}]}

Ids must be dense (0..len-1, any order in the list); weights are written
with shortest round-trip precision so write/read is lossless.  The reader
checks each record in one pass and gives every leaf record with the same
``(var, negated)`` one shared :class:`~pctree.circuit.Leaf`; it always
ends in :func:`pctree.circuit.build_circuit`, so structural errors surface
with the same exceptions as programmatic construction.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

from .circuit import Circuit, Leaf, Node, Product, Sum, build_circuit
from .errors import ParseError, SchemaError

_LEAF = frozenset({"id", "kind", "var"})
_FIELDS = {"leaf": (_LEAF | {"negated"}, _LEAF),  # per kind, the field sets a record may have
           "sum": (frozenset({"id", "kind", "children", "weights"}),) * 2,
           "product": (frozenset({"id", "kind", "children"}),) * 2}
# renders as json.dumps(..., separators=(", ", ": ")), NaN and infinities too
_encode = json.JSONEncoder(separators=(", ", ": ")).encode


def _list_text(values: tuple) -> str:
    """``values`` as :data:`_encode` renders them.  A list of plain ints and
    finite plain floats is their reprs, as the encoder writes them, without
    its per-call set-up; NaN, infinities, bools and subclasses go through
    the encoder."""
    for x in values:
        kind = type(x)
        if kind is not int and (kind is not float or not math.isfinite(x)):
            return _encode(values)
    return "[" + ", ".join(map(repr, values)) + "]"


def _expect_int(rec: dict, key: str, what: str) -> int:
    value = rec.get(key)
    if type(value) is not int:
        raise SchemaError(f"{what}: field '{key}' must be an integer")
    return value


def _list_of(values: Any, kind: type, other: type | None = None) -> bool:
    """Whether ``values`` is a list of items whose type is ``kind`` or ``other``."""
    if not isinstance(values, list):
        return False
    for x in values:
        if type(x) is not kind and type(x) is not other:
            return False
    return True


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

    # ids 0..n-1 in order, None until read; any other id adds a key
    table: dict[int, Node | None] = dict.fromkeys(range(len(records)))
    leaves: dict[int, Leaf] = {}  # by slot: the one Leaf of each (var, negated)
    for rec in records:
        if not isinstance(rec, dict):
            raise SchemaError("each node must be a JSON object")
        kind = rec.get("kind")
        fields = _FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise SchemaError(f"unknown node kind {kind!r}")
        keys = rec.keys()
        if keys != fields[0] and keys != fields[1]:
            raise SchemaError(f"node fields {sorted(keys)} do not match kind '{kind}'")
        nid = rec["id"] if type(rec["id"]) is int else _expect_int(rec, "id", f"{kind} node")
        if table.get(nid) is not None:
            raise SchemaError(f"duplicate node id {nid}")
        if kind == "leaf":
            negated = rec.get("negated", False)
            if type(negated) is not bool:
                raise SchemaError(f"leaf {nid}: 'negated' must be a boolean")
            var = rec["var"] if type(rec["var"]) is int else _expect_int(rec, "var", f"leaf {nid}")
            key = 2 * var + negated  # the slot, as Circuit reads it
            table[nid] = leaves.get(key) or leaves.setdefault(key, Leaf(var, negated))
            continue
        children = rec["children"]
        if not _list_of(children, int):
            raise SchemaError(f"node {nid}: 'children' must be a list of integers")
        if kind == "sum":
            weights = rec["weights"]
            if not _list_of(weights, float, int):
                raise SchemaError(f"sum {nid}: 'weights' must be a list of numbers")
            try:  # Sum converts every weight with float()
                table[nid] = Sum(tuple(children), weights)
            except OverflowError:  # an integer beyond the float range
                raise SchemaError(f"sum {nid}: a weight is too large for a float") from None
        else:
            table[nid] = Product(children)
    if len(table) != len(records):
        raise SchemaError("node ids must be dense (0..len-1)")
    return build_circuit(num_vars, table.values(), root)


def _document_text(c: Circuit) -> str:
    """The document of ``c`` with one node record per line, for diffable
    fixtures, each record as ``json.dumps`` renders it."""
    lines = []
    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf):
            lines.append(f'{{"id": {v}, "kind": "leaf", "var": {node.var}, '
                         f'"negated": {"true" if node.negated else "false"}}}')
        elif isinstance(node, Sum):
            lines.append(f'{{"id": {v}, "kind": "sum", "children": {_list_text(node.children)}, '
                         f'"weights": {_list_text(node.weights)}}}')
        else:
            lines.append(f'{{"id": {v}, "kind": "product", "children": {_list_text(node.children)}}}')
    return (f'{{\n  "version": 1,\n  "num_vars": {c.num_vars},\n  "root": {c.root},\n  "nodes": [\n    '
            + ",\n    ".join(lines) + "\n  ]\n}\n")


def circuit_to_document(c: Circuit) -> dict[str, Any]:
    return json.loads(_document_text(c))


def write_circuit(c: Circuit, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_document_text(c))


def read_circuit(path: str | os.PathLike) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    # a UnicodeDecodeError and a JSONDecodeError are ValueErrors, as is a
    # number past the int digit limit; a RecursionError means nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return circuit_from_document(doc)


def export_dot(c: Circuit) -> str:
    """Graph description: sums as '+' ellipses, products as '×' boxes,
    leaves as plain x_i / ~x_i labels, and edge labels only for weights
    different from one."""
    lines, edges = ["digraph circuit {", "  rankdir=TB;"], []
    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf):
            name = f"~x_{node.var}" if node.negated else f"x_{node.var}"
            lines.append(f'  n{v} [label="{name}" shape=plaintext];')
        elif isinstance(node, Sum):
            lines.append(f'  n{v} [label="+" shape=ellipse];')
        else:
            lines.append(f'  n{v} [label="×" shape=box];')
        weights = node.weights if isinstance(node, Sum) else [1.0] * len(node.children)
        edges += [f"  n{v} -> n{ch};" if w == 1.0 else f'  n{v} -> n{ch} [label="{w:.12g}"];'
                  for ch, w in zip(node.children, weights)]
    return "\n".join(lines + edges + ["}"]) + "\n"
