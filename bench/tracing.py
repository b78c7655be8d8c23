"""Spans around calls into pctree's layers, recorded from outside the package.

While :meth:`Tracer.instrument` is active, the public functions and methods
listed in :data:`HOOKS` are replaced by wrappers that open a span on entry
and close it on exit, so calls made by one layer into another (a
``SparsePolynomial.mul`` inside ``reduce_depth``, a ``Circuit`` built inside
``read_circuit``) nest under their caller.  The package itself is not
modified; the originals are restored when the context exits.

Only spans that sit inside a ``bench.call`` span count toward the per-layer
numbers: ``workloads.Timer`` opens one around each call the run times, so
the harness's own calls into the package (input copies, output checks,
stage sizes) are recorded but not charged to a layer.  The exception is the
``circuit.analyses`` span, which times the cached analyses on a fresh copy
of the binarized circuit and is reported as a number of its own.

Span times are process CPU nanoseconds (``time.process_time_ns``), the same
clock the end-to-end metrics use.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from pctree import circuit, instances, poly, serialize, transforms


@dataclass
class Span:
    id: int
    parent: int  # -1 at the top of the stack
    op: int  # operation id: one input in one phase of the run
    stage: str  # harness stage open at the time: setup, compile, verify, load, query
    name: str  # "<layer>.<function>"
    start: int
    end: int = 0
    size: int = -1  # monomials or bytes, where the call reports one

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _terms(args, result) -> int:
    return len(result.terms)


def _file_size(args, result) -> int:
    return os.path.getsize(args[1] if len(args) > 1 else args[0])


#: (owner, attribute, span name, size of the call or None)
HOOKS = (
    (instances, "random_valid_pc", "instances.random_valid_pc", None),
    (instances, "build_hard_instance", "instances.build_hard_instance", None),
    (circuit.Circuit, "__init__", "circuit.build", None),
    (circuit.Circuit, "evaluate", "circuit.evaluate", None),
    (circuit.Circuit, "validity", "circuit.validity", None),
    (circuit.Circuit, "stats", "circuit.stats", None),
    (poly.SparsePolynomial, "mul", "poly.mul", _terms),
    (poly, "extract_polynomial", "poly.extract", _terms),
    (poly, "poly_equal", "poly.equal", None),
    (poly, "random_equivalence", "poly.random_equivalence", None),
    (transforms, "binarize", "transforms.binarize", None),
    (transforms, "reduce_depth", "transforms.reduce_depth", None),
    (transforms, "duplicate_to_tree", "transforms.duplicate", None),
    (transforms, "normalize", "transforms.normalize", None),
    (transforms, "treeify", "transforms.treeify", None),
    (serialize, "write_circuit", "serialize.write", _file_size),
    (serialize, "read_circuit", "serialize.read", _file_size),
)


class Tracer:
    """Keeps every span of a run in memory; :meth:`write` saves them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = 0
        self.ops: list[str] = [""]
        self.stage = "setup"
        self.active = False  # whether instrument() is in effect

    def new_op(self, label: str) -> None:
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, self.op, self.stage, name, time.process_time_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.process_time_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, fn, name: str, size):
        tracer = self

        def traced(*args, **kwargs):
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if size is not None:
                s.size = size(args, result)
            return result

        return traced

    @contextmanager
    def instrument(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in HOOKS]
        try:
            for owner, attr, name, size in HOOKS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name, size))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\top_label\tstage\tname\tstart_ns\tend_ns\tsize\n")
            for s in self.spans:
                fh.write(f"{s.id}\t{s.parent}\t{s.op}\t{self.ops[s.op]}\t{s.stage}\t{s.name}"
                         f"\t{s.start}\t{s.end}\t{s.size}\n")


def layer_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for one slice of a run's spans.

    ``all_spans`` is the full list, indexed by span id.  Spans outside a
    ``bench.call`` span are skipped (module docstring); a counted child's
    time is charged to its counted parent when computing self time.
    """
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    counted: set[int] = set()
    for s in spans:  # a parent opens before its children
        if s.name == "circuit.analyses":
            add("circuit.analyses_s", s.seconds)
        elif s.parent >= 0 and (s.parent in counted or all_spans[s.parent].name == "bench.call"):
            counted.add(s.id)
    spans = [s for s in spans if s.id in counted]
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent in counted:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
    for layer in ("instances", "circuit", "poly", "transforms", "serialize"):
        out[f"self.{layer}_s"] = 0.0
    for s in spans:
        add(f"self.{s.layer}_s", s.seconds - child_s.get(s.id, 0.0))
        name = s.name
        if name.startswith("instances."):
            add("instances.generate_s", s.seconds)
        elif name in ("transforms.binarize", "transforms.reduce_depth",
                      "transforms.duplicate", "transforms.normalize"):
            add(f"{name}_s", s.seconds)
        elif name == "poly.mul" and s.stage in ("compile", "verify"):
            add(f"poly.mul_calls.{s.stage}", 1)
            add(f"poly.mul_s.{s.stage}", s.seconds)
            add(f"poly.mul_terms.{s.stage}", s.size)
        elif name == "poly.extract":
            add("poly.extract_s", s.seconds)
            add("poly.extract_terms", s.size)
        elif name == "circuit.evaluate":
            add("circuit.evaluate_calls", 1)
            add("circuit.evaluate_s", s.seconds)
            if s.parent >= 0 and all_spans[s.parent].name == "poly.random_equivalence":
                add("poly.equiv_trials", 0.5)  # one trial evaluates both circuits
        elif name == "circuit.build":
            add("circuit.build_s", s.seconds)
        elif name == "serialize.read":
            add("serialize.read_s", s.seconds)
            add("serialize.bytes", s.size)
        elif name == "serialize.write":
            add("serialize.write_s", s.seconds)
    return out
