"""Probabilistic-circuit compilation toolkit.

Builds, analyzes, and rewrites probabilistic circuits (weighted
sum/product DAGs over variable indicators): validity checks, exact
sparse-polynomial oracles, depth reduction, DAG-to-tree expansion, and
explicit hard instances, behind both a library API and the ``pctree``
command-line tool.
"""

from . import errors
from .circuit import (
    Circuit,
    Leaf,
    Node,
    Product,
    Stats,
    Sum,
    ValidityReport,
    boolean_assignment,
    build_circuit,
    marginal_assignment,
)
from .instances import (
    GenParams,
    build_hard_instance,
    random_valid_pc,
    strip_negations,
)
from .poly import (
    SparsePolynomial,
    extract_polynomial,
    node_polynomials,
    pairing_polynomial,
    poly_equal,
    random_equivalence,
)
from .serialize import (
    circuit_from_document,
    circuit_to_document,
    export_dot,
    read_circuit,
    write_circuit,
)
from .transforms import (
    FrontierSet,
    PipelineReport,
    StageMetrics,
    binarize,
    degree_frontier,
    duplicate_to_tree,
    normalize,
    partial_derivative,
    reduce_depth,
    treeify,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Leaf", "Sum", "Product", "Node", "Stats", "ValidityReport",
    "build_circuit", "boolean_assignment", "marginal_assignment",
    "SparsePolynomial", "extract_polynomial", "node_polynomials",
    "pairing_polynomial", "poly_equal", "random_equivalence",
    "GenParams", "build_hard_instance", "random_valid_pc", "strip_negations",
    "FrontierSet", "PipelineReport", "StageMetrics",
    "binarize", "normalize", "partial_derivative", "degree_frontier",
    "reduce_depth", "duplicate_to_tree", "treeify",
    "circuit_to_document", "circuit_from_document", "read_circuit",
    "write_circuit", "export_dot", "errors",
]
