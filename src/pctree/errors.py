"""Exception types shared across the package.

Every error raised by the library derives from :class:`PCError`, so a
caller (including the CLI) can catch one type and turn it into a
diagnostic.
"""


class PCError(Exception):
    """Base class for all toolkit errors."""


# -- circuit construction ---------------------------------------------------

class CycleDetected(PCError):
    """The child relation contains a directed cycle (self-loops included)."""


class MultipleRoots(PCError):
    """The node table is not rooted at exactly the designated node."""


class DanglingChild(PCError):
    """A child id or variable index points outside the table."""


class BadWeights(PCError):
    """Sum weights are malformed: wrong arity, all zero, negative or non-finite."""


class EmptyProductNode(PCError):
    """A product node has, or would be left with, no children."""


class AssignmentLengthMismatch(PCError):
    """An assignment does not provide one value per indicator slot."""


# -- polynomial oracle ------------------------------------------------------

class VarCountMismatch(PCError):
    """Two polynomials or circuits disagree on the number of variables."""


class TermBudgetExceeded(PCError):
    """Exact expansion would exceed the configured monomial budget."""


class NotMultilinear(PCError):
    """A product would square an indicator slot; only multilinear
    polynomials are representable."""


class KTooLarge(PCError):
    """The requested hard-instance index is beyond the supported range."""


# -- transforms -------------------------------------------------------------

class InvalidInput(PCError):
    """A transform received a circuit that fails its validity precondition."""


class ZeroWeightSum(PCError):
    """A sum node has no positive outgoing weight to renormalize."""


class NotBinary(PCError):
    """A pass requires every node to have at most two children."""


class NotHomogeneous(PCError):
    """Depth reduction requires a decomposable, smooth, homogeneous input."""


class MissingGate(PCError):
    """Internal consistency failure: a referenced gate was never built."""


class SizeBudgetExceeded(PCError):
    """Tree expansion would exceed the configured node budget."""


# -- serialization ----------------------------------------------------------

class ParseError(PCError):
    """The input file is not valid JSON."""


class SchemaError(PCError):
    """The document does not match the circuit schema."""
