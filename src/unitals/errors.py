"""Exception hierarchy shared by all modules.

Every domain error derives from GeometryError so callers (notably the CLI)
can distinguish library failures from programming errors.
"""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


# --- finite field arithmetic ---

class TooLarge(GeometryError):
    """The requested object exceeds the supported size bound."""


class NotPrimePower(GeometryError):
    """The given order is not a prime power."""


# --- incidence structures ---

class MalformedStructure(GeometryError):
    """Point index out of range, block of size < 2, or duplicate block."""


class FormatError(GeometryError):
    """A serialized file violates its format contract."""


class InternalCheckFailed(GeometryError):
    """A mandatory self-check of a constructed object failed."""


class InvalidPointSet(GeometryError):
    """A point set argument is not a subset of the structure's points."""


# --- graphs ---

class NonNegativeSmallestEigenvalue(GeometryError):
    """The ratio bound needs a negative smallest eigenvalue."""


class NotAClique(GeometryError):
    """The given block set contains a disjoint pair."""


# --- linear space classification ---

class LemmaViolation(GeometryError):
    """An internal consistency fact failed; the input is corrupted."""


class QTooSmall(GeometryError):
    """The classification requires q >= 3."""


class AssumptionViolation(GeometryError):
    """The input does not satisfy the standing assumptions."""


class ConstructionFailed(GeometryError):
    """The completion construction met a contradiction; bad input."""


# --- reconstruction ---

class NotAUnitalGraph(GeometryError):
    """The graph is not the block-intersection graph of a unital."""


class NotAGraphIsomorphism(GeometryError):
    """The given vertex map does not preserve adjacency."""


class PencilImageNotAPencil(GeometryError):
    """A pencil image is not a pencil; the inputs are not valid unitals."""
