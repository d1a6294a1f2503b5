"""Exception types shared across the kit.

Every error raised on purpose by the library derives from HdqError so CLI
code can map failures to exit status 2 without enumerating modules.
"""


class HdqError(Exception):
    """Base class for all errors raised deliberately by hdqkit."""


class InvalidGram(HdqError):
    """Gram matrix is not Hermitian positive definite."""


class StructureError(HdqError):
    """Algebraic structure data is inconsistent (axioms, trace, products)."""


class NotUnitary(HdqError):
    """An operator or multiplier pair required to be unitary is not."""


class NotIsomorphism(HdqError):
    """A map fails the unitary *-isomorphism requirements."""


class SpecMismatch(HdqError):
    """Two objects live on incompatible grids/dimensions."""


class TruncationError(HdqError):
    """The grid does not resolve the requested matrix truncation."""


class NotSquareIntegrable(HdqError):
    """A symbol with a unit component cannot be synthesized on a grid."""


class QuadratureError(HdqError):
    """A quadrature failed its convergence/tail bound."""


class ResourceError(HdqError):
    """A requested computation exceeds the desk-scale memory/time gates."""


class InvalidArgument(HdqError, ValueError):
    """An argument takes a value outside its documented choices."""


class ParseError(HdqError):
    """A file or config payload does not match the documented format."""
