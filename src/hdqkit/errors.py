"""Exception types shared across the kit, its one memory gate and its argument rule.

Every error raised on purpose by the library derives from HdqError so CLI
code can map failures to exit status 2 without enumerating modules. Every
dense allocation whose size follows from the caller's input is checked by
`gate` before it happens: one limit of MAX_ENTRIES array entries (1 GiB of
complex128) for the whole kit.

Arguments follow one rule. Every count, size, order, rank, index and
exponent goes through `whole`: anything but an int or numpy integer at
least as large as its least value, a bool included, raises SpecMismatch.
Every option value goes through `choice`: a value outside its options
raises InvalidArgument. The site keeps any upper bound of its own.
"""

from collections.abc import Hashable
from typing import Any

import numpy as np

MAX_ENTRIES = 1 << 26


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


class QuadratureError(HdqError):
    """A quadrature failed its convergence/tail bound."""


class ResourceError(HdqError):
    """A requested computation exceeds the desk-scale memory/time gates."""


def gate(entries: int, what: str) -> None:
    """Raise ResourceError when `what` needs more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise ResourceError(f"{what} needs {entries} entries, above the gate {MAX_ENTRIES}")


class InvalidArgument(HdqError, ValueError):
    """An argument takes a value outside its documented choices."""


class ParseError(HdqError):
    """A file or config payload does not match the documented format."""


def whole(value: Any, what: str, least: int) -> int:
    """`value` as an int; SpecMismatch unless it is a whole number >= least.

    A bool is refused although Python counts True as an int; np.bool_ is no
    integer type at all.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise SpecMismatch(f"{what} must be a whole number >= {least}, got {value!r}")
    return int(value)


def choice(value: Any, options: tuple[Any, ...], what: str) -> None:
    """Raise InvalidArgument unless `value` is one of `options`; a bool never is."""
    if isinstance(value, bool) or not isinstance(value, Hashable) or value not in options:
        raise InvalidArgument(f"{what} must be one of {options}, got {value!r}")
