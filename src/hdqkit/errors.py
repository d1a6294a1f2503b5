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
raises InvalidArgument. Every numeric array and real or complex scalar goes
through `array`: anything but a finite int, float or complex value of the
wanted kind and exact shape, a bool included, raises SpecMismatch. The site
keeps any bound of its own.
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


# numpy dtype kinds that convert to each wanted type without losing a part
_KINDS = {int: "iu", float: "iuf", complex: "iufc"}


def _holds_bool(value: list | tuple) -> bool:
    """True when a list or tuple holds a bool at any depth."""
    return any(isinstance(v, (bool, np.bool_)) or isinstance(v, (list, tuple)) and _holds_bool(v)
               for v in value)


def _finite(out: np.ndarray) -> bool:
    """True when every entry of a numeric array is finite.

    A float or complex array is checked by one BLAS dot of its float view
    with itself, a sum of squares that is finite only if every entry is: only
    a NaN, an inf or entries above about 1e154, where the sum overflows, take
    the entrywise scan. Integers are always finite, and a scalar takes one
    np.isfinite.
    """
    if out.ndim == 0:
        return bool(np.isfinite(out))
    if out.dtype.kind in "iu":
        return True
    flat = out.ravel(order="K")
    if flat.dtype.kind == "c":
        flat = flat.view(flat.real.dtype)
    with np.errstate(over="ignore"):
        square = flat @ flat
    return bool(np.isfinite(square)) or np.count_nonzero(np.isfinite(out)) == out.size


def array(value: Any, shape: tuple[int | None, ...], what: str, dtype: type) -> np.ndarray:
    """`value` as a finite array of `dtype` (int, float or complex) and `shape`.

    SpecMismatch unless the value is numeric of that kind (an int where a
    real is wanted, a real where a complex is, but no bool anywhere, no real
    where an int is wanted and no complex where a real is), has exactly
    `shape` (a None entry matches any length) and has only finite entries.
    A value that already has the dtype is returned as it is, strided or not.
    """
    try:
        out = np.asarray(value)
    except ValueError:  # ragged nesting
        out = np.asarray(None)
    if (out.dtype.kind in _KINDS[dtype]
            and (out.shape == shape or len(out.shape) == len(shape)
                 and all(want in (None, n) for want, n in zip(shape, out.shape)))
            and not (isinstance(value, (list, tuple)) and _holds_bool(value))):
        if _finite(out):
            return out.astype(dtype, copy=False)
    raise SpecMismatch(f"{what} must be a finite {dtype.__name__} array of shape {shape}, "
                       f"got {out.dtype} of shape {out.shape}: {value!r:.40}")
