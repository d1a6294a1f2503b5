"""The kit's one argument rule, site by site.

Every count, size, order, rank, index and exponent is a whole number at
least as large as its least value, so True, 2.5 and a value below the least
raise SpecMismatch, and a numpy integer is accepted.  Every option value
outside its options raises InvalidArgument.  Every numeric array or real or
complex scalar is finite, of its kind and of its shape, so a string, None,
True, a wrong shape, a NaN and a complex value where a real is wanted raise
SpecMismatch, and a value of another numeric dtype is accepted.  No numpy
TypeError, ValueError or LinAlgError may escape in place of any of these,
and every deliberate raise in the package names an HdqError subclass.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import hdqkit
from hdqkit import clifford, errors, hilbert
from hdqkit.errors import (InvalidArgument, NotIsomorphism, ParseError, ResourceError,
                           SpecMismatch, StructureError)
from hdqkit.matrix_basis import (
    MatrixSymbol,
    basis_unit,
    gbv_norm,
    ladder_matrix,
    matrix_star_exp,
    synthesize_basis,
    transform,
)
from hdqkit.moyal import (
    GridFunction,
    GridSpec,
    from_modes,
    moyal_direct,
    moyal_fast,
    moyal_fast_many,
    split_pairs,
    translation_multiplier,
)
from hdqkit.symmetry import (
    bch_phase,
    coordinate_function,
    plane_wave_bch,
    schwartz_seminorm,
    sobolev_norm,
    spectral_derivative,
    star_exp_ode_check,
)

SPEC = GridSpec(M=8)
F = GridFunction(SPEC, np.ones((8, 8), dtype=complex))
SYM = basis_unit(3, 2.0, 1, 1)
M2 = hilbert.example_algebra("full_matrix", n=2)
Z2 = hilbert.example_algebra("cyclic_group", n=2)
PAIR = hilbert.solve_multipliers(M2)[0]

# (name, least, a valid value, call)
WHOLE = [
    ("GridSpec n", 1, 1, lambda v: GridSpec(n=v, M=8)),
    ("GridSpec M", 8, 16, lambda v: GridSpec(M=v)),
    ("moyal_direct point index", 0, 1, lambda v: moyal_direct(F, F, [(v, 0)])),
    ("spectral_derivative order", 0, 1, lambda v: spectral_derivative(F, [v, 0])),
    ("sobolev_norm k", 0, 1, lambda v: sobolev_norm(F, v)),
    ("schwartz_seminorm alpha", 0, 1, lambda v: schwartz_seminorm(F, [v, 0], [0, 0])),
    ("schwartz_seminorm beta", 0, 1, lambda v: schwartz_seminorm(F, [0, 0], [0, v])),
    ("coordinate_function j", 0, 1, lambda v: coordinate_function(SPEC, v)),
    ("synthesize_basis trunc", 1, 2, lambda v: synthesize_basis(GridSpec(M=64, L=8.0), v)),
    ("MatrixSymbol trunc", 1, 2, lambda v: MatrixSymbol(v, 2.0, np.zeros((2, 2)))),
    ("basis_unit trunc", 1, 2, lambda v: basis_unit(v, 2.0, 0, 0)),
    ("basis_unit m", 0, 1, lambda v: basis_unit(2, 2.0, v, 0)),
    ("basis_unit n", 0, 1, lambda v: basis_unit(2, 2.0, 0, v)),
    ("ladder_matrix trunc", 1, 3, lambda v: ladder_matrix(1, v)),
    ("gbv_norm k", 0, 1, lambda v: gbv_norm(SYM, v, 0)),
    ("gbv_norm l", 0, 1, lambda v: gbv_norm(SYM, 0, v)),
    ("full_matrix_algebra n", 1, 2, lambda v: hilbert.full_matrix_algebra(v)),
    ("example_algebra full_matrix n", 1, 2,
     lambda v: hilbert.example_algebra("full_matrix", n=v)),
    ("example_algebra cyclic_group n", 1, 3,
     lambda v: hilbert.example_algebra("cyclic_group", n=v)),
    ("commutant ambient_dim", 1, 2, lambda v: hilbert.commutant([], v)),
    ("from_matrices ambient_dim", 1, 2, lambda v: hilbert.OperatorSubspace.from_matrices([], v)),
    ("clifford unit m", 1, 1, lambda v: clifford.unit(v)),
    ("clifford blade m", 1, 1, lambda v: clifford.blade(v, 0)),
    ("CliffordElement m", 1, 1, lambda v: clifford.CliffordElement(v, np.ones(4))),
    ("as_hilbert_algebra m", 1, 1, lambda v: clifford.as_hilbert_algebra(v)),
    ("blade_product m", 1, 1, lambda v: clifford.blade_product(0, 0, v)),
    ("verify_unital_multipliers m", 1, 1, lambda v: clifford.verify_unital_multipliers(v)),
    ("clifford blade mask", 0, 3, lambda v: clifford.blade(1, v)),
    ("blade_product mask_i", 0, 3, lambda v: clifford.blade_product(v, 0, 1)),
    ("blade_product mask_j", 0, 3, lambda v: clifford.blade_product(0, v, 1)),
]

# (name, call) for every option parameter
CHOICE = [
    ("regular_representation side",
     lambda v: hilbert.regular_representation(M2, np.eye(4)[0], side=v)),
    ("translation_multiplier side", lambda v: translation_multiplier([0.0, 0.0], F, side=v)),
    ("combine mode", lambda v: hilbert.combine(M2, M2, mode=v)),
    ("example_algebra kind", lambda v: hilbert.example_algebra(v)),
    ("ladder_matrix which", lambda v: ladder_matrix(v, 3)),
]


@pytest.mark.parametrize("least, ok, call", [c[1:] for c in WHOLE], ids=[c[0] for c in WHOLE])
def test_whole_number_arguments_raise_spec_mismatch(least, ok, call):
    for bad in (True, 2.5, least - 1):
        with pytest.raises(SpecMismatch):
            call(bad)
    call(np.int64(ok))


@pytest.mark.parametrize("call", [c[1] for c in CHOICE], ids=[c[0] for c in CHOICE])
def test_bad_option_values_raise_invalid_argument(call):
    for bad in ("middle", 3, True, None, ["left"], np.array(["left", "right"])):
        with pytest.raises(InvalidArgument):
            call(bad)


# (name, kept dtype, a valid value of another numeric dtype, call)
ARRAY = [
    ("FiniteHilbertAlgebra structure", complex, M2.structure.real,
     lambda v: hilbert.FiniteHilbertAlgebra(v, M2.involution, M2.gram)),
    ("FiniteHilbertAlgebra involution", complex, M2.involution.real,
     lambda v: hilbert.FiniteHilbertAlgebra(M2.structure, v, M2.gram)),
    ("FiniteHilbertAlgebra gram", complex, np.eye(4, dtype=int),
     lambda v: hilbert.FiniteHilbertAlgebra(M2.structure, M2.involution, v)),
    ("commutant generator", complex, np.eye(2), lambda v: hilbert.commutant([v], 2)),
    ("from_matrices matrix", complex, np.eye(2),
     lambda v: hilbert.OperatorSubspace.from_matrices([v], 2)),
    ("regular_representation x", complex, np.eye(4)[0],
     lambda v: hilbert.regular_representation(M2, v, "left")),
    ("change_basis q", complex, np.eye(4), lambda v: hilbert.change_basis(M2, v)),
    ("extend_isomorphism phi", complex, np.eye(4),
     lambda v: hilbert.extend_isomorphism(v, M2, M2, PAIR)),
    ("group_algebra table", int, hilbert._cyclic_table(3).astype(np.int32),
     lambda v: hilbert.group_algebra(v)),
    ("GridSpec theta", float, 2, lambda v: GridSpec(M=8, theta=v)),
    ("GridSpec L component", float, 3, lambda v: GridSpec(M=8, L=(v, 4.0))),
    ("GridFunction samples", complex, np.ones((8, 8)), lambda v: GridFunction(SPEC, v)),
    ("from_modes coefficients", complex, np.ones((8, 8)), lambda v: from_modes(SPEC, v)),
    ("moyal_direct points", int, np.array([(1, 0)], dtype=np.int32),
     lambda v: moyal_direct(F, F, v)),
    ("translation_multiplier x0", float, np.zeros(2, dtype=int),
     lambda v: translation_multiplier(v, F, "left")),
    ("CliffordElement coeffs", complex, np.ones(4), lambda v: clifford.CliffordElement(1, v)),
    ("MatrixSymbol theta", float, 2, lambda v: MatrixSymbol(2, v, np.zeros((2, 2)))),
    ("MatrixSymbol coeffs", complex, np.zeros((2, 2)), lambda v: MatrixSymbol(2, 2.0, v)),
    ("matrix_star_exp s", complex, 1, lambda v: matrix_star_exp(SYM, v)),
    ("spectral_derivative orders", int, np.array([1, 0], dtype=np.int32),
     lambda v: spectral_derivative(F, v)),
    ("schwartz_seminorm alpha", int, np.array([1, 0], dtype=np.int32),
     lambda v: schwartz_seminorm(F, v, [0, 0])),
    ("schwartz_seminorm beta", int, np.array([0, 1], dtype=np.int32),
     lambda v: schwartz_seminorm(F, [0, 0], v)),
    ("bch_phase x0", float, [1, 0], lambda v: bch_phase(v, [0.0, 1.0], 2.0)),
    ("bch_phase x1", float, [0, 1], lambda v: bch_phase([1.0, 0.0], v, 2.0)),
    ("bch_phase theta", float, 2, lambda v: bch_phase([1.0, 0.0], [0.0, 1.0], v)),
    ("verify_caract pair left", complex, np.eye(4),
     lambda v: hilbert.verify_caract(M2, [hilbert.MultiplierPair(v, PAIR.right)])),
    ("verify_commutant_structure pair right", complex, np.eye(4),
     lambda v: hilbert.verify_commutant_structure(M2, [hilbert.MultiplierPair(PAIR.left, v)])),
    ("plane_wave_bch x0", float, [0, 0], lambda v: plane_wave_bch(v, [0.0, 0.0], SPEC)),
    ("plane_wave_bch x1", float, [0, 0], lambda v: plane_wave_bch([0.0, 0.0], v, SPEC)),
    ("star_exp_ode_check x", float, [0, 0], lambda v: star_exp_ode_check(v, SPEC)),
]

# malformed inputs that raised no SpecMismatch before the array rule (a numpy
# error, StructureError, or nothing at all); each must raise SpecMismatch
MALFORMED = [
    ("GridSpec theta string", lambda: GridSpec(M=8, theta="a")),
    ("GridSpec theta None", lambda: GridSpec(M=8, theta=None)),
    ("GridSpec theta True", lambda: GridSpec(M=8, theta=True)),
    ("GridSpec L string", lambda: GridSpec(M=8, L="a")),
    ("GridSpec L ragged", lambda: GridSpec(M=8, L=[1.0, [2.0, 3.0]])),
    ("translation_multiplier string", lambda: translation_multiplier("ab", F, "left")),
    ("MatrixSymbol theta string", lambda: MatrixSymbol(2, "x", np.zeros((2, 2)))),
    ("MatrixSymbol coeffs NaN", lambda: MatrixSymbol(1, 2.0, [[np.nan]])),
    ("moyal_direct bare index", lambda: moyal_direct(F, F, [3])),
    ("spectral_derivative int", lambda: spectral_derivative(F, 3)),
    ("schwartz_seminorm None", lambda: schwartz_seminorm(F, None, [0, 0])),
    ("change_basis singular", lambda: hilbert.change_basis(M2, np.zeros((4, 4)))),
    ("regular_representation string", lambda: hilbert.regular_representation(M2, "abcd", "left")),
    ("extend_isomorphism wrong shape", lambda: hilbert.extend_isomorphism(np.eye(3), M2, M2, PAIR)),
    ("FiniteHilbertAlgebra wrong shape",
     lambda: hilbert.FiniteHilbertAlgebra(M2.structure, np.eye(3), M2.gram)),
    ("CliffordElement string", lambda: clifford.CliffordElement(1, "abcd")),
    ("bch_phase odd length", lambda: bch_phase([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)),
    ("group_algebra strings", lambda: hilbert.group_algebra([["e", "a"], ["a", "e"]])),
    ("bch_phase theta string", lambda: bch_phase([1.0, 0.0], [0.0, 1.0], "a")),
    ("bch_phase theta zero", lambda: bch_phase([1.0, 0.0], [0.0, 1.0], 0.0)),
    ("MatrixSymbol theta negative", lambda: MatrixSymbol(2, -1.0, np.zeros((2, 2)))),
    ("inner_automorphism pair of wrong shape",
     lambda: hilbert.inner_automorphism(M2, hilbert.MultiplierPair(np.eye(3), np.eye(3)))),
    ("extend_isomorphism pair of wrong shape",
     lambda: hilbert.extend_isomorphism(np.eye(4), M2, M2,
                                        hilbert.MultiplierPair(np.eye(3), np.eye(3)))),
    ("verify_caract pairs of ints", lambda: hilbert.verify_caract(M2, [1, 2])),
    ("verify_commutant_structure pairs not a list",
     lambda: hilbert.verify_commutant_structure(M2, PAIR)),
]


def _malformed(kept, ok):
    """A string, None, True, a wrong shape, a NaN and, where a real is kept, 1j."""
    ok = np.asarray(ok)
    nan = ok.astype(float if kept is int else kept)
    nan.flat[0] = np.nan
    bad = ["a", None, True, np.stack([ok, ok]), nan]
    if kept is not complex:
        bad.append(ok + 1j)
    return bad


@pytest.mark.parametrize("kept, ok, call", [c[1:] for c in ARRAY], ids=[c[0] for c in ARRAY])
def test_array_arguments_raise_spec_mismatch(kept, ok, call):
    for bad in _malformed(kept, ok):
        with pytest.raises(SpecMismatch):
            call(bad)
    call(ok)


@pytest.mark.parametrize("call", [c[1] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_arrays_raise_spec_mismatch(call):
    with pytest.raises(SpecMismatch):
        call()


@pytest.mark.parametrize("call", [lambda v: hilbert.commutant(v, 2),
                                  lambda v: hilbert.OperatorSubspace.from_matrices(v, 2)],
                         ids=["commutant", "from_matrices"])
def test_matrix_stacks_are_checked_whole(call):
    # an ndarray of matrices is checked as one (k, D, D) stack, not matrix by
    # matrix; a non-finite entry anywhere in it, a bool or wrong-shaped stack,
    # or no iterable at all still raises SpecMismatch
    stack = np.stack([np.eye(2), np.ones((2, 2))])
    for entry in (np.nan, np.inf, complex(0.0, -np.inf)):
        bad = stack.astype(complex)
        bad[1, 0, 1] = entry
        with pytest.raises(SpecMismatch):
            call(bad)
    for bad in (stack > 0, np.eye(2), np.ones((2, 3, 3)), None, 3):
        with pytest.raises(SpecMismatch):
            call(bad)
    call(stack)
    call(stack.astype(int))
    call(np.zeros((0, 2, 2)))


def test_array_refuses_bools_ragged_nesting_and_lossy_kinds():
    for value, shape, dtype in [([1, True], (2,), int), ([[0, 1], [np.True_, 0]], (2, 2), int),
                                ([1.0, False], (2,), float), ([[1, 2], [3]], (2, None), int),
                                (2.5, (), int), (np.array([1j]), (1,), float),
                                (np.inf, (), float), (np.zeros(3), (None, 3), float)]:
        with pytest.raises(SpecMismatch):
            errors.array(value, shape, "value", dtype)
    assert errors.array([[1, 2]], (None, 2), "value", float).dtype == float
    assert errors.array(np.uint8(3), (), "value", complex) == 3


def test_array_finiteness_is_exact_on_strided_and_huge_entries():
    # below errors._DOT_ENTRIES entries finiteness is one entrywise scan
    # (the dot path's side of the cutoff is the test after this one)
    base = np.ones((6, 4), complex)
    for entry in (np.nan, np.inf, complex(0.0, -np.inf)):
        bad = base.copy()
        bad[4, 2] = entry
        for view in (bad[:, ::2], bad.T[::2], bad[::-1, 2]):
            with pytest.raises(SpecMismatch):
                errors.array(view, view.shape, "value", complex)
    huge = np.full((3, 5), 1e200)
    assert errors.array(huge, (3, 5), "value", float) is huge
    assert errors.array(huge[:, ::2] * (1 - 1j), (3, 3), "value", complex).shape == (3, 3)
    assert errors.array(np.zeros((0, 4)), (0, 4), "value", float).size == 0


@pytest.mark.parametrize("shape", [(31, 33), (32, 32), (48, 64)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_finiteness_verdict_is_the_same_on_both_sides_of_the_dot_cutoff(shape, dtype):
    # 1023 entries take the entrywise scan, 1024 and 3072 the one sum of
    # squares; a NaN or an inf anywhere is refused on both sides, and entries
    # whose squares overflow the sum (above 1e154) are kept without a warning
    size = shape[0] * shape[1]
    assert (size < errors._DOT_ENTRIES) == (shape == (31, 33))
    bad = [np.nan, np.inf, -np.inf] + ([complex(0.0, -np.inf), complex(np.nan, 1.0)]
                                        if dtype is complex else [])
    views = {"transposed": lambda: np.ones(shape[::-1], dtype).T,
             "strided": lambda: np.ones((shape[0], 2 * shape[1]), dtype)[:, ::2]}
    for name, make in views.items():
        for at in (0, size // 2, size - 1):
            for entry in bad:
                view = make()
                view[np.unravel_index(at, shape)] = entry
                assert not errors._finite(view), (name, at, entry)
                with pytest.raises(SpecMismatch):
                    errors.array(view, shape, "value", dtype)
        huge = make()
        huge *= 1e200
        assert errors._finite(huge)
        assert errors.array(huge, shape, "value", dtype) is huge


def test_complex_inputs_are_kept_without_a_copy():
    strided = np.zeros((4, 2), complex)[:, 0]
    assert np.shares_memory(clifford.CliffordElement(1, strided).coeffs, strided)
    for x in (np.ones(4, complex), np.ones(8, complex)[::2]):
        assert np.shares_memory(clifford.CliffordElement(1, x).coeffs, x)
    x = np.arange(64.0).reshape(8, 8) * (1 + 1j)
    for y in (x, x.T):
        assert np.shares_memory(GridFunction(SPEC, y).samples, y)
    c = np.arange(9.0).reshape(3, 3) * 1j
    for y in (c, c.T):
        assert np.shares_memory(MatrixSymbol(3, 2.0, y).coeffs, y)


def test_example_algebra_rejects_unknown_keywords():
    with pytest.raises(InvalidArgument):
        hilbert.example_algebra("full_matrix", size=3)
    with pytest.raises(InvalidArgument):
        hilbert.example_algebra("s3", n=3)


CACHE = synthesize_basis(GridSpec(M=64, L=8.0), 2)

# (name, documented error, call) for deliberate raises outside the argument rule
RAISES = [
    ("natural_trace_check without a trace", StructureError,
     lambda: hilbert.natural_trace_check(hilbert.FiniteHilbertAlgebra(
         M2.structure, M2.involution, np.diag([1.0, 2.0, 3.0, 4.0])))),
    ("extend_isomorphism across dimensions", NotIsomorphism,
     lambda: hilbert.extend_isomorphism(np.eye(4), M2, Z2, PAIR)),
    ("group_algebra non-square table", ParseError,
     lambda: hilbert.group_algebra(np.zeros((2, 3), dtype=int))),
    ("moyal_fast at n = 3", ResourceError,
     lambda: moyal_fast(*[GridFunction(GridSpec(n=3, M=8), np.zeros((8,) * 6))] * 2)),
    ("moyal_fast_many on n = 2", SpecMismatch,
     lambda: moyal_fast_many([GridFunction(GridSpec(n=2, M=8), np.zeros((8,) * 4))],
                             [GridFunction(GridSpec(n=2, M=8), np.zeros((8,) * 4))])),
    ("split_pairs at n = 1", SpecMismatch, lambda: split_pairs(F)),
    ("transform on another grid", SpecMismatch, lambda: transform(F, CACHE)),
    ("transform at another truncation", SpecMismatch,
     lambda: transform(MatrixSymbol(3, 2.0, np.zeros((3, 3))), CACHE)),
    ("transform at another theta", SpecMismatch,
     lambda: transform(MatrixSymbol(2, 1.0, np.zeros((2, 2))), CACHE)),
    ("blade mask >= 4^m", SpecMismatch, lambda: clifford.blade(1, 4)),
    ("blade_product mask_i >= 4^m", SpecMismatch, lambda: clifford.blade_product(4, 0, 1)),
    ("blade_product mask_j >= 4^m", SpecMismatch, lambda: clifford.blade_product(0, 4, 1)),
    ("Clifford sum across ranks", SpecMismatch, lambda: clifford.unit(1) + clifford.unit(2)),
]


@pytest.mark.parametrize("error, call", [c[1:] for c in RAISES], ids=[c[0] for c in RAISES])
def test_deliberate_raises_use_their_documented_class(error, call):
    with pytest.raises(error):
        call()


def test_every_raise_names_an_hdq_error():
    package = Path(hdqkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None)
                cls = getattr(errors, str(name), None)
                assert isinstance(cls, type) and issubclass(cls, errors.HdqError), (
                    f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}")
