"""The kit's one argument rule, site by site.

Every count, size, order, rank, index and exponent is a whole number at
least as large as its least value, so True, 2.5 and a value below the least
raise SpecMismatch, and a numpy integer is accepted.  Every option value
outside its options raises InvalidArgument.  No numpy TypeError or
ValueError may escape in place of either.
"""

import numpy as np
import pytest

from hdqkit import clifford, hilbert
from hdqkit.errors import InvalidArgument, SpecMismatch
from hdqkit.matrix_basis import (
    MatrixSymbol,
    basis_unit,
    gbv_norm,
    ladder_matrix,
    synthesize_basis,
)
from hdqkit.moyal import (
    GridFunction,
    GridSpec,
    moyal_direct,
    symplectic_fourier,
    translation_multiplier,
)
from hdqkit.symmetry import (
    coordinate_function,
    schwartz_seminorm,
    sobolev_norm,
    spectral_derivative,
)

SPEC = GridSpec(M=8)
F = GridFunction(SPEC, np.ones((8, 8), dtype=complex))
SYM = basis_unit(3, 2.0, 1, 1)
M2 = hilbert.example_algebra("full_matrix", n=2)

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
    ("symplectic_fourier side", lambda v: symplectic_fourier(F, side=v)),
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
