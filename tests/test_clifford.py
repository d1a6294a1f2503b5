"""Clifford algebra blade engine, its matrix model and the unital multiplier collapse.

The sign oracle multiplies blades symbolically: concatenate the generator
lists, bubble-sort with a sign flip per transposition, cancel equal
neighbours. No bitmasks anywhere, so it cannot share a bug with the engine.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkit import clifford, hilbert
from hdqkit.errors import ResourceError, SpecMismatch


def oracle_blade_product(mask_i: int, mask_j: int) -> tuple[int, int]:
    word = [k for k in range(mask_i.bit_length()) if mask_i >> k & 1]
    word += [k for k in range(mask_j.bit_length()) if mask_j >> k & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for p in range(len(word) - 1):
            if word[p] > word[p + 1]:
                word[p], word[p + 1] = word[p + 1], word[p]
                sign = -sign
                changed = True
            elif word[p] == word[p + 1]:
                del word[p:p + 2]  # generator squares to one
                changed = True
                break
    mask = 0
    for k in word:
        mask |= 1 << k
    return sign, mask


masks_m3 = st.integers(min_value=0, max_value=63)


@given(masks_m3, masks_m3)
def test_blade_product_matches_symbolic_oracle(i, j):
    assert clifford.blade_product(i, j, 3) == oracle_blade_product(i, j)


@given(masks_m3, masks_m3, masks_m3)
@settings(max_examples=200)
def test_blade_association_is_exact(i, j, k):
    s1, t1 = clifford.blade_product(i, j, 3)
    s2, t2 = clifford.blade_product(t1, k, 3)
    s3, t3 = clifford.blade_product(j, k, 3)
    s4, t4 = clifford.blade_product(i, t3, 3)
    assert (s1 * s2, t2) == (s3 * s4, t4)


def star_signs(m: int) -> np.ndarray:
    """sigma(I, I) per blade: xi_I* = xi_I^-1 = sign(I, I) xi_I."""
    blades = np.arange(4 ** m)
    return clifford._blade_signs(blades, blades, 2 * m)


@given(masks_m3, masks_m3)
def test_blade_involution_reverses_products(i, j):
    # (xi_I xi_J)* = xi_J* xi_I* with the blade-reversal signs
    star = star_signs(3)
    s, t = clifford.blade_product(i, j, 3)
    sr, tr = clifford.blade_product(j, i, 3)
    assert t == tr
    assert s * star[t] == star[i] * star[j] * sr


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sign_table_matches_blade_product(m):
    d = 1 << (2 * m)
    ii, jj = np.repeat(np.arange(d), d), np.tile(np.arange(d), d)
    table = clifford._blade_signs(ii, jj, 2 * m).reshape(d, d)
    want = [[clifford.blade_product(i, j, m)[0] for j in range(d)] for i in range(d)]
    assert table.dtype == np.int8
    assert np.array_equal(table, want)


masks_m6 = st.integers(0, 4095)


@given(masks_m6, masks_m6)
@settings(max_examples=200)
def test_sign_table_matches_blade_product_at_m6(i, j):
    assert clifford._blade_signs(np.array(i), np.array(j), 12) == clifford.blade_product(i, j, 6)[0]


@given(masks_m6, masks_m6, masks_m6)
@settings(max_examples=200)
def test_blade_signs_are_bilinear_at_m6(i, i2, j):
    # sign(I ^ I', J) = sign(I, J) sign(I', J), and the same in J: a bilinear
    # sign is a 2-cocycle, which is why every export is associative
    def sign(a, b):
        return int(clifford._blade_signs(np.array(a), np.array(b), 12))
    assert sign(i ^ i2, j) == sign(i, j) * sign(i2, j)
    assert sign(j, i ^ i2) == sign(j, i) * sign(j, i2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hilbert_export_matches_blade_oracle(m):
    # structure from blade_product, involution from the reversal sign
    # (-1)^{|I|(|I|-1)/2}, orthonormal Gram: equal bit for bit
    d = 4 ** m
    structure = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            sign, target = clifford.blade_product(i, j, m)
            structure[i, j, target] = sign
    sizes = [bin(i).count("1") for i in range(d)]
    involution = np.diag([(-1.0) ** (k * (k - 1) // 2) for k in sizes]).astype(complex)
    alg = clifford.as_hilbert_algebra(m)
    for got, want in [(alg.structure, structure), (alg.involution, involution),
                      (alg.gram, np.eye(d, dtype=complex))]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_generator_relations():
    x1, x2 = clifford.blade(1, 0b01), clifford.blade(1, 0b10)
    assert np.allclose(clifford.clifford_product(x1, x1).coeffs, clifford.unit(1).coeffs)
    assert np.allclose(clifford.clifford_product(x1, x2).coeffs,
                       -clifford.clifford_product(x2, x1).coeffs)
    for m in (1, 2, 3, 4):
        assert clifford._exact_anticommutation(m)


def test_unit_acts_trivially(rng):
    x = clifford.CliffordElement(2, rng.normal(size=16) + 1j * rng.normal(size=16))
    assert np.allclose(clifford.clifford_product(x, clifford.unit(2)).coeffs, x.coeffs)
    assert np.allclose(clifford.clifford_product(clifford.unit(2), x).coeffs, x.coeffs)


def test_rank_mismatch_rejected():
    with pytest.raises(SpecMismatch):
        clifford.clifford_product(clifford.unit(1), clifford.unit(2))
    # ranks below one or not whole, refused before any table or shift is built
    for m in (0, -1, 1.5):
        with pytest.raises(SpecMismatch):
            clifford.unit(m)
        with pytest.raises(SpecMismatch):
            clifford.blade(m, 0)
        with pytest.raises(SpecMismatch):
            clifford.CliffordElement(m, np.ones(1))
        with pytest.raises(SpecMismatch):
            clifford.as_hilbert_algebra(m)
        with pytest.raises(SpecMismatch):
            clifford.blade_product(0, 0, m)
        with pytest.raises(SpecMismatch):
            clifford.verify_unital_multipliers(m)
    assert clifford.blade_product(1, 2, np.int64(1)) == (1, 3)


def test_involution_and_trace_closed_forms():
    x12 = clifford.clifford_product(clifford.blade(1, 0b01), clifford.blade(1, 0b10))
    star, trace = clifford.involution_and_trace(x12)
    assert np.allclose(star.coeffs, -x12.coeffs)
    assert trace == 0.0
    assert clifford.involution_and_trace(clifford.unit(1))[1] == 1.0
    for mask in range(1, 16):
        assert clifford.involution_and_trace(clifford.blade(2, mask))[1] == 0.0


def test_trace_is_tracial(rng):
    for _ in range(5):
        x = clifford.CliffordElement(2, rng.normal(size=16) + 1j * rng.normal(size=16))
        y = clifford.CliffordElement(2, rng.normal(size=16) + 1j * rng.normal(size=16))
        txy = clifford.involution_and_trace(clifford.clifford_product(x, y))[1]
        tyx = clifford.involution_and_trace(clifford.clifford_product(y, x))[1]
        assert abs(txy - tyx) <= 5e-13


def test_blades_are_orthonormal():
    for i in range(16):
        for j in range(16):
            got = clifford.inner(clifford.blade(2, i), clifford.blade(2, j))
            assert got == (1.0 if i == j else 0.0)


def test_norm_is_coefficient_norm(rng):
    coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
    x = clifford.CliffordElement(2, coeffs)
    assert abs(x.norm - np.linalg.norm(coeffs)) <= 1e-12
    got = clifford.inner(x, x)
    assert abs(got - np.linalg.norm(coeffs) ** 2) <= 1e-12


def test_hilbert_export_passes_axioms():
    for m in (1, 2):
        alg = clifford.as_hilbert_algebra(m)
        assert alg.dim == 4 ** m
        report = hilbert.validate_axioms(alg)
        assert report["pass"], report
        assert np.allclose(alg.gram, np.eye(alg.dim))


def test_hilbert_export_matches_engine_product(rng):
    alg = clifford.as_hilbert_algebra(2)
    a = rng.normal(size=16) + 1j * rng.normal(size=16)
    b = rng.normal(size=16) + 1j * rng.normal(size=16)
    want = clifford.clifford_product(clifford.CliffordElement(2, a),
                                     clifford.CliffordElement(2, b)).coeffs
    assert np.allclose(alg.multiply(a, b), want, atol=1e-12)


def test_export_rank_cap():
    with pytest.raises(ResourceError):
        clifford.as_hilbert_algebra(5)


def test_structure_theorems_for_cl2():
    alg = clifford.as_hilbert_algebra(1)
    assert hilbert.verify_caract(alg)["pass"]
    assert hilbert.verify_commutant_structure(alg)["pass"]
    assert hilbert.natural_trace_check(alg)["pass"]


def test_structure_theorems_for_unrotated_cl6():
    # d = 64 on the blade basis, where each commutant is restricted to 7 or 8
    # eigenclusters of one random element (p = 512-576 of D² = 4096): both
    # theorems hold with 64 pairs, bicommutant 64 and commutant 256
    alg = clifford.as_hilbert_algebra(3)
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == 64
    caract = hilbert.verify_caract(alg, pairs=pairs)
    assert caract["pass"] and caract["bicommutant_dim"] == 64
    struct = hilbert.verify_commutant_structure(alg, pairs=pairs)
    assert struct["pass"] and struct["commutant_dim"] == 256


def test_structure_theorems_for_rotated_cl6():
    # d = 64 in a Haar basis, where no normal has exact zeros to split by:
    # each commutant is restricted to the eigenclusters of one random
    # Hermitian element (8 of 8, p = 512 of D² = 4096), so no D⁴ normal (268
    # MB) is built; both verifiers together peak at 56 MB under tracemalloc
    rng = np.random.default_rng(1)
    q, r = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    q *= np.diag(r) / np.abs(np.diag(r))
    alg = hilbert.change_basis(clifford.as_hilbert_algebra(3), q)
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == 64
    tracemalloc.start()
    try:
        caract = hilbert.verify_caract(alg, pairs=pairs)
        struct = hilbert.verify_commutant_structure(alg, pairs=pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caract["pass"] and caract["bicommutant_dim"] == 64
    assert struct["pass"] and struct["commutant_dim"] == 256
    assert peak < 128e6


@pytest.mark.parametrize("m", [1, 2, 3])
def test_unital_multiplier_collapse(m):
    report = clifford.verify_unital_multipliers(m)
    assert report["dimension"] == 4 ** m
    assert report["pass"], report
    # measured 5.6e-17, 1.8e-16, 7.0e-16; at m = 3 the solve is 64 blocks of 128
    assert report["rebuild_residual"] <= 2e-15


def test_unital_verification_rank_cap():
    for m in (4, 5):
        with pytest.raises(SpecMismatch):
            clifford.verify_unital_multipliers(m)


# ---------------------------------------------------------------------------
# Jordan-Wigner matrix model
# ---------------------------------------------------------------------------

def dense_element(rng: np.random.Generator, m: int) -> clifford.CliffordElement:
    d = 4 ** m
    return clifford.CliffordElement(m, (rng.normal(size=d) + 1j * rng.normal(size=d)) / np.sqrt(d))


def blade_oracle(mask_i: int, mask_j: int, m: int) -> np.ndarray:
    sign, target = clifford.blade_product(mask_i, mask_j, m)
    want = np.zeros(4 ** m, dtype=complex)
    want[target] = sign
    return want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_of_blades_is_bit_exact(m):
    for i in range(4 ** m):
        for j in range(4 ** m):
            got = clifford.clifford_product(clifford.blade(m, i), clifford.blade(m, j))
            assert np.array_equal(got.coeffs, blade_oracle(i, j, m)), (i, j)


@given(st.integers(0, 4095), st.integers(0, 4095))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_product_of_blades_is_bit_exact_at_m6(i, j):
    got = clifford.clifford_product(clifford.blade(6, i), clifford.blade(6, j))
    assert np.array_equal(got.coeffs, blade_oracle(i, j, 6))


def matrix_product(x: clifford.CliffordElement, y: clifford.CliffordElement) -> np.ndarray:
    """x y through the Jordan-Wigner matrix model, whatever the sparsity."""
    return clifford._from_matrix(x.m, clifford._to_matrix(x) @ clifford._to_matrix(y))


@pytest.mark.parametrize("m", [1, 2])
def test_matrix_model_products_of_blades_are_bit_exact(m):
    for i in range(4 ** m):
        for j in range(4 ** m):
            got = matrix_product(clifford.blade(m, i), clifford.blade(m, j))
            assert np.array_equal(got, blade_oracle(i, j, m)), (i, j)


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("nnz", [(1, 1), (3, 5), (1, None)], ids=["blades", "sparse", "blade-dense"])
def test_sparse_products_match_the_matrix_model(m, nnz, rng):
    d = 4 ** m
    factors = []
    for k in nnz:
        coeffs = np.zeros(d, dtype=complex)
        idx = rng.choice(d, size=min(k or d, d), replace=False)
        coeffs[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        factors.append(clifford.CliffordElement(m, coeffs))
    x, y = factors
    got = clifford.clifford_product(x, y).coeffs
    want = matrix_product(x, y)
    assert np.linalg.norm(got - want) <= 1e-14 * x.norm * y.norm


def test_generator_matrices_satisfy_clifford_relations():
    m = 3
    gens = [clifford._to_matrix(clifford.blade(m, 1 << a)) for a in range(2 * m)]
    eye = np.eye(1 << m)
    for a, ga in enumerate(gens):
        assert np.array_equal(ga, ga.conj().T)
        for b, gb in enumerate(gens):
            assert np.array_equal(ga @ gb + gb @ ga, 2.0 * eye * (a == b))


@pytest.mark.parametrize("m", [1, 3, 6])
def test_matrix_model_is_a_star_homomorphism(m, rng):
    x, y = dense_element(rng, m), dense_element(rng, m)
    q = 1 << m
    mx, my = clifford._to_matrix(x), clifford._to_matrix(y)
    star, trace = clifford.involution_and_trace(x)
    # floors over 50 seeds: 0, 9e-17, 1.5e-16 relative
    assert np.linalg.norm(clifford._to_matrix(star) - mx.conj().T) <= 1e-15 * np.linalg.norm(mx)
    assert abs(trace - np.trace(mx) / q) <= 1e-14 * x.norm
    assert abs(clifford.inner(x, y) - np.vdot(mx, my) / q) <= 1e-14 * x.norm * y.norm


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_round_trip_is_exact_on_blades(m):
    for mask in range(4 ** m):
        x = clifford.blade(m, mask)
        assert np.array_equal(clifford._from_matrix(m, clifford._to_matrix(x)), x.coeffs)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_round_trip_on_dense_elements(m, rng):
    x = dense_element(rng, m)
    back = clifford._from_matrix(m, clifford._to_matrix(x))
    # floor over 50 seeds: 4e-16
    assert np.linalg.norm(back - x.coeffs) <= 1e-14 * x.norm


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, derandomize=True, deadline=None)
def test_dense_product_is_associative_at_m6(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (dense_element(rng, 6) for _ in range(3))
    cp = clifford.clifford_product
    left, right = cp(cp(x, y), z).coeffs, cp(x, cp(y, z)).coeffs
    # floor over 50 seeds: 8.9e-16
    assert np.linalg.norm(left - right) <= 1e-13 * np.linalg.norm(left)


@pytest.mark.parametrize("build", [lambda: clifford.blade(14, 0),
                                   lambda: clifford._matrix_model(13)],
                         ids=["blade", "matrix_model"])
def test_allocations_are_gated(build):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_product_does_not_build_the_sign_table(rng):
    x, y = dense_element(rng, 6), dense_element(rng, 6)
    for obj in vars(clifford).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    tracemalloc.start()
    try:
        clifford.clifford_product(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
