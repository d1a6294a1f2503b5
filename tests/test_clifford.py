"""Clifford algebra blade engine and the unital multiplier collapse.

The sign oracle multiplies blades symbolically: concatenate the generator
lists, bubble-sort with a sign flip per transposition, cancel equal
neighbours. No bitmasks anywhere, so it cannot share a bug with the engine.
"""

from __future__ import annotations

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


@given(masks_m3, masks_m3)
def test_blade_involution_reverses_products(i, j):
    # (xi_I xi_J)* = xi_J* xi_I* with the blade-reversal signs
    star = clifford._star_signs(3)
    s, t = clifford.blade_product(i, j, 3)
    sr, tr = clifford.blade_product(j, i, 3)
    assert t == tr
    assert s * star[t] == star[i] * star[j] * sr


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sign_table_matches_blade_product(m):
    table = clifford._sign_table(m)
    d = 1 << (2 * m)
    want = [[clifford.blade_product(i, j, m)[0] for j in range(d)] for i in range(d)]
    assert table.dtype == np.int8
    assert np.array_equal(table, want)


@given(st.integers(0, 4095), st.integers(0, 4095))
@settings(max_examples=200)
def test_sign_table_matches_blade_product_at_m6(i, j):
    assert clifford._sign_table(6)[i, j] == clifford.blade_product(i, j, 6)[0]


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
        assert abs(txy - tyx) <= 1e-12


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
    assert abs(got - np.linalg.norm(coeffs) ** 2) <= 1e-10


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


@pytest.mark.parametrize("m,route", [(1, "dense"), (2, "dense"),
                                     (3, "structural"), (4, "structural")])
def test_unital_multiplier_collapse(m, route):
    report = clifford.verify_unital_multipliers(m)
    assert report["route"] == route
    assert report["dimension"] == 4 ** m
    assert report["pass"], report


def test_unital_verification_rank_cap():
    with pytest.raises(SpecMismatch):
        clifford.verify_unital_multipliers(5)


def test_regular_pair_is_a_multiplier(rng):
    x = clifford.CliffordElement(1, rng.normal(size=4) + 1j * rng.normal(size=4))
    pair = clifford.regular_pair(x)
    alg = clifford.as_hilbert_algebra(1)
    lam = [hilbert.regular_representation(alg, np.eye(4)[i], "left") for i in range(4)]
    rho = [hilbert.regular_representation(alg, np.eye(4)[j], "right") for j in range(4)]
    worst = 0.0
    for i in range(4):
        for j in range(4):
            lhs = lam[i] @ (pair.left @ np.eye(4)[j])
            rhs = rho[j] @ (pair.right @ np.eye(4)[i])
            worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-12
