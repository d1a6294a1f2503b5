"""Matrix basis: synthesis, transforms, products, GBV weights, exponentials."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from hdqkit.errors import NotSquareIntegrable, ResourceError, SpecMismatch, TruncationError
from hdqkit.matrix_basis import (
    MatrixSymbol,
    basis_unit,
    gbv_norm,
    ladder_matrix,
    matrix_product_oracle,
    matrix_star_exp,
    matrix_unit,
    split_unital,
    synthesize_basis,
    synthesize_unit,
    transform,
    split_unital as _split,  # noqa: F401  (alias exercised below)
)
from hdqkit.moyal import GridFunction, GridSpec, integrate, moyal_fast

THETA = 2.0
TWO_PI_THETA = 2.0 * np.pi * THETA


@pytest.fixture(scope="module")
def spec():
    return GridSpec(M=128, theta=THETA)


@pytest.fixture(scope="module")
def cache(spec):
    return synthesize_basis(spec, 6)


def longhand_b(spec, m, n):
    """Oracle: the lowest basis functions typed out with no recurrence."""
    th = spec.theta
    q = spec.axis(0)[:, None]
    p = spec.axis(1)[None, :]
    w = np.sqrt(2.0 / th) * (q - 1j * p)
    r2 = q * q + p * p
    g = np.exp(-r2 / th)
    table = {
        (0, 0): 2.0 * g,
        (0, 1): 2.0 * w * g,
        (1, 0): 2.0 * np.conj(w) * g,
        (1, 1): 2.0 * (2.0 * r2 / th - 1.0) * g,
        (0, 2): np.sqrt(2.0) * w * w * g,
        (2, 2): 2.0 * (1.0 - 2.0 * (2.0 * r2 / th)
                       + 0.5 * (2.0 * r2 / th) ** 2) * g,
    }
    return table[(m, n)]


def laguerre_b(spec, m, n):
    """Oracle: the Laguerre closed form of the module docstring."""
    if m > n:
        return np.conj(laguerre_b(spec, n, m))
    th = spec.theta
    q = spec.axis(0)[:, None]
    p = spec.axis(1)[None, :]
    r2 = q * q + p * p
    amp = 2.0 * (-1.0) ** m * np.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)))
    return (amp * (np.sqrt(2.0 / th) * (q - 1j * p)) ** (n - m)
            * eval_genlaguerre(m, n - m, 2.0 * r2 / th) * np.exp(-r2 / th))


def basis_function(cache, m, n):
    """b_mn sampled on the cache's grid."""
    return transform(basis_unit(cache.trunc, cache.spec.theta, m, n), cache)


def wide_spec(half_width):
    """M = 256 grid with L = half_width sqrt(theta)."""
    return GridSpec(n=1, M=256, L=half_width * np.sqrt(THETA), theta=THETA)


def random_symbol(trunc, rng):
    c = rng.normal(size=(trunc, trunc)) + 1j * rng.normal(size=(trunc, trunc))
    return MatrixSymbol(trunc, THETA, c)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesis_matches_longhand(spec, cache):
    for m, n in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 2)]:
        got = basis_function(cache, m, n).samples
        want = longhand_b(spec, m, n)
        assert np.max(np.abs(got - want)) < 1e-12


def test_synthesis_matches_laguerre_closed_form():
    spec = wide_spec(8.0)
    cache = synthesize_basis(spec, 16)
    for m in range(16):
        for n in range(16):
            got = basis_function(cache, m, n).samples
            assert np.max(np.abs(got - laguerre_b(spec, m, n))) <= 1e-13


def test_peak_value_of_ground_state(spec, cache):
    mid = spec.M // 2
    assert basis_function(cache, 0, 0).samples[mid, mid] == pytest.approx(2.0, abs=1e-12)


def test_conjugation_swaps_indices(cache):
    for m in range(cache.trunc):
        for n in range(cache.trunc):
            a = np.conj(basis_function(cache, m, n).samples)
            b = basis_function(cache, n, m).samples
            assert np.max(np.abs(a - b)) < 1e-12


def test_basis_orthogonality(spec, cache):
    t = cache.trunc
    flat = np.array([basis_function(cache, m, n).samples.ravel()
                     for m in range(t) for n in range(t)])
    gram = spec.cell * np.conj(flat) @ flat.T
    want = TWO_PI_THETA * np.eye(t * t)
    assert np.max(np.abs(gram - want)) < 1e-12


def test_basis_integrals(cache):
    for m in range(cache.trunc):
        for n in range(cache.trunc):
            val = integrate(basis_function(cache, m, n))
            want = TWO_PI_THETA if m == n else 0.0
            assert abs(val - want) < 1e-8


def test_odd_basis_is_parity_odd(cache):
    b01 = basis_function(cache, 0, 1)
    assert np.max(np.abs(b01.parity().samples + b01.samples)) < 1e-12


def test_synthesis_input_checks(spec):
    # trunc 16 reaches the edge of the default box and trunc 64 that of
    # L = 8 sqrt(theta): both grids fail to resolve the basis
    with pytest.raises(TruncationError):
        synthesize_basis(spec, 16)
    with pytest.raises(TruncationError):
        synthesize_basis(wide_spec(8.0), 64)
    with pytest.raises(SpecMismatch):
        synthesize_basis(GridSpec(n=2, M=16, L=5.0, theta=THETA), 4)
    with pytest.raises(SpecMismatch):
        synthesize_basis(spec, 0)


def test_synthesis_gates_memory():
    spec = wide_spec(8.0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            synthesize_basis(spec, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # raised before the 25 MB Hermite table is sampled
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_forward_transform_picks_out_coefficients(cache):
    # b_00 maps to the rank-one ground-state projector E_00, b_01 to E_01
    for m, n in [(0, 0), (0, 1)]:
        got = transform(basis_function(cache, m, n), cache)
        want = basis_unit(cache.trunc, THETA, m, n).coeffs
        assert np.max(np.abs(got.coeffs - want)) < 3e-14


def test_forward_transform_of_zero(spec, cache):
    zero = GridFunction(spec, np.zeros(spec.shape))
    assert np.max(np.abs(transform(zero, cache).coeffs)) == 0.0


def test_round_trip_on_basis_span(cache, rng):
    sym = random_symbol(cache.trunc, rng)
    back = transform(transform(sym, cache), cache)
    assert np.max(np.abs(back.coeffs - sym.coeffs)) < 1e-13 * np.max(np.abs(sym.coeffs))


def test_parseval_on_basis_span(cache, rng):
    sym = random_symbol(cache.trunc, rng)
    f = transform(sym, cache)
    assert f.norm ** 2 == pytest.approx(
        TWO_PI_THETA * np.sum(np.abs(sym.coeffs) ** 2), rel=1e-13)
    assert f.norm == pytest.approx(sym.norm, rel=1e-13)


def test_hermiticity_of_transform(cache, rng):
    sym = random_symbol(cache.trunc, rng)
    f = transform(sym, cache)
    got = transform(f.conj(), cache).coeffs
    assert np.max(np.abs(got - sym.coeffs.conj().T)) < 3e-13


def test_star_matrix_functoriality(cache, rng):
    """transform(f * g) must be the coefficient matrix product."""
    a = random_symbol(cache.trunc, rng)
    b = random_symbol(cache.trunc, rng)
    f = transform(a, cache)
    g = transform(b, cache)
    got = transform(moyal_fast(f, g), cache).coeffs
    want = matrix_product_oracle(a, b).coeffs
    assert np.max(np.abs(got - want)) < 5e-14 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(trunc=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_star_matrix_functoriality_property(trunc, seed):
    cache = synthesize_basis(GridSpec(M=128, theta=THETA), trunc)
    rng = np.random.default_rng(seed)
    a = random_symbol(trunc, rng)
    b = random_symbol(trunc, rng)
    got = transform(moyal_fast(transform(a, cache), transform(b, cache)), cache).coeffs
    want = matrix_product_oracle(a, b).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(trunc=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_transforms_match_laguerre_closed_form(trunc, seed):
    """Both directions against laguerre_b, summed term by term.

    Every odd count 2 trunc - 1 of degree blocks leaves the middle block
    without a partner, so trunc 1..8 covers the lone slot at every size.
    Measured floor over trunc 1..8 and 5 seeds each: 1.1e-15 backward,
    1.2e-15 forward (relative to the largest entry).
    """
    spec = GridSpec(M=128, theta=THETA)
    cache = synthesize_basis(spec, trunc)
    rng = np.random.default_rng(seed)
    b = {(m, n): laguerre_b(spec, m, n) for m in range(trunc) for n in range(trunc)}
    sym = random_symbol(trunc, rng)
    want = sum(sym.coeffs[m, n] * b[m, n] for m, n in b)
    got = transform(sym, cache).samples
    assert np.max(np.abs(got - want)) <= 5e-15 * np.max(np.abs(want))
    x = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    want = np.array([[spec.cell / TWO_PI_THETA * np.sum(x * b[n, m])
                      for n in range(trunc)] for m in range(trunc)])
    got = transform(GridFunction(spec, x), cache).coeffs
    assert np.max(np.abs(got - want)) <= 5e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("view", [
    lambda f: GridFunction(f.spec, f.samples.T),
    lambda f: GridFunction(f.spec, f.samples[::-1, ::-1]),
    lambda f: f.parity(),
], ids=["transposed", "reversed", "parity"])
def test_forward_transform_of_strided_samples(spec, cache, rng, view):
    """Samples that are not C-contiguous give the bits of a contiguous copy."""
    x = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    f = view(GridFunction(spec, x))
    copy = GridFunction(spec, np.ascontiguousarray(f.samples))
    assert np.array_equal(transform(f, cache).coeffs, transform(copy, cache).coeffs)


@pytest.mark.parametrize("trunc, half_width", [(32, 10.0), (64, 13.0)])
def test_large_truncation_laws(trunc, half_width, rng):
    """Round trip, Parseval and functoriality where the grid resolves trunc."""
    cache = synthesize_basis(wide_spec(half_width), trunc)
    a = random_symbol(trunc, rng)
    b = random_symbol(trunc, rng)
    f = transform(a, cache)
    g = transform(b, cache)
    scale = np.max(np.abs(a.coeffs))
    assert np.max(np.abs(transform(f, cache).coeffs - a.coeffs)) <= 1e-13 * scale
    assert abs(f.norm - a.norm) <= 1e-13 * a.norm
    got = transform(moyal_fast(f, g), cache).coeffs
    want = matrix_product_oracle(a, b).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# coefficient algebra
# ---------------------------------------------------------------------------

def test_matrix_units_multiply():
    e01 = basis_unit(4, THETA, 0, 1)
    e10 = basis_unit(4, THETA, 1, 0)
    e00 = basis_unit(4, THETA, 0, 0)
    got = matrix_product_oracle(e01, e10)
    assert np.array_equal(got.coeffs, e00.coeffs)


def test_product_with_zero():
    f = basis_unit(4, THETA, 2, 3)
    zero = MatrixSymbol(4, THETA, np.zeros((4, 4)))
    assert np.all(matrix_product_oracle(f, zero).coeffs == 0)


def test_product_associativity_exact(rng):
    a, b, c = (random_symbol(5, rng) for _ in range(3))
    left = matrix_product_oracle(matrix_product_oracle(a, b), c)
    right = matrix_product_oracle(a, matrix_product_oracle(b, c))
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12 * np.max(np.abs(left.coeffs))


def test_basis_unit_rejects_indices_outside_truncation():
    for m, n in [(-1, 0), (4, 0), (0, -1), (0, 4)]:
        with pytest.raises(SpecMismatch):
            basis_unit(4, THETA, m, n)


def test_product_shape_guard():
    with pytest.raises(SpecMismatch):
        matrix_product_oracle(basis_unit(4, THETA, 0, 0), basis_unit(5, THETA, 0, 0))


# ---------------------------------------------------------------------------
# GBV norms and ladders
# ---------------------------------------------------------------------------

def test_gbv_on_matrix_units():
    for (m, n, k, l) in [(0, 0, 0, 0), (0, 0, 2, 3), (2, 3, 2, 1),
                         (1, 4, 0, 2), (3, 1, 4, 4)]:
        e = basis_unit(6, THETA, m, n)
        want = float(m) ** (k / 2.0) * float(n) ** (l / 2.0) if (m or k == 0) and (n or l == 0) else 0.0
        # 0^0 := 1 convention folds into the want above
        assert gbv_norm(e, k, l) == pytest.approx(want, abs=1e-12)


def test_gbv_operator_mode_matches_usual(rng):
    sym = random_symbol(7, rng)
    for (k, l) in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (4, 4)]:
        a = gbv_norm(sym, k, l, "usual")
        b = gbv_norm(sym, k, l, "operator")
        assert b == pytest.approx(a, rel=1e-12)


def test_gbv_nesting_on_shifted_units():
    e = basis_unit(6, THETA, 2, 3)
    assert gbv_norm(e, 1, 1) <= gbv_norm(e, 2, 1)
    assert gbv_norm(e, 2, 1) <= gbv_norm(e, 2, 4)


def test_gbv_input_checks(rng):
    sym = random_symbol(3, rng)
    with pytest.raises(SpecMismatch):
        gbv_norm(sym, -1, 0)
    with pytest.raises(SpecMismatch):
        gbv_norm(sym, 0, 0, mode="weighted")


def test_ladder_matrix_entries():
    z1 = ladder_matrix(1, 5)
    z2 = ladder_matrix(2, 5)
    for m in range(5):
        for n in range(5):
            assert z1[m, n] == (1j * np.sqrt(m) if m == n + 1 else 0)
            assert z2[m, n] == (-1j * np.sqrt(m + 1) if m + 1 == n else 0)


def test_ladder_against_grid_star(cache):
    """Multiplication by z1 and z2 two ways: coefficients vs grid star product."""
    trunc = cache.trunc
    z1_sym = MatrixSymbol(trunc, THETA, ladder_matrix(1, trunc))
    z1_grid = transform(z1_sym, cache)
    for (m, n) in [(0, 0), (1, 1), (0, 2), (2, 1)]:
        bmn = basis_function(cache, m, n)
        grid_norm = moyal_fast(z1_grid, bmn).norm
        coeff = ladder_matrix(1, trunc) @ basis_unit(trunc, THETA, m, n).coeffs
        ladder_norm = np.sqrt(TWO_PI_THETA) * np.linalg.norm(coeff)
        assert abs(grid_norm - ladder_norm) <= 5e-14 * max(ladder_norm, 1.0)
    # entrywise, on both sides: z1 and z2 act by their ladder matrices.
    # M = 64 is the smallest grid on this box that resolves the basis and the
    # product, and runs the 144 products about 7x faster than M = 128; the
    # measured floor is 2.0e-15 on both grids
    small = synthesize_basis(GridSpec(M=64, theta=THETA), trunc)
    for which in (1, 2):
        z = ladder_matrix(which, trunc)
        z_grid = transform(MatrixSymbol(trunc, THETA, z), small)
        for m in range(trunc):
            for n in range(trunc):
                bmn = basis_function(small, m, n)
                e = basis_unit(trunc, THETA, m, n).coeffs
                left = transform(moyal_fast(z_grid, bmn), small).coeffs
                right = transform(moyal_fast(bmn, z_grid), small).coeffs
                assert np.max(np.abs(left - z @ e)) <= 2e-13
                assert np.max(np.abs(right - e @ z)) <= 2e-13


# ---------------------------------------------------------------------------
# star-exponentials and the unit
# ---------------------------------------------------------------------------

def test_star_exp_of_zero():
    zero = MatrixSymbol(4, THETA, np.zeros((4, 4)))
    got = matrix_star_exp(zero, 1.0)
    assert np.array_equal(got.coeffs, np.eye(4))


def test_star_exp_of_idempotent():
    s = 0.7 - 0.3j
    e00 = basis_unit(5, THETA, 0, 0)
    got = matrix_star_exp(e00, s)
    want = np.eye(5, dtype=complex)
    want[0, 0] = np.exp(s)
    assert np.max(np.abs(got.coeffs - want)) < 1e-12


def test_star_exp_group_law(rng):
    f = random_symbol(5, rng)
    a = matrix_star_exp(f, 0.3)
    b = matrix_star_exp(f, -0.3)
    assert np.max(np.abs((a.coeffs @ b.coeffs) - np.eye(5))) < 1e-12


def test_split_unital_of_idempotent_exp():
    s = 0.25
    got = matrix_star_exp(basis_unit(6, THETA, 0, 0), s)
    c, rest = split_unital(got)
    assert c == pytest.approx(1.0, abs=1e-12)
    want = (np.exp(s) - 1.0) * basis_unit(6, THETA, 0, 0).coeffs
    assert np.max(np.abs(rest.coeffs - want)) < 1e-12


def test_unit_symbol_refuses_grid(cache):
    assert np.array_equal(matrix_unit(4, THETA).coeffs, np.eye(4))
    with pytest.raises(NotSquareIntegrable):
        synthesize_unit(cache)
