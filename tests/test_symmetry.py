"""Coordinate commutators, norm machinery, and plane-wave BCH phases."""

import numpy as np
import pytest

from hdqkit.errors import SpecMismatch
from hdqkit.moyal import (
    GridFunction,
    GridSpec,
    admissible_translations,
    moyal_direct,
    translation_multiplier,
)
from hdqkit.symmetry import (
    BchResult,
    bch_phase,
    coordinate_function,
    heisenberg_check,
    interior_mask,
    linear_commutator_check,
    plane_wave_bch,
    schwartz_seminorm,
    sobolev_norm,
    spectral_derivative,
    star_exp_ode_check,
    window,
)

# ---------------------------------------------------------------------------
# oracles, written before the implementation was run
# ---------------------------------------------------------------------------


def gauss_ground(spec):
    """2 exp(-r^2/theta), unit-trace ground state of the harmonic basis."""
    q, p = np.meshgrid(spec.axis(0), spec.axis(1), indexing="ij")
    return GridFunction(spec, 2.0 * np.exp(-(q * q + p * p) / spec.theta))


def gauss_excited(spec):
    """(2/theta) r^2 appears in b_11 = 2 (1 - 2 r^2/theta) exp(-r^2/theta)."""
    q, p = np.meshgrid(spec.axis(0), spec.axis(1), indexing="ij")
    r2 = q * q + p * p
    return GridFunction(spec, 2.0 * (1.0 - 2.0 * r2 / spec.theta) * np.exp(-r2 / spec.theta))


def ground_q_derivative(spec):
    """Closed form: d/dq of 2 exp(-r^2/theta) is -(2q/theta) times it."""
    q, p = np.meshgrid(spec.axis(0), spec.axis(1), indexing="ij")
    return -(2.0 * q / spec.theta) * 2.0 * np.exp(-(q * q + p * p) / spec.theta)


def ground_q2_moment(theta):
    """|| q^2 * 2 exp(-r^2/theta) ||_2 from the quartic Gaussian integral.

    The squared norm is 4 * int q^4 e^{-2q^2/t} dq * int e^{-2p^2/t} dp
    = 4 * (3 t^2/16) sqrt(pi t/2) * sqrt(pi t/2) = 3 pi t^3 / 8.
    """
    return np.sqrt(3.0 * np.pi * theta**3 / 8.0)


def random_schwartz(spec, rng, deg=2):
    grids = np.meshgrid(*[spec.axis(i) for i in range(2 * spec.n)], indexing="ij")
    r2 = sum(g * g for g in grids)
    poly = np.zeros(spec.shape, dtype=complex)
    for _ in range(deg + 1):
        term = rng.normal() + 1j * rng.normal()
        for g in grids:
            term = term * g ** rng.integers(0, deg + 1)
        poly = poly + term
    return GridFunction(spec, poly * np.exp(-r2 / spec.theta))


def lattice_vector(spec, rng, scale=3):
    steps = admissible_translations(spec)
    ints = rng.integers(-scale, scale + 1, size=2 * spec.n)
    return ints * steps


@pytest.fixture(scope="module")
def spec128():
    return GridSpec(n=1, M=128, L=6.0 * np.sqrt(2.0), theta=2.0)


@pytest.fixture(scope="module")
def spec64():
    return GridSpec(n=1, M=64, L=6.0 * np.sqrt(2.0), theta=2.0)


# ---------------------------------------------------------------------------
# coordinates and windows
# ---------------------------------------------------------------------------


def test_coordinate_index_range(spec128):
    with pytest.raises(SpecMismatch):
        coordinate_function(spec128, 2)
    with pytest.raises(SpecMismatch):
        coordinate_function(spec128, -1)


def test_window_flat_interior(spec128):
    w = window(spec128)
    mask = interior_mask(spec128)
    assert np.all(w[mask] == 1.0)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    # corners of the box are fully suppressed
    assert w[0, 0] == 0.0


def test_windowed_coordinate_matches_inside(spec128):
    xw = coordinate_function(spec128, 0)
    raw = coordinate_function(spec128, 0, windowed=False)
    mask = interior_mask(spec128)
    assert np.array_equal(xw.samples[mask], raw.samples[mask])


# ---------------------------------------------------------------------------
# spectral derivatives
# ---------------------------------------------------------------------------


def test_spectral_derivative_ground(spec128):
    f = gauss_ground(spec128)
    got = spectral_derivative(f, (1, 0)).samples
    assert np.max(np.abs(got - ground_q_derivative(spec128))) <= 1e-10


def test_spectral_derivative_arity(spec128):
    with pytest.raises(SpecMismatch):
        spectral_derivative(gauss_ground(spec128), (1,))
    # negative or fractional orders, refused before any mode is scaled
    for orders in ((-1, 0), (0, 0.5)):
        with pytest.raises(SpecMismatch):
            spectral_derivative(gauss_ground(spec128), orders)


# ---------------------------------------------------------------------------
# commutator laws
# ---------------------------------------------------------------------------


def test_commutator_ground(spec128):
    assert linear_commutator_check(0, gauss_ground(spec128)) <= 1e-3
    assert linear_commutator_check(1, gauss_ground(spec128)) <= 1e-3


def test_commutator_excited(spec128):
    assert linear_commutator_check(0, gauss_excited(spec128)) <= 1e-3
    assert linear_commutator_check(1, gauss_excited(spec128)) <= 1e-3


def test_commutator_zero(spec128):
    zero = GridFunction(spec128, np.zeros(spec128.shape))
    assert linear_commutator_check(0, zero) == 0.0


def test_heisenberg_ground(spec128):
    assert heisenberg_check(gauss_ground(spec128)) <= 1e-3


# ---------------------------------------------------------------------------
# Sobolev and Schwartz norms
# ---------------------------------------------------------------------------


def test_sobolev_k0_is_l2(spec128):
    f = gauss_ground(spec128)
    want = np.sqrt(2.0 * np.pi * spec128.theta)
    assert abs(sobolev_norm(f, 0) - want) <= 1e-8


def test_sobolev_monotone(spec128, rng):
    f = random_schwartz(spec128, rng)
    vals = [sobolev_norm(f, k) for k in range(4)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sobolev_negative_k(spec128):
    with pytest.raises(SpecMismatch):
        sobolev_norm(gauss_ground(spec128), -1)
    with pytest.raises(SpecMismatch):
        sobolev_norm(gauss_ground(spec128), 1.5)


def test_schwartz_zero_orders_is_l2(spec128, rng):
    f = random_schwartz(spec128, rng)
    assert abs(schwartz_seminorm(f, (0, 0), (0, 0)) - f.norm) <= 1e-12


def test_schwartz_gaussian_moment(spec128):
    f = gauss_ground(spec128)
    got = schwartz_seminorm(f, (2, 0), (0, 0))
    assert abs(got - ground_q2_moment(spec128.theta)) <= 1e-6


def test_schwartz_order_cap(spec128):
    f = gauss_ground(spec128)
    with pytest.raises(SpecMismatch):
        schwartz_seminorm(f, (3, 2), (0, 0))
    with pytest.raises(SpecMismatch):
        schwartz_seminorm(f, (0, 0), (5, 0))
    with pytest.raises(SpecMismatch):
        schwartz_seminorm(f, (0,), (0, 0))
    with pytest.raises(SpecMismatch):
        schwartz_seminorm(f, (-1, 0), (0, 0))
    with pytest.raises(SpecMismatch):
        schwartz_seminorm(f, (0, 0), (0, -2))


def test_schwartz_plane_wave_grows_with_box():
    vals = []
    for box in (4.0, 8.0):
        spec = GridSpec(n=1, M=64, L=box, theta=2.0)
        q, p = np.meshgrid(spec.axis(0), spec.axis(1), indexing="ij")
        wave = GridFunction(spec, np.exp(1j * (q + p)))
        vals.append(schwartz_seminorm(wave, (0, 0), (0, 0)))
    print("plane-wave L^2 mass per box half-width 4, 8:", np.round(vals, 4))
    assert all(np.isfinite(v) for v in vals)


# ---------------------------------------------------------------------------
# plane-wave BCH
# ---------------------------------------------------------------------------


def test_bch_phase_closed_form():
    # w((1,0),(0,1)) = 1, so c = exp(i/(2 theta))
    c = bch_phase((1.0, 0.0), (0.0, 1.0), 2.0)
    assert abs(c - np.exp(0.25j)) <= 1e-15


def test_bch_spot_quadrature_confirms_constant(spec64):
    """Fix the constant by raw quadrature before trusting the multiplier route.

    W_{x0} * (W_{x1} * anchor) is evaluated by direct quadrature with a
    windowed plane wave and compared against c * W_{x0+x1} * anchor at
    interior spot points.
    """
    spec = spec64
    steps = admissible_translations(spec)
    x0 = np.array([2 * steps[0], steps[1]])
    x1 = np.array([-steps[0], 3 * steps[1]])
    anchor = gauss_ground(spec)
    a2 = translation_multiplier(x1, anchor, "left")
    direct_side = translation_multiplier(x0 + x1, anchor, "left")
    q, p = np.meshgrid(spec.axis(0), spec.axis(1), indexing="ij")
    w0 = GridFunction(spec, np.exp(1j / spec.theta * (x0[0] * p - x0[1] * q)) * window(spec))
    half = spec.M // 2
    pts = [(half + i, half + j) for i in (-3, 0, 3) for j in (-2, 2)]
    got = moyal_direct(w0, a2, pts)
    c = bch_phase(x0, x1, spec.theta)
    ref = np.array([c * direct_side.samples[pt] for pt in pts])
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 1e-2


def test_bch_identity_cases(spec128):
    steps = admissible_translations(spec128)
    x0 = np.array([steps[0], -2 * steps[1]])
    zero = np.zeros(2)
    r = plane_wave_bch(x0, zero, spec128)
    assert abs(r.c_closed - 1.0) == 0.0
    assert r.residual <= 1e-9
    r = plane_wave_bch(x0, x0, spec128)
    assert abs(r.c_closed - 1.0) <= 1e-15
    assert r.residual <= 1e-9


def test_bch_generic_pairs(spec128, rng):
    for _ in range(8):
        x0 = lattice_vector(spec128, rng)
        x1 = lattice_vector(spec128, rng)
        r = plane_wave_bch(x0, x1, spec128)
        assert isinstance(r, BchResult)
        assert abs(r.c_measured) == pytest.approx(1.0, abs=1e-9)
        assert r.residual <= 1e-6


def test_bch_cocycle_exact(rng):
    theta = 2.0
    for _ in range(6):
        x0, x1, x2 = rng.normal(size=(3, 2))
        lhs = bch_phase(x0, x1, theta) * bch_phase(x0 + x1, x2, theta)
        rhs = bch_phase(x1, x2, theta) * bch_phase(x0, x1 + x2, theta)
        assert lhs == pytest.approx(rhs, abs=1e-15)


def test_star_exp_ode(spec128):
    steps = admissible_translations(spec128)
    x = np.array([steps[0], steps[1]])
    assert star_exp_ode_check(x, spec128) <= 1e-3
