"""Star product, symplectic Fourier, translations.

The oracles here are deliberately primitive: closed-form Gaussians sampled
straight from their formulas and an unfactored double-sum quadrature.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkit import moyal
from hdqkit.errors import InvalidArgument, QuadratureError, ResourceError, SpecMismatch
from hdqkit.moyal import (
    GridFunction,
    GridSpec,
    admissible_translations,
    from_modes,
    integrate,
    moyal_direct,
    moyal_fast,
    moyal_fast_many,
    split_pairs,
    to_modes,
    translation_multiplier,
)

TWO_PI_THETA = 2.0 * np.pi * 2.0


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def closed_basis(spec, m, n):
    """First few b_mn written out longhand, no recurrences.

    With the product kernel used here the ground state is annihilated by
    q - i p from the left, so the raising direction n > m carries powers of
    the conjugate variable q - i p.
    """
    th = spec.theta
    q = spec.axis(0)[:, None]
    p = spec.axis(1)[None, :]
    w = np.sqrt(2.0 / th) * (q - 1j * p)
    r2 = q * q + p * p
    g = np.exp(-r2 / th)
    if (m, n) == (0, 0):
        val = 2.0 * g
    elif (m, n) == (0, 1):
        val = 2.0 * w * g
    elif (m, n) == (1, 0):
        val = 2.0 * np.conj(w) * g
    elif (m, n) == (1, 1):
        val = 2.0 * (2.0 * r2 / th - 1.0) * g
    elif (m, n) == (0, 2):
        val = np.sqrt(2.0) * w * w * g
    else:
        raise ValueError("oracle only covers indices up to (1,1) and (0,2)")
    return GridFunction(spec, val)


def naive_direct_point(f, g, idx):
    """Double trapezoid sum with no factorization at all (n=1)."""
    spec = f.spec
    th = spec.theta
    uq, up = spec.axis(0), spec.axis(1)
    half = spec.M // 2
    fr = np.roll(f.samples, (half - idx[0], half - idx[1]), axis=(0, 1))
    gr = np.roll(g.samples, (half - idx[0], half - idx[1]), axis=(0, 1))
    total = 0.0 + 0.0j
    for a in range(spec.M):
        for b in range(spec.M):
            phase = np.exp(-2j / th * (uq[a] * up[None, :] - up[b] * uq[:, None]))
            total += fr[a, b] * np.sum(gr * phase)
    return total * spec.cell ** 2 / (np.pi * th) ** 2


def random_schwartz(spec, rng, deg=2):
    """Random polynomial times the centered Gaussian, sampled exactly."""
    axes = [spec.axis(i) for i in range(2 * spec.n)]
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = sum(g * g for g in grids)
    out = np.zeros(spec.shape, dtype=complex)
    for _ in range(deg + 1):
        powers = rng.integers(0, deg + 1, size=2 * spec.n)
        coeff = rng.normal() + 1j * rng.normal()
        term = np.ones(spec.shape)
        for g, k in zip(grids, powers):
            term = term * g ** k
        out += coeff * term
    return GridFunction(spec, out * np.exp(-r2 / spec.theta))


@pytest.fixture(scope="module")
def spec128():
    return GridSpec(M=128, theta=2.0)


@pytest.fixture(scope="module")
def spec64():
    return GridSpec(M=64, theta=2.0)


def rel(err, ref):
    return err / max(ref, 1e-300)


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_sizes():
    with pytest.raises(SpecMismatch):
        GridSpec(M=100)
    with pytest.raises(SpecMismatch):
        GridSpec(M=4)
    with pytest.raises(SpecMismatch):
        GridSpec(theta=0.0)
    with pytest.raises(SpecMismatch):
        GridSpec(n=1, L=(1.0, 2.0, 3.0))
    with pytest.raises(SpecMismatch):
        GridSpec(n=0)
    # integer-valued floats too: n and M count axes and points
    for bad in ({"M": 8.0}, {"M": 64.0}, {"n": 1.5}, {"n": 1.0}):
        with pytest.raises(SpecMismatch):
            GridSpec(**bad)
    # a NaN compares False with 0, so only a finiteness check refuses it
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SpecMismatch):
            GridSpec(theta=bad)
        with pytest.raises(SpecMismatch):
            GridSpec(L=bad)
        with pytest.raises(SpecMismatch):
            GridSpec(n=1, L=(1.0, bad))


def test_spec_memory_gate():
    with pytest.raises(ResourceError):
        GridSpec(n=2, M=128)


def test_pair_batch_memory_gate():
    # the n = 2 product sends all r_f r_g factor pairs here: two full-rank
    # M = 32 grids give 1024² pairs, 2³⁰ entries of products per side. A batch
    # of 257 × 256 = 65,792 pairs, above 2²⁶ / 32² = 2¹⁶, is refused before
    # any mode is transformed.
    spec = GridSpec(n=1, M=32, L=4.5 * np.sqrt(2.0), theta=2.0)
    h = GridFunction(spec, np.ones(spec.shape))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            moyal_fast_many([h] * 257, [h] * 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_default_spec_box():
    spec = GridSpec(theta=2.0)
    assert spec.L == (6.0 * np.sqrt(2.0),) * 2
    assert spec.h[0] == pytest.approx(12.0 * np.sqrt(2.0) / 128)


def test_mode_roundtrip(spec64, rng):
    f = random_schwartz(spec64, rng)
    back = from_modes(spec64, to_modes(f))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12


def test_modes_match_plane_wave(spec64):
    # a single coefficient must reproduce exp(i xi x) sampled on the grid
    coeffs = np.zeros((64, 64), dtype=complex)
    coeffs[3, 61] = 1.0
    f = from_modes(spec64, coeffs)
    xq = spec64.axis(0)[:, None]
    xp = spec64.axis(1)[None, :]
    wave = np.exp(1j * (spec64.modes(0)[3] * xq + spec64.modes(1)[61] * xp))
    assert np.max(np.abs(f.samples - wave)) < 1e-12


def test_parity_is_involution(spec64, rng):
    f = random_schwartz(spec64, rng)
    assert np.array_equal(f.parity().parity().samples, f.samples)


def test_parity_flips_odd_basis(spec64):
    b01 = closed_basis(spec64, 0, 1)
    assert np.max(np.abs(b01.parity().samples + b01.samples)) < 1e-12


def test_integrate_diagonal_basis(spec128):
    assert integrate(closed_basis(spec128, 0, 0)) == pytest.approx(TWO_PI_THETA, rel=1e-8)
    assert integrate(closed_basis(spec128, 1, 1)) == pytest.approx(TWO_PI_THETA, rel=1e-8)
    assert abs(integrate(closed_basis(spec128, 0, 1))) < 1e-10


def test_norm_of_ground_state(spec128):
    # <b00, b00> = 2 pi theta
    assert closed_basis(spec128, 0, 0).norm == pytest.approx(np.sqrt(TWO_PI_THETA), rel=1e-9)


def test_spec_mismatch_in_arithmetic(spec64, spec128):
    f = closed_basis(spec64, 0, 0)
    g = closed_basis(spec128, 0, 0)
    with pytest.raises(SpecMismatch):
        _ = f + g


# ---------------------------------------------------------------------------
# direct quadrature
# ---------------------------------------------------------------------------

def test_direct_equals_naive_sum(rng):
    spec = GridSpec(M=32, L=6.0 * np.sqrt(2.0), theta=2.0)
    f = random_schwartz(spec, rng)
    g = random_schwartz(spec, rng)
    points = [(16, 16), (10, 20), (3, 29)]
    got = moyal_direct(f, g, points)
    want = np.array([naive_direct_point(f, g, idx) for idx in points])
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_direct_ground_state_idempotent(spec128):
    b00 = closed_basis(spec128, 0, 0)
    points = [(64, 64), (50, 70), (80, 64), (64, 90), (40, 40)]
    got = moyal_direct(b00, b00, points)
    want = np.array([b00.samples[idx] for idx in points])
    assert np.max(np.abs(got - want)) < 1e-3


def test_direct_zero_factor(spec64):
    b00 = closed_basis(spec64, 0, 0)
    zero = GridFunction(spec64, np.zeros(spec64.shape))
    got = moyal_direct(b00, zero, [(32, 32), (10, 50)])
    assert np.array_equal(got, np.zeros(2, dtype=complex))


def test_direct_b01_squares_to_zero(spec128):
    b01 = closed_basis(spec128, 0, 1)
    got = moyal_direct(b01, b01, [(64, 64), (60, 70), (75, 55)])
    assert np.max(np.abs(got)) < 1e-6


def test_direct_point_budget(spec64):
    b00 = closed_basis(spec64, 0, 0)
    with pytest.raises(QuadratureError):
        moyal_direct(b00, b00, [(0, 0)] * 65)


def test_direct_rejects_points_off_the_grid():
    # both points would wrap onto (0, 3)
    spec = GridSpec(n=1, M=16, L=4.0, theta=2.0)
    b00 = closed_basis(spec, 0, 0)
    for point in [(16, 3), (-16, 3)]:
        with pytest.raises(SpecMismatch):
            moyal_direct(b00, b00, [point])


# ---------------------------------------------------------------------------
# fast path
# ---------------------------------------------------------------------------

def test_fast_matches_direct_at_spots(spec64, rng):
    f = random_schwartz(spec64, rng)
    g = random_schwartz(spec64, rng)
    h = moyal_fast(f, g)
    points = [(32, 32), (20, 40), (45, 12), (8, 55), (33, 31), (50, 50)]
    direct = moyal_direct(f, g, points)
    fast = np.array([h.samples[idx] for idx in points])
    scale = max(np.max(np.abs(direct)), 1e-300)
    assert np.max(np.abs(fast - direct)) / scale < 1e-3


def test_fast_ground_state_idempotent(spec128):
    b00 = closed_basis(spec128, 0, 0)
    h = moyal_fast(b00, b00)
    assert rel((h - b00).norm, b00.norm) < 1e-3


def test_fast_zero_factor(spec64):
    f = closed_basis(spec64, 1, 1)
    zero = GridFunction(spec64, np.zeros(spec64.shape))
    assert moyal_fast(f, zero).norm == 0.0


def test_fast_offdiagonal_products(spec128):
    b01 = closed_basis(spec128, 0, 1)
    b10 = closed_basis(spec128, 1, 0)
    b00 = closed_basis(spec128, 0, 0)
    b11 = closed_basis(spec128, 1, 1)
    # these two orderings tell the orientation of the product apart
    assert rel((moyal_fast(b01, b10) - b00).norm, b00.norm) < 1e-3
    assert rel((moyal_fast(b10, b01) - b11).norm, b11.norm) < 1e-3
    assert moyal_fast(b01, closed_basis(spec128, 0, 1)).norm < 1e-3 * b00.norm


def test_fast_associativity(spec64, rng):
    trips = [
        (closed_basis(spec64, 0, 0), closed_basis(spec64, 0, 1), closed_basis(spec64, 1, 1)),
        (closed_basis(spec64, 1, 0), closed_basis(spec64, 0, 1), closed_basis(spec64, 1, 0)),
        (random_schwartz(spec64, rng), random_schwartz(spec64, rng),
         random_schwartz(spec64, rng)),
    ]
    for f, g, h in trips:
        left = moyal_fast(moyal_fast(f, g), h)
        right = moyal_fast(f, moyal_fast(g, h))
        scale = max(left.norm, right.norm, 1e-300)
        assert (left - right).norm / scale < 1e-3


def test_fast_many_agrees_with_single(spec64, rng):
    fs = [random_schwartz(spec64, rng) for _ in range(3)]
    gs = [random_schwartz(spec64, rng) for _ in range(2)]
    pairs = [(a, b) for a in range(3) for b in range(2)]
    batch = moyal_fast_many(fs, gs)
    assert len(batch) == len(pairs)
    for (a, b), got in zip(pairs, batch):
        want = moyal_fast(fs[a], gs[b])
        assert (got - want).norm < 1e-12 * max(want.norm, 1.0)


def test_fast_many_across_chunks(rng, monkeypatch):
    # 3 x 40 products in blocks of max(64, 40): one f row, so at each of the
    # M = 8 momentum steps the f side is transformed in 3 blocks
    spec = GridSpec(n=1, M=8, L=3.0, theta=2.0)
    fs = [random_schwartz(spec, rng) for _ in range(3)]
    gs = [random_schwartz(spec, rng) for _ in range(40)]
    blocks = []
    kernel = moyal._f_step
    monkeypatch.setattr(moyal, "_f_step",
                        lambda fh, j, ph, alt: blocks.append(len(fh)) or kernel(fh, j, ph, alt))
    batch = moyal_fast_many(fs, gs)
    monkeypatch.undo()
    assert blocks == [1, 1, 1] * spec.M and len(batch) == 120
    for k, got in enumerate(batch):
        want = moyal_fast(fs[k // 40], gs[k % 40])
        assert (got - want).norm <= 1e-12 * want.norm


def test_fast_many_rejects_mixed_specs(spec64, spec128):
    f = closed_basis(spec64, 0, 0)
    g = closed_basis(spec128, 0, 0)
    with pytest.raises(SpecMismatch):
        moyal_fast_many([f], [g])


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_tracial_pairing_offdiagonal(spec128):
    from hdqkit.moyal import tracial_pairing
    star, plain = tracial_pairing(closed_basis(spec128, 0, 1),
                                  closed_basis(spec128, 1, 0))
    assert star == pytest.approx(TWO_PI_THETA, rel=1e-6)
    assert plain == pytest.approx(TWO_PI_THETA, rel=1e-6)


def test_tracial_pairing_ground_state(spec128):
    from hdqkit.moyal import tracial_pairing
    b00 = closed_basis(spec128, 0, 0)
    star, plain = tracial_pairing(b00, b00)
    assert abs(star - plain) / abs(plain) < 1e-6
    assert plain == pytest.approx(TWO_PI_THETA, rel=1e-6)


def test_tracial_pairing_zero(spec64):
    from hdqkit.moyal import tracial_pairing
    zero = GridFunction(spec64, np.zeros(spec64.shape))
    star, plain = tracial_pairing(closed_basis(spec64, 1, 1), zero)
    assert star == 0 and plain == 0


def test_tracial_pairing_random(spec64, rng):
    from hdqkit.moyal import tracial_pairing
    for _ in range(5):
        star, plain = tracial_pairing(random_schwartz(spec64, rng),
                                      random_schwartz(spec64, rng))
        assert abs(star - plain) <= 1e-6 * max(abs(plain), 1e-6)


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------

def test_translation_zero_is_identity(spec64, rng):
    f = random_schwartz(spec64, rng)
    for side in ("left", "right"):
        out = translation_multiplier((0.0, 0.0), f, side)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-14


def test_translation_isometry(spec64, rng):
    lat = admissible_translations(spec64)
    x0 = (2.0 * lat[0], -1.0 * lat[1])
    for side in ("left", "right"):
        f = random_schwartz(spec64, rng)
        assert translation_multiplier(x0, f, side).norm == pytest.approx(f.norm, rel=1e-12)


def test_translation_multiplier_identity(spec64, rng):
    # f * L(g) = R(f) * g is the defining two-sidedness of the pair
    lat = admissible_translations(spec64)
    x0 = (1.0 * lat[0], 2.0 * lat[1])
    f = random_schwartz(spec64, rng)
    g = random_schwartz(spec64, rng)
    lhs_g = translation_multiplier(x0, g, "left")
    rhs_f = translation_multiplier(x0, f, "right")
    points = [(32, 32), (25, 40), (44, 20), (36, 30)]
    lhs = moyal_direct(f, lhs_g, points)
    rhs = moyal_direct(rhs_f, g, points)
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(1.0, np.max(np.abs(lhs)))


def test_translation_checks_arity(spec64):
    with pytest.raises(SpecMismatch):
        translation_multiplier((1.0,), closed_basis(spec64, 0, 0), "left")
    with pytest.raises(InvalidArgument):
        translation_multiplier((0.0, 0.0), closed_basis(spec64, 0, 0), "sideways")


# ---------------------------------------------------------------------------
# two symplectic pairs
# ---------------------------------------------------------------------------

def separable_sum(spec, us, vs):
    """sum_r u_r(q1, p1) v_r(q2, p2) on a 4-d grid."""
    return GridFunction(spec, np.einsum("rac,rbd->abcd", np.array(us),
                                        np.array(vs), optimize=True))


def test_fast_4d_matches_direct(rng):
    spec = GridSpec(n=2, M=32, L=6.0 * np.sqrt(2.0), theta=2.0)
    pair = GridSpec(n=1, M=32, L=6.0 * np.sqrt(2.0), theta=2.0)
    parts = [random_schwartz(pair, rng).samples for _ in range(4)]
    f = separable_sum(spec, [parts[0], 0.5 * parts[2]], [parts[1], parts[3]])
    g = separable_sum(spec, [parts[3]], [parts[0]])
    h = moyal_fast(f, g)
    points = [(16, 16, 16, 16), (12, 20, 18, 14)]
    direct = moyal_direct(f, g, points)
    fast = np.array([h.samples[idx] for idx in points])
    scale = max(np.max(np.abs(direct)), 1e-300)
    # L = 6 sqrt(theta) at M = 32 is below Nyquist (M >= 4 L^2 / (pi theta)
    # needs M >= 45.8); measured 3.6e-8 worst over rng seeds 0-4
    assert np.max(np.abs(fast - direct)) / scale < 1e-7


# the star-n2 benchmark grid: M = 32 meets Nyquist at L = 4.5 sqrt(theta)
NYQUIST_4D = GridSpec(n=2, M=32, L=4.5 * np.sqrt(2.0), theta=2.0)
NYQUIST_PAIR = GridSpec(n=1, M=32, L=4.5 * np.sqrt(2.0), theta=2.0)


def pair_factors(rng, count):
    return [random_schwartz(NYQUIST_PAIR, rng).samples for _ in range(count)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_split_pairs_separable(rank, seed):
    rng = np.random.default_rng(seed)
    us, vs = pair_factors(rng, rank), pair_factors(rng, rank)
    f = separable_sum(NYQUIST_4D, us, vs)
    left, right, _, _ = split_pairs(f)
    assert len(left) == len(right) == rank
    rec = separable_sum(NYQUIST_4D, left, right).samples
    assert np.abs(rec - f.samples).max() <= 1e-13 * np.abs(f.samples).max()
    # f's pair matrix is U V^T = Q_u (R_u R_v^T) Q_v^T: same singular values
    # as the rank x rank core
    _, r_u = np.linalg.qr(np.array([u.ravel() for u in us]).T)
    _, r_v = np.linalg.qr(np.array([v.ravel() for v in vs]).T)
    want = np.linalg.svd(r_u @ r_v.T, compute_uv=False)
    got = np.array([np.linalg.norm(u) for u in left])
    assert np.abs(got - want).max() <= 1e-12 * want.min()


def test_split_pairs_full_rank_matches_dense_svd():
    q1, q2, p1, p2 = np.meshgrid(*[NYQUIST_4D.axis(i) for i in range(4)],
                                 indexing="ij")
    f = GridFunction(NYQUIST_4D,
                     np.exp(-((q1 - q2) ** 2 + (p1 + p2) ** 2 + 0.3 * q1 * p2)))
    left, right, _, _ = split_pairs(f)
    s = np.linalg.svd(f.samples.transpose(0, 2, 1, 3).reshape(32 * 32, -1),
                      compute_uv=False)
    # far more factors than any probe width: the split ended in a dense SVD
    assert len(left) == np.sum(s > 1e-12 * s[0]) > 32
    # the error is the discarded tail (150 values below 1e-12 s_0, 1e-6 in
    # Frobenius norm), plus rounding
    rec = separable_sum(NYQUIST_4D, left, right).samples
    err = np.linalg.norm(rec - f.samples)
    tail = np.linalg.norm(s[len(left):])
    assert err <= tail + 1e-13 * np.linalg.norm(f.samples)


def test_split_pairs_is_deterministic(rng):
    f = separable_sum(NYQUIST_4D, pair_factors(rng, 3), pair_factors(rng, 3))
    first, second = split_pairs(f), split_pairs(f)
    for a, b in zip(first[0] + first[1], second[0] + second[1]):
        assert np.array_equal(a, b)


def test_split_pairs_resumes_where_the_check_fails(rng, monkeypatch):
    # two terms with disjoint supports in both pairs: the sweep from the
    # centre row sees only the first, so the first check fails and the sweep
    # resumes from the row of the largest residual entry
    def block(support):
        out = np.zeros((32, 32), dtype=complex)
        shape = out[support].shape
        out[support] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return out

    us = [block(np.s_[12:20, 12:20]), block(np.s_[0:4, 0:4])]
    vs = [block(np.s_[12:20, 12:20]), block(np.s_[26:32, 26:32])]
    f = separable_sum(NYQUIST_4D, us, vs)
    checks = []
    residual = moyal._residual
    monkeypatch.setattr(moyal, "_residual", lambda *a: checks.append(1) or residual(*a))
    left, right, _, _ = split_pairs(f)
    assert len(left) == len(right) == 2
    rec = separable_sum(NYQUIST_4D, left, right).samples
    # measured 2.9e-16
    assert np.abs(rec - f.samples).max() <= 1e-13 * np.abs(f.samples).max()
    assert len(checks) == 2


def test_split_pairs_of_zero_is_empty(rng):
    zero = GridFunction(NYQUIST_4D, np.zeros(NYQUIST_4D.shape))
    assert split_pairs(zero)[:2] == ([], [])
    f = separable_sum(NYQUIST_4D, pair_factors(rng, 2), pair_factors(rng, 2))
    for h in (moyal_fast(zero, f), moyal_fast(f, zero)):
        assert not np.any(h.samples)


def test_fast_4d_obeys_pair_law(rng):
    us, vs = pair_factors(rng, 2), pair_factors(rng, 2)
    us2, vs2 = pair_factors(rng, 3), pair_factors(rng, 3)
    h = moyal_fast(separable_sum(NYQUIST_4D, us, vs),
                   separable_sum(NYQUIST_4D, us2, vs2)).samples

    def star(a, b):
        return moyal_fast(GridFunction(NYQUIST_PAIR, a),
                          GridFunction(NYQUIST_PAIR, b)).samples

    want = separable_sum(
        NYQUIST_4D,
        [star(u, u2) for u in us for u2 in us2],
        [star(v, v2) for v in vs for v2 in vs2]).samples
    assert np.abs(h - want).max() <= 1e-13 * np.abs(want).max()
