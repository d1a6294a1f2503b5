"""Moyal-Weyl star product on truncated periodic grids.

Functions live on the torus [-L, L)^{2n} with M points per axis, axes ordered
(q_1 .. q_n, p_1 .. p_n) and the symplectic form w(x, y) = q_x . p_y - p_x . q_y.
Two product paths are provided: moyal_direct, a spot-point quadrature of the
oscillatory double integral with kernel exp(-(2i/theta) w(u, v)) that serves
as the oracle, and moyal_fast, the canonical full-grid path, which decomposes
one factor into plane waves and applies the exact translation-multiplier law
mode by mode.  The operator model of the algebra is matrix_basis, where
b_mn acts as |m><n| and the star product is the matrix product.

Mode convention: f(x) = sum_k c_k exp(i xi_k x) per axis with
xi_k = (pi/L) k for the integer k of fftfreq, and c_k = (-1)^k fft(f)_k / M.
The (-1)^k accounts for the grid starting at -L rather than 0.

The plane-wave product law used throughout:
    e_xi * e_eta = exp((i theta / 2) w(xi, eta)) e_{xi+eta},
equivalently e_xi * f = exp(i xi x) f(x - (theta/2) J xi) with
J(q, p) = (p, -q).  This realizes [q, p]_* = -i theta; the sign is fixed
against the direct quadrature below, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import QuadratureError, ResourceError, SpecMismatch, array, choice, gate, whole

Side = Literal["left", "right"]

_PAIR_CHUNK = 64  # products per block of f rows in _fast_pairs_2d (len(gs) if larger)
_CUTOFF = 1e-12  # split_pairs keeps singular values above this fraction of the largest

# split_pairs probe schedule: widths 8, 32, 128, ... while the width is below
# 1/16 of the M^2 x M^2 pair matrix's side, then a dense SVD.  At M = 32 a
# full-rank input wastes probes of 8 and 32 columns before the 1024 x 1024
# SVD, a few percent of its time.
_PROBE_START = 8
_PROBE_GROWTH = 4
_DENSE_SHARE = 16


@dataclass(frozen=True)
class GridSpec:
    """Phase-space truncation: 2n axes, M points each, half-widths L."""

    n: int = 1
    M: int = 128
    L: tuple[float, ...] | float | None = None
    theta: float = 2.0

    def __post_init__(self) -> None:
        whole(self.n, "number n of symplectic pairs", 1)
        if whole(self.M, "grid size M", 8) & (self.M - 1):
            raise SpecMismatch(f"M must be a power of two >= 8, got {self.M}")
        theta = float(array(self.theta, (), "theta", float))
        if theta <= 0:
            raise SpecMismatch(f"theta must be positive, got {theta}")
        half = 6.0 * np.sqrt(theta) if self.L is None else self.L
        if np.isscalar(half):
            half = (half,) * (2 * self.n)
        half = tuple(array(half, (2 * self.n,), "half-widths L", float).tolist())
        if min(half) <= 0:
            raise SpecMismatch(f"half-widths must be positive, got {half}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "L", half)
        gate(self.M ** (2 * self.n), f"grid of {self.M}^{2 * self.n} samples")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * (2 * self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(2.0 * l / self.M for l in self.L)

    @property
    def cell(self) -> float:
        return float(np.prod(self.h))

    def axis(self, i: int) -> np.ndarray:
        return -self.L[i] + self.h[i] * np.arange(self.M)

    def modes(self, i: int) -> np.ndarray:
        """Angular frequencies xi_k = (pi/L) k, fftfreq ordering."""
        return (np.pi / self.L[i]) * np.fft.fftfreq(self.M, d=1.0 / self.M)

    def alternating(self) -> np.ndarray:
        """(-1)^k in fftfreq ordering (M even, so wrap-safe)."""
        k = np.fft.fftfreq(self.M, d=1.0 / self.M).astype(int)
        return np.where(k & 1, -1.0, 1.0)


@dataclass
class GridFunction:
    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = array(self.samples, self.spec.shape, "grid samples", complex)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.spec.cell) * np.linalg.norm(self.samples))

    def conj(self) -> "GridFunction":
        return GridFunction(self.spec, np.conj(self.samples))

    def parity(self) -> "GridFunction":
        """f(x) -> f(-x) through the torus identification."""
        idx = (-np.arange(self.spec.M)) % self.spec.M
        out = self.samples
        for ax in range(out.ndim):
            out = np.take(out, idx, axis=ax)
        return GridFunction(self.spec, out)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _same_spec(self, other)
        return GridFunction(self.spec, self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _same_spec(self, other)
        return GridFunction(self.spec, self.samples - other.samples)

    def __rmul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.spec, scalar * self.samples)


def _same_spec(f: GridFunction, g: GridFunction) -> GridSpec:
    if f.spec != g.spec:
        raise SpecMismatch(f"grid specs differ: {f.spec} vs {g.spec}")
    return f.spec


def integrate(f: GridFunction) -> complex:
    return complex(f.spec.cell * f.samples.sum())


def to_modes(f: GridFunction) -> np.ndarray:
    """Coefficients c_k with f = sum c_k exp(i xi_k x), all axes."""
    out = f.samples
    m = f.spec.M
    alt = f.spec.alternating()
    for ax in range(out.ndim):
        out = np.fft.fft(out, axis=ax) * alt.reshape((-1,) + (1,) * (out.ndim - 1 - ax)) / m
    return out


def from_modes(spec: GridSpec, coeffs: np.ndarray) -> GridFunction:
    out = array(coeffs, spec.shape, "mode coefficients", complex)
    m = spec.M
    alt = spec.alternating()
    for ax in range(out.ndim):
        out = np.fft.ifft(out * alt.reshape((-1,) + (1,) * (out.ndim - 1 - ax)), axis=ax) * m
    return GridFunction(spec, out)


# ---------------------------------------------------------------------------
# direct quadrature path
# ---------------------------------------------------------------------------

def _direct_kernels(spec: GridSpec) -> list[np.ndarray]:
    """E-matrices coupling each v-axis to its conjugate u-axis.

    v-axes are contracted in order (q_1..q_n, p_1..p_n); v_{q_i} couples to
    u_{p_i} with phase +(2/theta), v_{p_i} to u_{q_i} with -(2/theta).
    """
    n, th = spec.n, spec.theta
    mats = []
    for i in range(2 * n):
        v = spec.axis(i)
        partner = i + n if i < n else i - n
        u = spec.axis(partner)
        sign = 1.0 if i < n else -1.0
        mats.append(np.exp(sign * 2j / th * np.outer(u, v)))
    return mats


def moyal_direct(f: GridFunction, g: GridFunction,
                 points: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Trapezoid quadrature of the double oscillatory integral at spot points.

    Cost is O(M^{2n+1}) per point after factoring the kernel axis by axis,
    so keep the point list short.
    """
    spec = _same_spec(f, g)
    n = spec.n
    points = array(points, (None, 2 * n), "spot points", int)
    if len(points) > 64:
        raise QuadratureError("direct path is for spot checks; pass at most 64 points")
    if any(whole(i, "point index", 0) >= spec.M for i in points.flat):
        raise SpecMismatch(f"spot points must lie in the grid [0, {spec.M})")
    mats = _direct_kernels(spec)
    pref = spec.cell ** 2 / (np.pi * spec.theta) ** (2 * n)
    values = np.empty(len(points), dtype=complex)
    for w, idx in enumerate(points):
        # align so row j of the rolled array is f(x0 + u_j) with u_j = -L + j h
        shift = tuple(spec.M // 2 - int(i) for i in idx)
        axes = tuple(range(2 * n))
        fr = np.roll(f.samples, shift, axis=axes)
        gr = np.roll(g.samples, shift, axis=axes)
        # contract each v-axis of g with its kernel; new u-axes queue at the end
        t = gr
        for mat in mats:
            t = np.tensordot(t, mat, axes=([0], [1]))
        # after 2n contractions the axes read (u_p1..u_pn, u_q1..u_qn)
        t = np.moveaxis(t, list(range(2 * n)),
                        list(range(n, 2 * n)) + list(range(n)))
        values[w] = pref * np.sum(fr * t)
    return values


# ---------------------------------------------------------------------------
# fast path: plane-wave decomposition in the momentum axis
# ---------------------------------------------------------------------------

def _dressing_phase(spec: GridSpec) -> np.ndarray:
    """P[kq, kp] = exp(i (theta/2) xi_q(kq) xi_p(kp)) for the n=1 fast path."""
    xq = spec.modes(0)
    xp = spec.modes(1)
    return np.exp(0.5j * spec.theta * np.outer(xq, xp))


def _f_step(fhats: np.ndarray, j: int, ph: np.ndarray, alt: np.ndarray) -> np.ndarray:
    """A[a, q, k] = f_a(q + (theta/2) xi_p(k), j-mode of p): momentum step j of f."""
    return len(alt) * np.fft.ifft(fhats[:, :, j][:, :, None] * ph[None] * alt[None, :, None],
                                  axis=1)


def _fast_pairs_2d(fhats: np.ndarray, ghats: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Star products f_a * g_b for every (a, b), f-major, n=1 mixed representation.

    For each momentum mode j of f the product contributes
        f(q + (theta/2) xi_p(k), j-mode) * g(q - (theta/2) xi_p(j), k-mode)
    into the output momentum mode j+k; the q-shifts are exact torus shifts
    applied as phases on the q-modes. Each step's g-side transform is taken
    once and applied to blocks of f rows, each block holding at most
    max(_PAIR_CHUNK, len(ghats)) products.
    """
    m = spec.M
    alt = spec.alternating()
    ph = _dressing_phase(spec)
    count = len(ghats)
    rows = max(1, _PAIR_CHUNK // count)
    out = np.zeros((len(fhats) * count, m, m), dtype=complex)
    for j in range(m):
        # B[b, q, k] = g_b(q - (theta/2) xi_p(j), k-mode of p)
        dress = np.conj(ph[:, j])[None, :, None]
        b = m * np.fft.ifft(ghats * dress * alt[None, :, None], axis=1)
        for lo in range(0, len(fhats), rows):
            a = _f_step(fhats[lo:lo + rows], j, ph, alt)
            prod = (a[:, None] * b[None]).reshape(-1, m, m)
            out[lo * count:lo * count + len(prod)] += np.roll(prod, j, axis=2)
    # back to physical p, block by block
    for lo in range(0, len(out), rows * count):
        block = out[lo:lo + rows * count]
        block[...] = m * np.fft.ifft(block * alt[None, None, :], axis=2)
    return out


def moyal_fast(f: GridFunction, g: GridFunction) -> GridFunction:
    """Full-grid star product via plane-wave decomposition.

    n=1 is moyal_fast_many on the one pair (f, g).  For n=2 the product
    kernel factors over the two symplectic pairs, so the pair law
        (sum_a u_a x v_a) * (sum_b u'_b x v'_b)
            = sum_{a,b} (u_a * u'_b) x (v_a * v'_b)
    is exact.  split_pairs gives the factors of both inputs by a randomized
    truncated SVD (an O(M^4 r) range finder for rank r, ending in a dense
    SVD only for near-full-rank input); moyal_fast_many forms all r_f r_g
    factor products on each pair; one GEMM over the pairs sums the tensor
    products.
    """
    spec = _same_spec(f, g)
    if spec.n == 1:
        return moyal_fast_many([f], [g])[0]
    if spec.n == 2:
        return _fast_4d(f, g)
    raise ResourceError("fast path supports n <= 2")


def moyal_fast_many(fs: Sequence[GridFunction], gs: Sequence[GridFunction]
                    ) -> list[GridFunction]:
    """All n=1 star products fs[a] * gs[b], f-major, sharing the per-mode transforms.

    Raises ResourceError before any transform when the len(fs) len(gs)
    products of M² entries each exceed `errors.MAX_ENTRIES`.
    """
    if not fs or not gs:
        return []
    spec = fs[0].spec
    for fn in list(fs) + list(gs):
        if fn.spec != spec:
            raise SpecMismatch("batched inputs must share one grid spec")
    if spec.n != 1:
        raise SpecMismatch("batched path only runs on n=1 grids")
    count = len(fs) * len(gs)
    gate(count * spec.M ** 2, f"{count} star products")
    fhats = np.stack([to_modes(fn) for fn in fs])
    ghats = np.stack([to_modes(gn) for gn in gs])
    return [GridFunction(spec, prod) for prod in _fast_pairs_2d(fhats, ghats, spec)]


def _pair_spec(spec: GridSpec, which: int) -> GridSpec:
    """2-d spec of one symplectic pair of a 4-d grid."""
    return GridSpec(n=1, M=spec.M, L=(spec.L[which], spec.L[which + 2]),
                    theta=spec.theta)


def split_pairs(f: GridFunction
                ) -> tuple[list[np.ndarray], list[np.ndarray], GridSpec, GridSpec]:
    """Singular value split of a 4-d function across its symplectic pairs.

    Returns factors u_r(q1, p1), v_r(q2, p2) with f = sum_r u_r x v_r, where
    u_r = s_r a_r and v_r = b_r^H for the singular triplets (s_r, a_r, b_r)
    of the M^2 x M^2 pair matrix A[(q1, p1), (q2, p2)] with s_r > _CUTOFF s_0
    (1e-12 s_0).

    The triplets come from the adaptive randomized range finder of Halko,
    Martinsson & Tropp, "Finding structure with randomness" (SIAM Review 53,
    2011), so a rank-r input costs O(M^4 r) instead of the O(M^6) of a dense
    SVD.  Each step multiplies A by a complex Gaussian probe block of width k
    (drawn from a fixed seed, so a call is deterministic), orthonormalises
    the result to Q by QR and takes the small SVD of B = Q^H A.  The step is
    accepted when the explicitly computed ||A - Q B||_F <= _CUTOFF s_0.  A is
    read from the (q1, q2, p1, p2) samples one q1 row block (for A probe) or
    one q2 column block (for B and the residual) at a time, so neither A nor
    the residual is ever held whole outside the dense SVD.  Then
    every singular value of A that the span of Q misses is below the same
    _CUTOFF s_0 that truncates the result, and the triplets of B agree with
    those of A to within it.  Otherwise k grows by _PROBE_GROWTH.  Once k
    reaches M^2 / _DENSE_SHARE a probe would cost a sizeable share of a
    dense SVD, so the last step is the dense SVD of A itself.
    """
    spec = f.spec
    if spec.n != 2:
        raise SpecMismatch("pair split needs a 4-d grid")
    m = spec.M
    size = m * m
    x = f.samples  # x[q1, q2, p1, p2] = A[(q1, p1), (q2, p2)]
    rng = np.random.default_rng(0)
    k = _PROBE_START
    while True:
        if k >= size // _DENSE_SHARE:
            u, s, vh = np.linalg.svd(x.transpose(0, 2, 1, 3).reshape(size, size),
                                     full_matrices=False)
            break
        probe = rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k))
        q, _ = np.linalg.qr(np.concatenate([x[q1].transpose(1, 0, 2).reshape(m, size) @ probe
                                            for q1 in range(m)]))
        qh = q.conj().T
        b = np.empty((q.shape[1], size), dtype=complex)
        resid = 0.0
        for q2 in range(m):
            cols = x[:, q2].reshape(size, m)
            block = b[:, q2 * m:(q2 + 1) * m]
            np.matmul(qh, cols, out=block)
            diff = q @ block
            diff -= cols
            resid += np.vdot(diff, diff).real
        ub, s, vh = np.linalg.svd(b, full_matrices=False)
        if np.sqrt(resid) <= _CUTOFF * s[0]:
            u = q @ ub
            break
        k *= _PROBE_GROWTH
    keep = np.flatnonzero(s > _CUTOFF * max(s[0], 1e-300))
    left = [u[:, r].reshape(m, m) * s[r] for r in keep]
    right = [vh[r].reshape(m, m) for r in keep]
    return left, right, _pair_spec(spec, 0), _pair_spec(spec, 1)


def _fast_4d(f: GridFunction, g: GridFunction) -> GridFunction:
    spec = f.spec
    m = spec.M
    fl, fr, spec1, spec2 = split_pairs(f)
    gl, gr, _, _ = split_pairs(g)
    lf = [GridFunction(spec1, x) for x in fl]
    lg = [GridFunction(spec1, x) for x in gl]
    rf = [GridFunction(spec2, x) for x in fr]
    rg = [GridFunction(spec2, x) for x in gr]
    prod1 = np.array([h.samples for h in moyal_fast_many(lf, lg)])
    prod2 = np.array([h.samples for h in moyal_fast_many(rf, rg)])
    # one GEMM sums the pair tensor products into rows (q1, p1) and columns
    # (q2, p2); the (q1, q2, p1, p2) grid is a view of it
    acc = prod1.reshape(len(prod1), m * m).T @ prod2.reshape(len(prod2), m * m)
    return GridFunction(spec, acc.reshape(m, m, m, m).transpose(0, 2, 1, 3))


# ---------------------------------------------------------------------------
# traces, Fourier multipliers, translations
# ---------------------------------------------------------------------------

def tracial_pairing(f: GridFunction, g: GridFunction) -> tuple[complex, complex]:
    """(integral of f * g, integral of f g), both by trapezoid sums."""
    _same_spec(f, g)
    star = integrate(moyal_fast(f, g))
    plain = complex(f.spec.cell * np.sum(f.samples * g.samples))
    return star, plain


def translation_multiplier(x0: Sequence[float], f: GridFunction,
                           side: Side = "left") -> GridFunction:
    """Unitary multiplier action of a phase-space translation.

    left:  f(x - x0/2) exp((i/theta) w(x0, x))
    right: f(x + x0/2) exp((i/theta) w(x0, x))
    Shifts are exact torus Fourier shifts; the phase is a plane wave that is
    grid-periodic exactly when x0 lies on the lattice of admissible_translations.
    """
    spec = f.spec
    choice(side, ("left", "right"), "side")
    x0 = array(x0, (2 * spec.n,), "translation x0", float)
    # left shifts the argument by -x0/2, right by +x0/2
    shift = 0.5 * x0 if side == "left" else -0.5 * x0
    out = f.samples
    for ax in range(2 * spec.n):
        if shift[ax] == 0.0:
            continue
        phase = np.exp(-1j * spec.modes(ax) * shift[ax]).reshape(
            (-1,) + (1,) * (2 * spec.n - 1 - ax))
        out = np.fft.ifft(np.fft.fft(out, axis=ax) * phase, axis=ax)
    n = spec.n
    grids = np.meshgrid(*[spec.axis(i) for i in range(2 * n)], indexing="ij")
    w = sum(x0[i] * grids[n + i] - x0[n + i] * grids[i] for i in range(n))
    return GridFunction(spec, out * np.exp(1j / spec.theta * w))


def admissible_translations(spec: GridSpec) -> np.ndarray:
    """Lattice spacings making the translation phase grid-periodic.

    Component i of x0 multiplies the conjugate coordinate in w(x0, x), so the
    spacing for q-components is pi theta / L_p and vice versa.
    """
    n = spec.n
    out = np.empty(2 * n)
    for i in range(n):
        out[i] = np.pi * spec.theta / spec.L[n + i]
        out[n + i] = np.pi * spec.theta / spec.L[i]
    return out

