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
from functools import lru_cache
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import QuadratureError, ResourceError, SpecMismatch, array, choice, gate, whole

Side = Literal["left", "right"]

# entries (512 KiB of complex128, so that a block stays in a core's L2 cache) of
# each working block: one side's factors in a chunk of _fast_pairs_2d, an
# output row block of _fast_4d
_CHUNK = 1 << 15
_CUTOFF = 1e-12  # split_pairs keeps singular values above this fraction of the largest
# split_pairs ends in a dense SVD once its cross approximation reaches rank
# M^2 / 16; at M = 32 a full-rank input spends a few percent of that SVD's
# time in the sweep before it
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


def _finite_grid(spec: GridSpec, samples: np.ndarray) -> GridFunction:
    """GridFunction of complex samples of spec.shape already known to be finite.

    Skips the constructor's finiteness scan, for a product whose sum of
    squares was taken while it was computed.
    """
    out = object.__new__(GridFunction)
    out.spec, out.samples = spec, samples
    return out


def _same_spec(f: GridFunction, g: GridFunction) -> GridSpec:
    if f.spec != g.spec:
        raise SpecMismatch(f"grid specs differ: {f.spec} vs {g.spec}")
    return f.spec


def integrate(f: GridFunction) -> complex:
    return complex(f.spec.cell * f.samples.sum())


@lru_cache(maxsize=16)
def _mode_scale(spec: GridSpec) -> np.ndarray:
    """(-1)^k / M in fftfreq ordering, read-only: to_modes' factor on each axis."""
    out = spec.alternating() / spec.M
    out.flags.writeable = False
    return out


def to_modes(f: GridFunction) -> np.ndarray:
    """Coefficients c_k with f = sum c_k exp(i xi_k x), all axes."""
    out = np.fft.fftn(f.samples)
    scale = _mode_scale(f.spec)
    for ax in range(out.ndim):
        out *= scale.reshape((-1,) + (1,) * (out.ndim - 1 - ax))
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

@lru_cache(maxsize=16)
def _dressing_phase(spec: GridSpec) -> np.ndarray:
    """P[kq, kp] = exp(i (theta/2) xi_q(kq) xi_p(kp)) for the n=1 fast path, read-only."""
    xq = spec.modes(0)
    xp = spec.modes(1)
    out = np.exp(0.5j * spec.theta * np.outer(xq, xp))
    out.flags.writeable = False
    return out


def _circulant(x: np.ndarray) -> np.ndarray:
    """View c[i, l, ..., j] = x[i, (l - j) mod M, ...] of x, M long on axis 1.

    The window axis j comes last; no entry is copied beyond x doubled.
    """
    m = x.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((x, x), axis=1), m, axis=1)
    return windows[:, 1:][..., ::-1]  # x[l - j] = doubled x[(l + 1) + (M - 1 - j)]


def _fast_pairs_2d(fhats: np.ndarray, ghats: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Star products f_a * g_b for every (a, b) as out[q, p, a, b], n=1 mixed representation.

    Momentum step j of f contributes
        f(q + (theta/2) xi_p(k), j-mode) * g(q - (theta/2) xi_p(j), k-mode)
    to the output momentum mode l = j + k; the q-shifts are exact torus
    shifts applied as phases on the q-modes.  Both factors are built for a
    chunk of output modes l and all steps j at once, indexed by l through
    circulant views (k = l - j), as F[kq, l, a, j] and G[kq, l, j, b]: each
    side takes one q-transform, and one batched matmul contracts over j and
    writes the chunk's output modes.  A chunk holds at most _CHUNK entries
    per side (one output mode if a mode alone is larger); one last transform
    takes the output back to physical p.
    """
    m = spec.M
    alt = spec.alternating()
    ph = _dressing_phase(spec) * alt[:, None]  # [kq, k]
    dressed = _circulant(ph)  # [kq, l, j]
    shifted = _circulant(ghats.transpose(1, 2, 0)).swapaxes(2, 3)  # [kq, l, j, b] = g_b(kq, l - j)
    undress = np.conj(ph)[:, None, :, None]  # [kq, 1, j, 1]
    fj = fhats.transpose(1, 0, 2)[:, None]  # [kq, 1, a, j]
    step = max(1, _CHUNK // (m * m * max(len(fhats), len(ghats))))
    out = np.empty((m, m, len(fhats), len(ghats)), dtype=complex)  # [q, l, a, b]
    for lo in range(0, m, step):
        a = fj * dressed[:, lo:lo + step, None]
        b = shifted[:, lo:lo + step] * undress
        np.matmul(np.fft.ifft(a, axis=0, out=a), np.fft.ifft(b, axis=0, out=b),
                  out=out[:, lo:lo + step])
    # a factor M from each q-transform and from the p-transform, and the
    # p-modes' (-1)^l of the grid starting at -L
    out *= m ** 3 * alt[:, None, None]
    return np.fft.ifft(out, axis=1, out=out)


def moyal_fast(f: GridFunction, g: GridFunction) -> GridFunction:
    """Full-grid star product via plane-wave decomposition.

    n=1 is moyal_fast_many on the one pair (f, g), O(M^3 log M) in a few
    large FFT and matmul calls.  For n=2 the product kernel factors over
    the two symplectic pairs, so the pair law
        (sum_a u_a x v_a) * (sum_b u'_b x v'_b)
            = sum_{a,b} (u_a * u'_b) x (v_a * v'_b)
    is exact.  split_pairs gives the factors of both inputs by a checked
    cross approximation (O(M^4 r) for rank r, ending in a dense SVD only for
    near-full-rank input); moyal_fast_many forms all r_f r_g factor
    products on each pair; real GEMMs over the pairs (_real_factors), one
    per output row block of _CHUNK entries, sum the tensor products.

    The output's finiteness is checked where it is computed: at n=1 by one
    sum of squares over moyal_fast_many's product array, at n=2 by each row
    block's sum of squares, taken right after its GEMM (see _fast_4d).
    Neither rescans the output; a sum that is not finite falls back to the
    GridFunction constructor's check.
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

    The products' samples are views of one (M, M, len(fs), len(gs)) array,
    checked finite by one sum of squares over all of it; only when that sum
    is not finite does each product go through the GridFunction constructor.

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
    prods = _fast_pairs_2d(fhats, ghats, spec)
    # one sum of squares checks every product (errors._finite's rule)
    flat = prods.view(float).ravel()
    wrap = _finite_grid if np.isfinite(np.vdot(flat, flat)) else GridFunction
    return [wrap(spec, prods[:, :, a, b]) for a in range(len(fs)) for b in range(len(gs))]


@lru_cache(maxsize=16)
def _pair_spec(spec: GridSpec, which: int) -> GridSpec:
    """2-d spec of one symplectic pair of a 4-d grid."""
    return GridSpec(n=1, M=spec.M, L=(spec.L[which], spec.L[which + 2]),
                    theta=spec.theta)


def _real_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real operands of a complex product: left @ right is (a @ b).view(float).

    left = [Re a, Im a]; right stacks the float views of b and of i b, whose
    rows interleave (Re b, Im b) and (-Im b, Re b).  At the small inner
    dimensions of the pair split and the pair sums, OpenBLAS runs this real
    GEMM faster than the complex one.
    """
    right = np.ascontiguousarray(np.concatenate((b, 1j * b)))  # C order, whatever b's
    return np.concatenate((a.real, a.imag), axis=1), right.view(float)


def _residual_blocks(x: np.ndarray, u: np.ndarray, vh: np.ndarray) -> Iterator[np.ndarray]:
    """Slabs of u vh - A for the pair matrix A of samples x, one q1 at a time.

    Slab q1 holds the rows (q1, p1) for all p1, as (q2, p1, p2) like the
    samples' own x[q1], in one reused (M, M, M) buffer: one batched real
    GEMM (_real_factors) of u's M rows (q1, .) against each of vh's M column
    blocks (q2, .), less x[q1] in place.  So A is read once, in its stored
    order, and never copied.
    """
    m = len(x)
    left, right = _real_factors(u, vh)
    blocks = np.ascontiguousarray(right.reshape(-1, m, 2 * m).swapaxes(0, 1))  # (q2, 2r, 2 p2)
    slab = np.empty((m, m, m), dtype=complex)  # (q2, p1, p2)
    for q1 in range(m):
        np.matmul(left[m * q1:m * (q1 + 1)], blocks, out=slab.view(float))
        np.subtract(slab, x[q1], out=slab)
        yield slab


def _residual(x: np.ndarray, u: np.ndarray, vh: np.ndarray) -> float:
    """||A - u vh||_F over all of the pair matrix A of samples x."""
    return float(np.sqrt(sum(np.vdot(b, b).real for b in _residual_blocks(x, u, vh))))


def _worst_row(x: np.ndarray, u: np.ndarray, vh: np.ndarray) -> int:
    """Row (q1, p1) of the pair matrix that holds the largest entry of |A - u vh|."""
    m = len(x)
    best, row = -1.0, 0
    for q1, slab in enumerate(_residual_blocks(x, u, vh)):
        mag = np.abs(slab)
        at = int(np.argmax(mag))  # (q2, p1, p2) in the slab
        if mag.flat[at] > best:
            best, row = mag.flat[at], m * q1 + at // m % m
    return row


def split_pairs(f: GridFunction
                ) -> tuple[list[np.ndarray], list[np.ndarray], GridSpec, GridSpec]:
    """Singular value split of a 4-d function across its symplectic pairs.

    Returns factors u_r(q1, p1), v_r(q2, p2) with f = sum_r u_r x v_r, where
    u_r = s_r a_r and v_r = b_r^H for the singular triplets (s_r, a_r, b_r)
    of the M^2 x M^2 pair matrix A[(q1, p1), (q2, p2)] with s_r > _CUTOFF s_0
    (1e-12 s_0).

    The triplets come from partially pivoted adaptive cross approximation
    (Bebendorf, "Approximation of boundary element matrices", Numer. Math.
    86, 2000), so a rank-r input costs O(M^4 r) instead of the O(M^6) of a
    dense SVD.  The sweep starts at the centre row (q1, p1) = (M/2, M/2).
    Each step reads one residual row of A, pivots on its largest entry,
    reads that residual column, and moves to the row of the column's largest
    entry among the rows not yet used.  It stops at a pivot of exactly 0 or
    at a cross whose norm is below _CUTOFF times the first cross's.  The QRs
    of both factor stacks and the SVD of their small core give the triplets
    of the approximant.  One pass over A then computes ||A - U diag(s) V^H||_F
    exactly, in the samples' stored order: one contiguous (q2, p1, p2) slab
    x[q1] at a time, the approximant's slab by one batched real GEMM and
    subtracted in place.  It accepts when the norm is at most _CUTOFF s_0:
    every singular value of A that the approximant misses is below the same
    _CUTOFF s_0 that truncates the result, and the triplets agree with those
    of A to within it.  Otherwise a second pass finds the largest residual
    entry and the sweep resumes from its row, always taking that first
    cross, so each failed check adds rank.  The second pass stays apart
    because a merged one would tax every check, and most checks pass (every
    input of the benchmark's `star-n2` passes its first): per (M, M, M) slab
    at M = 32, rank 2, one BLAS thread, the GEMM takes 27 us, the check's
    `vdot` 13-17 us, a row-norm accumulation 35-39 us and the second pass's
    abs and argmax 75-77 us; one whole check takes 2.5-3.0 ms on star-n2's
    inputs.  A is read only
    through these rows, columns and passes, never copied, except that once
    the rank reaches M^2 / _DENSE_SHARE the split is the dense SVD of A
    itself.  No step is random, so a call is deterministic.
    """
    spec = f.spec
    if spec.n != 2:
        raise SpecMismatch("pair split needs a 4-d grid")
    m = spec.M
    size = m * m
    x = f.samples  # x[q1, q2, p1, p2] = A[(q1, p1), (q2, p2)]
    limit = size // _DENSE_SHARE
    cols = np.empty((size, limit), dtype=complex)  # A ~ cols[:, :rank] @ rows[:rank]
    rows = np.empty((limit, size), dtype=complex)
    used = np.zeros(size, dtype=bool)
    rank, first = 0, 0.0
    i = size // 2 + m // 2  # the centre row (q1, p1) = (M/2, M/2)
    while True:
        start = rank
        while rank < limit:
            used[i] = True
            row = x[i // m, :, i % m].ravel() - cols[i, :rank] @ rows[:rank]
            j = int(np.argmax(np.abs(row)))
            if row[j] == 0:
                break
            col = x[:, j // m, :, j % m].ravel() - cols[:, :rank] @ rows[:rank, j]
            cross = np.linalg.norm(col) * np.linalg.norm(row) / abs(row[j])
            # a resumed sweep keeps its first cross, or a failed check could recur
            if rank > start and cross < _CUTOFF * first:
                break
            first = first or cross
            cols[:, rank] = col
            rows[rank] = row / row[j]
            rank += 1
            score = np.abs(col)
            score[used] = -1.0
            i = int(np.argmax(score))
        if rank == limit:
            u, s, vh = np.linalg.svd(x.transpose(0, 2, 1, 3).reshape(size, size),
                                     full_matrices=False)
            break
        qu, ru = np.linalg.qr(cols[:, :rank])
        qv, rv = np.linalg.qr(rows[:rank].T)
        w, s, zh = np.linalg.svd(ru @ rv.T)
        u, vh = qu @ w, zh @ qv.T
        if _residual(x, u * s, vh) <= _CUTOFF * s.max(initial=0.0):
            break
        i = _worst_row(x, u * s, vh)
    keep = np.flatnonzero(s > _CUTOFF * s.max(initial=1e-300))
    left = [u[:, r].reshape(m, m) * s[r] for r in keep]
    right = [vh[r].reshape(m, m) for r in keep]
    return left, right, _pair_spec(spec, 0), _pair_spec(spec, 1)


def _fast_4d(f: GridFunction, g: GridFunction) -> GridFunction:
    """n=2 moyal_fast: split both inputs, multiply the pair factors, sum the tensor products.

    The sum of squares of each accumulation row block is taken right after
    its GEMM, while the block is still in cache.  A finite total means every
    entry is finite (errors._finite's rule), so the product is wrapped
    without a second scan of its M^4 entries; a NaN, an inf or entries
    above about 1e154 make the total non-finite, and then the GridFunction
    constructor decides, as for any other samples.
    """
    spec = f.spec
    m = spec.M
    fl, fr, spec1, spec2 = split_pairs(f)
    gl, gr, _, _ = split_pairs(g)
    lf = [GridFunction(spec1, x) for x in fl]
    lg = [GridFunction(spec1, x) for x in gl]
    rf = [GridFunction(spec2, x) for x in fr]
    rg = [GridFunction(spec2, x) for x in gr]
    prod1 = np.array([h.samples for h in moyal_fast_many(lf, lg)]).reshape(-1, m * m)
    prod2 = np.array([h.samples for h in moyal_fast_many(rf, rg)]).reshape(-1, m * m)
    # acc = prod1^T prod2 sums the pair tensor products into rows (q1, p1) and
    # columns (q2, p2), one real GEMM per L2-sized row block; the
    # (q1, q2, p1, p2) grid is a view of it
    left, right = _real_factors(prod1.T, prod2)
    acc = np.empty((m * m, m * m), dtype=complex)
    flat = acc.view(float)
    rows = max(1, _CHUNK // (m * m))
    square = 0.0  # of every entry, summed block by block while it is in cache
    for lo in range(0, m * m, rows):
        block = flat[lo:lo + rows]
        np.matmul(left[lo:lo + rows], right, out=block)
        square += float(np.vdot(block, block))
    samples = acc.reshape(m, m, m, m).transpose(0, 2, 1, 3)
    if np.isfinite(square):
        return _finite_grid(spec, samples)
    return GridFunction(spec, samples)  # an overflowed sum: the entrywise scan decides


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

