"""Laguerre matrix basis for one symplectic pair.

The functions b_mn diagonalize the star product: b_mn * b_kl = d_nk b_ml,
so coefficient matrices multiply like ordinary matrices.  For n >= m,

    b_mn = 2 (-1)^m sqrt(m!/n!) (sqrt(2/theta) (q - i p))^{n-m}
           L_m^{(n-m)}(2 r^2 / theta) exp(-r^2 / theta),

and b_mn = conj(b_nm) below the diagonal.  The conjugate variable q - i p
in the raising direction is forced by the star-product kernel orientation:
(q - i p) * b_00 = 0, so q - i p plays the annihilator role and b_mn acts
like |m><n|.  Normalization: <b_mn, b_kl> = 2 pi theta d_mk d_nl and the
integral of b_mm is 2 pi theta.  So transform is the Weyl map W written in
the oscillator basis, and test_star_matrix_functoriality checks
W(f * g) = W(f) W(g).

The basis is sampled in factored form (the Hermite-Gaussian/Laguerre-
Gaussian identity, Beijersbergen et al., Opt. Commun. 96, 1993):
b_mn(q, p) = sum_k B_N[k, m] psi_k(q) psi_{N-k}(p) with N = m + n and psi_k
the orthonormal Hermite function of s = x sqrt(2/theta).  Column m of B_N is
2 sqrt(pi) times the two-mode state |m, N-m> with m quanta of the circular
mode A = (a_q^+ + i a_p^+)/sqrt(2) and N - m of B = (a_q^+ - i a_p^+)/sqrt(2),
in Cartesian quanta k.  The stable two-term step (as for Wigner d-matrices,
Risbo 1996) N |m, N-m> = sqrt(m) A^+ |m-1, N-m> + sqrt(N-m) B^+ |m, N-m-1>
builds it.  TruncationError means that the grid does not resolve the basis:
psi_0 .. psi_{2 trunc - 2} sampled on an axis are not orthonormal to
_GRAM_TOL, as they reach the box edge or outrun the spacing.

A transform is two grid products with the real Hermite table and one
contraction of each degree N's anti-diagonal with B_N.  The M x M side of
the grid products is one real GEMM on the interleaved float view of the
complex samples (a real matrix times complex data needs no complex
arithmetic); the small side, S x M by M x S with S = 2 trunc - 1, stays
complex.  S is odd, so B_N and B_{S-1-N} fill one (S + 1) x (S + 1)
block-diagonal slot and the middle block sits alone; all slots are
contracted by one batched matmul between one gather and one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecMismatch, TruncationError, array, choice, gate, whole
from .moyal import GridFunction, GridSpec

# The Gram error of the sampled Hermite functions bounds the transforms'
# round-trip error; 1e-12 is the basis benchmark's round-trip gate.
_GRAM_TOL = 1e-12


@dataclass
class MatrixSymbol:
    """Coefficients f_mn of a symbol in the matrix basis."""

    trunc: int
    theta: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        t = whole(self.trunc, "truncation", 1)
        self.theta = float(array(self.theta, (), "theta", float))
        self.coeffs = array(self.coeffs, (t, t), "matrix-basis coefficients", complex)

    @property
    def norm(self) -> float:
        """L^2 norm via Parseval: 2 pi theta sum |f_mn|^2."""
        return float(np.sqrt(2.0 * np.pi * self.theta) * np.linalg.norm(self.coeffs))

    def __add__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        _compatible(self, other)
        return MatrixSymbol(self.trunc, self.theta, self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        _compatible(self, other)
        return MatrixSymbol(self.trunc, self.theta, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "MatrixSymbol":
        return MatrixSymbol(self.trunc, self.theta, scalar * self.coeffs)


def _compatible(a: MatrixSymbol, b: MatrixSymbol) -> None:
    if a.trunc != b.trunc or a.theta != b.theta:
        raise SpecMismatch("matrix symbols disagree on truncation or theta")


@dataclass
class BasisCache:
    """b_mn for m, n < trunc on one grid, in the factored form of the module docstring.

    table holds psi_0 .. psi_{S - 1}, S = 2 trunc - 1, on the q and p axes.
    The blocks B_N, N < S, are packed in pairs (as in Gustavson et al.'s
    Rectangular Full Packed format, ACM TOMS 37, 2010): slot j holds B_j and
    B_{S-1-j}, of sizes j + 1 and S - j, block-diagonally in one
    (S + 1) x (S + 1) matrix, and the middle block B_{trunc-1} sits alone
    in the last slot with zeros after it.  index[j] lists, in the slot's row
    order, the flat positions k S + N - k of anti-diagonal N of an S x S
    matrix; the padding of the last slot points at position S * S, one past
    the matrix, which transform keeps as a zero scratch entry.
    """

    spec: GridSpec
    trunc: int
    table: np.ndarray  # (2, M, S), real
    packed: np.ndarray  # (trunc, S + 1, S + 1), complex
    index: np.ndarray  # (trunc, S + 1), int


def synthesize_basis(spec: GridSpec, trunc: int) -> BasisCache:
    """Sample the Hermite factors of b_mn, m, n < trunc, on the grid."""
    if spec.n != 1:
        raise SpecMismatch("the matrix basis is a one-pair construction")
    count = 2 * whole(trunc, "truncation", 1) - 1
    gate(2 * spec.M * count + trunc * (count + 1) ** 2,
         f"matrix basis at truncation {trunc}")
    scale = np.sqrt(2.0 / spec.theta)
    s = scale * np.stack([spec.axis(0), spec.axis(1)])
    psi = np.zeros((count, 2, spec.M))  # three-term recurrence; psi[-1] is zero at k = 1
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * s * s)
    for k in range(1, count):
        psi[k] = np.sqrt(2.0 / k) * s * psi[k - 1] - np.sqrt((k - 1) / k) * psi[k - 2]
    table = np.ascontiguousarray(psi.transpose(1, 2, 0))
    err = max(float(np.abs(h * scale * p.T @ p - np.eye(count)).max())
              for h, p in zip(spec.h, table))
    if err > _GRAM_TOL:
        raise TruncationError(f"grid does not resolve truncation {trunc}: "
                              f"Hermite Gram error {err:.1e}")
    packed = np.zeros((trunc, count + 1, count + 1), dtype=complex)
    index = np.full((trunc, count + 1), count * count)
    block = np.full((1, 1), 2.0 * np.sqrt(np.pi), dtype=complex)
    for big_n in range(count):
        if big_n:  # the two-term step of the module docstring
            root = np.sqrt(np.arange(big_n + 1))  # sqrt(k); reversed, sqrt(N - k)
            # a_q^+ and a_p^+ on the columns |j, N-1-j> of B_{N-1}
            up_q = root[:, None] * np.pad(block, ((1, 0), (0, 0)))
            up_p = root[::-1, None] * np.pad(block, ((0, 1), (0, 0)))
            block = (root * np.pad(up_q + 1j * up_p, ((0, 0), (1, 0)))
                     + root[::-1] * np.pad(up_q - 1j * up_p, ((0, 0), (0, 1))))
            block /= np.sqrt(2.0) * big_n
        slot, at = (big_n, 0) if big_n < trunc else (count - 1 - big_n, count - big_n)
        rows = slice(at, at + big_n + 1)
        packed[slot, rows, rows] = block
        k = np.arange(big_n + 1)
        index[slot, rows] = k * count + big_n - k
    return BasisCache(spec, trunc, table, packed, index)


def transform(obj: GridFunction | MatrixSymbol, cache: BasisCache
              ) -> MatrixSymbol | GridFunction:
    """Coefficients from samples (forward) or samples from coefficients.

    forward:  f_mn = (2 pi theta)^{-1} integral f b_nm
    backward: f = sum f_mn b_mn
    The direction follows from the input type.  Coefficients are padded to
    the S = 2 trunc - 1 Hermite degrees so that degree N uses all of B_N;
    the route (real GEMMs, one batched block contraction) is the module
    docstring's.
    """
    psi_q, psi_p = cache.table
    th, t, size = cache.spec.theta, cache.trunc, cache.table.shape[2]
    src = np.zeros(size * size + 1, dtype=complex)  # last entry: the slots' zero padding
    out = np.zeros(size * size + 1, dtype=complex)
    if isinstance(obj, GridFunction):
        if obj.spec != cache.spec:
            raise SpecMismatch("grid function and cache disagree on the grid")
        x = np.ascontiguousarray(obj.samples).view(float)
        # H[k, l] = sum f psi_k(q) psi_l(p)
        src[:-1] = ((psi_q.T @ x).view(complex) @ psi_p).ravel()
        g = src[cache.index]
        # f_{N-m, m} pairs with b_{m, N-m}: entry (m, N-m) of out is f_{N-m, m}
        out[cache.index] = (g[:, None, :] @ cache.packed)[:, 0, :]
        full = out[:-1].reshape(size, size)[:t, :t].T
        return MatrixSymbol(t, th, full * cache.spec.cell / (2.0 * np.pi * th))
    if obj.trunc != t or obj.theta != th:
        raise SpecMismatch("symbol and cache disagree on truncation or theta")
    src[:-1].reshape(size, size)[:t, :t] = obj.coeffs
    g = src[cache.index]
    out[cache.index] = (cache.packed @ g[:, :, None])[:, :, 0]
    herm = out[:-1].reshape(size, size)
    return GridFunction(cache.spec, (psi_q @ (herm @ psi_p.T).view(float)).view(complex))


def matrix_product_oracle(f: MatrixSymbol, g: MatrixSymbol) -> MatrixSymbol:
    """Star product in coefficients: the plain matrix product."""
    _compatible(f, g)
    return MatrixSymbol(f.trunc, f.theta, f.coeffs @ g.coeffs)


def basis_unit(trunc: int, theta: float, m: int, n: int) -> MatrixSymbol:
    """The symbol of b_mn itself: a single unit coefficient."""
    trunc = whole(trunc, "truncation", 1)
    if whole(m, "basis index m", 0) >= trunc or whole(n, "basis index n", 0) >= trunc:
        raise SpecMismatch(f"b_{m},{n} lies outside truncation {trunc}")
    coeffs = np.zeros((trunc, trunc), dtype=complex)
    coeffs[m, n] = 1.0
    return MatrixSymbol(trunc, theta, coeffs)


def ladder_matrix(which: int, trunc: int) -> np.ndarray:
    """Coefficient matrices of the coordinate symbols z1, z2.

    (Z1)_mn = i sqrt(m) d_{m,n+1} and (Z2)_mn = -i sqrt(m+1) d_{m+1,n}.
    """
    choice(which, (1, 2), "ladder index")
    m = np.arange(whole(trunc, "truncation", 1))
    z = np.zeros((trunc, trunc), dtype=complex)
    if which == 1:
        z[m[1:], m[1:] - 1] = 1j * np.sqrt(m[1:])
    else:
        z[m[:-1], m[:-1] + 1] = -1j * np.sqrt(m[:-1] + 1)
    return z


def gbv_norm(sym: MatrixSymbol, k: int, l: int) -> float:
    """Weighted coefficient norm (sum m^k n^l |f_mn|^2)^{1/2}, 0^0 := 1.

    The same number is the norm of a ladder-matrix word (alternating
    adjoint/plain letters, k on the left and l on the right), the
    generator-word form of the norm; the tests compare the two.
    """
    k = whole(k, "row exponent k", 0)
    l = whole(l, "column exponent l", 0)
    idx = np.arange(sym.trunc, dtype=float)
    return float(np.sqrt(np.sum((idx ** k)[:, None] * idx ** l * np.abs(sym.coeffs) ** 2)))


def matrix_star_exp(f: MatrixSymbol, s: complex = 1.0) -> MatrixSymbol:
    """Star-exponential exp(s f) on the matrix model."""
    from scipy.linalg import expm

    return MatrixSymbol(f.trunc, f.theta, expm(array(s, (), "scale s", complex) * f.coeffs))
