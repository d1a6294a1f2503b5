"""Finite Clifford algebras Cl(2m) on subset bitmasks.

The algebra has 2m anticommuting self-adjoint generators xi_1 .. xi_2m with
xi_i xi_j + xi_j xi_i = 2 delta_ij.  Basis blades xi_I are indexed by the
bitmask of the subset I, so a product of blades is a signed XOR and every
structure constant is an exact integer.  The normalized trace picks the
empty-blade coefficient, and <x, y> = tau(x* y) makes the blades an
orthonormal basis.

Products go through the Jordan-Wigner matrix model Cl(2m) = M_{2^m}(C):
xi_{2k} = Z^{(x)k} X_k and xi_{2k+1} = Z^{(x)k} Y_k on m qubits, so every
blade is a phase i^e times a Pauli string X^x Z^z, a monomial matrix with
the entry (-1)^{|z & c|} at (c ^ x, c).  Coefficients go to the matrix by a
scatter, one GEMM with the +-1 Walsh-Hadamard matrix and an XOR row gather;
a product is one 2^m x 2^m GEMM, and the way back is the same gather and
GEMM divided by 2^m.  On blades every sum has one nonzero term of +-1 or +-i
and the only division is by a power of two, so blade products are bit-exact.
A product with at most 4^m nonzero coefficient pairs, such as two blades,
skips the model and sums the pairs as signed XORs, exact on blades as well.
`_blade_signs` is the one sign rule: the sparse product, the dense export,
the involution xi_I* = xi_I^-1 = sign(I, I) xi_I and the associativity check
all take their signs from it.  `blade_product`, which counts the swaps one
generator at a time, is its independent oracle.

`verify_unital_multipliers` checks the unital collapse of the multiplier
space for 1 <= m <= 3 on the dense export.  The multiplier equations split
over XOR shifts into systems that the sign rule solves in closed form, so the
pairs `solve_multipliers` returns are checked against that span, built from
`_blade_signs`, and not against themselves.  m >= 4 is refused for the cost
of the pairs' defects (`hilbert._pair_defects`), about 2 d^5 multiply-adds
at d = 4^m: 2e12 at m = 4, a thousand times those of m = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .errors import SpecMismatch, array, gate, whole
from .hilbert import FiniteHilbertAlgebra, regular_representation, solve_multipliers

_VERIFY_MAX_M = 3
_RANK = "number m of generator pairs"

_PHASES = np.array([1, 1j, -1, -1j])  # i^e


@lru_cache(maxsize=8)
def _matrix_model(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jordan-Wigner tables (phase, slot, hadamard, rows) of Cl(2m), q = 2^m.

    Blade I is phase[I] X^x Z^z with slot[I] = x q + z.  Generator xi_a sits on
    qubit k = a >> 1 as i^(a & 1) X^{e_k} Z^{z_a}, with Z on the qubits below
    k and, for a Y, on k.  Since (X^x Z^z)(X^x' Z^z') =
    (-1)^{|z & x'|} X^{x ^ x'} Z^{z ^ z'}, and in an ascending product no
    generator has a Z where a later one has its X, x and z are the XORs of
    the generators' masks and the phase is i to the number of Y generators.
    hadamard is H[z, c] = (-1)^{|z & c|} and rows[x, c] = x ^ c, so the XOR
    row gather maps D[x, c] to M[c ^ x, c] and back.
    """
    q = 1 << m
    d = q * q
    gate(4 * d, f"matrix model of Cl({2 * m})")
    masks = np.arange(d, dtype=np.int64)
    x = np.zeros(d, dtype=np.int64)
    z = np.zeros(d, dtype=np.int64)
    # bitwise_count returns uint8: cast before any signed arithmetic
    for k in range(m):
        # X on qubit k from xi_2k and xi_2k+1; Z from xi_2k+1 and every later generator
        x |= (((masks >> (2 * k)) ^ (masks >> (2 * k + 1))) & 1) << k
        z |= (np.bitwise_count(masks >> (2 * k + 1)).astype(np.int64) & 1) << k
    y_generators = np.bitwise_count(masks & int("10" * m, 2)).astype(np.int64)
    c = np.arange(q, dtype=np.int64)
    hadamard = 1.0 - 2.0 * (np.bitwise_count(c[:, None] & c[None, :]) & 1).astype(np.float64)
    return _PHASES[y_generators % 4], x * q + z, hadamard, c[:, None] ^ c[None, :]


def _to_matrix(x: CliffordElement) -> np.ndarray:
    """The 2^m x 2^m Jordan-Wigner matrix of x."""
    phase, slot, hadamard, rows = _matrix_model(x.m)
    q = hadamard.shape[0]
    b = np.empty(q * q, dtype=complex)
    b[slot] = x.coeffs * phase
    return np.take_along_axis(b.reshape(q, q) @ hadamard, rows, axis=0)


def _from_matrix(m: int, mat: np.ndarray) -> np.ndarray:
    """Blade coefficients of a 2^m x 2^m matrix; inverse of `_to_matrix`."""
    phase, slot, hadamard, rows = _matrix_model(m)
    q = hadamard.shape[0]
    b = (np.take_along_axis(mat, rows, axis=0) @ hadamard).reshape(-1) / q
    return b[slot] * phase.conj()


def blade_product(mask_i: int, mask_j: int, m: int) -> tuple[int, int]:
    """Sign and target mask of xi_I xi_J, both as plain ints."""
    n = 2 * whole(m, _RANK, 1)
    if whole(mask_i, "blade mask", 0) >> n or whole(mask_j, "blade mask", 0) >> n:
        raise SpecMismatch(f"blade mask out of range for m={m}")
    swaps = 0
    for k in range(n):
        if mask_i >> k & 1:
            swaps += bin(mask_j & ((1 << k) - 1)).count("1")
    return (-1 if swaps & 1 else 1), mask_i ^ mask_j


@dataclass
class CliffordElement:
    """Element of Cl(2m) as a dense coefficient vector over blade masks."""

    m: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        d = 1 << (2 * whole(self.m, _RANK, 1))
        self.coeffs = array(self.coeffs, (d,), "blade coefficients", complex)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        if self.m != other.m:
            raise SpecMismatch("rank mismatch in Clifford sum")
        return CliffordElement(self.m, self.coeffs + other.coeffs)

    def __rmul__(self, scalar: complex) -> "CliffordElement":
        return CliffordElement(self.m, scalar * self.coeffs)


def blade(m: int, mask: int) -> CliffordElement:
    d = 1 << (2 * whole(m, _RANK, 1))
    gate(d, f"blade of Cl({2 * m})")
    if whole(mask, "blade mask", 0) >= d:
        raise SpecMismatch(f"blade mask {mask} out of range for Cl({2 * m})")
    coeffs = np.zeros(d, dtype=complex)
    coeffs[mask] = 1.0
    return CliffordElement(m, coeffs)


def unit(m: int) -> CliffordElement:
    return blade(m, 0)


def _blade_signs(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """sign(I, J) of blade masks i, j below 2^n, broadcast together, as +-1 int8.

    Bit k of the prefix XOR P(J) of J << 1 is the parity of J's bits below
    k, so |I & P(J)| has the parity of the swaps counted by `blade_product`.
    """
    below = j << 1
    shift = 1
    while shift < n:
        below ^= below << shift
        shift *= 2
    return 1 - 2 * (np.bitwise_count(i & below) & 1).astype(np.int8)


def _sparse_product(m: int, x: np.ndarray, y: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
    """Coefficients of x y summed as signed XORs over the pairs of the nonzeros i of x, j of y."""
    i, j = np.repeat(i, len(j)), np.tile(j, len(i))
    out = np.zeros(1 << (2 * m), dtype=complex)
    np.add.at(out, i ^ j, _blade_signs(i, j, 2 * m) * x[i] * y[j])
    return out


def clifford_product(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Bilinear extension of xi_I xi_J = sign(I, J) xi_{I xor J}.

    With at most 4^m nonzero pairs (blades, or a blade times anything) the
    pairs are summed directly (`_sparse_product`), otherwise the product is
    one matrix GEMM.
    """
    if x.m != y.m:
        raise SpecMismatch(f"rank mismatch: Cl({2 * x.m}) vs Cl({2 * y.m})")
    i, j = np.flatnonzero(x.coeffs != 0), np.flatnonzero(y.coeffs != 0)
    if len(i) * len(j) <= x.coeffs.size:
        return CliffordElement(x.m, _sparse_product(x.m, x.coeffs, y.coeffs, i, j))
    return CliffordElement(x.m, _from_matrix(x.m, _to_matrix(x) @ _to_matrix(y)))


def involution_and_trace(x: CliffordElement) -> tuple[CliffordElement, complex]:
    """Blade-reversal star with conjugated coefficients, and tau(x) = x_empty."""
    blades = np.arange(x.coeffs.size)
    star = CliffordElement(x.m, _blade_signs(blades, blades, 2 * x.m) * np.conj(x.coeffs))
    return star, complex(x.coeffs[0])


def inner(x: CliffordElement, y: CliffordElement) -> complex:
    """tau(x* y); blades come out orthonormal, so this is the plain dot."""
    xs, _ = involution_and_trace(x)
    _, t = involution_and_trace(clifford_product(xs, y))
    return t


def as_hilbert_algebra(m: int) -> FiniteHilbertAlgebra:
    """Dense export of Cl(2m) into the finite Hilbert-algebra format."""
    d = 1 << (2 * whole(m, _RANK, 1))
    gate(d ** 3, f"dense structure constants of Cl({2 * m})")
    structure = np.zeros((d, d, d), dtype=complex)
    blades = np.arange(d)
    ii, jj = np.repeat(blades, d), np.tile(blades, d)
    structure[ii, jj, ii ^ jj] = _blade_signs(ii, jj, 2 * m)
    involution = np.diag(_blade_signs(blades, blades, 2 * m).astype(complex))
    gram = np.eye(d, dtype=complex)
    return FiniteHilbertAlgebra(structure=structure, involution=involution,
                                gram=gram, name=f"Cl({2 * m})")


def _exact_associativity(m: int) -> np.ndarray:
    """Per middle blade J: sign(I,J) sign(I^J,K) == sign(J,K) sign(I,J^K) for all I, K."""
    n = 2 * m
    i, j, k = np.ix_(*[np.arange(1 << n)] * 3)
    holds = (_blade_signs(i, j, n) * _blade_signs(i ^ j, k, n)
             == _blade_signs(j, k, n) * _blade_signs(i, j ^ k, n))
    return holds.all(axis=(0, 2))


def _exact_anticommutation(m: int) -> bool:
    for a in range(2 * m):
        for b in range(2 * m):
            sa, ta = blade_product(1 << a, 1 << b, m)
            sb, tb = blade_product(1 << b, 1 << a, m)
            if a == b:
                if not (sa == 1 and ta == 0):
                    return False
            elif not (ta == tb and sa == -sb):
                return False
    return True


def verify_unital_multipliers(m: int) -> dict[str, Any]:
    """Unital collapse of the multiplier space: dimension 4^m and bijection.

    In an associative algebra with a two-sided unit 1, the pairs with
    x L(y) = R(x) y are exactly (lambda_u, rho_u): y = 1 gives R = rho_{L(1)},
    x = 1 gives L = lambda_{R(1)}, and x = y = 1 gives L(1) = R(1) = u;
    conversely associativity makes every (lambda_u, rho_u) a pair, and
    lambda_u(1) = u.  So (L, R) -> L(1) is a bijection onto the algebra and
    the multiplier space has dimension 4^m.

    On blades the check is exact.  With l_s(j) = L[j ^ s, j] and
    r_s(i) = R[i ^ s, i], the equations xi_I L(xi_J) = R(xi_I) xi_J split
    over the XOR shifts s into 4^m systems of 2 * 4^m unknowns,
    sign(I, J ^ s) l_s(J) = sign(I ^ s, J) r_s(I).  The rows I = 0 and J = 0
    pin l_s(J) = sign(s, J) r_s(0) and r_s(I) = sign(I, s) l_s(0), the
    signs of (lambda(xi_s), rho(xi_s)), and these solve the whole system
    exactly when sign(I, s) sign(I ^ s, J) = sign(s, J) sign(I, s ^ J) for
    all I, J, the associativity identity of `_exact_associativity` at middle
    blade s.  `dimension` counts the shifts where it holds.  The pairs that
    `hilbert.solve_multipliers` returns for the dense export are checked
    against that span, built from `_blade_signs` (`collapse_residual`,
    relative to the pair's norm), and by their defects, L(1) = R(1), the
    rebuild from L(1) and the bijection.
    """
    if whole(m, _RANK, 1) > _VERIFY_MAX_M:
        raise SpecMismatch(f"multiplier verification supports 1 <= m <= {_VERIFY_MAX_M}")
    n = 2 * m
    d = 1 << n
    report: dict[str, Any] = {"m": m, "expected_dim": d}

    shifts = _exact_associativity(m)
    report["exact_associativity"] = bool(shifts.all())
    report["exact_anticommutation"] = _exact_anticommutation(m)

    alg = as_hilbert_algebra(m)
    pairs = solve_multipliers(alg)
    lefts = np.array([p.left for p in pairs]).reshape(-1, d, d)
    rights = np.array([p.right for p in pairs]).reshape(-1, d, d)
    # blade 0 is the unit, so L(1) is column 0
    images = lefts[:, :, 0]
    l_vs_r = float(np.linalg.norm(images - rights[:, :, 0], axis=1).max(initial=0.0))
    # the pair is pinned down by L(1): rebuild it and compare
    rebuild = 0.0
    for left, right, u in zip(lefts, rights, images):
        rebuild = max(rebuild,
                      float(np.linalg.norm(left - regular_representation(alg, u, "left"))),
                      float(np.linalg.norm(right - regular_representation(alg, u, "right"))))
    sv = np.linalg.svd(images, compute_uv=False)
    bijection = float(sv[-1]) if len(pairs) == d else 0.0
    # each pair's (l_s, r_s) against its shift's solution (sign(s, .), sign(., s)),
    # whose 2d entries are +-1
    s, j = np.arange(d)[:, None], np.arange(d)[None, :]
    span = np.concatenate([_blade_signs(s, j, n), _blade_signs(j, s, n)], axis=1)
    split = np.concatenate([lefts[:, s ^ j, j], rights[:, s ^ j, j]], axis=2)
    resid = split - np.einsum("pst,st->ps", split, span)[:, :, None] * span / (2 * d)
    collapse = float((np.linalg.norm(resid, axis=(1, 2))
                      / np.linalg.norm(split, axis=(1, 2))).max(initial=0.0))
    defect = max((p.defect for p in pairs), default=0.0)
    dimension = int(shifts.sum())
    report.update({
        "dimension": dimension,
        "solver_dimension": len(pairs),
        "l1_equals_r1": l_vs_r,
        "rebuild_residual": rebuild,
        "bijection_min_sv": bijection,
        "collapse_residual": collapse,
        "max_pair_defect": defect,
        "pass": (dimension == len(pairs) == d and report["exact_associativity"]
                 and report["exact_anticommutation"] and l_vs_r <= 1e-10
                 and rebuild <= 1e-10 and bijection > 1e-6 and collapse <= 1e-10
                 and defect <= 1e-10),
    })
    return report
