"""Finite-dimensional Hilbert algebras and their bounded multipliers.

An algebra is stored by structure constants, an involution matrix and a Gram
matrix. All operator-level verification happens in the orthonormal frame
W (gram = W†W), where adjoints are plain conjugate transposes and the
antilinear involution acts as v -> C · conj(v); C is unitary by the
star-isometry axiom.

The structure theorems live on the doubled space H ⊕ H̄, where a left
multiplier L acts as diag(L, C⁻¹LC), but they are checked on H through an
exact identity: for C unitary, the commutant of the ᴴ-closed set
diag(A, C⁻¹AC) is {[[q₁, q₂C], [C⁻¹q₃, C⁻¹q₄C]] : qᵢ ∈ Q = {A}'}, of
dimension 4 dim Q, and its bicommutant is {diag(z, C⁻¹zC) : z ∈ Q'}.

Multiplier pairs, commutants and the center are nullspaces, all taken by one
kernel, `_null_rows`: the eigenvectors of a closed-form Hermitian normal
matrix AᴴA (A itself is never built) with eigenvalue at most `_TOL` = 1e-10
times max(top one, 1); `_TOL` is also every verifier's pass bound. The kernel
takes the normal matrix as its exact diagonal blocks, each an operator that
can be applied and solved with a shift, computes only the null eigenvectors
and never reduces a block to tridiagonal form: it estimates the top
eigenvalue by Lanczos and finds the nullspace of each block by shifted
inverse subspace iteration (one Cholesky factor) with a Rayleigh–Ritz step on
a random block that grows until it holds the nullspace and a few spare
directions. `solve_multipliers` splits its normal by its exact nonzero
pattern into one block, applied and factored through its Kronecker
structure, or several (a group, Clifford or matrix algebra on its natural
basis), each assembled dense. `commutant` and `center` assemble their normal
dense, and `_null_vectors` splits it the same way (`_components`). Normal
equations square the condition number of the basis; see `solve_multipliers`
for the supported range. `errors.gate` raises a ResourceError before a
normal matrix over `errors.MAX_ENTRIES` entries would be needed, or a tensor
product or an example's structure tensor over that size is built.

scipy.linalg (Cholesky factors, triangular solves, `orth`, the tridiagonal
eigensolver) is imported inside the functions that call it, so importing
this module, or the phase-space modules, which need only numpy, does not
load it; it loads on the first factorization.

Conventions
-----------
* basis products:  e_i e_j = sum_k c[i,j,k] e_k
* involution:      (e_i)* = sum_l S[i,l] e_l,  so  x* = S^T conj(x)
* scalar product:  <x,y> = x† G y  (antilinear in the left slot)
* left/right regular representation on coordinates:
      lam(x)[k,j] = sum_i x_i c[i,j,k],   rho(x)[k,i] = sum_j x_j c[i,j,k]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Literal

import numpy as np

from .errors import (InvalidGram, NotIsomorphism, NotUnitary, ParseError, SpecMismatch,
                     StructureError, array, choice, gate, whole)

__all__ = [
    "FiniteHilbertAlgebra",
    "MultiplierPair",
    "OperatorSubspace",
    "validate_axioms",
    "regular_representation",
    "solve_multipliers",
    "commutant",
    "verify_caract",
    "verify_commutant_structure",
    "natural_trace_check",
    "center",
    "combine",
    "inner_automorphism",
    "extend_isomorphism",
    "example_algebra",
    "change_basis",
]

Side = Literal["left", "right"]

# nullspace cut relative to max(λ_max, 1), and every verifier's pass bound
_TOL = 1e-10

# subspace iteration in _block_null_vectors: start width, growth factor, and
# Ritz values required above the cut
_START_WIDTH = 8
_GROWTH = 4
_OVERSAMPLE = 4


@dataclass(frozen=True)
class FiniteHilbertAlgebra:
    """Structure constants + involution + Gram matrix of a *-algebra."""

    structure: np.ndarray
    involution: np.ndarray
    gram: np.ndarray
    name: str = "algebra"

    def __post_init__(self) -> None:
        d = len(array(self.gram, (None, None), "gram", complex))
        for part, shape in (("structure", (d, d, d)), ("involution", (d, d)), ("gram", (d, d))):
            value = array(getattr(self, part), shape, part, complex)
            object.__setattr__(self, part, np.ascontiguousarray(value))

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    # -- elementary coordinate operations ---------------------------------
    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def star(self, x: np.ndarray) -> np.ndarray:
        return self.involution.T @ np.conj(x)

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.conj(x) @ self.gram @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))

    def frame(self) -> np.ndarray:
        """Matrix W with G = W†W; rows give an orthonormal coordinate frame."""
        import scipy.linalg as sla

        try:
            chol = sla.cholesky(self.gram, lower=False)
        except sla.LinAlgError as exc:  # pragma: no cover - guarded by validate
            raise InvalidGram(f"gram not positive definite: {exc}") from None
        return chol

    def unit(self) -> np.ndarray | None:
        """Two-sided unit coordinates, or None when the algebra has none."""
        d = self.dim
        c = self.structure
        rows = np.concatenate(
            [
                c.transpose(1, 2, 0).reshape(d * d, d),  # lam_u = id
                c.transpose(0, 2, 1).reshape(d * d, d),  # rho_u = id
            ]
        )
        rhs = np.concatenate([np.eye(d).reshape(-1), np.eye(d).reshape(-1)])
        u, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        if np.linalg.norm(rows @ u - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs)):
            return u
        return None


@dataclass
class MultiplierPair:
    """A compatible pair of left/right module maps, with its raw defect."""

    left: np.ndarray
    right: np.ndarray
    defect: float = 0.0

    def __matmul__(self, other: "MultiplierPair") -> "MultiplierPair":
        # pair product composes left maps forward and right maps backward
        return MultiplierPair(
            self.left @ other.left,
            other.right @ self.right,
            max(self.defect, other.defect),
        )


@dataclass
class OperatorSubspace:
    """Subspace of D x D matrices with a Frobenius-orthonormal basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (k, D, D)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of one D x D matrix or a (..., D, D) stack."""
        x = np.asarray(x)
        flat = self.basis.reshape(self.dim, self.ambient_dim ** 2)
        coeffs = x.reshape(-1, flat.shape[1]) @ flat.conj().T
        return (coeffs @ flat).reshape(x.shape)

    def _distances(self, x: np.ndarray) -> np.ndarray:
        """Relative Frobenius distance from each matrix of a (m, D, D) stack."""
        norms = np.linalg.norm(x.reshape(len(x), -1), axis=1)
        resid = np.linalg.norm((x - self.project(x)).reshape(len(x), -1), axis=1)
        return np.divide(resid, norms, out=np.zeros_like(norms), where=norms > 0.0)

    def distance(self, x: np.ndarray) -> float:
        """Relative Frobenius distance from x to the subspace."""
        return float(self._distances(np.asarray(x)[None])[0])

    def equals(self, other: "OperatorSubspace") -> float:
        """Max of mutual projection residuals; 0 means identical spans."""
        return float(max(other._distances(self.basis).max(initial=0.0),
                         self._distances(other.basis).max(initial=0.0)))

    @staticmethod
    def from_matrices(mats: Iterable[np.ndarray], ambient_dim: int) -> "OperatorSubspace":
        import scipy.linalg as sla

        stack = _matrix_stack(mats, ambient_dim).reshape(-1, ambient_dim ** 2)
        if stack.size == 0:
            return OperatorSubspace(ambient_dim, np.zeros((0, ambient_dim, ambient_dim)))
        q = sla.orth(stack.T, rcond=1e-12)
        basis = q.T.reshape(-1, ambient_dim, ambient_dim)
        return OperatorSubspace(ambient_dim, basis)


def _pairs(pairs: Any, d: int) -> list[MultiplierPair]:
    """The caller's pairs with d x d complex maps; SpecMismatch unless each is such a pair."""
    if not isinstance(pairs, (list, tuple)) or not all(isinstance(p, MultiplierPair)
                                                       for p in pairs):
        raise SpecMismatch(f"pairs must be a list of MultiplierPair, got {pairs!r:.60}")
    return [MultiplierPair(array(p.left, (d, d), "left multiplier", complex),
                           array(p.right, (d, d), "right multiplier", complex), p.defect)
            for p in pairs]


def _matrix_stack(mats: Iterable[np.ndarray], dim: int) -> np.ndarray:
    """The matrices as a (k, dim, dim) complex stack; SpecMismatch unless each is dim x dim."""
    whole(dim, "ambient dimension", 1)
    return np.array([array(m, (dim, dim), "matrix", complex) for m in mats]).reshape(-1, dim, dim)


# ---------------------------------------------------------------------------
# representations and axioms
# ---------------------------------------------------------------------------

def regular_representation(alg: FiniteHilbertAlgebra, x: np.ndarray,
                           side: Side = "left") -> np.ndarray:
    """Matrix of multiplication by x on coordinates, acting from one side."""
    choice(side, ("left", "right"), "side")
    x = array(x, (alg.dim,), "coordinates", complex)
    if side == "left":
        return np.einsum("i,ijk->kj", x, alg.structure)
    return np.einsum("j,ijk->ki", x, alg.structure)


def _check_gram(gram: np.ndarray) -> None:
    if not np.allclose(gram, gram.conj().T, atol=1e-12):
        raise InvalidGram("gram matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
        raise InvalidGram(f"gram matrix not positive definite (min eig {eigs.min():.3e})")


def validate_axioms(alg: FiniteHilbertAlgebra) -> dict[str, Any]:
    """Per-axiom residuals of alg; raises InvalidGram for a bad Gram matrix."""
    c, s, g = alg.structure, alg.involution, alg.gram
    d = alg.dim
    _check_gram(g)
    res: dict[str, float] = {}

    # associativity, blocked over the left factor to bound memory
    r = 0.0
    scale = max(1.0, float(np.abs(c).max()) ** 2)
    for i in range(d):
        lhs = np.einsum("jm,mkl->jkl", c[i], c)      # (e_i e_j) e_k
        rhs = np.einsum("jkm,ml->jkl", c, c[i])      # e_i (e_j e_k)
        r = max(r, float(np.abs(lhs - rhs).max()) / scale)
    res["associativity"] = r

    # involution is an involutive conjugate-linear anti-automorphism
    res["involution_squared"] = float(np.abs(np.conj(s) @ s - np.eye(d)).max())
    lhs = np.einsum("ijm,mk->ijk", np.conj(c), s)                # (e_i e_j)*
    rhs = np.einsum("ja,ib,abk->ijk", s, s, c, optimize=True)   # e_j* e_i*
    res["involution_antiautomorphism"] = float(np.abs(lhs - rhs).max() / scale)

    # axiom: <y*, x*> = <x, y>
    res["axiom_star_isometry"] = float(
        np.abs(np.conj(s) @ g @ s.T - g.T).max() / max(1.0, np.abs(g).max())
    )

    # axiom: <x y, z> = <y, x* z>
    lhs = np.einsum("ijm,mk->ijk", np.conj(c), g)
    rhs = np.einsum("jm,ia,akm->ijk", g, s, c, optimize=True)
    res["axiom_adjoint_product"] = float(np.abs(lhs - rhs).max() / scale)

    # boundedness is automatic here; record the constant (stack of lam(e_i))
    w = alg.frame()
    lam_w = w @ c.transpose(0, 2, 1) @ np.linalg.inv(w)
    report: dict[str, Any] = dict(res)
    report["left_mult_norm_max"] = float(np.linalg.norm(lam_w, 2, axis=(1, 2)).max())

    # axiom: products span the algebra
    prod_rows = c.reshape(d * d, d)
    svals = np.linalg.svd(prod_rows, compute_uv=False)
    rank = int(np.sum(svals > _TOL * max(svals.max(), 1.0)))
    res["axiom_product_density"] = 0.0 if rank == d else 1.0
    report["axiom_product_density"] = res["axiom_product_density"]
    report["product_span_rank"] = rank

    report["pass"] = all(v <= _TOL for v in res.values())
    return report


# ---------------------------------------------------------------------------
# multiplier pairs
# ---------------------------------------------------------------------------

def _components(normal: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern.

    A breadth-first sweep per component over the boolean pattern, O(n²) in
    all. Entries are split only where they are exactly zero, so the
    components are exact diagonal blocks of a symmetric permutation.
    """
    adj = normal != 0
    n = adj.shape[0]
    done = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if done[start]:
            continue
        seen = np.zeros(n, dtype=bool)
        seen[start] = True
        frontier = seen
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        done |= seen
        comps.append(np.flatnonzero(seen))
    return comps


class _DenseBlock:
    """A dense Hermitian PSD block: applied by one GEMM, solved by Cholesky."""

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat
        self.size = mat.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ v

    def shifted_solver(self, cut: float) -> Callable[[np.ndarray], np.ndarray]:
        """Solve with mat + cut·I, factored once."""
        import scipy.linalg as sla

        # the block is Hermitian, so conj(mat)ᵀ is a Fortran-ordered copy LAPACK factors in place
        shifted = np.conj(self.mat).T
        shifted.flat[::self.size + 1] += cut
        factor = sla.cho_factor(shifted, overwrite_a=True, check_finite=False)
        return lambda v: sla.cho_solve(factor, v, check_finite=False)


class _MultiplierNormal:
    """The solver's normal [[kron(X, I), B], [Bᴴ, kron(Y, I)]], never formed.

    X (p x p) and Y (q x q) are Hermitian PSD, B is (p d) x (q d) and I is the
    d x d identity. The block is applied through X, Y and B. Its shifted
    Cholesky factor is [[kron(L_X, I), 0], [Gᴴ, L_S]] with L_X = chol(X + cut·I),
    G = kron(L_X⁻¹, I) B and L_S the factor of the (q d) x (q d) Schur
    complement kron(Y + cut·I, I) - GᴴG (Golub & Van Loan, Matrix
    Computations, §4.2): the factor of the dense matrix, in ≈ 0.8 (q d)³
    complex multiply–adds for p = q instead of ≈ 2.7.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, b: np.ndarray, d: int) -> None:
        self.x, self.y, self.b, self.d = x, y, b, d
        self.top = len(x) * d  # rows of the kron(X, I) half
        self.size = self.top + len(y) * d

    def apply(self, v: np.ndarray) -> np.ndarray:
        top, bot, cols = v[:self.top], v[self.top:], v.shape[1]
        out = np.empty(v.shape, dtype=complex)
        out[:self.top] = (self.x @ top.reshape(len(self.x), -1)).reshape(-1, cols)
        out[:self.top] += self.b @ bot
        out[self.top:] = (self.y @ bot.reshape(len(self.y), -1)).reshape(-1, cols)
        out[self.top:] += (top.conj().T @ self.b).conj().T
        return out

    def shifted_solver(self, cut: float) -> Callable[[np.ndarray], np.ndarray]:
        """Solve with block + cut·I through the block Cholesky factor."""
        import scipy.linalg as sla

        p, q, d, top = len(self.x), len(self.y), self.d, self.top
        lx = sla.cholesky(self.x + cut * np.eye(p), lower=True, check_finite=False)
        g = sla.solve_triangular(lx, self.b.reshape(p, -1), lower=True,
                                 check_finite=False).reshape(top, -1)
        # zherk on the Fortran-ordered view gᵀ computes gᵀ conj(g) without a copy;
        # its transpose is GᴴG with the upper triangle filled, all chol reads
        schur = np.kron(self.y + cut * np.eye(q), np.eye(d))
        schur -= sla.blas.zherk(1.0, g.T, lower=1).T
        u = sla.cholesky(schur, lower=False, overwrite_a=True, check_finite=False)  # L_S = Uᴴ

        def solve(v: np.ndarray) -> np.ndarray:
            cols = v.shape[1]
            z1 = sla.solve_triangular(lx, v[:top].reshape(p, -1), lower=True,
                                      check_finite=False).reshape(top, cols)
            z2 = sla.solve_triangular(u, v[top:] - (z1.conj().T @ g).conj().T,
                                      trans="C", check_finite=False)
            x2 = sla.solve_triangular(u, z2, check_finite=False)
            x1 = sla.solve_triangular(lx, (z1 - g @ x2).reshape(p, -1), lower=True,
                                      trans="C", check_finite=False).reshape(top, cols)
            return np.concatenate([x1, x2])

        return solve


# a diagonal block of a normal matrix: `size`, `apply(v)`, `shifted_solver(cut)`
_Block = _DenseBlock | _MultiplierNormal


def _top_eigenvalue(block: _Block) -> float:
    """Largest eigenvalue of a Hermitian PSD block by Lanczos.

    The start vector comes from a fixed seed, so the estimate is
    deterministic. Each new Krylov vector is orthogonalised twice against all
    earlier ones, so the basis stays orthonormal when the Krylov space runs
    out after a few distinct eigenvalues. The run stops once the residual
    ‖N y − θ y‖ = β |s_k| of the top Ritz pair (θ, y) is at most 1e-12 θ,
    which puts an eigenvalue within 1e-12 θ of θ (λ_max, unless the start
    vector is orthogonal to its eigenspace), or at step n, where it is exact.
    A 1 × 1 block is its own eigenvalue.
    """
    import scipy.linalg as sla

    n = block.size
    if n == 1:
        return float(block.apply(np.ones((1, 1)))[0, 0].real)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    basis, alpha, beta = [], [], []
    for k in range(n):
        basis.append(v)
        w = block.apply(v[:, None])[:, 0]
        alpha.append(np.vdot(v, w).real)
        q = np.array(basis)
        for _ in range(2):
            w -= (q.conj() @ w) @ q
        b = float(np.linalg.norm(w))
        theta, s = sla.eigh_tridiagonal(np.array(alpha), np.array(beta),
                                        select="i", select_range=(k, k))
        if b * abs(s[-1, 0]) <= 1e-12 * abs(theta[0]) or k == n - 1:
            return float(theta[0])
        beta.append(b)
        v = w / b
    return 0.0  # n = 0


def _block_null_vectors(block: _Block, cut: float) -> np.ndarray:
    """Orthonormal columns spanning the eigenvectors of a block with eigenvalue <= cut.

    Block inverse subspace iteration with a Rayleigh–Ritz step (Rutishauser,
    1970): a seeded complex Gaussian block of width `_START_WIDTH` takes two
    solves with one factor of block + cut·I and then one QR, and the Ritz
    vectors of the small projected matrix with Ritz value at most the cut
    are kept. Without a QR between them the two solves amplify the block by
    at most cut⁻² ≤ 1e20, far from overflow. As in a randomized range
    finder, the width grows by `_GROWTH` until at least `_OVERSAMPLE` Ritz
    values lie above the cut, or reaches the block size, where the Ritz step
    is a full eigensolve. A 1 × 1 block is answered from its one entry.
    """
    n = block.size
    if n == 1:
        entry = block.apply(np.ones((1, 1)))[0, 0].real
        return np.ones((1, 1 if entry <= cut else 0), dtype=complex)
    solve = block.shifted_solver(cut)
    rng = np.random.default_rng(0)
    width = min(n, _START_WIDTH)
    while True:
        v = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
        v = np.linalg.qr(solve(solve(v)))[0]
        ritz, vecs = np.linalg.eigh(v.conj().T @ block.apply(v))
        kept = ritz <= cut
        if width - np.count_nonzero(kept) >= _OVERSAMPLE or width == n:
            return v @ vecs[:, kept]
        width = min(n, _GROWTH * width)


def _null_rows(blocks: list[tuple[_Block, np.ndarray]], n: int) -> np.ndarray:
    """Orthonormal rows spanning the numerical nullspace of an n x n PSD matrix.

    The matrix is given by its exact diagonal blocks, each with the indices
    it occupies, and every row is zero outside its block. Keeps the
    eigenvectors with eigenvalue at most the cut `_TOL` max(λ_max, 1):
    eigenvalues are squared residuals, but the noise floor on true zeros
    scales linearly with the top eigenvalue, so the cut does too. λ_max is the
    largest Lanczos estimate over the blocks (`_top_eigenvalue`), and each
    block goes to `_block_null_vectors`. By Cauchy interlacing every Ritz
    vector it keeps lies below the cut. Each solve shrinks a component at
    eigenvalue μ by cut/(μ + cut) relative to the null ones, under 1e-9
    across the spectral gaps of the solver and commutant normals, and the
    spare Ritz values above the cut keep the random block wider than the
    nullspace, so no null direction is missed. Rows are written into one
    array in block order.
    """
    cut = _TOL * max(max((_top_eigenvalue(blk) for blk, _ in blocks), default=0.0), 1.0)
    vecs = [_block_null_vectors(blk, cut) for blk, _ in blocks]
    rows = np.zeros((sum(v.shape[1] for v in vecs), n), dtype=complex)
    start = 0
    for (_, idx), v in zip(blocks, vecs):
        rows[start:start + v.shape[1], idx] = v.T
        start += v.shape[1]
    return rows


def _null_vectors(normal: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the numerical nullspace of a dense PSD matrix.

    The matrix is split into the exact diagonal blocks of its nonzero pattern
    (`_components`), and the nullspace is taken as in `_null_rows`. Only the
    nullspace is computed, and no block is reduced to tridiagonal form.
    """
    comps = _components(normal)
    # a one-component normal is not copied
    if len(comps) == 1:
        return _null_rows([(_DenseBlock(normal), comps[0])], normal.shape[0])
    return _null_rows([(_DenseBlock(normal[np.ix_(idx, idx)]), idx) for idx in comps],
                      normal.shape[0])


def _pair_defects(alg: FiniteHilbertAlgebra, lefts: np.ndarray,
                  rights: np.ndarray) -> np.ndarray:
    """max |lam(e_i) L e_j - rho(e_j) R e_i| for each pair of (p, d, d) stacks.

    One pair at a time, so no temporary is larger than the structure tensor.
    """
    c = alg.structure
    d = alg.dim
    flat = c.reshape(d, d * d)
    defects = np.zeros(len(lefts))
    for n, (left, right) in enumerate(zip(lefts, rights)):
        # sum_a c[i, a, k] L[a, j] as d x d products batched over i, and
        # sum_a c[a, j, k] R[a, i] as one (d, d) @ (d, d²) GEMM
        resid = np.matmul(left.T, c)
        resid -= (right.T @ flat).reshape(d, d, d)
        defects[n] = np.abs(resid).max(initial=0.0)
    return defects


def _multiplier_blocks(c: np.ndarray) -> list[tuple[_Block, np.ndarray]]:
    """Exact diagonal blocks of the solver's normal matrix for frame constants c.

    Unknown L[a, j] has index a d + j and R[b, i] index d² + b d + i. The
    blocks are the components (`_components`) of the normal's exact nonzero
    pattern [[kron(X ≠ 0, I), B ≠ 0], [(B ≠ 0)ᵀ, kron(Y ≠ 0, I)]]. A single
    component, as in every Haar-rotated algebra, is one `_MultiplierNormal`;
    otherwise each component is one `_DenseBlock` taken from X, Y and B. A
    free unknown, such as L[a, ·] when X[a, a] = 0, is an isolated 1 × 1
    block. Twisted group algebras split into d blocks of 2d (Cl(6): 64 of 128).
    """
    d = c.shape[0]
    dd = d * d
    cc = np.conj(c)
    x = np.einsum("iak,ibk->ab", cc, c)
    y = np.einsum("ajk,bjk->ab", cc, c)
    # b[a, j, b, i] from the GEMM [(i, a), (b, j)] = sum_k conj(c[i, a, k]) c[b, j, k]
    b = -(cc.reshape(dd, d) @ c.reshape(dd, d).T).reshape(d, d, d, d).transpose(1, 3, 2, 0)
    b = b.reshape(dd, dd)
    eye, nz = np.eye(d, dtype=bool), b != 0
    comps = _components(np.block([[np.kron(x != 0, eye), nz], [nz.T, np.kron(y != 0, eye)]]))
    if len(comps) == 1:
        return [(_MultiplierNormal(x, y, b, d), comps[0])]
    blocks = []
    for idx in comps:
        top, bot = idx[idx < dd], idx[idx >= dd] - dd
        (la, j), (ra, i) = np.divmod(top, d), np.divmod(bot, d)
        lr = b[np.ix_(top, bot)]
        blocks.append((_DenseBlock(np.block([[x[np.ix_(la, la)] * (j[:, None] == j), lr],
                                             [lr.conj().T, y[np.ix_(ra, ra)] * (i[:, None] == i)]])),
                       idx))
    return blocks


def solve_multipliers(alg: FiniteHilbertAlgebra) -> list[MultiplierPair]:
    """All pairs (L,R) with lam(x) L(y) = rho(y) R(x), as a nullspace.

    Neither the d³ x 2d² defect system nor its 2d² x 2d² normal matrix
    [[kron(X, I), B], [Bᴴ, kron(Y, I)]] is built, with X = sum_i lam_iᴴ lam_i,
    Y = sum_j rho_jᴴ rho_j and B[(a, j), (b, i)] = -sum_k conj(c[i, a, k])
    c[b, j, k] from the structure constants c in the orthonormal frame W.
    The normal is split into the exact blocks of its nonzero pattern
    (`_multiplier_blocks`). One block, as in any algebra in a generic basis,
    is applied through X, Y and B and solved through a block Cholesky factor
    whose leading block is a Kronecker product (`_MultiplierNormal`). Several
    blocks, as in a group or Clifford algebra on its group basis or a matrix
    algebra on matrix units, are each assembled dense. The null vectors
    (L_W, R_W), with eigenvalue at most `_TOL` times the top one, are
    orthonormal in that stacked vectorization and are returned on coordinates
    as W⁻¹ L_W W, W⁻¹ R_W W.

    Normal equations square the condition number of a basis change q. For
    q = O diag(logspace) Oᵀ on s3, mat2 and c3, pair counts are right through
    cond(q) = 1e4 and break at 1e5; defects relative to max|c| ‖L‖_F grow as
    cond(q)², up to 7e-12 at 1e3 and 4e-9 at 1e4. `verify_caract` passes
    through cond(q) = 1e2. `errors.gate` raises ResourceError when the
    normal matrix the solve stands for (4d⁴ entries, a bound on its d⁴ work
    arrays and its 4d⁴ boolean pattern) would exceed `errors.MAX_ENTRIES`.
    Each pair's defect is measured on its own, so no residual is larger than
    the structure tensor, even for the 2d² pairs of a degenerate algebra.
    """
    d = alg.dim
    dd = d * d
    gate((2 * dd) ** 2, f"solve_multipliers at d={d}")
    w = alg.frame()
    winv = np.linalg.inv(w)
    null = _null_rows(_multiplier_blocks(change_basis(alg, winv).structure), 2 * dd)

    lefts = winv @ null[:, :dd].reshape(-1, d, d) @ w
    rights = winv @ null[:, dd:].reshape(-1, d, d) @ w
    defects = _pair_defects(alg, lefts, rights)
    return [MultiplierPair(lm, rm, float(e)) for lm, rm, e in zip(lefts, rights, defects)]


def _commutant_normal(gens: np.ndarray) -> np.ndarray:
    """The D² x D² commutant normal of a ᴴ-closed (G, D, D) stack, dense.

    kron(S, I) + kron(I, Sᵀ) - 2 sum_g kron(g, conj(g)) with S = sum_g gᴴg,
    written row block by row block: the D rows (a, ·) are one (D, G) @
    (G, D²) GEMM, so no D⁴-entry temporary is made besides the result.
    """
    count, dd = gens.shape[:2]
    stacked = gens.reshape(-1, dd)  # rows (g, k): s[a, b] = sum_g,k conj(g[k, a]) g[k, b]
    s = stacked.conj().T @ stacked
    flat = gens.reshape(count, dd * dd)
    normal = np.empty((dd, dd, dd, dd), dtype=complex)  # [a, b, a', b']
    for a in range(dd):
        # block[a', b, b'] = sum_g conj(g[a, a']) g[b, b']
        block = (gens[:, a].conj().T @ flat).reshape(dd, dd, dd)
        normal[a] = -2.0 * block.conj().transpose(1, 0, 2)
    np.einsum("abcb->acb", normal)[...] += s[:, :, None]  # S[a, a'] where b = b'
    np.einsum("abad->abd", normal)[...] += s.T[None]  # S[b', b] where a = a'
    return normal.reshape(dd * dd, dd * dd)


def commutant(generators: Iterable[np.ndarray], ambient_dim: int) -> OperatorSubspace:
    """Commutant of a set of D x D matrices (adjoints are adjoined first).

    Any other shape raises SpecMismatch. Matrices must be expressed in an
    orthonormal frame for the adjoint to coincide with the conjugate
    transpose. Over the ᴴ-closed set G the normal matrix of gX = Xg is
    kron(S, I) + kron(I, Sᵀ) - 2 sum_g kron(g, conj(g)) with S = sum_g gᴴg.
    It is assembled dense (`_commutant_normal`) after `errors.gate` has
    checked its size against `errors.MAX_ENTRIES`, and `_null_vectors` splits
    it into the exact blocks of its nonzero pattern; the cut is as in
    solve_multipliers.

    For generators diag(A, C⁻¹AC) on H ⊕ H̄ with C unitary (so the set stays
    ᴴ-closed), gX = Xg splits into four quadrant equations: X₁₁, X₁₂C⁻¹, CX₂₁
    and CX₂₂C⁻¹ all lie in Q = {A}'. So the commutant is {[[q₁, q₂C],
    [C⁻¹q₃, C⁻¹q₄C]] : qᵢ ∈ Q}, of dimension 4 dim Q, and since I ∈ Q the
    bicommutant is {diag(z, C⁻¹zC) : z ∈ Q'}. The verifiers work on H by it.
    """
    dd = ambient_dim
    n = dd * dd
    gate(n * n, f"commutant at ambient dimension {dd}")
    gens = _matrix_stack(generators, dd)
    gens = np.concatenate([gens, gens.conj().transpose(0, 2, 1)])
    return OperatorSubspace(dd, _null_vectors(_commutant_normal(gens)).reshape(-1, dd, dd))


# ---------------------------------------------------------------------------
# the structure theorems, checked on H
# ---------------------------------------------------------------------------

def verify_caract(alg: FiniteHilbertAlgebra,
                  pairs: list[MultiplierPair] | None = None) -> dict[str, Any]:
    """Bicommutant characterization of the multiplier pairs.

    On H ⊕ H̄ the bicommutant of the embedded left regular maps diag(L, C⁻¹LC)
    must be the span of the embedded multiplier lefts. C is unitary, so by
    the identity in `commutant` it is {diag(z, C⁻¹zC) : z ∈ λ(A)''}, and the
    check compares λ(A)'' on H with the span of the solved lefts. The
    embedding scales Frobenius norms by √2, so relative residuals agree.
    """
    d = alg.dim
    w = alg.frame()
    winv = np.linalg.inv(w)
    # c.transpose(0, 2, 1) is the stack of lam(e_i)
    first = commutant(w @ alg.structure.transpose(0, 2, 1) @ winv, d)
    second = commutant(first.basis, d)
    pairs = solve_multipliers(alg) if pairs is None else _pairs(pairs, d)
    lefts = np.array([p.left for p in pairs]).reshape(-1, d, d)
    span = OperatorSubspace.from_matrices(w @ lefts @ winv, d)
    residual = second.equals(span)
    return {
        "multiplier_dim": len(pairs),
        "bicommutant_dim": second.dim,
        "span_residual": residual,
        "max_pair_defect": max((p.defect for p in pairs), default=0.0),
        "pass": residual <= _TOL and second.dim == span.dim,
    }


def verify_commutant_structure(alg: FiniteHilbertAlgebra,
                               pairs: list[MultiplierPair] | None = None
                               ) -> dict[str, Any]:
    """Block form of the commutant of the embedded multiplier algebra.

    On H ⊕ H̄ the commutant of the embedded lefts diag(L, C⁻¹LC) must be
    {[[R₁, R₂C], [C⁻¹R₃, C⁻¹R₄C]]} with each Rᵢ in the right-multiplier
    space, of four times the multiplier dimension. C is unitary, so by the
    identity in `commutant` the Rᵢ range over the commutant Q of the lefts
    on H: `commutant_dim` is 4 dim Q, and `block_residual` the largest
    distance of a unit basis element of Q from the right-multiplier span.
    """
    d = alg.dim
    w = alg.frame()
    winv = np.linalg.inv(w)
    pairs = solve_multipliers(alg) if pairs is None else _pairs(pairs, d)
    lefts = np.array([p.left for p in pairs]).reshape(-1, d, d)
    rights = np.array([p.right for p in pairs]).reshape(-1, d, d)
    comm = commutant(w @ lefts @ winv, d)
    # c.transpose(1, 2, 0) is the stack of rho(e_j)
    rmats = np.concatenate([alg.structure.transpose(1, 2, 0), rights])
    rspan = OperatorSubspace.from_matrices(w @ rmats @ winv, d)
    block_residual = float(rspan._distances(comm.basis).max(initial=0.0))
    expected = 4 * len(pairs)
    return {
        "commutant_dim": 4 * comm.dim,
        "expected_dim": expected,
        "block_residual": block_residual,
        "pass": 4 * comm.dim == expected and block_residual <= _TOL,
    }


def natural_trace_check(alg: FiniteHilbertAlgebra) -> dict[str, Any]:
    """Solve for the trace functional with tau(x* y) = <x,y> and verify it.

    The functional lives on coordinates (products span the algebra). Raises
    StructureError when no functional satisfies the identity.
    """
    d = alg.dim
    c, s, g = alg.structure, alg.involution, alg.gram
    # p[i,j,:] = coordinates of (e_i)* e_j
    p = np.einsum("ia,ajk->ijk", s, c)
    rows = p.reshape(d * d, d)
    rhs = g.reshape(-1)
    t, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = float(np.abs(rows @ t - rhs).max())
    if residual > 1e-6 * max(1.0, float(np.abs(g).max())):
        raise StructureError(
            f"no natural trace functional: residual {residual:.3e}"
        )
    # traciality on basis products
    comm_res = float(np.abs(
        np.einsum("ijk,k->ij", c, t) - np.einsum("jik,k->ij", c, t)
    ).max())
    return {
        "functional": t,
        "identity_residual": residual,
        "traciality_residual": comm_res,
        "pass": residual <= _TOL and comm_res <= _TOL,
    }


def center(alg: FiniteHilbertAlgebra) -> np.ndarray:
    """Orthonormal coordinate basis of {z : lam(z) = rho(z)}, shape (k, d).

    A nullspace by `_null_vectors`, with the cut as in `solve_multipliers`.
    """
    c = alg.structure
    d = alg.dim
    # (lam_z - rho_z)[k,l] = sum_i z_i (c[i,l,k] - c[l,i,k])
    bmat = (c.transpose(2, 1, 0) - c.transpose(2, 0, 1)).reshape(d * d, d)
    return _null_vectors(bmat.conj().T @ bmat)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def combine(a: FiniteHilbertAlgebra, b: FiniteHilbertAlgebra,
            mode: Literal["direct_sum", "tensor"]) -> FiniteHilbertAlgebra:
    """Direct sum or tensor product, with the induced involution and Gram."""
    choice(mode, ("direct_sum", "tensor"), "mode")
    da, db = a.dim, b.dim
    if mode == "direct_sum":
        d = da + db
        c = np.zeros((d, d, d), dtype=complex)
        c[:da, :da, :da] = a.structure
        c[da:, da:, da:] = b.structure
        s = np.zeros((d, d), dtype=complex)
        s[:da, :da] = a.involution
        s[da:, da:] = b.involution
        g = np.zeros((d, d), dtype=complex)
        g[:da, :da] = a.gram
        g[da:, da:] = b.gram
        return FiniteHilbertAlgebra(c, s, g, name=f"{a.name}(+){b.name}")
    gate((da * db) ** 3, f"tensor product at d={da * db}")
    c = np.einsum("ikm,jln->ijklmn", a.structure, b.structure)
    c = c.reshape(da * db, da * db, da * db)
    s = np.kron(a.involution, b.involution)
    g = np.kron(a.gram, b.gram)
    return FiniteHilbertAlgebra(c, s, g, name=f"{a.name}(x){b.name}")


def change_basis(alg: FiniteHilbertAlgebra, q: np.ndarray) -> FiniteHilbertAlgebra:
    """Rewrite the algebra in the basis f_i = sum_a q[a,i] e_a (q invertible)."""
    q = array(q, (alg.dim, alg.dim), "basis change q", complex)
    try:
        qinv = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        raise SpecMismatch("basis change q is singular") from None
    c = np.einsum("ai,bj,abm,km->ijk", q, q, alg.structure, qinv, optimize=True)
    # new coords v correspond to old coords q v; the old star is S^T conj(qv),
    # mapped back by qinv, so the new star matrix satisfies
    # S'^T = qinv @ S^T @ conj(q)
    s = (qinv @ alg.involution.T @ np.conj(q)).T
    g = np.conj(q.T) @ alg.gram @ q
    return FiniteHilbertAlgebra(c, s, g, name=f"{alg.name}~")


def inner_automorphism(alg: FiniteHilbertAlgebra, pair: MultiplierPair
                       ) -> tuple[np.ndarray, dict[str, Any]]:
    """Automorphism x -> L(R*(x)) induced by a unitary multiplier pair."""
    d = alg.dim
    pair, = _pairs([pair], d)
    w = alg.frame()
    winv = np.linalg.inv(w)
    lw = w @ pair.left @ winv
    rw = w @ pair.right @ winv
    eye = np.eye(d)
    unit_res = max(
        float(np.abs(lw.conj().T @ lw - eye).max()),
        float(np.abs(lw @ lw.conj().T - eye).max()),
        float(np.abs(rw.conj().T @ rw - eye).max()),
    )
    if unit_res > 1e-8:
        raise NotUnitary(f"multiplier pair is not unitary (residual {unit_res:.3e})")

    u = winv @ (lw @ rw.conj().T) @ w
    c = alg.structure
    lhs = np.einsum("kl,ijl->ijk", u, c)
    rhs = np.einsum("ai,bj,abk->ijk", u, u, c, optimize=True)
    mult_res = float(np.abs(lhs - rhs).max())
    star_res = float(np.abs(u @ alg.involution.T - alg.involution.T @ np.conj(u)).max())
    uw = w @ u @ winv
    unitary_res = float(np.abs(uw.conj().T @ uw - eye).max())
    report = {
        "multiplicative_residual": mult_res,
        "involution_residual": star_res,
        "unitary_residual": unitary_res,
        "pass": max(mult_res, star_res, unitary_res) <= 1e-9,
    }
    return u, report


def extend_isomorphism(phi: np.ndarray, a: FiniteHilbertAlgebra,
                       b: FiniteHilbertAlgebra, pair: MultiplierPair
                       ) -> tuple[MultiplierPair, dict[str, Any]]:
    """Push a multiplier pair through a unitary *-isomorphism phi: a -> b.

    Verifies that phi is Gram-unitary, multiplicative and involution
    compatible, transports (L,R) to (phi L phi^-1, phi R phi^-1), measures the
    transported defect on b, and checks trace compatibility on basis products.
    """
    if a.dim != b.dim:
        raise NotIsomorphism(f"dimension mismatch {a.dim} != {b.dim}")
    d = a.dim
    phi = array(phi, (d, d), "isomorphism phi", complex)
    pair, = _pairs([pair], d)
    g_res = float(np.abs(phi.conj().T @ b.gram @ phi - a.gram).max())
    lhs = np.einsum("kl,ijl->ijk", phi, a.structure)
    rhs = np.einsum("ai,bj,abk->ijk", phi, phi, b.structure, optimize=True)
    m_res = float(np.abs(lhs - rhs).max())
    s_res = float(np.abs(phi @ a.involution.T - b.involution.T @ np.conj(phi)).max())
    if max(g_res, m_res, s_res) > 1e-8:
        raise NotIsomorphism(
            f"not a unitary *-isomorphism: gram {g_res:.2e}, "
            f"product {m_res:.2e}, star {s_res:.2e}"
        )

    phinv = np.linalg.inv(phi)
    moved = MultiplierPair(phi @ pair.left @ phinv, phi @ pair.right @ phinv)

    moved.defect = float(_pair_defects(b, moved.left[None], moved.right[None])[0])

    ta = natural_trace_check(a)["functional"]
    tb = natural_trace_check(b)["functional"]
    prods = np.einsum("ia,ajk->ijk", a.involution, a.structure).reshape(d * d, d)
    trace_res = float(np.abs(prods @ ta - (prods @ phi.T) @ tb).max())

    report = {
        "gram_residual": g_res,
        "multiplicative_residual": m_res,
        "involution_residual": s_res,
        "transported_defect": moved.defect,
        "trace_residual": trace_res,
        "pass": max(g_res, m_res, s_res, moved.defect, trace_res) <= 1e-9,
    }
    return moved, report


# ---------------------------------------------------------------------------
# example algebras
# ---------------------------------------------------------------------------

def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _s3_table() -> np.ndarray:
    import itertools

    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(3))
            table[i, j] = index[comp]
    return table


def group_algebra(table: np.ndarray, name: str = "group") -> FiniteHilbertAlgebra:
    """Group algebra of a finite group given by its multiplication table.

    table[i, j] is the index of g_i g_j; index 0 must be the identity.
    """
    table = array(table, (None, None), "group table", int)
    n = table.shape[0]
    if table.shape != (n, n):
        raise ParseError("group table must be square")
    if np.any((table < 0) | (table >= n)):
        raise ParseError(f"group table entries must lie in [0, {n})")
    if n == 0:
        raise ParseError("group table is empty")
    gate(n ** 3, f"structure tensor of a group of order {n}")
    if not (np.all(table[0] == np.arange(n)) and np.all(table[:, 0] == np.arange(n))):
        raise ParseError("index 0 must be the group identity")
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n)[:, None], np.arange(n)[None, :], table] = 1.0
    inv = np.zeros(n, dtype=int)
    for i in range(n):
        js = np.nonzero(table[i] == 0)[0]
        if js.size != 1:
            raise ParseError("table has no unique inverse; not a group")
        inv[i] = js[0]
    s = np.zeros((n, n), dtype=complex)
    s[np.arange(n), inv] = 1.0
    return FiniteHilbertAlgebra(c, s, np.eye(n), name=name)


def full_matrix_algebra(n: int) -> FiniteHilbertAlgebra:
    """n x n matrices with <a,b> = tr(a* b), in the matrix-unit basis."""
    n = whole(n, "matrix size", 1)
    d = n * n
    gate(d ** 3, f"structure tensor of mat{n}")

    def flat(i: int, j: int) -> int:
        return i * n + j

    c = np.zeros((d, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[flat(i, j), flat(j, k), flat(i, k)] = 1.0
    s = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            s[flat(i, j), flat(j, i)] = 1.0
    return FiniteHilbertAlgebra(c, s, np.eye(d), name=f"mat{n}")


_EXAMPLE_PARAMS = {"full_matrix": ("n",), "cyclic_group": ("n",), "s3": ()}


def example_algebra(kind: str, **params: Any) -> FiniteHilbertAlgebra:
    """Factory for the shipped examples.

    kinds: 'full_matrix' (n), 'cyclic_group' (n), 's3'.
    """
    choice(kind, tuple(_EXAMPLE_PARAMS), "algebra kind")
    for key in params:
        choice(key, _EXAMPLE_PARAMS[kind], f"parameter of {kind}")
    if kind == "full_matrix":
        return full_matrix_algebra(params.get("n", 2))
    if kind == "cyclic_group":
        n = whole(params.get("n", 3), "group order", 1)
        return group_algebra(_cyclic_table(n), name=f"c{n}")
    return group_algebra(_s3_table(), name="s3")
