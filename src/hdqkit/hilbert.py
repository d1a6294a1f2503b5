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

Every algebra that passes `validate_axioms` is unital (the paper's first
result, in finite dimension: product density and a faithful λ make it a
finite C*-algebra), so its multiplier pairs are (λ(a), ρ(a)), and
`solve_multipliers` builds them in closed form from the unit that
`FiniteHilbertAlgebra.unit` certifies; an algebra without one raises
StructureError. Commutants and the center are nullspaces, both taken by one
kernel, `_null_vectors`: the eigenvectors of a closed-form Hermitian normal
matrix AᴴA (A itself is never built) with eigenvalue at most `_TOL` = 1e-10
times max(top one, 1); `_TOL` is also every verifier's pass bound. The
kernel splits the normal matrix into the exact diagonal blocks of its nonzero
pattern (`_components`), each dense, and takes one `eigh` of each block.
`commutant` never builds its D² x D² normal: it restricts it to the
block-diagonal matrices over the eigenvalue clusters of one random Hermitian
element of the generators' span (`_clusters`), p = sum k² unknowns, and
assembles that restriction dense (`_cluster_normal`); `center` assembles its
d x d normal dense. Normal equations square the condition
number of the basis, so `verify_caract` passes only through cond(q) = 1e2
(see `solve_multipliers`). `errors.gate` raises a ResourceError before a
commutant normal over `errors.MAX_ENTRIES` entries would be needed, or a
tensor product or an example's structure tensor over that size is built.

The module needs only numpy: the Gram's Cholesky factor, orthonormal bases
and the nullspace kernel all come from `numpy.linalg`, so no hilbert or
clifford work loads scipy.linalg.

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
from typing import Any, Iterable, Literal

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

# smallest eigenvalue gap, relative to max|μ|, at which commutant splits the
# eigenspaces of its random Hermitian element into separate clusters; at 0.05
# a split at 0.057 max|μ| left a verifier residual of 1.3e-14 (rotated m2⊗c3)
_CLUSTER = 0.1


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
        try:
            return np.linalg.cholesky(self.gram, upper=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by validate
            raise InvalidGram(f"gram not positive definite: {exc}") from None

    def unit(self) -> np.ndarray | None:
        """Two-sided unit coordinates, or None when the algebra has none.

        The least-squares u of lam(u) = rho(u) = id is accepted when its
        normwise backward error (Rigal & Gaches, J. ACM 14, 1967) is at most
        1e-10: ‖rows u - rhs‖ <= 1e-10 (σ_max ‖u‖ + ‖rhs‖), with σ_max the
        top singular value `lstsq` returns. For q = O diag(logspace) Oᵀ up
        to cond(q) = 1e5 (six O each) it was at most 8.6e-16 on s3, mat2 and
        c3, and at least 6.1e-5 on zero4 and zero1+m2.
        """
        d = self.dim
        c = self.structure
        rows = np.concatenate(
            [
                c.transpose(1, 2, 0).reshape(d * d, d),  # lam_u = id
                c.transpose(0, 2, 1).reshape(d * d, d),  # rho_u = id
            ]
        )
        rhs = np.concatenate([np.eye(d).reshape(-1), np.eye(d).reshape(-1)])
        u, _, _, svals = np.linalg.lstsq(rows, rhs, rcond=None)
        scale = svals[0] * np.linalg.norm(u) + np.linalg.norm(rhs)
        if np.linalg.norm(rows @ u - rhs) <= 1e-10 * scale:
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
        """Orthonormal basis of the span: left singular vectors of the stacked
        matrices with singular value above 1e-12 times the largest."""
        stack = _matrix_stack(mats, ambient_dim).reshape(-1, ambient_dim ** 2)
        if stack.size == 0:
            return OperatorSubspace(ambient_dim, np.zeros((0, ambient_dim, ambient_dim)))
        u, svals, _ = np.linalg.svd(stack.T, full_matrices=False)
        q = u[:, svals > 1e-12 * svals[0]]
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
    """The matrices as a (k, dim, dim) complex stack; SpecMismatch unless each is dim x dim.

    An ndarray is checked as one (k, dim, dim) stack, any other iterable
    matrix by matrix.
    """
    whole(dim, "ambient dimension", 1)
    if isinstance(mats, np.ndarray):
        return array(mats, (None, dim, dim), "matrix stack", complex)
    if not isinstance(mats, Iterable):
        raise SpecMismatch(f"matrices must be an array or an iterable of them, got {mats!r:.40}")
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
        lhs = c[i] @ c.reshape(d, d * d)             # (e_i e_j) e_k at [j, (k, l)]
        rhs = c.reshape(d * d, d) @ c[i]             # e_i (e_j e_k) at [(j, k), l]
        r = max(r, float(np.abs(lhs.ravel() - rhs.ravel()).max()) / scale)
    res["associativity"] = r

    # involution is an involutive conjugate-linear anti-automorphism
    res["involution_squared"] = float(np.abs(np.conj(s) @ s - np.eye(d)).max())
    # (e_i e_j)* and the adjoint-product left side at [i, j, k], one GEMM each
    star = (np.conj(c).reshape(d * d, d) @ s).reshape(d, d, d)
    gram = (np.conj(c).reshape(d * d, d) @ g).reshape(d, d, d)
    sc = (s @ c.reshape(d, d * d)).reshape(d, d, d)  # sum_a s[i, a] c[a, b, k] at [i, b, k]
    # e_j* e_i* = sum_b s[i, b] sc[j, b, k], batched over j, at [j, i, k]
    res["involution_antiautomorphism"] = float(
        np.abs(star - (s @ sc).transpose(1, 0, 2)).max() / scale)

    # axiom: <y*, x*> = <x, y>
    res["axiom_star_isometry"] = float(
        np.abs(np.conj(s) @ g @ s.T - g.T).max() / max(1.0, np.abs(g).max())
    )

    # axiom: <x y, z> = <y, x* z>: sum_m g[j, m] sc[i, k, m] at [(i, k), j]
    rhs = (sc.reshape(d * d, d) @ g.T).reshape(d, d, d).transpose(0, 2, 1)
    res["axiom_adjoint_product"] = float(np.abs(gram - rhs).max() / scale)

    # boundedness is automatic here; record the constant (stack of lam(e_i)),
    # the largest singular value from one batched eigvalsh of lamᴴ lam
    w = alg.frame()
    lam_w = w @ c.transpose(0, 2, 1) @ np.linalg.inv(w)
    top = np.linalg.eigvalsh(lam_w.conj().transpose(0, 2, 1) @ lam_w)[:, -1].max()
    report: dict[str, Any] = dict(res)
    report["left_mult_norm_max"] = float(np.sqrt(max(top, 0.0)))

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
# nullspaces
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


def _null_vectors(normal: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the numerical nullspace of a dense PSD matrix.

    The matrix is split into the exact diagonal blocks of its nonzero pattern
    (`_components`), and every row is zero outside its block. One `eigh` per
    block; the kernel keeps the eigenvectors with eigenvalue at most the cut
    `_TOL` max(λ_max, 1), λ_max the largest over the blocks: eigenvalues are
    squared residuals, but the noise floor on true zeros scales linearly
    with the top eigenvalue, so the cut does too. Rows are written into one
    array in block order.
    """
    comps = _components(normal)
    # a one-component normal is not copied
    blocks = [normal] if len(comps) == 1 else [normal[np.ix_(idx, idx)] for idx in comps]
    spectra = [np.linalg.eigh(blk) for blk in blocks]
    cut = _TOL * max(max((eigs[-1] for eigs, _ in spectra), default=0.0), 1.0)
    vecs = [v[:, eigs <= cut] for eigs, v in spectra]
    rows = np.zeros((sum(v.shape[1] for v in vecs), normal.shape[0]), dtype=complex)
    start = 0
    for idx, v in zip(comps, vecs):
        rows[start:start + v.shape[1], idx] = v.T
        start += v.shape[1]
    return rows


# ---------------------------------------------------------------------------
# multiplier pairs
# ---------------------------------------------------------------------------

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


def solve_multipliers(alg: FiniteHilbertAlgebra) -> list[MultiplierPair]:
    """All pairs (L,R) with lam(x) L(y) = rho(y) R(x), orthonormal in the frame.

    Every algebra that passes `validate_axioms` has a two-sided unit 1
    (`FiniteHilbertAlgebra.unit`), and then the pairs are exactly
    (lam(a), rho(a)): y = 1 gives R = rho(L(1)), x = 1 gives L = lam(R(1)),
    and x = y = 1 gives L(1) = R(1); conversely associativity makes every
    (lam(a), rho(a)) a pair, and lam(a) 1 = a makes a -> (lam(a), rho(a))
    injective. So the d pairs (lam(e_i), rho(e_i)), the stacks
    c.transpose(0, 2, 1) and c.transpose(1, 2, 0), span them. They are taken
    to the orthonormal frame W (gram = W†W) as W lam W⁻¹ and W rho W⁻¹,
    stacked as d vectors of 2d² entries and orthonormalised by one QR, so the
    pairs (L_W, R_W) are orthonormal in the stacked vectorization, and are
    returned on coordinates as W⁻¹ L_W W, W⁻¹ R_W W with the defects of
    `_pair_defects`. Nothing larger than a few structure tensors is
    allocated. Defects relative to max|c| ‖L‖_F grow slowly in a basis
    change q: for q = O diag(logspace) Oᵀ on s3, mat2 and c3 (six O each),
    up to 8.2e-15, 8.1e-14, 1.3e-12 and 1.0e-11 at cond(q) = 1e2, 1e3, 1e4
    and 1e5, with d pairs at every cond(q). `verify_caract`, whose
    commutants are normal equations, passes through cond(q) = 1e2.

    An algebra without a unit, such as one with a zero summand (which fails
    product density), raises StructureError. Associativity is not checked: a
    non-associative algebra that still has a unit gets d pairs, flagged only
    by each `MultiplierPair.defect`, so callers run `validate_axioms` first.
    """
    if alg.unit() is None:
        raise StructureError(f"{alg.name} has no two-sided unit, so its multiplier pairs "
                             "are not (lam(a), rho(a))")
    c = alg.structure
    d = alg.dim
    w = alg.frame()
    winv = np.linalg.inv(w)
    stacks = w @ np.stack([c.transpose(0, 2, 1), c.transpose(1, 2, 0)], axis=1) @ winv
    rows = np.linalg.qr(stacks.reshape(d, 2 * d * d).T)[0].T
    pairs = winv @ rows.reshape(d, 2, d, d) @ w
    defects = _pair_defects(alg, pairs[:, 0], pairs[:, 1])
    return [MultiplierPair(lm, rm, float(e)) for (lm, rm), e in zip(pairs, defects)]


def _clusters(gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors U of one random Hermitian element of the stack, and its cluster sizes.

    h = sum_g (z_g g + conj(z_g) gᴴ) with complex Gaussian weights z from a
    fixed seed, so anti-Hermitian generators do not cancel. Its ascending
    eigenvalues are split only at gaps above `_CLUSTER` max|μ|; the columns
    of U come in cluster order. No generators, or scalar ones, give one
    cluster.
    """
    rng = np.random.default_rng(0)
    z = rng.standard_normal(len(gens)) + 1j * rng.standard_normal(len(gens))
    h = np.tensordot(z, gens, axes=1)
    mu, u = np.linalg.eigh(h + h.conj().T)
    cuts = np.flatnonzero(np.diff(mu) > _CLUSTER * np.abs(mu).max(initial=0.0)) + 1
    return u, np.diff(np.concatenate([[0], cuts, [len(mu)]]))


def _cluster_normal(gens: np.ndarray, u: np.ndarray, sizes: np.ndarray
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The commutant normal restricted to the diagonal blocks of UᴴXU, and its unknowns.

    Unknown r is Y[pi[r], pj[r]] of Y = UᴴXU: the entries of the diagonal
    blocks, one per cluster of `sizes` (consecutive columns of U), each
    row-major, in cluster order, p = sum k² in all. With g̃ = UᴴgU over the
    given stack only, the (K, L) block of the p x p matrix is δ_KL
    (kron(S̃_KK, I) + kron(I, S̃_KKᵀ)) - 2 (N₁ + N₁ᴴ)_KL, where S̃ = sum_g
    g̃ᴴg̃ + g̃g̃ᴴ and N₁[(i, j), (i', j')] = sum_g g̃[i, i'] conj(g̃[j, j']): the
    adjoints' half of the ᴴ-closed sum is N₁ᴴ. Cluster K's rows of N₁ come
    from one (kD, G) @ (G, kD) GEMM.
    """
    dd = len(u)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    label = np.repeat(np.arange(len(sizes)), sizes)
    pi, pj = np.nonzero(label[:, None] == label[None, :])
    p = len(pi)
    rot = u.conj().T @ gens @ u
    stacked = rot.reshape(len(rot) * dd, dd)
    s = stacked.conj().T @ stacked
    s += (rot.transpose(1, 0, 2).reshape(dd, len(rot) * dd)
          @ rot.conj().transpose(0, 2, 1).reshape(len(rot) * dd, dd))
    normal = np.empty((p, p), dtype=complex)
    clusters = list(zip(bounds[:-1], bounds[1:], np.cumsum(sizes ** 2) - sizes ** 2))
    for lo, hi, off in clusters:
        k = hi - lo
        # [(i, i'), (j, j')] = sum_g g̃[i, i'] conj(g̃[j, j']) for i, j in the cluster
        rows = rot[:, lo:hi].reshape(len(rot), k * dd)
        prod = (rows.T @ rows.conj()).reshape(k, dd, k, dd)
        normal[off:off + k * k].reshape(k, k, p)[...] = prod[:, pi, :, pj].transpose(1, 2, 0)
    normal += normal.conj().T
    normal *= -2.0
    for lo, hi, off in clusters:
        k = hi - lo
        block = normal[off:off + k * k, off:off + k * k].reshape(k, k, k, k)  # [i, j, i', j']
        np.einsum("abcb->acb", block)[...] += s[lo:hi, lo:hi, None]  # S̃[i, i'] where j = j'
        np.einsum("abad->abd", block)[...] += s[lo:hi, lo:hi].T[None]  # S̃[j', j] where i = i'
    return normal, (pi, pj)


def commutant(generators: Iterable[np.ndarray], ambient_dim: int) -> OperatorSubspace:
    """Commutant of a set of D x D matrices (adjoints are adjoined first).

    Any other shape raises SpecMismatch. Matrices must be expressed in an
    orthonormal frame for the adjoint to coincide with the conjugate
    transpose. Over the ᴴ-closed set G the normal matrix of gX = Xg is
    kron(S, I) + kron(I, Sᵀ) - 2 sum_g kron(g, conj(g)) with S = sum_g gᴴg,
    but it is never built whole. Every X in the commutant commutes with one
    random Hermitian element h of the span of G (`_clusters`, the first step
    of Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27,
    2010), so UᴴXU is block diagonal over h's eigenspaces, U the eigenvectors
    of h. The unknowns are the p = sum k² entries of its diagonal blocks, one
    per eigenvalue cluster of size k, and the p x p restriction of the normal
    is built directly in the frame U (`_cluster_normal`). `_null_vectors`
    takes its nullspace by one `eigh` per exact block, with its cut `_TOL`
    max(λ_max, 1), and each null vector Y gives X = U Y Uᴴ, so the basis
    stays Frobenius-orthonormal.

    Merging clusters is always safe: the commutant lies inside the
    block-diagonal space of any coarser split, which only enlarges the
    search. So clusters are split only at gaps above `_CLUSTER` max|μ|,
    where the computed eigenspaces lie within about ε/`_CLUSTER` ≈ 2e-15 of
    the exact ones (Davis–Kahan): that is the floor of the relative
    residuals, which measure up to 5.6e-15 on the benchmark's rotated
    algebras and 9.3e-15 on Haar-rotated Cl(6). A degenerate h (no
    generators, or scalar ones) is one cluster, the full D² x D² problem.
    `errors.gate` checks D² (h), p² (the restriction) and each cluster's
    (kD)² GEMM product against `errors.MAX_ENTRIES` before they are
    allocated.

    For generators diag(A, C⁻¹AC) on H ⊕ H̄ with C unitary (so the set stays
    ᴴ-closed), gX = Xg splits into four quadrant equations: X₁₁, X₁₂C⁻¹, CX₂₁
    and CX₂₂C⁻¹ all lie in Q = {A}'. So the commutant is {[[q₁, q₂C],
    [C⁻¹q₃, C⁻¹q₄C]] : qᵢ ∈ Q}, of dimension 4 dim Q, and since I ∈ Q the
    bicommutant is {diag(z, C⁻¹zC) : z ∈ Q'}. The verifiers work on H by it.
    """
    gens = _matrix_stack(generators, ambient_dim)
    dd = ambient_dim
    what = f"commutant at ambient dimension {dd}"
    gate(dd * dd, what)  # h; p >= D, so this refuses nothing the p² gate would allow
    u, sizes = _clusters(gens)
    gate(int(np.sum(sizes ** 2)) ** 2, what)
    gate(int(sizes.max() * dd) ** 2, what)
    normal, (pi, pj) = _cluster_normal(gens, u, sizes)
    null = _null_vectors(normal)
    ys = np.zeros((len(null), dd, dd), dtype=complex)
    ys[:, pi, pj] = null
    return OperatorSubspace(dd, u @ ys @ u.conj().T)


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

    A nullspace by `_null_vectors`, with its cut `_TOL` max(λ_max, 1).
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
