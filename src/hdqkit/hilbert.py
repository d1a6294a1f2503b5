"""Finite-dimensional Hilbert algebras and their bounded multipliers.

An algebra is stored by structure constants, an involution matrix and a Gram
matrix. All operator-level verification happens in the orthonormal frame
W (gram = W†W), where adjoints are plain conjugate transposes and the
antilinear involution acts as v -> C · conj(v) for a unitary C.

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
import scipy.linalg as sla

from .errors import InvalidGram, NotIsomorphism, NotUnitary, ParseError, StructureError

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


@dataclass(frozen=True)
class FiniteHilbertAlgebra:
    """Structure constants + involution + Gram matrix of a *-algebra."""

    structure: np.ndarray
    involution: np.ndarray
    gram: np.ndarray
    name: str = "algebra"

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(np.asarray(self.structure, dtype=complex))
        s = np.asarray(self.involution, dtype=complex)
        g = np.asarray(self.gram, dtype=complex)
        d = c.shape[0]
        if c.shape != (d, d, d) or s.shape != (d, d) or g.shape != (d, d):
            raise StructureError(
                f"inconsistent shapes: c{c.shape}, S{s.shape}, G{g.shape}"
            )
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "involution", s)
        object.__setattr__(self, "gram", g)

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
        out = np.zeros_like(x, dtype=complex)
        for b in self.basis:
            out += np.vdot(b, x) * b
        return out

    def distance(self, x: np.ndarray) -> float:
        """Relative Frobenius distance from x to the subspace."""
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        return float(np.linalg.norm(x - self.project(x)) / nx)

    def equals(self, other: "OperatorSubspace") -> float:
        """Max of mutual projection residuals; 0 means identical spans."""
        r = 0.0
        for b in self.basis:
            r = max(r, other.distance(b))
        for b in other.basis:
            r = max(r, self.distance(b))
        return r

    @staticmethod
    def from_matrices(mats: Iterable[np.ndarray], ambient_dim: int,
                      tol: float = 1e-12) -> "OperatorSubspace":
        stack = np.array([np.asarray(m, dtype=complex).reshape(-1) for m in mats])
        if stack.size == 0:
            return OperatorSubspace(ambient_dim, np.zeros((0, ambient_dim, ambient_dim)))
        q = sla.orth(stack.T, rcond=tol)
        basis = q.T.reshape(-1, ambient_dim, ambient_dim)
        return OperatorSubspace(ambient_dim, basis)


# ---------------------------------------------------------------------------
# representations and axioms
# ---------------------------------------------------------------------------

def regular_representation(alg: FiniteHilbertAlgebra, x: np.ndarray,
                           side: Side = "left") -> np.ndarray:
    """Matrix of multiplication by x on coordinates, acting from one side."""
    x = np.asarray(x, dtype=complex)
    if side == "left":
        return np.einsum("i,ijk->kj", x, alg.structure)
    if side == "right":
        return np.einsum("j,ijk->ki", x, alg.structure)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _check_gram(gram: np.ndarray) -> None:
    if not np.allclose(gram, gram.conj().T, atol=1e-12):
        raise InvalidGram("gram matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
        raise InvalidGram(f"gram matrix not positive definite (min eig {eigs.min():.3e})")


def validate_axioms(alg: FiniteHilbertAlgebra, tol: float = 1e-10,
                    strict: bool = False) -> dict[str, Any]:
    """Check the defining axioms; returns per-axiom residuals.

    Raises InvalidGram for a bad Gram matrix. With strict=True any residual
    above tol raises StructureError.
    """
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
    lhs = np.einsum("ijm,mk->ijk", np.conj(c), s)         # (e_i e_j)*
    rhs = np.einsum("ja,ib,abk->ijk", s, s, c)            # e_j* e_i*
    res["involution_antiautomorphism"] = float(np.abs(lhs - rhs).max() / scale)

    # axiom: <y*, x*> = <x, y>
    res["axiom_star_isometry"] = float(
        np.abs(np.conj(s) @ g @ s.T - g.T).max() / max(1.0, np.abs(g).max())
    )

    # axiom: <x y, z> = <y, x* z>
    lhs = np.einsum("ijm,mk->ijk", np.conj(c), g)
    rhs = np.einsum("jm,ia,akm->ijk", g, s, c)
    res["axiom_adjoint_product"] = float(np.abs(lhs - rhs).max() / scale)

    # boundedness of multiplication is automatic here; record the constant
    w = alg.frame()
    winv = np.linalg.inv(w)
    lam_norms = [
        np.linalg.norm(w @ regular_representation(alg, np.eye(d)[i]) @ winv, 2)
        for i in range(d)
    ]
    res["left_mult_bound"] = 0.0
    report: dict[str, Any] = dict(res)
    report["left_mult_norm_max"] = float(max(lam_norms)) if lam_norms else 0.0

    # axiom: products span the algebra
    prod_rows = c.reshape(d * d, d)
    svals = np.linalg.svd(prod_rows, compute_uv=False)
    rank = int(np.sum(svals > tol * max(svals.max(), 1.0)))
    res["axiom_product_density"] = 0.0 if rank == d else 1.0
    report["axiom_product_density"] = res["axiom_product_density"]
    report["product_span_rank"] = rank

    report["pass"] = all(v <= tol for v in res.values())
    if strict and not report["pass"]:
        bad = {k: v for k, v in res.items() if v > tol}
        raise StructureError(f"axioms violated: {bad}")
    return report


# ---------------------------------------------------------------------------
# multiplier pairs
# ---------------------------------------------------------------------------

def solve_multipliers(alg: FiniteHilbertAlgebra, tol: float = 1e-10
                      ) -> list[MultiplierPair]:
    """All pairs (L,R) with lam(x) L(y) = rho(y) R(x), via an SVD nullspace.

    Both maps are returned as matrices on coordinates. The basis spans the
    solution space orthonormally in the stacked (L,R) vectorization.
    """
    d = alg.dim
    lam = [regular_representation(alg, np.eye(d)[i], "left") for i in range(d)]
    rho = [regular_representation(alg, np.eye(d)[j], "right") for j in range(d)]

    n_unknown = 2 * d * d
    rows = np.zeros((d * d * d, n_unknown), dtype=complex)
    lcol = np.arange(d)  # L[k, j] lives at k*d + j
    for i in range(d):
        for j in range(d):
            blk = slice((i * d + j) * d, (i * d + j + 1) * d)
            rows[blk, lcol * d + j] = lam[i]
            rows[blk, d * d + lcol * d + i] = -rho[j]

    # the economy SVD keeps the whole nullspace as long as rows >= cols;
    # only d = 1 falls below that
    svals, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])[1:]
    cutoff = tol * max(svals.max(), 1.0) if svals.size else tol
    null = vh[np.sum(svals > cutoff):].conj()

    pairs: list[MultiplierPair] = []
    for vec in null:
        left = vec[: d * d].reshape(d, d)
        right = vec[d * d:].reshape(d, d)
        defect = 0.0
        for i in range(d):
            for j in range(d):
                resid = lam[i] @ left[:, j] - rho[j] @ right[:, i]
                defect = max(defect, float(np.abs(resid).max()))
        pairs.append(MultiplierPair(left, right, defect))
    return pairs


def pair_adjoint(alg: FiniteHilbertAlgebra, pair: MultiplierPair) -> MultiplierPair:
    """Adjoint multiplier (L*, R*), adjoints taken against the gram."""
    g = alg.gram
    ginv = np.linalg.inv(g)

    def adj(a: np.ndarray) -> np.ndarray:
        return ginv @ a.conj().T @ g

    return MultiplierPair(adj(pair.left), adj(pair.right), pair.defect)


def commutant(generators: Iterable[np.ndarray], ambient_dim: int,
              tol: float = 1e-10) -> OperatorSubspace:
    """Commutant of a set of matrices (adjoints are adjoined first).

    Matrices must be expressed in an orthonormal frame for the adjoint to
    coincide with the conjugate transpose.
    """
    dd = ambient_dim
    gens: list[np.ndarray] = []
    for gmat in generators:
        gmat = np.asarray(gmat, dtype=complex)
        gens.append(gmat)
        gens.append(gmat.conj().T)

    # normal matrix of the stacked conditions gX - Xg = 0, assembled from
    # Kronecker identities to avoid dd^2 x dd^2 matrix products per generator
    eye = np.eye(dd)
    normal = np.zeros((dd * dd, dd * dd), dtype=complex)
    for gmat in gens:
        gh = gmat.conj().T
        normal += np.kron(gh @ gmat, eye)
        normal += np.kron(eye, (gmat @ gh).T)
        normal -= np.kron(gh, gmat.T)
        normal -= np.kron(gmat, gh.T)
    eigval, eigvec = np.linalg.eigh(0.5 * (normal + normal.conj().T))
    # eigenvalues are squared residuals, but the eigh noise floor on true
    # zeros scales linearly with the top eigenvalue, so the cutoff must too
    lam_max = max(float(eigval[-1]), 1.0)
    keep = eigval <= lam_max * max(tol, 64.0 * np.finfo(float).eps)
    basis = eigvec[:, keep].T.reshape(-1, dd, dd)
    return OperatorSubspace(dd, basis)


# ---------------------------------------------------------------------------
# doubled-space verification of the structure theorems
# ---------------------------------------------------------------------------

def _frame_conjugation(alg: FiniteHilbertAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (W, W^-1, C) with C the frame matrix of the involution."""
    w = alg.frame()
    winv = np.linalg.inv(w)
    cmat = w @ alg.involution.T @ np.conj(winv)
    return w, winv, cmat


def _embed_left(lmat_frame: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """diag(L, C^-1 L C): the doubled-space picture of a multiplier."""
    d = lmat_frame.shape[0]
    cinv = cmat.conj().T  # C is unitary
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = lmat_frame
    out[d:, d:] = cinv @ lmat_frame @ cmat
    return out


def verify_caract(alg: FiniteHilbertAlgebra, tol: float = 1e-10,
                  pairs: list[MultiplierPair] | None = None) -> dict[str, Any]:
    """Bicommutant characterization of the multiplier pairs.

    Embeds the regular pairs on the doubled space, takes the double
    commutant, and compares with the span of the solved multiplier pairs.
    """
    d = alg.dim
    w, winv, cmat = _frame_conjugation(alg)

    gens = []
    for i in range(d):
        lam_w = w @ regular_representation(alg, np.eye(d)[i], "left") @ winv
        gens.append(_embed_left(lam_w, cmat))

    first = commutant(gens, 2 * d, tol)
    second = commutant(first.basis, 2 * d, tol)

    if pairs is None:
        pairs = solve_multipliers(alg, tol)
    embedded = [
        _embed_left(w @ p.left @ winv, cmat) for p in pairs
    ]
    span = OperatorSubspace.from_matrices(embedded, 2 * d)

    residual = second.equals(span)
    report = {
        "multiplier_dim": len(pairs),
        "bicommutant_dim": second.dim,
        "span_residual": residual,
        "max_pair_defect": max((p.defect for p in pairs), default=0.0),
        "pass": residual <= tol and second.dim == span.dim,
    }
    return report


def verify_commutant_structure(alg: FiniteHilbertAlgebra, tol: float = 1e-10,
                               pairs: list[MultiplierPair] | None = None
                               ) -> dict[str, Any]:
    """Block form of the commutant of the embedded multiplier algebra.

    Writing the embedded algebra as diag(L, C^-1 L C) on H (+) conj(H), its
    commutant must consist of the blocks
        [[R1, R2 C], [C^-1 R3, C^-1 R4 C]]
    with each R_i ranging over the right-multiplier space, hence dimension
    exactly four times the multiplier dimension.
    """
    d = alg.dim
    w, winv, cmat = _frame_conjugation(alg)
    cinv = cmat.conj().T

    if pairs is None:
        pairs = solve_multipliers(alg, tol)
    embedded = [_embed_left(w @ p.left @ winv, cmat) for p in pairs]
    comm = commutant(embedded, 2 * d, tol)

    rspan = OperatorSubspace.from_matrices(
        [w @ regular_representation(alg, np.eye(d)[i], "right") @ winv
         for i in range(d)] +
        [w @ p.right @ winv for p in pairs],
        d,
    )

    # measure the absolute out-of-form component of each unit-norm commutant
    # element; a relative distance would blow up on noise-level blocks
    block_residual = 0.0
    for b in comm.basis:
        s11, s12 = b[:d, :d], b[:d, d:]
        s21, s22 = b[d:, :d], b[d:, d:]
        for blk in (s11, s12 @ cinv, cmat @ s21, cmat @ s22 @ cinv):
            off = np.linalg.norm(blk - rspan.project(blk))
            block_residual = max(block_residual, off)

    expected = 4 * len(pairs)
    report = {
        "commutant_dim": comm.dim,
        "expected_dim": expected,
        "block_residual": block_residual,
        "pass": comm.dim == expected and block_residual <= tol,
    }
    return report


def natural_trace_check(alg: FiniteHilbertAlgebra, tol: float = 1e-10
                        ) -> dict[str, Any]:
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
        "pass": residual <= tol and comm_res <= tol,
    }


def center(alg: FiniteHilbertAlgebra, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal coordinate basis of {z : lam(z) = rho(z)}, shape (k, d)."""
    c = alg.structure
    d = alg.dim
    # (lam_z - rho_z)[k,l] = sum_i z_i (c[i,l,k] - c[l,i,k])
    bmat = (c.transpose(2, 1, 0) - c.transpose(2, 0, 1)).reshape(d * d, d)
    svals, vh = np.linalg.svd(bmat, full_matrices=False)[1:]
    cutoff = tol * max(svals.max(), 1.0) if svals.size else tol
    return vh[np.sum(svals > cutoff):].conj()


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def combine(a: FiniteHilbertAlgebra, b: FiniteHilbertAlgebra,
            mode: Literal["direct_sum", "tensor"]) -> FiniteHilbertAlgebra:
    """Direct sum or tensor product, with the induced involution and Gram."""
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
    if mode == "tensor":
        c = np.einsum("ikm,jln->ijklmn", a.structure, b.structure)
        c = c.reshape(da * db, da * db, da * db)
        s = np.kron(a.involution, b.involution)
        g = np.kron(a.gram, b.gram)
        return FiniteHilbertAlgebra(c, s, g, name=f"{a.name}(x){b.name}")
    raise ValueError(f"mode must be 'direct_sum' or 'tensor', got {mode!r}")


def change_basis(alg: FiniteHilbertAlgebra, q: np.ndarray,
                 name: str | None = None) -> FiniteHilbertAlgebra:
    """Rewrite the algebra in the basis f_i = sum_a q[a,i] e_a (q invertible)."""
    qinv = np.linalg.inv(q)
    c = np.einsum("ai,bj,abm,km->ijk", q, q, alg.structure, qinv)
    # new coords v correspond to old coords q v; the old star is S^T conj(qv),
    # mapped back by qinv, so the new star matrix satisfies
    # S'^T = qinv @ S^T @ conj(q)
    s = (qinv @ alg.involution.T @ np.conj(q)).T
    g = np.conj(q.T) @ alg.gram @ q
    return FiniteHilbertAlgebra(c, s, g, name=name or f"{alg.name}~")


def inner_automorphism(alg: FiniteHilbertAlgebra, pair: MultiplierPair,
                       tol: float = 1e-9) -> tuple[np.ndarray, dict[str, Any]]:
    """Automorphism x -> L(R*(x)) induced by a unitary multiplier pair."""
    d = alg.dim
    w, winv, _ = _frame_conjugation(alg)
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
    rhs = np.einsum("ai,bj,abk->ijk", u, u, c)
    mult_res = float(np.abs(lhs - rhs).max())
    star_res = float(np.abs(u @ alg.involution.T - alg.involution.T @ np.conj(u)).max())
    uw = w @ u @ winv
    unitary_res = float(np.abs(uw.conj().T @ uw - eye).max())
    report = {
        "multiplicative_residual": mult_res,
        "involution_residual": star_res,
        "unitary_residual": unitary_res,
        "pass": max(mult_res, star_res, unitary_res) <= tol,
    }
    return u, report


def extend_isomorphism(phi: np.ndarray, a: FiniteHilbertAlgebra,
                       b: FiniteHilbertAlgebra, pair: MultiplierPair,
                       tol: float = 1e-9) -> tuple[MultiplierPair, dict[str, Any]]:
    """Push a multiplier pair through a unitary *-isomorphism phi: a -> b.

    Verifies that phi is Gram-unitary, multiplicative and involution
    compatible, transports (L,R) to (phi L phi^-1, phi R phi^-1), measures the
    transported defect on b, and checks trace compatibility on basis products.
    """
    if a.dim != b.dim:
        raise NotIsomorphism(f"dimension mismatch {a.dim} != {b.dim}")
    d = a.dim
    phi = np.asarray(phi, dtype=complex)
    g_res = float(np.abs(phi.conj().T @ b.gram @ phi - a.gram).max())
    lhs = np.einsum("kl,ijl->ijk", phi, a.structure)
    rhs = np.einsum("ai,bj,abk->ijk", phi, phi, b.structure)
    m_res = float(np.abs(lhs - rhs).max())
    s_res = float(np.abs(phi @ a.involution.T - b.involution.T @ np.conj(phi)).max())
    if max(g_res, m_res, s_res) > 1e-8:
        raise NotIsomorphism(
            f"not a unitary *-isomorphism: gram {g_res:.2e}, "
            f"product {m_res:.2e}, star {s_res:.2e}"
        )

    phinv = np.linalg.inv(phi)
    moved = MultiplierPair(phi @ pair.left @ phinv, phi @ pair.right @ phinv)

    lam = [regular_representation(b, np.eye(d)[i], "left") for i in range(d)]
    rho = [regular_representation(b, np.eye(d)[j], "right") for j in range(d)]
    defect = 0.0
    for i in range(d):
        for j in range(d):
            resid = lam[i] @ moved.left[:, j] - rho[j] @ moved.right[:, i]
            defect = max(defect, float(np.abs(resid).max()))
    moved.defect = defect

    ta = natural_trace_check(a)["functional"]
    tb = natural_trace_check(b)["functional"]
    prods = np.einsum("ia,ajk->ijk", a.involution, a.structure).reshape(d * d, d)
    trace_res = float(np.abs(prods @ ta - (prods @ phi.T) @ tb).max())

    report = {
        "gram_residual": g_res,
        "multiplicative_residual": m_res,
        "involution_residual": s_res,
        "transported_defect": defect,
        "trace_residual": trace_res,
        "pass": max(g_res, m_res, s_res, defect, trace_res) <= tol,
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
    table = np.asarray(table, dtype=int)
    n = table.shape[0]
    if table.shape != (n, n):
        raise ParseError("group table must be square")
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
    d = n * n

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


def example_algebra(kind: str, **params: Any) -> FiniteHilbertAlgebra:
    """Factory for the shipped examples.

    kinds: 'full_matrix' (n), 'cyclic_group' (n), 's3', 'group' (table),
    'from_file' (path).
    """
    if kind == "full_matrix":
        return full_matrix_algebra(int(params.get("n", 2)))
    if kind == "cyclic_group":
        n = int(params.get("n", 3))
        return group_algebra(_cyclic_table(n), name=f"c{n}")
    if kind == "s3":
        return group_algebra(_s3_table(), name="s3")
    if kind == "group":
        return group_algebra(np.asarray(params["table"]), name=params.get("name", "group"))
    if kind == "from_file":
        from . import io as _io

        return _io.load_algebra(params["path"])
    raise ValueError(f"unknown algebra kind {kind!r}")
