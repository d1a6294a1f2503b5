"""Finite Hilbert-algebra engine: axioms, multipliers, commutants, traces.

The oracles here are deliberately dumb: plain Python loops over structure
constants and scipy nullspaces of explicitly assembled systems, so they share
no code path with the vectorized library routines they check.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import null_space
from scipy.sparse import csgraph

from hdqkit import clifford, hilbert
from hdqkit.errors import (HdqError, InvalidGram, NotIsomorphism, NotUnitary, ParseError,
                           ResourceError, SpecMismatch, StructureError)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def naive_product(alg: hilbert.FiniteHilbertAlgebra, x, y):
    d = alg.dim
    out = np.zeros(d, dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] += x[i] * y[j] * alg.structure[i, j, k]
    return out


def naive_multiplier_dim(alg: hilbert.FiniteHilbertAlgebra) -> int:
    """Nullspace dimension of the defect system, assembled element by element."""
    d = alg.dim
    lam = [hilbert.regular_representation(alg, np.eye(d)[i], "left") for i in range(d)]
    rho = [hilbert.regular_representation(alg, np.eye(d)[j], "right") for j in range(d)]
    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row = np.zeros(2 * d * d, dtype=complex)
                for a in range(d):
                    row[a * d + j] += lam[i][k, a]          # (lam_i L)[k, j]
                    row[d * d + a * d + i] -= rho[j][k, a]  # (rho_j R)[k, i]
                rows.append(row)
    return null_space(np.array(rows)).shape[1]


def naive_commutant_system(mats, dim: int) -> sparse.csr_array:
    """The rows of Xg - gX = 0 over the generators and their adjoints, written
    entry by entry from the definition: row (g, a, b) holds g[k, b] at column
    (a, k) and -g[a, k] at column (k, b), summed where the two meet."""
    mats = np.asarray(list(mats), dtype=complex).reshape(-1, dim, dim)
    gens = np.concatenate([mats, mats.conj().transpose(0, 2, 1)])
    a, b, k = np.indices((dim, dim, dim)).reshape(3, -1)
    row = np.arange(len(gens))[:, None] * dim * dim + np.tile(a * dim + b, 2)
    col = np.broadcast_to(np.concatenate([a * dim + k, k * dim + b]), row.shape)
    val = np.concatenate([gens[:, k, b], -gens[:, a, k]], axis=1)
    keep = val != 0
    system = sparse.coo_array((val[keep], (row[keep], col[keep])),
                              shape=(len(gens) * dim * dim, dim * dim)).tocsr()
    system.eliminate_zeros()
    return system


def naive_commutant(mats, dim: int) -> tuple[hilbert.OperatorSubspace, np.ndarray]:
    """Commutant from scipy nullspaces of the Gram matrix of the system above,
    one per connected component of its pattern (`scipy.sparse.csgraph`), and
    that Gram matrix, dense. The system itself has 2 G D² rows: 2 GB dense at
    the bicommutant of the doubled Cl(4)."""
    system = naive_commutant_system(mats, dim)
    gram = (system.conj().T @ system).tocsr()
    gram.eliminate_zeros()
    count, label = csgraph.connected_components(abs(gram), directed=False)
    vecs = []
    for c in range(count):
        idx = np.flatnonzero(label == c)
        null = null_space(gram[idx][:, idx].toarray())
        full = np.zeros((dim * dim, null.shape[1]), dtype=complex)
        full[idx] = null
        vecs.append(full)
    basis = np.concatenate(vecs, axis=1).T.reshape(-1, dim, dim)
    return hilbert.OperatorSubspace(dim, basis), gram.toarray()


def pair_defect(alg: hilbert.FiniteHilbertAlgebra, left, right) -> float:
    d = alg.dim
    worst = 0.0
    for i in range(d):
        for j in range(d):
            x, y = np.eye(d)[i], np.eye(d)[j]
            lhs = naive_product(alg, x, left @ y)
            rhs = naive_product(alg, right @ x, y)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def relative_defect(alg: hilbert.FiniteHilbertAlgebra, pairs) -> float:
    """Worst pair defect relative to max|c| times the Frobenius norm of L."""
    scale = float(np.abs(alg.structure).max())
    return max(p.defect / (scale * np.linalg.norm(p.left)) for p in pairs)


def named_algebra(name: str) -> hilbert.FiniteHilbertAlgebra:
    if name == "s3":
        return hilbert.example_algebra("s3")
    if name.startswith("mat"):
        return hilbert.example_algebra("full_matrix", n=int(name[3:]))
    return hilbert.example_algebra("cyclic_group", n=int(name[1:]))


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def frame_structure(alg: hilbert.FiniteHilbertAlgebra) -> np.ndarray:
    """Structure constants in the orthonormal frame W (gram = W†W)."""
    return hilbert.change_basis(alg, np.linalg.inv(alg.frame())).structure


def dense_solver_normal(c: np.ndarray) -> np.ndarray:
    """The solver's 2d² x 2d² normal matrix [[kron(X, I), B], [Bᴴ, kron(Y, I)]]
    for frame structure constants c, built dense: the oracle of the structured
    operator `solve_multipliers` applies and factors."""
    d = c.shape[0]
    dd = d * d
    cc, eye = np.conj(c), np.eye(d)
    b = -(cc.reshape(dd, d) @ c.reshape(dd, d).T).reshape(d, d, d, d).transpose(1, 3, 2, 0)
    b = b.reshape(dd, dd)
    return np.block([
        [np.kron(np.einsum("iak,ibk->ab", cc, c), eye), b],
        [b.conj().T, np.kron(np.einsum("ajk,bjk->ab", cc, c), eye)]])


def dense_commutant_normal(gens: np.ndarray) -> np.ndarray:
    """The D² x D² commutant normal of a ᴴ-closed (G, D, D) stack, dense.

    kron(S, I) + kron(I, Sᵀ) - 2 sum_g kron(g, conj(g)) with S = sum_g gᴴg,
    written row block by row block: the D rows (a, ·) are one (D, G) @
    (G, D²) GEMM. The oracle of the p x p restriction `commutant` builds.
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


def row_span_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest residual of a row of one orthonormal set projected onto the other."""
    def resid(x, y):
        return np.linalg.norm(x - (x @ y.conj().T) @ y, axis=1).max(initial=0.0)
    return float(max(resid(a, b), resid(b, a)))


def oracle_algebra(name: str, rotated: bool) -> hilbert.FiniteHilbertAlgebra:
    """mat3, m2+m3, Cl(4), s3 or zero algebras, optionally in a Haar basis."""
    if name == "cl4":
        alg = clifford.as_hilbert_algebra(2)
    elif name.startswith("zero"):
        # zero4: the all-zero algebra of dimension 4; zero1+m2: a zero direct summand
        zero = np.zeros((4,) * 3 if name == "zero4" else (1, 1, 1), dtype=complex)
        alg = hilbert.FiniteHilbertAlgebra(zero, np.eye(len(zero)), np.eye(len(zero)), name="zero")
        if name == "zero1+m2":
            alg = hilbert.combine(alg, named_algebra("mat2"), mode="direct_sum")
    elif "+" in name:
        a, b = name.split("+")
        alg = hilbert.combine(named_algebra(a.replace("m", "mat")),
                              named_algebra(b.replace("m", "mat")), mode="direct_sum")
    else:
        alg = named_algebra(name)
    if rotated:
        alg = hilbert.change_basis(alg, haar_unitary(np.random.default_rng(5), alg.dim))
    return alg


def frame_conjugation(alg: hilbert.FiniteHilbertAlgebra):
    """(W, W⁻¹, C): the orthonormal frame and the frame matrix C of the
    involution, which acts there as v -> C conj(v)."""
    w = alg.frame()
    winv = np.linalg.inv(w)
    return w, winv, w @ alg.involution.T @ np.conj(winv)


def doubled(mats: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """diag(A, C⁻¹AC) for each A of a (k, d, d) stack, C unitary."""
    k, d = mats.shape[:2]
    out = np.zeros((k, 2 * d, 2 * d), dtype=complex)
    out[:, :d, :d] = mats
    out[:, d:, d:] = cmat.conj().T @ mats @ cmat
    return out


def doubled_left_regulars(alg: hilbert.FiniteHilbertAlgebra) -> np.ndarray:
    """diag(L, C⁻¹LC) for the left regular maps: the doubled-space picture of
    the structure theorems."""
    w, winv, cmat = frame_conjugation(alg)
    return doubled(w @ alg.structure.transpose(0, 2, 1) @ winv, cmat)


def s3_conjugacy_class_count() -> int:
    table = hilbert._s3_table()
    n = table.shape[0]
    inv = [int(np.nonzero(table[g] == 0)[0][0]) for g in range(n)]
    seen, classes = set(), 0
    for g in range(n):
        if g in seen:
            continue
        classes += 1
        for h in range(n):
            seen.add(int(table[table[h, g], inv[h]]))
    return classes


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_scalar_algebra_all_residuals_zero(scalar_algebra):
    report = hilbert.validate_axioms(scalar_algebra)
    assert report["pass"]
    for key, val in report.items():
        if key.startswith(("axiom", "associativity", "involution")):
            assert val == 0.0


def test_full_matrix_axioms_pass(m2):
    report = hilbert.validate_axioms(m2)
    assert report["pass"]
    assert report["axiom_adjoint_product"] <= 1e-12
    assert report["product_span_rank"] == 4
    # matrix units act with operator norm 1 under the trace inner product
    assert report["left_mult_norm_max"] == pytest.approx(1.0, abs=1e-14)


def test_group_algebra_axioms_pass(s3, z2, c3):
    for alg in (s3, z2, c3):
        assert hilbert.validate_axioms(alg)["pass"]


def test_perturbed_gram_breaks_adjoint_axiom(m2):
    bad = hilbert.FiniteHilbertAlgebra(
        structure=m2.structure,
        involution=m2.involution,
        gram=np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex),
        name="m2-warped",
    )
    report = hilbert.validate_axioms(bad)
    assert report["axiom_adjoint_product"] > 1e-10
    assert not report["pass"]


def test_non_positive_gram_rejected(m2):
    with pytest.raises(InvalidGram):
        hilbert.validate_axioms(hilbert.FiniteHilbertAlgebra(
            m2.structure, m2.involution, -np.eye(4, dtype=complex)))
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(InvalidGram):
        hilbert.validate_axioms(hilbert.FiniteHilbertAlgebra(
            m2.structure, m2.involution, skew))


def test_broken_associativity_detected(m2):
    c = m2.structure.copy()
    c[1, 2, 0] += 0.25
    report = hilbert.validate_axioms(
        hilbert.FiniteHilbertAlgebra(c, m2.involution, m2.gram))
    assert report["associativity"] > 1e-10


@pytest.mark.parametrize("name", ["s3", "mat2", "c3"])
def test_axiom_residuals_match_einsum_oracle(name):
    # in a complex non-unitary basis, with the involution and the Gram
    # perturbed by complex Hermitian terms, the anti-automorphism and
    # adjoint-product residuals are 0.02-0.3 and must be the longhand
    # einsums'; a Gram read transposed (conjugated, here) or a dropped
    # transpose would show. Measured worst relative difference 3.9e-15.
    rng = np.random.default_rng(4)
    base = named_algebra(name)
    d = base.dim
    q = np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    alg = hilbert.change_basis(base, q)
    noise = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    c, s = alg.structure, alg.involution + 0.1 * noise[0]
    g = alg.gram + 0.01 * (noise[1] + noise[1].conj().T)
    report = hilbert.validate_axioms(hilbert.FiniteHilbertAlgebra(c, s, g))
    scale = max(1.0, float(np.abs(c).max()) ** 2)
    anti = np.einsum("ijm,mk->ijk", np.conj(c), s) - np.einsum("ja,ib,abk->ijk", s, s, c)
    adjoint = np.einsum("ijm,mk->ijk", np.conj(c), g) - np.einsum("jm,ia,akm->ijk", g, s, c)
    w = scipy.linalg.cholesky(g)
    norms = np.linalg.norm(w @ c.transpose(0, 2, 1) @ np.linalg.inv(w), 2, axis=(1, 2))
    for key, want in [("involution_antiautomorphism", np.abs(anti).max() / scale),
                      ("axiom_adjoint_product", np.abs(adjoint).max() / scale),
                      ("left_mult_norm_max", norms.max())]:
        assert want > 0.01
        assert abs(report[key] - want) <= 1e-14 * want
# ---------------------------------------------------------------------------

def test_regular_representation_matches_naive_product(m2, s3, rng):
    for alg in (m2, s3):
        d = alg.dim
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        lam = hilbert.regular_representation(alg, x, "left")
        rho = hilbert.regular_representation(alg, y, "right")
        want = naive_product(alg, x, y)
        assert np.allclose(lam @ y, want, atol=1e-12)
        assert np.allclose(rho @ x, want, atol=1e-12)


def test_unit_representation_is_identity(m2):
    one = m2.unit()
    assert one is not None
    assert np.allclose(hilbert.regular_representation(m2, one, "left"), np.eye(4))
    assert np.allclose(hilbert.regular_representation(m2, one, "right"), np.eye(4))


def test_lambda_homomorphism_rho_antihomomorphism(m2, s3, rng):
    for alg in (m2, s3):
        d = alg.dim
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        xy = alg.multiply(x, y)
        assert np.allclose(
            hilbert.regular_representation(alg, xy, "left"),
            hilbert.regular_representation(alg, x, "left")
            @ hilbert.regular_representation(alg, y, "left"), atol=1e-12)
        assert np.allclose(
            hilbert.regular_representation(alg, xy, "right"),
            hilbert.regular_representation(alg, y, "right")
            @ hilbert.regular_representation(alg, x, "right"), atol=1e-12)


def test_commutative_algebra_has_lambda_equal_rho(z2):
    for i in range(z2.dim):
        x = np.eye(z2.dim)[i]
        assert np.allclose(
            hilbert.regular_representation(z2, x, "left"),
            hilbert.regular_representation(z2, x, "right"))


def test_involution_conjugation_swaps_sides(s3):
    s = s3.involution
    for i in range(s3.dim):
        x = np.eye(s3.dim)[i]
        lam = hilbert.regular_representation(s3, x, "left")
        rho_star = hilbert.regular_representation(s3, s3.star(x), "right")
        assert np.allclose(s.T @ np.conj(lam) @ np.conj(s).T, rho_star, atol=1e-12)


def test_right_multiplication_is_nondegenerate(m2, z2, c3, s3):
    # if rho_y(x) = 0 for every basis y then x = 0
    for alg in (m2, z2, c3, s3):
        d = alg.dim
        stacked = np.vstack([
            hilbert.regular_representation(alg, np.eye(d)[j], "right")
            for j in range(d)])
        assert null_space(stacked).shape[1] == 0


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def test_multiplier_dimension_matches_bruteforce(m2, z2, c3, scalar_algebra):
    expected = {"mat2": 4, "c2": 2, "c3": 3, "mat1": 1}
    for alg in (m2, z2, c3, scalar_algebra):
        pairs = hilbert.solve_multipliers(alg)
        assert len(pairs) == expected[alg.name]
        assert len(pairs) == naive_multiplier_dim(alg)
        assert max(p.defect for p in pairs) <= 1e-13


def test_solved_pairs_satisfy_defect_equation(s3):
    for p in hilbert.solve_multipliers(s3):
        assert pair_defect(s3, p.left, p.right) <= 1e-13


def test_unital_pairs_come_from_algebra_elements(m2):
    one = m2.unit()
    for p in hilbert.solve_multipliers(m2):
        z = p.left @ one
        assert np.allclose(p.left, hilbert.regular_representation(m2, z, "left"), atol=1e-9)
        assert np.allclose(p.right, hilbert.regular_representation(m2, z, "right"), atol=1e-9)
        assert np.allclose(p.left @ one, p.right @ one, atol=1e-10)


def test_multiplier_right_is_involution_conjugated_adjoint(m2, s3, rng):
    skew = hilbert.change_basis(s3, np.eye(6) + 0.2 * rng.normal(size=(6, 6)))
    for alg in (m2, s3, skew):
        g = alg.gram
        ginv = np.linalg.inv(g)
        s = alg.involution
        for p in hilbert.solve_multipliers(alg):
            lstar = ginv @ p.left.conj().T @ g
            r_check = s.T @ np.conj(lstar) @ np.conj(s).T
            assert np.abs(r_check - p.right).max() <= 1e-13


@st.composite
def rotated_combinations(draw):
    """A direct sum or tensor product of two small algebras, d <= 12, in a
    random basis q = U diag(logspace(0, t)) V with Haar U, V and cond(q) =
    10^t <= 1e2."""
    names = st.sampled_from(["mat1", "mat2", "c2", "c3", "s3"])
    alg = hilbert.combine(named_algebra(draw(names)), named_algebra(draw(names)),
                          mode=draw(st.sampled_from(["direct_sum", "tensor"])))
    assume(alg.dim <= 12)  # keeps the element-by-element oracle small
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_cond = draw(st.floats(0.0, 2.0))
    d = alg.dim
    q = haar_unitary(rng, d) @ np.diag(np.logspace(0.0, log_cond, d)) @ haar_unitary(rng, d)
    return hilbert.change_basis(alg, q)


@given(rotated_combinations())
@settings(derandomize=True, max_examples=30, deadline=None)
def test_solver_and_verifiers_on_rotated_combinations(alg):
    # every combination of unital algebras is unital: d pairs, as brute force
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == alg.dim == naive_multiplier_dim(alg)
    assert relative_defect(alg, pairs) <= 1e-13
    assert hilbert.verify_caract(alg, pairs=pairs)["pass"]
    assert hilbert.verify_commutant_structure(alg, pairs=pairs)["pass"]


@given(rotated_combinations())
@settings(derandomize=True, max_examples=30, deadline=None)
def test_valid_algebras_have_a_unit_and_d_pairs(alg):
    # the theorem that solve_multipliers' one route rests on: an algebra that
    # passes validate_axioms is unital, so its pairs are the d (λ(a), ρ(a))
    if hilbert.validate_axioms(alg)["pass"]:
        assert alg.unit() is not None
        assert len(hilbert.solve_multipliers(alg)) == alg.dim


def frame_pair_rows(alg: hilbert.FiniteHilbertAlgebra, pairs) -> np.ndarray:
    """The pairs as rows (W L W⁻¹, W R W⁻¹) of 2d² entries, in the frame."""
    w = alg.frame()
    winv = np.linalg.inv(w)
    lefts = w @ np.array([p.left for p in pairs]) @ winv
    rights = w @ np.array([p.right for p in pairs]) @ winv
    return np.concatenate([lefts.reshape(len(pairs), -1), rights.reshape(len(pairs), -1)], axis=1)


@given(rotated_combinations())
@settings(derandomize=True, max_examples=30, deadline=None)
def test_unital_pairs_span_the_kernel_nullspace(alg):
    # the closed-form pairs (λ(e_i), ρ(e_i)), orthonormalised in the frame,
    # against the nullspace kernel on the solver normal. Both sides, and the
    # round trip through coordinates, move by about ε cond(W)², which reaches
    # 1e-12 at cond(W) = cond(q) ≈ 1e2: against a 40-digit frame span, the
    # kernel and the collapse each sat 2.4e-13 to 1.5e-12 off at cond(W) ≈ 75.
    # Over 200 examples the worst was 1.9e-15 cond(W)² apart and 1.1e-15
    # cond(W)² from orthonormal, and 2.3e-15 apart at cond(W) < 3
    pairs = hilbert.solve_multipliers(alg)
    rows = frame_pair_rows(alg, pairs)
    null = hilbert._null_vectors(dense_solver_normal(frame_structure(alg)))
    assert rows.shape == null.shape == (alg.dim, 2 * alg.dim ** 2)
    bound = 1e-14 + 4e-15 * np.linalg.cond(alg.frame()) ** 2
    assert np.abs(rows @ rows.conj().T - np.eye(alg.dim)).max() <= bound
    assert row_span_distance(rows, null) <= bound


def refuse_the_kernel(monkeypatch) -> None:
    """Make the nullspace kernel fail the test if reached."""
    def refused(*args):
        raise AssertionError("the nullspace kernel ran")

    monkeypatch.setattr(hilbert, "_null_vectors", refused)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("name", ["mat1", "s3", "mat3", "m2+m3", "cl4", "zero4", "zero1+m2"])
def test_solver_never_reaches_the_kernel(monkeypatch, name, rotated):
    # a unital algebra gets its d pairs from the unit; one with a zero
    # summand has no unit and raises, and neither reaches a nullspace
    alg = oracle_algebra(name, rotated)
    unital = not name.startswith("zero")
    assert (alg.unit() is not None) == unital
    refuse_the_kernel(monkeypatch)
    if unital:
        assert len(hilbert.solve_multipliers(alg)) == alg.dim
    else:
        with pytest.raises(StructureError):
            hilbert.solve_multipliers(alg)


@pytest.mark.parametrize("m", [1, 2])
def test_unital_verification_never_reaches_the_kernel(monkeypatch, m):
    # verify_unital_multipliers checks the collapse against the span that the
    # sign rule solves in closed form, not against a nullspace
    refuse_the_kernel(monkeypatch)
    report = clifford.verify_unital_multipliers(m)
    assert report["pass"] and report["solver_dimension"] == 4 ** m
    # measured 0 and 4.8e-16
    assert report["collapse_residual"] <= 2e-15


def test_unital_verification_catches_a_wrong_collapse(monkeypatch):
    # a pair outside the sign rule's span fails the check, even with the right count
    solve = hilbert.solve_multipliers

    def skewed(alg):
        pairs = solve(alg)
        pairs[0].left = pairs[0].left + 1e-6 * np.eye(alg.dim)[::-1]
        return pairs

    monkeypatch.setattr(clifford, "solve_multipliers", skewed)
    report = clifford.verify_unital_multipliers(1)
    assert report["solver_dimension"] == 4 and not report["pass"]
    assert report["collapse_residual"] > 1e-7


@pytest.mark.parametrize("cond", [1.0, 1e1, 1e2, 1e3, 1e4])
@pytest.mark.parametrize("name, count", [("s3", 6), ("mat2", 4), ("c3", 3)])
def test_solver_conditioning_range(name, count, cond):
    # every input takes the unit route, with d pairs; over six random O per
    # algebra the worst relative defect was 8.2e-15 / 8.1e-14 / 1.3e-12 at
    # cond(q) = 1e2 / 1e3 / 1e4 (mat2 at 1e4 here: 3.8e-14). The bicommutant
    # check, on normal equations, holds through 1e2.
    base = named_algebra(name)
    d = base.dim
    o, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(d, d)))
    alg = hilbert.change_basis(base, o @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ o.T)
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == count
    assert relative_defect(alg, pairs) <= 1e-14 + 1e-16 * cond**2
    if cond <= 1e2:
        assert hilbert.verify_caract(alg, pairs=pairs)["pass"]


@pytest.mark.parametrize("name", ["s3", "mat2", "c3", "zero4", "zero1+m2"])
def test_unit_is_found_for_exactly_the_unital_algebras(name):
    # unit() accepts the least-squares u by its normwise backward error
    # ‖rows u - rhs‖ / (σ_max ‖u‖ + ‖rhs‖) <= 1e-10. Over these 150 inputs
    # it measured at most 8.6e-16 on s3, mat2 and c3, and at least 6.1e-5 on
    # zero1+m2 (at cond(q) = 1e5) and 1 on zero4; every unital input then
    # gets its d pairs
    base = oracle_algebra(name, False)
    d = base.dim
    unital = not name.startswith("zero")
    for cond in [1.0, 1e2, 1e3, 1e4, 1e5]:
        for seed in range(6):
            o, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
            q = o @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ o.T
            alg = hilbert.change_basis(base, q)
            assert (alg.unit() is not None) == unital, (cond, seed)
            if unital:
                assert len(hilbert.solve_multipliers(alg)) == d


def test_solver_gates_normal_matrix_size():
    # no (2d²)² solver normal exists to gate: the all-zero d = 65 algebra has
    # no unit, unit()'s least squares on its 2d² x d rows is the largest work,
    # and it raises before any normal or pair is built; measured peak 3.0
    # structure tensors
    d = 65
    zero = np.zeros((d, d, d), dtype=complex)
    alg = hilbert.FiniteHilbertAlgebra(zero, np.eye(d), np.eye(d), name="zero")
    bound = 4 * alg.structure.nbytes
    tracemalloc.start()
    try:
        with pytest.raises(StructureError):
            hilbert.solve_multipliers(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_degenerate_solver_measures_defects_pair_by_pair():
    # every (L, R) is a multiplier pair of the all-zero d = 33 algebra; its
    # 2 * 33² = 2178 frame pairs are measured one (d, d, d) residual at a
    # time, so the peak stays a few structure tensors (measured 2.03), where
    # a batched (2178, d, d, d) residual would take 2178 of them
    d = 33
    zero = np.zeros((d, d, d), dtype=complex)
    alg = hilbert.FiniteHilbertAlgebra(zero, np.eye(d), np.eye(d), name="zero")
    pairs = np.eye(2 * d * d, dtype=complex).reshape(2 * d * d, 2, d, d)
    tracemalloc.start()
    try:
        defects = hilbert._pair_defects(alg, pairs[:, 0], pairs[:, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defects.shape == (2 * d * d,)
    assert np.all(defects == 0.0)
    assert peak < 4 * alg.structure.nbytes


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("name", ["s3", "mat3", "m2+m3", "cl4", "zero4", "zero1+m2"])
def test_structured_solver_matches_dense_oracle(name, rotated):
    # the closed-form pairs span the nullspace of the dense solver normal; an
    # algebra with a zero summand has more pairs than (λ(a), ρ(a)) give, every
    # (L, R) for zero4, and the solver refuses it
    alg = oracle_algebra(name, rotated)
    want = hilbert._null_vectors(dense_solver_normal(frame_structure(alg)))
    if name.startswith("zero"):
        assert len(want) == {"zero4": 2 * 4 * 4, "zero1+m2": 14}[name]
        with pytest.raises(StructureError):
            hilbert.solve_multipliers(alg)
        return
    rows = frame_pair_rows(alg, hilbert.solve_multipliers(alg))
    assert rows.shape == want.shape == (alg.dim, 2 * alg.dim ** 2)
    assert np.abs(rows @ rows.conj().T - np.eye(len(rows))).max() <= 1e-13
    assert row_span_distance(rows, want) <= 1e-13


@given(st.integers(2, 16))
@settings(derandomize=True, max_examples=15, deadline=None)
def test_cyclic_group_solver_splits_by_residue(n):
    # λ(e_u)[k, j] and ρ(e_u)[k, i] are nonzero only where k - j = u and
    # k - i = u mod n, so each solved pair lies on one residue class u, and
    # the n pairs take every residue; measured leak off the class over
    # n = 2..16: 2.5e-16
    alg = hilbert.example_algebra("cyclic_group", n=n)
    k, j = np.indices((n, n))
    residue = (k - j) % n
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == n
    classes = []
    for p in pairs:
        u = residue.flat[np.argmax(np.abs(p.left))]
        off = residue != u
        assert np.linalg.norm(p.left[off]) + np.linalg.norm(p.right[off]) <= 1e-15
        classes.append(u)
    assert sorted(classes) == list(range(n))
    # measured floor over n = 2..16: 8.8e-17
    assert max(p.defect for p in pairs) <= 2e-16


@st.composite
def defect_stacks(draw):
    """A small test algebra (d <= 4), optionally in a Haar basis, and random
    (p, d, d) stacks of lefts and rights."""
    alg = oracle_algebra(draw(st.sampled_from(["mat1", "c2", "c3", "c4", "mat2", "zero4"])),
                         draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(0, 4)), alg.dim, alg.dim)
    lefts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rights = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return alg, lefts, rights


@given(defect_stacks())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_pair_defects_match_loop_oracle(case):
    # measured floor over 600 random pairs: 5.3e-16 relative
    alg, lefts, rights = case
    got = hilbert._pair_defects(alg, lefts, rights)
    want = np.array([pair_defect(alg, lm, rm) for lm, rm in zip(lefts, rights)])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2e-15 * want)


def test_pair_product_stays_a_multiplier(s3):
    pairs = hilbert.solve_multipliers(s3)
    prod = pairs[1] @ pairs[3]
    assert pair_defect(s3, prod.left, prod.right) <= 1e-13


# ---------------------------------------------------------------------------
# the nullspace kernel
# ---------------------------------------------------------------------------

def eigh_null_projector(normal: np.ndarray, count: int) -> np.ndarray:
    """Projector onto the eigenvectors of the `count` smallest eigenvalues."""
    vecs = np.linalg.eigh(normal)[1][:, :count]
    return vecs @ vecs.conj().T


@st.composite
def hidden_block_normals(draw):
    """N = YᴴY with Y block diagonal, its indices permuted, and optionally one
    entry of Y that couples a row of one block to a column of another.

    Block b has size n_b and null dimension k_b: its rows are n_b - k_b
    orthonormal rows scaled by singular values in [1, 2]. A coupling entry of
    modulus at most 1/2 keeps every singular value of Y above 1/2, so the null
    dimension stays sum k_b and the nonzero eigenvalues stay above 1/4; one
    of modulus 1e-9 still moves the nullspace by about 1e-9.
    Returns (N, null dimension, number of components of N's pattern).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))), min_size=1, max_size=4))
    n = sum(size for size, _ in shapes)
    rows, offset, comps = [], 0, 0
    for size, null in shapes:
        rank = size - null
        q = haar_unitary(rng, size)[:rank]
        block = np.zeros((rank, n), dtype=complex)
        block[:, offset:offset + size] = rng.uniform(1.0, 2.0, size=(rank, 1)) * q
        rows.append(block)
        offset += size
        comps += 1 if rank else size  # an all-zero block is `size` singletons
    y = np.concatenate(rows)
    with_rows = [b for b, (size, null) in enumerate(shapes) if size > null]
    if draw(st.booleans()) and len(shapes) > 1 and with_rows:
        src = draw(st.sampled_from(with_rows))
        dst = draw(st.sampled_from([b for b in range(len(shapes)) if b != src]))
        starts = np.cumsum([0] + [size for size, _ in shapes])
        row = sum(size - null for size, null in shapes[:src])
        col = starts[dst] + draw(st.integers(0, shapes[dst][0] - 1))
        # a tiny coupling still merges the blocks: the split is on exact zeros
        y[row, col] = draw(st.sampled_from([0.5, 1e-6, 1e-9])) * np.exp(2j * np.pi * rng.uniform())
        comps -= 1  # the column's component (a block or a singleton) joins src's
    perm = rng.permutation(n)
    normal = (y.conj().T @ y)[np.ix_(perm, perm)]
    return normal, sum(null for _, null in shapes), comps


@given(hidden_block_normals())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_null_vectors_match_eigh_on_hidden_blocks(case):
    normal, null_dim, comps = case
    assert len(hilbert._components(normal)) == comps
    rows = hilbert._null_vectors(normal)
    assert rows.shape == (null_dim, normal.shape[0])
    # each row lives on one exact block: labelled as in naive_commutant, the
    # entries where it is nonzero all carry one component's label
    count, label = csgraph.connected_components(sparse.csr_array(normal != 0), directed=False)
    assert count == comps
    assert all(len(np.unique(label[row != 0])) == 1 for row in rows)
    assert np.abs(rows @ rows.conj().T - np.eye(null_dim)).max(initial=0.0) <= 1e-12
    got = rows.T @ rows.conj()  # projector sum_r |r><r|
    assert np.abs(got - eigh_null_projector(normal, null_dim)).max() <= 1e-12


def test_no_large_eigensolve_on_the_hot_path(monkeypatch):
    # the unital solve of mat4 takes no eigensolve, so the two commutant
    # normals of m2+m3 on H are the only kernel blocks; their nullities are
    # 13, the dimension of λ(A)' and of λ(A)''. Each is the restriction to the
    # diagonal blocks of one random Hermitian element's eigenclusters,
    # p = sum k² instead of D² = 169: the eigenspaces have sizes 2, 2, 3, 3, 3
    # (λ(A) is M₂ ⊗ I₂ ⊕ M₃ ⊗ I₃), and gaps under `_CLUSTER` merge some of
    # them, by a split that moves with rounding, so p is read from `_clusters`.
    # The only eigensolves are those of that element (13 x 13) and one `eigh`
    # of each p x p restriction, a single exact block.
    calls = {"eigh": [], "eigvalsh": []}

    def recording(solver, sizes):
        def wrapped(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return solver(a, *args, **kwargs)
        return wrapped

    for module, name in [(scipy.linalg, "eigh"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")]:
        monkeypatch.setattr(module, name, recording(getattr(module, name), calls[name]))
    restrictions = []
    clusters = hilbert._clusters

    def recording_clusters(gens):
        u, sizes = clusters(gens)
        restrictions.append(int(np.sum(sizes ** 2)))
        return u, sizes

    monkeypatch.setattr(hilbert, "_clusters", recording_clusters)
    rng = np.random.default_rng(11)
    mat4 = named_algebra("mat4")
    pairs = hilbert.solve_multipliers(hilbert.change_basis(mat4, haar_unitary(rng, 16)))
    assert len(pairs) == 16
    assert calls == {"eigh": [], "eigvalsh": []}
    m2m3 = hilbert.combine(named_algebra("mat2"), named_algebra("mat3"), mode="direct_sum")
    assert hilbert.verify_caract(hilbert.change_basis(m2m3, haar_unitary(rng, 13)))["pass"]
    assert len(restrictions) == 2 and max(restrictions) < 169
    assert calls["eigvalsh"] == []
    assert calls["eigh"] == [13, restrictions[0], 13, restrictions[1]]


def test_null_vectors_edge_cases():
    one = hilbert._null_vectors(np.zeros((1, 1)))
    assert one.shape == (1, 1) and abs(abs(one[0, 0]) - 1.0) <= 1e-15
    full = hilbert._null_vectors(np.zeros((5, 5), dtype=complex))
    assert full.shape == (5, 5)
    assert np.abs(full @ full.conj().T - np.eye(5)).max() <= 1e-15
    assert hilbert._null_vectors(np.eye(7)).shape == (0, 7)


@st.composite
def planted_psd_blocks(draw):
    """A Haar-rotated PSD block of size n <= 40 with a planted nullity below n
    and its other eigenvalues in [1/4, 4], two of them optionally moved to
    0.5 cut and 2 cut for the cut `_TOL` max(λ_max, 1) of `_null_vectors`;
    or, for one seed in five, a block with all its eigenvalues in
    [0, 5e-11], where the floor 1 sets the cut at 1e-10 and every
    eigenvector is kept.  The all-zero block is the test's one explicit
    example, so no draw is spent on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    if rng.uniform() < 0.2:
        eigs = rng.uniform(0.0, 5e-11, n)
    else:
        null = draw(st.integers(0, n - 1))
        eigs = np.concatenate([np.zeros(null), rng.uniform(0.25, 4.0, n - null)])
        if n - null >= 2 and draw(st.booleans()):
            cut = hilbert._TOL * max(eigs[null + 2:].max(initial=0.0), 1.0)
            eigs[null:null + 2] = [0.5 * cut, 2.0 * cut]
    u = haar_unitary(rng, n)
    return (u * eigs) @ u.conj().T


@given(planted_psd_blocks())
@example(np.zeros((7, 7)))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_dense_block_counts_eigenvalues_below_the_cut(normal):
    # `_null_vectors` keeps a dense block's eigenvectors at most the cut and
    # returns that many orthonormal rows, each of them in the span of the
    # eigenvalues at most 0.5 cut; measured worst over the 60 draws and the
    # all-zero example: orthonormality 2.2e-15, residual 0.5 cut + 1.3e-16
    eigs = np.linalg.eigvalsh(normal)
    cut = hilbert._TOL * max(eigs[-1], 1.0)
    rows = hilbert._null_vectors(normal)
    assert len(rows) == np.count_nonzero(eigs < cut)
    assert np.abs(rows @ rows.conj().T - np.eye(len(rows))).max(initial=0.0) <= 1e-14
    assert np.linalg.norm(normal @ rows.T, axis=0).max(initial=0.0) <= 0.5 * cut + 1e-14


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e5])
@pytest.mark.parametrize("name", ["s3", "mat2", "c3"])
def test_top_eigenvalue_on_solver_normals(name, cond):
    # `_null_vectors` cuts at `_TOL` times the top eigenvalue, here the dense
    # normal's λ_max (4 to 12, so above the floor of 1), and returns as many
    # rows as eigvalsh finds at most that cut
    base = named_algebra(name)
    d = base.dim
    o, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(d, d)))
    normal = dense_solver_normal(frame_structure(hilbert.change_basis(
        base, o @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ o.T)))
    assert len(hilbert._components(normal)) == 1
    eigs = np.linalg.eigvalsh(normal)
    assert eigs[-1] > 1.0
    rows = hilbert._null_vectors(normal)
    assert len(rows) == np.count_nonzero(eigs <= hilbert._TOL * eigs[-1])


def test_operator_subspace_matches_loop_oracles(rng):
    def project(sub, x):
        return sum((np.vdot(b, x) * b for b in sub.basis), np.zeros_like(x, dtype=complex))

    def distance(sub, x):
        return np.linalg.norm(x - project(sub, x)) / np.linalg.norm(x)

    mats = rng.normal(size=(2, 6, 3, 3)) + 1j * rng.normal(size=(2, 6, 3, 3))
    a = hilbert.OperatorSubspace.from_matrices(mats[0, :4], 3)
    b = hilbert.OperatorSubspace.from_matrices(np.concatenate([mats[0, :3], mats[1, :2]]), 3)
    for x in mats[1]:
        assert np.abs(a.project(x) - project(a, x)).max() <= 1e-14
        assert abs(a.distance(x) - distance(a, x)) <= 1e-14
    assert np.abs(a.project(mats[1]) - np.array([project(a, x) for x in mats[1]])).max() <= 1e-14
    want = max(max(distance(b, x) for x in a.basis), max(distance(a, x) for x in b.basis))
    assert abs(a.equals(b) - want) <= 1e-14
    assert a.distance(np.zeros((3, 3))) == 0.0
    assert a.equals(a) <= 1e-14


# ---------------------------------------------------------------------------
# commutants
# ---------------------------------------------------------------------------

def test_commutant_of_full_matrix_action_is_scalars():
    mats = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :] for i in range(2) for j in range(2)]
    sub = hilbert.commutant(mats, 2)
    assert sub.dim == 1
    assert sub.distance(np.eye(2)) <= 1e-12


def test_commutant_of_left_regulars_is_right_span(m2):
    lam = [hilbert.regular_representation(m2, np.eye(4)[i], "left") for i in range(4)]
    rho = [hilbert.regular_representation(m2, np.eye(4)[j], "right") for j in range(4)]
    sub = hilbert.commutant(lam, 4)
    assert sub.dim == 4
    assert sub.dim == naive_commutant(lam, 4)[0].dim
    span = hilbert.OperatorSubspace.from_matrices(rho, 4)
    assert sub.equals(span) <= 1e-13


def test_commutant_without_generators_is_everything():
    assert hilbert.commutant([], 2).dim == 4


def test_commutant_gates_normal_matrix_size():
    # (91^2)^2 entries exceed the gate, checked before any allocation
    with pytest.raises(ResourceError):
        hilbert.commutant([], 91)


def test_commutant_idempotence_and_containment(rng):
    gens = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    first = hilbert.commutant(gens, 3)
    second = hilbert.commutant(first.basis, 3)
    third = hilbert.commutant(second.basis, 3)
    for g in gens:
        assert second.distance(g) <= 1e-10
    assert first.equals(third) <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_commutant_of_rotated_matrix_amplification(seed):
    # the commutant of U (M_4 (x) 1) U* is U (1 (x) M_4) U*: a 16-fold null
    # cluster in a 256 x 256 normal matrix. Plain ?heevx vectors left this cluster
    # 8.9e-7 from orthonormal at seed 4 and 9.5e-11 at seed 6.
    u = haar_unitary(np.random.default_rng(seed), 16)
    units = np.eye(16).reshape(16, 4, 4)
    sub = hilbert.commutant(u @ np.kron(units, np.eye(4)) @ u.conj().T, 16)
    want = hilbert.OperatorSubspace.from_matrices(u @ np.kron(np.eye(4), units) @ u.conj().T, 16)
    flat = sub.basis.reshape(sub.dim, -1)
    assert sub.dim == 16
    assert np.abs(flat.conj() @ flat.T - np.eye(16)).max() <= 1e-13
    assert sub.equals(want) <= 1e-13


def test_commutant_basis_is_orthonormal(m2):
    lam = [hilbert.regular_representation(m2, np.eye(4)[i], "left") for i in range(4)]
    sub = hilbert.commutant(lam, 4)
    gram = np.array([[np.vdot(a, b) for b in sub.basis] for a in sub.basis])
    assert np.abs(gram - np.eye(sub.dim)).max() <= 1e-12


def check_commutant_against_oracle(gens, dim: int) -> tuple[hilbert.OperatorSubspace, int]:
    """`commutant` against the loop-assembled oracle: the dense normal
    (`dense_commutant_normal`) is the Gram matrix of the oracle's system, the
    p x p restriction `commutant` builds is that normal on the vectorized
    U E_ij Uᴴ of its unknowns, and the two nullspaces agree. Returns the
    commutant and the number of exact blocks (`_components`) of the dense
    normal."""
    gens = np.asarray(gens, dtype=complex).reshape(-1, dim, dim)
    normal = dense_commutant_normal(np.concatenate([gens, gens.conj().transpose(0, 2, 1)]))
    want, gram = naive_commutant(gens, dim)
    scale = max(1.0, float(np.abs(gram).max()))
    # measured worst 2.9e-15 of max(|gram|, 1), on the rotated doubled Cl(4);
    # 3.0e-15 for the restriction
    assert np.abs(normal - gram).max() <= 1e-14 * scale
    u, sizes = hilbert._clusters(gens)
    restricted, (pi, pj) = hilbert._cluster_normal(gens, u, sizes)
    embed = (u[:, None, pi] * u.conj()[None, :, pj]).reshape(dim * dim, len(pi))
    assert np.abs(restricted - embed.conj().T @ normal @ embed).max() <= 1e-14 * scale
    sub = hilbert.commutant(gens, dim)
    assert sub.dim == want.dim
    assert sub.equals(want) <= 1e-13
    return sub, len(hilbert._components(normal))


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("name", ["mat3", "m2+m3", "cl4"])
def test_commutant_blocks_match_dense_oracle(name, rotated):
    # first commutant and bicommutant of the doubled-space left regulars; in a
    # Haar basis the quadrants are the exact blocks, and the bicommutant joins two
    alg = oracle_algebra(name, rotated)
    d = alg.dim
    first, first_blocks = check_commutant_against_oracle(doubled_left_regulars(alg), 2 * d)
    second, second_blocks = check_commutant_against_oracle(first.basis, 2 * d)
    assert (first.dim, second.dim) == (4 * d, d)
    if rotated:
        assert (first_blocks, second_blocks) == (4, 3)


def test_commutant_of_random_and_no_generators_matches_dense_oracle(rng):
    gens = rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5))
    assert check_commutant_against_oracle(gens, 5)[0].dim == 1
    # one random generator commuting with a random 2 x 2 block structure
    u = haar_unitary(rng, 6)
    gens = u @ np.kron(rng.normal(size=(2, 3, 3)), np.eye(2)) @ u.conj().T
    assert check_commutant_against_oracle(gens, 6)[0].dim == 4
    # no generators: a zero normal, one 1 x 1 block per unknown
    sub, blocks = check_commutant_against_oracle([], 3)
    assert (sub.dim, blocks) == (9, 9)
    # ragged sparse patterns split the normal into blocks of several sizes
    mask = rng.random(size=(3, 6, 6)) < 0.3
    check_commutant_against_oracle(mask * (rng.normal(size=(3, 6, 6)) + 1j), 6)


def block_diagonal(stacks) -> np.ndarray:
    """Each (c, s, s) stack on its own diagonal block, in order, of one
    (sum c, D, D) stack with D = sum s."""
    dim = sum(stack.shape[-1] for stack in stacks)
    out, row, off = np.zeros((sum(map(len, stacks)), dim, dim), dtype=complex), 0, 0
    for stack in stacks:
        size = stack.shape[-1]
        out[row:row + len(stack), off:off + size, off:off + size] = stack
        row, off = row + len(stack), off + size
    return out


@st.composite
def amplified_matrix_algebras(draw):
    """Generators of U (⊕ M_n ⊗ I_m) Uᴴ for a Haar U, its commutant
    U (⊕ I_n ⊗ M_m) Uᴴ in closed form, the cluster sizes `_clusters` must
    find (None where a random element's gaps decide them) and whether
    `naive_commutant` resolves it to rounding.

    "units": the matrix units of each summand. "scalar": one to three complex
    multiples of I (M_1 ⊗ I_D), left unrotated, since U c I Uᴴ differs from c I
    by rounding, which the oracle's relative cut would resolve; their random
    element is a multiple of I, one cluster. "planted": one Hermitian
    generator (n = 1 throughout) with eigenvalues at least 0.4 apart, the
    largest of modulus 1, and a twin 0.5 `_CLUSTER` above one of them, so
    that the twin shares its neighbour's cluster and every other gap splits;
    the random element is a real multiple of the generator. The oracle's
    normal equations resolve the twin's eigenspace only to about
    ε (2 / 0.05)².
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["units", "scalar", "planted"]))
    clusters = None
    if kind == "scalar":
        dim = draw(st.integers(1, 8))
        summands = [(1, dim)]
        gens = (rng.normal(size=(draw(st.integers(1, 3)), 1, 1)) + 1j) * np.eye(dim)
        clusters = [dim]
    elif kind == "units":
        summands = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                 min_size=1, max_size=3))
        gens = block_diagonal([np.kron(np.eye(n * n).reshape(-1, n, n), np.eye(m))
                               for n, m in summands])
        dim = gens.shape[-1]
    else:
        mults = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        values = rng.permutation([-1.0, -0.6, -0.2, 0.2, 0.6, 1.0])[:len(mults)]
        values /= np.abs(values).max()
        twin = draw(st.integers(0, len(mults) - 1))
        values = np.append(values, values[twin] + 0.5 * hilbert._CLUSTER)
        mults.append(draw(st.integers(1, 3)))
        summands = [(1, m) for m in mults]
        dim = sum(mults)
        gens = np.diag(np.repeat(values, mults))[None].astype(complex)
        clusters = sorted(mults[:twin] + mults[twin + 1:-1] + [mults[twin] + mults[-1]])
    want = block_diagonal([np.kron(np.eye(n), np.eye(m * m).reshape(-1, m, m))
                           for n, m in summands])
    if kind != "scalar":
        u = haar_unitary(rng, dim)
        gens, want = u @ gens @ u.conj().T, u @ want @ u.conj().T
    return gens, hilbert.OperatorSubspace.from_matrices(want, dim), clusters, kind != "planted"


def test_clusters_of_anti_hermitian_generators():
    # with real weights z the random element sum_g z_g (g + gᴴ) of an
    # anti-Hermitian generator would be rounding noise, split at random;
    # complex weights keep its eigenspaces, of sizes 1, 2 and 3, and a
    # scalar generator is one cluster
    u = haar_unitary(np.random.default_rng(2), 6)
    for gen, sizes, dim in [(1j * np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 2.0]), [1, 2, 3], 14),
                            (2j * np.eye(6), [6], 36)]:
        gen = (u @ gen @ u.conj().T)[None]
        assert sorted(hilbert._clusters(gen)[1]) == sizes
        assert hilbert.commutant(gen, 6).dim == dim


@given(amplified_matrix_algebras())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_commutant_of_amplified_matrix_algebras(case):
    # measured worst over the 40 examples: orthonormality 3.8e-15, distance
    # from the closed form 2.7e-14 (a planted twin) and from the oracle
    # 6.2e-15 where it resolves the algebra (7.7e-13 where it does not)
    gens, want, clusters, resolved = case
    dim = gens.shape[-1]
    if clusters is not None:
        assert sorted(hilbert._clusters(gens)[1]) == clusters
    sub = hilbert.commutant(gens, dim)
    flat = sub.basis.reshape(sub.dim, -1)
    naive = naive_commutant(gens, dim)[0]
    assert sub.dim == want.dim == naive.dim
    assert np.abs(flat.conj() @ flat.T - np.eye(sub.dim)).max() <= 1e-13
    assert sub.equals(want) <= 1e-13
    if resolved:
        assert sub.equals(naive) <= 1e-13


# ---------------------------------------------------------------------------
# structure theorems on the doubled space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("name", ["mat3", "m2+m3", "cl4"])
def test_doubled_space_commutants_reduce_to_h(name, rotated):
    # the identity the verifiers rest on: with C unitary, the commutant of
    # diag(A, C⁻¹AC) is {[[q₁, q₂C], [C⁻¹q₃, C⁻¹q₄C]] : qᵢ ∈ Q = {A}'} and
    # its bicommutant is {diag(z, C⁻¹zC) : z ∈ Q'}
    alg = oracle_algebra(name, rotated)
    d = alg.dim
    w, winv, cmat = frame_conjugation(alg)
    assert np.abs(cmat.conj().T @ cmat - np.eye(d)).max() <= 1e-14
    q = hilbert.commutant(w @ alg.structure.transpose(0, 2, 1) @ winv, d)
    z = hilbert.commutant(q.basis, d)
    first = hilbert.commutant(doubled_left_regulars(alg), 2 * d)
    second = hilbert.commutant(first.basis, 2 * d)
    cinv = cmat.conj().T
    twisted = np.zeros((4, q.dim, 2 * d, 2 * d), dtype=complex)
    twisted[0, :, :d, :d] = q.basis
    twisted[1, :, :d, d:] = q.basis @ cmat
    twisted[2, :, d:, :d] = cinv @ q.basis
    twisted[3, :, d:, d:] = cinv @ q.basis @ cmat
    assert first.dim == 4 * q.dim and second.dim == z.dim
    assert first.equals(hilbert.OperatorSubspace.from_matrices(
        twisted.reshape(-1, 2 * d, 2 * d), 2 * d)) <= 1e-13
    assert second.equals(hilbert.OperatorSubspace.from_matrices(
        doubled(z.basis, cmat), 2 * d)) <= 1e-13


def test_bicommutant_matches_multiplier_span(m2, c3, s3):
    expected = {"mat2": 4, "c3": 3, "s3": 6}
    for alg in (m2, c3, s3):
        report = hilbert.verify_caract(alg)
        assert report["pass"], report
        assert report["bicommutant_dim"] == expected[alg.name]
        assert report["span_residual"] <= 1e-13


def test_commutant_block_form(m2, z2, scalar_algebra):
    for alg in (m2, z2, scalar_algebra):
        report = hilbert.verify_commutant_structure(alg)
        assert report["pass"], report
        assert report["commutant_dim"] == 4 * report["expected_dim"] // 4
        assert report["block_residual"] <= 1e-13


@pytest.mark.parametrize("name", ["mat4", "cl4"])
def test_structure_theorems_on_rotated_d16_algebras(name):
    # solve -> bicommutant -> commutant block form at d = 16, in a Haar basis
    base = named_algebra(name) if name != "cl4" else clifford.as_hilbert_algebra(2)
    alg = hilbert.change_basis(base, haar_unitary(np.random.default_rng(1), 16))
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == 16
    caract = hilbert.verify_caract(alg, pairs=pairs)
    assert caract["pass"] and caract["bicommutant_dim"] == 16
    struct = hilbert.verify_commutant_structure(alg, pairs=pairs)
    assert struct["pass"] and struct["commutant_dim"] == 64


def test_structure_theorems_on_combined_algebras(m2, c3):
    for mode in ("direct_sum", "tensor"):
        alg = hilbert.combine(m2, c3, mode=mode)
        assert hilbert.verify_caract(alg)["pass"]
        assert hilbert.verify_commutant_structure(alg)["pass"]


# ---------------------------------------------------------------------------
# traces and centers
# ---------------------------------------------------------------------------

def test_natural_trace_of_full_matrix_is_matrix_trace(m2):
    report = hilbert.natural_trace_check(m2)
    assert report["pass"]
    # basis e11, e12, e21, e22: the functional picks out e11 + e22
    assert np.allclose(report["functional"], [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_natural_trace_identity_on_shipped_algebras(m2, z2, c3, s3, scalar_algebra):
    for alg in (m2, z2, c3, s3, scalar_algebra):
        report = hilbert.natural_trace_check(alg)
        assert report["identity_residual"] <= 1e-10
        assert report["traciality_residual"] <= 1e-10


def test_center_dimensions(m2, z2, s3, scalar_algebra):
    assert hilbert.center(m2).shape[0] == 1
    assert hilbert.center(z2).shape[0] == 2
    assert hilbert.center(s3).shape[0] == s3_conjugacy_class_count()
    direct = hilbert.combine(m2, scalar_algebra, mode="direct_sum")
    assert hilbert.center(direct).shape[0] == 2


def test_center_elements_commute(s3, rng):
    z = hilbert.center(s3)
    v = z.T @ rng.normal(size=z.shape[0])
    lam = hilbert.regular_representation(s3, v, "left")
    rho = hilbert.regular_representation(s3, v, "right")
    assert np.abs(lam - rho).max() <= 1e-10


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_direct_sum_of_scalars_is_two_dimensional_commutative(scalar_algebra):
    alg = hilbert.combine(scalar_algebra, scalar_algebra, mode="direct_sum")
    assert alg.dim == 2
    assert hilbert.validate_axioms(alg)["pass"]
    assert len(hilbert.solve_multipliers(alg)) == 2
    assert hilbert.center(alg).shape[0] == 2


def test_tensor_square_of_full_matrix(m2):
    alg = hilbert.combine(m2, m2, mode="tensor")
    assert alg.dim == 16
    assert hilbert.validate_axioms(alg)["pass"]


def test_tensor_product_gates_structure_size():
    # (21 * 21)^3 ~ 8.6e7 entries exceed the gate, checked before the einsum
    zero = np.zeros((21, 21, 21), dtype=complex)
    alg = hilbert.FiniteHilbertAlgebra(zero, zero[0], zero[0], name="zero")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            hilbert.combine(alg, alg, mode="tensor")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_example_constructors_gate_structure_size():
    # mat21 needs 21⁶ ~ 8.6e7 structure entries, a group of order 407 needs
    # 407³ ~ 6.74e7; both exceed the gate, checked before the tensor exists
    table = hilbert._cyclic_table(407)
    for build in (lambda: hilbert.full_matrix_algebra(21),
                  lambda: hilbert.group_algebra(table)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_tensor_gram_factorizes(m2, c3, rng):
    alg = hilbert.combine(m2, c3, mode="tensor")
    a1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    a2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    b1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    b2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    lhs = alg.inner(np.kron(a1, b1), np.kron(a2, b2))
    rhs = m2.inner(a1, a2) * c3.inner(b1, b2)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_direct_sum_multiplier_dimension_adds(m2, c3):
    alg = hilbert.combine(m2, c3, mode="direct_sum")
    assert len(hilbert.solve_multipliers(alg)) == 4 + 3


def test_tensor_multiplier_dimension_multiplies(m2, c3):
    alg = hilbert.combine(m2, c3, mode="tensor")
    assert len(hilbert.solve_multipliers(alg)) == 4 * 3


# ---------------------------------------------------------------------------
# automorphisms and isomorphisms
# ---------------------------------------------------------------------------

def test_inner_automorphism_of_identity_pair(m2):
    one = m2.unit()
    pair = hilbert.MultiplierPair(
        hilbert.regular_representation(m2, one, "left"),
        hilbert.regular_representation(m2, one, "right"))
    u, report = hilbert.inner_automorphism(m2, pair)
    assert report["pass"]
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_inner_automorphism_is_matrix_conjugation(m2):
    # u = [[0, 1], [-1, 0]] is unitary; coordinates follow the e_ij layout
    u_coords = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
    pair = hilbert.MultiplierPair(
        hilbert.regular_representation(m2, u_coords, "left"),
        hilbert.regular_representation(m2, u_coords, "right"))
    umat, report = hilbert.inner_automorphism(m2, pair)
    assert report["pass"]
    u2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            want = (u2 @ e @ u2.conj().T).reshape(-1)
            got = umat @ np.eye(4)[i * 2 + j]
            assert np.allclose(got, want, atol=1e-10)


def test_involutive_multiplier_squares_to_identity(m2):
    # swap matrix e12 + e21 is self-inverse and unitary
    w = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex)
    pair = hilbert.MultiplierPair(
        hilbert.regular_representation(m2, w, "left"),
        hilbert.regular_representation(m2, w, "right"))
    umat, report = hilbert.inner_automorphism(m2, pair)
    assert report["pass"]
    assert np.allclose(umat @ umat, np.eye(4), atol=1e-10)


def test_non_unitary_pair_rejected(m2):
    e11 = np.eye(4)[0]
    pair = hilbert.MultiplierPair(
        hilbert.regular_representation(m2, e11, "left"),
        hilbert.regular_representation(m2, e11, "right"))
    with pytest.raises(NotUnitary):
        hilbert.inner_automorphism(m2, pair)


def test_extend_isomorphism_identity_fixes_pair(s3):
    pair = hilbert.solve_multipliers(s3)[0]
    moved, report = hilbert.extend_isomorphism(np.eye(6, dtype=complex), s3, s3, pair)
    assert report["pass"]
    assert np.allclose(moved.left, pair.left, atol=1e-12)
    assert np.allclose(moved.right, pair.right, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_change_basis_by_haar_unitary_keeps_axioms(m2, seed):
    # a non-symmetric q tells c'[i,j,k] = ... qinv[k, m] from qinv[m, k]
    q = haar_unitary(np.random.default_rng(seed), 4)
    report = hilbert.validate_axioms(hilbert.change_basis(m2, q))
    assert report["associativity"] <= 1e-13
    assert report["pass"]


def test_extend_isomorphism_through_basis_permutation(z2):
    perm = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    target = hilbert.change_basis(z2, perm)
    pair = hilbert.solve_multipliers(z2)[1]
    moved, report = hilbert.extend_isomorphism(perm, z2, target, pair)
    assert report["pass"]
    assert report["transported_defect"] <= 1e-9
    assert report["trace_residual"] <= 1e-9


def test_extend_isomorphism_preserves_trace_under_conjugation(m2):
    u2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    # conjugation by u2 in coordinates: e -> u2 e u2*
    phi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            phi[:, i * 2 + j] = (u2 @ e @ u2.conj().T).reshape(-1)
    target = hilbert.change_basis(m2, phi)
    for pair in hilbert.solve_multipliers(m2)[:2]:
        _, report = hilbert.extend_isomorphism(phi, m2, target, pair)
        assert report["pass"]
        assert report["trace_residual"] <= 1e-9


def test_non_multiplicative_map_rejected(m2, z2):
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    pair = hilbert.solve_multipliers(z2)[0]
    with pytest.raises(NotIsomorphism):
        hilbert.extend_isomorphism(bad, z2, z2, pair)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_malformed_group_table_raises():
    with pytest.raises(ParseError):
        hilbert.group_algebra(np.array([[0, 1], [1, 1]]))
    with pytest.raises(ParseError):
        hilbert.group_algebra(np.array([[1, 0], [0, 1]]))


def test_group_table_entries_outside_the_group_raise():
    # c3 with g1 g1 = g2 written as -1 (read as 2 by wrapping) or as 3
    for entry in (-1, 3):
        table = hilbert._cyclic_table(3)
        table[1, 1] = entry
        with pytest.raises(ParseError):
            hilbert.group_algebra(table)


def test_example_algebra_rejects_unknown_kind():
    with pytest.raises(ValueError):
        hilbert.example_algebra("octonions")


def test_example_algebra_rejects_non_integer_sizes():
    # truncating with int() would build another algebra: 2.5 -> mat2, 3.7 -> c3
    for kind in ("full_matrix", "cyclic_group"):
        for n in (2.5, 3.7, 2.0):
            with pytest.raises(SpecMismatch):
                hilbert.example_algebra(kind, n=n)
    with pytest.raises(SpecMismatch):
        hilbert.full_matrix_algebra(2.5)
    assert hilbert.example_algebra("cyclic_group", n=np.int64(3)).dim == 3


def test_bad_choices_raise_hdq_errors(m2):
    with pytest.raises(HdqError):
        hilbert.example_algebra("from_file", path="algebra.json")
    with pytest.raises(HdqError):
        hilbert.regular_representation(m2, np.eye(4)[0], side="middle")
    with pytest.raises(HdqError):
        hilbert.combine(m2, m2, mode="free_product")
    # sizes below one are malformed sizes; an empty group table is a parse error
    for kind in ("full_matrix", "cyclic_group"):
        for n in (0, -1):
            with pytest.raises(SpecMismatch):
                hilbert.example_algebra(kind, n=n)
    with pytest.raises(SpecMismatch):
        hilbert.full_matrix_algebra(0)
    with pytest.raises(ParseError):
        hilbert.group_algebra(np.zeros((0, 0), dtype=int))
    # non-finite entries in any of the three arrays are malformed input
    for part in range(3):
        data = [m2.structure.copy(), m2.involution.copy(), m2.gram.copy()]
        data[part].flat[1] = np.nan
        with pytest.raises(SpecMismatch):
            hilbert.FiniteHilbertAlgebra(*data)
    # generators that are not ambient_dim x ambient_dim, which a reshape
    # would split or reject with a numpy error
    for mats in ([np.arange(16.0).reshape(4, 4)], [np.eye(3)], [np.eye(2), np.ones(4)]):
        with pytest.raises(SpecMismatch):
            hilbert.commutant(mats, 2)
        with pytest.raises(SpecMismatch):
            hilbert.OperatorSubspace.from_matrices(mats, 2)
