"""Finite Hilbert-algebra engine: axioms, multipliers, commutants, traces.

The oracles here are deliberately dumb: plain Python loops over structure
constants and scipy nullspaces of explicitly assembled systems, so they share
no code path with the vectorized library routines they check.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from hdqkit import clifford, hilbert
from hdqkit.errors import (HdqError, InvalidGram, NotIsomorphism, NotUnitary, ParseError,
                           ResourceError)


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


def naive_commutant_dim(mats, dim: int) -> int:
    gens = []
    for g in mats:
        gens += [np.asarray(g, dtype=complex), np.asarray(g, dtype=complex).conj().T]
    rows = []
    for g in gens:
        for a in range(dim):
            for b in range(dim):
                row = np.zeros(dim * dim, dtype=complex)
                for k in range(dim):
                    row[a * dim + k] += np.conj(g[k, b])  # hermitian-safe assembly
                    row[k * dim + b] -= np.conj(g[a, k])
                rows.append(np.conj(row))
    return null_space(np.array(rows)).shape[1]


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


# ---------------------------------------------------------------------------
# regular representations
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


@pytest.mark.parametrize("cond", [1.0, 1e1, 1e2, 1e3, 1e4])
@pytest.mark.parametrize("name, count", [("s3", 6), ("mat2", 4), ("c3", 3)])
def test_solver_conditioning_range(name, count, cond):
    # the normal equations square cond(q): counts hold through 1e4, and the
    # relative defect grows as cond(q)^2 (over twelve random O per algebra the
    # worst was 6.5e-14 / 7.2e-12 / 3.8e-9 at cond(q) = 1e2 / 1e3 / 1e4).
    # The bicommutant check, also on normal equations, holds through 1e2.
    base = named_algebra(name)
    d = base.dim
    o, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(d, d)))
    alg = hilbert.change_basis(base, o @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ o.T)
    pairs = hilbert.solve_multipliers(alg)
    assert len(pairs) == count
    assert relative_defect(alg, pairs) <= 1e-14 + 1e-16 * cond**2
    if cond <= 1e2:
        assert hilbert.verify_caract(alg, pairs=pairs)["pass"]


def test_solver_gates_normal_matrix_size():
    # (2 * 65^2)^2 entries exceed the gate; nothing is allocated or factored
    zero = np.zeros((65, 65, 65), dtype=complex)
    with pytest.raises(ResourceError):
        hilbert.solve_multipliers(
            hilbert.FiniteHilbertAlgebra(zero, zero[0], zero[0], name="zero"))


def test_solver_gates_defect_tensor_size():
    # the all-zero d = 33 algebra has 2 * 33² = 2178 pairs, whose defect
    # residuals need 2178 * 33³ ~ 7.8e7 entries (1.25 GB per temporary); the
    # peak before the gate trips, the normal matrix and the null rows, measured
    # 165 MiB, and the bound is 1.3 times that
    d = 33
    zero = np.zeros((d, d, d), dtype=complex)
    alg = hilbert.FiniteHilbertAlgebra(zero, np.eye(d), np.eye(d), name="zero")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            hilbert.solve_multipliers(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 215 << 20


def test_pair_product_and_adjoint_stay_multipliers(s3):
    pairs = hilbert.solve_multipliers(s3)
    prod = pairs[1] @ pairs[3]
    assert pair_defect(s3, prod.left, prod.right) <= 1e-13
    adj = hilbert.pair_adjoint(s3, pairs[2])
    assert pair_defect(s3, adj.left, adj.right) <= 1e-13


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
    assert np.abs(rows @ rows.conj().T - np.eye(null_dim)).max(initial=0.0) <= 1e-12
    got = rows.T @ rows.conj()  # projector sum_r |r><r|
    assert np.abs(got - eigh_null_projector(normal, null_dim)).max() <= 1e-12


@st.composite
def wide_block_normals(draw, null):
    """One dense block N = U diag(eigs) Uᴴ (Haar U) of size n <= 48 with `null`
    zero eigenvalues (all n when null is None), wide enough that the kernel's
    random block starts narrower than N and must decide whether to grow.

    A width w stops once w - k >= 4 Ritz values lie above the cut, so nullities
    3, 4, 5 straddle the stop at width 8 and 27, 28, 29 the stop at width 32.
    The nonzero eigenvalues lie in [1/4, 4] with 4 attained, so the cut is
    4e-10 at `_TOL` = 1e-10; optionally two of them move to 0.5 cut and 2 cut. An
    all-null block has eigenvalues in [0, 5e-11], below its cut of 1e-10.
    Returns (N, whether the near-cut pair is present).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(9 if null is None or null < 8 else 33, 48))
    near_cut = False
    if null is None:
        eigs = rng.uniform(0.0, 5e-11, n)
    else:
        eigs = np.concatenate([np.zeros(null), [4.0], rng.uniform(0.25, 4.0, n - null - 1)])
        near_cut = n - null >= 3 and draw(st.booleans())
        if near_cut:
            eigs[null + 1:null + 3] = [0.5 * 4e-10, 2.0 * 4e-10]
    u = haar_unitary(rng, n)
    return (u * eigs) @ u.conj().T, near_cut


@pytest.mark.parametrize("null", [0, 3, 4, 5, 27, 28, 29, None])
@given(data=st.data())
@settings(derandomize=True, max_examples=12, deadline=None)
def test_null_vectors_match_eigh_across_block_widths(null, data):
    normal, near_cut = data.draw(wide_block_normals(null))
    assert len(hilbert._components(normal)) == 1
    rows = hilbert._null_vectors(normal)
    eigs = np.linalg.eigvalsh(normal)
    count = int(np.count_nonzero(eigs <= max(eigs[-1], 1.0) * 1e-10))
    assert rows.shape == (count, normal.shape[0])
    assert count == (normal.shape[0] if null is None else null + near_cut)
    assert np.abs(rows @ rows.conj().T - np.eye(count)).max(initial=0.0) <= 1e-12
    if not near_cut:
        # eigenvectors at 0.5 cut and 2 cut are only resolved to about
        # ε λ_max / cut by any eigensolver, so there only the count is compared
        got = rows.T @ rows.conj()
        assert np.abs(got - eigh_null_projector(normal, count)).max() <= 1e-12


def test_no_large_eigensolve_on_the_hot_path(monkeypatch):
    # the nullspace kernel only eigensolves Rayleigh–Ritz matrices; here every
    # block stops by width 32, against solver and commutant blocks of 512 and 169
    sizes = []

    def recording(solver):
        def wrapped(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return solver(a, *args, **kwargs)
        return wrapped

    for module, name in [(hilbert.sla, "eigh"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")]:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    blocks = []
    kernel = hilbert._block_null_vectors
    monkeypatch.setattr(hilbert, "_block_null_vectors",
                        lambda blk, cut: blocks.append(len(blk)) or kernel(blk, cut))
    rng = np.random.default_rng(11)
    mat4 = named_algebra("mat4")
    pairs = hilbert.solve_multipliers(hilbert.change_basis(mat4, haar_unitary(rng, 16)))
    assert len(pairs) == 16
    m2m3 = hilbert.combine(named_algebra("mat2"), named_algebra("mat3"), mode="direct_sum")
    assert hilbert.verify_caract(hilbert.change_basis(m2m3, haar_unitary(rng, 13)))["pass"]
    assert max(blocks) == 512 and min(blocks) >= 169
    assert sizes and max(sizes) <= hilbert._START_WIDTH * hilbert._GROWTH


def test_null_vectors_edge_cases():
    one = hilbert._null_vectors(np.zeros((1, 1)))
    assert one.shape == (1, 1) and abs(abs(one[0, 0]) - 1.0) <= 1e-15
    full = hilbert._null_vectors(np.zeros((5, 5), dtype=complex))
    assert full.shape == (5, 5)
    assert np.abs(full @ full.conj().T - np.eye(5)).max() <= 1e-15
    assert hilbert._null_vectors(np.eye(7)).shape == (0, 7)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e5])
@pytest.mark.parametrize("name", ["s3", "mat2", "c3"])
def test_top_eigenvalue_on_solver_normals(name, cond, monkeypatch):
    # at cond(q) <= 1e2 these normals have three eigenvalue clusters, so the
    # Krylov space runs out after about three Lanczos steps; measured worst
    # relative error 2.4e-13 (s3 at 1e2)
    normals = []
    kernel = hilbert._null_vectors
    monkeypatch.setattr(hilbert, "_null_vectors",
                        lambda normal: normals.append(normal) or kernel(normal))
    base = named_algebra(name)
    d = base.dim
    o, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(d, d)))
    hilbert.solve_multipliers(hilbert.change_basis(
        base, o @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ o.T))
    (normal,) = normals
    want = np.linalg.eigvalsh(normal)[-1]
    assert abs(hilbert._top_eigenvalue(normal) - want) <= 1e-10 * want


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
    assert sub.dim == naive_commutant_dim(lam, 4)
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


# ---------------------------------------------------------------------------
# structure theorems on the doubled space
# ---------------------------------------------------------------------------

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


def test_bad_choices_raise_hdq_errors(m2):
    with pytest.raises(HdqError):
        hilbert.example_algebra("from_file", path="algebra.json")
    with pytest.raises(HdqError):
        hilbert.regular_representation(m2, np.eye(4)[0], side="middle")
    with pytest.raises(HdqError):
        hilbert.combine(m2, m2, mode="free_product")
