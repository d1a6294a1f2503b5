"""Seeded inputs, operations and oracle checks for the three workloads.

A workload generates all of its inputs from the seed in `setup`; the calls
into hdqkit receive only those arrays.  `round(i)` returns the ops of one
round of the closed loop: the loop stops only between rounds, so a run always
holds whole rounds of a mixed workload.  Every op has a check that returns
the op's relative error against an oracle independent of the code path under
test; the op fails when the error exceeds the op's gate or is not finite.

Library functions are called through their module attributes (`moyal.x`),
so the tracer's rebinding reaches the calls made here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from hdqkit import clifford, hilbert, matrix_basis, moyal, symmetry

_LIBRARY_MODULES = (moyal, matrix_basis, hilbert, clifford, symmetry)

THETA = 2.0             # deformation parameter of every phase-space grid
STAR_N2_M = 32          # star-n2: points per axis
BASIS_PAIRS = 8         # basis-m256: seeded coefficient pairs, used in turn
CLIFFORD_TRIPLES = 2    # algebra: seeded dense Clifford triples, used in turn


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], float]
    gate: float


class Workload:
    """Seeded inputs and the ops of one closed-loop round."""

    name = ""

    def setup(self) -> None:
        """Generate the inputs and warm up; the harness times this."""
        raise NotImplementedError

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError


def clear_library_caches() -> None:
    """Drop every `lru_cache` in the package so a set-up starts cold."""
    for mod in _LIBRARY_MODULES:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _cnormal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _schwartz_2d(rng: np.random.Generator, q: np.ndarray, p: np.ndarray,
                 degree: int, width: float, theta: float) -> np.ndarray:
    """Random complex polynomial of total degree <= `degree` times a Gaussian."""
    poly = np.zeros(np.broadcast_shapes(q.shape, p.shape), dtype=complex)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            poly = poly + _cnormal(rng)[()] * q ** a * p ** b
    return poly * np.exp(-width * (q * q + p * p) / theta)


def _spot_error(exact: np.ndarray, result: np.ndarray,
                points: list[tuple[int, ...]]) -> float:
    """Largest spot-point difference relative to the product's sup norm."""
    got = result[tuple(np.array(points).T)]
    return float(np.abs(got - exact).max() / np.abs(result).max())


def _spot_points(rng: np.random.Generator, m: int, ndim: int, count: int
                 ) -> list[tuple[int, ...]]:
    """Points drawn uniformly over the whole grid."""
    return [tuple(int(v) for v in rng.integers(0, m, size=ndim)) for _ in range(count)]


def _padded(samples: np.ndarray, spec: moyal.GridSpec) -> moyal.GridFunction:
    """An n = 1 function on the box twice as wide, same spacing, zeros outside."""
    m = spec.M
    big = moyal.GridSpec(n=1, M=2 * m, L=tuple(2 * v for v in spec.L), theta=spec.theta)
    out = np.zeros(big.shape, dtype=complex)
    out[m // 2:m // 2 + m, m // 2:m // 2 + m] = samples
    return moyal.GridFunction(big, out)


def _direct_padded(f: np.ndarray, g: np.ndarray, spec: moyal.GridSpec,
                   points: list[tuple[int, int]]) -> np.ndarray:
    """`moyal_direct` of two n = 1 sample arrays at points of `spec`'s grid.

    The quadrature runs on the doubled box: on the grid's own box the
    trapezoid rule sees only part of the product's support once a point is
    off centre, and loses digits (bench/NOTES.md, "Spot checks").
    """
    shift = spec.M // 2
    return moyal.moyal_direct(_padded(f, spec), _padded(g, spec),
                              [(a + shift, b + shift) for a, b in points])


# ---------------------------------------------------------------------------
# star-n2: n = 2 products through the SVD pair split
# ---------------------------------------------------------------------------

class StarN2(Workload):
    """One op = one n = 2 `moyal_fast`; ops cycle through separable ranks 1..4.

    Each round is a single op, so a run stops at the first op that ends after
    its time is up.  Ops of every rank take about the same time (the two
    1024 x 1024 SVDs of `split_pairs` are over 95% of it), so a run that
    stops within a cycle still measures a fair mix.

    L = 4.5 sqrt(theta) meets M >= 4 L^2 / (pi theta) at M = 32.  The factor
    Gaussians are exp(-1.25 r^2 / theta): their tails at the box edge and
    their spectra at the grid's top frequency are both near 1e-11.  The
    product is still off by up to 2.2e-6 of its sup norm near the box edge
    (worst over 40 seeded products; the median point is near 1e-11), so the
    gate is 5e-6.  The error is heavy-tailed over the grid, so each check
    takes 64 points: with 3, the run's worst error, and so accuracy_digits,
    spread by 7-12% over seeds.

    A symbol is sum_r u_r(q1, p1) v_r(q2, p2), and the Moyal kernel factors
    over the two symplectic pairs, so the exact product at a point is
    sum_{r,s} (u_r * u'_s)(q1, p1) (v_r * v'_s)(q2, p2).  The check evaluates
    each factor with `moyal_direct` on its doubled 2-d box: a 4-d
    `moyal_direct` on the grid's own box loses digits off centre (1e-8 at
    L/2), and one on the doubled box needs a 64^4 grid.
    """

    name = "star-n2"

    def __init__(self, seed: int, ranks: tuple[int, ...] = (1, 2, 3, 4),
                 points: int = 64) -> None:
        self.seed, self.ranks, self.points = seed, ranks, points

    def _symbol(self, rng: np.random.Generator, rank: int
                ) -> tuple[moyal.GridFunction, list[tuple[np.ndarray, np.ndarray]]]:
        """A rank-`rank` 4-d symbol and its (q1, p1), (q2, p2) factors."""
        q = self.spec.axis(0)[:, None]
        p = self.spec.axis(2)[None, :]
        factors = [(_schwartz_2d(rng, q, p, 2, 1.25, THETA),
                    _schwartz_2d(rng, q, p, 2, 1.25, THETA)) for _ in range(rank)]
        out = sum(np.einsum("ab,cd->acbd", u, v) for u, v in factors)  # (q1, q2, p1, p2)
        return moyal.GridFunction(self.spec, out), factors

    def setup(self) -> None:
        self.spec = moyal.GridSpec(n=2, M=STAR_N2_M, L=4.5 * np.sqrt(THETA), theta=THETA)
        self.pair_spec = moyal.GridSpec(n=1, M=STAR_N2_M, L=self.spec.L[::2], theta=THETA)
        rng = _rng(self.seed, 0)
        self.inputs = {r: (self._symbol(rng, r), self._symbol(rng, r)) for r in self.ranks}
        self.order = [int(r) for r in rng.permutation(self.ranks)]
        (f, _), (g, _) = self.inputs[self.order[0]]
        moyal.moyal_fast(f, g)  # warm-up

    def _exact(self, ff, gf, pts: list[tuple[int, ...]]) -> np.ndarray:
        """The product of the symbols with factors `ff` and `gf` at `pts`."""
        first = [(a, c) for a, b, c, d in pts]     # (q1, p1) of each point
        second = [(b, d) for a, b, c, d in pts]    # (q2, p2)
        out = np.zeros(len(pts), dtype=complex)
        for u, v in ff:
            for u2, v2 in gf:
                out += (_direct_padded(u, u2, self.pair_spec, first)
                        * _direct_padded(v, v2, self.pair_spec, second))
        return out

    def round(self, i: int) -> list[Op]:
        rank = self.order[i % len(self.order)]
        (f, ff), (g, gf) = self.inputs[rank]
        pts = _spot_points(_rng(self.seed, 1, i), STAR_N2_M, 4, self.points)

        def check(h) -> float:
            return _spot_error(self._exact(ff, gf, pts), h.samples, pts)

        return [Op(f"moyal_fast_rank{rank}", lambda: moyal.moyal_fast(f, g), check, 5e-6)]


# ---------------------------------------------------------------------------
# basis-m256: matrix-basis round trips
# ---------------------------------------------------------------------------

class BasisRoundTrip(Workload):
    """One op = backward transform, coefficient product, forward transform.

    The grid uses L = 8 sqrt(theta): on the default L = 6 sqrt(theta) the
    trunc-16 basis functions reach the box edge and the round trip only
    holds to 6e-5.
    """

    name = "basis-m256"

    def __init__(self, seed: int, M: int = 256, trunc: int = 16) -> None:
        self.seed, self.M, self.trunc = seed, M, trunc
        self.cache: Any = None

    def setup(self) -> None:
        self.cache = None  # release the previous table before building anew
        spec = moyal.GridSpec(n=1, M=self.M, L=8.0 * np.sqrt(THETA), theta=THETA)
        self.cache = matrix_basis.synthesize_basis(spec, self.trunc)
        rng = _rng(self.seed, 0)
        t = self.trunc
        self.inputs = [
            tuple(matrix_basis.MatrixSymbol(t, THETA, _cnormal(rng, t, t) / t)
                  for _ in range(2))
            for _ in range(BASIS_PAIRS)]
        self.round(0)[0].run()  # warm-up

    def round(self, i: int) -> list[Op]:
        a, b = self.inputs[i % BASIS_PAIRS]

        def run():
            samples = matrix_basis.transform(a, self.cache)
            prod = matrix_basis.matrix_product_oracle(a, b)
            back = matrix_basis.transform(samples, self.cache)
            return samples, prod, back

        def check(out) -> float:
            samples, prod, back = out
            trip = np.linalg.norm(back.coeffs - a.coeffs) / np.linalg.norm(a.coeffs)
            parseval = abs(samples.norm - a.norm) / a.norm
            exact = np.einsum("ij,jk->ik", a.coeffs, b.coeffs)
            mult = np.linalg.norm(prod.coeffs - exact) / np.linalg.norm(exact)
            return float(max(trip, parseval, mult))

        return [Op("round_trip", run, check, 1e-12)]


# ---------------------------------------------------------------------------
# algebra: multiplier solves, structure verification, Clifford products
# ---------------------------------------------------------------------------

def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(_cnormal(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def rotate(alg: hilbert.FiniteHilbertAlgebra, q: np.ndarray
           ) -> hilbert.FiniteHilbertAlgebra:
    """The algebra in the basis f_i = sum_a q[a, i] e_a, for unitary q.

    c'[i, j, k] = sum q[a, i] q[b, j] c[a, b, m] qinv[k, m].  This is the
    benchmark's own routine: `hilbert.change_basis` contracts qinv as
    qinv[m, k], which breaks associativity for any non-symmetric q.
    """
    qinv = q.conj().T
    c = np.einsum("ai,bj,abm,km->ijk", q, q, alg.structure, qinv)
    s = (qinv @ alg.involution.T @ np.conj(q)).T
    g = q.conj().T @ alg.gram @ q
    return hilbert.FiniteHilbertAlgebra(c, s, g, name=f"{alg.name}~")


def _base_algebra(name: str) -> tuple[hilbert.FiniteHilbertAlgebra, np.ndarray]:
    """Named test algebra and its unit in the original coordinates."""
    def mat(n):
        return hilbert.example_algebra("full_matrix", n=n), np.eye(n).reshape(-1)

    def first_basis_unit(alg):
        u = np.zeros(alg.dim)
        u[0] = 1.0
        return alg, u

    if name.startswith("mat"):
        return mat(int(name[3:]))
    if name == "s3":
        return first_basis_unit(hilbert.example_algebra("s3"))
    if name.startswith("cl"):
        return first_basis_unit(clifford.as_hilbert_algebra(int(name[2:]) // 2))
    if name == "m2xc3":
        (a, ua), (b, ub) = mat(2), first_basis_unit(
            hilbert.example_algebra("cyclic_group", n=3))
        return hilbert.combine(a, b, "tensor"), np.kron(ua, ub)
    if name == "m2+m3":
        (a, ua), (b, ub) = mat(2), mat(3)
        return hilbert.combine(a, b, "direct_sum"), np.concatenate([ua, ub])
    raise ValueError(f"unknown algebra {name!r}")


def unital_collapse_error(alg: hilbert.FiniteHilbertAlgebra, unit: np.ndarray,
                          pairs: list) -> float:
    """Oracle for the multiplier solve of a unital algebra.

    There must be d pairs, each a multiplier pair (lam(x) L(y) = rho(y) R(x)
    on the basis), each equal to (lam(u), rho(u)) for u = L(1), and the map
    pair -> L(1) must be injective.  Returns the worst residual relative to
    the structure constants' scale, or inf when a count is wrong.
    """
    d = alg.dim
    if len(pairs) != d:
        return float("inf")
    c = alg.structure
    ls = np.array([p.left for p in pairs])
    rs = np.array([p.right for p in pairs])
    scale = float(np.abs(c).max())
    # lam(e_i) L(e_j) - rho(e_j) R(e_i), coordinates k, for every pair
    defect = (np.einsum("ibk,pbj->pijk", c, ls)
              - np.einsum("pai,ajk->pijk", rs, c))
    images = ls @ unit
    lam = np.einsum("pi,ijk->pkj", images, c)
    rho = np.einsum("pj,ijk->pki", images, c)
    rebuild = max(float(np.abs(ls - lam).max()), float(np.abs(rs - rho).max()))
    if np.linalg.svd(images, compute_uv=False)[-1] < 1e-6:
        return float("inf")
    return max(float(np.abs(defect).max()) / scale, rebuild / scale)


class Algebra(Workload):
    """A fixed, seeded, cyclic mix of verification, solve and Clifford ops."""

    name = "algebra"

    def __init__(self, seed: int, full: tuple[str, ...] = ("mat3", "m2xc3", "m2+m3"),
                 solve: tuple[str, ...] = ("mat4", "cl4"), clifford_m: int = 6,
                 blades: int = 8) -> None:
        self.seed, self.full, self.solve = seed, full, solve
        self.clifford_m, self.blades = clifford_m, blades

    def setup(self) -> None:
        rng = _rng(self.seed, 0)
        self.algebras = {}
        for name in self.full + self.solve:
            base, unit = _base_algebra(name)
            q = random_unitary(rng, base.dim)
            self.algebras[name] = (rotate(base, q), q.conj().T @ unit)
        cl_ranks = [int(n[2:]) // 2 for n in self.full + self.solve if n.startswith("cl")]
        for m in cl_ranks:
            if not clifford.verify_unital_multipliers(m)["pass"]:
                raise RuntimeError(f"Cl({2 * m}) failed its own unital check")
        d = 1 << (2 * self.clifford_m)
        self.triples = [
            [clifford.CliffordElement(self.clifford_m, _cnormal(rng, d) / np.sqrt(d))
             for _ in range(3)]
            for _ in range(CLIFFORD_TRIPLES)]
        kinds = ([("full", n) for n in self.full] + [("solve", n) for n in self.solve]
                 + [("clifford", "")])
        self.order = [kinds[k] for k in rng.permutation(len(kinds))]
        x = self.triples[0][0]
        clifford.clifford_product(x, x)  # warm-up: builds the sign table

    def _full_op(self, name: str) -> Op:
        alg, unit = self.algebras[name]
        d = alg.dim

        def run():
            axioms = hilbert.validate_axioms(alg)
            pairs = hilbert.solve_multipliers(alg)
            caract = hilbert.verify_caract(alg, pairs=pairs)
            struct = hilbert.verify_commutant_structure(alg, pairs=pairs)
            return axioms, pairs, caract, struct

        def check(out) -> float:
            axioms, pairs, caract, struct = out
            if not (axioms["pass"] and caract["pass"] and struct["pass"]
                    and caract["bicommutant_dim"] == d
                    and struct["commutant_dim"] == 4 * d):
                return float("inf")
            return unital_collapse_error(alg, unit, pairs)

        return Op(f"verify_{name}", run, check, 1e-10)

    def _solve_op(self, name: str) -> Op:
        alg, unit = self.algebras[name]
        return Op(f"solve_{name}", lambda: hilbert.solve_multipliers(alg),
                  lambda pairs: unital_collapse_error(alg, unit, pairs), 1e-10)

    def _clifford_op(self, i: int) -> Op:
        m = self.clifford_m
        x, y, z = self.triples[i % CLIFFORD_TRIPLES]
        rng = _rng(self.seed, 1, i)
        masks = [tuple(int(v) for v in rng.integers(0, 1 << (2 * m), size=2))
                 for _ in range(self.blades)]

        def run():
            cp = clifford.clifford_product
            left = cp(cp(x, y), z)
            right = cp(x, cp(y, z))
            singles = [cp(clifford.blade(m, a), clifford.blade(m, b)) for a, b in masks]
            return left, right, singles

        def check(out) -> float:
            left, right, singles = out
            for (a, b), got in zip(masks, singles):
                sign, target = clifford.blade_product(a, b, m)
                want = np.zeros_like(got.coeffs)
                want[target] = sign
                if not np.array_equal(got.coeffs, want):
                    return float("inf")
            return float(np.linalg.norm(left.coeffs - right.coeffs)
                         / np.linalg.norm(left.coeffs))

        return Op("clifford_products", run, check, 1e-12)

    def round(self, i: int) -> list[Op]:
        ops = []
        for kind, name in self.order:
            if kind == "full":
                ops.append(self._full_op(name))
            elif kind == "solve":
                ops.append(self._solve_op(name))
            else:
                ops.append(self._clifford_op(i))
        return ops


WORKLOADS = {w.name: w for w in (StarN2, BasisRoundTrip, Algebra)}
