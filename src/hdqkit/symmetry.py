"""Translation symmetry of the flat star product.

Coordinates act by star multiplication with exact first-order derivative
corrections: x_j * f = x_j f + (i theta / 2) (W^{-1} grad)_j f where W is
the symplectic matrix, so [q, f] = -i theta df/dp and [p, f] = i theta df/dq
while anticommutators are plain products.  Everything here checks those laws
on grids, plus the norm machinery (Sobolev words, Schwartz seminorms) and
the BCH phase of plane-wave star-exponentials.

Coordinate functions are not periodic, so they enter products through a
smooth flat-top window; residuals are always measured on an interior mask
where the window is identically one and the windowing error is below the
tolerances by a wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpecMismatch, array, whole
from .moyal import (
    GridFunction,
    GridSpec,
    from_modes,
    moyal_fast,
    to_modes,
    translation_multiplier,
)

_FLAT = 0.75   # window is exactly 1 inside this fraction of the half-width
_EDGE = 0.97   # and exactly 0 outside this fraction
_MASK = 0.50   # residuals are compared inside this fraction


def _bump(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) glued to 0, the standard smooth step ingredient."""
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _flat_top(t: np.ndarray, flat: float, edge: float) -> np.ndarray:
    """1 on |t| <= flat, 0 on |t| >= edge, C-infinity in between."""
    s = (edge - np.abs(t)) / (edge - flat)
    up = _bump(s)
    down = _bump(1.0 - s)
    with np.errstate(invalid="ignore"):
        val = up / (up + down)
    return np.where(np.abs(t) <= flat, 1.0, np.where(np.abs(t) >= edge, 0.0, val))


def window(spec: GridSpec) -> np.ndarray:
    """Smooth flat-top window over the full grid."""
    out = np.ones(spec.shape)
    for ax in range(2 * spec.n):
        t = spec.axis(ax) / spec.L[ax]
        out = out * _flat_top(t, _FLAT, _EDGE).reshape((-1,) + (1,) * (2 * spec.n - 1 - ax))
    return out


def interior_mask(spec: GridSpec) -> np.ndarray:
    out = np.ones(spec.shape, dtype=bool)
    for ax in range(2 * spec.n):
        t = np.abs(spec.axis(ax)) <= _MASK * spec.L[ax]
        out = out & t.reshape((-1,) + (1,) * (2 * spec.n - 1 - ax))
    return out


def coordinate_function(spec: GridSpec, j: int, windowed: bool = True) -> GridFunction:
    """The coordinate x_j on the grid, windowed by default for product use."""
    if whole(j, "coordinate index", 0) >= 2 * spec.n:
        raise SpecMismatch(f"coordinate index {j} out of range for n={spec.n}")
    vals = spec.axis(j).reshape((-1,) + (1,) * (2 * spec.n - 1 - j))
    samples = np.ascontiguousarray(np.broadcast_to(vals, spec.shape), dtype=complex)
    if windowed:
        samples = samples * window(spec)
    return GridFunction(spec, samples)


def spectral_derivative(f: GridFunction, orders: Sequence[int]) -> GridFunction:
    """d^orders f by multiplying (i xi)^k on the modes."""
    spec = f.spec
    orders = [whole(k, "derivative order", 0)
              for k in array(orders, (2 * spec.n,), "derivative orders", int)]
    coeffs = to_modes(f)
    for ax, k in enumerate(orders):
        if k == 0:
            continue
        coeffs = coeffs * (1j * spec.modes(ax)).reshape((-1,) + (1,) * (2 * spec.n - 1 - ax)) ** k
    return from_modes(spec, coeffs)


def _masked_rel(diff: np.ndarray, ref: np.ndarray, mask: np.ndarray) -> float:
    top = np.linalg.norm(diff[mask])
    bot = np.linalg.norm(ref[mask])
    if bot == 0.0:
        return 0.0 if top == 0.0 else float("inf")
    return float(top / bot)


def linear_commutator_check(j: int, f: GridFunction) -> float:
    """Residuals of [x_j, f] = i theta (W^{-1} grad)_j f and {x_j, f} = 2 x_j f."""
    spec = f.spec
    th = spec.theta
    xj = coordinate_function(spec, j)
    left = moyal_fast(xj, f)
    right = moyal_fast(f, xj)
    n = spec.n
    orders = [0] * (2 * n)
    if j < n:
        orders[j + n] = 1
        sign = -1.0
    else:
        orders[j - n] = 1
        sign = 1.0
    comm_target = sign * 1j * th * spectral_derivative(f, orders).samples
    anti_target = 2.0 * coordinate_function(spec, j, windowed=False).samples * f.samples
    mask = interior_mask(spec)
    r1 = _masked_rel(left.samples - right.samples - comm_target, comm_target, mask)
    r2 = _masked_rel(left.samples + right.samples - anti_target, anti_target, mask)
    return max(r1, r2)


def heisenberg_check(f: GridFunction) -> float:
    """Nested coordinate multiplications against the structure constants.

    [L_{x_j}, L_{x_k}] f must equal -i theta w_jk f with w the symplectic
    form on the coordinate labels.
    """
    spec = f.spec
    n = spec.n
    th = spec.theta
    mask = interior_mask(spec)
    coords = [coordinate_function(spec, j) for j in range(2 * n)]
    worst = 0.0
    for j in range(2 * n):
        for k in range(j + 1, 2 * n):
            nested = (moyal_fast(coords[j], moyal_fast(coords[k], f))
                      - moyal_fast(coords[k], moyal_fast(coords[j], f)))
            w_jk = 1.0 if k == j + n else 0.0
            target = -1j * th * w_jk * f.samples
            diff = nested.samples - target
            if w_jk:
                worst = max(worst, _masked_rel(diff, target, mask))
            else:
                ref = np.linalg.norm(f.samples[mask]) * th
                worst = max(worst, float(np.linalg.norm(diff[mask]) / ref))
    return worst


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _multi_indices(total: int, axes: int):
    if axes == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(total - head, axes - 1):
            yield (head,) + rest


def sobolev_norm(f: GridFunction, k: int) -> float:
    """Sup over derivative words of length <= k, each scaled by theta.

    The generator words (L_{e_i} - R_{e_i}) reduce to i theta times single
    derivatives, so every word of length m is theta^m d^beta with |beta| = m.
    """
    k = whole(k, "Sobolev order", 0)
    spec = f.spec
    best = 0.0
    for total in range(k + 1):
        for beta in _multi_indices(total, 2 * spec.n):
            val = spec.theta ** total * spectral_derivative(f, beta).norm
            best = max(best, val)
    return best


def schwartz_seminorm(f: GridFunction, alpha: Sequence[int], beta: Sequence[int]) -> float:
    """L^2 norm of x^alpha d^beta f via spectral differentiation."""
    spec = f.spec
    alpha = [whole(a, "moment order", 0)
             for a in array(alpha, (2 * spec.n,), "moment orders", int)]
    beta = [whole(b, "derivative order", 0)
            for b in array(beta, (2 * spec.n,), "derivative orders", int)]
    if sum(alpha) > 4 or sum(beta) > 4:
        raise SpecMismatch("seminorm orders above 4 are not calibrated")
    out = spectral_derivative(f, beta).samples
    for ax, a in enumerate(alpha):
        if a == 0:
            continue
        out = out * spec.axis(ax).reshape((-1,) + (1,) * (2 * spec.n - 1 - ax)) ** a
    return GridFunction(spec, out).norm


# ---------------------------------------------------------------------------
# plane waves and BCH
# ---------------------------------------------------------------------------

def bch_phase(x0: Sequence[float], x1: Sequence[float], theta: float) -> complex:
    """Closed form of the composition constant: exp((i/2theta) w(x0, x1))."""
    theta = float(array(theta, (), "theta", float))
    if theta <= 0:
        raise SpecMismatch(f"theta must be positive, got {theta}")
    x0 = array(x0, (None,), "translation x0", float)
    x1 = array(x1, x0.shape, "translation x1", float)
    if x0.size % 2:
        raise SpecMismatch(f"translations need an even number of components, got {x0.size}")
    n = x0.size // 2
    w = np.dot(x0[:n], x1[n:]) - np.dot(x0[n:], x1[:n])
    return complex(np.exp(0.5j / theta * w))


def _anchor(spec: GridSpec) -> GridFunction:
    grids = np.meshgrid(*[spec.axis(i) for i in range(2 * spec.n)], indexing="ij")
    r2 = sum(g * g for g in grids)
    return GridFunction(spec, 2.0 * np.exp(-r2 / spec.theta))


@dataclass
class BchResult:
    c_measured: complex
    c_closed: complex

    @property
    def residual(self) -> float:
        return abs(self.c_measured - self.c_closed)


def plane_wave_bch(x0: Sequence[float], x1: Sequence[float], spec: GridSpec) -> BchResult:
    """Measure W_{x0} * W_{x1} = c W_{x0+x1} through the multiplier action.

    Both sides are applied to a Gaussian anchor; c comes out as the
    projection coefficient.  Plane waves never touch an L^2 norm here.
    """
    x0 = array(x0, (2 * spec.n,), "translation x0", float)
    x1 = array(x1, (2 * spec.n,), "translation x1", float)
    anchor = _anchor(spec)
    stepped = translation_multiplier(x0, translation_multiplier(x1, anchor, "left"), "left")
    direct = translation_multiplier(x0 + x1, anchor, "left")
    num = complex(np.vdot(direct.samples, stepped.samples))
    den = complex(np.vdot(direct.samples, direct.samples))
    return BchResult(num / den, bch_phase(x0, x1, spec.theta))


def star_exp_ode_check(x: Sequence[float], spec: GridSpec) -> float:
    """Defining ODE of the plane-wave star-exponential at t = 1.

    E(t) = W_{t x} satisfies dE/dt = (i/theta) eta_x * E with the moment map
    eta_x(y) = w(x, y).  Both sides are applied to a Gaussian anchor: the
    derivative by a central difference of exact translations with step 1e-4,
    the right side by an actual star product with the windowed moment map.
    """
    x = array(x, (2 * spec.n,), "translation x", float)
    anchor = _anchor(spec)
    eps = 1e-4
    up = translation_multiplier((1.0 + eps) * x, anchor, "left")
    down = translation_multiplier((1.0 - eps) * x, anchor, "left")
    lhs = (up.samples - down.samples) / (2.0 * eps)
    n = spec.n
    eta = np.zeros(spec.shape, dtype=complex)
    for i in range(n):
        eta += x[i] * coordinate_function(spec, n + i).samples
        eta -= x[n + i] * coordinate_function(spec, i).samples
    state = translation_multiplier(x, anchor, "left")
    rhs = 1j / spec.theta * moyal_fast(GridFunction(spec, eta), state).samples
    mask = interior_mask(spec)
    return _masked_rel(lhs - rhs, rhs, mask)
