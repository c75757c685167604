"""Explicit constants of the L^p Poincare stability theory.

Evaluates the generalized constant pi_p, the sharp constant c1(p) for the
lower bound C_p(xi, eta) >= c1(p)|eta|^p (p >= 2) together with its
2^(2-p) <= c1 <= (p-1) 2^(2-p) envelope, sampled estimates of the c2/c3
constants governing 1 < p < 2, and the C_p functional itself for complex
vector arguments.

C_p has one row kernel, `_cp_values`, under `cp_eval_batch` (many rows) and
`cp_eval` / `cp_eval_flagged` (one); c1's root r0 comes from scipy's `brentq`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _quad
from scipy.optimize import brentq as _brentq

__all__ = [
    "pi_p",
    "pi_p_quadrature",
    "C1Result",
    "c1_sharp",
    "c1_variational",
    "cp_eval",
    "cp_eval_flagged",
    "cp_eval_batch",
    "c2_c3_estimate",
    "LogPolarGrid",
]


def _check_p(p, minimum=1.0):
    p = float(p)
    if not np.isfinite(p) or p <= minimum:
        raise ValueError(f"exponent p must satisfy p > {minimum}, got {p}")
    return p


def pi_p(p):
    """The constant 2*pi*(p-1)^(1/p) / (p*sin(pi/p)), defined for p > 1."""
    p = _check_p(p)
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def pi_p_quadrature(p):
    """pi_p from its defining integral 2*int_0^inf (1 + s^p/(p-1))^-1 ds.

    Adaptive Gauss-Kronrod on the half line; independent of the closed form.
    """
    p = _check_p(p)
    val, _ = _quad(
        lambda s: 1.0 / (1.0 + s**p / (p - 1.0)),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return 2.0 * val


@dataclass(frozen=True)
class C1Result:
    """Sharp constant c1(p) with the root it comes from and its envelope.

    For p = 2 the defining polynomial degenerates and c1 = 1; r0 and k0 are
    reported as NaN in that case.
    """

    p: float
    r0: float
    k0: float
    c1: float
    lower: float  # 2^(2-p)
    upper: float  # (p-1) * 2^(2-p)

    def c1_k0_form(self):
        """c1 recomputed from the k0 expression (agreement check)."""
        if math.isnan(self.k0):
            return self.c1
        p, k0 = self.p, self.k0
        return (p - 1.0) * (1.0 - k0) ** p + p * k0 * (1.0 - k0) ** (p - 1.0) + k0**p


def _c1_root(p):
    """Unique root r0 > 1 of f(r) = r^(p-1) - (p-1) r - (p-2) by scipy's brentq.

    It solves g(r) = f(r) / (p - 2) = r expm1((p-2) log r) / (p - 2) - (r + 1)
    instead: same root, without the O(p - 2) cancellation of f near p = 2.
    g(1) = -2 < 0, so doubling the upper end brackets it."""

    def g(r):
        return r * math.expm1((p - 2.0) * math.log(r)) / (p - 2.0) - (r + 1.0)

    hi = 2.0
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket c1 root")
    return _brentq(g, 1.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def c1_sharp(p):
    """Sharp constant in C_p(xi, eta) >= c1(p)|eta|^p for p >= 2."""
    p = _check_p(p)
    if p < 2.0:
        raise ValueError(f"c1 requires p >= 2 (the c2/c3 path covers 1 < p < 2), got {p}")
    lower = 2.0 ** (2.0 - p)
    upper = (p - 1.0) * 2.0 ** (2.0 - p)
    if p == 2.0:
        return C1Result(p=p, r0=math.nan, k0=math.nan, c1=1.0, lower=lower, upper=upper)
    r0 = _c1_root(p)
    c1 = (p - 1.0) * (r0 + 1.0) ** (2.0 - p)
    return C1Result(p=p, r0=r0, k0=r0 / (1.0 + r0), c1=c1, lower=lower, upper=upper)


@dataclass(frozen=True)
class LogPolarGrid:
    """Log-polar sampling of the (s, t) plane for the variational constants."""

    r_min: float = 1e-3
    r_max: float = 1e3
    n_radii: int = 128
    n_angles: int = 256
    refine_rounds: int = 10
    asymptotic_radii: tuple = ()

    def points(self):
        r = np.logspace(math.log10(self.r_min), math.log10(self.r_max), self.n_radii)
        if self.asymptotic_radii:
            r = np.concatenate([r, np.asarray(self.asymptotic_radii, dtype=float)])
        th = np.linspace(0.0, 2.0 * math.pi, self.n_angles, endpoint=False)
        s = np.outer(r, np.cos(th)).ravel()
        t = np.outer(r, np.sin(th)).ravel()
        return np.stack([s, t], axis=1)


def _grid_points(grid):
    if grid is None:
        grid = LogPolarGrid()
    if isinstance(grid, LogPolarGrid):
        return grid.points(), grid.refine_rounds
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("grid must be a nonempty (N, 2) array of (s, t) samples")
    if np.any(np.sum(pts * pts, axis=1) == 0.0):
        raise ValueError("grid must not contain the origin")
    return pts, 0


def _c1_ratio(p, s, t):
    """[(t^2 + s^2 + 2s + 1)^(p/2) - 1 - p s] / (t^2 + s^2)^(p/2)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    x = t * t + s * s + 2.0 * s  # = t^2 + (1+s)^2 - 1 >= -1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = np.expm1(0.5 * p * np.log1p(x)) - p * s
        return num / (t * t + s * s) ** (0.5 * p)


def _c2c3_ratio(p, s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    x = t * t + s * s + 2.0 * s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = np.expm1(0.5 * p * np.log1p(x)) - p * s
        den = (np.sqrt(1.0 + x) + 1.0) ** (p - 2.0) * (t * t + s * s)
        return num / den


def _refine_extremum(fn, s0, t0, w0, rounds, mode):
    """Shrinking 17x17 local grid search around the incumbent sample."""
    best_s, best_t, w = s0, t0, w0
    best = fn(best_s, best_t)
    off = np.linspace(-1.0, 1.0, 17)
    for _ in range(rounds):
        S = best_s + w * off[:, None] + 0.0 * off[None, :]
        T = best_t + 0.0 * off[:, None] + w * off[None, :]
        vals = fn(S, T)
        vals = np.where(S * S + T * T == 0.0, np.nan, vals)
        if mode == "min":
            i = np.unravel_index(np.nanargmin(vals), vals.shape)
            better = vals[i] < best
        else:
            i = np.unravel_index(np.nanargmax(vals), vals.shape)
            better = vals[i] > best
        if better:
            best, best_s, best_t = vals[i], S[i], T[i]
        w *= 0.25
    return best, (best_s, best_t)


def c1_variational(p, grid=None, full_output=False):
    """Sampled infimum of the c1(p) defining ratio over an (s, t) grid.

    The sampled value is an upper bound for the true infimum c1_sharp(p).c1
    and converges to it as the grid refines around the minimizer; with the
    default log-polar grid the local refinement gets within ~1e-6.
    """
    p = _check_p(p)
    if p < 2.0:
        raise ValueError(f"the variational c1 estimate requires p >= 2, got {p}")
    pts, rounds = _grid_points(grid)
    vals = _c1_ratio(p, pts[:, 0], pts[:, 1])
    i = int(np.nanargmin(vals))
    best, argmin = vals[i], (pts[i, 0], pts[i, 1])
    if rounds > 0:
        w = 0.5 * math.hypot(*argmin) + 1e-3
        best, argmin = _refine_extremum(
            lambda s, t: _c1_ratio(p, s, t), argmin[0], argmin[1], w, rounds, "min"
        )
    best = float(best)
    if full_output:
        return best, (float(argmin[0]), float(argmin[1]))
    return best


def c2_c3_estimate(p, grid=None, full_output=False):
    """Sampled (inf, sup) of the c2/c3 defining ratio for 1 < p < 2.

    One-sided by construction: the first value is an upper bound for the
    true c2(p) and the second a lower bound for the true c3(p).
    """
    p = _check_p(p)
    if p >= 2.0:
        raise ValueError(f"c2/c3 estimates require 1 < p < 2, got {p}")
    if grid is None:
        grid = LogPolarGrid(asymptotic_radii=(1e4, 1e5, 1e6))
    pts, rounds = _grid_points(grid)
    vals = _c2c3_ratio(p, pts[:, 0], pts[:, 1])
    imin = int(np.nanargmin(vals))
    imax = int(np.nanargmax(vals))
    c2_est, arg2 = vals[imin], (pts[imin, 0], pts[imin, 1])
    c3_est, arg3 = vals[imax], (pts[imax, 0], pts[imax, 1])
    if rounds > 0:
        fn = lambda s, t: _c2c3_ratio(p, s, t)
        w2 = 0.5 * math.hypot(*arg2) + 1e-3
        c2_est, arg2 = _refine_extremum(fn, arg2[0], arg2[1], w2, rounds, "min")
        w3 = 0.5 * math.hypot(*arg3) + 1e-3
        c3_est, arg3 = _refine_extremum(fn, arg3[0], arg3[1], w3, rounds, "max")
    if full_output:
        return (float(c2_est), float(c3_est)), (arg2, arg3)
    return float(c2_est), float(c3_est)


def _as_complex_vec(v, name):
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _cp_values(p, xi, eta):
    """(C_p over the last axis of xi, eta; mask of the tiny floating-point
    negatives that the public functions clamp to 0)."""
    diff = xi - eta
    conj = np.conj if np.iscomplexobj(diff) else (lambda a: a)

    def dot(a, b):
        return np.sum((a * conj(b)).real, axis=-1)

    nxi2, nd2, ne2, pairing = dot(xi, xi), dot(diff, diff), dot(eta, eta), dot(diff, eta)
    # |xi - eta|^(p-2) * (xi - eta) -> 0 as xi -> eta, for every p > 1
    cross = np.zeros_like(nd2)
    m = nd2 > 0.0
    cross[m] = p * nd2[m] ** (0.5 * (p - 2.0)) * pairing[m]
    val = nxi2 ** (0.5 * p) - nd2 ** (0.5 * p) - cross
    scale = np.maximum(np.maximum(nxi2, nd2), ne2) ** (0.5 * p) + 1e-300
    return val, (val < 0.0) & (val > -1e-12 * scale)


def cp_eval_flagged(p, xi, eta):
    """C_p(xi, eta) together with a flag telling whether the value was a
    tiny floating-point negative clamped to 0."""
    p = _check_p(p)
    xi = _as_complex_vec(xi, "xi")
    eta = _as_complex_vec(eta, "eta")
    if xi.shape != eta.shape:
        raise ValueError(f"dimension mismatch: xi has {xi.size}, eta has {eta.size}")
    values, clamped = _cp_values(p, xi[None], eta[None])
    return (0.0 if clamped[0] else float(values[0])), bool(clamped[0])


def cp_eval(p, xi, eta):
    """C_p(xi, eta) = |xi|^p - |xi-eta|^p - p|xi-eta|^(p-2) Re<xi-eta, eta>.

    Nonnegative for all complex vectors; values within rounding of zero are
    clamped to 0 (see cp_eval_flagged for the clamp indicator).
    """
    return cp_eval_flagged(p, xi, eta)[0]


def cp_eval_batch(p, xi, eta):
    """Vectorized C_p over rows: xi, eta are (N, n) arrays (real or complex).

    Same formula and clamping as cp_eval, returning an (N,) float array.
    """
    p = _check_p(p)
    xi = np.asarray(xi)
    eta = np.asarray(eta)
    if xi.shape != eta.shape:
        raise ValueError("xi and eta must have matching shapes")
    values, clamped = _cp_values(p, xi, eta)
    return np.where(clamped, 0.0, values)
