"""Explicit constants of the L^p Poincare stability theory.

Evaluates the generalized constant pi_p, the sharp constant c1(p) for the
lower bound C_p(xi, eta) >= c1(p)|eta|^p (p >= 2) together with its
2^(2-p) <= c1 <= (p-1) 2^(2-p) envelope, sampled estimates of the c2/c3
constants governing 1 < p < 2, and the C_p functional itself for complex
vector arguments.

C_p has one row kernel, `_cp_values`, under `cp_eval_batch` (many rows) and
`cp_eval` / `cp_eval_flagged` (one), with every power from `_guarded_power`;
c1's root r0 comes from scipy's `brentq`.
The sampled constants (`c1_variational`, `c2_c3_estimate`) share one
log-polar sample grid, the one state of the module: built on the first call
that needs it and kept read-only for the life of the process (1.3 MB of
p-free pieces, see `_sample_grid`); every other function is pure.
`scipy.integrate` and `scipy.optimize` are imported by the two functions that
use them, so `import plapstab` loads neither.
"""

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

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
]

# the log-polar (s, t) grid of the variational constants (see _sampled_extrema)
_R_MIN = 1e-3
_R_MAX = 1e3
_N_RADII = 128
_N_ANGLES = 256
# radius rows per chunk of the kept grid: 4096 points, 32 KB per array, so
# that each temporary of a chunk's evaluation stays below malloc's mmap
# threshold (128 KB)
_CHUNK_ROWS = 16
_REFINE_ROUNDS = 10
# radii the c2/c3 estimate also samples: probes of the ratio's limit at infinity
_C2C3_FAR_RADII = (1e4, 1e5, 1e6)


def _check_p(p):
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"exponent p must satisfy p > 1.0, got {p}")
    return p


def pi_p(p):
    """The constant 2*pi*(p-1)^(1/p) / (p*sin(pi/p)), defined for p > 1."""
    p = _check_p(p)
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def pi_p_quadrature(p):
    """pi_p from its defining integral 2*int_0^inf (1 + s^p/(p-1))^-1 ds.

    The substitution s^p/(p-1) = v/(1-v) turns it into the Beta integral
    2 (p-1)^(1/p) / p * int_0^1 v^(1/p-1) (1-v)^(-1/p) dv, whose endpoint
    powers scipy's `quad` takes as an algebraic weight (QAWS); independent
    of the closed form, and free of overflow or endpoint trouble for any p > 1.
    """
    from scipy.integrate import quad

    p = _check_p(p)
    val, _ = quad(lambda v: 1.0, 0.0, 1.0, weight="alg", wvar=(1.0 / p - 1.0, -1.0 / p))
    return 2.0 * (p - 1.0) ** (1.0 / p) / p * val


@dataclass(frozen=True)
class C1Result:
    """Sharp constant c1(p) with the root it comes from and its envelope.

    For p = 2 the defining polynomial degenerates and c1 = 1; r0 and k0 are
    reported as NaN in that case. Where c1 or the upper bound lies below the
    normal floats (from p = 1029 and 1035 on), it is the exp of its log: a product
    with a subnormal factor keeps only a few digits.
    """

    p: float
    r0: float
    k0: float
    c1: float
    lower: float  # 2^(2-p)
    upper: float  # (p-1) * 2^(2-p)

    def log_c1(self):
        """log c1: of c1 itself where it is a normal float, else from r0."""
        if self.c1 >= sys.float_info.min:
            return math.log(self.c1)
        return math.log(self.p - 1.0) + (2.0 - self.p) * math.log1p(self.r0)

    def log_c1_k0_form(self):
        """log c1 recomputed from the k0 expression (agreement check): the
        log-sum-exp of the logs of its three terms (p-1)(1-k0)^p,
        p k0 (1-k0)^(p-1) and k0^p, finite however small c1 is."""
        if math.isnan(self.k0):
            return math.log(self.c1)
        p, log_k0, log_rest = self.p, math.log(self.k0), math.log1p(-self.k0)
        terms = [math.log(p - 1.0) + p * log_rest, math.log(p) + log_k0 + (p - 1.0) * log_rest, p * log_k0]
        return float(np.logaddexp.reduce(terms))

    def k0_residual(self):
        """Residual of the equation r0 solves (_c1_equation) at r = k0 / (1 -
        k0), 0 for p = 2: first order in an error of k0, where the k0 form
        of log c1 is stationary. Where _c1_equation overflows, the log form
        (p-1) log r - log((p-1) r + p - 2) of the same equation."""
        if math.isnan(self.k0):
            return 0.0
        p, r = self.p, self.k0 / (1.0 - self.k0)
        try:
            return _c1_equation(r, p)
        except OverflowError:
            return (p - 1.0) * math.log(r) - math.log((p - 1.0) * r + p - 2.0)


def _normal_or_exp(x, log_x):
    """x where it is a normal float; exp(log_x) below the normal range."""
    return x if x >= sys.float_info.min else math.exp(log_x)


def _c1_equation(r, p):
    """g(r) = f(r) / (p - 2) = r expm1((p-2) log r) / (p - 2) - (r + 1) of
    f(r) = r^(p-1) - (p-1) r - (p-2): the equation whose root r0 > 1 gives
    c1, without the O(p - 2) cancellation of f near p = 2."""
    return r * math.expm1((p - 2.0) * math.log(r)) / (p - 2.0) - (r + 1.0)


def _c1_root(p):
    """Unique root r0 > 1 of f(r) = r^(p-1) - (p-1) r - (p-2) by scipy's brentq.

    It solves g(r) = _c1_equation(r, p) = f(r) / (p - 2) instead: same root.
    g(1) = -2 < 0, so the upper ends 2, 4, 8, ... bracket it. Where g(2)
    overflows (p above about 1026), r0 - 1 is of order log(p) / p, and the
    ends 1 + 2^k / (p - 2), k = 0, 1, ..., bracket it instead."""
    from scipy.optimize import brentq

    try:
        _c1_equation(2.0, p)
    except OverflowError:
        ends = (1.0 + 2.0**k / (p - 2.0) for k in range(40))
    else:
        ends = (2.0**k for k in range(1, 40))
    hi = next((r for r in ends if _c1_equation(r, p) > 0.0), None)
    if hi is None:
        raise RuntimeError("failed to bracket c1 root")
    return brentq(_c1_equation, 1.0, hi, args=(p,), xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def c1_sharp(p):
    """Sharp constant in C_p(xi, eta) >= c1(p)|eta|^p for p >= 2."""
    p = _check_p(p)
    if p < 2.0:
        raise ValueError(f"c1 requires p >= 2 (the c2/c3 path covers 1 < p < 2), got {p}")
    lower = 2.0 ** (2.0 - p)  # one correctly rounded power, subnormal or not
    upper = _normal_or_exp((p - 1.0) * lower, math.log(p - 1.0) + (2.0 - p) * math.log(2.0))
    if p == 2.0:
        return C1Result(p=p, r0=math.nan, k0=math.nan, c1=1.0, lower=lower, upper=upper)
    r0 = _c1_root(p)
    c1 = _normal_or_exp((p - 1.0) * (r0 + 1.0) ** (2.0 - p), math.log(p - 1.0) + (2.0 - p) * math.log1p(r0))
    return C1Result(p=p, r0=r0, k0=r0 / (1.0 + r0), c1=c1, lower=lower, upper=upper)


def _ratio_pieces(s, t):
    """The p-free pieces of both ratios at the points (s, t): (s, log1p(x),
    t^2 + s^2, sqrt(1 + x) + 1, max x), with x = t^2 + s^2 + 2s >= -1 and
    the arrays in the shape of s and t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    r2 = t * t + s * s
    x = r2 + 2.0 * s
    with np.errstate(divide="ignore", invalid="ignore"):
        return s, np.log1p(x), r2, np.sqrt(1.0 + x) + 1.0, float(x.max())


def _ratio_numerator(p, s, log1p_x):
    """The numerator (1 + x)^(p/2) - 1 - p s of both ratios."""
    num = np.expm1(0.5 * p * log1p_x)
    num -= p * s
    return num


def _c1_kernel(p, s, log1p_x, r2, root, max_x):
    """The c1 ratio [(t^2 + s^2 + 2s + 1)^(p/2) - 1 - p s] / (t^2 +
    s^2)^(p/2) from the pieces of _ratio_pieces(s, t).

    Where the numerator or the denominator overflows (large p and radius),
    the ratio is taken in log form, exp(log num - (p/2) log(t^2 + s^2)),
    with log num = (p/2) log1p(x) where num itself overflows: 1 + p s is
    then below its last bit. Elsewhere it is the plain quotient."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = _ratio_numerator(p, s, log1p_x)
        den = r2 ** (0.5 * p)
        ratio = num / den
        # both sides are at most (1 + r)^p at radius r <= 1 + sqrt(1 + x), so
        # neither overflows while p log(2 + sqrt(1 + max x)) is below
        # log(max float) = 709.78
        if p * math.log(2.0 + math.sqrt(max(1.0 + max_x, 0.0))) > 709.0:
            log_num = np.where(np.isinf(num), 0.5 * p * log1p_x, np.log(num))
            big = np.isinf(num) | np.isinf(den)
            ratio = np.where(big, np.exp(log_num - 0.5 * p * np.log(r2)), ratio)
        return ratio


def _c2c3_kernel(p, s, log1p_x, r2, root, max_x):
    """The c2/c3 ratio [(t^2 + s^2 + 2s + 1)^(p/2) - 1 - p s] /
    [(sqrt(t^2 + s^2 + 2s + 1) + 1)^(p-2) (t^2 + s^2)] from the pieces of
    _ratio_pieces(s, t)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _ratio_numerator(p, s, log1p_x) / (root ** (p - 2.0) * r2)


@functools.cache
def _sample_grid():
    """The log-polar grid of _sampled_extrema, built on the first call and
    kept read-only: (near, far, stencil).

    near holds the _N_RADII radii from _R_MIN to _R_MAX by _N_ANGLES angles,
    far the _C2C3_FAR_RADII rows, each as chunks of at most _CHUNK_ROWS
    radius rows; a chunk is (t, pieces), with the p-free pieces of
    _ratio_pieces. stencil holds the refinement's 17 x 17 offsets in s and
    in t. 1.3 MB in all."""
    th = np.linspace(0.0, 2.0 * math.pi, _N_ANGLES, endpoint=False)
    cos, sin = np.cos(th), np.sin(th)

    def chunks(r):
        out = []
        for lo in range(0, r.size, _CHUNK_ROWS):
            rows = r[lo : lo + _CHUNK_ROWS]
            t = np.outer(rows, sin).ravel()
            pieces = _ratio_pieces(np.outer(rows, cos).ravel(), t)
            for a in (t,) + pieces[:-1]:
                a.flags.writeable = False
            out.append((t, pieces))
        return tuple(out)

    near = chunks(np.logspace(math.log10(_R_MIN), math.log10(_R_MAX), _N_RADII))
    far = chunks(np.asarray(_C2C3_FAR_RADII, dtype=float))
    off = np.linspace(-1.0, 1.0, 17)
    stencil = np.array(np.meshgrid(off, off, indexing="ij"))
    stencil.flags.writeable = False
    return near, far, stencil


# per mode: the NaN-ignoring reduction and the test for a better value
_PICKS = {"min": (np.fmin, operator.lt), "max": (np.fmax, operator.gt)}


def _first_best(vals, mode):
    """(flat index, value) of the first least ("min") or greatest ("max")
    entry of vals that is not NaN: the entry np.nanargmin or np.nanargmax
    picks, without their copy of vals."""
    v = _PICKS[mode][0].reduce(vals, axis=None)
    i = int((vals == v).argmax())
    return i, vals.flat[i]


def _sampled_extrema(kernel, p, far, modes):
    """Extremum of the ratio `kernel` at exponent p for each of `modes`
    ("min" or "max"): the best sample of the log-polar grid (_N_RADII radii
    from _R_MIN to _R_MAX, and the _C2C3_FAR_RADII if `far`, by _N_ANGLES
    angles), refined by _REFINE_ROUNDS rounds of a shrinking 17x17 local
    grid search around it. Refined samples closer to the origin than _R_MIN
    are dropped: there the ratios are 0/0 and their numerators cancel, so a
    rounding error can pass for an extremum.

    The grid is _sample_grid's, built once per process. Each p evaluates
    it chunk by chunk from the kept pieces, and the first best sample wins,
    as np.nanargmin and np.nanargmax pick it; its value is evaluated again
    on its own. The refinement evaluates every mode's stencil in one block.
    """
    near, far_chunks, stencil = _sample_grid()
    picks = [None] * len(modes)  # per mode: (value, s, t) of the best sample
    for t, pieces in near + far_chunks if far else near:
        vals = kernel(p, *pieces)
        for k, mode in enumerate(modes):
            i, v = _first_best(vals, mode)
            if picks[k] is None or _PICKS[mode][1](v, picks[k][0]):
                picks[k] = (v, pieces[0][i], t[i])
        del vals  # freed before the next chunk's temporaries are made
    best = [kernel(p, *_ratio_pieces(s, t)) for _, s, t in picks]
    best_s = np.array([s for _, s, _ in picks])
    best_t = np.array([t for _, _, t in picks])
    w = np.array([0.5 * math.hypot(s, t) + 1e-3 for _, s, t in picks])[:, None, None]
    for _ in range(_REFINE_ROUNDS):
        S = best_s[:, None, None] + w * stencil[0]
        T = best_t[:, None, None] + w * stencil[1]
        local = np.where(np.hypot(S, T) < _R_MIN, np.nan, kernel(p, *_ratio_pieces(S, T)))
        for k, mode in enumerate(modes):
            j, v = _first_best(local[k], mode)
            if _PICKS[mode][1](v, best[k]):
                best[k], best_s[k], best_t[k] = v, S[k].flat[j], T[k].flat[j]
        w *= 0.25
    return [float(b) for b in best]


def c1_variational(p):
    """Sampled infimum of the c1(p) defining ratio over the (s, t) plane.

    Every sample is a value of the ratio, so the result bounds the true
    infimum c1_sharp(p).c1 from above. How close the refinement of the
    log-polar grid's best sample gets was measured on the integers p: within
    5e-10 relative from 2 to 300, except 129-151 (up to 2.8% above); from
    about 420 to 1080, 3% to 100% above (40% at p = 500, 25% at p = 1030).
    """
    p = _check_p(p)
    if p < 2.0:
        raise ValueError(f"the variational c1 estimate requires p >= 2, got {p}")
    return _sampled_extrema(_c1_kernel, p, False, ("min",))[0]


def c2_c3_estimate(p):
    """Sampled (inf, sup) of the c2/c3 defining ratio for 1 < p < 2.

    One-sided by construction: the first value is an upper bound for the
    true c2(p) and the second a lower bound for the true c3(p).
    """
    p = _check_p(p)
    if p >= 2.0:
        raise ValueError(f"c2/c3 estimates require 1 < p < 2, got {p}")
    return tuple(_sampled_extrema(_c2c3_kernel, p, True, ("min", "max")))


def _as_complex_vec(v, name):
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _multiplication_chain(n):
    """Left-to-right square and multiply for x^n after the first x * x:
    True squares the product, False multiplies it by x."""
    bits = bin(n)[3:]
    chain = [False] if bits[0] == "1" else []
    for bit in bits[1:]:
        chain += [True, False] if bit == "1" else [True]
    return tuple(chain)


# integer exponent -> its chain, for the exponents that _guarded_power
# multiplies out: up to 8 the chain's rounding stays below 1e-15 relative
_MULTIPLIED_POWERS = {float(n): _multiplication_chain(n) for n in range(2, 9)}


def _guarded_power(x, e, out=None):
    """x ** e for x >= 0, read as 0 where x = 0 and e < 0: the singular
    p < 2 weights vanish with the gradient or value that carries them.

    The one power kernel. An integer e from 2 to 8 is computed by repeated
    multiplication (left-to-right square and multiply: about
    (e - 1) 2^-53 relative of the exact power at worst; 29 against 125 us
    by pow for e = 3 on a 16 x 3072 block); e = 1 returns x itself, which
    is what pow would compute, without a pass; every other e uses pow. The
    result is written into `out` when it is given (except at e = 1), an
    array shaped like x that does not overlap it, with the same bits as the
    new array returned otherwise."""
    if e == 1.0:
        return x
    if e < 0.0:
        if out is None:
            # np.zeros, not zeros_like: the same C-ordered zeros for the
            # C-ordered arrays passed here, without zeros_like's wrapper
            out = np.zeros(x.shape)
        else:
            out.fill(0.0)
        np.power(x, e, out=out, where=x > 0.0)
        return out
    chain = _MULTIPLIED_POWERS.get(e)
    if chain is None:
        return x**e if out is None else np.power(x, e, out=out)
    y = x * x if out is None else np.multiply(x, x, out=out)
    for square in chain:
        y *= y if square else x
    return y


def _cp_values(p, xi, eta):
    """(C_p over the last axis of xi, eta; mask of the tiny floating-point
    negatives that the public functions clamp to 0)."""
    diff = xi - eta
    conj = np.conj if np.iscomplexobj(diff) else (lambda a: a)

    def dot(a, b):
        return np.sum((a * conj(b)).real, axis=-1)

    nxi2, nd2, ne2, pairing = dot(xi, xi), dot(diff, diff), dot(eta, eta), dot(diff, eta)
    # |xi - eta|^(p-2) * (xi - eta) -> 0 as xi -> eta, for every p > 1
    cross = p * _guarded_power(nd2, 0.5 * (p - 2.0)) * pairing
    val = _guarded_power(nxi2, 0.5 * p) - _guarded_power(nd2, 0.5 * p) - cross
    scale = _guarded_power(np.maximum(np.maximum(nxi2, nd2), ne2), 0.5 * p) + 1e-300
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
