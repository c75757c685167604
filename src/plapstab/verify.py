"""Numerical verification of the stability identities and inequalities.

Checks, for computed or supplied fields: the deficit/remainder identity,
the stability inequality deficit >= 2^(2-p) (pi_p/diam)^p d(u, E)^p for
Lebesgue and Gaussian measures, the weighted Poincare step with its
centering root, the pointwise Picone identity, and the fundamental-gap
bounds.  Every report carries its margin and a scale-aware quadrature
tolerance tol = 1e-8 * int |grad u|^p dmu.

The stability battery holds its fields as (block, n_nodes) arrays of 16
rows: one uniform draw per block (equal to the per-field draws), one
smoothing pass over the block with the node adjacency built once per call,
and one reduction each for the energies, deficits and tolerances.  The
distance inf_c int |u - c u1|^p dmu has one kernel for all rows at once,
_convex_lp_min, whose root finder is _lp_argmin (safeguarded
Newton-bisection on the increasing derivative, started from the L^2
projection). The weighted Poincare check takes its centering root t0 and
inf_t int |f - t|^p w from one call of it, with v = 1.  Single-field
functions call the same kernels on a one-row block.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import cpcore
from .geometry import Field
from .spectral import first_eigenpair, grad_energy, gradient_energies, lp_energies, second_eigenvalue

__all__ = [
    "StabilityReport",
    "GapReport",
    "WeightedPoincareReport",
    "PiconeResult",
    "deficit",
    "distance_to_eigenspace",
    "cp_remainder",
    "identity_check",
    "stability_check",
    "stability_battery",
    "centering_root",
    "weighted_poincare_check",
    "picone_check",
    "gap_check",
    "random_zero_trace_field",
    "write_reports_csv",
]

TOL_QUAD_FACTOR = 1e-8
U1_FLOOR_RATIO = 1e-10
# battery fields checked per block: bounds the (block, n_quad) work arrays,
# so peak memory does not grow with the number of fields
_BLOCK_FIELDS = 16
_ROOT_STEPS = 100

_POLYGON_NOTE = (
    "euclidean polygon run: the stability inequality is established for "
    "smooth boundaries, so this probes the conjectured polygonal extension"
)


@dataclass
class StabilityReport:
    p: float
    diameter: float
    lambda1: float
    deficit: float
    distance_p: float
    c_star: float
    constant: float
    rhs: float
    margin: float
    tol_quad: float
    passed: bool
    measure: str
    note: str = ""


@dataclass
class GapReport:
    p: float
    diameter: float
    lambda1: float
    lambda2: float
    lambda2_is_upper_bound: bool
    C_value: float
    bound: float
    gap: float
    margin: float
    tol_quad: float
    passed: bool
    verdict: str
    measure: str


@dataclass
class WeightedPoincareReport:
    p: float
    diameter: float
    t0: float
    lhs: float
    rhs_inf: float
    bound: float
    ratio: float
    margin: float
    passed: bool
    degenerate: bool


@dataclass
class PiconeResult:
    max_abs_residual: float
    scale: float
    n_samples: int
    n_skipped: int
    passed: bool


def _deficits(p, mesh, values, lambda1, measure):
    """(deficit, int |grad u|^p dmu, u at the quadrature points) for each row u
    of `values`, an (n_fields, n_nodes) block of nodal values."""
    energy = gradient_energies(p, mesh.gradients(values), mesh.element_density_integrals(measure))
    uq = mesh.values_at_quad(values)
    return energy - lambda1 * lp_energies(p, uq, mesh.measure_weights(measure)), energy, uq


def deficit(p, u, lambda1, measure):
    """int |grad u|^p dmu - lambda1 * int |u|^p dmu."""
    return float(_deficits(p, u.mesh, u.values[None], lambda1, measure)[0][0])


def _lp_argmin(p, W, U, v, c, lo, hi, tol):
    """Root c_r of F_r'(c) = -p sum W |U_r - c v|^(p-2) (U_r - c v) v for each row U_r.

    This is the one 1-D root finder of the module.  F_r' increases and
    changes sign on [lo_r, hi_r].  Each row takes Newton steps from c_r and
    stops once |F_r'| <= tol_r, keeping the Newton step computed from that
    last evaluation, or once its iterate no longer moves.  A step that
    leaves the bracket, or fails to halve the step before last, is replaced
    by bisection, so every row converges even where F_r'' is unbounded
    (p < 2) or vanishes (p > 2).
    """
    c, lo, hi, tol = (np.array(x, dtype=float) for x in (c, lo, hi, tol))
    Wv, Wvv = W * v, W * v * v
    last = hi - lo
    before = last.copy()
    rows = np.arange(c.size)
    for _ in range(_ROOT_STEPS):
        x = c[rows]
        d = U[rows] - x[:, None] * v
        t = cpcore._guarded_power(np.abs(d), p - 2.0)
        g = -p * ((t * d) @ Wv)
        gp = p * (p - 1.0) * (t @ Wvv)
        r_lo = np.where(g < 0.0, x, lo[rows])
        r_hi = np.where(g > 0.0, x, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / gp
        newton = x - step
        take = (r_lo < newton) & (newton < r_hi) & (2.0 * np.abs(step) <= before[rows])
        new = np.where(take, newton, 0.5 * (r_lo + r_hi))
        before[rows], last[rows] = last[rows], np.abs(new - x)
        done = (np.abs(g) <= tol[rows]) | (new == x)
        lo[rows], hi[rows] = r_lo, r_hi
        c[rows] = np.where(done & ~take, x, new)
        rows = rows[~done]
        if rows.size == 0:
            break
    return c


def _convex_lp_min(p, W, U, v):
    """Minimize F_r(c) = sum W |U_r - c v|^p over real c for each row U_r of U.

    W and v are shaped like one row of U; returns the arrays (F_r(c_r*), c_r*).
    F_r is strictly convex and coercive for p > 1, so its minimizer lies in
    [-B_r, B_r], B_r = 2 ||U_r||_p / ||v||_p + 1.  At p = 2 it is the L^2
    projection c0 = <U_r, W v> / <v, W v>; otherwise _lp_argmin starts there.
    """
    W = W.ravel()
    v = v.ravel()
    U = U.reshape(len(U), -1)
    nv = float(lp_energies(p, v, W)) ** (1.0 / p)
    if nv == 0.0:
        raise ValueError("reference function vanishes identically")
    c = np.sum(W * U * v, axis=1) / np.sum(W * v * v)
    if p != 2.0:
        bound = 2.0 * lp_energies(p, U, W) ** (1.0 / p) / nv + 1.0
        scale = p * np.sum(W * (np.abs(U) + np.abs(v)) ** (p - 1.0) * np.abs(v), axis=1)
        tol = 1e-10 * np.maximum(scale, 1e-300)
        c = _lp_argmin(p, W, U, v, np.clip(c, -bound, bound), -bound, bound, tol)
    return lp_energies(p, U - c[:, None] * v, W), c


def distance_to_eigenspace(p, u, u1, measure):
    """(inf_c int |u - c u1|^p dmu, argmin c)."""
    cpcore._check_p(p)
    dist, c = _convex_lp_min(p, u.mesh.measure_weights(measure), u.at_quad()[None], u1.at_quad())
    return float(dist[0]), float(c[0])


def cp_remainder(p, u, u1, measure):
    """int C_p(grad u, u1 grad(u/u1)) dmu with grad(u/u1) by the quotient rule.

    Quadrature points where u1 falls below 1e-10 * max(u1) are excluded; a
    boundary-layer warning gives their measure fraction when it is above 1%.
    """
    mesh = u.mesh
    W = mesh.measure_weights(measure)
    uq = u.at_quad()
    u1q = u1.at_quad()
    gu = u.gradients()[:, None, :]
    gu1 = u1.gradients()[:, None, :]
    floor = U1_FLOOR_RATIO * float(np.max(u1q))
    if floor <= 0.0:
        raise ValueError("u1 must be positive somewhere")
    mask = u1q > floor
    ratio = np.zeros_like(uq)
    ratio[mask] = uq[mask] / u1q[mask]
    xi = np.broadcast_to(gu, (mesh.n_elements, uq.shape[1], mesh.dim))
    eta = xi - ratio[:, :, None] * gu1
    cvals = cpcore.cp_eval_batch(p, xi, eta)
    total = float(np.sum(W))
    excluded = float(np.sum(W[~mask])) / total if total > 0 else 0.0
    if excluded > 0.01:
        warnings.warn(
            f"cp_remainder: boundary layer excluded {excluded:.2%} of the mass"
        )
    return float(np.sum(W[mask] * cvals[mask]))


def identity_check(p, u, u1, lambda1, measure):
    """Relative residual |deficit - remainder| / max(deficit, scale)."""
    d = deficit(p, u, lambda1, measure)
    r = cp_remainder(p, u, u1, measure)
    floor = 1e-6 * max(grad_energy(p, u, measure), 1e-300)
    return abs(d - r) / max(d, floor)


def _ground_state(p, mesh, measure, eigenpair, opts):
    """`eigenpair`, or a converged ground state solved now when it is None."""
    if eigenpair is None:
        eigenpair = first_eigenpair(p, mesh, measure, opts)
        if not eigenpair.converged:
            raise RuntimeError("ground-state solve did not converge")
    return eigenpair


def _bound_constant(p, domain, constant_factor):
    """2^(2-p) (pi_p/diam)^p * constant_factor: the constant of the stability
    inequality and of the gap bound, both of which need p >= 2."""
    if p < 2.0:
        raise ValueError(f"the stability inequality and the gap bound require p >= 2, got {p}")
    return 2.0 ** (2.0 - p) * (cpcore.pi_p(p) / domain.diameter) ** p * constant_factor


def _stability_reports(p, domain, mesh, values, measure, eigenpair, constant):
    """One StabilityReport per zero-trace field in the rows of `values`."""
    d, energy, uq = _deficits(p, mesh, values, eigenpair.lam, measure)
    W = mesh.measure_weights(measure)
    dist, c_star = _convex_lp_min(p, W, uq, eigenpair.field.at_quad())
    rhs = constant * dist
    tol = TOL_QUAD_FACTOR * np.maximum(energy, 1e-300)
    margin = d - rhs
    note = _POLYGON_NOTE if domain.kind == "polygon" and measure.kind == "lebesgue" else ""
    rows = zip(*(a.tolist() for a in (d, dist, c_star, rhs, margin, tol)))
    return [
        StabilityReport(
            p=float(p), diameter=domain.diameter, lambda1=eigenpair.lam,
            deficit=di, distance_p=dist_i, c_star=ci, constant=constant, rhs=ri,
            margin=mi, tol_quad=ti, passed=mi >= -ti, measure=measure.kind, note=note,
        )
        for di, dist_i, ci, ri, mi, ti in rows
    ]


def stability_check(p, domain, u, measure, eigenpair=None, opts=None, constant_factor=1.0):
    """Full stability report for one zero-trace field, on its mesh `u.mesh`.

    constant_factor is a test hook that scales the stability constant;
    leave at 1.0 for real runs.
    """
    constant = _bound_constant(p, domain, constant_factor)
    if not u.is_zero_trace:
        raise ValueError("stability check needs a zero-trace field")
    eigenpair = _ground_state(p, u.mesh, measure, eigenpair, opts)
    return _stability_reports(p, domain, u.mesh, u.values[None], measure, eigenpair, constant)[0]


def _random_fields(mesh, rng, n_fields, adj):
    """(n_fields, n_nodes) smoothed zero-trace noise from one draw; row i
    equals the i-th of n_fields sequential random_zero_trace_field calls."""
    deg = np.asarray(adj.sum(axis=1)).ravel()[:, None]
    values = rng.uniform(-1.0, 1.0, (n_fields, mesh.n_nodes)).T
    values[mesh.boundary_mask] = 0.0
    for _ in range(2):
        values = (values + adj @ values) / (1.0 + deg)
        values[mesh.boundary_mask] = 0.0
    return np.ascontiguousarray(values.T)


def random_zero_trace_field(mesh, rng):
    """Seeded interior noise with Jacobi smoothing: representative W0 fields.

    Raw uniform noise oscillates at mesh scale and inflates quadrature
    error; two neighbor-averaging passes keep the battery well resolved.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    values = _random_fields(mesh, rng, 1, mesh.node_adjacency())
    return Field(mesh, values[0])


def stability_battery(p, domain, mesh, measure, n_fields, seed=0, eigenpair=None, opts=None, constant_factor=1.0):
    """Seeded random-field battery; returns one StabilityReport per field.

    The fields are drawn, smoothed and checked in blocks of _BLOCK_FIELDS
    rows.  A block draw equals the per-field draws, so field i is the i-th
    random_zero_trace_field of the seeded stream, and report i agrees with
    that field's stability_check: the same verdict, p, lambda1, constant
    and note, the deficit, tolerance and margin to 1e-12 relative, the
    distance and right side to 1e-11 relative and c_star to 1e-7 absolute.
    The two differ in the last bits at p != 2, because the distance
    minimisation rounds its block products by the block's row count.
    """
    constant = _bound_constant(p, domain, constant_factor)
    eigenpair = _ground_state(p, mesh, measure, eigenpair, opts)
    rng = np.random.default_rng(seed)
    adj = mesh.node_adjacency()
    reports = []
    for start in range(0, n_fields, _BLOCK_FIELDS):
        values = _random_fields(mesh, rng, min(_BLOCK_FIELDS, n_fields - start), adj)
        reports += _stability_reports(p, domain, mesh, values, measure, eigenpair, constant)
    return reports


def centering_root(p, f, weight, measure=None):
    """Root t0 of g(t) = int |f - t|^(p-2) (f - t) w.

    g is continuous and strictly decreasing with a sign change on
    [min f, max f].  It is -F'(t)/p for F(t) = int |f - t|^p w, so t0 is
    the argmin of F, which the distance kernel finds from the weighted mean
    (the p = 2 root).  `weight` is a Field or an array shaped like the
    quadrature grid.
    """
    return _centered_min(p, f, _weight_array(f.mesh, weight, measure))[1]


def _centered_min(p, f, W):
    """(inf_t int |f - t|^p w, its argmin t0) for the weighted quadrature
    array W of _weight_array, by one call of the distance kernel; a constant
    f is its own t0 exactly, at distance 0."""
    if np.ptp(f.values) == 0.0:
        return 0.0, float(f.values[0])
    dist, t = _convex_lp_min(p, W, f.at_quad()[None], np.ones_like(W))
    return float(dist[0]), float(t[0])


def _weight_array(mesh, weight, measure):
    """Quadrature weights times the validated weight w (a Field, or an array
    shaped like the quadrature grid), times the density of `measure` unless
    it is None; the weight multiplies first."""
    wq = weight.at_quad() if isinstance(weight, Field) else np.asarray(weight)
    wq = wq.reshape(mesh.quad_weights.shape)
    if np.min(wq) < 0.0 or np.max(wq) <= 0.0:
        raise ValueError("weight must be nonnegative with positive mass")
    W = mesh.quad_weights * wq
    if measure is not None:
        W = W * mesh.density_at_quad(measure)
    return W


def _check_log_concave(mesh, weight):
    """Midpoint log-concavity test of a Field weight on 200 seeded pairs of
    nodes where it exceeds 1e-3 of its maximum; raises when more than 1% of
    them violate it. An array weight cannot be evaluated between the
    quadrature points, so it is not tested."""
    if not isinstance(weight, Field):
        return
    vals = weight.values
    ok_nodes = np.nonzero(vals > 1e-3 * float(np.max(vals)))[0]
    if ok_nodes.size < 2:
        raise ValueError("weight is not positive on enough of the domain")
    rng = np.random.default_rng(0)
    i, j = np.array([rng.choice(ok_nodes, size=2, replace=False) for _ in range(200)]).T
    wm = weight(0.5 * (mesh.nodes[i] + mesh.nodes[j]))
    tau = max(1e-8, 50.0 * mesh.h**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        violated = np.log(wm) < 0.5 * (np.log(vals[i]) + np.log(vals[j])) - tau
    violations = int(np.count_nonzero(violated | (wm <= 0.0)))
    if violations / i.size > 0.01:
        raise ValueError(
            f"weight failed the sampled log-concavity test "
            f"({violations}/{i.size} midpoints violated)"
        )


def weighted_poincare_check(p, domain, f, omega, measure=None):
    """Verify int |grad f|^p w >= (pi_p/diam)^p inf_t int |f - t|^p w on f.mesh.

    The minimiser t0 of int |f - t|^p w is the centering root, at which
    the hypothesis int |f-t0|^(p-2)(f-t0) w = 0 of the weighted inequality
    holds; a constant shift leaves grad f as it is.
    """
    _check_log_concave(f.mesh, omega)
    W = _weight_array(f.mesh, omega, measure)
    rhs_inf, t0 = _centered_min(p, f, W)
    lhs = float(gradient_energies(p, f.gradients(), np.sum(W, axis=1)))
    bound = (cpcore.pi_p(p) / domain.diameter) ** p
    degenerate = rhs_inf <= 1e-300
    ratio = float("nan") if degenerate else lhs / rhs_inf
    margin = lhs - bound * rhs_inf
    tol = TOL_QUAD_FACTOR * max(lhs, 1e-300)
    return WeightedPoincareReport(
        p=float(p),
        diameter=domain.diameter,
        t0=t0,
        lhs=lhs,
        rhs_inf=rhs_inf,
        bound=bound,
        ratio=ratio,
        margin=margin,
        passed=bool(margin >= -tol),
        degenerate=degenerate,
    )


def picone_check(p, u, phi, measure=None, max_samples=None, seed=0):
    """PiconeResult: max pointwise |C_p - R_p| over sampled quadrature points;
    passed when it is at most TOL_QUAD_FACTOR * scale.

    C_p is evaluated through the C_p functional with xi = grad u and
    eta = grad u - (grad phi / phi) u; R_p expands the divergence-form side
    analytically from the P1 data.  Samples where |phi| falls below
    1e-12 * max|phi| are skipped and counted.  The identity is pointwise,
    so `measure` is not read; it stays for callers that pass it.
    """
    mesh = u.mesh
    uq = u.at_quad().ravel()
    pq = phi.at_quad().ravel()
    q = mesh.quad_weights.shape[1]
    gu = np.repeat(u.gradients(), q, axis=0)
    gp = np.repeat(phi.gradients(), q, axis=0)

    floor = 1e-12 * float(np.max(np.abs(pq)))
    keep = np.abs(pq) >= floor
    n_skipped = int(np.sum(~keep))
    uq, pq, gu, gp = uq[keep], pq[keep], gu[keep], gp[keep]
    if max_samples is not None and uq.size > max_samples:
        idx = np.random.default_rng(seed).choice(uq.size, size=max_samples, replace=False)
        uq, pq, gu, gp = uq[idx], pq[idx], gu[idx], gp[idx]

    a = (uq / pq)[:, None] * gp
    xi = gu
    eta = xi - a
    c_side = cpcore.cp_eval_batch(p, xi, eta)

    gu_n = np.sqrt(np.sum(gu * gu, axis=1))
    gp_n = np.sqrt(np.sum(gp * gp, axis=1))
    dot = np.sum(gu * gp, axis=1)
    au = np.abs(uq)
    ap = np.abs(pq)
    upow = cpcore._guarded_power(au, p - 2.0) * uq
    t1 = p * upow * dot / (ap ** (p - 2.0) * pq)
    t2 = (p - 1.0) * au**p * gp_n**2 / ap**p
    r_side = gu_n**p - cpcore._guarded_power(gp_n, p - 2.0) * (t1 - t2)

    resid = np.abs(c_side - r_side)
    a_n = np.sqrt(np.sum(a * a, axis=1))
    scale = float(np.max(gu_n**p + a_n**p + 1.0)) if resid.size else 1.0
    max_abs_residual = float(np.max(resid)) if resid.size else 0.0
    return PiconeResult(
        max_abs_residual=max_abs_residual,
        scale=scale,
        n_samples=int(resid.size),
        n_skipped=n_skipped,
        passed=max_abs_residual <= TOL_QUAD_FACTOR * scale,
    )


def gap_check(p, domain, mesh, measure, opts=None, pairs=None, constant_factor=1.0):
    """Fundamental-gap report: lambda2 - lambda1 vs the stability bound.

    For p != 2 the second eigenvalue is only an upper bound, so a passing
    verdict is labeled empirical (the bound is not falsified); a certified
    verdict needs p = 2. Like the stability inequality, the bound needs
    p >= 2; smaller p raises ValueError before any solve.
    """
    constant = _bound_constant(p, domain, constant_factor)
    if pairs is None:
        u1 = _ground_state(p, mesh, measure, None, opts)
        u2 = second_eigenvalue(p, mesh, measure, u1, opts)
    else:
        u1, u2 = pairs
    c_value, _ = distance_to_eigenspace(p, u2.field, u1.field, measure)
    bound = constant * c_value
    gap = u2.lam - u1.lam
    tol = TOL_QUAD_FACTOR * max(abs(u2.lam), 1.0)
    margin = gap - bound
    passed = bool(margin >= -tol)
    if u2.is_upper_bound:
        verdict = "empirical" if passed else "falsified"
    else:
        verdict = "certified" if passed else "failed"
    return GapReport(
        p=float(p),
        diameter=domain.diameter,
        lambda1=u1.lam,
        lambda2=u2.lam,
        lambda2_is_upper_bound=u2.is_upper_bound,
        C_value=c_value,
        bound=bound,
        gap=gap,
        margin=margin,
        tol_quad=tol,
        passed=passed,
        verdict=verdict,
        measure=measure.kind,
    )


_CSV_COLUMNS = ["p", "diam", "lambda1", "lambda2", "deficit", "distance_p", "bound", "margin"]


def write_reports_csv(path, reports):
    """CSV rows (p, diam, lambda1, lambda2, deficit, distance_p, bound, margin)
    for plotting; stability and gap reports mix freely, absent fields stay blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rep in reports:
            if isinstance(rep, StabilityReport):
                row = [rep.p, rep.diameter, rep.lambda1, "", rep.deficit,
                       rep.distance_p, rep.rhs, rep.margin]
            elif isinstance(rep, GapReport):
                row = [rep.p, rep.diameter, rep.lambda1, rep.lambda2, "", "",
                       rep.bound, rep.margin]
            else:
                raise TypeError(f"cannot serialize report {type(rep)!r}")
            writer.writerow(row)
