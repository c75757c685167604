"""Numerical verification of the stability identities and inequalities.

Checks, for computed or supplied fields: the deficit/remainder identity,
the stability inequality deficit >= 2^(2-p) (pi_p/diam)^p d(u, E)^p for
Lebesgue and Gaussian measures, the weighted Poincare step with its
centering root, the pointwise Picone identity, and the fundamental-gap
bounds.  Every report carries its margin and a scale-aware quadrature
tolerance tol = 1e-8 * int |grad u|^p dmu.

The stability battery checks its fields in (block, n_nodes) arrays of 16
rows.  It draws them 16 max(1, n_quad // n_nodes) rows at a time (n_quad =
m q), one uniform draw (equal to the per-field draws) and one smoothing
pass per draw with the node adjacency and degrees built once per mesh, so
no draw holds more numbers than one block's values at the quadrature
points.  Each block takes one reduction each for the energies, deficits and
tolerances, in one workspace per call (_workspace): its values at the
quadrature points, |u|^p, every Newton evaluation of the distance and the
final distance are written in place (the kernels' out= arguments) into
four (16, n_quad) arrays, allocated once, with the operations, reduction
shapes and axes of new arrays, so every number is that of new arrays bit
for bit; a single field (deficit) takes a one-row workspace.  The distance
inf_c int |u - c u1|^p dmu has one kernel for all rows at once,
_convex_lp_min, whose root finder is _lp_argmin (safeguarded
Newton-bisection on the increasing derivative, started from the L^2
projection); its bracket and stop scale with the rows, so the distance is
p-homogeneous at any amplitude.  _lp_argmin reads the derivatives from one
of two evaluators, and p alone picks which: quadrature sums over the points
(_quadrature_derivatives) at odd and non-integer p, and at p = 4, 6 and 8,
where the objective is a polynomial in c, its coefficients from row moments
built once per block (_moment_derivatives), so that no Newton step touches
the quadrature points.  What it needs of u1 alone (_lp_reference) is built
once per battery, not per block.  The weighted Poincare check
takes its centering root t0 and inf_t int |f - t|^p w from one call of it,
with v = 1.  Single-field functions call the same kernels on a one-row
block.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import cpcore
from .geometry import Field, per_mesh
from .spectral import _check_seed, _lp_norm, first_eigenpair, grad_energy, gradient_energies, lp_energies
from .spectral import second_eigenvalue

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
# the even p above 2 at which the distance kernel expands F_r in row moments
# (_moment_derivatives); every other p takes quadrature sums
_MOMENT_ORDERS = (4.0, 6.0, 8.0)

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


def _workspace(rows, n):
    """The arrays that the blocks of one battery call are computed in, for
    blocks of at most `rows` rows of n quadrature values: (4, rows, n), one
    allocation, written in place (out=) by every block.  Slab 0 holds a
    block's values at the quadrature points, slabs 1-3 are scratch.  A
    block of b rows uses the first b rows of a slab, which are C-contiguous
    like a new (b, n) array, so each kernel rounds as it would on new
    arrays."""
    return np.empty((4, rows, n))


def _deficits(p, mesh, values, lambda1, measure, ws):
    """(deficit, int |grad u|^p dmu, u at the quadrature points, int |u|^p dmu)
    for each row u of `values`, an (n_fields, n_nodes) block of nodal values,
    computed in the workspace `ws` (_workspace): the values at the
    quadrature points, (rows, m, q), are written into its slab 0, and
    int |u|^p dmu is summed in slabs 1 and 2."""
    energy = gradient_energies(p, mesh.gradients(values), mesh.element_density_integrals(measure))
    uq, a, y = ws[:3, :len(values)].reshape((3, len(values)) + mesh.quad_weights.shape)
    mesh.values_at_quad(values, out=uq)
    lp = lp_energies(p, uq, mesh.measure_weights(measure), out=(a, y))
    return energy - lambda1 * lp, energy, uq, lp


def _shifted(U, c, v, out):
    """U - c[:, None] * v, the rows of U less their multiples c of v,
    written into `out`."""
    np.multiply(c[:, None], v, out=out)
    return np.subtract(U, out, out=out)


def deficit(p, u, lambda1, measure):
    """int |grad u|^p dmu - lambda1 * int |u|^p dmu."""
    ws = _workspace(1, u.mesh.quad_weights.size)
    return float(_deficits(p, u.mesh, u.values[None], lambda1, measure, ws)[0][0])


def _lp_argmin(derivatives, c, lo, hi):
    """Root c_r of the increasing derivative F_r' for each row r, where
    derivatives(rows, x) returns (F_r'(x_r), F_r''(x_r)) for the rows `rows`
    at the points x: _quadrature_derivatives or _moment_derivatives.

    This is the one 1-D root finder of the module.  F_r' changes sign on
    [lo_r, hi_r].  Each row takes Newton steps from c_r and stops once
    |F_r'| <= 1e-10 |F_r'(c_r)|, read from its first evaluation, keeping
    the Newton step computed from that last evaluation, or once its step is
    at most 2^-52 of the width of [lo_r, hi_r]: the iterate no longer moves
    at the bracket's resolution, as where c_r is the root to rounding and
    F_r'(c_r) is rounding noise that no step can shrink by 1e-10.  A step
    that leaves the bracket, or fails to halve the step before last, is
    replaced by bisection, so every row converges even where F_r'' is
    unbounded (p < 2) or vanishes (p > 2).
    """
    c, lo, hi = (np.array(x, dtype=float) for x in (c, lo, hi))
    last = hi - lo
    before = last.copy()
    resolution = 2.0**-52 * last
    rows = np.arange(c.size)
    # the active rows index the row arrays as a slice (views, not gathers)
    # until the first row finishes
    at = slice(None)
    tol = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_STEPS):
            x = c[at]
            g, gp = derivatives(rows, x)
            if tol is None:
                tol = 1e-10 * np.maximum(np.abs(g), 1e-300)
            r_lo = np.where(g < 0.0, x, lo[at])
            r_hi = np.where(g > 0.0, x, hi[at])
            step = g / gp
            newton = x - step
            take = (r_lo < newton) & (newton < r_hi) & (2.0 * np.abs(step) <= before[at])
            new = np.where(take, newton, 0.5 * (r_lo + r_hi))
            moved = np.abs(new - x)
            before[at] = last[at]
            last[at] = moved
            done = (np.abs(g) <= tol[at]) | (moved <= resolution[at])
            lo[at], hi[at] = r_lo, r_hi
            c[at] = np.where(done & ~take, x, new)
            if done.all():
                break
            if done.any():
                rows = at = rows[~done]
    return c


def _quadrature_derivatives(p, ref, U, scratch):
    """The evaluator of _lp_argmin for F_r(c) = sum W |U_r - c v|^p at any p:
    F_r' = -p sum W |U_r - c v|^(p-2) (U_r - c v) v and F_r'' = p (p - 1)
    sum W |U_r - c v|^(p-2) v v, by quadrature sums over the points of the
    rows asked for.  Every evaluation is written into the first rows of
    `scratch`, three arrays shaped like U.  While no row has finished, U is
    read as it is; after that the rows asked for are gathered into
    scratch."""
    _, v, Wv, Wvv = ref[:4]

    def derivatives(rows, x):
        d, t, y = scratch[:, :rows.size]
        if rows.size == len(U):
            _shifted(U, x, v, d)
        else:
            # mode="clip" writes into y directly ("raise" would buffer); the
            # rows are all in range
            _shifted(np.take(U, rows, axis=0, out=y, mode="clip"), x, v, d)
        t = cpcore._guarded_power(np.abs(d, out=t), p - 2.0, out=y)
        gp = p * (p - 1.0) * (t @ Wvv)
        return -p * (np.multiply(t, d, out=t) @ Wv), gp

    return derivatives


def _moment_derivatives(p, ref, U, c0, scratch):
    """The evaluator of _lp_argmin at a p of _MOMENT_ORDERS, where F_r is a
    polynomial in c.

    With D_r = U_r - c0_r v and t = c - c0_r, F_r'(c) = sum_k a_rk t^k,
    a_rk = -p C(p-1, k) (-1)^k m_rk, from the row moments m_rk = sum W
    D_r^(p-1-k) v^(k+1), k = 0 .. p-1: p-2 block products and p-1
    mat-vecs with the columns W v^(k+1) of `ref`, once per block.  Every
    evaluation after that works on (rows, p) arrays.  The expansion point is
    the start c0, not 0: near the eigenspace, where U_r - c v is small
    against U_r, the moments of U_r itself would cancel in F_r' and F_r''.
    D_r and its powers are written into `scratch`, two arrays shaped like U.
    """
    n = int(p)
    v, V = ref[1], ref[-1]
    D = _shifted(U, c0, v, scratch[0])
    m = np.empty((len(U), n))
    m[:, n - 1] = np.sum(V[n - 1])
    power = D
    for j in range(n - 2, -1, -1):
        m[:, j] = power @ V[j]
        if j:
            power = np.multiply(power, D, out=scratch[1])
    k = np.arange(n)
    # coef[r, 0] holds the a_rk of F_r', coef[r, 1] the k a_rk of F_r'' (in
    # t^(k-1)), so that one contraction with the powers of t gives both
    coef = np.zeros((len(U), 2, n))
    coef[:, 0] = m * (-p * np.array([math.comb(n - 1, j) for j in k]) * (-1.0) ** k)
    coef[:, 1, :-1] = coef[:, 0, 1:] * k[1:]

    def derivatives(rows, x):
        at = slice(None) if rows.size == len(U) else rows
        return np.einsum("rjk,rk->jr", coef[at], (x - c0[at])[:, None] ** k)

    return derivatives


def _lp_reference(p, W, v):
    """The row-independent arrays of the distance kernel for the weights W
    and the reference function v, both flattened: (W, v, W v, W v v,
    ||v||_p, V), where V, at a p of _MOMENT_ORDERS, holds the rows W
    v^(k+1), k = 0 .. p-1, of _moment_derivatives, and is None otherwise.
    A battery builds them once for all its blocks."""
    W = W.ravel()
    v = v.ravel()
    nv = _lp_norm(p, v, W)
    if nv == 0.0:
        raise ValueError("reference function vanishes identically")
    Wv = W * v
    V = None
    if p in _MOMENT_ORDERS:
        n = int(p)
        V = np.empty((n, v.size))
        V[0] = Wv
        for k in range(1, n):
            V[k] = V[k - 1] * v
    return W, v, Wv, Wv * v, nv, V


def _convex_lp_min(p, W, U, v):
    """Minimize F_r(c) = sum W |U_r - c v|^p over real c for each row U_r of U.

    W and v are shaped like one row of U; returns the arrays (F_r(c_r*), c_r*).
    The energies sum W |U_r|^p and the minimisation are computed in one
    scratch block of three arrays shaped like U.
    """
    ref = _lp_reference(p, W, v)
    U = U.reshape(len(U), -1)
    scratch = np.empty((3,) + U.shape)
    return _reference_lp_min(p, ref, U, lp_energies(p, U, ref[0], out=scratch[:2]), scratch)


def _reference_lp_min(p, ref, U, energies, scratch):
    """_convex_lp_min for the rows of U, with W and v given by `ref`
    (_lp_reference) and the energies sum W |U_r|^p given, computed in
    `scratch`, three arrays shaped like U.  F_r is strictly convex and
    coercive for p > 1, and its minimizer c* has |c*| ||v||_p <=
    ||U_r - c* v||_p + ||U_r||_p <= 2 ||U_r||_p, so it lies in [-B_r, B_r],
    B_r = 3 ||U_r||_p / ||v||_p.  At p = 2 it is the L^2 projection c0 =
    <U_r, W v> / <v, W v>.  Otherwise _lp_argmin starts there, reading F_r'
    and F_r'' from the row moments at the p of _MOMENT_ORDERS and from
    quadrature sums at every other p, and stops at |F_r'| <= 1e-10
    |F_r'(c0)| on both paths.  Bracket and stop scale with U_r as F_r'
    does, so u -> s u gives s c* and s^p F_r(c*) at any s.  F_r(c*) is one
    direct quadrature sum on both paths: its moment expansion would cancel
    near the eigenspace.
    """
    W, v, Wv, Wvv, nv, V = ref
    c = (U @ Wv) / np.sum(Wvv)
    if p != 2.0:
        bound = 3.0 * energies ** (1.0 / p) / nv
        start = np.clip(c, -bound, bound)
        if V is None:
            derivatives = _quadrature_derivatives(p, ref, U, scratch)
        else:
            derivatives = _moment_derivatives(p, ref, U, start, scratch)
        c = _lp_argmin(derivatives, start, -bound, bound)
    d = _shifted(U, c, v, scratch[0])
    return lp_energies(p, d, W, out=(d, scratch[1])), c


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


def _stability_reports(p, domain, mesh, blocks, measure, eigenpair, constant):
    """One StabilityReport per zero-trace field in the rows of each
    (rows, n_nodes) array of `blocks`, of which the first has the most rows.
    The distance kernel's arrays of u1 (_lp_reference) are built once for
    all the blocks, and so is the workspace (_workspace) that every block is
    computed in, sized by the first block."""
    ref = _lp_reference(p, mesh.measure_weights(measure), eigenpair.field.at_quad())
    note = _POLYGON_NOTE if domain.kind == "polygon" and measure.kind == "lebesgue" else ""
    reports = []
    ws = None
    for values in blocks:
        if ws is None:
            ws = _workspace(len(values), mesh.quad_weights.size)
        d, energy, uq, lp = _deficits(p, mesh, values, eigenpair.lam, measure, ws)
        dist, c_star = _reference_lp_min(p, ref, uq.reshape(len(uq), -1), lp, ws[1:, :len(uq)])
        rhs = constant * dist
        tol = TOL_QUAD_FACTOR * np.maximum(energy, 1e-300)
        margin = d - rhs
        rows = zip(*(a.tolist() for a in (d, dist, c_star, rhs, margin, tol)))
        reports += [
            StabilityReport(
                p=float(p), diameter=domain.diameter, lambda1=eigenpair.lam,
                deficit=di, distance_p=dist_i, c_star=ci, constant=constant, rhs=ri,
                margin=mi, tol_quad=ti, passed=mi >= -ti, measure=measure.kind, note=note,
            )
            for di, dist_i, ci, ri, mi, ti in rows
        ]
    return reports


def stability_check(p, domain, u, measure, eigenpair=None, opts=None, constant_factor=1.0):
    """Full stability report for one zero-trace field, on its mesh `u.mesh`.

    constant_factor is a test hook that scales the stability constant;
    leave at 1.0 for real runs.
    """
    constant = _bound_constant(p, domain, constant_factor)
    if not u.is_zero_trace:
        raise ValueError("stability check needs a zero-trace field")
    eigenpair = _ground_state(p, u.mesh, measure, eigenpair, opts)
    return _stability_reports(p, domain, u.mesh, [u.values[None]], measure, eigenpair, constant)[0]


@per_mesh
def _smoothing(mesh):
    """(node adjacency, node degrees as a column), read-only: the neighbour
    averaging of _random_fields."""
    adj = mesh.node_adjacency()
    return adj, np.asarray(adj.sum(axis=1)).ravel()[:, None]


def _random_fields(mesh, rng, n_fields, smoothing):
    """(n_fields, n_nodes) smoothed zero-trace noise from one draw, with the
    (adjacency, degrees) of _smoothing(mesh); row i equals the i-th of
    n_fields sequential random_zero_trace_field calls."""
    adj, deg = smoothing
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
    values = _random_fields(mesh, rng, 1, _smoothing(mesh))
    return Field(mesh, values[0])


def stability_battery(p, domain, mesh, measure, n_fields, seed=0, eigenpair=None, opts=None, constant_factor=1.0):
    """Seeded random-field battery; returns one StabilityReport per field.
    n_fields must be a positive integer; it and the seed are checked before
    any solve.

    The fields are checked in blocks of _BLOCK_FIELDS rows, drawn and
    smoothed in draws of several blocks (_field_blocks), and every block is
    computed in one workspace allocated once per call (_workspace).  What
    does not depend on the field (u1 at the quadrature points, ||u1||_p and
    its weighted products and powers) is computed once per call, not per
    block, and the node adjacency and degrees once per mesh (_smoothing).
    The distance of a block reuses the block's int |u|^p dmu
    from its deficits; at p = 4, 6 and 8 its Newton steps work on the
    block's row moments and stop at |F'| <= 1e-10 |F'(c0)| (see
    _reference_lp_min).  A block draw equals the per-field draws, so field i
    is the i-th random_zero_trace_field of the seeded stream, and report i
    agrees with that field's stability_check: the same verdict, p, lambda1,
    constant and note, the deficit, tolerance and margin to 1e-12 relative,
    the distance and right side to 1e-11 relative and c_star to 1e-7
    absolute. The two differ in the last bits at p != 2, because the
    distance minimisation rounds its block products by the block's row
    count.
    """
    _check_seed(seed)
    if not isinstance(n_fields, (int, np.integer)) or isinstance(n_fields, bool) or n_fields < 1:
        raise ValueError(f"n_fields must be a positive integer, got {n_fields!r}")
    constant = _bound_constant(p, domain, constant_factor)
    eigenpair = _ground_state(p, mesh, measure, eigenpair, opts)
    return _stability_reports(p, domain, mesh, _field_blocks(mesh, seed, n_fields), measure, eigenpair, constant)


def _field_blocks(mesh, seed, n_fields):
    """The battery's n_fields seeded fields as (rows, n_nodes) blocks of
    _BLOCK_FIELDS rows, the last one shorter.  They are drawn and smoothed
    (_random_fields) in draws of _BLOCK_FIELDS * max(1, n_quad // n_nodes)
    rows, n_quad = m q, so that no draw holds more numbers than one block's
    values at the quadrature points, however many fields there are."""
    rng = np.random.default_rng(seed)
    smoothing = _smoothing(mesh)
    draw = _BLOCK_FIELDS * max(1, mesh.quad_weights.size // mesh.n_nodes)
    for start in range(0, n_fields, draw):
        values = _random_fields(mesh, rng, min(draw, n_fields - start), smoothing)
        for row in range(0, len(values), _BLOCK_FIELDS):
            yield values[row:row + _BLOCK_FIELDS]


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
    """Quadrature weights times the validated weight w (a Field on `mesh`, or
    an array shaped like its quadrature grid), times the density of
    `measure` unless it is None; the weight multiplies first."""
    if isinstance(weight, Field):
        other = weight.mesh
        if other is not mesh and not (
            np.array_equal(other.nodes, mesh.nodes) and np.array_equal(other.elements, mesh.elements)
        ):
            raise ValueError("weight Field must live on the mesh of the field it weights")
        wq = weight.at_quad()
    else:
        wq = np.asarray(weight)
        if wq.shape != mesh.quad_weights.shape:
            raise ValueError(
                f"weight array must be shaped like the mesh's quadrature grid "
                f"{mesh.quad_weights.shape}, got {wq.shape}"
            )
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
    W = _weight_array(f.mesh, omega, measure)
    _check_log_concave(f.mesh, omega)
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
    power = cpcore._guarded_power
    upow = power(au, p - 2.0) * uq
    t1 = p * upow * dot / (power(ap, p - 2.0) * pq)
    t2 = (p - 1.0) * power(au, p) * gp_n**2 / power(ap, p)
    gu_p = power(gu_n, p)
    r_side = gu_p - power(gp_n, p - 2.0) * (t1 - t2)

    resid = np.abs(c_side - r_side)
    a_n = np.sqrt(np.sum(a * a, axis=1))
    scale = float(np.max(gu_p + power(a_n, p) + 1.0)) if resid.size else 1.0
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
