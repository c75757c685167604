"""First and second Dirichlet eigenpairs of the (Gaussian) p-Laplacian.

The ground state solves the discrete Euler-Lagrange system A_p(u) =
lambda B_p(u) of the Rayleigh quotient int |grad u|^p dmu / int |u|^p dmu
over zero-trace P1 fields, normalised by int |u|^p dmu = 1. One loop stops
when the relative residual |A_p(u) - R(u) B_p(u)| / |A_p(u)| on the interior
dofs is at most `SolverOptions.tol`, or at most the rounding floor of that
residual where this is higher (on fine 1-D meshes). Its first steps are
lagged-diffusivity (inverse power) steps: each solves a linear system whose
element weights freeze (|grad u|^2 + eps^2)^((p-2)/2) at the iterate, with
eps on a fixed decreasing schedule. Once such a step lowers the quotient by
1e-3 relative or less, Newton steps on the bordered system [J, -b; b^T, 0]
take over, with b = B_p(u) and J the Jacobian of the residual. Both
directions backtrack by halving the step length until the quotient drops;
a singular bordered system counts as a failed Newton direction.
The second eigenvalue uses block inverse iteration deflated against the
ground state for p = 2 and otherwise a hyperplane-cut two-nodal-domain
estimator (a certified upper bound) that bisects the cuts of each direction.

Every linear solve is a sparse LU (`scipy.sparse.linalg.splu`). The
interior matrices are assembled straight into interior numbering by one
scatter through the sparsity pattern cached on the mesh
(`Mesh.interior_pattern`). At p = 2 the lagged steps share one factor of
the stiffness matrix, which is released before the first Newton step.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from .geometry import Field, submesh

__all__ = [
    "SolverOptions",
    "EigenPair",
    "rayleigh_quotient",
    "lp_norm",
    "grad_energy",
    "first_eigenpair",
    "second_eigenvalue",
    "weighted_stiffness",
    "weighted_mass",
]

_DEFLATION_BLOCK = 3
# entries of one (edges, nodes) block in _distance_to_boundary
_DISTANCE_BLOCK = 2**14
# relative Rayleigh drop at or below which the lagged steps hand over to Newton
_NEWTON_DROP = 1e-3
# relative Rayleigh rise that a Newton step may make while its residual falls
_NEWTON_RISE = 1e-12
# step-length halvings before a direction counts as failed
_MAX_HALVINGS = 30


@dataclass
class SolverOptions:
    """Knobs for the eigen-solvers; defaults are desk-scale sane.

    `tol` is the relative residual at which the ground state (or at its
    rounding floor, if higher) and deflation stop. `max_outer` caps their
    outer steps. The linear solves are direct (sparse LU): no tolerance.
    The cut sweep bisects every one of `n_directions` directions over all
    its distinct cuts; `n_offsets` is inert and kept only so that callers
    that still pass it keep working.
    """

    max_outer: int = 200
    tol: float = 1e-10
    seed: int = 0
    n_directions: int = 32
    n_offsets: int = 64

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class EigenPair:
    """Eigenvalue with its normalized eigenfunction and solve diagnostics."""

    lam: float
    field: Field
    residual_history: list
    iterations: int
    normalized: bool
    converged: bool
    estimator: str = "ground"
    is_upper_bound: bool = False
    # final relative residual of the ground state or of deflation, and the
    # ground state's rounding floor; NaN where not computed
    residual: float = float("nan")
    residual_floor: float = float("nan")

    def to_json_dict(self, mesh_file=None):
        return {
            "lambda": float(self.lam),
            "iterations": int(self.iterations),
            "residual_history": [float(r) for r in self.residual_history],
            "normalized": bool(self.normalized),
            "converged": bool(self.converged),
            "estimator": self.estimator,
            "lambda2_is_upper_bound": bool(self.is_upper_bound),
            "nodal_values": {
                "mesh_file": mesh_file,
                "values": [float(v) for v in self.field.values],
            },
        }


def lp_norm(field, p, measure):
    w = field.mesh.measure_weights(measure)
    return float(np.sum(w * np.abs(field.at_quad()) ** p)) ** (1.0 / p)


def gradient_energies(p, g, de):
    """int |grad u|^p dmeasure from a block of element gradients g, shaped
    (..., m, dim), and the element density integrals de: one value per
    leading index.  Exact per element, since P1 gradients are constant."""
    return np.sum(np.sqrt(np.sum(g * g, axis=-1)) ** p * de, axis=-1)


def grad_energy(p, field, measure):
    """int |grad u|^p dmeasure of one field."""
    de = field.mesh.element_density_integrals(measure)
    return float(gradient_energies(p, field.gradients(), de))


def rayleigh_quotient(p, field, measure):
    """int |grad u|^p dmu / int |u|^p dmu."""
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    w = field.mesh.measure_weights(measure)
    den = float(np.sum(w * np.abs(field.at_quad()) ** p))
    if den <= 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    return grad_energy(p, field, measure) / den


def _stiffness_local(mesh, measure, elem_weights=None):
    """Element matrices w_e int_e density grad phi_i . grad phi_j, (m, k, k)."""
    de = mesh.element_density_integrals(measure)
    w = de if elem_weights is None else de * elem_weights
    return mesh.grad_gram * w[:, None, None]


def _mass_local(mesh, measure):
    """Element matrices int_e density phi_i phi_j by quadrature, (m, k, k)."""
    wq = mesh.measure_weights(measure)
    return np.einsum("mq,qi,qj->mij", wq, mesh.basis, mesh.basis)


def _assemble(mesh, local):
    k = mesh.elements.shape[1]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _assemble_interior(mesh, local):
    """Interior-interior block of the assembled matrix, in interior
    numbering, as CSC, by one scatter through the mesh's cached pattern."""
    slots, indices, indptr = mesh.interior_pattern()
    nnz = indices.size
    data = np.bincount(slots, weights=local.ravel(), minlength=nnz + 1)[:nnz]
    n = indptr.size - 1
    return sparse.csc_matrix((data, indices, indptr), shape=(n, n))


def weighted_stiffness(mesh, measure, elem_weights=None):
    """Assemble sum_e w_e int_e density grad phi_i . grad phi_j."""
    return _assemble(mesh, _stiffness_local(mesh, measure, elem_weights))


def weighted_mass(mesh, measure):
    """Assemble int density phi_i phi_j by element quadrature."""
    return _assemble(mesh, _mass_local(mesh, measure))


def _distance_to_boundary(mesh):
    """Nodal distance-to-boundary: positive inside, zero on the boundary."""
    nodes = mesh.nodes
    if mesh.dim == 1:
        x = nodes[:, 0]
        bx = x[mesh.boundary_mask]
        return np.minimum.reduce([np.abs(x - b) for b in bx])
    # for convex polygons the distance is the min over boundary-edge lines;
    # a boundary edge belongs to one triangle and joins two boundary nodes
    n = mesh.n_nodes
    edges = np.sort(mesh.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
    a, b = np.divmod(keys[counts == 1], n)
    on_boundary = mesh.boundary_mask[a] & mesh.boundary_mask[b]
    pa = nodes[a[on_boundary]]
    e = nodes[b[on_boundary]] - pa
    d = np.full(n, np.inf)
    # (edges, nodes) blocks of |e x (x - pa)| / |e|, a bounded number of
    # edges at a time so that the work array stays small on fine meshes
    step = max(1, _DISTANCE_BLOCK // n)
    for s in range(0, len(e), step):
        eb, pb = e[s:s + step], pa[s:s + step]
        cross = eb[:, 1:] * (nodes[:, 0] - pb[:, :1])
        np.subtract(eb[:, :1] * (nodes[:, 1] - pb[:, 1:]), cross, out=cross)
        np.abs(cross, out=cross)
        cross /= np.hypot(eb[:, 0], eb[:, 1])[:, None]
        np.minimum(d, np.min(cross, axis=0), out=d)
    d[mesh.boundary_mask] = 0.0
    return d


def _normalize(mesh, values, p, measure):
    f = Field(mesh, values)
    nrm = lp_norm(f, p, measure)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return values / nrm


def _guarded_power(x, e):
    """x ** e for x >= 0, read as 0 where x = 0 and e < 0: the singular
    p < 2 weights vanish with the gradient or value that carries them."""
    if e >= 0.0:
        return x**e
    y = np.zeros_like(x)
    np.power(x, e, out=y, where=x > 0.0)
    return y


def _euler_lagrange(p, mesh, measure, u, jacobian=False):
    """The discrete Euler-Lagrange system at u on the interior dofs.

    Returns (R, b, r, rel, J): the Rayleigh quotient R(u), b = B_p(u) with
    B_p(u)_i = int |u|^(p-2) u phi_i dmu, the residual r = A_p(u) - R b with
    A_p(u)_i = int |grad u|^(p-2) grad u . grad phi_i dmu, its relative norm
    |r| / |A_p(u)|, and, on request, the Jacobian J = A_p'(u) - R B_p'(u).
    Its element matrices are de |g|^(p-2) (G G^T + (p-2) (G n)(G n)^T)
    - R (p-1) int |u|^(p-2) phi_i phi_j, with n = g / |g|; the p = 2 weight
    is 1 everywhere and the other weights are 0 where g or u is.
    """
    w = mesh.measure_weights(measure)
    de = mesh.element_density_integrals(measure)
    g = mesh.gradients(u)
    uq = mesh.values_at_quad(u)
    au = np.abs(uq)
    # the same operations as rayleigh_quotient, so R is bitwise the same
    lam = float(gradient_energies(p, g, de) / np.sum(w * au**p))
    gn = np.sqrt(np.sum(g * g, axis=1))
    ga = de * _guarded_power(gn, p - 2.0)
    uw = w * _guarded_power(au, p - 2.0)
    gphi = np.einsum("mkd,md->mk", mesh.grads, g)  # G g, one row per element
    elements, interior = mesh.elements.ravel(), mesh.interior
    a = np.bincount(elements, (ga[:, None] * gphi).ravel(), mesh.n_nodes)[interior]
    b = np.bincount(elements, ((uw * uq) @ mesh.basis).ravel(), mesh.n_nodes)[interior]
    r = a - lam * b
    rel = float(np.linalg.norm(r) / np.linalg.norm(a))
    if not jacobian:
        return lam, b, r, rel, None
    # (p-2) de |g|^(p-4) (G g)(G g)^T is the (p-2) (G n)(G n)^T term
    gb = (p - 2.0) * _guarded_power(gn, -2.0) * ga
    local = ga[:, None, None] * mesh.grad_gram + gb[:, None, None] * (gphi[:, :, None] * gphi[:, None, :])
    local -= (lam * (p - 1.0)) * np.einsum("mq,qi,qj->mij", uw, mesh.basis, mesh.basis)
    return lam, b, r, rel, _assemble_interior(mesh, local)


def _residual_floor(p, mesh, measure, u, a):
    """|F| / |a|, a = A_p(u), F_i = int |grad u|^(p-2) |(I + (p-2) n n^T) grad
    phi_i| dg dmu (n = grad u / |grad u|): to first order, how far A_p(u)_i
    moves when each u_j moves by its rounding 2^-53 |u_j|, which moves grad u
    by at most dg = 2^-53 sum_j |grad phi_j| |u_j|. Grows like h^-2."""
    de = mesh.element_density_integrals(measure)
    g = mesh.gradients(u)
    gn = np.sqrt(np.sum(g * g, axis=1))
    gphi = np.einsum("mkd,md->mk", mesh.grads, g)
    phi2 = np.einsum("mii->mi", mesh.grad_gram)  # |grad phi_i|^2 per element
    dg = 2.0**-53 * np.einsum("mk,mk->m", np.sqrt(phi2), np.abs(u[mesh.elements]))
    gain = np.sqrt(phi2 + (p * (p - 2.0)) * _guarded_power(gn, -2.0)[:, None] * gphi**2)
    fe = (de * _guarded_power(gn, p - 2.0) * dg)[:, None] * gain
    f = np.bincount(mesh.elements.ravel(), fe.ravel(), mesh.n_nodes)[mesh.interior]
    return float(np.linalg.norm(f) / np.linalg.norm(a))


def _bordered(jac, b):
    """CSC of [J, -b; b^T, 0] from the CSC matrix J: b_j closes column j of
    J and -b is the last column."""
    n = b.size
    ends = jac.indptr[1:]
    data = np.concatenate([np.insert(jac.data, ends, b), -b])
    indices = np.concatenate([np.insert(jac.indices, ends, n), np.arange(n)])
    indptr = np.append(jac.indptr + np.arange(n + 1), jac.indptr[-1] + 2 * n)
    return sparse.csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))


def first_eigenpair(p, mesh, measure, opts=None):
    """Ground state of the Dirichlet (Gaussian) p-Laplacian on the mesh.

    Each outer step takes a lagged-diffusivity direction while those steps
    lower the Rayleigh quotient by more than _NEWTON_DROP relative, and the
    Newton direction of the bordered Euler-Lagrange system after that. The
    step length halves from 1 until the quotient drops (a Newton step also
    passes when it rises by at most _NEWTON_RISE relative while the residual
    falls). A direction that finds no step hands over to the other one; two
    such failures in a row end the solve. It stops once the relative
    residual is at most max(`opts.tol`, its rounding floor), and `converged`
    says exactly that.
    Returns an EigenPair with a non-increasing (to _NEWTON_RISE) Rayleigh
    history; non-convergence is reported through EigenPair.converged, not
    raised.
    """
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    opts = opts or SolverOptions()
    interior = mesh.interior
    if not np.any(interior):
        raise ValueError("mesh has no interior nodes")

    u = _distance_to_boundary(mesh)
    if not np.any(u[interior] > 0.0):
        # a cut submesh is not convex: every interior node can lie on a
        # boundary-edge line, so start from the interior indicator instead
        u = interior.astype(float)
    u = _normalize(mesh, u, p, measure)
    lam, b, r, res, _ = _euler_lagrange(p, mesh, measure, u)
    history = [lam]
    newton = False
    lu = None
    lagged = failures = it = 0
    while res > opts.tol and it < opts.max_outer and failures < 2:
        # the floor costs about one residual; lagged steps stay far above it
        if newton and res <= _residual_floor(p, mesh, measure, u, r + lam * b):
            break
        it += 1
        d = np.zeros(mesh.n_nodes)
        if newton:
            # at p = 2 the lagged factor is the iterate-free stiffness matrix;
            # drop it before the first bordered factorisation
            lu = None
            jac = _euler_lagrange(p, mesh, measure, u, jacobian=True)[4]
            try:
                # u is normalised, so the normalisation row has zero right side
                d[interior] = splu(_bordered(jac, b)).solve(np.append(-r, 0.0))[:-1]
            except RuntimeError:
                # exactly singular, as where an interior node of a cut
                # sub-mesh touches no other interior node and u and grad u
                # vanish around it: a failed direction, like a failed halving
                d = None
        else:
            if lu is None or p != 2.0:
                # lagged diffusivity (|grad u|^2 + eps^2)^((p-2)/2) on the
                # fixed schedule eps = max(1e-8, 1e-2 2^-k) of lagged step k
                g = mesh.gradients(u)
                eps = max(1e-8, 1e-2 * 0.5**lagged)
                weights = (np.sum(g * g, axis=1) + eps * eps) ** (0.5 * (p - 2.0))
                lu = splu(_assemble_interior(mesh, _stiffness_local(mesh, measure, weights)))
            d[interior] = lu.solve(b)
            d = _normalize(mesh, d, p, measure) - u
            lagged += 1
        t = 1.0
        for _ in range(0 if d is None else _MAX_HALVINGS):
            v = _normalize(mesh, u + t * d, p, measure)
            lam_v, b_v, r_v, res_v, _ = _euler_lagrange(p, mesh, measure, v)
            if lam_v < lam or (newton and lam_v <= lam * (1.0 + _NEWTON_RISE) and res_v < res):
                failures = 0
                newton = newton or lam - lam_v <= _NEWTON_DROP * lam
                u, lam, b, r, res = v, lam_v, b_v, r_v, res_v
                break
            t *= 0.5
        else:
            failures += 1
            newton = not newton
        history.append(lam)

    if np.sum(u) < 0.0:
        u = -u
    floor = _residual_floor(p, mesh, measure, u, r + lam * b)
    converged = res <= max(opts.tol, floor)
    if not converged:
        warnings.warn(
            f"first_eigenpair stopped after {it} outer steps at relative "
            f"residual {res:.3e} > max(tol {opts.tol:g}, rounding floor {floor:.3e})"
        )
    return EigenPair(
        lam=lam,
        field=Field(mesh, u),
        residual_history=history,
        iterations=it,
        normalized=True,
        converged=converged,
        estimator="ground",
        residual=res,
        residual_floor=floor,
    )


def _deflated_second(p, mesh, measure, u1, opts):
    """Block inverse iteration in the M-complement of span(u1), p = 2 only.

    A block of vectors, projected against u1 and rotated by Rayleigh-Ritz
    on every step, carries the next few eigenvalues together, so a
    near-degenerate lambda2/lambda3 pair cannot stall it. It stops when the
    relative residual of the lowest Ritz pair, with its u1 component
    removed, falls to `opts.tol`.
    """
    interior = mesh.interior
    K = _assemble_interior(mesh, _stiffness_local(mesh, measure))
    M = _assemble_interior(mesh, _mass_local(mesh, measure))
    lu = splu(K)
    u1i = u1.values[interior]
    Mu1 = M @ u1i
    Mu1 /= float(u1i @ Mu1)
    block = min(_DEFLATION_BLOCK, u1i.size - 1)
    if block < 1:
        raise ValueError("mesh has too few interior nodes for a second eigenvalue")

    def project(x):
        # x - u1 (u1' M x) / (u1' M u1): M-orthogonal to u1
        return x - np.outer(u1i, Mu1 @ x)

    rng = np.random.default_rng(opts.seed)
    x = project(rng.uniform(-1.0, 1.0, (u1i.size, block)))
    history = []
    rel = np.inf
    it = 0
    for it in range(1, opts.max_outer + 1):
        theta, c = eigh(x.T @ (K @ x), x.T @ (M @ x))
        x = x @ c  # M-orthonormal Ritz vectors, ascending Ritz values
        v = x[:, 0]
        Kv = K @ v
        resid = Kv - theta[0] * (M @ v)
        resid -= Mu1 * float(u1i @ resid)
        history.append(float(theta[0]))
        rel = float(np.linalg.norm(resid) / np.linalg.norm(Kv))
        if rel <= opts.tol:
            break
        x = project(lu.solve(M @ x))
    values = np.zeros(mesh.n_nodes)
    values[interior] = x[:, 0]
    values = _normalize(mesh, values, p, measure)
    lam = rayleigh_quotient(p, Field(mesh, values), measure)
    return EigenPair(
        lam=lam,
        field=Field(mesh, values),
        residual_history=history,
        iterations=it,
        normalized=True,
        converged=rel <= opts.tol,
        estimator="deflation",
        residual=rel,
    )


def _cut_sweep_second(p, mesh, measure, opts):
    """Two-nodal-domain upper bound: the least max(lambda+, lambda-) over
    hyperplane cuts, lambda+- the ground states of the two induced sub-meshes
    (inf on a side without interior nodes).

    Along each of `opts.n_directions` directions, with t_0 < ... < t_(K-1)
    the distinct element-centroid projections, cut j (1 <= j < K) puts the
    elements with projection >= t_j into Omega+. Omega+ shrinks as j grows
    and the zero-trace P1 spaces are nested, so lambda+ rises and lambda-
    falls with j: the best cut is the first j with lambda+ >= lambda-, found
    by bisection, or j - 1. Each max(lambda+, lambda-) is the quotient of an
    admissible glued field, so the result bounds lambda2 even where
    unconverged sub-solves break the ordering. `iterations` counts the
    distinct cuts evaluated; `converged` holds when both sub-solves of the
    returned cut converged.
    """
    if mesh.dim == 1:
        directions = np.array([[1.0]])
    else:
        th = np.linspace(0.0, np.pi, opts.n_directions, endpoint=False)
        directions = np.stack([np.cos(th), np.sin(th)], axis=1)

    centroids = np.mean(mesh.nodes[mesh.elements], axis=1)
    # element mask -> (lambda1, ground state or None, node map)
    solved = {}
    cuts = set()

    def lam(mask):
        key = mask.tobytes()
        if key not in solved:
            sub, node_map = submesh(mesh, np.nonzero(mask)[0])
            pair = None
            if np.any(sub.interior):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    pair = first_eigenpair(p, sub, measure, opts)
            solved[key] = (np.inf if pair is None else pair.lam, pair, node_map)
        return solved[key][0]

    best, best_side = np.inf, None
    for theta in directions:
        proj = centroids @ theta
        levels = np.unique(proj)
        # first cut with lambda+ >= lambda-; K if there is none
        lo, hi = 1, levels.size
        while lo < hi:
            mid = (lo + hi) // 2
            side = proj >= levels[mid]
            cuts.add(side.tobytes())
            if lam(side) >= lam(~side):
                hi = mid
            else:
                lo = mid + 1
        for j in range(max(lo - 1, 1), min(lo + 1, levels.size)):
            side = proj >= levels[j]
            cuts.add(side.tobytes())
            value = max(lam(side), lam(~side))
            if value < best:
                best, best_side = value, side
    if best_side is None:
        raise ValueError("cut sweep produced no admissible partition")
    glued = np.zeros(mesh.n_nodes)
    halves = [solved[mask.tobytes()] for mask in (best_side, ~best_side)]
    for sign, (_, pair, node_map) in zip((1.0, -1.0), halves):
        glued[node_map] += sign * pair.field.values
    glued = _normalize(mesh, glued, p, measure)
    return EigenPair(
        lam=best,
        field=Field(mesh, glued),
        residual_history=[],
        iterations=len(cuts),
        normalized=True,
        converged=all(pair.converged for _, pair, _ in halves),
        estimator="nodal-cut",
        is_upper_bound=True,
    )


def second_eigenvalue(p, mesh, measure, u1pair, opts=None, method="auto"):
    """Second Dirichlet eigenvalue.

    p = 2 uses deflated block inverse iteration and converges to the discrete
    lambda_2.  For p != 2 the hyperplane-cut estimator returns a certified
    upper bound (is_upper_bound is set); the glued sign-changing field is an
    admissible candidate, not an eigenfunction.
    """
    if u1pair is not None and not u1pair.converged:
        raise ValueError("second_eigenvalue needs a converged first eigenpair")
    opts = opts or SolverOptions()
    if method == "auto":
        method = "deflation" if p == 2.0 else "nodal-cut"
    if method == "deflation":
        if p != 2.0:
            raise ValueError("deflation is only valid at p = 2")
        return _deflated_second(p, mesh, measure, u1pair.field, opts)
    if method == "nodal-cut":
        return _cut_sweep_second(p, mesh, measure, opts)
    raise ValueError(f"unknown method {method!r}")
