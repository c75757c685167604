"""First and second Dirichlet eigenpairs of the (Gaussian) p-Laplacian.

The ground state is computed by minimizing the Rayleigh quotient
int |grad u|^p dmu / int |u|^p dmu over zero-trace P1 fields with a
lagged-diffusivity fixed point: each outer step solves a linear system
whose element weights freeze (|grad u|^2 + eps^2)^((p-2)/2), takes the
p-power mass load of the current iterate, renormalizes, and shrinks eps.
When a step fails to lower the Rayleigh quotient, a line search on the
segment from the iterate to the step takes over: scipy's bounded Brent
(`minimize_scalar(method="bounded")`) on [0, 1], whose objective reuses the
quadrature values and element gradients of both ends gathered once per
search. The step keeps the iterate unless the search finds a lower
quotient; `EigenPair` counts the searches and those rejections.
The second eigenvalue uses block inverse iteration deflated against the
ground state for p = 2 and a hyperplane-cut two-nodal-domain estimator (a
certified upper bound) otherwise.

Every inner linear solve is a sparse LU (`scipy.sparse.linalg.splu`) of the
interior stiffness matrix. That matrix is assembled straight into interior
numbering by one scatter through the sparsity pattern cached on the mesh
(`Mesh.interior_pattern`). At p = 2 it does not depend on the iterate, so
it is factored once per `first_eigenpair` call and once per deflation call.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar
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
# absolute theta tolerance of the bounded Brent line search on [0, 1]
_LINE_SEARCH_XATOL = 1e-9


@dataclass
class SolverOptions:
    """Knobs for the fixed-point solver; defaults are desk-scale sane.

    `stagnation_tol` is the relative Rayleigh drop that counts as stagnation
    in the ground-state iteration, and the relative residual at which
    deflation stops. The inner linear solves are direct (sparse LU), so
    they take no tolerance.
    """

    eps_initial: float = 1e-2
    eps_floor: float = 1e-8
    eps_decay: float = 0.5
    max_outer: int = 200
    stagnation_tol: float = 1e-9
    seed: int = 0
    n_directions: int = 32
    n_offsets: int = 64
    sweep_refine_rounds: int = 3

    def __post_init__(self):
        if not (0.0 < self.eps_floor <= self.eps_initial):
            raise ValueError("need 0 < eps_floor <= eps_initial")
        if not (0.0 < self.eps_decay < 1.0):
            raise ValueError("eps schedule must be strictly decreasing")
        if self.stagnation_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.eps_floor < 1e-10:
            raise ValueError("eps floor below 1e-10 makes the inner systems singular")

    def eps(self, k):
        return max(self.eps_floor, self.eps_initial * self.eps_decay**k)


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
    # outer steps that fell back to the line search, and those of them
    # whose search found no decrease (the step then keeps u)
    line_searches: int = 0
    line_search_rejections: int = 0

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


def _power_load(mesh, measure, values, p):
    """Load vector b_i = int density |u|^(p-2) u phi_i."""
    uq = mesh.values_at_quad(values)
    # |u|^(p-2) u -> 0 as u -> 0 for every p > 1; guard the p < 2 exponent
    pw = np.zeros_like(uq)
    m = uq != 0.0
    pw[m] = np.abs(uq[m]) ** (p - 2.0) * uq[m]
    s = mesh.measure_weights(measure) * pw
    local = np.einsum("mq,qk->mk", s, mesh.basis)
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, mesh.elements, local)
    return b


def _interior_lu(mesh, measure, elem_weights=None):
    """Sparse LU of the interior weighted stiffness matrix."""
    return splu(_assemble_interior(mesh, _stiffness_local(mesh, measure, elem_weights)))


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


def _segment_quotient(mesh, u, v, p, measure):
    """theta -> Rayleigh quotient of u + theta (v - u).

    The field values at the quadrature points, the element gradients, the
    quadrature weights and the element density integrals are gathered once;
    each evaluation is elementwise arithmetic on them, because both the P1
    interpolant and the gradient are linear in the nodal values.
    """
    ud = np.stack([u, v - u])
    uq, dq = mesh.values_at_quad(ud)
    gu, gd = mesh.gradients(ud)
    w = mesh.measure_weights(measure)
    de = mesh.element_density_integrals(measure)

    def quotient(theta):
        den = np.sum(w * np.abs(uq + theta * dq) ** p)
        if den <= 0.0:
            return np.inf
        return float(gradient_energies(p, gu + theta * gd, de) / den)

    return quotient


def _line_search(mesh, u, v, p, measure, r_u):
    """Bounded Brent minimisation of the Rayleigh quotient on the segment
    u -> v, the fallback when the fixed-point step fails to decrease it.
    Returns (u, r_u) unchanged unless some point beats r_u."""
    res = minimize_scalar(
        _segment_quotient(mesh, u, v, p, measure),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": _LINE_SEARCH_XATOL},
    )
    if not res.fun < r_u:
        return u, r_u
    return u + res.x * (v - u), float(res.fun)


def first_eigenpair(p, mesh, measure, opts=None):
    """Ground state of the Dirichlet (Gaussian) p-Laplacian on the mesh.

    Returns an EigenPair with a monotone non-increasing Rayleigh history;
    non-convergence is reported through EigenPair.converged, not raised.
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
    r = rayleigh_quotient(p, Field(mesh, u), measure)
    history = [r]
    converged = False
    stagnant = 0
    searches = rejections = 0
    it = 0
    # at p = 2 the diffusivity weight is identically 1: no schedule to ramp,
    # and one factorization serves every step
    lu = _interior_lu(mesh, measure) if p == 2.0 else None
    at_floor = p == 2.0
    for it in range(1, opts.max_outer + 1):
        if p != 2.0:
            eps = opts.eps(it - 1)
            g = mesh.gradients(u)
            gn2 = np.sum(g * g, axis=1)
            lu = _interior_lu(mesh, measure, (gn2 + eps * eps) ** (0.5 * (p - 2.0)))
            at_floor = eps <= opts.eps_floor * (1.0 + 1e-12)
        v = np.zeros(mesh.n_nodes)
        v[interior] = lu.solve(_power_load(mesh, measure, u, p)[interior])
        v = _normalize(mesh, v, p, measure)
        r_new = rayleigh_quotient(p, Field(mesh, v), measure)
        if r_new > r:
            v, r_new = _line_search(mesh, u, v, p, measure, r)
            v = _normalize(mesh, v, p, measure)
            searches += 1
            # a rejected search returns r itself; an accepted one is lower
            rejections += int(r_new == r)
        drop = r - r_new
        u, r = v, r_new
        history.append(r)
        if at_floor and abs(drop) <= opts.stagnation_tol * max(1.0, r):
            stagnant += 1
            if stagnant >= 2:
                converged = True
                break
        else:
            stagnant = 0

    if np.sum(u) < 0.0:
        u = -u
    pair = EigenPair(
        lam=r,
        field=Field(mesh, u),
        residual_history=history,
        iterations=it,
        normalized=True,
        converged=converged,
        estimator="ground",
        line_searches=searches,
        line_search_rejections=rejections,
    )
    if not converged:
        warnings.warn(
            f"first_eigenpair did not stagnate within {opts.max_outer} outer "
            f"iterations (last Rayleigh drop {history[-2] - history[-1]:.3e})"
        )
    return pair


def _deflated_second(p, mesh, measure, u1, opts):
    """Block inverse iteration in the M-complement of span(u1), p = 2 only.

    A block of vectors, projected against u1 and rotated by Rayleigh-Ritz
    on every step, carries the next few eigenvalues together, so a
    near-degenerate lambda2/lambda3 pair cannot stall it. It stops when the
    relative residual of the lowest Ritz pair, with its u1 component
    removed, falls to `opts.stagnation_tol`.
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
    converged = False
    it = 0
    for it in range(1, opts.max_outer + 1):
        theta, c = eigh(x.T @ (K @ x), x.T @ (M @ x))
        x = x @ c  # M-orthonormal Ritz vectors, ascending Ritz values
        v = x[:, 0]
        Kv = K @ v
        resid = Kv - theta[0] * (M @ v)
        resid -= Mu1 * float(u1i @ resid)
        history.append(float(theta[0]))
        if np.linalg.norm(resid) <= opts.stagnation_tol * np.linalg.norm(Kv):
            converged = True
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
        converged=converged,
        estimator="deflation",
    )


def _cut_sweep_second(p, mesh, measure, opts):
    """Two-nodal-domain upper bound: sweep hyperplane cuts, solve the ground
    state on both induced sub-meshes, and minimize max(lambda+, lambda-).
    The coarse direction x offset sweep is followed by a few refinement
    rounds of the offset around the incumbent cut (the value is piecewise
    constant in the offset, so coarse sweeps alone can straddle the best
    element partition)."""
    if mesh.dim == 1:
        directions = np.array([[1.0]])
    else:
        th = np.linspace(0.0, np.pi, opts.n_directions, endpoint=False)
        directions = np.stack([np.cos(th), np.sin(th)], axis=1)

    centroids = np.mean(mesh.nodes[mesh.elements], axis=1)
    seen = set()
    state = {"best": None, "theta": None, "tau": None, "n_cuts": 0}
    # sub-solves only feed an upper bound, so a looser stagnation tolerance
    # and iteration cap lose nothing: any Rayleigh quotient of an admissible
    # field bounds lambda_1 of its subdomain from above
    sub_opts = replace(
        opts, max_outer=min(opts.max_outer, 60), stagnation_tol=max(opts.stagnation_tol, 1e-8)
    )

    def process_cut(theta, proj, tau):
        side = proj > tau
        if not side.any() or side.all():
            return
        key = side.tobytes()
        if key in seen:
            return
        seen.add(key)
        halves = []
        for mask in (side, ~side):
            sub, node_map = submesh(mesh, np.nonzero(mask)[0])
            if not np.any(sub.interior):
                return
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pair = first_eigenpair(p, sub, measure, sub_opts)
            halves.append((pair, node_map))
        state["n_cuts"] += 1
        value = max(halves[0][0].lam, halves[1][0].lam)
        if state["best"] is None or value < state["best"][0]:
            glued = np.zeros(mesh.n_nodes)
            for sign, (pair, node_map) in zip((1.0, -1.0), halves):
                glued[node_map] += sign * pair.field.values
            state["best"] = (value, glued)
            state["theta"], state["tau"] = theta, tau

    spacing = None
    for theta in directions:
        proj = centroids @ theta
        lo, hi = proj.min(), proj.max()
        offsets = np.linspace(lo, hi, opts.n_offsets + 2)[1:-1]
        spacing = offsets[1] - offsets[0] if offsets.size > 1 else hi - lo
        for tau in offsets:
            process_cut(theta, proj, tau)
    if state["best"] is not None and spacing is not None:
        theta = state["theta"]
        proj = centroids @ theta
        delta = spacing
        for _ in range(opts.sweep_refine_rounds):
            for tau in np.linspace(state["tau"] - delta, state["tau"] + delta, 17):
                process_cut(theta, proj, tau)
            delta /= 8.0
    if state["best"] is None:
        raise ValueError("cut sweep produced no admissible partition")
    value, glued = state["best"]
    n_cuts = state["n_cuts"]
    glued = _normalize(mesh, glued, p, measure)
    return EigenPair(
        lam=value,
        field=Field(mesh, glued),
        residual_history=[],
        iterations=n_cuts,
        normalized=True,
        converged=True,
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
