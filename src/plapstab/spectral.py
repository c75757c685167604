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
estimator (a certified upper bound). Along each direction it finds the cut
where the two sides' lambda1 cross by a search seeded at the previous
direction's crossing: it gallops by 1, 2, 4, ... cuts from there to bracket
the crossing and bisects the bracket. A side's lambda1 is the least over the
connected components of its interior nodes, labelled on the parent mesh's
full pattern; each component is solved on one sub-mesh cut from the parent.

Every sparse matrix is one scatter of element matrices on a sparsity
pattern cached on the mesh (`Mesh.pattern`): the full matrices of
`weighted_stiffness` and `weighted_mass` on the pattern of all nodes, the
interior ones on the interior pattern. Every int |u|^p dmu is one call of
`lp_energies`. Every linear solve is a sparse LU
(`scipy.sparse.linalg.splu`) of one of two matrices on the interior
pattern: the interior matrix of the lagged steps and of deflation, and the
bordered Newton matrix, built from [J.data, b, -b] by one gather. The first
factorisation of each on a mesh orders the columns by COLAMD and keeps that
order on the mesh (`Mesh.lu_orders`); later ones gather straight into the
column-ordered layout and factor it without reordering. COLAMD orders by
structure alone, so these factors and their solves are bitwise those of a
fresh `splu`. The mesh keeps the order, never a factor. At p = 2 the lagged
steps share one factor of the stiffness matrix, released before the first
Newton step, and deflation keeps one for its iteration; every other factor
serves one solve.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from .cpcore import _check_p, _guarded_power
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
# cut directions of the 2-D cut sweep, equally spaced over [0, pi)
_CUT_DIRECTIONS = 32


@dataclass
class SolverOptions:
    """Knobs for the eigen-solvers; defaults are desk-scale sane.

    `tol` is the relative residual at which the ground state (or at its
    rounding floor, if higher) and deflation stop. `max_outer` caps their
    outer steps. `seed` seeds deflation's start block. The linear solves
    are direct (sparse LU): no tolerance. `n_offsets` is inert and kept
    only so that callers that still pass it keep working.
    """

    max_outer: int = 200
    tol: float = 1e-10
    seed: int = 0
    n_offsets: int = 64

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class EigenPair:
    """Eigenvalue with its eigenfunction (int |u|^p dmu = 1) and solve diagnostics."""

    lam: float
    field: Field
    residual_history: list
    iterations: int
    converged: bool
    estimator: str = "ground"
    # final relative residual of the ground state or of deflation, and the
    # ground state's rounding floor; NaN where not computed
    residual: float = float("nan")
    residual_floor: float = float("nan")

    @property
    def is_upper_bound(self):
        """True for the cut sweep's lambda2, an upper bound, not an eigenvalue."""
        return self.estimator == "nodal-cut"

    def to_json_dict(self, mesh_file=None):
        return {
            "lambda": float(self.lam),
            "iterations": int(self.iterations),
            "residual_history": [float(r) for r in self.residual_history],
            "normalized": True,
            "converged": bool(self.converged),
            "estimator": self.estimator,
            "lambda2_is_upper_bound": bool(self.is_upper_bound),
            "nodal_values": {
                "mesh_file": mesh_file,
                "values": [float(v) for v in self.field.values],
            },
        }


def lp_norm(field, p, measure):
    return float(lp_energies(p, field.at_quad(), field.mesh.measure_weights(measure))) ** (1.0 / p)


def lp_energies(p, uq, w):
    """int |u|^p dmeasure from a block of values uq at the quadrature points,
    shaped (..., *w.shape), and the quadrature weights w of the measure: one
    value per leading index."""
    return np.sum(w * np.abs(uq) ** p, axis=tuple(range(-w.ndim, 0)))


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
    _check_p(p)
    den = float(lp_energies(p, field.at_quad(), field.mesh.measure_weights(measure)))
    if den <= 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    return grad_energy(p, field, measure) / den


def _stiffness_local(mesh, element_weights):
    """Element matrices w_e grad phi_i . grad phi_j for the (m,) weights w_e,
    (m, k, k); w_e = int_e density gives the stiffness matrix's."""
    return mesh.grad_gram * element_weights[:, None, None]


def _mass_local(mesh, quad_weights):
    """Element matrices sum_q w_eq phi_i phi_j for the (m, q) quadrature
    weights w_eq, (m, k, k); the measure's weights give the mass matrix's."""
    return np.einsum("mq,qi,qj->mij", quad_weights, mesh.basis, mesh.basis)


def _square_csc(data, indices, indptr):
    n = indptr.size - 1
    return sparse.csc_matrix((data, indices, indptr), shape=(n, n))


def _scatter(mesh, local, nodes="interior"):
    """CSC data, on the mesh's cached pattern of `nodes` (see Mesh.pattern),
    of the matrix assembled from the (m, k, k) element matrices `local`."""
    slots, indices, _ = mesh.pattern(nodes)
    nnz = indices.size
    return np.bincount(slots, weights=local.ravel(), minlength=nnz + 1)[:nnz]


def _assemble_csc(mesh, local, nodes="interior"):
    """The matrix on `nodes` assembled from the element matrices `local`, as
    CSC in the pattern's numbering, by one scatter."""
    _, indices, indptr = mesh.pattern(nodes)
    return _square_csc(_scatter(mesh, local, nodes), indices, indptr)


def weighted_stiffness(mesh, measure):
    """Assemble int density grad phi_i . grad phi_j, CSC."""
    return _assemble_csc(mesh, _stiffness_local(mesh, mesh.element_density_integrals(measure)), "all")


def weighted_mass(mesh, measure):
    """Assemble int density phi_i phi_j by element quadrature, CSC."""
    return _assemble_csc(mesh, _mass_local(mesh, mesh.measure_weights(measure)), "all")


def _distance_to_boundary(mesh):
    """Nodal distance to `mesh.boundary_facets` (end nodes, or the lines of
    edges), zero on the boundary: on a convex mesh, to the domain's boundary."""
    nodes = mesh.nodes
    if mesh.dim == 1:
        return np.min(np.abs(nodes - nodes[mesh.boundary_facets[:, 0]].T), axis=1)
    pa, end = nodes[mesh.boundary_facets.T]
    e = end - pa
    d = np.full(mesh.n_nodes, np.inf)
    # (edges, nodes) blocks of |e x (x - pa)| / |e|, a bounded number of
    # edges at a time so that the work array stays small on fine meshes
    step = max(1, _DISTANCE_BLOCK // mesh.n_nodes)
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


def _euler_lagrange(p, mesh, measure, u):
    """The discrete Euler-Lagrange system at u on the interior dofs.

    Returns (R, b, r, rel, terms): the Rayleigh quotient R(u), b = B_p(u)
    with B_p(u)_i = int |u|^(p-2) u phi_i dmu, the residual r = A_p(u) - R b
    with A_p(u)_i = int |grad u|^(p-2) grad u . grad phi_i dmu, its relative
    norm |r| / |A_p(u)|, and the element terms (u, |g|, de |g|^(p-2),
    w |u|^(p-2), G g) of g = grad u, from which _jacobian and _residual_floor
    build their results without evaluating u again.
    """
    w = mesh.measure_weights(measure)
    de = mesh.element_density_integrals(measure)
    g = mesh.gradients(u)
    uq = mesh.values_at_quad(u)
    # the same operations as rayleigh_quotient, so R is bitwise the same
    lam = float(gradient_energies(p, g, de) / lp_energies(p, uq, w))
    gn = np.sqrt(np.sum(g * g, axis=1))
    ga = de * _guarded_power(gn, p - 2.0)
    uw = w * _guarded_power(np.abs(uq), p - 2.0)
    gphi = np.einsum("mkd,md->mk", mesh.grads, g)  # G g, one row per element
    elements, interior = mesh.elements.ravel(), mesh.interior
    a = np.bincount(elements, (ga[:, None] * gphi).ravel(), mesh.n_nodes)[interior]
    b = np.bincount(elements, ((uw * uq) @ mesh.basis).ravel(), mesh.n_nodes)[interior]
    r = a - lam * b
    rel = float(np.linalg.norm(r) / np.linalg.norm(a))
    return lam, b, r, rel, (u, gn, ga, uw, gphi)


def _jacobian(p, mesh, lam, terms):
    """Element matrices of the Jacobian J = A_p'(u) - R B_p'(u) at the u of
    `terms` (from _euler_lagrange), R = lam: de |g|^(p-2) (G G^T + (p-2)
    (G n)(G n)^T) - R (p-1) int |u|^(p-2) phi_i phi_j, with n = g / |g|; the
    p = 2 weight is 1 everywhere and the other weights are 0 where g or u is.
    """
    _, gn, ga, uw, gphi = terms
    # (p-2) de |g|^(p-4) (G g)(G g)^T is the (p-2) (G n)(G n)^T term
    gb = (p - 2.0) * _guarded_power(gn, -2.0) * ga
    local = _stiffness_local(mesh, ga) + gb[:, None, None] * (gphi[:, :, None] * gphi[:, None, :])
    local -= (lam * (p - 1.0)) * _mass_local(mesh, uw)
    return local


def _residual_floor(p, mesh, terms, a):
    """|F| / |a|, a = A_p(u), F_i = int |grad u|^(p-2) |(I + (p-2) n n^T) grad
    phi_i| dg dmu (n = grad u / |grad u|) at the u of `terms` (from
    _euler_lagrange): to first order, how far A_p(u)_i moves when each u_j
    moves by its rounding 2^-53 |u_j|, which moves grad u by at most
    dg = 2^-53 sum_j |grad phi_j| |u_j|. Grows like h^-2."""
    u, gn, ga, _, gphi = terms
    phi2 = np.einsum("mii->mi", mesh.grad_gram)  # |grad phi_i|^2 per element
    dg = 2.0**-53 * np.einsum("mk,mk->m", np.sqrt(phi2), np.abs(u[mesh.elements]))
    gain = np.sqrt(phi2 + (p * (p - 2.0)) * _guarded_power(gn, -2.0)[:, None] * gphi**2)
    fe = (ga * dg)[:, None] * gain
    f = np.bincount(mesh.elements.ravel(), fe.ravel(), mesh.n_nodes)[mesh.interior]
    return float(np.linalg.norm(f) / np.linalg.norm(a))


def _natural_layout(mesh, name):
    """(src, indices, indptr) of the CSC matrix `name` on the interior
    pattern, whose data is source[src] for the source that _lu_solve takes.
    "interior" is the interior block itself (source: its data). "bordered"
    is [J, -b; b^T, 0] (source: [J.data, b, -b]): b_j closes column j of J
    and -b is the last column."""
    _, indices, indptr = mesh.pattern("interior")
    nnz, n = indices.size, indptr.size - 1
    if name == "interior":
        return np.arange(nnz), indices, indptr
    ends = indptr[1:]
    src = np.concatenate([np.insert(np.arange(nnz), ends, nnz + np.arange(n)), nnz + n + np.arange(n)])
    rows = np.concatenate([np.insert(indices, ends, n), np.arange(n)]).astype(np.int32)
    return src, rows, np.append(indptr + np.arange(n + 1), indptr[-1] + 2 * n).astype(np.int32)


def _lu_solve(mesh, name, source):
    """Solve of the sparse LU of the matrix `name` (see _natural_layout)
    with data from `source`; a singular matrix raises RuntimeError.

    The first factorisation of `name` on a mesh orders the columns by COLAMD
    (scipy's default) and caches that order in `mesh.lu_orders`, as a gather
    from the source straight into the column-ordered CSC layout. Later ones
    factor that layout with no reordering and unpermute the solution: COLAMD
    orders by structure alone, so the factor and its solves are bitwise
    those of a fresh `splu`. A failed factorisation caches nothing.
    """
    order = mesh.lu_orders.get(name)
    if order is not None:
        src, indices, indptr, perm_c = order
        lu = splu(_square_csc(source[src], indices, indptr), permc_spec="NATURAL")

        def solve(rhs):
            # in the memory layout of a fresh factor's solution, which the
            # dense products of deflation round by
            x = lu.solve(rhs)
            return np.take(x, perm_c, axis=0, out=np.empty_like(x))

        return solve
    src, indices, indptr = _natural_layout(mesh, name)
    lu = splu(_square_csc(source[src], indices, indptr))
    # column j of the ordered layout is column q[j] of the natural one
    q = np.argsort(lu.perm_c)
    counts = np.diff(indptr)[q]
    ptr = np.append(0, np.cumsum(counts)).astype(np.int32)
    gather = np.arange(ptr[-1]) + np.repeat(indptr[q] - ptr[:-1], counts)
    # perm_c is a view into the factor: a copy lets the factor go
    mesh.lu_orders[name] = (src[gather].astype(np.int32), indices[gather], ptr, lu.perm_c.copy())
    return lu.solve


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
    _check_p(p)
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
    lam, b, r, res, terms = _euler_lagrange(p, mesh, measure, u)
    history = [lam]
    newton = False
    solve = None
    lagged = failures = it = 0
    while res > opts.tol and it < opts.max_outer and failures < 2:
        # the floor costs about one residual; lagged steps stay far above it.
        # In Newton mode the terms of u are at hand: u was just accepted, or
        # a lagged direction from it failed
        if newton:
            floor = _residual_floor(p, mesh, terms, r + lam * b)
            if res <= floor:
                break
        it += 1
        d = np.zeros(mesh.n_nodes)
        if newton:
            # at p = 2 the lagged factor is the iterate-free stiffness matrix;
            # drop it before the first bordered factorisation
            solve = None
            # J comes from the terms of the evaluation that accepted u. Those
            # terms (the floor above was their last other use) and the matrix
            # data are released around the factorisation: kept alive across
            # factorisations, they fragmented the heap, and the peak RSS of
            # repeated solves grew by several MB
            source = np.concatenate([_scatter(mesh, _jacobian(p, mesh, lam, terms)), b, -b])
            terms = None
            try:
                # u is normalised, so the normalisation row has zero right side
                d[interior] = _lu_solve(mesh, "bordered", source)(np.append(-r, 0.0))[:-1]
            except RuntimeError:
                # exactly singular, as where an interior node of a cut
                # sub-mesh touches no other interior node and u and grad u
                # vanish around it: a failed direction, like a failed halving
                d = None
            source = None
        else:
            if solve is None or p != 2.0:
                solve = None  # the last lagged factor goes before the next is made
                # lagged diffusivity (|grad u|^2 + eps^2)^((p-2)/2) on the
                # fixed schedule eps = max(1e-8, 1e-2 2^-k) of lagged step k
                g = mesh.gradients(u)
                eps = max(1e-8, 1e-2 * 0.5**lagged)
                weights = (np.sum(g * g, axis=1) + eps * eps) ** (0.5 * (p - 2.0))
                de = mesh.element_density_integrals(measure)
                solve = _lu_solve(mesh, "interior", _scatter(mesh, _stiffness_local(mesh, de * weights)))
            d[interior] = solve(b)
            d = _normalize(mesh, d, p, measure) - u
            lagged += 1
        t = 1.0
        for _ in range(0 if d is None else _MAX_HALVINGS):
            v = _normalize(mesh, u + t * d, p, measure)
            lam_v, b_v, r_v, res_v, terms_v = _euler_lagrange(p, mesh, measure, v)
            if lam_v < lam or (newton and lam_v <= lam * (1.0 + _NEWTON_RISE) and res_v < res):
                failures = 0
                newton = newton or lam - lam_v <= _NEWTON_DROP * lam
                u, lam, b, r, res, terms = v, lam_v, b_v, r_v, res_v, terms_v
                break
            t *= 0.5
        else:
            failures += 1
            newton = not newton
        terms_v = None  # `terms` alone keeps an evaluation alive (see the Newton step)
        history.append(lam)

    if np.sum(u) < 0.0:
        u = -u
    if terms is not None:
        # the floor is even in u, so the terms of the unflipped u serve
        floor = _residual_floor(p, mesh, terms, r + lam * b)
    # else a Newton step released them and failed: its floor is u's
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
    K = _assemble_csc(mesh, _stiffness_local(mesh, mesh.element_density_integrals(measure)))
    M = _assemble_csc(mesh, _mass_local(mesh, mesh.measure_weights(measure)))
    solve = _lu_solve(mesh, "interior", K.data)
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
        x = project(solve(M @ x))
    values = np.zeros(mesh.n_nodes)
    values[interior] = x[:, 0]
    values = _normalize(mesh, values, p, measure)
    lam = rayleigh_quotient(p, Field(mesh, values), measure)
    return EigenPair(
        lam=lam,
        field=Field(mesh, values),
        residual_history=history,
        iterations=it,
        converged=rel <= opts.tol,
        estimator="deflation",
        residual=rel,
    )


def _side_ground_state(p, mesh, measure, elements, opts):
    """(lambda1, ground state, node map into mesh) of the side made of
    `elements`; (inf, None, None) where it has no interior node.

    The side's interior nodes are the mesh's interior nodes whose elements
    all lie in it. Each connected component of them (joined where they share
    an element) is solved on one sub-mesh of the mesh, made of the elements
    that touch it, and the least lambda1 is kept. Zero-trace P1 fields vanish
    on the other elements and the components decouple, so this is the side's
    discrete lambda1; solved whole, a side with two components or with
    elements that touch no interior node can leave the ground state
    unconverged.
    """
    n = mesh.n_nodes
    inner = mesh.interior.copy()
    inner[np.delete(mesh.elements, elements, axis=0)] = False
    # least node index in each component: min-label propagation over the
    # mesh's full pattern, whose columns hold each node and its neighbours,
    # with pointer jumping; n labels every node outside the side's interior
    _, indices, indptr = mesh.pattern("all")
    label = np.where(inner, np.arange(n), n)
    while True:
        new = np.where(inner, np.minimum.reduceat(label[indices], indptr[:-1]), n)
        new = np.append(new, n)[new]
        if np.array_equal(new, label):
            break
        label = new
    element_label = np.min(label[mesh.elements], axis=1)
    best = (np.inf, None, None)
    for c in np.unique(label[inner]):
        part, part_map = submesh(mesh, np.nonzero(element_label == c)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = first_eigenpair(p, part, measure, opts)
        if pair.lam < best[0]:
            best = (pair.lam, pair, part_map)
    return best


def _first_crossing(crossed, n, seed):
    """First j in [1, n) with crossed(j), or n if there is none, for a
    predicate that is False and then True as j grows. The search probes the
    seed (clipped to [1, n - 1]) first, gallops from it by 1, 2, 4, ... until
    the answer is bracketed, and bisects the bracket: about 2 log2(d) probes
    for an answer d cuts from the seed."""
    lo, hi = 1, n
    if n > 1:
        seed = min(max(seed, 1), n - 1)
        step = 1
        if crossed(seed):
            hi = seed
            while hi - step >= 1 and crossed(hi - step):
                hi -= step
                step *= 2
            lo = max(hi - step + 1, 1)
        else:
            lo = seed + 1
            while lo - 1 + step < n and not crossed(lo - 1 + step):
                lo += step
                step *= 2
            hi = min(lo - 1 + step, n)
    while lo < hi:
        mid = (lo + hi) // 2
        if crossed(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cut_sweep_second(p, mesh, measure, opts):
    """Two-nodal-domain upper bound: the least max(lambda+, lambda-) over
    hyperplane cuts, lambda+- the ground states of the two induced sub-meshes
    (inf on a side without interior nodes; see _side_ground_state).

    Along each of _CUT_DIRECTIONS directions (one in 1-D), with t_0 < ... < t_(K-1)
    the distinct element-centroid projections, cut j (1 <= j < K) puts the
    elements with projection >= t_j into Omega+. Omega+ shrinks as j grows
    and the zero-trace P1 spaces are nested, so lambda+ rises and lambda-
    falls with j: the best cut is the first j with lambda+ >= lambda-, or
    j - 1. The search for that j starts at the previous direction's
    crossing, scaled to this direction's K (the middle cut for the first
    direction), gallops from there by 1, 2, 4, ... cuts until the crossing is
    bracketed, and bisects the bracket; neighbouring directions cross at
    nearby cuts, so most searches probe only a few cuts. Any correct search
    of a monotone predicate finds the same j, and the sides of j - 1 and j
    are memoised. Each max(lambda+, lambda-) is the quotient of an
    admissible glued field, so the result bounds lambda2 even where
    unconverged sub-solves break the ordering. `iterations` counts the
    distinct cuts evaluated; `converged` holds when both sub-solves of the
    returned cut converged. A mesh on which no cut leaves interior nodes on
    both sides raises ValueError.
    """
    if mesh.dim == 1:
        directions = np.array([[1.0]])
    else:
        th = np.linspace(0.0, np.pi, _CUT_DIRECTIONS, endpoint=False)
        directions = np.stack([np.cos(th), np.sin(th)], axis=1)

    centroids = np.mean(mesh.nodes[mesh.elements], axis=1)
    # element mask -> (lambda1, ground state or None, node map)
    solved = {}
    cuts = set()

    def lam(mask):
        key = mask.tobytes()
        if key not in solved:
            solved[key] = _side_ground_state(p, mesh, measure, np.nonzero(mask)[0], opts)
        return solved[key][0]

    best, best_side = np.inf, None
    crossing = 0.5  # the last direction's crossing as a fraction of its cuts
    for theta in directions:
        proj = centroids @ theta
        levels = np.unique(proj)

        def crossed(j):
            side = proj >= levels[j]
            cuts.add(side.tobytes())
            return lam(side) >= lam(~side)

        lo = _first_crossing(crossed, levels.size, round(crossing * levels.size))
        crossing = lo / levels.size
        for j in range(max(lo - 1, 1), min(lo + 1, levels.size)):
            side = proj >= levels[j]
            cuts.add(side.tobytes())
            value = max(lam(side), lam(~side))
            if value < best:
                best, best_side = value, side
    if best_side is None:
        raise ValueError(
            "cut sweep found no admissible partition: no hyperplane cut leaves "
            "interior nodes on both sides of this mesh; use a finer mesh (a higher --level)"
        )
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
        converged=all(pair.converged for _, pair, _ in halves),
        estimator="nodal-cut",
    )


def second_eigenvalue(p, mesh, measure, u1pair, opts=None):
    """Second Dirichlet eigenvalue.

    p = 2 uses block inverse iteration deflated against the converged ground
    state `u1pair` and converges to the discrete lambda_2.  Every other p
    uses the hyperplane-cut sweep, which returns a certified upper bound
    (is_upper_bound is set; `u1pair` is not used and may be None); its glued
    sign-changing field is an admissible candidate, not an eigenfunction.
    """
    _check_p(p)
    if u1pair is None and p == 2.0 or u1pair is not None and not u1pair.converged:
        raise ValueError("second_eigenvalue needs a converged first eigenpair")
    opts = opts or SolverOptions()
    if p == 2.0:
        return _deflated_second(p, mesh, measure, u1pair.field, opts)
    return _cut_sweep_second(p, mesh, measure, opts)
