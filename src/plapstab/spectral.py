"""First and second Dirichlet eigenpairs of the (Gaussian) p-Laplacian.

The ground state solves the discrete Euler-Lagrange system A_p(u) =
lambda B_p(u) of the Rayleigh quotient int |grad u|^p dmu / int |u|^p dmu
over zero-trace P1 fields, normalised by int |u|^p dmu = 1. It is converged
when the relative residual |A_p(u) - R(u) B_p(u)| / |A_p(u)| on the interior
dofs is at most `SolverOptions.tol`, or at most the rounding floor of that
residual where this is higher (on fine 1-D meshes). At p = 2 the system is
the linear K u = lambda M u, and both p = 2 pairs come from one kernel,
shift-invert Lanczos on the stiffness factor (_lanczos; Ericsson and Ruhe,
Math. Comp. 35, 1980): the ground state from the start vector, the second
pair in the M-complement of the ground state. At every other p one loop
takes outer steps. Its first steps are lagged-diffusivity (inverse power)
steps: each solves a linear system whose element weights freeze (|grad
u|^2 + eps^2)^((p-2)/2) at the iterate, with eps on a fixed decreasing
schedule. Once such a step lowers the quotient by 1e-3 relative or less,
Newton steps on the bordered system [J, -b; b^T, 0] take over, with b =
B_p(u) and J the Jacobian of the residual. Both directions backtrack by
halving the step length until the quotient drops; a singular system,
lagged or bordered, counts as a failed direction. A trial point costs one
Rayleigh quotient (_quotient): the rest of the Euler-Lagrange system
(_system) is formed only where the quotient lets the step pass, from the
pieces the quotient already has.
The second eigenvalue at p != 2 is a hyperplane-cut two-nodal-domain
estimator: an upper bound on the discrete lambda2 of the fixed quadrature,
not on the continuum lambda2 while the quadrature of int |u|^p is inexact
(7e-6 to 1.5e-3 relative on sign-changing fields). Along each direction
it finds the cut where the two sides' lambda1 cross by a search seeded at
the previous direction's crossing: it gallops by 1, 2, 4, ... cuts from
there to bracket the crossing and bisects the bracket. A side's lambda1 is
the least over the connected components of its interior nodes, labelled on
the parent mesh's full pattern; each distinct component is solved once per
sweep, on one sub-mesh cut from the parent, whatever sides share it. The
parent keeps a sweep's sub-meshes until the next sweep there, which takes
over those of the components the two share, with all that they keep, and
cuts only the new ones; the solves are not kept. The sub-solves do not
warn one by one: a sweep warns once, with the number of them that did not
converge.

What this module keeps per mesh is in the mesh's store, `Mesh.cache`: the
start vector (_start_vector), the evaluation context (_context) and the
p = 2 stiffness factor (_stiffness_factor), each built once per mesh (and
measure) by a `geometry.per_mesh` builder, and two entries read and written
directly: the factor layout ("factor layout", _lu_solve) and the last cut
sweep's sub-meshes ("side meshes", _cut_sweep_second). The context
(_Context) holds what an outer step reads; a solve fetches it once and
the kernels take it in place of the mesh and measure, so that a solve's
store reads do not grow with its steps.

Every sparse matrix is one scatter of element matrices on a sparsity
pattern cached on the mesh (`Mesh.pattern`): the full matrices of
`weighted_stiffness` and `weighted_mass` on the pattern of all nodes, the
interior ones on the interior pattern. The element matrices are products
with cached arrays: stiffness the element weights times `Mesh.grad_gram`,
mass one matmul of the quadrature weights with `Mesh.basis_products`.
Every int |u|^p dmu is one call of `lp_energies` and every
int |grad u|^p dmu one of `gradient_energies`, on values and gradients from
the mesh's matmul and sparse-operator kernels. Every norm (int |u|^p
dmu)^(1/p) is one call of `_lp_norm`, which scales the values by a power of
two where int |u|^p would leave [2^-1000, 2^1000] (as the lagged
directions' do from p = 31 on). An Euler-Lagrange evaluation forms
|grad u|^2, |grad u| and |u| once and takes from them the Rayleigh
quotient (_quotient, by the operations of those two kernels; it is what
`rayleigh_quotient` returns), and, where the system is wanted, the weights
|grad u|^(p-2), |u|^(p-2) and the lagged weights. Its vectors on the
interior dofs are each one scatter of element vectors (_interior_vector).
All the powers of arrays come from `cpcore._guarded_power`, which
multiplies out integer exponents up to 8.
Every linear solve is a direct factor (`_lu_solve`) of a matrix A given by
its CSC data on the interior pattern: the lagged matrix or the p = 2
stiffness (symmetric, with positive element weights), or J, bordered as
[J, -b; b^T, 0] by the border (b, -b). The mesh keeps one layout, built
from the interior pattern alone, and one factor, that of the p = 2
stiffness per measure. At
most _DENSE_MAX = 64 interior unknowns (as on most of the cut sweep's
sides), the layout is each entry's row and column: the data goes into a
dense n x n array, or (n + 1) x (n + 1) with b in row n and -b in column
n, factored by LAPACK (`getrf`/`getrs`). Above it, the layout is the
pattern's reverse Cuthill-McKee order (bandwidth 31 on square L4, 63 on
square L5) with gathers into LAPACK's band storage. A is factored by
banded Cholesky (`pbtrf`/`pbtrs`), or by partial-pivot banded LU
(`gbtrf`/`gbtrs`) where Cholesky breaks down on a lagged matrix that is
only numerically semidefinite. The bordered matrix is solved by block
elimination on the banded LU of J with one refinement step; J is singular
up to rounding at a converged iterate, so Cholesky is not tried on it.
The first p = 2 Lanczos run on a mesh and measure factors the stiffness
matrix, and the mesh keeps the factor with K and M for every solve of that
run and of every later one there: both pairs and repeated ground states.
Every other factor serves one solve. A Lanczos run keeps its basis and the
basis's M-images as the filled rows of two arrays whose capacity doubles
from _LANCZOS_ROWS, and takes the Ritz pairs of its tridiagonal from
LAPACK `stev`.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf as _gbtrf, dgbtrs as _gbtrs, dgetrf as _getrf, dgetrs as _getrs
from scipy.linalg.lapack import dpbtrf as _pbtrf, dpbtrs as _pbtrs, dstev as _stev

from .cpcore import _check_p, _guarded_power
from .geometry import Field, per_mesh, submesh

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
# meshes of at most this many interior unknowns factor dense (LAPACK
# getrf), larger ones banded; see _lu_solve. The cut sweep's small sides
# are each a new sub-mesh, and a band layout costs a reverse Cuthill-McKee
# order per sub-mesh: with banded factors for all sizes (0 here) the L2
# polygon sweeps ran 5-34% slower (2 vCPU Xeon, one BLAS thread), although
# one banded factor beats getrf at 54 unknowns
_DENSE_MAX = 64
# Krylov estimate of the shift-invert Lanczos steps at which rounding, not
# the Krylov space, bounds the true residual
_LANCZOS_ROUNDING = 2.0**-52
# rows of the Lanczos basis arrays at first; their capacity doubles when full
_LANCZOS_ROWS = 16
# the range of int |u|^p dmu in which _lp_norm takes the norm unscaled
_LP_RANGE = (2.0**-1000, 2.0**1000)


@dataclass
class SolverOptions:
    """Knobs for the eigen-solvers; defaults are desk-scale sane.

    `tol` is the relative residual at which the ground state (or at its
    rounding floor, if higher) and deflation count as converged.
    `max_outer` caps the ground state's outer steps at p != 2 and the
    Lanczos steps (one solve each) of both p = 2 pairs. `seed`, a
    non-negative integer, seeds deflation's start vector. The linear solves
    are direct, with no tolerance and no choice of solver: dense LAPACK LU
    up to _DENSE_MAX = 64 interior unknowns (where it saves the cut sweep's
    sub-meshes a band layout each, measured); above it, banded Cholesky in
    reverse Cuthill-McKee order for the interior matrices (banded LU where
    Cholesky breaks down) and block elimination on the banded LU of the
    Jacobian for the bordered Newton matrix. `n_offsets` is inert and kept
    only so that callers that still pass it keep working.
    """

    max_outer: int = 200
    tol: float = 1e-10
    seed: int = 0
    n_offsets: int = 64

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tolerances must be positive")
        _check_seed(self.seed)


def _check_seed(seed):
    """Raise ValueError, before any solve, for a seed that numpy's
    default_rng would refuse only where it is first drawn from."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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


def lp_norm(field, p, measure):
    """(int |u|^p dmu)^(1/p) of one field (_lp_norm)."""
    return _lp_norm(p, field.at_quad(), field.mesh.measure_weights(measure))


def _lp_norm(p, uq, w):
    """(int |u|^p dmeasure)^(1/p) from the values uq at the quadrature points
    and the quadrature weights w, shaped alike: the one norm kernel. Where
    int |u|^p falls outside [2^-1000, 2^1000] (or is not finite), uq is
    first scaled by the power of two 2^-k that puts its peak in [1/2, 1),
    and the norm of the scaled values is scaled back by 2^k. Both scalings
    are exact, but for values that the first takes into the subnormals,
    whose p-th powers are below 2^-1070 of the peak's. Inside that range
    the norm is the plain one, bit for bit. Zero where uq is. Where the
    plain int |u|^p overflows, numpy's overflow warning stays: silencing it
    (np.errstate) cost 2% of the benchmark's `eigen` pass, and no solve
    in the CLI's range of p overflows there (the directions underflow)."""
    energy = float(lp_energies(p, uq, w))
    if _LP_RANGE[0] <= energy <= _LP_RANGE[1]:
        return energy ** (1.0 / p)
    peak = float(np.max(np.abs(uq)))
    if peak == 0.0:
        return 0.0
    k = math.frexp(peak)[1]
    return math.ldexp(float(lp_energies(p, np.ldexp(uq, -k), w)) ** (1.0 / p), k)


def lp_energies(p, uq, w, out=None):
    """int |u|^p dmeasure from a block of values uq at the quadrature points,
    shaped (..., *w.shape), and the quadrature weights w of the measure: one
    value per leading index.  |uq| and w |uq|^p are written into `out` when
    it is given, a pair of arrays shaped like uq (the first may be uq
    itself), and into new arrays otherwise, with the same bits."""
    a, y = (None, None) if out is None else out
    y = _guarded_power(np.abs(uq, out=a), p, out=y)
    # np.add.reduce is np.sum without its wrapper, whose fixed cost is about
    # half of this call's on the cut sweep's small meshes
    return np.add.reduce(np.multiply(w, y, out=y), axis=tuple(range(-w.ndim, 0)))


def gradient_energies(p, g, de):
    """int |grad u|^p dmeasure from a block of element gradients g, shaped
    (..., m, dim), and the element density integrals de: one value per
    leading index.  Exact per element, since P1 gradients are constant."""
    return np.add.reduce(_guarded_power(np.sqrt(_inner(g, g)), p) * de, axis=-1)


def _inner(a, b):
    """sum_j a[..., j] b[..., j] over the short last axis (the dimensions or
    an element's vertices) of the broadcast a and b, summed in order. numpy's
    reductions and einsum over an axis this short cost several times the
    elementwise products (81 against 10 us for |g|^2 of a (16, 256, 2)
    block, one thread); the sums are theirs bitwise, up to the sign of a
    zero."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def grad_energy(p, field, measure):
    """int |grad u|^p dmeasure of one field."""
    de = field.mesh.element_density_integrals(measure)
    return float(gradient_energies(p, field.gradients(), de))


def rayleigh_quotient(p, field, measure):
    """int |grad u|^p dmu / int |u|^p dmu (_quotient). A quotient that is not
    finite, as of the zero field, raises ValueError."""
    _check_p(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, _ = _quotient(p, _context(field.mesh, measure), field.values)
    if not math.isfinite(lam):
        raise ValueError("Rayleigh quotient of the zero field, or of |u|^p out of float range")
    return lam


def _stiffness_local(mesh, element_weights):
    """Element matrices w_e grad phi_i . grad phi_j for the (m,) weights w_e,
    (m, k, k); w_e = int_e density gives the stiffness matrix's."""
    return mesh.grad_gram * element_weights[:, None, None]


def _mass_local(mesh, quad_weights):
    """Element matrices sum_q w_eq phi_i phi_j for the (m, q) quadrature
    weights w_eq, (m, k, k); the measure's weights give the mass matrix's.
    One matmul with the basis products (18 against 459 us by the 3-operand
    einsum on square L5)."""
    k = mesh.elements.shape[1]
    return (quad_weights @ mesh.basis_products).reshape(-1, k, k)


def _square_csc(data, indices, indptr):
    n = indptr.size - 1
    return sparse.csc_matrix((data, indices, indptr), shape=(n, n))


def _scatter(pattern, local):
    """CSC data, on a mesh's `pattern` (slots, indices, indptr) of a node set
    (see Mesh.pattern), of the matrix assembled from the (m, k, k) element
    matrices `local`."""
    slots, indices, _ = pattern
    nnz = indices.size
    return np.bincount(slots, weights=local.ravel(), minlength=nnz + 1)[:nnz]


def _assemble_csc(mesh, local, nodes="interior"):
    """The matrix on `nodes` assembled from the element matrices `local`, as
    CSC in the pattern's numbering, by one scatter."""
    pattern = mesh.pattern(nodes)
    return _square_csc(_scatter(pattern, local), *pattern[1:])


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


@per_mesh
def _start_vector(mesh):
    """The unnormalised start of every ground-state solve on `mesh`, kept
    read-only: the distance to the boundary."""
    u = _distance_to_boundary(mesh)
    if not np.any(u[mesh.interior] > 0.0):
        # a cut submesh is not convex: every interior node can lie on a
        # boundary-edge line, so start from the interior indicator instead
        return mesh.interior.astype(float)
    return u


class _Context:
    """What the Euler-Lagrange kernels and the linear solves read on one mesh
    and measure, gathered once per pair (_context), so that an outer step
    reads no store entry. Read-only; it holds no reference to the mesh, so
    the mesh's store holds no reference cycle.

    `w` and `de` are the measure weights and element density integrals,
    `flat` the raveled elements, `interior` the interior node index,
    `pattern` the interior pattern, `operator` the gradient operator, and
    `grad_sq` and `grad_lengths` |grad phi_i|^2 and |grad phi_i| per
    element. The mesh arrays keep the mesh's names, so that _stiffness_local
    and _mass_local take the context as they take a mesh. `layout` is the
    mesh's factor layout (_lu_solve) in a one-entry list that the mesh's
    contexts share, empty until a factorisation with it has succeeded.
    """

    __slots__ = ("w", "de", "elements", "flat", "n_nodes", "interior", "pattern", "operator", "dim",
                 "grads", "grad_gram", "grad_sq", "grad_lengths", "basis", "basis_t", "basis_products",
                 "layout")

    def __init__(self, mesh, measure):
        self.w = mesh.measure_weights(measure)
        self.de = mesh.element_density_integrals(measure)
        self.elements, self.flat = mesh.elements, mesh.elements.ravel()
        self.n_nodes, self.dim = mesh.n_nodes, mesh.dim
        self.interior = np.flatnonzero(mesh.interior)
        self.pattern = mesh.pattern("interior")
        self.operator = mesh.gradient_operator()
        self.grads, self.grad_gram, self.grad_lengths = mesh.grads, mesh.grad_gram, mesh.grad_lengths
        self.grad_sq = np.diagonal(mesh.grad_gram, axis1=1, axis2=2).copy()
        self.basis, self.basis_t, self.basis_products = mesh.basis, mesh.basis.T, mesh.basis_products
        self.layout = mesh.cache.setdefault("factor layout", [])
        for a in (self.interior, self.grad_sq):
            a.setflags(write=False)


@per_mesh
def _context(mesh, measure):
    """The _Context of `mesh` and `measure`, built on first use and kept."""
    return _Context(mesh, measure)


def _norm(v):
    """The Euclidean norm of a real 1-D v: np.linalg.norm's sqrt(v . v),
    bitwise, without its wrapper."""
    return math.sqrt(v @ v)


def _normalize(ctx, values, p):
    """values / lp_norm(Field(mesh, values), p, measure), bitwise, without
    building the Field, on the _Context ctx of the mesh and measure."""
    nrm = _lp_norm(p, values.take(ctx.elements) @ ctx.basis_t, ctx.w)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return values / nrm


def _quotient(p, ctx, u):
    """The Rayleigh quotient R(u) and the pieces it is built from: (R,
    (u, g, uq, |g|^2, |g|, |u|)) of g = grad u per element and the values uq
    at the quadrature points (the operations of Mesh.gradients and
    Mesh.values_at_quad), on the _Context ctx. A line-search trial needs R
    alone; _system forms the rest of the Euler-Lagrange system from the
    pieces."""
    g = (ctx.operator @ u).reshape(-1, ctx.dim)
    uq = u.take(ctx.elements) @ ctx.basis_t
    g2 = _inner(g, g)
    gn, ua = np.sqrt(g2), np.abs(uq)
    # the operations of gradient_energies and lp_energies on this |g| and
    # |u|; rayleigh_quotient is this R
    lam = float(np.add.reduce(_guarded_power(gn, p) * ctx.de, axis=-1)
                / np.add.reduce(ctx.w * _guarded_power(ua, p), axis=(-2, -1)))
    return lam, (u, g, uq, g2, gn, ua)


def _system(p, ctx, lam, pieces):
    """The discrete Euler-Lagrange system on the interior dofs at the u of
    `pieces`, R(u) = lam (both from _quotient).

    Returns (b, r, rel, terms): b = B_p(u) with B_p(u)_i = int |u|^(p-2) u
    phi_i dmu, the residual r = A_p(u) - R b with A_p(u)_i = int |grad
    u|^(p-2) grad u . grad phi_i dmu, its relative norm |r| / |A_p(u)|, and
    the element terms (u, |g|^2, |g|, de |g|^(p-2), w |u|^(p-2), G g) of g =
    grad u, from which _jacobian, _residual_floor and the lagged weights
    build their results without evaluating u again.
    """
    u, g, uq, g2, gn, ua = pieces
    ga = ctx.de * _guarded_power(gn, p - 2.0)
    uw = ctx.w * _guarded_power(ua, p - 2.0)
    gphi = _inner(ctx.grads, g[:, None, :])  # G g, one row per element
    a = _interior_vector(ctx, ga[:, None] * gphi)
    b = _interior_vector(ctx, (uw * uq) @ ctx.basis)
    r = a - lam * b
    rel = _norm(r) / _norm(a)
    return b, r, rel, (u, g2, gn, ga, uw, gphi)


def _interior_vector(ctx, local):
    """The interior dofs of the vector assembled from the (m, k) element
    vectors `local`, k the nodes per element: one scatter onto the nodes."""
    return np.bincount(ctx.flat, local.ravel(), ctx.n_nodes)[ctx.interior]


def _euler_lagrange(p, ctx, u):
    """(R, b, r, rel, terms) of the discrete Euler-Lagrange system at u:
    _quotient, then _system from its pieces."""
    lam, pieces = _quotient(p, ctx, u)
    return (lam, *_system(p, ctx, lam, pieces))


def _jacobian(p, ctx, lam, terms):
    """Element matrices of the Jacobian J = A_p'(u) - R B_p'(u) at the u of
    `terms` (from _system), R = lam: de |g|^(p-2) (G G^T + (p-2)
    (G n)(G n)^T) - R (p-1) int |u|^(p-2) phi_i phi_j, with n = g / |g|; the
    p = 2 weight is 1 everywhere and the other weights are 0 where g or u is.
    """
    _, _, gn, ga, uw, gphi = terms
    # (p-2) de |g|^(p-4) (G g)(G g)^T is the (p-2) (G n)(G n)^T term
    gb = (p - 2.0) * _guarded_power(gn, -2.0) * ga
    local = _stiffness_local(ctx, ga) + gb[:, None, None] * (gphi[:, :, None] * gphi[:, None, :])
    local -= (lam * (p - 1.0)) * _mass_local(ctx, uw)
    return local


def _residual_floor(p, ctx, terms, a):
    """|F| / |a|, a = A_p(u), F_i = int |grad u|^(p-2) |(I + (p-2) n n^T) grad
    phi_i| dg dmu (n = grad u / |grad u|) at the u of `terms` (from
    _system): to first order, how far A_p(u)_i moves when each u_j
    moves by its rounding 2^-53 |u_j|, which moves grad u by at most
    dg = 2^-53 sum_j |grad phi_j| |u_j|. Grows like h^-2."""
    u, _, gn, ga, _, gphi = terms
    dg = 2.0**-53 * _inner(ctx.grad_lengths, np.abs(u.take(ctx.elements)))
    gain = np.sqrt(ctx.grad_sq + (p * (p - 2.0)) * _guarded_power(gn, -2.0)[:, None] * (gphi * gphi))
    f = _interior_vector(ctx, (ga * dg)[:, None] * gain)
    return _norm(f) / _norm(a)


def _dense_solve(layout, data, border=None):
    """Solve of the LAPACK LU (`getrf`, partial pivoting) of the n x n matrix
    with CSC `data` at the (rows, columns, n) of the dense `layout`, or of
    the bordered matrix [A, c; b^T, 0] for border = (b, c)."""
    rows, cols, n = layout
    size = n if border is None else n + 1
    a = np.zeros((size, size), order="F")
    a[rows, cols] = data
    if border is not None:
        a[n, :n], a[:n, n] = border
    lu, piv, info = _getrf(a, overwrite_a=True)
    if info > 0:
        raise RuntimeError("Factor is exactly singular")
    return lambda rhs: _getrs(lu, piv, rhs)[0]


def _band_layout(indices, indptr):
    """(upper, position, kd, perm, general) of the symmetric CSC pattern
    (indices, indptr): perm is its reverse Cuthill-McKee order (row k of the
    ordered matrix is row perm[k]) and kd the ordered matrix's bandwidth.
    upper indexes the data entries on or above the ordered diagonal,
    position their places in LAPACK's upper band storage, a column-major
    (kd + 1) x n array holding entry (i, j) in row kd + i - j, and general,
    (2, upper.size), their places and those of their mirror images below the
    diagonal in LAPACK's general band storage, a column-major (3 kd + 1) x n
    array holding (i, j) in row 2 kd + i - j under kd rows of room for the
    LU's fill-in."""
    # imported here, so that importing the package does not load csgraph
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = indptr.size - 1
    perm = reverse_cuthill_mckee(_square_csc(np.ones(indices.size), indices, indptr), symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[perm] = np.arange(n)
    i = rank[indices]
    j = rank[np.repeat(np.arange(n), np.diff(indptr))]
    upper = np.flatnonzero(i <= j)
    i, j = i[upper], j[upper]
    kd = int(np.max(j - i))
    general = np.stack([2 * kd + i - j + (3 * kd + 1) * j, 2 * kd + j - i + (3 * kd + 1) * i])
    return upper, kd + i - j + (kd + 1) * j, kd, perm, general


def _permuted(ordered, perm):
    """Solve in natural order from the solve `ordered` in the order perm."""
    def solve(rhs):
        x = ordered(rhs[perm])
        out = np.empty_like(x)
        out[perm] = x
        return out

    return solve


def _band_lu(layout, data):
    """Solve of the partial-pivot LU (`gbtrf`) of the symmetric matrix with
    CSC `data`, gathered over both triangles into the general band storage
    of `layout` (_band_layout)."""
    upper, _, kd, perm, general = layout
    n = perm.size
    ab = np.zeros((3 * kd + 1) * n)
    ab[general] = data[upper]
    factor, piv, info = _gbtrf(ab.reshape(3 * kd + 1, n, order="F"), kd, kd, overwrite_ab=True)
    if info > 0:
        raise RuntimeError("Factor is exactly singular")
    return _permuted(lambda rhs: _gbtrs(factor, kd, kd, rhs, piv)[0], perm)


def _band_solve(layout, data):
    """Solve of the banded Cholesky factor (`pbtrf`) of the symmetric matrix
    with CSC `data`, gathered into the upper band storage of `layout`
    (_band_layout), or of its _band_lu where Cholesky breaks down."""
    upper, position, kd, perm, _ = layout
    n = perm.size
    ab = np.zeros((kd + 1) * n)
    ab[position] = data[upper]
    factor, info = _pbtrf(ab.reshape(kd + 1, n, order="F"), overwrite_ab=True)
    if info != 0:
        return _band_lu(layout, data)
    return _permuted(lambda rhs: _pbtrs(factor, rhs)[0], perm)


def _bordered_solve(layout, jac, b, c):
    """Solve of the bordered matrix [J, c; b^T, 0], J the CSC matrix `jac`,
    by block elimination on the banded LU of J (_band_lu): x = y - s z with
    y = J^-1 f, z = J^-1 c and s from b^T x = g, then one step of refinement
    on the bordered residual, which makes the elimination backward stable
    although J is singular up to rounding at a converged iterate (Govaerts,
    SIAM J. Matrix Anal. Appl. 12, 1991). b^T J^-1 c = 0 is a singular
    bordered matrix."""
    n = b.size
    jac_solve = _band_lu(layout, jac.data)
    z = jac_solve(c)
    bz = float(b @ z)
    if bz == 0.0:
        raise RuntimeError("Factor is exactly singular")

    def eliminate(f, g):
        y = jac_solve(f)
        s = (b @ y - g) / bz
        return y - np.multiply.outer(z, s), s

    def solve(rhs):
        f, g = rhs[:n], rhs[n]
        x, s = eliminate(f, g)
        dx, ds = eliminate(f - jac @ x - np.multiply.outer(c, s), g - b @ x)
        out = np.empty_like(rhs, dtype=float)
        out[:n], out[n] = x + dx, s + ds
        return out

    return solve


def _lu_solve(ctx, data, border=None):
    """Solve of the factor of the matrix with CSC `data` on the interior
    pattern of the _Context ctx, or, for border = (b, c), of the bordered
    matrix [A, c; b^T, 0]. At most _DENSE_MAX interior unknowns,
    _dense_solve; above it, _band_solve of the matrix itself and
    _bordered_solve of a bordered one. The layout comes from the interior
    pattern alone: the row and column of each entry, or the band layout.
    The mesh keeps it in its one-entry list `ctx.layout` (`mesh.cache`
    under "factor layout") once a factorisation with it has succeeded. The
    solve of the p = 2 stiffness is kept per measure by _stiffness_factor;
    every other solve returned here serves one right side. A singular
    matrix raises RuntimeError and keeps nothing.
    """
    _, indices, indptr = ctx.pattern
    n = indptr.size - 1
    layout = ctx.layout[0] if ctx.layout else None
    if n <= _DENSE_MAX:
        layout = layout or (indices, np.repeat(np.arange(n), np.diff(indptr)), n)
        solve = _dense_solve(layout, data, border)
    else:
        layout = layout or _band_layout(indices, indptr)
        if border is None:
            solve = _band_solve(layout, data)
        else:
            solve = _bordered_solve(layout, _square_csc(data, indices, indptr), *border)
    ctx.layout[:] = [layout]
    return solve


@per_mesh
def _stiffness_factor(mesh, measure):
    """(K, M, solve) on the interior dofs: the stiffness and mass matrices of
    `measure`, read-only, and the solve of K's factor (_lu_solve). Built by
    the first p = 2 solve on the mesh and measure and kept; a
    factorisation that fails keeps nothing."""
    K = _assemble_csc(mesh, _stiffness_local(mesh, mesh.element_density_integrals(measure)))
    M = _assemble_csc(mesh, _mass_local(mesh, mesh.measure_weights(measure)))
    return K, M, _lu_solve(_context(mesh, measure), K.data)


def _lanczos(mesh, measure, start, against, opts):
    """Shift-invert Lanczos for the least eigenpair of K x = lambda M x on
    the interior dofs (K the stiffness, M the mass matrix of `measure`), in
    the M-complement of the interior vector `against` if it is not None.

    Lanczos on K^-1 M, self-adjoint in the M inner product, from the
    interior vector `start`, with full reorthogonalisation (classical
    Gram-Schmidt, twice) against the basis and `against`; every step is one
    solve with the one factor of K, made by the first run on the mesh and
    measure kind and read by every later one (_stiffness_factor). `against`
    and the basis vectors are the first rows of one array, their M-images
    those of another; both start with _LANCZOS_ROWS rows and double when full, and
    the Gram-Schmidt passes and the Ritz vector work on the filled rows in
    place. The Ritz pairs of the tridiagonal T_j (diagonal alpha, off it
    beta) come from LAPACK `stev`. The Krylov estimate of step
    j is beta_j |s_j| / theta, theta the largest Ritz value of
    T_j and s its eigenvector: the relative M-norm residual of
    the shift-inverted pair. Once it is at or below 1e-2 `opts.tol`, each
    step checks the true relative residual |K x - R M x| / |K x| of the
    Ritz vector x (R its Rayleigh quotient, the `against` part of the
    residual removed) and stops when that is at most `opts.tol`. It also
    stops when the estimate is at rounding level (_LANCZOS_ROUNDING),
    where no step can lower the true residual, when the Krylov space is
    invariant, and after `opts.max_outer` steps. Returns (x, the Ritz
    values 1 / theta of every step, which do not increase, so that their
    number is that of the solves, the true relative residual of x).
    """
    K, M, solve = _stiffness_factor(mesh, measure)
    # M-orthonormal rows, `against` first if given, then the basis, and
    # their M-images: the first `filled` rows of two arrays whose capacity
    # doubles when full
    rows = np.empty((_LANCZOS_ROWS, start.size))
    m_rows = np.empty_like(rows)
    filled = 0

    def keep(v, mv, scale):
        nonlocal rows, m_rows, filled
        if filled == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
            m_rows = np.concatenate([m_rows, np.empty_like(m_rows)])
        np.divide(v, scale, out=rows[filled])
        np.divide(mv, scale, out=m_rows[filled])
        filled += 1

    if against is not None:
        m_against = M @ against
        keep(against, m_against, np.sqrt(float(against @ m_against)))
    locked = filled
    dim = start.size - locked

    def orthogonalise(w):
        # classical Gram-Schmidt against every kept row, twice; returns the
        # coefficients of the two passes summed, the M-norm and M w
        h = np.zeros(filled)
        if filled:
            kept, m_kept = rows[:filled], m_rows[:filled]
            for _ in range(2):
                c = m_kept @ w
                w = w - c @ kept
                h += c
        mw = M @ w
        return w, h, np.sqrt(float(w @ mw)), mw

    q, _, norm, mq = orthogonalise(start)
    keep(q, mq, norm)

    def residual(s):
        x = s @ rows[locked:locked + s.size]
        kx, mx = K @ x, M @ x
        r = kx - (float(x @ kx) / float(x @ mx)) * mx
        if locked:
            r -= m_rows[0] * float(rows[0] @ r)
        return x, _norm(r) / _norm(kx)

    # the tridiagonal T_j: its diagonal alpha[:j], off it beta[:j - 1]
    alpha, beta = np.empty((2, min(opts.max_outer, dim)))
    ritz = []
    s = np.ones(1)
    for j in range(1, opts.max_outer + 1):
        w, h, b, mw = orthogonalise(solve(m_rows[filled - 1]))
        alpha[j - 1], beta[j - 1] = h[-1], b
        # LAPACK takes an off-diagonal of length max(j - 1, 1); at j = 1 its
        # one entry is not read
        theta, vectors, info = _stev(alpha[:j], beta[:max(j - 1, 1)])
        if info:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        s = vectors[:, -1]
        ritz.append(1.0 / theta[-1])
        estimate = b * abs(s[-1]) / theta[-1]
        final = estimate <= _LANCZOS_ROUNDING or j == dim
        if final or estimate <= 1e-2 * opts.tol:
            x, rel = residual(s)
            if final or rel <= opts.tol:
                return x, ritz, rel
        keep(w, mw, b)
    x, rel = residual(s)
    return x, ritz, rel


def first_eigenpair(p, mesh, measure, opts=None):
    """Ground state of the Dirichlet (Gaussian) p-Laplacian on the mesh.

    At p = 2 it is the Ritz vector of _lanczos from the start vector:
    `iterations` counts its solves and the history holds its Ritz values.
    At every other p each outer step takes a lagged-diffusivity direction
    while those steps lower the Rayleigh quotient by more than _NEWTON_DROP
    relative, and the Newton direction of the bordered Euler-Lagrange
    system after that. The step length halves from 1 until the quotient
    drops (a Newton step also passes when it rises by at most _NEWTON_RISE
    relative while the residual falls). A trial point costs one Rayleigh
    quotient; the rest of the system is formed only where the quotient
    lets the step pass. A direction that finds no step
    hands over to the other one; two such failures in a row end the solve.
    It stops once the relative residual is at most max(`opts.tol`, its
    rounding floor). At every p `converged` says that the relative residual
    of the returned pair is at most that, and lambda is its Rayleigh
    quotient.
    Returns an EigenPair with a non-increasing (to _NEWTON_RISE, or to
    rounding at p = 2) Rayleigh history; non-convergence is reported
    through EigenPair.converged and a warning, not raised.
    """
    _check_p(p)
    opts = opts or SolverOptions()
    pair = _ground_state(p, mesh, measure, opts)
    if not pair.converged:
        steps = "shift-invert solves" if p == 2.0 else "outer steps"
        warnings.warn(
            f"first_eigenpair stopped after {pair.iterations} {steps} at relative residual "
            f"{pair.residual:.3e} > max(tol {opts.tol:g}, rounding floor {pair.residual_floor:.3e})"
        )
    return pair


def _ground_state(p, mesh, measure, opts):
    """first_eigenpair for a checked p and given options, without its warning."""
    if not np.any(mesh.interior):
        raise ValueError("mesh has no interior nodes")
    ctx = _context(mesh, measure)
    start = _start_vector(mesh)
    if p == 2.0:
        x, history, _ = _lanczos(mesh, measure, start[ctx.interior], None, opts)
        it = len(history)
        u = np.zeros(mesh.n_nodes)
        u[ctx.interior] = x
        u = _normalize(ctx, u, p)
        lam, b, r, res, terms = _euler_lagrange(p, ctx, u)
    else:
        u, lam, b, r, res, terms, history, it = _outer_loop(p, ctx, start, opts)

    if np.sum(u) < 0.0:
        u = -u
    # the floor is even in u, so the terms of the unflipped u serve
    floor = _residual_floor(p, ctx, terms, r + lam * b)
    return EigenPair(
        lam=lam,
        field=Field(mesh, u),
        residual_history=history,
        iterations=it,
        converged=res <= max(opts.tol, floor),
        estimator="ground",
        residual=res,
        residual_floor=floor,
    )


def _outer_loop(p, ctx, start, opts):
    """The outer steps of _ground_state at p != 2 on the _Context ctx, from
    the unnormalised start vector `start`: (u, R, b, r, relative residual,
    terms of u, Rayleigh history, steps)."""
    interior = ctx.interior
    u = _normalize(ctx, start, p)
    lam, b, r, res, terms = _euler_lagrange(p, ctx, u)
    history = [lam]
    newton = False
    lagged = failures = it = 0
    while res > opts.tol and it < opts.max_outer and failures < 2:
        # the floor costs about one residual; lagged steps stay far above it.
        # In Newton mode the terms of u are at hand: u was just accepted, or
        # a lagged direction from it failed
        if newton:
            floor = _residual_floor(p, ctx, terms, r + lam * b)
            if res <= floor:
                break
        it += 1
        d = np.zeros(ctx.n_nodes)
        if newton:
            # J comes from the terms of the evaluation that accepted u
            jac = _scatter(ctx.pattern, _jacobian(p, ctx, lam, terms))
            # u is normalised, so the normalisation row has zero right side
            rhs = np.zeros(r.size + 1)
            np.negative(r, out=rhs[:-1])
            try:
                d[interior] = _lu_solve(ctx, jac, (b, -b))(rhs)[:-1]
            except RuntimeError:
                # exactly singular, as where an interior node of a cut
                # sub-mesh touches no other interior node and u and grad u
                # vanish around it: a failed direction, like a failed halving
                d = None
        else:
            # lagged diffusivity (|grad u|^2 + eps^2)^((p-2)/2) on the fixed
            # schedule eps = max(1e-8, 1e-2 2^-k) of lagged step k, with
            # |grad u|^2 from the terms of u
            eps = max(1e-8, 1e-2 * 0.5**lagged)
            weights = _guarded_power(terms[1] + eps * eps, 0.5 * (p - 2.0))
            try:
                d[interior] = _lu_solve(ctx, _scatter(ctx.pattern, _stiffness_local(ctx, ctx.de * weights)))(b)
            except RuntimeError:
                # exactly singular, as where the lagged weights underflow to
                # 0 around an interior node at large p: a failed direction
                d = None
            else:
                d = _normalize(ctx, d, p) - u
            lagged += 1
        t = 1.0
        for _ in range(0 if d is None else _MAX_HALVINGS):
            v = _normalize(ctx, u + t * d, p)
            # a trial costs one quotient; the rest of the system is formed
            # only where the step can pass
            lam_v, pieces = _quotient(p, ctx, v)
            if lam_v < lam or (newton and lam_v <= lam * (1.0 + _NEWTON_RISE)):
                b_v, r_v, res_v, terms_v = _system(p, ctx, lam_v, pieces)
                if lam_v < lam or res_v < res:
                    failures = 0
                    newton = newton or lam - lam_v <= _NEWTON_DROP * lam
                    u, lam, b, r, res, terms = v, lam_v, b_v, r_v, res_v, terms_v
                    break
            t *= 0.5
        else:
            failures += 1
            newton = not newton
        history.append(lam)

    return u, lam, b, r, res, terms, history, it


def _deflated_second(p, mesh, measure, u1, opts):
    """The second pair at p = 2: _lanczos against the ground state u1, from
    the uniform start vector of `opts.seed`. `converged` means the relative
    residual |K v - theta M v| / |K v| (u1 part removed, theta the Rayleigh
    quotient) is at most `opts.tol`; `iterations` counts the solves and
    `residual_history` holds the Ritz values.
    """
    ctx = _context(mesh, measure)
    u1i = u1.values[ctx.interior]
    n = u1i.size
    if n < 2:
        raise ValueError("mesh has too few interior nodes for a second eigenvalue")
    start = np.random.default_rng(opts.seed).uniform(-1.0, 1.0, n)
    v, ritz, rel = _lanczos(mesh, measure, start, u1i, opts)
    solves = len(ritz)
    converged = rel <= opts.tol
    if not converged:
        warnings.warn(
            f"second_eigenvalue stopped after {solves} shift-invert solves at "
            f"relative residual {rel:.3e} > tol {opts.tol:g}"
        )
    values = np.zeros(mesh.n_nodes)
    values[ctx.interior] = v
    values = _normalize(ctx, values, p)
    return EigenPair(
        lam=_quotient(p, ctx, values)[0],
        field=Field(mesh, values),
        residual_history=ritz,
        iterations=solves,
        converged=converged,
        estimator="deflation",
        residual=rel,
    )


def _side_components(mesh, side):
    """Element masks, in the order of their least node, of the connected
    components (joined where they share an element) of the interior nodes of
    the side with element mask `side`: the mesh's interior nodes whose
    elements all lie in it. A component's elements are those that touch it.
    Zero-trace P1 fields vanish on the other elements and the components
    decouple, so the side's discrete lambda1 is the least component lambda1;
    solved whole, a side with two components or with elements that touch no
    interior node can leave the ground state unconverged.
    """
    n = mesh.n_nodes
    inner = mesh.interior.copy()
    inner[mesh.elements[~side]] = False
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
    return [element_label == c for c in np.unique(label[inner])]


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
    hyperplane cuts, lambda+- the two sides' lambda1: the least over the
    connected components of a side's interior nodes (_side_components), inf
    on a side without interior nodes.

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
    of a monotone predicate finds the same j. A component shared by sides
    is solved once, on its sub-mesh: the one the last sweep on this mesh
    kept for it, or else one cut from the mesh by `submesh`. The sweep
    leaves its own sub-meshes in `mesh.cache` under "side meshes" (the
    component's element-mask bytes -> (sub-mesh, node map)) for the next
    sweep there, so that the mesh holds one sweep's sub-meshes at most;
    every solve runs afresh, and a sweep's numbers are those of a sweep on
    a fresh mesh. Each max(lambda+, lambda-) is the quotient of an
    admissible glued field, so the result bounds the discrete lambda2 even
    where unconverged sub-solves break the ordering. `iterations` counts the
    distinct cuts evaluated; `converged` holds when both sub-solves of the
    returned cut converged. One warning per sweep counts the distinct
    sub-solves that did not converge, if any. A mesh on which no cut leaves
    interior nodes on both sides raises ValueError.
    """
    if mesh.dim == 1:
        directions = np.array([[1.0]])
    else:
        th = np.linspace(0.0, np.pi, _CUT_DIRECTIONS, endpoint=False)
        directions = np.stack([np.cos(th), np.sin(th)], axis=1)

    centroids = np.mean(mesh.nodes[mesh.elements], axis=1)
    # the last sweep's sub-meshes; this sweep's replace them on the mesh
    previous = mesh.cache.get("side meshes", {})
    kept = mesh.cache["side meshes"] = {}
    # component element mask -> (ground state, node map): the one memo of
    # solves, as sides that differ by elements touching no interior node
    # share components
    solved = {}
    sides = {}  # side element mask -> (lambda1, least component's pair or None, node map)
    cuts = set()

    def lam(mask):
        key = mask.tobytes()
        if key not in sides:
            sides[key] = (np.inf, None, None)
            for part in _side_components(mesh, mask):
                part_key = part.tobytes()
                if part_key not in solved:
                    sub, node_map = kept[part_key] = (
                        previous.pop(part_key, None) or submesh(mesh, np.nonzero(part)[0]))
                    solved[part_key] = (_ground_state(p, sub, measure, opts), node_map)
                pair, node_map = solved[part_key]
                if pair.lam < sides[key][0]:
                    sides[key] = (pair.lam, pair, node_map)
        return sides[key][0]

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
    unconverged = sum(not pair.converged for pair, _ in solved.values())
    if unconverged:
        warnings.warn(
            f"cut sweep: {unconverged} side sub-solves did not converge; lambda2 is still an "
            "upper bound, but a better cut may have been missed"
        )
    glued = np.zeros(mesh.n_nodes)
    halves = [sides[mask.tobytes()] for mask in (best_side, ~best_side)]
    for sign, (_, pair, node_map) in zip((1.0, -1.0), halves):
        glued[node_map] += sign * pair.field.values
    glued = _normalize(_context(mesh, measure), glued, p)
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

    p = 2 uses shift-invert Lanczos (_lanczos) in the M-complement of the
    converged ground state `u1pair` and converges to the discrete lambda_2;
    `iterations` counts its solves.  Every other p
    uses the hyperplane-cut sweep, which returns an upper bound on the
    discrete lambda_2 of the fixed quadrature (is_upper_bound is set;
    `u1pair` is not used and may be None). It does not bound the continuum
    lambda_2 while the quadrature of int |u|^p is inexact (7e-6 to 1.5e-3
    relative on sign-changing fields). Its glued sign-changing field is an
    admissible candidate, not an eigenfunction.
    """
    _check_p(p)
    if u1pair is None and p == 2.0 or u1pair is not None and not u1pair.converged:
        raise ValueError("second_eigenvalue needs a converged first eigenpair")
    opts = opts or SolverOptions()
    if p == 2.0:
        return _deflated_second(p, mesh, measure, u1pair.field, opts)
    return _cut_sweep_second(p, mesh, measure, opts)
