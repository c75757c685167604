"""Independent oracles used to freeze expected values before trusting the
library code paths.  Nothing in here imports from plapstab."""

import warnings

import mpmath as mp
import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

mp.mp.dps = 30


def pi_p_quad_oracle(p):
    """Defining integral 2 * int_0^inf (1 + s^p/(p-1))^-1 ds by tanh-sinh.

    Split at s = 1; the tail is mapped to (0, 1] by u = 1/s and then
    u = v^k to absorb the u^(p-2) endpoint power, which is too strong for
    tanh-sinh near p = 1 otherwise.
    """
    p = mp.mpf(p)
    k = int(mp.ceil(2 / (p - 1)))
    head = mp.quad(lambda s: 1 / (1 + s**p / (p - 1)), [0, 1])
    tail = mp.quad(
        lambda v: (p - 1) * k * v ** (k * (p - 1) - 1) / ((p - 1) * v ** (k * p) + 1),
        [0, 1],
    )
    return float(2 * (head + tail))


def shooting_lambda1(p):
    """First Dirichlet eigenvalue of the 1D p-Laplacian on (0, 1) by shooting.

    Integrate u' = |v|^(1/(p-1)) sign v, v' = -|u|^(p-2) u from (0, 1) with
    unit eigenvalue; p-homogeneity makes the amplitude irrelevant and the
    first zero x0 rescales to lambda_1(0, 1) = x0^p.
    """
    q = 1.0 / (p - 1.0)

    def rhs(x, y):
        u, v = y
        du = np.sign(v) * abs(v) ** q
        dv = -abs(u) ** (p - 2.0) * u if u != 0.0 else 0.0
        return [du, dv]

    def hit_zero(x, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(
        rhs, [0.0, 50.0], [0.0, 1.0], rtol=1e-11, atol=1e-12,
        events=hit_zero, max_step=0.01,
    )
    if sol.t_events[0].size == 0:
        raise RuntimeError("shooting never returned to zero")
    x0 = float(sol.t_events[0][0])
    return x0**p


def lambda1_interval_quadrature(p):
    """Same eigenvalue via the ODE first integral: the quarter period is
    (lambda/(p-1))^(-1/p) * int_0^1 (1-u^p)^(-1/p) du, so on (0, 1)
    lambda_1 = (p-1) * (2 * int_0^1 (1-u^p)^(-1/p) du)^p."""
    p = mp.mpf(p)
    half = mp.quad(lambda u: (1 - u**p) ** (-1 / p), [0, 1])
    return float((p - 1) * (2 * half) ** p)


def centering_scan(p, f_vals, w_vals, quad_w, n_grid=20001):
    """Brute-force sign-change scan for the root of
    g(t) = sum w |f - t|^(p-2) (f - t); returns the bracketing midpoint."""
    ts = np.linspace(f_vals.min(), f_vals.max(), n_grid)

    def g(t):
        d = f_vals - t
        return float(np.sum(quad_w * w_vals * np.abs(d) ** (p - 2.0) * np.sign(d)))

    vals = np.array([g(t) for t in ts])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if sign_change.size == 0:
        raise RuntimeError("no sign change found")
    i = sign_change[0]
    return 0.5 * (ts[i] + ts[i + 1])


def picone_sides_highprec(p, u, du, phi, dphi):
    """Both sides of the pointwise Picone identity at one sample, in 30-digit
    arithmetic: C_p from the functional with xi = du, eta = du - (dphi/phi) u,
    and R_p with the gradient of |u|^p / (|phi|^(p-2) phi) taken by mpmath
    differentiation of the 1D profile t -> (u + t du, phi + t dphi)."""
    p = mp.mpf(p)
    u, phi = mp.mpf(u), mp.mpf(phi)
    du = [mp.mpf(x) for x in du]
    dphi = [mp.mpf(x) for x in dphi]

    def norm(vec):
        return mp.sqrt(mp.fsum(x * x for x in vec))

    a = [u / phi * x for x in dphi]
    eta = [x - y for x, y in zip(du, a)]
    diff = a  # xi - eta
    nxi, nd = norm(du), norm(diff)
    pairing = mp.fsum(x * y for x, y in zip(diff, eta))
    cross = 0 if nd == 0 else p * nd ** (p - 2) * pairing
    c_side = nxi**p - nd**p - cross

    # directional derivative of w = |u|^p / (|phi|^(p-2) phi) along each axis,
    # computed by mpmath.diff on the scalar profile
    def w_along(axis):
        def profile(t):
            ut = u + t * du[axis]
            pt = phi + t * dphi[axis]
            return mp.fabs(ut) ** p / (mp.fabs(pt) ** (p - 2) * pt)

        return mp.diff(profile, 0)

    grad_w = [w_along(i) for i in range(len(du))]
    nphi = norm(dphi)
    r_side = nxi**p - nphi ** (p - 2) * mp.fsum(g * y for g, y in zip(grad_w, dphi))
    return float(c_side), float(r_side)


def golden_lp_min(p, W, u, v, steps=60):
    """min_c sum W |u - c v|^p by golden-section search on [-B, B],
    B = 2 ||u||_p / ||v||_p + 1: the distance minimiser plapstab used before
    its Newton-bisection kernel, and the only path it had for p < 2."""

    def F(c):
        return float(np.sum(W * np.abs(u - c * v) ** p))

    nu = float(np.sum(W * np.abs(u) ** p)) ** (1.0 / p)
    nv = float(np.sum(W * np.abs(v) ** p)) ** (1.0 / p)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = -(2.0 * nu / nv + 1.0), 2.0 * nu / nv + 1.0
    c1, c2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = F(c1), F(c2)
    for _ in range(steps):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - golden * (b - a)
            f1 = F(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + golden * (b - a)
            f2 = F(c2)
    return min(f1, f2)


def sequential_zero_trace_fields(mesh, rng, n_fields, passes=2):
    """n_fields smoothed zero-trace noise fields drawn one at a time, one
    uniform draw and one sparse mat-vec per pass each."""
    adj = mesh.node_adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    out = []
    for _ in range(n_fields):
        values = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        values[mesh.boundary_mask] = 0.0
        for _ in range(passes):
            values = (values + adj @ values) / (1.0 + deg)
            values[mesh.boundary_mask] = 0.0
        out.append(values)
    return np.array(out)


def euler_lagrange_residual(p, mesh, measure, values):
    """(|A_p(u) - R(u) B_p(u)|, |F|) / |A_p(u)| on the interior nodes by one
    loop over the elements, with A_p(u)_i = int |grad u|^(p-2) grad u . grad
    phi_i dmu, B_p(u)_i = int |u|^(p-2) u phi_i dmu, R(u) = int |grad u|^p dmu
    / int |u|^p dmu, and F_i the first-order bound on how far A_p(u)_i moves
    when each nodal value moves by 2^-53 of itself: |grad u|^(p-2) times the
    largest |M grad phi_i . dg|, M = I + (p-2) n n^T, over |dg| <= 2^-53
    sum_j |grad phi_j| |u_j|, integrated; from the mesh's quadrature arrays
    alone."""
    w = mesh.measure_weights(measure)
    a = np.zeros(mesh.n_nodes)
    b = np.zeros(mesh.n_nodes)
    f = np.zeros(mesh.n_nodes)
    energy = mass = 0.0
    for e, nodes in enumerate(mesh.elements):
        G = mesh.grads[e]
        g = G.T @ values[nodes]
        gn = float(np.linalg.norm(g))
        de = float(np.sum(w[e]))
        weight = de * gn ** (p - 2.0) if gn > 0.0 else (de if p == 2.0 else 0.0)
        a[nodes] += weight * (G @ g)
        energy += de * gn**p
        uq = mesh.basis @ values[nodes]
        b[nodes] += mesh.basis.T @ (w[e] * np.abs(uq) ** (p - 1.0) * np.sign(uq))
        mass += float(w[e] @ np.abs(uq) ** p)
        n = g / gn if gn > 0.0 else np.zeros_like(g)
        M = np.eye(g.size) + (p - 2.0) * np.outer(n, n)
        dg = 2.0**-53 * sum(np.linalg.norm(G[j]) * abs(values[nodes[j]]) for j in range(len(nodes)))
        f[nodes] += weight * dg * np.linalg.norm(G @ M, axis=1)
    i = ~mesh.boundary_mask
    r = a[i] - energy / mass * b[i]
    norm_a = np.linalg.norm(a[i])
    return float(np.linalg.norm(r) / norm_a), float(np.linalg.norm(f[i]) / norm_a)


def distance_to_boundary_loop(mesh):
    """Nodal distance to the nearest boundary-edge line of a triangle mesh,
    zero on boundary nodes: one pass over every element edge, then one
    array update per boundary edge."""
    nodes = mesh.nodes
    bset = set(np.nonzero(mesh.boundary_mask)[0].tolist())
    edges = {}
    for tri in mesh.elements:
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + 1
    d = np.full(mesh.n_nodes, np.inf)
    for (a, b), count in edges.items():
        if count != 1 or a not in bset or b not in bset:
            continue
        pa, pb = nodes[a], nodes[b]
        e = pb - pa
        dn = nodes - pa
        cross = np.abs(e[0] * dn[:, 1] - e[1] * dn[:, 0]) / np.hypot(*e)
        d = np.minimum(d, cross)
    d[mesh.boundary_mask] = 0.0
    return d


def coo_assemble(mesh, local):
    """The (n, n) matrix summed from the (m, k, k) element matrices `local`
    through scipy's coordinate (COO) format, which adds up the duplicate
    entries itself; CSR."""
    k = mesh.elements.shape[1]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def coo_node_adjacency(mesh):
    """Node-to-node adjacency through shared element edges, CSR: both
    orientations of every edge of every element as COO triplets, duplicates
    summed, then every stored entry set to 1."""
    k = mesh.elements.shape[1]
    ij = np.concatenate([mesh.elements[:, [i, j]] for i in range(k) for j in range(i + 1, k)])
    rows = np.concatenate([ij[:, 0], ij[:, 1]])
    cols = np.concatenate([ij[:, 1], ij[:, 0]])
    n = mesh.n_nodes
    adj = sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    return adj


def cp_scalar(p, xi, eta):
    """(C_p(xi, eta), clamped) for two complex vectors from their norms:
    the single-vector formula plapstab used before its C_p functions shared
    one row kernel."""
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    diff = xi - eta
    nxi = np.linalg.norm(xi)
    nd = np.linalg.norm(diff)
    pairing = float(np.real(np.sum(diff * np.conj(eta))))
    cross = 0.0 if nd == 0.0 else p * nd ** (p - 2.0) * pairing
    val = nxi**p - nd**p - cross
    scale = max(nxi**p, nd**p, float(np.linalg.norm(eta)) ** p, 1e-300)
    if -1e-12 * scale < val < 0.0:
        return 0.0, True
    return float(val), False


def c1_root_newton(p):
    """Root r0 > 1 of r^(p-1) - (p-1) r - (p-2) by safeguarded Newton with a
    residual stop: the c1 root plapstab used before scipy's brentq."""

    def f(r):
        return r ** (p - 1.0) - (p - 1.0) * r - (p - 2.0)

    def df(r):
        return (p - 1.0) * (r ** (p - 2.0) - 1.0)

    lo, hi = 1.0, 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
    r = min(max(p, 1.0 + 1e-3), hi)
    for _ in range(200):
        fr = f(r)
        if fr > 0.0:
            hi = r
        else:
            lo = r
        d = df(r)
        r_new = r - fr / d if d > 0.0 else 0.5 * (lo + hi)
        if not lo < r_new < hi:
            r_new = 0.5 * (lo + hi)
        if abs(f(r_new)) <= 1e-12 * max(1.0, df(r_new)):
            return r_new
        r = r_new
    return r


def c1_root_mp(p, dps=40):
    """Root r0 > 1 of r^(p-1) - (p-1) r - (p-2) by mpmath.findroot at `dps`
    digits, started from a bracket of the sign change narrowed by bisection."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        f = lambda r: r ** (p - 1) - (p - 1) * r - (p - 2)
        lo, hi = mp.mpf(1), mp.mpf(2)
        while f(hi) <= 0:
            hi *= 2
        for _ in range(40):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        return +mp.findroot(f, (lo, hi))


def exhaustive_cut_value(centroids, n_directions, side_lambda):
    """Least max(lambda+, lambda-) over every distinct hyperplane cut of the
    element centroids, with no ordering assumed: along each of n_directions
    directions in [0, pi) (the one direction on a line), every split of the
    elements at a distinct projection level t into those with projection >= t
    and the rest, except the split that leaves one side empty. side_lambda
    maps an array of element indices to the ground-state value of that side
    (inf for a side without interior nodes)."""
    if centroids.shape[1] == 1:
        directions = np.ones((1, 1))
    else:
        th = np.linspace(0.0, np.pi, n_directions, endpoint=False)
        directions = np.stack([np.cos(th), np.sin(th)], axis=1)
    best = np.inf
    for theta in directions:
        proj = centroids @ theta
        for t in np.unique(proj)[1:]:
            plus = np.nonzero(proj >= t)[0]
            minus = np.nonzero(proj < t)[0]
            best = min(best, max(side_lambda(plus), side_lambda(minus)))
    return best


def bisection_cut_sweep(centroids, n_directions, n_nodes, side_solve):
    """The hyperplane-cut sweep with a cold bisection for each direction's
    crossing, as spectral._cut_sweep_second searched before it seeded each
    search from the previous direction. side_solve maps an element mask of
    one side to (lambda1, ground-state pair or None, node map), as
    spectral._side_ground_state does. Returns (least max(lambda+, lambda-),
    the glued field u+ - u- of the best cut before normalisation, the number
    of distinct cuts evaluated)."""
    if centroids.shape[1] == 1:
        directions = np.array([[1.0]])
    else:
        th = np.linspace(0.0, np.pi, n_directions, endpoint=False)
        directions = np.stack([np.cos(th), np.sin(th)], axis=1)
    cuts = set()

    def lam(mask):
        return side_solve(mask)[0]

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
    glued = np.zeros(n_nodes)
    for sign, mask in zip((1.0, -1.0), (best_side, ~best_side)):
        _, pair, node_map = side_solve(mask)
        glued[node_map] += sign * pair.field.values
    return best, glued, len(cuts)


def refine_triangles_loop(nodes, elements):
    """One round of 4-way refinement, one triangle at a time: a dict numbers
    each edge midpoint when its edge is first met (ab, bc, ca per triangle)."""
    node_list = [nodes]
    midpoint = {}
    next_id = nodes.shape[0]

    def mid(i, j):
        nonlocal next_id
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            midpoint[key] = next_id
            node_list.append(0.5 * (nodes[i] + nodes[j])[None, :])
            next_id += 1
        return midpoint[key]

    new_elems = np.empty((4 * elements.shape[0], 3), dtype=int)
    for t, (a, b, c) in enumerate(elements):
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_elems[4 * t + 0] = (a, ab, ca)
        new_elems[4 * t + 1] = (ab, b, bc)
        new_elems[4 * t + 2] = (ca, bc, c)
        new_elems[4 * t + 3] = (ab, bc, ca)
    return np.vstack(node_list), new_elems


_BOUNDARY_TOL = 1e-12


def on_polygon_boundary(points, verts):
    """Boolean mask: point lies on some polygon edge to within 1e-12. The
    geometric boundary rule that build_mesh applied before a mesh's boundary
    came from its facets."""
    scale = np.max(np.abs(verts)) + 1.0
    mask = np.zeros(points.shape[0], dtype=bool)
    nv = verts.shape[0]
    for i in range(nv):
        a, b = verts[i], verts[(i + 1) % nv]
        e = b - a
        d = points - a
        cross = np.abs(e[0] * d[:, 1] - e[1] * d[:, 0])
        t = (d @ e) / (e @ e)
        on = (cross <= _BOUNDARY_TOL * scale * np.hypot(*e)) & (t >= -1e-12) & (t <= 1.0 + 1e-12)
        mask |= on
    return mask


def submesh_count_boundary(mesh, element_idx):
    """(boundary mask, node map) of the sub-mesh of the elements
    `element_idx` by the count rule that submesh applied before a mesh's
    boundary came from its facets: nodes touching an element outside the
    subset, or boundary nodes of the parent, are boundary."""
    element_idx = np.asarray(element_idx, dtype=int)
    sub_elems_parent = mesh.elements[element_idx]
    node_map = np.unique(sub_elems_parent)
    parent_counts = np.bincount(mesh.elements.ravel(), minlength=mesh.n_nodes)
    sub_counts = np.bincount(sub_elems_parent.ravel(), minlength=mesh.n_nodes)
    cut = sub_counts[node_map] < parent_counts[node_map]
    boundary = mesh.boundary_mask[node_map] | cut
    return boundary, node_map


def project_boundary_nodes_loop(points, mask, verts):
    """Each flagged node moved onto its nearest polygon edge, one node and
    one edge at a time; the first edge wins a tie (strict <)."""
    pts = points.copy()
    nv = verts.shape[0]
    for i in np.nonzero(mask)[0]:
        best, best_d = None, np.inf
        for k in range(nv):
            a, b = verts[k], verts[(k + 1) % nv]
            e = b - a
            t = np.clip(((pts[i] - a) @ e) / (e @ e), 0.0, 1.0)
            proj = a + t * e
            d = np.hypot(*(pts[i] - proj))
            if d < best_d:
                best, best_d = proj, d
        pts[i] = best
    return pts


def write_mesh_loop(mesh, path):
    """The mesh text format written one line at a time."""
    with open(path, "w") as fh:
        fh.write(f"DIM {mesh.dim} NODES {mesh.n_nodes} ELEMS {mesh.n_elements}\n")
        for row in mesh.nodes:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        for row in mesh.elements:
            fh.write(" ".join(str(int(i)) for i in row) + "\n")
        fh.write(" ".join("1" if b else "0" for b in mesh.boundary_mask) + "\n")


def interior_components_nested(mesh):
    """Element indices of each connected component of the interior nodes
    (joined where they share an element): the elements touching it. The
    search that spectral._side_ground_state ran on a side's own sub-mesh
    before it labelled the side's nodes on the parent mesh."""
    if not np.any(mesh.interior):
        return []
    # least interior index in each component: min-label propagation over
    # the interior pattern, whose columns hold each node and its neighbours,
    # with pointer jumping
    _, indices, indptr = mesh.pattern("interior")
    label = np.arange(indptr.size - 1)
    while True:
        new = np.minimum.reduceat(label[indices], indptr[:-1])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    number = np.cumsum(mesh.interior) - 1
    inner = mesh.interior[mesh.elements]
    element_label = np.max(np.where(inner, label[number[mesh.elements]], -1), axis=1)
    return [np.nonzero(element_label == c)[0] for c in np.unique(label)]


def side_ground_state_nested(p, mesh, measure, elements, opts, submesh, first_eigenpair):
    """(lambda1, ground state, node map into mesh) of the sub-mesh on
    `elements`; (inf, None, None) where it has no interior node. The side
    solve before the sides were cut from the parent mesh: one sub-mesh of
    the whole side, then one nested sub-mesh of it per connected interior
    component that leaves elements out. `submesh` and `first_eigenpair` are
    the library's, passed in.
    """
    sub, node_map = submesh(mesh, elements)
    best = (np.inf, None, None)
    for piece in interior_components_nested(sub):
        part, part_map = sub, node_map
        if piece.size < sub.n_elements:
            part, local_map = submesh(sub, piece)
            part_map = node_map[local_map]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = first_eigenpair(p, part, measure, opts)
        if pair.lam < best[0]:
            best = (pair.lam, pair, part_map)
    return best


def field_eval_per_dimension(field, points):
    """A P1 field at points, with one brute-force locator per dimension:
    1-D by interval bounds to 1e-13, 2-D by barycentric coordinates to
    1e-12 from a hand-inverted edge matrix."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mesh = field.mesh
    if mesh.dim == 1:
        x = pts[:, 0]
        xe = mesh.nodes[mesh.elements][:, :, 0]  # (m, 2)
        out = np.empty(x.shape[0])
        for i, xi in enumerate(x):
            e = np.nonzero((xe[:, 0] <= xi + 1e-13) & (xi - 1e-13 <= xe[:, 1]))[0]
            if e.size == 0:
                raise ValueError(f"point {xi} outside mesh")
            e = e[0]
            lam = (xi - xe[e, 0]) / (xe[e, 1] - xe[e, 0])
            v = field.values[mesh.elements[e]]
            out[i] = (1.0 - lam) * v[0] + lam * v[1]
        return out
    xe = mesh.nodes[mesh.elements]  # (m, 3, 2)
    v0 = xe[:, 0]
    T = np.stack([xe[:, 1] - v0, xe[:, 2] - v0], axis=2)  # (m, 2, 2)
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    inv = np.empty_like(T)
    inv[:, 0, 0] = T[:, 1, 1] / det
    inv[:, 0, 1] = -T[:, 0, 1] / det
    inv[:, 1, 0] = -T[:, 1, 0] / det
    inv[:, 1, 1] = T[:, 0, 0] / det
    out = np.empty(pts.shape[0])
    for i, xi in enumerate(pts):
        d = xi - v0  # (m, 2)
        l1 = inv[:, 0, 0] * d[:, 0] + inv[:, 0, 1] * d[:, 1]
        l2 = inv[:, 1, 0] * d[:, 0] + inv[:, 1, 1] * d[:, 1]
        ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
        e = np.nonzero(ok)[0]
        if e.size == 0:
            raise ValueError(f"point {xi} outside mesh")
        e = e[0]
        v = field.values[mesh.elements[e]]
        out[i] = v[0] * (1.0 - l1[e] - l2[e]) + v[1] * l1[e] + v[2] * l2[e]
    return out
