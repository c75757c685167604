"""Convex domains, P1 simplicial meshes, quadrature rules, and measures.

Domains are intervals or strictly convex polygons.  Meshes are uniform
1D grids or fan triangulations refined 4-way; every integral in the
package goes through the fixed element quadrature rules defined here
(4-point Gauss-Legendre on segments, 6-point degree-4 rule on triangles)
weighted by a Lebesgue or Gaussian density.  Every mesh's boundary is the
nodes on its facets (end nodes in 1D, edges in 2D) of one element only.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "Measure",
    "Mesh",
    "Field",
    "make_domain",
    "interval_domain",
    "polygon_domain",
    "lebesgue",
    "gaussian",
    "build_mesh",
    "submesh",
    "integrate",
    "interpolate",
    "zero_trace",
    "write_mesh",
    "read_mesh",
    "per_mesh",
]

# 4-point Gauss-Legendre on [-1, 1]
_GL4_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL4_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)

# 6-point degree-4 triangle rule (barycentric points, weights sum to 1)
_TRI6_A = 0.445948490915965
_TRI6_B = 0.091576213509771
_TRI6_WA = 0.223381589678011
_TRI6_WB = 0.109951743655322
_TRI6_BARY = np.array(
    [
        [1.0 - 2.0 * _TRI6_A, _TRI6_A, _TRI6_A],
        [_TRI6_A, 1.0 - 2.0 * _TRI6_A, _TRI6_A],
        [_TRI6_A, _TRI6_A, 1.0 - 2.0 * _TRI6_A],
        [1.0 - 2.0 * _TRI6_B, _TRI6_B, _TRI6_B],
        [_TRI6_B, 1.0 - 2.0 * _TRI6_B, _TRI6_B],
        [_TRI6_B, _TRI6_B, 1.0 - 2.0 * _TRI6_B],
    ]
)
_TRI6_WEIGHTS = np.array([_TRI6_WA, _TRI6_WA, _TRI6_WA, _TRI6_WB, _TRI6_WB, _TRI6_WB])


def _reference_basis(basis):
    """(basis, products) of a rule's (q, k) reference basis values, the same
    on every element: products[q, i * k + j] = basis[q, i] basis[q, j], so
    that the element mass matrices are one matmul. Both read-only."""
    products = (basis[:, :, None] * basis[:, None, :]).reshape(basis.shape[0], -1)
    for a in (basis, products):
        a.setflags(write=False)
    return basis, products


_SEGMENT_BASIS = _reference_basis(np.stack([(1.0 - _GL4_NODES) / 2.0, (1.0 + _GL4_NODES) / 2.0], axis=1))
_TRIANGLE_BASIS = _reference_basis(_TRI6_BARY)


@dataclass(frozen=True)
class Domain:
    """A bounded convex domain: an interval or a strictly convex polygon."""

    kind: str  # "interval" | "polygon"
    dim: int
    diameter: float
    interval: tuple = None
    vertices: np.ndarray = None


def interval_domain(a, b):
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise ValueError(f"interval requires a < b, got [{a}, {b}]")
    return Domain(kind="interval", dim=1, diameter=b - a, interval=(a, b))


def polygon_domain(vertices):
    """Validated strictly convex polygon, vertices reordered counterclockwise."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise ValueError("polygon needs at least 3 planar vertices")
    if not np.all(np.isfinite(verts)):
        raise ValueError("polygon vertices must be finite")
    scale = np.max(np.abs(verts)) + 1.0
    diffs = verts - np.roll(verts, 1, axis=0)
    if np.any(np.hypot(diffs[:, 0], diffs[:, 1]) <= 1e-14 * scale):
        raise ValueError("polygon has repeated vertices")
    if _signed_area(verts) < 0.0:
        verts = verts[::-1].copy()
    e = np.roll(verts, -1, axis=0) - verts
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    if np.any(cross <= 1e-12 * scale * scale):
        raise ValueError("polygon is not strictly convex")
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=-1)
    return Domain(
        kind="polygon",
        dim=2,
        diameter=float(np.sqrt(d2.max())),
        vertices=verts,
    )


def make_domain(spec):
    """Build a Domain from {"interval": [a, b]} or {"polygon": [[x, y], ...]}."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"domain spec must be a one-key dict, got {spec!r}")
    if "interval" in spec:
        a, b = spec["interval"]
        return interval_domain(a, b)
    if "polygon" in spec:
        return polygon_domain(spec["polygon"])
    raise ValueError(f"unknown domain spec {spec!r}")


def _signed_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class Measure:
    """Lebesgue or standard Gaussian weight attached to every integral.
    Measures of one kind are equal and hash alike, so a fresh Measure finds
    what a mesh keeps per measure (per_mesh)."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("lebesgue", "gaussian"):
            raise ValueError(f"unknown measure kind {self.kind!r}")

    def density(self, points):
        """Density values at an (N, dim) array of points."""
        points = np.atleast_2d(points)
        if self.kind == "lebesgue":
            return np.ones(points.shape[0])
        n = points.shape[1]
        r2 = np.sum(points * points, axis=1)
        return (2.0 * np.pi) ** (-0.5 * n) * np.exp(-0.5 * r2)


def lebesgue():
    return Measure("lebesgue")


def gaussian():
    return Measure("gaussian")


def per_mesh(build):
    """build(mesh, *args), run once per mesh and args: the first call keeps
    its result in `mesh.cache` under (build, *args) and later calls return
    it. A build that raises keeps nothing. The args must be hashable."""

    @functools.wraps(build)
    def kept(mesh, *args):
        key = (build,) + args
        try:
            return mesh.cache[key]
        except KeyError:
            value = mesh.cache[key] = build(mesh, *args)
            return value

    return kept


class Mesh:
    """P1 simplicial mesh: segments in 1D, positively oriented triangles in 2D.
    Its read-only `boundary_facets` are the facets that only one element
    has (see _boundary_facets); `boundary_mask` flags the nodes on them and
    `interior`, a read-only array built with the mesh, the other nodes.

    All element geometry used by assembly and quadrature is precomputed:
    `grads[e, i]` is the (constant) gradient of nodal basis i on element e,
    `quad_points[e, q]` / `quad_weights[e, q]` give the physical quadrature
    rule (weights already include the element measure), and `basis` holds
    the reference basis values at the quadrature points, (q, k), the same
    on every element, with their pairwise products `basis_products`,
    (q, k * k); both are read-only and shared by the meshes of a dimension.
    `grad_gram[e, i, j]` is grad phi_i . grad phi_j on element e and the
    read-only `grad_lengths[e, i]` is |grad phi_i| there. The quadrature
    points and `grad_gram` are broadcast products summed in order over the
    vertices and the dimensions (bitwise the einsum forms, in about half
    their time).

    The quadrature kernels are linear products with these: values at the
    quadrature points are the element gather of the nodal values times
    `basis.T` (one matmul), gradients one product with the sparse
    `gradient_operator()` (built on first use, then kept), and element mass
    matrices the weights times `basis_products`. Each serves one field or a
    block of rows alike.

    `cache` holds what is built from the mesh on first use and kept for
    its lifetime: the results of per_mesh builders, here and in the modules
    that solve on the mesh, and entries that a module reads and writes
    itself, under a key it names.
    """

    def __init__(self, nodes, elements):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.ndim == 1:
            self.nodes = self.nodes[:, None]
        self.elements = np.asarray(elements, dtype=int)
        self.dim = self.nodes.shape[1]
        if self.elements.shape[1] != self.dim + 1:
            raise ValueError("element arity does not match mesh dimension")
        self.boundary_facets = _boundary_facets(self.elements, self.n_nodes)
        self.boundary_mask = np.bincount(self.boundary_facets.ravel(), minlength=self.n_nodes) > 0
        self.interior = ~self.boundary_mask
        for a in (self.boundary_facets, self.boundary_mask, self.interior):
            a.setflags(write=False)
        self.cache = {}
        self._build_geometry()

    def _build_geometry(self):
        xe = self.nodes[self.elements]  # (m, k, dim)
        m = xe.shape[0]
        if self.dim == 1:
            lengths = xe[:, 1, 0] - xe[:, 0, 0]
            if np.any(lengths <= 0):
                raise ValueError("1D elements must be positively oriented (a < b)")
            self.measures = lengths
            self.grads = np.empty((m, 2, 1))
            self.grads[:, 0, 0] = -1.0 / lengths
            self.grads[:, 1, 0] = 1.0 / lengths
            mid = 0.5 * (xe[:, 0, 0] + xe[:, 1, 0])
            half = 0.5 * lengths
            self.quad_points = (mid[:, None] + half[:, None] * _GL4_NODES)[:, :, None]
            self.quad_weights = half[:, None] * _GL4_WEIGHTS[None, :]
            self.basis, self.basis_products = _SEGMENT_BASIS
        else:
            v0, v1, v2 = xe[:, 0], xe[:, 1], xe[:, 2]
            det = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - (
                v1[:, 1] - v0[:, 1]
            ) * (v2[:, 0] - v0[:, 0])
            if np.any(det <= 0):
                raise ValueError("triangles must be positively oriented")
            area = 0.5 * det
            self.measures = area
            # grad of barycentric i from the opposite edge (j, k)
            b = np.stack([v1[:, 1] - v2[:, 1], v2[:, 1] - v0[:, 1], v0[:, 1] - v1[:, 1]], axis=1)
            c = np.stack([v2[:, 0] - v1[:, 0], v0[:, 0] - v2[:, 0], v1[:, 0] - v0[:, 0]], axis=1)
            self.grads = np.stack([b, c], axis=2) / (2.0 * area[:, None, None])
            # sum_k bary[q, k] x[m, k], summed over k in order
            self.quad_points = _TRI6_BARY[None, :, 0, None] * xe[:, None, 0]
            for k in (1, 2):
                self.quad_points += _TRI6_BARY[None, :, k, None] * xe[:, None, k]
            self.quad_weights = area[:, None] * _TRI6_WEIGHTS[None, :]
            self.basis, self.basis_products = _TRIANGLE_BASIS
        scale = np.max(self.measures)
        if np.any(self.measures <= 1e-14 * scale):
            raise ValueError("mesh contains degenerate elements")
        # grad phi_i . grad phi_j, summed over the dimensions in order
        self.grad_gram = self.grads[:, :, None, 0] * self.grads[:, None, :, 0]
        for d in range(1, self.dim):
            self.grad_gram += self.grads[:, :, None, d] * self.grads[:, None, :, d]
        self.grad_lengths = np.sqrt(np.diagonal(self.grad_gram, axis1=1, axis2=2))
        self.grad_lengths.setflags(write=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def h(self):
        """Longest element edge: the largest distance between two nodes of
        one element."""
        xe = self.nodes[self.elements]
        return float(np.sqrt(np.max(np.sum((xe[:, :, None] - xe[:, None]) ** 2, axis=-1))))

    @per_mesh
    def _measure_arrays(self, measure):
        """(density, weights, element integrals) of the measure, shared
        read-only by every caller."""
        flat = self.quad_points.reshape(-1, self.dim)
        density = measure.density(flat).reshape(self.quad_weights.shape)
        weights = self.quad_weights * density
        arrays = (density, weights, np.sum(weights, axis=1))
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def density_at_quad(self, measure):
        """Measure density at the quadrature points, (m, q), read-only."""
        return self._measure_arrays(measure)[0]

    def measure_weights(self, measure):
        """Quadrature weights times the measure density, (m, q), read-only:
        sum(measure_weights(mu) * f) integrates f given at the quadrature points."""
        return self._measure_arrays(measure)[1]

    def element_density_integrals(self, measure):
        """Per-element integral of the measure density, (m,), read-only."""
        return self._measure_arrays(measure)[2]

    @per_mesh
    def pattern(self, nodes):
        """CSC sparsity of the P1 matrices on `nodes`, built once per mesh.

        `nodes` is "interior" (the interior-interior block, in interior
        numbering: interior nodes in mesh order) or "all" (the full matrix).
        Returns `(slots, indices, indptr)`. `indices` and `indptr` are the
        CSC structure, symmetric, with sorted rows in each column.
        `slots[(e * k + i) * k + j]` is the data index that element-local
        entry (i, j) of element e adds into, or `indices.size` (a discard
        slot) when either node is left out. So
        `np.bincount(slots, local.ravel())[:indices.size]` assembles an
        (m, k, k) array of element matrices.
        """
        if nodes == "interior":
            number = np.cumsum(self.interior) - 1
            number[self.boundary_mask] = -1
        elif nodes == "all":
            number = np.arange(self.n_nodes)
        else:
            raise ValueError(f"unknown node set {nodes!r}")
        k = self.elements.shape[1]
        n = int(np.count_nonzero(number >= 0))
        local = number[self.elements]
        rows = np.repeat(local, k, axis=1).ravel()
        cols = np.tile(local, (1, k)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        keys, inverse = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
        slots = np.full(rows.shape, keys.size)
        slots[keep] = inverse
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        return slots, (keys % n).astype(np.int32), indptr.astype(np.int32)

    def values_at_quad(self, nodal_values):
        """P1 interpolation at all quadrature points: (n,) or (rows, n) values
        to (..., m, q), one matmul of the element gather against the basis."""
        return nodal_values.take(self.elements, axis=-1) @ self.basis.T

    def gradients(self, nodal_values):
        """Per-element constant gradients: (n,) or (rows, n) values to
        (..., m, dim), one product with `gradient_operator()`."""
        # C order, so that a block row reduces exactly as the field alone
        g = np.ascontiguousarray((self.gradient_operator() @ nodal_values.T).T)
        return g.reshape(nodal_values.shape[:-1] + (-1, self.dim))

    @per_mesh
    def gradient_operator(self):
        """Sparse (m * dim, n) CSR operator from nodal values to element
        gradients: row e * dim + d holds grads[e, :, d] in the columns of
        element e's nodes. Built on first use and kept, so that building a
        mesh costs no more."""
        from scipy import sparse

        m, k = self.elements.shape
        indices = np.repeat(self.elements, self.dim, axis=0).ravel().astype(np.int32)
        indptr = np.arange(0, m * self.dim * k + 1, k, dtype=np.int32)
        data = self.grads.transpose(0, 2, 1).ravel()
        return sparse.csr_matrix((data, indices, indptr), shape=(m * self.dim, self.n_nodes), copy=False)

    def node_adjacency(self):
        """Symmetric sparse node-to-node adjacency (shared element edge), CSR:
        the full pattern without its diagonal, every entry 1."""
        from scipy import sparse

        _, indices, indptr = self.pattern("all")
        # the pattern is symmetric, so its CSC arrays are its CSR ones too
        off = indices != np.repeat(np.arange(self.n_nodes), np.diff(indptr))
        ptr = np.append(0, np.cumsum(off))[indptr]
        return sparse.csr_matrix((np.ones(ptr[-1]), indices[off], ptr), shape=(self.n_nodes, self.n_nodes))


@dataclass
class Field:
    """Piecewise-linear function given by one nodal value per mesh node."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("field needs exactly one value per node")

    @property
    def is_zero_trace(self):
        return bool(np.all(self.values[self.mesh.boundary_mask] == 0.0))

    def at_quad(self):
        return self.mesh.values_at_quad(self.values)

    def gradients(self):
        return self.mesh.gradients(self.values)

    def __call__(self, points):
        """Values at an (N, dim) array of points inside the mesh: each point
        in the first element where all its barycentric coordinates, affine
        with the basis gradients `mesh.grads`, are at least -1e-12."""
        mesh = self.mesh
        v0 = mesh.nodes[mesh.elements[:, 0]]
        out = []
        for x in np.asarray(points, dtype=float).reshape(-1, mesh.dim):
            bary = np.einsum("mkd,md->mk", mesh.grads, x - v0)
            bary[:, 0] += 1.0
            inside = np.nonzero(np.all(bary >= -1e-12, axis=1))[0]
            if inside.size == 0:
                raise ValueError(f"point {x} outside mesh")
            out.append(bary[inside[0]] @ self.values[mesh.elements[inside[0]]])
        return np.array(out)


def interpolate(mesh, fn):
    """Nodal interpolant of fn(points) as a Field."""
    vals = np.asarray(fn(mesh.nodes), dtype=float).reshape(mesh.n_nodes)
    return Field(mesh, vals)


def zero_trace(mesh, values):
    """Field with the given values and boundary entries forced to exactly 0."""
    v = np.array(values, dtype=float)
    v[mesh.boundary_mask] = 0.0
    return Field(mesh, v)


def build_mesh(domain, level):
    """Uniform mesh of a Domain: 16 * 2^level segments, or a centroid fan
    with `level` rounds of 4-way refinement."""
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    if domain.kind == "interval":
        a, b = domain.interval
        n = 16 * 2**level
        nodes = np.linspace(a, b, n + 1)
        elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
        return Mesh(nodes, elements)

    verts = domain.vertices
    nv = verts.shape[0]
    centroid = _polygon_centroid(verts)
    nodes = np.vstack([verts, centroid])
    elements = np.array([[i, (i + 1) % nv, nv] for i in range(nv)], dtype=int)
    for _ in range(level):
        nodes, elements = _refine_triangles(nodes, elements)
    nodes = _project_boundary_nodes(nodes, _boundary_facets(elements, len(nodes)), verts)
    return Mesh(nodes, elements)


def _polygon_centroid(verts):
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = _signed_area(verts)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return np.array([cx, cy])


def _facet_keys(elements, n):
    """One key per facet of each element in turn, shared by every element
    that has the facet: a segment's end nodes (key: the node), a triangle's
    edges ab, bc, ca (key of the edge of nodes i < j out of n: i * n + j)."""
    if elements.shape[1] == 2:
        return elements.ravel()
    a, b = elements, elements[:, [1, 2, 0]]
    return (np.minimum(a, b) * n + np.maximum(a, b)).ravel()


def _boundary_facets(elements, n):
    """(k, dim) node tuples, in key order, of the facets of one element only."""
    keys, counts = np.unique(_facet_keys(elements, n), return_counts=True)
    single = keys[counts == 1]
    return single[:, None] if elements.shape[1] == 2 else np.stack(np.divmod(single, n), axis=1)


def _refine_triangles(nodes, elements):
    """One round of uniform 4-way refinement.  Edge midpoints are numbered
    after the old nodes in the order their edges are first met (ab, bc, ca
    of each triangle in turn)."""
    n, m = nodes.shape[0], elements.shape[0]
    keys = _facet_keys(elements, n)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    ab, bc, ca = (n + np.argsort(np.argsort(first))[inverse]).reshape(m, 3).T
    a, b = np.divmod(keys[np.sort(first)], n)
    midpoints = 0.5 * (nodes[a] + nodes[b])
    a, b, c = elements.T
    new_elems = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(4 * m, 3)
    return np.vstack([nodes, midpoints]), new_elems


def _project_boundary_nodes(points, facets, verts):
    """Snap the nodes of the boundary facets exactly onto their nearest
    polygon edge (the first such edge on a tie)."""
    pts = points.copy()
    nv = verts.shape[0]
    idx = np.unique(facets)
    q = pts[idx]
    best, best_d = q.copy(), np.full(idx.size, np.inf)
    for k in range(nv):
        a, b = verts[k], verts[(k + 1) % nv]
        e = b - a
        # one (1, 2) @ (2, 1) product per node: bitwise the 1-D (q_i - a) @ e
        t = np.clip(np.matmul((q - a)[:, None, :], e[:, None])[:, 0, 0] / (e @ e), 0.0, 1.0)
        proj = a + t[:, None] * e
        d = np.hypot(*(q - proj).T)
        closer = d < best_d
        best[closer], best_d[closer] = proj[closer], d[closer]
    pts[idx] = best
    return pts


def submesh(mesh, element_idx):
    """Mesh induced by a subset of elements.

    Its boundary comes from its elements, as for every Mesh: the parent's
    boundary nodes in it and the nodes touching an element outside it.
    Returns (sub, node_map), node_map sending sub-nodes to parent nodes.
    """
    element_idx = np.asarray(element_idx, dtype=int)
    if element_idx.size == 0:
        raise ValueError("submesh needs at least one element")
    sub_elems_parent = mesh.elements[element_idx]
    node_map = np.unique(sub_elems_parent)
    renumber = -np.ones(mesh.n_nodes, dtype=int)
    renumber[node_map] = np.arange(node_map.size)
    sub = Mesh(mesh.nodes[node_map], renumber[sub_elems_parent])
    return sub, node_map


def integrate(mesh, measure, integrand):
    """Quadrature of an integrand against the measure.

    `integrand` is either a callable evaluated at the (N, dim) quadrature
    points or an array of values already shaped like the quadrature grid.
    """
    w = mesh.measure_weights(measure)
    if callable(integrand):
        vals = np.asarray(integrand(mesh.quad_points.reshape(-1, mesh.dim)))
        vals = vals.reshape(w.shape)
    else:
        vals = np.asarray(integrand).reshape(w.shape)
    return float(np.sum(w * vals))


def _table_lines(table, fmt):
    """The rows of a 2-D array as lines of entries formatted by `fmt`,
    space-joined: one `fmt` pass over all entries, then a join by column."""
    cells = list(map(fmt, table.ravel().tolist()))
    width = table.shape[1]
    return map(" ".join, zip(*(cells[j::width] for j in range(width))))


def write_mesh(mesh, path):
    """Text format: header `DIM n NODES k ELEMS m`, coordinates, node-index
    tuples, then one line of 0/1 boundary flags."""
    lines = [f"DIM {mesh.dim} NODES {mesh.n_nodes} ELEMS {mesh.n_elements}"]
    lines += _table_lines(mesh.nodes, float.__repr__)
    lines += _table_lines(mesh.elements, int.__repr__)
    lines.append(" ".join("1" if b else "0" for b in mesh.boundary_mask.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Mesh of a write_mesh file; flags that differ from its boundary raise ValueError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "DIM" or header[2] != "NODES" or header[4] != "ELEMS":
            raise ValueError(f"bad mesh header in {path}")
        dim, k, m = int(header[1]), int(header[3]), int(header[5])
        nodes = np.array([[float(t) for t in fh.readline().split()] for _ in range(k)])
        elements = np.array([[int(t) for t in fh.readline().split()] for _ in range(m)])
        flags = np.array([t == "1" for t in fh.readline().split()])
    if nodes.shape != (k, dim) or elements.shape != (m, dim + 1) or flags.shape != (k,):
        raise ValueError(f"inconsistent mesh data in {path}")
    mesh = Mesh(nodes, elements)
    if not np.array_equal(flags, mesh.boundary_mask):
        raise ValueError(f"boundary flags in {path} differ from the boundary of its elements")
    return mesh
