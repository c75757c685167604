import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import plapstab as ps
from plapstab import geometry, spectral
from plapstab.geometry import Mesh, make_domain, read_mesh, submesh, write_mesh

from conftest import UNIT_SQUARE
from oracles import (
    coo_node_adjacency,
    field_eval_per_dimension,
    on_polygon_boundary,
    project_boundary_nodes_loop,
    refine_triangles_loop,
    submesh_count_boundary,
    write_mesh_loop,
)

# mesh files written by write_mesh before a mesh's boundary came from its facets
DATA = Path(__file__).parent / "data"

# on polygons without symmetry a boundary projection that rounds its dot
# product differently moves nodes by an ulp; on the square it does not
MESH_POLYGONS = {
    "square": UNIT_SQUARE,
    "triangle": [[0, 0], [1, 0], [0.3, 0.9]],
    "thin-triangle": [[0, 0], [1, 0], [0.2, 0.9]],
    "quadrilateral": [[0, 0], [1.3, 0], [1, 0.8], [0.1, 0.6]],
    "pentagon": [[0, 0], [2, 0], [2.6, 1.4], [1, 2.4], [-0.5, 1.2]],
}


class TestDomains:
    def test_unit_square_diameter(self):
        assert abs(ps.polygon_domain(UNIT_SQUARE).diameter - math.sqrt(2.0)) <= 1e-14

    def test_interval(self):
        d = ps.interval_domain(0.0, 1.0)
        assert d.diameter == 1.0 and d.dim == 1

    def test_interval_rejects_empty(self):
        with pytest.raises(ValueError):
            ps.interval_domain(1.0, 1.0)
        with pytest.raises(ValueError):
            ps.interval_domain(2.0, 0.5)

    def test_reflex_quad_rejected(self):
        with pytest.raises(ValueError):
            ps.polygon_domain([[0, 0], [2, 0], [0.5, 0.5], [0, 2]])

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            ps.polygon_domain([[0, 0], [1, 0]])

    def test_repeated_vertices(self):
        with pytest.raises(ValueError):
            ps.polygon_domain([[0, 0], [1, 0], [1, 0], [0, 1]])

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            ps.polygon_domain([[0, 0], [1, 0], [2, 0], [0, 1]])

    def test_clockwise_input_reordered(self):
        d = ps.polygon_domain([[0, 0], [0, 1], [1, 1], [1, 0]])
        verts = d.vertices
        x, y = verts[:, 0], verts[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0.0

    def test_make_domain_specs(self):
        assert make_domain({"interval": [0, 2]}).diameter == 2.0
        assert make_domain({"polygon": UNIT_SQUARE}).kind == "polygon"
        with pytest.raises(ValueError):
            make_domain({"disk": 1.0})
        with pytest.raises(ValueError):
            make_domain("interval")

    def test_diameter_rigid_motion_invariant(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0]])
        base = ps.polygon_domain(verts).diameter
        th = 0.83
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = verts @ rot.T + np.array([5.0, -3.0])
        assert abs(ps.polygon_domain(moved).diameter - base) <= 1e-12
        assert abs(ps.polygon_domain(np.roll(verts, 2, axis=0)).diameter - base) <= 1e-12


class TestBuildMesh:
    def test_interval_level0_counts(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 0)
        assert m.n_nodes == 17 and m.n_elements == 16

    def test_square_fan(self):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 0)
        assert m.n_elements == 4

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_square_refinement_counts(self, level):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), level)
        assert m.n_elements == 4 * 4**level

    def test_negative_level(self):
        with pytest.raises(ValueError):
            ps.build_mesh(ps.interval_domain(0, 1), -1)

    def test_elements_cover_polygon(self):
        pent = ps.polygon_domain([[0, 0], [2, 0], [2.6, 1.4], [1, 2.4], [-0.5, 1.2]])
        m = ps.build_mesh(pent, 2)
        verts = pent.vertices
        x, y = verts[:, 0], verts[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert abs(np.sum(m.measures) - area) <= 1e-10 * area

    def test_boundary_nodes_on_edges(self):
        pent = ps.polygon_domain([[0, 0], [2, 0], [2.6, 1.4], [1, 2.4], [-0.5, 1.2]])
        m = ps.build_mesh(pent, 3)
        verts = pent.vertices
        nb = m.nodes[m.boundary_mask]
        nv = len(verts)
        dmin = np.full(nb.shape[0], np.inf)
        for i in range(nv):
            a, b = verts[i], verts[(i + 1) % nv]
            e = b - a
            t = np.clip((nb - a) @ e / (e @ e), 0.0, 1.0)
            proj = a + t[:, None] * e
            dmin = np.minimum(dmin, np.hypot(*(nb - proj).T))
        assert np.max(dmin) <= 1e-12
        # interior nodes are strictly inside
        assert np.sum(~m.boundary_mask) > 0

    def test_deterministic_rebuild(self):
        sq = ps.polygon_domain(UNIT_SQUARE)
        m1 = ps.build_mesh(sq, 3)
        m2 = ps.build_mesh(sq, 3)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.elements, m2.elements)


class TestMeshAgainstLoops:
    """build_mesh and write_mesh equal, bit for bit, the one-triangle-at-a-time
    and one-node-at-a-time loops of tests/oracles.py."""

    @pytest.mark.parametrize("name", sorted(MESH_POLYGONS))
    def test_build_mesh_bitwise(self, name):
        domain = ps.polygon_domain(MESH_POLYGONS[name])
        verts = domain.vertices
        nv = len(verts)
        nodes = np.vstack([verts, geometry._polygon_centroid(verts)])
        elements = np.array([[i, (i + 1) % nv, nv] for i in range(nv)])
        for level in range(7):
            if level:
                nodes, elements = refine_triangles_loop(nodes, elements)
            boundary = on_polygon_boundary(nodes, verts)
            projected = project_boundary_nodes_loop(nodes, boundary, verts)
            m = ps.build_mesh(domain, level)
            assert m.nodes.tobytes() == projected.tobytes(), level
            assert np.array_equal(m.elements, elements), level
            assert np.array_equal(m.boundary_mask, boundary), level

    @pytest.mark.parametrize("name, level", [
        ("interval", 0), ("interval", 3), ("square", 2), ("triangle", 3), ("quadrilateral", 4),
    ])
    def test_mesh_file_bytes(self, name, level, tmp_path):
        domain = (ps.interval_domain(-0.3, 1.7) if name == "interval"
                  else ps.polygon_domain(MESH_POLYGONS[name]))
        m = ps.build_mesh(domain, level)
        write_mesh(m, tmp_path / "fast.mesh")
        write_mesh_loop(m, tmp_path / "loop.mesh")
        assert (tmp_path / "fast.mesh").read_bytes() == (tmp_path / "loop.mesh").read_bytes()
        back = read_mesh(tmp_path / "fast.mesh")
        assert back.nodes.tobytes() == m.nodes.tobytes()
        assert np.array_equal(back.elements, m.elements)
        assert np.array_equal(back.boundary_mask, m.boundary_mask)


class TestIntegrate:
    def test_area_of_unit_square(self):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 2)
        val = ps.integrate(m, ps.lebesgue(), lambda x: np.ones(len(x)))
        assert abs(val - 1.0) <= 1e-12

    def test_gaussian_mass_interval(self):
        m = ps.build_mesh(ps.interval_domain(-1, 1), 3)
        val = ps.integrate(m, ps.gaussian(), lambda x: np.ones(len(x)))
        assert abs(val - erf(1.0 / math.sqrt(2.0))) <= 1e-8

    def test_first_moment(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 2)
        val = ps.integrate(m, ps.lebesgue(), lambda x: x[:, 0])
        assert abs(val - 0.5) <= 1e-12

    def test_accepts_value_array(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 0)
        vals = np.ones_like(m.quad_weights)
        assert abs(ps.integrate(m, ps.lebesgue(), vals) - 1.0) <= 1e-12

    def test_refinement_differences_shrink(self):
        sq = ps.polygon_domain(UNIT_SQUARE)
        fn = lambda x: np.exp(x[:, 0]) * np.cos(2.0 * x[:, 1])
        vals = [
            ps.integrate(ps.build_mesh(sq, lev), ps.lebesgue(), fn) for lev in range(4)
        ]
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[1] < diffs[0] and diffs[2] < diffs[1]

    def test_measure_reciprocal_consistency(self):
        m = ps.build_mesh(ps.interval_domain(-1, 1), 3)
        gau = ps.gaussian()
        fn = lambda x: np.cos(x[:, 0])
        lebval = ps.integrate(m, ps.lebesgue(), fn)
        gauval = ps.integrate(m, gau, lambda x: fn(x) / gau.density(x))
        assert abs(lebval - gauval) <= 1e-10 * abs(lebval)

    def test_gaussian_density_formula(self):
        gau = ps.gaussian()
        pts = np.array([[0.0, 0.0], [1.0, -1.0]])
        expected = (2 * math.pi) ** -1 * np.exp(-0.5 * np.array([0.0, 2.0]))
        assert np.allclose(gau.density(pts), expected, rtol=0, atol=1e-16)
        with pytest.raises(ValueError):
            ps.Measure("cauchy")


class TestMeasureArrays:
    @pytest.mark.parametrize("kind", ["lebesgue", "gaussian"])
    def test_cached_read_only_products(self, kind):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 2)
        mu = ps.Measure(kind)
        density = m.density_at_quad(mu)
        w = m.measure_weights(mu)
        de = m.element_density_integrals(mu)
        assert np.array_equal(w, m.quad_weights * density)
        assert np.array_equal(de, np.sum(m.quad_weights * density, axis=1))
        assert m.measure_weights(ps.Measure(kind)) is w
        assert m.element_density_integrals(ps.Measure(kind)) is de
        for a in (density, w, de):
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0


def _pattern_mesh(shape, level):
    """Interval, square or triangle mesh, a cut of the square mesh, or the
    interval mesh with one node that no element uses."""
    if shape in ("interval", "orphan"):
        m = ps.build_mesh(ps.interval_domain(0.0, 1.0), level)
        if shape == "orphan":
            m = Mesh(np.append(m.nodes[:, 0], 0.5), m.elements)
        return m
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]] if shape == "triangle" else UNIT_SQUARE
    m = ps.build_mesh(ps.polygon_domain(vertices), level)
    if shape == "cut":
        m, _ = submesh(m, np.nonzero(np.mean(m.nodes[m.elements], axis=1)[:, 0] > 0.5)[0])
    return m


class TestPattern:
    @pytest.mark.parametrize("shape", ["interval", "square", "triangle", "cut", "orphan"])
    @pytest.mark.parametrize("level", range(6))
    def test_node_adjacency_matches_coo(self, shape, level):
        m = _pattern_mesh(shape, level)
        got, want = m.node_adjacency(), coo_node_adjacency(m)
        assert got.format == "csr" and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_cached_per_node_set(self):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 2)
        full, inner = m.pattern("all"), m.pattern("interior")
        assert m.pattern("all") is full and m.pattern("interior") is inner
        # the full pattern keeps every element entry, the interior one drops
        # those of boundary nodes into its discard slot
        assert full[2].size == m.n_nodes + 1 and np.all(full[0] < full[1].size)
        assert inner[2].size == np.count_nonzero(m.interior) + 1 and np.any(inner[0] == inner[1].size)
        with pytest.raises(ValueError, match="node set"):
            m.pattern("boundary")


class TestFields:
    def test_zero_trace(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 1)
        f = ps.zero_trace(m, np.ones(m.n_nodes))
        assert f.is_zero_trace
        assert np.all(f.values[m.boundary_mask] == 0.0)

    def test_interpolate_and_eval(self):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 3)
        f = ps.interpolate(m, lambda pts: 2.0 * pts[:, 0] - pts[:, 1])
        q = np.array([[0.3, 0.4], [0.55, 0.21]])
        assert np.allclose(f(q), 2.0 * q[:, 0] - q[:, 1], atol=1e-12)

    def test_eval_outside_raises(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 0)
        f = ps.interpolate(m, lambda pts: pts[:, 0])
        with pytest.raises(ValueError):
            f(np.array([[2.0]]))

    @pytest.mark.parametrize("shape, level", [("interval", 0), ("interval", 3), ("square", 2),
                                              ("quadrilateral", 3), ("pentagon", 1)])
    def test_locator_matches_per_dimension_oracle(self, shape, level):
        # one barycentric locator for both dimensions, against the old
        # interval-bounds (1-D) and hand-inverted (2-D) locators
        domain = ps.interval_domain(0.0, 1.0) if shape == "interval" else ps.polygon_domain(MESH_POLYGONS[shape])
        m = ps.build_mesh(domain, level)
        rng = np.random.default_rng(level)
        f = ps.Field(m, rng.normal(size=m.n_nodes))
        # random points of random elements, and every node
        bary = rng.dirichlet(np.ones(m.dim + 1), 300)
        elems = rng.integers(0, m.n_elements, 300)
        pts = np.concatenate([np.einsum("nk,nkd->nd", bary, m.nodes[m.elements[elems]]), m.nodes])
        got = f(pts)
        assert got.shape == (pts.shape[0],)
        assert np.max(np.abs(got - field_eval_per_dimension(f, pts))) <= 1e-14 * np.max(np.abs(f.values))

    @pytest.mark.parametrize("shape", ["interval", "square"])
    def test_locator_outside_raises_in_both_dimensions(self, shape):
        domain = ps.interval_domain(0.0, 1.0) if shape == "interval" else ps.polygon_domain(UNIT_SQUARE)
        m = ps.build_mesh(domain, 2)
        f = ps.Field(m, np.ones(m.n_nodes))
        outside = np.full((1, m.dim), 1.0 + 1e-6)
        with pytest.raises(ValueError, match="outside mesh"):
            f(outside)
        with pytest.raises(ValueError, match="outside mesh"):
            field_eval_per_dimension(f, outside)

    def test_wrong_length_raises(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 0)
        with pytest.raises(ValueError):
            ps.Field(m, np.ones(3))

    def test_gradients_of_linear(self):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 2)
        f = ps.interpolate(m, lambda pts: 3.0 * pts[:, 0] + 5.0 * pts[:, 1])
        g = f.gradients()
        assert np.allclose(g, [3.0, 5.0], atol=1e-12)


class TestSubmeshAndIO:
    def test_submesh_marks_cut_boundary(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 0)
        centroids = np.mean(m.nodes[m.elements], axis=1)[:, 0]
        sub, node_map = submesh(m, np.nonzero(centroids < 0.5)[0])
        assert sub.n_elements == 8
        cut = node_map[sub.boundary_mask]
        assert np.isclose(m.nodes[cut, 0], [0.0, 0.5]).all()

    def test_submesh_empty_raises(self):
        m = ps.build_mesh(ps.interval_domain(0, 1), 0)
        with pytest.raises(ValueError):
            submesh(m, np.array([], dtype=int))

    def test_mesh_file_roundtrip(self, tmp_path):
        m = ps.build_mesh(ps.polygon_domain(UNIT_SQUARE), 2)
        path = tmp_path / "square.mesh"
        write_mesh(m, path)
        back = read_mesh(path)
        assert np.array_equal(back.nodes, m.nodes)
        assert np.array_equal(back.elements, m.elements)
        assert np.array_equal(back.boundary_mask, m.boundary_mask)
        header = path.read_text().splitlines()[0]
        assert header == f"DIM 2 NODES {m.n_nodes} ELEMS {m.n_elements}"

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("NODES 3 DIM 1 ELEMS 2\n")
        with pytest.raises(ValueError):
            read_mesh(path)

    def test_mesh_rejects_degenerate(self):
        nodes = np.array([[0.0], [0.0], [1.0]])
        elements = np.array([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            Mesh(nodes, elements)


def _facet_mesh(name, level):
    """Interval or MESH_POLYGONS mesh, or "cut": the square's elements with
    centroid x above 0.4, as a sub-mesh."""
    if name == "interval":
        return ps.build_mesh(ps.interval_domain(-0.3, 1.7), level)
    m = ps.build_mesh(ps.polygon_domain(MESH_POLYGONS["square" if name == "cut" else name]), level)
    if name == "cut":
        m, _ = submesh(m, np.nonzero(np.mean(m.nodes[m.elements], axis=1)[:, 0] > 0.4)[0])
    return m


class TestBoundaryFromFacets:
    """Every Mesh takes its boundary from its elements: the nodes on a facet
    that only one element has. The geometric rule that build_mesh applied and
    the count rule that submesh applied before are in tests/oracles.py; the
    geometric rule is checked on every build in TestMeshAgainstLoops."""

    @pytest.mark.parametrize("name", sorted(MESH_POLYGONS) + ["cut"])
    @pytest.mark.parametrize("level", range(4))
    def test_facets_are_edges_of_one_triangle(self, name, level):
        m = _facet_mesh(name, level)
        counts = Counter(
            tuple(sorted(edge)) for tri in m.elements.tolist() for edge in zip(tri, tri[1:] + tri[:1])
        )
        assert m.boundary_facets.tolist() == sorted(list(edge) for edge, c in counts.items() if c == 1)
        assert np.array_equal(np.nonzero(m.boundary_mask)[0], np.unique(m.boundary_facets))

    @pytest.mark.parametrize("level", range(8))
    def test_interval_ends(self, level):
        m = _facet_mesh("interval", level)
        assert m.boundary_facets.tolist() == [[0], [m.n_nodes - 1]]
        hand_set = np.zeros(m.n_nodes, dtype=bool)
        hand_set[[0, -1]] = True
        assert np.array_equal(m.boundary_mask, hand_set)

    def test_boundary_is_read_only(self):
        m = _facet_mesh("square", 1)
        for a in (m.boundary_mask, m.boundary_facets):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["interval", "square", "thin-triangle", "pentagon", "cut"]),
           level=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.02, 1.0))
    def test_submesh_equals_count_rule(self, name, level, seed, fraction):
        m = _facet_mesh(name, level)
        keep = np.random.default_rng(seed).random(m.n_elements) < fraction
        keep[np.random.default_rng(seed).integers(m.n_elements)] = True
        sub, node_map = submesh(m, np.nonzero(keep)[0])
        boundary, count_map = submesh_count_boundary(m, np.nonzero(keep)[0])
        assert np.array_equal(node_map, count_map)
        assert np.array_equal(sub.boundary_mask, boundary)

    def test_sweep_submeshes_equal_count_rule(self, monkeypatch):
        m = ps.build_mesh(ps.polygon_domain(MESH_POLYGONS["thin-triangle"]), 2)
        seen = []

        def checked(mesh, element_idx):
            sub, node_map = submesh(mesh, element_idx)
            boundary, count_map = submesh_count_boundary(mesh, element_idx)
            seen.append(np.array_equal(node_map, count_map) and np.array_equal(sub.boundary_mask, boundary))
            return sub, node_map

        monkeypatch.setattr(spectral, "submesh", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ps.second_eigenvalue(3.0, m, ps.lebesgue(), None)
        assert len(seen) > 100 and all(seen)

    @pytest.mark.parametrize("name, level", [("quadrilateral", 1), ("interval", 0)])
    def test_reads_older_mesh_file(self, name, level, tmp_path):
        path = DATA / f"{name}_l{level}.mesh"
        m = read_mesh(path)
        built = _facet_mesh(name, level)
        assert m.nodes.tobytes() == built.nodes.tobytes()
        assert np.array_equal(m.elements, built.elements)
        assert np.array_equal(m.boundary_mask, built.boundary_mask)
        write_mesh(m, tmp_path / "again.mesh")
        assert (tmp_path / "again.mesh").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("flip", ["interior", "boundary"])
    def test_read_rejects_flags_off_the_boundary(self, flip, tmp_path):
        m = _facet_mesh("square", 1)
        path = tmp_path / "square.mesh"
        write_mesh(m, path)
        lines = path.read_text().splitlines()
        flags = lines[-1].split()
        i = int(np.nonzero(m.boundary_mask == (flip == "boundary"))[0][0])
        flags[i] = "0" if flags[i] == "1" else "1"
        path.write_text("\n".join(lines[:-1] + [" ".join(flags)]) + "\n")
        with pytest.raises(ValueError, match="boundary flags"):
            read_mesh(path)
