"""Similarity invariance of the eigenvalues and the gap (ROADMAP item 13):
random convex polygons under the Lebesgue measure, mapped by a scaling, a
translation or a rotation. lambda1 at p in {2, 3, 6} and the p = 2
deflation lambda2 scale as t^-p and are otherwise unchanged, and so are
the p = 2 gap's margin / bound and, per field of the seeded stability
battery at each p, margin / tol_quad, all to 1e-12 relative, with the
same verdicts: the maps keep the node order, so the battery draws the same
nodal values on both meshes. The Gaussian measure is
invariant under the rotations about the origin and the reflections in lines
through it (with the vertex order reversed, so that the polygon stays
counter-clockwise): under both, lambda1 at the same p and the p = 2 lambda2
are unchanged to 1e-12 relative. The p != 2 cut sweep is left out: its
directions are fixed in the plane, not in the domain.

Node-renumbering invariance: the banded factor orders the unknowns by
reverse Cuthill-McKee, which depends on the node numbering, so the same
eigenvalues must come out, to 1e-12 relative and under both measures, of a
mesh whose nodes are randomly renumbered."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import plapstab as ps
from plapstab import spectral, verify
from plapstab.geometry import Mesh

_REL = 1e-12
_LEVEL = 2
_PS = (2.0, 3.0, 6.0)
# two blocks of the battery's fields
_BATTERY_FIELDS = 2 * verify._BLOCK_FIELDS
_BATTERY_SEED = 5


@st.composite
def convex_polygons(draw):
    """Vertices at sorted random angles on a random tilted ellipse: each
    angle step is 2 pi w_i / sum(w), w_i in [1, 3], so no step is below
    2 pi / 19 and no vertex nearly repeats."""
    n = draw(st.integers(3, 7))
    weights = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))
    start = draw(st.floats(0.0, 2.0 * math.pi))
    angles = start + 2.0 * math.pi * np.cumsum(weights) / np.sum(weights)
    a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    tilt = draw(st.floats(0.0, math.pi))
    ellipse = np.stack([a * np.cos(angles), b * np.sin(angles)], axis=1)
    return ellipse @ _rotation(tilt).T


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _reflection(angle):
    """The reflection in the line through the origin at `angle`."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]])


# map kind -> (strategy for its parameter, vertices -> mapped vertices, lambda factor t^-p)
_MAPS = {
    "scale": (st.floats(0.2, 5.0), lambda v, t: t * v, lambda t, p: t**-p),
    "translate": (st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                  lambda v, shift: v + np.array(shift), lambda shift, p: 1.0),
    "rotate": (st.floats(0.0, 2.0 * math.pi), lambda v, angle: v @ _rotation(angle).T,
               lambda angle, p: 1.0),
    "reflect": (st.floats(0.0, math.pi), lambda v, angle: (v @ _reflection(angle).T)[::-1],
                lambda angle, p: 1.0),
}


def _close(got, want):
    return abs(got - want) <= _REL * abs(want)


def _check_similarity(kind, vertices, param, mu=None):
    _, apply, factor = _MAPS[kind]
    mu = mu or ps.lebesgue()
    domains = [ps.polygon_domain(vertices), ps.polygon_domain(apply(vertices, param))]
    meshes = [ps.build_mesh(domain, _LEVEL) for domain in domains]
    for p in _PS:
        pairs = [ps.first_eigenpair(p, mesh, mu) for mesh in meshes]
        assert all(pair.converged for pair in pairs)
        assert _close(pairs[1].lam, factor(param, p) * pairs[0].lam)
        if p == 2.0:
            seconds = [ps.second_eigenvalue(p, mesh, mu, pair) for mesh, pair in zip(meshes, pairs)]
            assert all(pair.converged for pair in seconds)
            assert _close(seconds[1].lam, factor(param, p) * seconds[0].lam)
            if mu.kind == "gaussian":
                continue
            gaps = [ps.gap_check(p, domain, mesh, mu, pairs=(u1, u2))
                    for domain, mesh, u1, u2 in zip(domains, meshes, pairs, seconds)]
            assert gaps[0].passed and gaps[1].passed
            assert _close(gaps[1].margin / gaps[1].bound, gaps[0].margin / gaps[0].bound)
        if mu.kind == "lebesgue":
            # the maps keep the node order, so the seeded battery draws the
            # same nodal values on both meshes
            batteries = [verify.stability_battery(p, domain, mesh, mu, _BATTERY_FIELDS, seed=_BATTERY_SEED,
                                                  eigenpair=pair)
                         for domain, mesh, pair in zip(domains, meshes, pairs)]
            for one, mapped in zip(*batteries):
                assert mapped.passed == one.passed
                assert _close(mapped.margin / mapped.tol_quad, one.margin / one.tol_quad)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), t=_MAPS["scale"][0])
def test_scaling(vertices, t):
    _check_similarity("scale", vertices, t)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), shift=_MAPS["translate"][0])
def test_translation(vertices, shift):
    _check_similarity("translate", vertices, shift)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), angle=_MAPS["rotate"][0])
def test_rotation(vertices, angle):
    _check_similarity("rotate", vertices, angle)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), angle=_MAPS["rotate"][0])
def test_gaussian_rotation(vertices, angle):
    _check_similarity("rotate", vertices, angle, ps.gaussian())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), angle=_MAPS["reflect"][0])
def test_gaussian_reflection(vertices, angle):
    _check_similarity("reflect", vertices, angle, ps.gaussian())


def _renumbered(mesh, rng):
    """The mesh with its nodes randomly renumbered: node k of the result is
    node perm[k] of `mesh`, and the elements keep their order and vertex
    order."""
    perm = rng.permutation(mesh.n_nodes)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(mesh.n_nodes)
    return Mesh(mesh.nodes[perm], rank[mesh.elements])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), seed=st.integers(0, 2**32 - 1))
def test_node_renumbering(vertices, seed):
    # level 3, so that the interior systems take the banded path
    mesh = ps.build_mesh(ps.polygon_domain(vertices), 3)
    assert np.count_nonzero(mesh.interior) > spectral._DENSE_MAX
    meshes = [mesh, _renumbered(mesh, np.random.default_rng(seed))]
    for mu in (ps.lebesgue(), ps.gaussian()):
        for p in _PS:
            pairs = [ps.first_eigenpair(p, m, mu) for m in meshes]
            assert all(pair.converged for pair in pairs)
            assert _close(pairs[1].lam, pairs[0].lam)
            if p == 2.0:
                # deflation's start vector is drawn in interior numbering, so
                # it differs between the two meshes; its converged pair agrees
                seconds = [ps.second_eigenvalue(p, m, mu, pair) for m, pair in zip(meshes, pairs)]
                assert all(pair.converged for pair in seconds)
                assert _close(seconds[1].lam, seconds[0].lam)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(vertices=convex_polygons(), shift=st.integers(1, 6))
def test_cyclic_vertex_shift(vertices, shift):
    # the same polygon from another first vertex: another centroid rounding,
    # node numbering and element order, the same lambda1
    shift %= len(vertices)
    meshes = [ps.build_mesh(ps.polygon_domain(v), _LEVEL) for v in (vertices, np.roll(vertices, shift, axis=0))]
    for mu in (ps.lebesgue(), ps.gaussian()):
        for p in _PS:
            pairs = [ps.first_eigenpair(p, m, mu) for m in meshes]
            assert all(pair.converged for pair in pairs)
            assert _close(pairs[1].lam, pairs[0].lam)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["interval01", "square"]), measure=st.sampled_from(["lebesgue", "gaussian"]),
       p=st.sampled_from([2.0, 3.0, 4.0, 6.0]), seed=st.integers(0, 2**32 - 1),
       c=st.floats(1e-3, 1e3), sign=st.sampled_from([-1.0, 1.0]))
def test_battery_p_homogeneity(cache, name, measure, p, seed, c, sign):
    # u -> c u scales the deficit, the distance and the right side by |c|^p
    # and c_star by c, and keeps each verdict, block by block as the
    # battery checks its fields
    c *= sign
    mesh = cache.mesh(name, 3 if name == "interval01" else 2)
    pair = cache.pair(p, name, 3 if name == "interval01" else 2, measure)
    mu = ps.lebesgue() if measure == "lebesgue" else ps.gaussian()
    domain = cache.domain(name)
    constant = verify._bound_constant(p, domain, 1.0)
    values = verify._random_fields(mesh, np.random.default_rng(seed), verify._BLOCK_FIELDS, verify._smoothing(mesh))
    reports = [verify._stability_reports(p, domain, mesh, [block], mu, pair, constant) for block in (values, c * values)]
    scale = abs(c) ** p
    for one, scaled in zip(*reports):
        for field in ("deficit", "distance_p", "rhs"):
            assert _close(getattr(scaled, field), scale * getattr(one, field)), field
        assert abs(scaled.c_star - c * one.c_star) <= 1e-7 * abs(c)
        assert scaled.passed == one.passed
