import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import eigsh, splu

import plapstab as ps
from plapstab import spectral
from plapstab.geometry import Mesh, read_mesh, submesh, write_mesh
from plapstab.spectral import SolverOptions

from oracles import (
    bisection_cut_sweep,
    coo_assemble,
    distance_to_boundary_loop,
    euler_lagrange_residual,
    exhaustive_cut_value,
    interior_components_nested,
    side_ground_state_nested,
)

PI2 = math.pi**2
_MEASURES = {"lebesgue": ps.lebesgue(), "gaussian": ps.gaussian()}


class TestRayleighQuotient:
    def test_sine_interpolant_converges(self, cache):
        errs = []
        for level in (2, 6):
            m = cache.mesh("interval01", level)
            u = ps.zero_trace(m, np.sin(math.pi * m.nodes[:, 0]))
            r = ps.rayleigh_quotient(2.0, u, ps.lebesgue())
            errs.append(abs(r - PI2) / PI2)
        assert errs[0] <= 1e-2
        assert errs[1] <= 1e-4

    def test_square_product_sine(self, cache):
        m = cache.mesh("square", 4)
        u = ps.zero_trace(
            m, np.sin(math.pi * m.nodes[:, 0]) * np.sin(math.pi * m.nodes[:, 1])
        )
        r = ps.rayleigh_quotient(2.0, u, ps.lebesgue())
        assert abs(r - 2.0 * PI2) <= 0.01 * 2.0 * PI2

    def test_scale_invariance(self, cache):
        m = cache.mesh("interval01", 3)
        u = ps.zero_trace(m, np.sin(math.pi * m.nodes[:, 0]))
        u7 = ps.Field(m, 7.0 * u.values)
        for p in (2.0, 3.0):
            a = ps.rayleigh_quotient(p, u, ps.lebesgue())
            b = ps.rayleigh_quotient(p, u7, ps.lebesgue())
            assert abs(a - b) <= 1e-12 * a

    def test_zero_field_rejected(self, cache):
        m = cache.mesh("interval01", 2)
        with pytest.raises(ValueError):
            ps.rayleigh_quotient(2.0, ps.Field(m, np.zeros(m.n_nodes)), ps.lebesgue())


class TestFirstEigenpair:
    def test_interval_p2(self, cache):
        pair = cache.pair(2.0, "interval01", 4)
        assert abs(pair.lam - PI2) <= 1e-3 * PI2
        assert pair.converged

    def test_square_p2(self, cache):
        pair = cache.pair(2.0, "square", 4)
        assert abs(pair.lam - 2.0 * PI2) <= 0.015 * 2.0 * PI2

    def test_p3_interval_frozen_oracle(self, cache):
        # 28.288761976002555 = shooting / first-integral oracle value
        pair = cache.pair(3.0, "interval01", 4)
        assert abs(pair.lam - 28.288761976002555) <= 0.01 * 28.288761976002555

    def test_p_below_two_interval(self, cache):
        # same 1D closed form pi_p^p; also exercises the singular-weight
        # guard on elements where the iterate vanishes identically
        pair = ps.first_eigenpair(1.5, cache.mesh("interval01", 4), ps.lebesgue())
        exact = ps.pi_p(1.5) ** 1.5
        assert np.all(np.isfinite(pair.field.values))
        assert abs(pair.lam - exact) <= 1e-3 * exact

    def test_gaussian_ou_exact_parabola(self, cache):
        # -u'' + x u' with u = 1 - x^2 on (-1, 1): L u = 2 - 2x^2 = 2u, so
        # the first Gaussian eigenvalue is exactly 2
        pair = cache.pair(2.0, "interval-sym", 4, "gaussian")
        assert abs(pair.lam - 2.0) <= 5e-4

    def test_monotone_rayleigh_history(self, cache):
        pair = cache.pair(3.0, "interval01", 4)
        h = np.asarray(pair.residual_history)
        assert np.all(np.diff(h) <= 1e-12 * np.maximum(1.0, h[:-1]))

    def test_self_consistency_and_normalization(self, cache):
        pair = cache.pair(3.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        r = ps.rayleigh_quotient(3.0, pair.field, ps.lebesgue())
        assert abs(pair.lam - r) <= 1e-10 * r
        assert abs(ps.lp_norm(pair.field, 3.0, ps.lebesgue()) - 1.0) <= 1e-10
        assert pair.field.is_zero_trace

    def test_interior_positivity(self, cache):
        for key in [(2.0, "square", 3, "lebesgue"), (3.0, "interval01", 3, "lebesgue")]:
            pair = cache.pair(*key)
            m = cache.mesh(key[1], key[2])
            assert np.all(pair.field.values[m.interior] > 0.0)

    def test_scaling_law(self):
        leb = ps.lebesgue()
        for p in (2.0, 3.0):
            base = ps.first_eigenpair(p, ps.build_mesh(ps.interval_domain(0, 1), 3), leb).lam
            for s in (0.5, 2.0):
                lam = ps.first_eigenpair(
                    p, ps.build_mesh(ps.interval_domain(0, s), 3), leb
                ).lam
                assert abs(lam - base * s**-p) <= 5e-3 * lam

    def test_scaling_law_square(self):
        leb = ps.lebesgue()
        small = ps.polygon_domain([[0, 0], [1, 0], [1, 1], [0, 1]])
        big = ps.polygon_domain([[0, 0], [2, 0], [2, 2], [0, 2]])
        a = ps.first_eigenpair(2.0, ps.build_mesh(small, 3), leb).lam
        b = ps.first_eigenpair(2.0, ps.build_mesh(big, 3), leb).lam
        assert abs(b - a / 4.0) <= 5e-3 * b

    def test_domain_monotonicity(self):
        leb = ps.lebesgue()
        outer = ps.polygon_domain([[0, 0], [1, 0], [1, 1], [0, 1]])
        inner = ps.polygon_domain([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        lo = ps.first_eigenpair(3.0, ps.build_mesh(outer, 3), leb).lam
        li = ps.first_eigenpair(3.0, ps.build_mesh(inner, 3), leb).lam
        assert li > lo

    def test_gaussian_consistency_small_domain(self):
        tiny = ps.polygon_domain(
            [[-0.05, -0.05], [0.05, -0.05], [0.05, 0.05], [-0.05, 0.05]]
        )
        m = ps.build_mesh(tiny, 3)
        lam_g = ps.first_eigenpair(2.0, m, ps.gaussian()).lam
        lam_l = ps.first_eigenpair(2.0, m, ps.lebesgue()).lam
        assert abs(lam_g / lam_l - 1.0) <= 0.02

    def test_cut_submesh_starts_from_indicator(self, cache):
        sub = _cut_half_square(cache)
        assert np.all(spectral._distance_to_boundary(sub)[sub.interior] == 0.0)
        pair = ps.first_eigenpair(3.0, sub, ps.lebesgue())
        assert pair.converged
        assert np.all(pair.field.values[sub.interior] > 0.0)

    def test_all_boundary_mesh_rejected(self):
        nodes = np.array([[0.0], [1.0]])
        mesh = Mesh(nodes, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            ps.first_eigenpair(2.0, mesh, ps.lebesgue())

    def test_bad_exponent_rejected(self, cache):
        with pytest.raises(ValueError):
            ps.first_eigenpair(1.0, cache.mesh("interval01", 2), ps.lebesgue())

    def test_nonconvergence_returns_diagnostic(self, cache):
        m = cache.mesh("interval01", 3)
        opts = SolverOptions(max_outer=2)
        with pytest.warns(UserWarning):
            pair = ps.first_eigenpair(3.0, m, ps.lebesgue(), opts)
        assert not pair.converged and pair.residual > opts.tol
        assert len(pair.residual_history) == 3


_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
_QUADRILATERAL = [[0, 0], [1.2, 0.1], [1.0, 0.9], [0.1, 0.7]]
_TRIANGLE = [[0, 0], [1, 0], [0.2, 0.9]]
_PENTAGON_ANGLES = 0.3 + 0.4 * np.pi * np.arange(5)
_GRID_MESHES = {
    ("interval", 5): (ps.interval_domain(0.0, 1.0), 5),
    ("square", 4): (ps.polygon_domain([[0, 0], [1, 0], [1, 1], [0, 1]]), 4),
    ("triangle", 3): (ps.polygon_domain([[0, 0], [1, 0], [0.3, 0.9]]), 3),
    ("triangle", 4): (ps.polygon_domain([[0, 0], [1, 0], [0.3, 0.9]]), 4),
    ("quadrilateral", 3): (ps.polygon_domain([[0, 0], [1.3, 0], [1, 0.8], [0.1, 0.6]]), 3),
    ("pentagon", 3): (ps.polygon_domain(np.stack([np.cos(_PENTAGON_ANGLES), np.sin(_PENTAGON_ANGLES)], 1)), 3),
}
_GRID_P = [1.5, 2.0, 3.0, 4.0, 6.0, 10.0]


_CONVERGENCE_OPTS = {
    "max_outer=2": SolverOptions(max_outer=2),
    "default": SolverOptions(),
    "tol=1e-4": SolverOptions(tol=1e-4),
}


def _grid_id(key):
    return f"{key[0]}-L{key[1]}"


@pytest.fixture(scope="module")
def grid_mesh():
    meshes = {}

    def get(key):
        if key not in meshes:
            meshes[key] = ps.build_mesh(*_GRID_MESHES[key])
        return meshes[key]

    return get


def _cut_half_square(cache):
    # the zigzag cut boundary of this half square puts every interior node
    # on some boundary-edge line, so the distance start vanishes
    m = cache.mesh("square", 2)
    centroids = np.mean(m.nodes[m.elements], axis=1)
    return submesh(m, np.nonzero(centroids[:, 1] > 0.5)[0])[0]


class TestEulerLagrange:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=st.sampled_from(_GRID_P), measure=st.sampled_from(sorted(_MEASURES)),
           name=st.sampled_from(["interval01", "square"]), seed=st.integers(0, 2**32 - 1))
    def test_quotient_is_rayleigh_quotient_bitwise(self, cache, p, measure, name, seed):
        m = cache.mesh(name, 3)
        (u,) = _random_values(m, seed, n_fields=1)
        lam = spectral._euler_lagrange(p, m, _MEASURES[measure], u)[0]
        assert lam == ps.rayleigh_quotient(p, ps.Field(m, u), _MEASURES[measure])

    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("key", [("interval", 5), ("triangle", 3), ("pentagon", 3)], ids=_grid_id)
    def test_residual_matches_element_loop(self, grid_mesh, key, measure):
        m = grid_mesh(key)
        mu = _MEASURES[measure]
        (u,) = _random_values(m, 11, n_fields=1)
        for p in (1.5, 3.0, 10.0):
            for values in (u, ps.first_eigenpair(p, m, mu).field.values):
                lam, b, r, rel, terms = spectral._euler_lagrange(p, m, mu, values)
                floor = spectral._residual_floor(p, m, terms, r + lam * b)
                want = euler_lagrange_residual(p, m, mu, values)
                assert abs(rel - want[0]) <= 1e-14 * max(1.0, want[0])
                assert abs(floor - want[1]) <= 1e-13 * want[1]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("name, level", [("interval01", 4), ("square", 2)])
    def test_jacobian_matches_central_differences(self, cache, name, level, p):
        # J = A_p'(u) - R(u) B_p'(u) at fixed R: compare J v with the central
        # difference of F(w) = A_p(w) - R(u) B_p(w) = r(w) + (R(w) - R(u)) b(w)
        m = cache.mesh(name, level)
        mu = ps.gaussian()
        rng = np.random.default_rng(3)
        u = spectral._distance_to_boundary(m) * rng.uniform(1.0, 1.5, m.n_nodes)
        (v,) = _random_values(m, 4, n_fields=1)
        lam, _, _, _, terms = spectral._euler_lagrange(p, m, mu, u)
        jac = spectral._assemble_csc(m, spectral._jacobian(p, m, lam, terms))

        def F(w):
            lam_w, b_w, r_w, _, _ = spectral._euler_lagrange(p, m, mu, w)
            return r_w + (lam_w - lam) * b_w

        h = 1e-6 * np.max(np.abs(u)) / np.max(np.abs(v))
        fd = (F(u + h * v) - F(u - h * v)) / (2.0 * h)
        jv = jac @ v[m.interior]
        assert np.linalg.norm(jv - fd) <= 1e-6 * np.linalg.norm(jv)


    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("name, level", [("interval01", 4), ("square", 2)])
    def test_jacobian_from_element_kernels_bitwise(self, cache, name, level, p):
        m = cache.mesh(name, level)
        u = spectral._distance_to_boundary(m) * np.random.default_rng(3).uniform(1.0, 1.5, m.n_nodes)
        lam, _, _, _, terms = spectral._euler_lagrange(p, m, ps.gaussian(), u)
        _, gn, ga, uw, gphi = terms
        # de |g|^(p-2) G G^T + (p-2) de |g|^(p-4) (G g)(G g)^T
        # - R (p-1) int |u|^(p-2) phi_i phi_j, written out
        gb = (p - 2.0) * spectral._guarded_power(gn, -2.0) * ga
        want = ga[:, None, None] * m.grad_gram + gb[:, None, None] * (gphi[:, :, None] * gphi[:, None, :])
        want -= (lam * (p - 1.0)) * np.einsum("mq,qi,qj->mij", uw, m.basis, m.basis)
        assert np.array_equal(spectral._jacobian(p, m, lam, terms), want)


class TestGroundStateConvergence:
    @pytest.mark.parametrize("p", _GRID_P)
    @pytest.mark.parametrize("key", list(_GRID_MESHES), ids=_grid_id)
    def test_grid_reaches_tol(self, grid_mesh, key, p):
        m = grid_mesh(key)
        tol = SolverOptions().tol
        for mu in _MEASURES.values():
            pair = ps.first_eigenpair(p, m, mu)
            assert pair.converged and pair.residual <= tol, (key, p, mu.kind, pair.residual)

    # on interval L7 the rounding floor of the residual is above the
    # default tol at every p here, and the solves stop on it
    @pytest.mark.parametrize("p, level, name", [
        (p, 4, name) for p in (1.5, 3.0, 6.0) for name in _CONVERGENCE_OPTS
    ] + [(p, 7, "default") for p in (1.5, 6.0, 10.0, 20.0)])
    def test_converged_iff_residual_within_tol(self, cache, p, level, name):
        opts = _CONVERGENCE_OPTS[name]
        m = cache.mesh("interval01", level)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = ps.first_eigenpair(p, m, ps.lebesgue(), opts)
        assert pair.converged == (pair.residual <= max(opts.tol, pair.residual_floor))
        lam, b, r, rel, terms = spectral._euler_lagrange(p, m, ps.lebesgue(), pair.field.values)
        assert pair.residual == rel
        assert pair.residual_floor == spectral._residual_floor(p, m, terms, r + lam * b)
        assert len(pair.residual_history) == pair.iterations + 1
        if opts.max_outer == 2:
            assert not pair.converged
        if level == 7:
            assert pair.converged and pair.residual_floor > opts.tol
            # it stops on reaching the floor rather than stalling above tol
            assert pair.iterations < 30

    @pytest.mark.parametrize("p", [1.5, 2.0, 6.0, 20.0])
    @pytest.mark.parametrize("name, level", [("interval01", 7), ("square", 4)])
    def test_floor_bounds_rounding_noise(self, cache, name, level, p):
        # perturbing each nodal value by at most 2^-53 of itself moves the
        # residual by no more than its floor; the floor is at most a few
        # times the largest such move seen, so it is not vacuous
        m = cache.mesh(name, level)
        mu = ps.gaussian()
        u = ps.first_eigenpair(p, m, mu).field.values
        lam, b, r, _, terms = spectral._euler_lagrange(p, m, mu, u)
        floor = spectral._residual_floor(p, m, terms, r + lam * b)
        norm_a = np.linalg.norm(r + lam * b)
        rng = np.random.default_rng(5)
        moves = []
        for _ in range(8):
            w = u * (1.0 + 2.0**-53 * rng.uniform(-1.0, 1.0, u.size))
            moves.append(np.linalg.norm(spectral._euler_lagrange(p, m, mu, w)[2] - r) / norm_a)
        assert max(moves) <= floor <= 8.0 * max(moves)

    @pytest.mark.parametrize("p", [3.0, 6.0, 10.0])
    def test_cut_submesh_converges(self, cache, p):
        sub = _cut_half_square(cache)
        pair = ps.first_eigenpair(p, sub, ps.lebesgue())
        assert pair.converged and pair.residual <= SolverOptions().tol
        assert np.all(pair.field.values[sub.interior] > 0.0)


class TestSingularNewtonSystem:
    def test_isolated_interior_node_returns_pair(self):
        # along theta = 7 pi / 32 the cut at the distinct centroid projection
        # of index 18 of 48 leaves an interior node of the triangle's Omega+
        # with no interior neighbour; u and grad u vanish around it
        m = ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2)
        theta = 7.0 * np.pi / 32.0
        proj = np.mean(m.nodes[m.elements], axis=1) @ np.array([np.cos(theta), np.sin(theta)])
        sub = submesh(m, np.nonzero(proj >= np.unique(proj)[18])[0])[0]
        adjacency = {i: set() for i in np.nonzero(sub.interior)[0]}
        for tri in sub.elements:
            for i in tri:
                if i in adjacency:
                    adjacency[i].update(j for j in tri if j != i and sub.interior[j])
        assert any(not nb for nb in adjacency.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = ps.first_eigenpair(3.0, sub, ps.lebesgue())
        assert isinstance(pair, ps.EigenPair)
        assert np.isfinite(pair.lam) and np.all(np.isfinite(pair.field.values))
        assert pair.converged == (pair.residual <= max(SolverOptions().tol, pair.residual_floor))
        # every bordered factorisation failed, so only the lagged order is kept
        assert "interior" in sub.lu_orders and "bordered" not in sub.lu_orders


_ORDER_DOMAINS = {
    "interval": ps.interval_domain(0.0, 1.0),
    "square": ps.polygon_domain(_SQUARE),
    "triangle": ps.polygon_domain(_TRIANGLE),
    "pentagon": ps.polygon_domain(np.stack([np.cos(_PENTAGON_ANGLES), np.sin(_PENTAGON_ANGLES)], 1)),
}


@pytest.fixture(scope="module")
def order_mesh():
    built = {}

    def get(name, level, variant):
        """A new Mesh object, so that no column order is cached on it yet."""
        if (name, level) not in built:
            built[(name, level)] = ps.build_mesh(_ORDER_DOMAINS[name], level)
        m = built[(name, level)]
        if variant == "cut":
            centroids = np.mean(m.nodes[m.elements], axis=1)
            return submesh(m, np.nonzero(centroids @ np.ones(m.dim) > 0.4 * m.dim)[0])[0]
        if variant == "read":
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "mesh.txt")
                write_mesh(m, path)
                return read_mesh(path)
        return Mesh(m.nodes, m.elements)

    return get


def _counted_splu(monkeypatch):
    """Record the column ordering asked of every splu call in spectral."""
    calls = []

    def counted(a, **kwargs):
        calls.append((a.shape[0], kwargs.get("permc_spec", "COLAMD")))
        return splu(a, **kwargs)

    monkeypatch.setattr(spectral, "splu", counted)
    return calls


class TestCachedColumnOrder:
    @staticmethod
    def _matrices(p, m, mu, u):
        """(name, source, fresh CSC) of a lagged, a bordered and the
        deflation matrix at u, each CSC built apart from _lu_solve."""
        g = m.gradients(u)
        weights = (np.sum(g * g, axis=1) + 1e-4) ** (0.5 * (p - 2.0))
        lagged = spectral._assemble_csc(m, spectral._stiffness_local(m, m.element_density_integrals(mu) * weights))
        lam, b, _, _, terms = spectral._euler_lagrange(p, m, mu, u)
        jac = spectral._assemble_csc(m, spectral._jacobian(p, m, lam, terms))
        bordered = sparse.bmat([[jac, -b[:, None]], [b[None, :], None]], format="csc")
        stiffness = spectral._assemble_csc(m, spectral._stiffness_local(m, m.element_density_integrals(mu)))
        return [
            ("interior", lagged.data, lagged),
            ("bordered", np.concatenate([jac.data, b, -b]), bordered),
            ("interior", stiffness.data, stiffness),
        ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_ORDER_DOMAINS)), level=st.integers(1, 4),
           variant=st.sampled_from(["mesh", "cut", "read"]), p=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
           measure=st.sampled_from(sorted(_MEASURES)), seed=st.integers(0, 2**32 - 1))
    def test_ordered_factor_solves_bitwise(self, order_mesh, name, level, variant, p, measure, seed):
        m = order_mesh(name, level, variant)
        assume(np.count_nonzero(m.interior) >= 2)
        mu = _MEASURES[measure]
        rng = np.random.default_rng(seed)
        u = np.where(m.interior, rng.uniform(0.5, 1.5, m.n_nodes), 0.0)
        for name_, source, fresh in self._matrices(p, m, mu, u):
            # the gather builds the matrix that is factored in natural order
            src, indices, indptr = spectral._natural_layout(m, name_)
            assert np.array_equal(source[src], fresh.data)
            assert np.array_equal(indices, fresh.indices) and np.array_equal(indptr, fresh.indptr)
            rhs = [rng.standard_normal(fresh.shape[0]), rng.standard_normal((fresh.shape[0], 3))]
            want = splu(fresh)
            # the first call orders by COLAMD, the next ones reuse its order
            for solve in [spectral._lu_solve(m, name_, source) for _ in range(3)]:
                for x in rhs:
                    got, ref = solve(x), want.solve(x)
                    assert np.array_equal(got, ref)
                    assert got.flags.f_contiguous == ref.flags.f_contiguous
            assert name_ in m.lu_orders

    def test_colamd_once_per_mesh_and_pattern(self, monkeypatch):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 3)
        calls = _counted_splu(monkeypatch)
        first = ps.first_eigenpair(3.0, m, ps.lebesgue())
        n = np.count_nonzero(m.interior)
        # the interior and the bordered pattern, each ordered once
        assert sorted(c for c in calls if c[1] == "COLAMD") == [(n, "COLAMD"), (n + 1, "COLAMD")]
        del calls[:]
        again = ps.first_eigenpair(3.0, m, ps.lebesgue())
        pair = ps.first_eigenpair(2.0, m, ps.gaussian())
        ps.second_eigenvalue(2.0, m, ps.gaussian(), pair)
        assert calls and all(spec == "NATURAL" for _, spec in calls)
        assert again.lam == first.lam
        # a sub-mesh is a new mesh: it orders its own patterns
        sub, _ = submesh(m, np.arange(m.n_elements // 2))
        del calls[:]
        ps.first_eigenpair(3.0, sub, ps.lebesgue())
        assert [spec for _, spec in calls].count("COLAMD") == 2 and sub.lu_orders

    @pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
    def test_one_factorisation_per_step(self, monkeypatch, p):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 4)
        calls = _counted_splu(monkeypatch)
        pair = ps.first_eigenpair(p, m, ps.lebesgue())
        n = np.count_nonzero(m.interior)
        newton = sum(size == n + 1 for size, _ in calls)
        assert newton >= 1
        if p == 2.0:
            # the lagged steps share one stiffness factor
            assert len(calls) == 1 + newton
        else:
            assert len(calls) == pair.iterations

    def test_failed_first_factorisation_caches_no_order(self):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 2)
        n = np.count_nonzero(m.interior)
        nnz = m.pattern("interior")[1].size
        with pytest.raises(RuntimeError):
            spectral._lu_solve(m, "bordered", np.zeros(nnz + 2 * n))
        assert "bordered" not in m.lu_orders


_SWEEP_CASES = {
    "interval-L1": (ps.interval_domain(0.0, 1.0), 1, "lebesgue"),
    "square-L1": (ps.polygon_domain(_SQUARE), 1, "lebesgue"),
    "quadrilateral-L1-gaussian": (ps.polygon_domain(_QUADRILATERAL), 1, "gaussian"),
}


_PENTAGON = np.stack([np.cos(_PENTAGON_ANGLES), np.sin(_PENTAGON_ANGLES)], 1)
_ORACLE_SWEEPS = {
    "interval-L1": (ps.interval_domain(0.0, 1.0), 1),
    "interval-L4": (ps.interval_domain(0.0, 1.0), 4),
    "square-L1": (ps.polygon_domain(_SQUARE), 1),
    "quadrilateral-L1": (ps.polygon_domain(_QUADRILATERAL), 1),
    "pentagon-L1": (ps.polygon_domain(_PENTAGON), 1),
    # the triangle at L1 has no admissible cut (test_no_admissible_cut), so
    # its case is the next level, at p = 3 only (the slowest sweep here)
    "triangle-L2": (ps.polygon_domain(_TRIANGLE), 2),
}
_ORACLE_SWEEP_GRID = [
    (case, p, measure)
    for case in sorted(_ORACLE_SWEEPS)
    for p in ([3.0] if case == "triangle-L2" else [1.5, 3.0, 6.0])
    for measure in sorted(_MEASURES)
]


def _memo_side_solve(p, mesh, measure, opts):
    memo = {}

    def side_solve(mask):
        key = mask.tobytes()
        if key not in memo:
            memo[key] = spectral._side_ground_state(p, mesh, measure, np.nonzero(mask)[0], opts)
        return memo[key]

    return side_solve


class TestCutSweep:
    @pytest.mark.parametrize("case, p, measure", _ORACLE_SWEEP_GRID)
    def test_seeded_search_equals_bisection(self, case, p, measure):
        # the predicate is monotone, so the seeded search finds each
        # direction's bisection crossing: the same bound, field and best cut
        # from fewer cuts
        domain, level = _ORACLE_SWEEPS[case]
        m = ps.build_mesh(domain, level)
        mu, opts = _MEASURES[measure], SolverOptions()
        centroids = np.mean(m.nodes[m.elements], axis=1)
        lam, glued, n_cuts = bisection_cut_sweep(
            centroids, spectral._CUT_DIRECTIONS, m.n_nodes, _memo_side_solve(p, m, mu, opts)
        )
        est = spectral._cut_sweep_second(p, m, mu, opts)
        assert est.lam == lam
        # the field is glued from the two sides of the best cut, so equal
        # fields mean the same best cut
        assert np.array_equal(est.field.values, spectral._normalize(m, glued, p, mu))
        assert est.iterations <= n_cuts

    def test_no_admissible_cut(self):
        # the triangle at L1 has 4 interior nodes, and every hyperplane cut
        # leaves all of them on one side
        m = ps.build_mesh(ps.polygon_domain(_TRIANGLE), 1)
        side_solve = _memo_side_solve(3.0, m, ps.lebesgue(), SolverOptions())
        centroids = np.mean(m.nodes[m.elements], axis=1)
        with pytest.raises(ValueError):
            bisection_cut_sweep(centroids, spectral._CUT_DIRECTIONS, m.n_nodes, side_solve)
        with pytest.raises(ValueError, match="no hyperplane cut leaves interior nodes on both sides"):
            ps.second_eigenvalue(3.0, m, ps.lebesgue(), None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 400), data=st.data())
    def test_first_crossing(self, n, data):
        answer = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(-3, n + 3))
        probes = []

        def crossed(j):
            assert 1 <= j < n
            probes.append(j)
            return j >= answer

        assert spectral._first_crossing(crossed, n, seed) == answer
        # a gallop of about log2(d) probes to bracket an answer d cuts from
        # the clipped seed, then a bisection of the bracket
        d = abs(answer - min(max(seed, 1), max(n - 1, 1))) + 1
        assert len(probes) <= 2 * d.bit_length() + 1

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_bisection_equals_exhaustive_scan(self, case):
        domain, level, measure = _SWEEP_CASES[case]
        m = ps.build_mesh(domain, level)
        mu = _MEASURES[measure]
        opts = SolverOptions()
        memo = {}

        # the sweep's own side solve: this test checks the search
        def side_lambda(elements):
            key = elements.tobytes()
            if key not in memo:
                memo[key] = spectral._side_ground_state(3.0, m, mu, elements, opts)[0]
            return memo[key]

        centroids = np.mean(m.nodes[m.elements], axis=1)
        est = ps.second_eigenvalue(3.0, m, mu, None, opts)
        assert est.lam == exhaustive_cut_value(centroids, spectral._CUT_DIRECTIONS, side_lambda)
        assert est.converged and est.is_upper_bound

    def test_n_offsets_is_inert(self):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 1)
        default = ps.second_eigenvalue(3.0, m, ps.lebesgue(), None)
        few = ps.second_eigenvalue(3.0, m, ps.lebesgue(), None, SolverOptions(n_offsets=8))
        assert few.lam == default.lam and few.iterations == default.iterations

    def test_interval_bisection_sub_solve_count(self, cache, monkeypatch):
        expected = cache.second(3.0, "interval01", 4).lam
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return ps.first_eigenpair(*args, **kwargs)

        monkeypatch.setattr(spectral, "first_eigenpair", counted)
        est = ps.second_eigenvalue(3.0, cache.mesh("interval01", 4), ps.lebesgue(), None)
        # 255 distinct cuts; the first probe, the middle, is the crossing,
        # and one probe below it confirms it
        assert len(calls) <= 4
        assert est.lam == expected

    @pytest.mark.parametrize("p", [3.0, 6.0])
    def test_triangle_sub_solves_converge(self, monkeypatch, p):
        # solved whole, 3 of these sides (p = 3) and 1 (p = 6) ended
        # unconverged: two interior components, or elements that touch no
        # interior node
        pairs = []

        def recorded(*args, **kwargs):
            pairs.append(ps.first_eigenpair(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(spectral, "first_eigenpair", recorded)
        m = ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2)
        est = ps.second_eigenvalue(p, m, ps.lebesgue(), None)
        # the seeded search runs 190 (p = 3) and 204 (p = 6) sub-solves, a
        # bisection per direction ran 263 and 281
        assert est.converged and 190 <= len(pairs) <= 204
        assert all(pair.converged for pair in pairs)

    @pytest.mark.parametrize("k, j, n_components, n_dropped", [(6, 19, 2, 1), (7, 18, 2, 2), (5, 5, 1, 3)])
    def test_split_side_is_the_whole_side(self, k, j, n_components, n_dropped):
        # Omega+ of the triangle at direction k pi / 32 and cut j, with two
        # interior components or with elements that touch no interior node:
        # at p = 2 the sub-mesh solved whole converges, and its lambda1 is
        # the least component lambda1
        m = ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2)
        mu = ps.lebesgue()
        theta = k * np.pi / 32.0
        proj = np.mean(m.nodes[m.elements], axis=1) @ np.array([np.cos(theta), np.sin(theta)])
        elements = np.nonzero(proj >= np.unique(proj)[j])[0]
        sub = submesh(m, elements)[0]
        components = interior_components_nested(sub)
        assert len(components) == n_components
        assert sub.n_elements - sum(c.size for c in components) == n_dropped
        lam, pair, node_map = spectral._side_ground_state(2.0, m, mu, elements, SolverOptions())
        whole = ps.first_eigenpair(2.0, sub, mu)
        assert pair.converged and whole.converged
        assert abs(lam - whole.lam) <= 1e-12 * whole.lam
        # the component's ground state, put on the parent mesh, has quotient lam
        glued = np.zeros(m.n_nodes)
        glued[node_map] = pair.field.values
        assert abs(ps.rayleigh_quotient(2.0, ps.Field(m, glued), mu) - lam) <= 1e-12 * lam

    @pytest.mark.parametrize("shape", ["triangle", "quadrilateral", "pentagon"])
    def test_sides_cut_from_the_parent_equal_nested_sub_meshes(self, monkeypatch, shape):
        # every side of the p = 3 sweep on L2, solved on sub-meshes cut from
        # the parent, is bitwise the side solved on a nested sub-mesh of the
        # side's own sub-mesh; one sub-mesh per sub-solve
        vertices = {"triangle": _TRIANGLE, "quadrilateral": _QUADRILATERAL, "pentagon": _PENTAGON}[shape]
        m = ps.build_mesh(ps.polygon_domain(vertices), 2)
        side_solve = spectral._side_ground_state
        calls = {"submesh": 0, "first_eigenpair": 0, "sides": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def checked(p, mesh, measure, elements, opts):
            got = side_solve(p, mesh, measure, elements, opts)
            want = side_ground_state_nested(p, mesh, measure, elements, opts, submesh, ps.first_eigenpair)
            calls["sides"] += 1
            assert got[0] == want[0]
            if want[1] is None:
                assert got[1] is None and got[2] is None
            else:
                assert np.array_equal(got[2], want[2])
                assert np.array_equal(got[1].field.values, want[1].field.values)
                assert got[1].converged == want[1].converged
            return got

        monkeypatch.setattr(spectral, "_side_ground_state", checked)
        monkeypatch.setattr(spectral, "submesh", counted("submesh", submesh))
        monkeypatch.setattr(spectral, "first_eigenpair", counted("first_eigenpair", ps.first_eigenpair))
        est = ps.second_eigenvalue(3.0, m, ps.lebesgue(), None)
        assert est.converged and calls["sides"] > 100
        assert calls["submesh"] == calls["first_eigenpair"]

    @pytest.mark.parametrize("p", [3.0, 6.0])
    @pytest.mark.parametrize("level", [1, 4])
    def test_interval_sides_solved_whole(self, monkeypatch, level, p):
        # an interval side is one component with every element touching an
        # interior node, so the sweep is bitwise the one that solves each
        # side's sub-mesh whole
        m = ps.build_mesh(ps.interval_domain(0.0, 1.0), level)
        est = ps.second_eigenvalue(p, m, ps.lebesgue(), None)

        def whole_side(p, mesh, measure, elements, opts):
            sub, node_map = submesh(mesh, elements)
            if not np.any(sub.interior):
                return np.inf, None, None
            pair = ps.first_eigenpair(p, sub, measure, opts)
            return pair.lam, pair, node_map

        monkeypatch.setattr(spectral, "_side_ground_state", whole_side)
        ref = ps.second_eigenvalue(p, m, ps.lebesgue(), None)
        assert est.lam == ref.lam and est.iterations == ref.iterations
        assert np.array_equal(est.field.values, ref.field.values)

    def test_converged_only_with_converged_sub_solves(self, cache):
        m = cache.mesh("interval01", 1)
        assert ps.second_eigenvalue(3.0, m, ps.lebesgue(), None).converged
        est = ps.second_eigenvalue(3.0, m, ps.lebesgue(), None, SolverOptions(max_outer=1))
        assert not est.converged
        # still an upper bound: the glued field is admissible
        assert ps.rayleigh_quotient(3.0, est.field, ps.lebesgue()) <= est.lam * (1.0 + 1e-12)


class TestSecondEigenvalue:
    def test_interval_deflation(self, cache):
        pair2 = cache.second(2.0, "interval01", 4)
        assert abs(pair2.lam - 4.0 * PI2) <= 5e-3 * 4.0 * PI2
        assert pair2.estimator == "deflation"
        assert not pair2.is_upper_bound

    def test_square_deflation(self, cache):
        pair2 = cache.second(2.0, "square", 4)
        assert abs(pair2.lam - 5.0 * PI2) <= 0.015 * 5.0 * PI2

    def test_strictly_above_first(self, cache):
        for (p, name, level) in [(2.0, "interval01", 4), (2.0, "square", 4), (3.0, "interval01", 4)]:
            u1 = cache.pair(p, name, level)
            u2 = cache.second(p, name, level)
            assert u2.lam > u1.lam

    def test_midpoint_cut_matches_deflation(self, cache):
        # lambda_1 of each half interval is (pi / 0.5)^2 = 4 pi^2
        m = cache.mesh("interval01", 4)
        est = spectral._cut_sweep_second(2.0, m, ps.lebesgue(), SolverOptions())
        assert est.is_upper_bound and est.estimator == "nodal-cut"
        assert abs(est.lam - 4.0 * PI2) <= 5e-3 * 4.0 * PI2
        defl = cache.second(2.0, "interval01", 4)
        assert abs(est.lam - defl.lam) <= 5e-3 * defl.lam

    def test_p3_upper_bound_flagged(self, cache):
        est = cache.second(3.0, "interval01", 4)
        assert est.is_upper_bound
        assert est.estimator == "nodal-cut"
        # frozen: lambda_2(3, (0,1)) = 2^3 * lambda_1 by half-interval scaling
        exact = 8.0 * 28.288761976002555
        assert est.lam >= exact * (1.0 - 1e-6)
        assert est.lam <= exact * 1.05

    def test_sign_change_of_glued_field(self, cache):
        est = cache.second(3.0, "interval01", 4)
        vals = est.field.values
        assert vals.min() < 0.0 < vals.max()

    def test_square_nodal_cut_matches_deflation(self, cache):
        # the fan mesh is symmetric about the diagonals, which are mesh lines,
        # so the best cut's half-square ground state is the discrete lambda_2
        m = cache.mesh("square", 2)
        est = spectral._cut_sweep_second(2.0, m, ps.lebesgue(), SolverOptions())
        defl = cache.second(2.0, "square", 2)
        assert abs(defl.lam - 54.501373) <= 1e-6 * 54.501373
        assert abs(est.lam - defl.lam) <= 1e-6 * defl.lam

    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("name,level", [("interval01", 4), ("square", 3)])
    def test_p2_pairs_match_eigsh(self, cache, name, level, measure):
        # on the square the Gaussian lambda_2 and lambda_3 differ by 5e-5
        # relative, which a single-vector deflation does not resolve
        m = cache.mesh(name, level)
        mu = ps.gaussian() if measure == "gaussian" else ps.lebesgue()
        i = m.interior
        K = spectral.weighted_stiffness(m, mu)[i][:, i].tocsc()
        M = spectral.weighted_mass(m, mu)[i][:, i].tocsc()
        lam = np.sort(eigsh(K, k=3, M=M, sigma=0, return_eigenvectors=False))
        first = cache.pair(2.0, name, level, measure)
        second = cache.second(2.0, name, level, measure)
        assert second.converged
        assert abs(first.lam - lam[0]) <= 1e-9 * lam[0]
        assert abs(second.lam - lam[1]) <= 1e-9 * lam[1]

    def test_deflation_needs_two_interior_nodes(self, cache):
        # square level 0: the centroid is the only interior node
        m = cache.mesh("square", 0)
        u1 = cache.pair(2.0, "square", 0)
        with pytest.raises(ValueError, match="too few interior nodes"):
            ps.second_eigenvalue(2.0, m, ps.lebesgue(), u1)

    def test_unconverged_first_pair_rejected(self, cache):
        m = cache.mesh("interval01", 3)
        opts = SolverOptions(max_outer=2)
        with pytest.warns(UserWarning):
            bad = ps.first_eigenpair(3.0, m, ps.lebesgue(), opts)
        with pytest.raises(ValueError):
            ps.second_eigenvalue(3.0, m, ps.lebesgue(), bad)


def _random_values(mesh, seed, n_fields=2):
    rng = np.random.default_rng(seed)
    return [ps.random_zero_trace_field(mesh, rng).values for _ in range(n_fields)]


class TestGradEnergy:
    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("name, level", [("square", 3), ("interval01", 4)])
    def test_bitwise_equal_to_field_formula(self, cache, name, level, measure):
        m = cache.mesh(name, level)
        mu = _MEASURES[measure]
        fields = np.array(_random_values(m, 3, n_fields=3))
        de = np.sum(m.quad_weights * m.density_at_quad(mu), axis=1)
        for p in (1.5, 2.0, 3.0, 6.0):
            energies = []
            for values in fields:
                g = m.gradients(values)
                gn = np.sqrt(np.sum(g * g, axis=1))
                energies.append(ps.grad_energy(p, ps.Field(m, values), mu))
                assert energies[-1] == float(np.sum(gn**p * de))
            block = spectral.gradient_energies(p, m.gradients(fields), m.element_density_integrals(mu))
            assert block.tolist() == energies


    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("name, level", [("square", 3), ("interval01", 4)])
    def test_lp_energies_rows_bitwise(self, cache, name, level, measure):
        m = cache.mesh(name, level)
        mu = _MEASURES[measure]
        w = m.measure_weights(mu)
        values = np.array(_random_values(m, 5, n_fields=3))
        uq = m.values_at_quad(values)
        for p in (1.5, 2.0, 3.0, 6.0):
            rows = [float(spectral.lp_energies(p, u, w)) for u in uq]
            assert rows == [float(np.sum(w * np.abs(u) ** p)) for u in uq]
            assert spectral.lp_energies(p, uq, w).tolist() == rows
            # the flattened rows of the distance kernel
            assert spectral.lp_energies(p, uq.reshape(len(uq), -1), w.ravel()).tolist() == rows
            for v, row in zip(values, rows):
                f = ps.Field(m, v)
                assert ps.rayleigh_quotient(p, f, mu) == ps.grad_energy(p, f, mu) / row


class TestDistanceToBoundary:
    # square level 5 takes several edge blocks, the other meshes one
    @pytest.mark.parametrize("case", ["square", "square-L5", "pentagon", "cut"])
    def test_matches_edge_loop(self, cache, case):
        if case == "pentagon":
            angles = 0.3 + 2.0 * np.pi * np.arange(5) / 5.0
            m = ps.build_mesh(ps.polygon_domain(np.stack([np.cos(angles), np.sin(angles)], 1)), 3)
        elif case.startswith("square"):
            m = cache.mesh("square", 5 if case == "square-L5" else 3)
        else:
            m = cache.mesh("square", 2)
            centroids = np.mean(m.nodes[m.elements], axis=1)
            m, _ = submesh(m, np.nonzero(centroids[:, 1] > 0.5)[0])
        d = spectral._distance_to_boundary(m)
        assert np.array_equal(d, distance_to_boundary_loop(m))
        if case == "cut":
            assert np.all(d == 0.0)
        else:
            assert np.all(d[m.interior] > 0.0)


class TestInteriorAssembly:
    @pytest.mark.parametrize("case", ["interval", "square", "cut"])
    def test_matches_sliced_global_assembly(self, cache, case):
        if case == "interval":
            m = cache.mesh("interval01", 3)
        else:
            m = cache.mesh("square", 2)
        if case == "cut":
            centroids = np.mean(m.nodes[m.elements], axis=1)
            m, _ = submesh(m, np.nonzero(centroids @ [1.0, 0.3] > 0.6)[0])
        rng = np.random.default_rng(7)
        w = rng.uniform(0.1, 2.0, m.n_elements)
        i = m.interior
        for mu in (ps.lebesgue(), ps.gaussian()):
            local_w = spectral._stiffness_local(m, m.element_density_integrals(mu) * w)
            pairs = [
                (local_w, spectral._assemble_csc(m, local_w, "all")),
                (spectral._mass_local(m, m.measure_weights(mu)), spectral.weighted_mass(m, mu)),
            ]
            for local, full in pairs:
                got = spectral._assemble_csc(m, local).toarray()
                want = full[i][:, i].toarray()
                assert got.shape == (np.count_nonzero(i),) * 2
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestFullAssembly:
    @pytest.mark.parametrize("shape", ["interval", "square", "triangle"])
    @pytest.mark.parametrize("level", range(6))
    def test_matches_coo_oracle(self, shape, level):
        if shape == "interval":
            domain = ps.interval_domain(0.0, 1.0)
        else:
            domain = ps.polygon_domain(_SQUARE if shape == "square" else [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
        m = ps.build_mesh(domain, level)
        w = np.random.default_rng(level).uniform(0.1, 2.0, m.n_elements)
        for mu in _MEASURES.values():
            de = m.element_density_integrals(mu)
            cases = [
                (spectral.weighted_stiffness(m, mu), m.grad_gram * de[:, None, None]),
                (spectral._assemble_csc(m, spectral._stiffness_local(m, de * w), "all"),
                 m.grad_gram * (de * w)[:, None, None]),
                (spectral.weighted_mass(m, mu), np.einsum("mq,qi,qj->mij", m.measure_weights(mu), m.basis, m.basis)),
            ]
            for got, local in cases:
                want = coo_assemble(m, local).tocsc()
                assert got.shape == want.shape
                assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
                # the two add each entry's element terms in different orders
                assert np.all(np.abs(got.data - want.data) <= 1e-15 * np.abs(want.data))


class TestLogConcavity:
    def test_midpoint_battery_square(self, cache):
        pair = cache.pair(2.0, "square", 3)
        mesh = cache.mesh("square", 3)
        u = pair.field
        vals = u.values
        umax = vals.max()
        interior = np.nonzero(mesh.interior & (vals > 1e-3 * umax))[0]
        rng = np.random.default_rng(5)
        h = mesh.h
        fails = 0
        for _ in range(300):
            i, j = rng.choice(interior, 2, replace=False)
            um = u(0.5 * (mesh.nodes[i] + mesh.nodes[j])[None, :])[0]
            tau = 0.5 * h * h * pair.lam * umax * (
                1.0 / vals[i] + 1.0 / vals[j] + 1.0 / max(um, 1e-300)
            )
            if um <= 0.0 or math.log(um) < 0.5 * (
                math.log(vals[i]) + math.log(vals[j])
            ) - tau:
                fails += 1
        assert fails == 0


class TestOptionsAndExport:
    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        assert SolverOptions().tol == 1e-10

    def test_eigenpair_json_export(self, cache):
        pair = cache.pair(2.0, "interval01", 4)
        d = pair.to_json_dict("mesh.txt")
        assert d["lambda"] == pytest.approx(pair.lam)
        assert d["iterations"] == pair.iterations
        assert d["nodal_values"]["mesh_file"] == "mesh.txt"
        assert len(d["nodal_values"]["values"]) == pair.field.values.size
        assert d["residual_history"][-1] == pytest.approx(pair.lam)
        assert d["lambda2_is_upper_bound"] is False
