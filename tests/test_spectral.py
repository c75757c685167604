import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import eigsh, splu, spsolve

import plapstab as ps
from plapstab import cli, spectral
from plapstab.geometry import Mesh, read_mesh, submesh, write_mesh
from plapstab.spectral import SolverOptions

from oracles import (
    bisection_cut_sweep,
    block_inverse_iteration_second,
    coo_assemble,
    distance_to_boundary_loop,
    euler_lagrange_residual,
    exhaustive_cut_value,
    gaussian_weight,
    gradient_energies_pow,
    gradients_einsum,
    grads_dot_einsum,
    interior_components_nested,
    jacobian_mesh_form,
    lambda1_interval_quadrature,
    lp_energies_pow,
    mass_local_einsum,
    normalize_mesh_form,
    outer_loop_full_evaluation,
    pi_p_quad_oracle,
    quotient_mesh_form,
    residual_floor_mesh_form,
    shooting_eigenvalue,
    side_components_nested,
    squared_norms_reduce,
    system_mesh_form,
    unit_weight,
    values_at_quad_einsum,
    vertex_sum_reduce,
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

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 40.0])
    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("name", ["interval01", "square"])
    def test_zero_field_rejected_without_warning(self, cache, name, measure, p):
        # the quotient 0 / 0 is taken without a floating-point warning and
        # raised as ValueError
        m = cache.mesh(name, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero field"):
                ps.rayleigh_quotient(p, ps.Field(m, np.zeros(m.n_nodes)), _MEASURES[measure])


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

    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("name, level", [("interval01", 5), ("square", 3)])
    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_monotone_rayleigh_history(self, cache, p, name, level, measure):
        # a step may raise the quotient by at most _NEWTON_RISE relative
        h = np.asarray(cache.pair(p, name, level, measure).residual_history)
        assert np.all(np.diff(h) <= spectral._NEWTON_RISE * h[:-1])

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
_THIN_RECTANGLE = [[0, 0], [4, 0], [4, 0.5], [0, 0.5]]
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
        lam = spectral._euler_lagrange(p, spectral._context(m, _MEASURES[measure]), u)[0]
        assert lam == ps.rayleigh_quotient(p, ps.Field(m, u), _MEASURES[measure])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=st.sampled_from([1.5, 2.0, 3.0, 6.0]), measure=st.sampled_from(sorted(_MEASURES)),
           name=st.sampled_from(["interval01", "square"]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_normalize_is_lp_norm_bitwise(self, cache, p, measure, name, seed, scale):
        m = cache.mesh(name, 3)
        v = scale * np.random.default_rng(seed).standard_normal(m.n_nodes)
        mu = _MEASURES[measure]
        want = v / spectral.lp_norm(ps.Field(m, v), p, mu)
        assert spectral._normalize(spectral._context(m, mu), v, p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("key", [("interval", 5), ("triangle", 3), ("pentagon", 3)], ids=_grid_id)
    def test_residual_matches_element_loop(self, grid_mesh, key, measure):
        m = grid_mesh(key)
        mu = _MEASURES[measure]
        (u,) = _random_values(m, 11, n_fields=1)
        for p in (1.5, 3.0, 10.0):
            for values in (u, ps.first_eigenpair(p, m, mu).field.values):
                lam, b, r, rel, terms = spectral._euler_lagrange(p, spectral._context(m, mu), values)
                floor = spectral._residual_floor(p, spectral._context(m, mu), terms, r + lam * b)
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
        ctx = spectral._context(m, mu)
        lam, _, _, _, terms = spectral._euler_lagrange(p, ctx, u)
        jac = spectral._assemble_csc(m, spectral._jacobian(p, ctx, lam, terms))

        def F(w):
            lam_w, b_w, r_w, _, _ = spectral._euler_lagrange(p, spectral._context(m, mu), w)
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
        ctx = spectral._context(m, ps.gaussian())
        lam, _, _, _, terms = spectral._euler_lagrange(p, ctx, u)
        _, _, gn, ga, uw, gphi = terms
        # de |g|^(p-2) G G^T + (p-2) de |g|^(p-4) (G g)(G g)^T
        # - R (p-1) int |u|^(p-2) phi_i phi_j, written out
        gb = (p - 2.0) * spectral._guarded_power(gn, -2.0) * ga
        want = ga[:, None, None] * m.grad_gram + gb[:, None, None] * (gphi[:, :, None] * gphi[:, None, :])
        mass = spectral._mass_local(m, uw)
        want -= (lam * (p - 1.0)) * mass
        assert np.array_equal(spectral._jacobian(p, ctx, lam, terms), want)
        # the mass kernel's basis-product matmul against its einsum form; uw
        # >= 0, so every entry is a sum of nonnegative terms
        old = mass_local_einsum(m, uw)
        assert np.all(np.abs(mass - old) <= 1e-15 * old)


# ground states whose line searches reject trials: Newton steps on the
# Gaussian interval (up to 12 rejections a step), lagged steps rejected at t = 1
# on the square and on a cut sub-mesh; the level-2 triangle factors dense
_LINE_SEARCH_CASES = {
    "interval-L5-gaussian-p6": (lambda: ps.build_mesh(ps.interval_domain(0.0, 1.0), 5), "gaussian", 6.0, "newton"),
    "square-L3-lebesgue-p6": (lambda: ps.build_mesh(ps.polygon_domain(_SQUARE), 3), "lebesgue", 6.0, "lagged"),
    "square-L3-gaussian-p6": (lambda: ps.build_mesh(ps.polygon_domain(_SQUARE), 3), "gaussian", 6.0, "lagged"),
    "triangle-L2-lebesgue-p1.5": (lambda: ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2), "lebesgue", 1.5, None),
    "cut-square-L3-lebesgue-p6": (lambda: _oblique_cut(ps.build_mesh(ps.polygon_domain(_SQUARE), 3)),
                                  "lebesgue", 6.0, "lagged"),
}


def _oblique_cut(m):
    centroids = np.mean(m.nodes[m.elements], axis=1)
    return submesh(m, np.nonzero(centroids @ [1.0, 0.3] >= 0.45)[0])[0]


class TestLineSearch:
    @pytest.mark.parametrize("case", sorted(_LINE_SEARCH_CASES))
    def test_equals_full_evaluation_oracle(self, monkeypatch, case):
        build, measure, p, _ = _LINE_SEARCH_CASES[case]
        mu = _MEASURES[measure]
        got = ps.first_eigenpair(p, build(), mu)
        monkeypatch.setattr(spectral, "_outer_loop", lambda *a: outer_loop_full_evaluation(spectral, *a)[0])
        want = ps.first_eigenpair(p, build(), mu)
        assert got.converged and want.converged
        assert got.field.values.tobytes() == want.field.values.tobytes()
        assert (got.lam, got.iterations, got.residual, got.residual_floor) == (
            want.lam, want.iterations, want.residual, want.residual_floor)
        assert got.residual_history == want.residual_history

    @pytest.mark.parametrize("case", sorted(_LINE_SEARCH_CASES))
    def test_system_formed_only_where_a_step_can_pass(self, monkeypatch, case):
        # b, r and the Jacobian terms come from _system alone: at the start
        # and once per accepted step, never at a rejected trial
        build, measure, p, rejecting = _LINE_SEARCH_CASES[case]
        mu = _MEASURES[measure]
        m = build()
        _, steps = outer_loop_full_evaluation(spectral, p, spectral._context(m, mu), spectral._start_vector(m),
                                              SolverOptions())
        # quotients and systems per mode of the direction being searched,
        # which its factor tells: bordered for Newton
        counts = {mode: {"_quotient": 0, "_system": 0} for mode in ("start", "newton", "lagged")}
        mode = "start"
        kernels = {name: getattr(spectral, name) for name in ("_quotient", "_system", "_lu_solve")}

        def counter(name):
            def counted(*a):
                counts[mode][name] += 1
                return kernels[name](*a)

            return counted

        def factor(ctx, data, border=None):
            nonlocal mode
            mode = "lagged" if border is None else "newton"
            return kernels["_lu_solve"](ctx, data, border)

        monkeypatch.setattr(spectral, "_quotient", counter("_quotient"))
        monkeypatch.setattr(spectral, "_system", counter("_system"))
        monkeypatch.setattr(spectral, "_lu_solve", factor)
        assert ps.first_eigenpair(p, build(), mu).converged
        assert counts["start"] == {"_quotient": 1, "_system": 1}
        assert sum(c["_quotient"] for c in counts.values()) == 1 + steps["trials"]
        assert sum(c["_system"] for c in counts.values()) == 1 + steps["accepted"]
        if rejecting is not None:
            assert counts[rejecting]["_quotient"] > counts[rejecting]["_system"]


    @pytest.mark.parametrize("p", [3.0, 6.0])
    def test_trial_with_non_finite_quotient_is_rejected(self, monkeypatch, p):
        # the first two trials read a NaN and an infinite quotient: each is
        # rejected as a quotient that did not drop, without forming the
        # system or raising, and the step halves on to the next trial
        quotient, system = spectral._quotient, spectral._system
        calls = []

        def patched_quotient(*a):
            lam, pieces = quotient(*a)
            calls.append("q")
            return {2: math.nan, 3: math.inf}.get(calls.count("q"), lam), pieces

        def counted_system(*a):
            calls.append("s")
            return system(*a)

        monkeypatch.setattr(spectral, "_quotient", patched_quotient)
        monkeypatch.setattr(spectral, "_system", counted_system)
        pair = ps.first_eigenpair(p, ps.build_mesh(ps.polygon_domain(_SQUARE), 3), ps.lebesgue())
        assert calls[:5] == ["q", "s", "q", "q", "q"]
        assert len(pair.residual_history) == pair.iterations + 1
        assert pair.converged and np.all(np.isfinite(pair.residual_history))


# the meshes of the evaluation-context tests: the L2 polygons and the
# interval factor dense, the oblique cut of the square is a sub-mesh
_CONTEXT_MESHES = {
    "interval-L3": lambda: ps.build_mesh(ps.interval_domain(0.0, 1.0), 3),
    "square-L2": lambda: ps.build_mesh(ps.polygon_domain(_SQUARE), 2),
    "triangle-L2": lambda: ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2),
    "cut-square-L3": lambda: _oblique_cut(ps.build_mesh(ps.polygon_domain(_SQUARE), 3)),
}


class _CountingStore(dict):
    """A mesh store that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def setdefault(self, key, default=None):
        self.reads += 1
        return super().setdefault(key, default)


class TestEvaluationContext:
    # the kernels of an outer step read one _Context per mesh and measure;
    # their numbers are those of the forms that read the mesh and measure
    # on every call (tests/oracles.py), bit for bit
    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("name", sorted(_CONTEXT_MESHES))
    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_kernels_equal_the_mesh_forms_bitwise(self, monkeypatch, name, measure, p):
        m = _CONTEXT_MESHES[name]()
        mu = _MEASURES[measure]
        ctx = spectral._context(m, mu)
        # every iterate and trial point of a ground-state solve, and a
        # random field
        fields = [np.where(m.interior, np.random.default_rng(1).uniform(0.5, 1.5, m.n_nodes), 0.0)]
        quotient = spectral._quotient

        def recorded(p_, ctx_, u):
            fields.append(u.copy())
            return quotient(p_, ctx_, u)

        monkeypatch.setattr(spectral, "_quotient", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ps.first_eigenpair(p, m, mu)
        monkeypatch.setattr(spectral, "_quotient", quotient)
        assert len(fields) > 3
        for u in fields[::max(1, len(fields) // 12)]:
            lam, pieces = spectral._quotient(p, ctx, u)
            want_lam, want_pieces = quotient_mesh_form(spectral, p, m, mu, u)
            assert lam == want_lam
            assert all(a.tobytes() == b.tobytes() for a, b in zip(pieces, want_pieces, strict=True))
            b, r, rel, terms = spectral._system(p, ctx, lam, pieces)
            want = system_mesh_form(spectral, p, m, mu, lam, pieces)
            assert (b.tobytes(), r.tobytes(), rel) == (want[0].tobytes(), want[1].tobytes(), want[2])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(terms, want[3], strict=True))
            assert spectral._jacobian(p, ctx, lam, terms).tobytes() == jacobian_mesh_form(
                spectral, p, m, lam, terms).tobytes()
            a = r + lam * b
            assert spectral._residual_floor(p, ctx, terms, a) == residual_floor_mesh_form(spectral, p, m, terms, a)
            v = u + 0.25 * fields[0]
            assert spectral._normalize(ctx, v, p).tobytes() == normalize_mesh_form(spectral, m, v, p, mu).tobytes()

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("name", sorted(_CONTEXT_MESHES))
    def test_norm_is_numpy_norm_bitwise(self, monkeypatch, name, measure):
        # the residuals, A_p(u) and floor vectors of ground-state solves
        m = _CONTEXT_MESHES[name]()
        mu = _MEASURES[measure]
        vectors = []
        system = spectral._system

        def recorded(p_, ctx_, lam, pieces):
            b, r, rel, terms = system(p_, ctx_, lam, pieces)
            vectors.extend([r, r + lam * b])
            return b, r, rel, terms

        monkeypatch.setattr(spectral, "_system", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for p in (1.5, 3.0, 6.0):
                ps.first_eigenpair(p, m, mu)
        assert len(vectors) > 10
        for v in vectors:
            assert spectral._norm(v) == np.linalg.norm(v)
            assert spectral._norm(v) / spectral._norm(vectors[1]) == float(
                np.linalg.norm(v) / np.linalg.norm(vectors[1]))

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("name", ["interval-L1", "square-L3"])
    @pytest.mark.parametrize("p", [3.0, 6.0])
    def test_outer_steps_read_no_store_entry(self, name, measure, p):
        # the reads of the mesh's store made by one ground-state solve do
        # not grow with its outer steps
        m = (ps.build_mesh(ps.interval_domain(0.0, 1.0), 1) if name == "interval-L1"
             else ps.build_mesh(ps.polygon_domain(_SQUARE), 3))
        mu = _MEASURES[measure]
        full = spectral._ground_state(p, m, mu, SolverOptions())
        assert full.converged and full.iterations >= 4
        reads, steps = [], []
        for max_outer in (1, 2, full.iterations // 2, full.iterations):
            m.cache = _CountingStore(m.cache)
            pair = spectral._ground_state(p, m, mu, SolverOptions(max_outer=max_outer))
            reads.append(m.cache.reads)
            steps.append(pair.iterations)
        assert steps == sorted(set(steps)) and steps[-1] == full.iterations
        assert len(set(reads)) == 1, (reads, steps)
        assert pair.lam == full.lam and pair.field.values.tobytes() == full.field.values.tobytes()

    def test_one_context_per_mesh_and_measure(self):
        m = ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2)
        contexts = {kind: spectral._context(m, ps.Measure(kind)) for kind in _MEASURES}
        assert contexts["lebesgue"] is not contexts["gaussian"]
        assert all(spectral._context(m, ps.Measure(kind)) is ctx for kind, ctx in contexts.items())
        ctx = contexts["gaussian"]
        assert ctx.w is m.measure_weights(ps.gaussian()) and ctx.de is m.element_density_integrals(ps.gaussian())
        assert np.array_equal(ctx.interior, np.flatnonzero(m.interior))
        assert ctx.pattern is m.pattern("interior") and ctx.operator is m.gradient_operator()
        assert np.array_equal(ctx.grad_sq, np.diagonal(m.grad_gram, axis1=1, axis2=2))
        assert np.array_equal(np.sqrt(ctx.grad_sq), ctx.grad_lengths)
        for a in (ctx.w, ctx.de, ctx.interior, ctx.grad_sq, ctx.grad_lengths):
            assert not a.flags.writeable
        # the contexts of a mesh share its one factor layout
        assert contexts["lebesgue"].layout is ctx.layout is m.cache["factor layout"]


class TestLpNorm:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=st.floats(1.05, 200.0), k=st.integers(-600, 600), measure=st.sampled_from(sorted(_MEASURES)),
           name=st.sampled_from(["interval01", "square"]), seed=st.integers(0, 2**32 - 1))
    def test_power_of_two_scaling(self, cache, p, k, measure, name, seed):
        # int |2^k u|^p leaves float range for most (p, k) here; the norm
        # scales by 2^k all the same, and _normalize still gives norm 1.
        # Where it stays in range the norm is the plain E^(1/p), and the
        # rounding of 1/p moves that by up to |ln E^(1/p)| 2^-53 relative
        # (2e-14 at a norm of 1e77): the second term of the tolerance
        m = cache.mesh(name, 3)
        mu = _MEASURES[measure]
        (u,) = _random_values(m, seed, n_fields=1)
        scaled = np.ldexp(u, k)
        want = math.ldexp(spectral.lp_norm(ps.Field(m, u), p, mu), k)
        tol = 1e-14 + 2.0**-53 * abs(math.log(want))
        assert abs(spectral.lp_norm(ps.Field(m, scaled), p, mu) - want) <= tol * want
        v = spectral._normalize(spectral._context(m, mu), scaled, p)
        assert abs(float(spectral.lp_energies(p, m.values_at_quad(v), m.measure_weights(mu))) - 1.0) <= 1e-13

    @pytest.mark.parametrize("p", [1.5, 3.0, 40.0])
    def test_in_range_norm_is_unscaled(self, cache, p):
        # inside [2^-1000, 2^1000] the norm is the plain (int |u|^p)^(1/p)
        m = cache.mesh("square", 3)
        (u,) = _random_values(m, 5, n_fields=1)
        uq, w = m.values_at_quad(u), m.measure_weights(ps.gaussian())
        assert spectral._lp_norm(p, uq, w) == float(spectral.lp_energies(p, uq, w)) ** (1.0 / p)

    def test_zero_values(self, cache):
        m = cache.mesh("square", 2)
        w = m.measure_weights(ps.lebesgue())
        assert spectral._lp_norm(40.0, np.zeros_like(w), w) == 0.0
        with pytest.raises(ValueError, match="zero field"):
            spectral._normalize(spectral._context(m, ps.lebesgue()), np.zeros(m.n_nodes), 40.0)


class TestLargeP:
    """Ground states where int |u|^p of the solver's directions leaves float
    range (from p = 31 on interval L5 and p = 30 on square L3)."""

    @pytest.mark.parametrize("p", [31.0, 40.0, 100.0, 200.0])
    def test_interval_matches_pi_p(self, cache, p):
        pair = ps.first_eigenpair(p, cache.mesh("interval01", 5), ps.lebesgue())
        ref = ps.pi_p(p) ** p
        assert pair.converged and abs(pair.lam - ref) <= 3e-4 * ref
        assert abs(ps.lp_norm(pair.field, p, ps.lebesgue()) - 1.0) <= 1e-13

    # lambda^(1/p) at p = 40, 100, 200; it falls toward 1/inradius (2 on
    # the square, 3.47 on the triangle; Juutinen, Lindqvist and Manfredi,
    # Arch. Ration. Mech. Anal. 148, 1999)
    @pytest.mark.parametrize("vertices, roots, limit", [
        (_SQUARE, (2.337, 2.169, 2.107), 2.0),
        (_TRIANGLE, (4.287, 4.061, 3.977), 3.47),
    ], ids=["square", "triangle"])
    def test_polygon_root_falls_toward_inradius(self, vertices, roots, limit):
        m = ps.build_mesh(ps.polygon_domain(vertices), 3)
        got = []
        for p, root in zip((40.0, 100.0, 200.0), roots):
            pair = ps.first_eigenpair(p, m, ps.lebesgue())
            assert pair.converged
            got.append(pair.lam ** (1.0 / p))
            assert abs(got[-1] - root) <= 1e-3
        assert got == sorted(got, reverse=True) and got[-1] > limit


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
        ctx = spectral._context(m, ps.lebesgue())
        lam, b, r, rel, terms = spectral._euler_lagrange(p, ctx, pair.field.values)
        assert pair.residual == rel
        assert pair.residual_floor == spectral._residual_floor(p, ctx, terms, r + lam * b)
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
        ctx = spectral._context(m, mu)
        lam, b, r, _, terms = spectral._euler_lagrange(p, ctx, u)
        floor = spectral._residual_floor(p, ctx, terms, r + lam * b)
        norm_a = np.linalg.norm(r + lam * b)
        rng = np.random.default_rng(5)
        moves = []
        for _ in range(8):
            w = u * (1.0 + 2.0**-53 * rng.uniform(-1.0, 1.0, u.size))
            moves.append(np.linalg.norm(spectral._euler_lagrange(p, ctx, w)[2] - r) / norm_a)
        assert max(moves) <= floor <= 8.0 * max(moves)

    @pytest.mark.parametrize("p", [3.0, 6.0, 10.0])
    def test_cut_submesh_converges(self, cache, p):
        sub = _cut_half_square(cache)
        pair = ps.first_eigenpair(p, sub, ps.lebesgue())
        assert pair.converged and pair.residual <= SolverOptions().tol
        assert np.all(pair.field.values[sub.interior] > 0.0)


class TestSingularNewtonSystem:
    def test_isolated_interior_node_returns_pair(self, monkeypatch):
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
        # the LAPACK info of every dense factorisation, by size
        factors = {size: [] for size in range(1, spectral._DENSE_MAX + 2)}
        getrf = spectral._getrf

        def recorded_getrf(a, **kwargs):
            out = getrf(a, **kwargs)
            factors[a.shape[0]].append(out[-1])
            return out

        monkeypatch.setattr(spectral, "_getrf", recorded_getrf)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = ps.first_eigenpair(3.0, sub, ps.lebesgue())
        assert isinstance(pair, ps.EigenPair)
        assert np.isfinite(pair.lam) and np.all(np.isfinite(pair.field.values))
        assert pair.converged == (pair.residual <= max(SolverOptions().tol, pair.residual_floor))
        # the sub-mesh's systems are factored dense, where the isolated
        # node's zero column fails getrf: every bordered factorisation
        # failed, and the lagged ones keep the dense layout
        n = np.count_nonzero(sub.interior)
        assert n <= spectral._DENSE_MAX
        assert factors[n] and all(info == 0 for info in factors[n])
        assert factors[n + 1] and all(info > 0 for info in factors[n + 1])
        assert _layout_kind(sub) == "dense"


class TestSingularLaggedSystem:
    def test_singular_lagged_factor_is_a_failed_direction(self, monkeypatch):
        # as where the lagged weights underflow to 0 around an interior node
        # at large p: a singular lagged factor fails its direction, as a
        # singular bordered one does, and Newton steps take over
        lu_solve = spectral._lu_solve
        lagged = []

        def singular_lagged(ctx, data, border=None):
            if border is None:
                lagged.append(data.size)
                raise RuntimeError("Factor is exactly singular")
            return lu_solve(ctx, data, border)

        monkeypatch.setattr(spectral, "_lu_solve", singular_lagged)
        pair = ps.first_eigenpair(3.0, ps.build_mesh(ps.polygon_domain(_SQUARE), 2), ps.lebesgue())
        assert lagged and isinstance(pair, ps.EigenPair)
        assert np.isfinite(pair.lam) and np.all(np.isfinite(pair.field.values))
        assert pair.converged and pair.residual <= SolverOptions().tol


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
        """A new Mesh object, so that no factor layout is cached on it yet."""
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


@pytest.fixture(scope="module")
def order_ground_state(order_mesh):
    """The ground state's nodal values on order_mesh(name, level, variant),
    solved once per mesh, p and measure on a mesh of its own."""
    solved = {}

    def get(name, level, variant, p, measure):
        key = (name, level, variant, p, measure)
        if key not in solved:
            m = order_mesh(name, level, variant)
            solved[key] = spectral._ground_state(p, m, _MEASURES[measure], SolverOptions()).field.values
        return solved[key]

    return get


class TestCachedColumnOrder:
    # the cached order is the interior pattern's reverse Cuthill-McKee
    # order, kept in its band layout with the gathers into band storage
    @staticmethod
    def _matrices(p, m, mu, u):
        """(data, border, fresh CSC) of a lagged, a bordered and the
        deflation matrix at u, as _lu_solve takes them, each CSC built
        apart from _lu_solve."""
        g = m.gradients(u)
        weights = (np.sum(g * g, axis=1) + 1e-4) ** (0.5 * (p - 2.0))
        lagged = spectral._assemble_csc(m, spectral._stiffness_local(m, m.element_density_integrals(mu) * weights))
        ctx = spectral._context(m, mu)
        lam, b, _, _, terms = spectral._euler_lagrange(p, ctx, u)
        jac = spectral._assemble_csc(m, spectral._jacobian(p, ctx, lam, terms))
        bordered = sparse.bmat([[jac, -b[:, None]], [b[None, :], None]], format="csc")
        stiffness = spectral._assemble_csc(m, spectral._stiffness_local(m, m.element_density_integrals(mu)))
        _, indices, indptr = m.pattern("interior")
        # every matrix's data is on the interior pattern
        for a in (lagged, jac, stiffness):
            assert np.array_equal(a.indices, indices) and np.array_equal(a.indptr, indptr)
        return [(lagged.data, None, lagged), (jac.data, (b, -b), bordered), (stiffness.data, None, stiffness)]

    # bordered systems above _DENSE_MAX unknowns: block elimination on the
    # banded LU of J, at random iterates and at converged ground states,
    # where J is singular up to rounding
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_ORDER_DOMAINS)), level=st.integers(3, 4),
           variant=st.sampled_from(["mesh", "cut", "read"]), p=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
           measure=st.sampled_from(sorted(_MEASURES)), seed=st.integers(0, 2**32 - 1))
    def test_bordered_solves_backward_stable(self, order_mesh, order_ground_state, name, level, variant, p,
                                             measure, seed):
        m = order_mesh(name, level, variant)
        assume(np.count_nonzero(m.interior) > spectral._DENSE_MAX)
        mu = _MEASURES[measure]
        rng = np.random.default_rng(seed)
        ground = order_ground_state(name, level, variant, p, measure)
        for u in (np.where(m.interior, rng.uniform(0.5, 1.5, m.n_nodes), 0.0), ground):
            data, border, fresh = self._matrices(p, m, mu, u)[1]
            size = fresh.shape[0]
            rhs = [rng.standard_normal(size), rng.standard_normal((size, 3))]
            # the first call builds the band layout, the next ones reuse it
            for solve in [spectral._lu_solve(_ctx(m), data, border) for _ in range(2)]:
                assert _layout_kind(m) == "band"
                _assert_backward_stable(fresh.toarray(), solve, rhs)
            # a zero row and column of J, or a zero border
            _assert_singular_caches_nothing(m, order_mesh(name, level, variant), data, border, rng)

    def test_band_layout_shared_per_mesh(self, monkeypatch):
        built = []
        band_layout = spectral._band_layout

        def counted(indices, indptr):
            built.append(indptr.size - 1)
            return band_layout(indices, indptr)

        monkeypatch.setattr(spectral, "_band_layout", counted)
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 3)
        n = np.count_nonzero(m.interior)
        # lagged and Newton factors at p = 3 and p = 2, and deflation's
        first = ps.first_eigenpair(3.0, m, ps.lebesgue())
        pair = ps.first_eigenpair(2.0, m, ps.gaussian())
        ps.second_eigenvalue(2.0, m, ps.gaussian(), pair)
        assert built == [n] and _layout_kind(m) == "band"
        assert ps.first_eigenpair(3.0, m, ps.lebesgue()).lam == first.lam
        assert not hasattr(spectral, "splu")
        # a sub-mesh is a new mesh: it builds its own (79 interior nodes,
        # above _DENSE_MAX)
        centroids = np.mean(m.nodes[m.elements], axis=1)
        sub, _ = submesh(m, np.nonzero(centroids[:, 0] > 0.25)[0])
        assert np.count_nonzero(sub.interior) > spectral._DENSE_MAX
        ps.first_eigenpair(3.0, sub, ps.lebesgue())
        assert built == [n, np.count_nonzero(sub.interior)] and _layout_kind(sub) == "band"
        # one of at most _DENSE_MAX unknowns (49) is factored dense, its
        # lagged and bordered matrices alike
        half, _ = submesh(m, np.arange(m.n_elements // 2))
        n_half = np.count_nonzero(half.interior)
        band, dense = _counted_band(monkeypatch), _counted_lapack(monkeypatch)
        ps.first_eigenpair(3.0, half, ps.lebesgue())
        assert len(built) == 2 and _layout_kind(half) == "dense"
        assert set(dense["getrf"]) == {n_half, n_half + 1} and band == {"pbtrf": [], "gbtrf": []}

    @pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
    def test_one_factorisation_per_step(self, monkeypatch, p):
        # each Newton step factors J once by banded LU and never tries
        # Cholesky on it; lagged steps factor the interior matrix by banded
        # Cholesky. At p = 2 the Lanczos steps of every call on the mesh and
        # measure share one banded Cholesky factor of the stiffness matrix,
        # made by the first call, and no bordered matrix is made
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 4)
        names = []
        lu_solve = spectral._lu_solve

        def counted(ctx, data, border=None):
            names.append("interior" if border is None else "bordered")
            return lu_solve(ctx, data, border)

        monkeypatch.setattr(spectral, "_lu_solve", counted)
        band = _counted_band(monkeypatch)
        pair = ps.first_eigenpair(p, m, ps.lebesgue())
        n = np.count_nonzero(m.interior)
        newton = names.count("bordered")
        lagged = names.count("interior")
        assert band["gbtrf"] == [n] * newton
        assert band["pbtrf"] == [n] * lagged
        if p == 2.0:
            assert names == ["interior"] and pair.converged
            pbtrs = _counted_band_solves(monkeypatch)

            def check(got):
                # no factor after the first call, and one solve per step
                assert names == ["interior"] and got.converged
                assert len(pbtrs) == got.iterations == len(got.residual_history)
                _assert_ritz_values_fall(got.residual_history)
                del pbtrs[:]

            check(ps.first_eigenpair(p, m, ps.lebesgue()))
            check(ps.second_eigenvalue(p, m, ps.lebesgue(), pair))
            assert names == ["interior"] and band["pbtrf"] == [n] and band["gbtrf"] == []
        else:
            assert newton >= 1 and lagged + newton == pair.iterations

    def test_failed_first_factorisation_caches_no_order(self):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 2)
        n = np.count_nonzero(m.interior)
        nnz = m.pattern("interior")[1].size
        with pytest.raises(RuntimeError):
            spectral._lu_solve(_ctx(m), np.zeros(nnz), (np.zeros(n), np.zeros(n)))
        assert _kept_layout(m) is None


def _counted_band(monkeypatch):
    """Record the size of every banded factorisation in spectral: Cholesky
    (pbtrf) and the LU (gbtrf) that follows where it breaks down."""
    calls = {"pbtrf": [], "gbtrf": []}
    pbtrf, gbtrf = spectral._pbtrf, spectral._gbtrf

    def counted_pbtrf(ab, **kwargs):
        calls["pbtrf"].append(ab.shape[1])
        return pbtrf(ab, **kwargs)

    def counted_gbtrf(ab, kl, ku, **kwargs):
        calls["gbtrf"].append(ab.shape[1])
        return gbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(spectral, "_pbtrf", counted_pbtrf)
    monkeypatch.setattr(spectral, "_gbtrf", counted_gbtrf)
    return calls


def _assert_ritz_values_fall(history):
    """The Ritz values of a Lanczos solve do not increase, to rounding."""
    h = np.asarray(history)
    assert np.all(np.diff(h) <= 1e-14 * h[:-1])


def _counted_band_solves(monkeypatch):
    """Record the size of every banded Cholesky solve (pbtrs) in spectral."""
    calls = []
    pbtrs = spectral._pbtrs

    def counted(factor, rhs, **kwargs):
        calls.append(factor.shape[1])
        return pbtrs(factor, rhs, **kwargs)

    monkeypatch.setattr(spectral, "_pbtrs", counted)
    return calls


def _assert_backward_stable(a, solve, rhs):
    """solve(b) has the shape of b, and a normwise backward error, one
    right side at a time, of at most 1e-12, for each b in `rhs`."""
    size = a.shape[0]
    for b in rhs:
        x = solve(b)
        assert x.shape == b.shape
        r, x = (np.reshape(v, (size, -1)) for v in (a @ x - b, x))
        bound = 1e-12 * np.linalg.norm(a, np.inf) * np.max(np.abs(x), axis=0)
        assert np.all(np.max(np.abs(r), axis=0) <= bound)


def _ctx(m):
    """A _Context of the mesh m, for the linear solves, which read only its
    interior pattern and the mesh's factor layout."""
    return spectral._context(m, ps.lebesgue())


def _kept_layout(m):
    """The factor layout that the mesh keeps (_lu_solve), or None."""
    kept = m.cache.get("factor layout")
    return kept[0] if kept else None


def _layout_kind(m):
    """"dense" or "band", the kind of factor layout that the mesh keeps
    (each entry's row and column and n, or _band_layout's five arrays)."""
    return {3: "dense", 5: "band"}[len(_kept_layout(m))]


def _assert_singular_caches_nothing(m, other, data, border, rng):
    """An exact zero row and column of the matrix with `data` and `border`
    (both, since the banded factor reads an interior matrix's upper triangle
    alone; row and column n of a bordered matrix are its border) raise
    RuntimeError on the mesh m, which keeps its layout, and on `other`, a
    new mesh like m, which then caches no layout."""
    _, indices, indptr = m.pattern("interior")
    n = indptr.size - 1
    j = int(rng.integers(n + (border is not None)))
    data = data.copy()
    border = None if border is None else tuple(v.copy() for v in border)
    if j < n:
        data[indptr[j]:indptr[j + 1]] = 0.0
        data[indices == j] = 0.0
    for v in border or ():
        v[j if j < n else slice(None)] = 0.0
    layout = _kept_layout(m)
    with pytest.raises(RuntimeError):
        spectral._lu_solve(_ctx(m), data, border)
    assert _kept_layout(m) is layout
    with pytest.raises(RuntimeError):
        spectral._lu_solve(_ctx(other), data, border)
    assert _kept_layout(other) is None


class TestBandFactor:
    # interior systems above _DENSE_MAX unknowns: banded Cholesky in reverse
    # Cuthill-McKee order
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_ORDER_DOMAINS)), level=st.integers(3, 4),
           variant=st.sampled_from(["mesh", "cut", "read"]), p=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
           measure=st.sampled_from(sorted(_MEASURES)), seed=st.integers(0, 2**32 - 1))
    def test_band_solves(self, order_mesh, name, level, variant, p, measure, seed):
        m = order_mesh(name, level, variant)
        n = np.count_nonzero(m.interior)
        assume(n > spectral._DENSE_MAX)
        mu = _MEASURES[measure]
        rng = np.random.default_rng(seed)
        u = np.where(m.interior, rng.uniform(0.5, 1.5, m.n_nodes), 0.0)
        # a lagged matrix and the stiffness matrix
        for data, border, fresh in TestCachedColumnOrder._matrices(p, m, mu, u):
            if border is not None:
                continue
            rhs = [rng.standard_normal(n), rng.standard_normal((n, 3))]
            # the first call builds the band layout, the next ones reuse it
            for solve in [spectral._lu_solve(_ctx(m), data) for _ in range(2)]:
                assert _layout_kind(m) == "band"
                _assert_backward_stable(fresh.toarray(), solve, rhs)
            _assert_singular_caches_nothing(m, order_mesh(name, level, variant), data, None, rng)

    def test_layout_once_per_mesh(self, monkeypatch):
        built = []
        band_layout = spectral._band_layout

        def counted(indices, indptr):
            built.append(indptr.size - 1)
            return band_layout(indices, indptr)

        monkeypatch.setattr(spectral, "_band_layout", counted)
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 4)
        n = np.count_nonzero(m.interior)
        # lagged and Newton factors at p = 3, the p = 2 stiffness factor and
        # deflation
        ps.first_eigenpair(3.0, m, ps.lebesgue())
        pair = ps.first_eigenpair(2.0, m, ps.gaussian())
        ps.second_eigenvalue(2.0, m, ps.gaussian(), pair)
        assert built == [n]
        upper, position, kd, perm, general = _kept_layout(m)
        # the ordered square's bandwidth is about sqrt(n), against about n
        # in mesh order
        assert kd <= 31 and np.array_equal(np.sort(perm), np.arange(n))
        assert upper.size == position.size == (m.pattern("interior")[1].size + n) // 2
        assert general.shape == (2, upper.size)
        # a new mesh with the same nodes builds its own, the same one
        other = Mesh(m.nodes, m.elements)
        ps.first_eigenpair(3.0, other, ps.lebesgue())
        assert built == [n, n]
        pairs = zip(_kept_layout(other), _kept_layout(m), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    def test_indefinite_matrix_falls_back_to_band_lu(self, monkeypatch, measure):
        # K - 30 M lies between lambda1 (about 19-20) and lambda2 (about
        # 49-50) of the square at level 3: symmetric, nonsingular and
        # indefinite, so Cholesky breaks down and the banded LU solves
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 3)
        n = np.count_nonzero(m.interior)
        mu = _MEASURES[measure]
        K = spectral._assemble_csc(m, spectral._stiffness_local(m, m.element_density_integrals(mu)))
        M = spectral._assemble_csc(m, spectral._mass_local(m, m.measure_weights(mu)))
        shifted = K - 30.0 * M
        assert np.array_equal(shifted.indices, K.indices) and np.array_equal(shifted.indptr, K.indptr)
        calls = _counted_band(monkeypatch)
        solve = spectral._lu_solve(_ctx(m), shifted.data)
        assert calls == {"pbtrf": [n], "gbtrf": [n]}
        assert _layout_kind(m) == "band"
        rng = np.random.default_rng(7)
        _assert_backward_stable(shifted.toarray(), solve, [rng.standard_normal(n), rng.standard_normal((n, 3))])
        # the positive definite stiffness matrix on the same layout: Cholesky
        _assert_backward_stable(K.toarray(), spectral._lu_solve(_ctx(m), K.data), [rng.standard_normal(n)])
        assert calls == {"pbtrf": [n, n], "gbtrf": [n]}


def _counted_lapack(monkeypatch):
    """Record the size of every dense factorisation and solve in spectral."""
    calls = {"getrf": [], "getrs": []}
    getrf, getrs = spectral._getrf, spectral._getrs

    def counted_getrf(a, **kwargs):
        calls["getrf"].append(a.shape[0])
        return getrf(a, **kwargs)

    def counted_getrs(lu, piv, b, **kwargs):
        calls["getrs"].append(lu.shape[0])
        return getrs(lu, piv, b, **kwargs)

    monkeypatch.setattr(spectral, "_getrf", counted_getrf)
    monkeypatch.setattr(spectral, "_getrs", counted_getrs)
    return calls


class TestDenseFactor:
    # systems of at most _DENSE_MAX unknowns: the dense path
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_ORDER_DOMAINS)), level=st.integers(1, 3),
           variant=st.sampled_from(["mesh", "cut", "read"]), p=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
           measure=st.sampled_from(sorted(_MEASURES)), seed=st.integers(0, 2**32 - 1))
    def test_dense_solves(self, order_mesh, name, level, variant, p, measure, seed):
        m = order_mesh(name, level, variant)
        n = np.count_nonzero(m.interior)
        assume(2 <= n <= spectral._DENSE_MAX)
        mu = _MEASURES[measure]
        rng = np.random.default_rng(seed)
        u = np.where(m.interior, rng.uniform(0.5, 1.5, m.n_nodes), 0.0)
        for data, border, fresh in TestCachedColumnOrder._matrices(p, m, mu, u):
            a = fresh.toarray()
            size = a.shape[0]
            rhs = [rng.standard_normal(size), rng.standard_normal((size, 3))]
            # the first call caches the gather index, the next ones reuse it
            for solve in [spectral._lu_solve(_ctx(m), data, border) for _ in range(2)]:
                assert _layout_kind(m) == "dense"
                _assert_backward_stable(a, solve, rhs)
            _assert_singular_caches_nothing(m, order_mesh(name, level, variant), data, border, rng)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_size_switch(self, monkeypatch, n):
        # the interior unknowns alone choose the factor: at most _DENSE_MAX
        # of them, dense getrf of the n x n lagged and stiffness matrices and
        # of the (n + 1) x (n + 1) bordered one; above it, banded Cholesky of
        # the former and block elimination on the banded LU of J
        assert spectral._DENSE_MAX == 64
        m = Mesh(np.linspace(0.0, 1.0, n + 2), np.stack([np.arange(n + 1), np.arange(1, n + 2)], axis=1))
        assert np.count_nonzero(m.interior) == n
        rng = np.random.default_rng(n)
        u = np.where(m.interior, rng.uniform(0.5, 1.5, m.n_nodes), 0.0)
        dense, band = _counted_lapack(monkeypatch), _counted_band(monkeypatch)
        for data, border, fresh in TestCachedColumnOrder._matrices(3.0, m, ps.lebesgue(), u):
            size = fresh.shape[0]
            solve = spectral._lu_solve(_ctx(m), data, border)
            if n <= spectral._DENSE_MAX:
                assert dense["getrf"] == [size] and band == {"pbtrf": [], "gbtrf": []}
            elif border is None:
                assert dense["getrf"] == [] and band == {"pbtrf": [n], "gbtrf": []}
            else:
                assert dense["getrf"] == [] and band == {"pbtrf": [], "gbtrf": [n]}
            _assert_backward_stable(fresh.toarray(), solve, [rng.standard_normal(size), rng.standard_normal((size, 3))])
            for calls in (dense, band):
                for key in calls:
                    del calls[key][:]
        assert _layout_kind(m) == ("dense" if n <= spectral._DENSE_MAX else "band")

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("name, level", [("interval", 1), ("square", 2), ("triangle", 2), ("pentagon", 2)])
    def test_one_factor_for_every_p2_solve(self, monkeypatch, order_mesh, name, level, measure):
        # at p = 2 the ground state makes one dense factor of the stiffness
        # matrix on the new mesh, and deflation solves with the same factor;
        # each solves once per Lanczos step. No bordered and no banded
        # factor is made
        m = order_mesh(name, level, "mesh")
        n = np.count_nonzero(m.interior)
        assert n <= spectral._DENSE_MAX
        mu = _MEASURES[measure]
        band = _counted_band(monkeypatch)
        calls = _counted_lapack(monkeypatch)

        def check(got, factors):
            assert got.converged and got.iterations >= 2
            assert calls["getrf"] == factors and calls["getrs"] == [n] * got.iterations
            assert len(got.residual_history) == got.iterations
            _assert_ritz_values_fall(got.residual_history)
            for key in calls:
                del calls[key][:]

        pair = ps.first_eigenpair(2.0, m, mu)
        check(pair, [n])
        check(ps.second_eigenvalue(2.0, m, mu, pair), [])
        assert band == {"pbtrf": [], "gbtrf": []} and _layout_kind(m) == "dense"


def _pair_bytes(pair):
    """Everything a p = 2 pair's numbers are made of, as bytes."""
    return (pair.lam.hex(), pair.field.values.tobytes(), [float(v).hex() for v in pair.residual_history],
            pair.iterations, pair.converged, float(pair.residual).hex(), float(pair.residual_floor).hex())


_build_stiffness_factor = spectral._stiffness_factor.__wrapped__


def _kept_factors(m):
    """The (K, M, solve) of each measure kind that the mesh's store keeps."""
    return {key[1].kind: kept for key, kept in m.cache.items() if key[:1] == (_build_stiffness_factor,)}


class TestStiffnessFactorCache:
    # the first p = 2 solve on a mesh and measure kind factors the interior
    # stiffness matrix; the mesh keeps K, M and the factor's solve in its
    # store, and every later p = 2 solve there reads them
    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("level, kind", [(2, "dense"), (4, "band")])
    def test_one_factorisation_for_all_p2_calls(self, monkeypatch, measure, level, kind):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), level)
        n = np.count_nonzero(m.interior)
        mu = _MEASURES[measure]
        band, dense = _counted_band(monkeypatch), _counted_lapack(monkeypatch)
        pbtrs = _counted_band_solves(monkeypatch)
        solves = dense["getrs"] if kind == "dense" else pbtrs
        pairs = []
        for call in ("first", "first", "second"):
            pair = (ps.first_eigenpair(2.0, m, mu) if call == "first"
                    else ps.second_eigenvalue(2.0, m, mu, pairs[0]))
            # one solve per Lanczos step
            assert pair.converged and len(solves) == pair.iterations == len(pair.residual_history)
            del solves[:]
            pairs.append(pair)
        factors = dense["getrf"] + band["pbtrf"] + band["gbtrf"]
        assert factors == [n] and _layout_kind(m) == kind
        assert list(_kept_factors(m)) == [mu.kind]
        assert _pair_bytes(pairs[0]) == _pair_bytes(pairs[1])
        # no pair holds a factor, a matrix or a solve
        for pair in pairs:
            assert all(isinstance(v, (float, int, str, list, ps.Field)) for v in vars(pair).values())

    @pytest.mark.parametrize("first", sorted(_MEASURES))
    @pytest.mark.parametrize("level", [2, 4])
    def test_warm_pairs_bitwise_fresh(self, first, level):
        # both measures on one mesh, in either order, against each measure
        # alone on a mesh of its own
        domain = ps.polygon_domain(_SQUARE)
        second = "lebesgue" if first == "gaussian" else "gaussian"
        warm = ps.build_mesh(domain, level)
        for name in (first, second, first, second):
            mu = _MEASURES[name]
            fresh = ps.build_mesh(domain, level)
            want = ps.first_eigenpair(2.0, fresh, mu)
            want2 = ps.second_eigenvalue(2.0, fresh, mu, want)
            got = ps.first_eigenpair(2.0, warm, mu)
            got2 = ps.second_eigenvalue(2.0, warm, mu, got)
            assert _pair_bytes(got) == _pair_bytes(want)
            assert _pair_bytes(got2) == _pair_bytes(want2)
        assert sorted(_kept_factors(warm)) == sorted(_MEASURES)

    @pytest.mark.parametrize("level", [2, 4])
    def test_other_p_neither_reads_nor_fills(self, monkeypatch, level):
        domain = ps.polygon_domain(_SQUARE)
        m = ps.build_mesh(domain, level)
        want = ps.first_eigenpair(3.0, ps.build_mesh(domain, level), ps.lebesgue())
        got = ps.first_eigenpair(3.0, m, ps.lebesgue())
        assert _kept_factors(m) == {} and _pair_bytes(got) == _pair_bytes(want)
        ps.first_eigenpair(2.0, m, ps.lebesgue())
        kept = dict(_kept_factors(m))

        def poisoned(mesh, measure):
            raise AssertionError("a p != 2 solve read the stiffness factors")

        monkeypatch.setattr(spectral, "_stiffness_factor", poisoned)
        assert _pair_bytes(ps.first_eigenpair(3.0, m, ps.lebesgue())) == _pair_bytes(want)
        assert _kept_factors(m) == kept

    def test_failed_factorisation_keeps_nothing(self, monkeypatch):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 2)

        def singular(mesh, data, border=None):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spectral, "_lu_solve", singular)
        with pytest.raises(RuntimeError):
            ps.first_eigenpair(2.0, m, ps.lebesgue())
        assert _kept_factors(m) == {}

    def test_kept_matrices_read_only(self):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 3)
        ps.first_eigenpair(2.0, m, ps.gaussian())
        K, M, _ = _kept_factors(m)["gaussian"]
        for a in (K, M):
            with pytest.raises(ValueError):
                a.data[0] = 0.0


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


def _side_solve(p, mesh, measure, side, opts):
    """(lambda1, ground state or None, node map) of the side with element
    mask `side`: each of its spectral._side_components solved afresh on its
    own sub-mesh, the least kept (the first of a tie)."""
    best = (np.inf, None, None)
    for part in spectral._side_components(mesh, side):
        sub, node_map = submesh(mesh, np.nonzero(part)[0])
        pair = spectral._ground_state(p, sub, measure, opts)
        if pair.lam < best[0]:
            best = (pair.lam, pair, node_map)
    return best


def _memo_side_solve(p, mesh, measure, opts):
    # memoised by side alone: a component shared by two sides is solved for
    # each, as the sweep did before it memoised components
    memo = {}

    def side_solve(mask):
        key = mask.tobytes()
        if key not in memo:
            memo[key] = _side_solve(p, mesh, measure, mask, opts)
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
        assert np.array_equal(est.field.values, spectral._normalize(spectral._context(m, mu), glued, p))
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

        # the sweep's own side components: this test checks the search
        def side_lambda(elements):
            key = elements.tobytes()
            if key not in memo:
                side = np.zeros(m.n_elements, dtype=bool)
                side[elements] = True
                memo[key] = _side_solve(3.0, m, mu, side, opts)[0]
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
        ground_state = spectral._ground_state

        def counted(*args, **kwargs):
            calls.append(args[1])
            return ground_state(*args, **kwargs)

        # the side sub-solves are first_eigenpair without its warning
        monkeypatch.setattr(spectral, "_ground_state", counted)
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
        ground_state = spectral._ground_state

        def recorded(*args, **kwargs):
            pairs.append(ground_state(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(spectral, "_ground_state", recorded)
        m = ps.build_mesh(ps.polygon_domain(_TRIANGLE), 2)
        est = ps.second_eigenvalue(p, m, ps.lebesgue(), None)
        # the seeded search meets 65 (p = 3) and 68 (p = 6) distinct
        # components, each solved once; solved once per side that has them,
        # they took 190 and 204 sub-solves (a bisection per direction, 263
        # and 281)
        assert est.converged and 65 <= len(pairs) <= 68
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
        side = proj >= np.unique(proj)[j]
        sub = submesh(m, np.nonzero(side)[0])[0]
        components = interior_components_nested(sub)
        assert len(components) == n_components
        assert sub.n_elements - sum(c.size for c in components) == n_dropped
        parts = [submesh(m, np.nonzero(part)[0]) for part in spectral._side_components(m, side)]
        assert len(parts) == n_components
        pairs = [spectral._ground_state(2.0, part, mu, SolverOptions()) for part, _ in parts]
        assert all(pair.converged for pair in pairs)
        best = int(np.argmin([pair.lam for pair in pairs]))
        lam, pair, node_map = pairs[best].lam, pairs[best], parts[best][1]
        whole = ps.first_eigenpair(2.0, sub, mu)
        assert whole.converged
        assert abs(lam - whole.lam) <= 1e-12 * whole.lam
        # the component's ground state, put on the parent mesh, has quotient lam
        glued = np.zeros(m.n_nodes)
        glued[node_map] = pair.field.values
        assert abs(ps.rayleigh_quotient(2.0, ps.Field(m, glued), mu) - lam) <= 1e-12 * lam

    @pytest.mark.parametrize("shape", ["triangle", "quadrilateral", "pentagon"])
    def test_sides_cut_from_the_parent_equal_nested_sub_meshes(self, monkeypatch, shape):
        # every side of the p = 3 sweep on L2: its components, labelled on the
        # parent, are those found on the side's own sub-mesh, and each is
        # solved on a sub-mesh cut from the parent that is bitwise the nested
        # sub-mesh, with a bitwise equal ground state; one sub-mesh per
        # sub-solve
        vertices = {"triangle": _TRIANGLE, "quadrilateral": _QUADRILATERAL, "pentagon": _PENTAGON}[shape]
        m = ps.build_mesh(ps.polygon_domain(vertices), 2)
        mu, opts = ps.lebesgue(), SolverOptions()
        components, ground_state = spectral._side_components, spectral._ground_state
        sides = {}
        made = {}  # id of a sub-mesh -> (sub-mesh, component element bytes, node map)
        solved = {}  # component element bytes -> (sub-mesh, node map, ground state)

        def recorded_components(mesh, side):
            sides[side.tobytes()] = side.copy()
            return components(mesh, side)

        def recorded_submesh(mesh, element_idx):
            sub, node_map = submesh(mesh, element_idx)
            made[id(sub)] = (sub, element_idx.tobytes(), node_map)
            return sub, node_map

        def recorded_ground_state(p, mesh, measure, opts):
            pair = ground_state(p, mesh, measure, opts)
            sub, key, node_map = made[id(mesh)]
            assert key not in solved
            solved[key] = (sub, node_map, pair)
            return pair

        monkeypatch.setattr(spectral, "_side_components", recorded_components)
        monkeypatch.setattr(spectral, "submesh", recorded_submesh)
        monkeypatch.setattr(spectral, "_ground_state", recorded_ground_state)
        est = ps.second_eigenvalue(3.0, m, mu, None)
        assert est.converged and len(sides) > 100
        assert len(made) == len(solved)
        checked = set()
        for side in sides.values():
            got = [np.nonzero(part)[0] for part in components(m, side)]
            want = side_components_nested(m, np.nonzero(side)[0], submesh)
            assert [g.tolist() for g in got] == [w[0].tolist() for w in want]
            for elements, (_, nested, nested_map) in zip(got, want):
                sub, node_map, pair = solved[elements.tobytes()]
                assert np.array_equal(node_map, nested_map)
                assert sub.nodes.tobytes() == nested.nodes.tobytes()
                assert np.array_equal(sub.elements, nested.elements)
                assert np.array_equal(sub.boundary_mask, nested.boundary_mask)
                if elements.tobytes() not in checked:
                    checked.add(elements.tobytes())
                    ref = ground_state(3.0, nested, mu, opts)
                    assert pair.lam == ref.lam and pair.converged == ref.converged
                    assert np.array_equal(pair.field.values, ref.field.values)
        assert checked == set(solved)

    @pytest.mark.parametrize("shape, p", [("triangle", 3.0), ("triangle", 6.0), ("quadrilateral", 3.0),
                                          ("square", 3.0)])
    def test_one_sub_solve_per_distinct_component(self, monkeypatch, shape, p):
        # sides that differ only by elements touching no interior node share
        # a component; the sweep solves it once, on one sub-mesh
        m = ps.build_mesh(*_DIAGNOSED_SWEEPS[shape])
        components, ground_state = spectral._side_components, spectral._ground_state
        parts, meshed, calls = set(), [], []

        def recorded_components(mesh, side):
            found = components(mesh, side)
            parts.update(part.tobytes() for part in found)
            return found

        def recorded_submesh(mesh, element_idx):
            meshed.append(element_idx.tobytes())
            return submesh(mesh, element_idx)

        def counted(*args, **kwargs):
            calls.append(args[1])
            return ground_state(*args, **kwargs)

        monkeypatch.setattr(spectral, "_side_components", recorded_components)
        monkeypatch.setattr(spectral, "submesh", recorded_submesh)
        monkeypatch.setattr(spectral, "_ground_state", counted)
        est = ps.second_eigenvalue(p, m, ps.lebesgue(), None)
        assert est.converged
        assert len(calls) == len(meshed) == len(set(meshed)) == len(parts)
        assert set(meshed) == {np.nonzero(np.frombuffer(part, dtype=bool))[0].tobytes() for part in parts}

    @pytest.mark.parametrize("p", [3.0, 6.0])
    @pytest.mark.parametrize("level", [1, 4])
    def test_interval_sides_solved_whole(self, monkeypatch, level, p):
        # an interval side is one component with every element touching an
        # interior node, so the sweep is bitwise the one that solves each
        # side's sub-mesh whole
        m = ps.build_mesh(ps.interval_domain(0.0, 1.0), level)
        est = ps.second_eigenvalue(p, m, ps.lebesgue(), None)

        def whole_side(mesh, side):
            # the side itself as its one component, where it has interior nodes
            return [side] if np.any(submesh(mesh, np.nonzero(side)[0])[0].interior) else []

        monkeypatch.setattr(spectral, "_side_components", whole_side)
        ref = ps.second_eigenvalue(p, m, ps.lebesgue(), None)
        assert est.lam == ref.lam and est.iterations == ref.iterations
        assert np.array_equal(est.field.values, ref.field.values)

    def test_converged_only_with_converged_sub_solves(self, cache):
        m = cache.mesh("interval01", 1)
        assert ps.second_eigenvalue(3.0, m, ps.lebesgue(), None).converged
        with pytest.warns(UserWarning, match="side sub-solves did not converge"):
            est = ps.second_eigenvalue(3.0, m, ps.lebesgue(), None, SolverOptions(max_outer=1))
        assert not est.converged
        # still an upper bound: the glued field is admissible
        assert ps.rayleigh_quotient(3.0, est.field, ps.lebesgue()) <= est.lam * (1.0 + 1e-12)


# lambda2_hex of BENCH_12.json's sweep_table, written before the sides'
# systems were factored dense
_PINNED_SWEEPS = {
    ("interval", 3.0, "lebesgue"): "0x1.c6bc72ca221c6p+7",
    ("interval", 3.0, "gaussian"): "0x1.c2bf04a1794afp+7",
    ("triangle", 3.0, "lebesgue"): "0x1.2eeec875716dep+11",
    ("triangle", 3.0, "gaussian"): "0x1.2c6d057070021p+11",
    ("triangle", 6.0, "lebesgue"): "0x1.556fe6b6a8c47p+21",
    ("triangle", 6.0, "gaussian"): "0x1.4f7bcd0f9a9fep+21",
    ("quadrilateral", 3.0, "gaussian"): "0x1.1358b87a59367p+9",
}
# interval L1; square, triangle and quadrilateral (BENCH_12's, not
# _QUADRILATERAL) L2
_DIAGNOSED_SWEEPS = {
    "interval": (ps.interval_domain(0.0, 1.0), 1),
    "square": (ps.polygon_domain(_SQUARE), 2),
    "triangle": (ps.polygon_domain(_TRIANGLE), 2),
    "quadrilateral": (ps.polygon_domain([[0, 0], [1.3, 0], [1, 0.8], [0.1, 0.6]]), 2),
}


class TestSweepDiagnostics:
    @pytest.mark.parametrize("shape, p, measure", sorted(_PINNED_SWEEPS))
    def test_lambda2_pinned(self, shape, p, measure):
        # the sides are factored dense (at most _DENSE_MAX unknowns), the
        # pinned values by sparse LU: same bound to rounding
        domain, level = _DIAGNOSED_SWEEPS[shape]
        want = float.fromhex(_PINNED_SWEEPS[(shape, p, measure)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = spectral._cut_sweep_second(p, ps.build_mesh(domain, level), _MEASURES[measure], SolverOptions())
        assert est.converged
        assert abs(est.lam - want) <= 1e-12 * want

    @pytest.mark.parametrize("shape", ["interval", "triangle", "square"])
    def test_default_sweep_warns_nothing(self, shape):
        m = ps.build_mesh(*_DIAGNOSED_SWEEPS[shape])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ps.second_eigenvalue(3.0, m, ps.lebesgue(), None).converged

    def test_unconverged_sides_warn_once(self):
        m = ps.build_mesh(ps.interval_domain(0.0, 1.0), 1)
        with pytest.warns(UserWarning) as record:
            est = ps.second_eigenvalue(3.0, m, ps.lebesgue(), None, SolverOptions(max_outer=2))
        assert len(record) == 1
        unconverged = re.match(r"cut sweep: (\d+) side sub-solves did not converge", str(record[0].message))
        assert int(unconverged.group(1)) >= 1 and not est.converged


_KEPT_SWEEPS = {
    "interval-L1": (ps.interval_domain(0.0, 1.0), 1),
    "triangle-L2": (ps.polygon_domain(_TRIANGLE), 2),
    "thin-rectangle-L2": (ps.polygon_domain(_THIN_RECTANGLE), 2),
}


def _sweep_bytes(pair):
    """Everything a cut-sweep pair's numbers are made of, as bytes."""
    return pair.lam.hex(), pair.field.values.tobytes(), pair.iterations, pair.converged


def _recorded_submesh(monkeypatch):
    """Wrap spectral.submesh; returns the list of the element-mask bytes of
    each call, the keys of the sweep's "side meshes" entry in the store."""
    keys = []

    def recorded(mesh, element_idx):
        mask = np.zeros(mesh.n_elements, dtype=bool)
        mask[element_idx] = True
        keys.append(mask.tobytes())
        return submesh(mesh, element_idx)

    monkeypatch.setattr(spectral, "submesh", recorded)
    return keys


class TestKeptSideMeshes:
    # a sweep keeps its side sub-meshes in the mesh's store, and
    # the next sweep there takes over those of the components it shares
    # with it; the solves are not kept, so every sweep is a fresh one's

    @pytest.mark.parametrize("measure", sorted(_MEASURES))
    @pytest.mark.parametrize("case", sorted(_KEPT_SWEEPS))
    def test_repeated_sweeps_equal_fresh_ones(self, case, measure):
        mu, opts = _MEASURES[measure], SolverOptions()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh = {p: _sweep_bytes(spectral._cut_sweep_second(p, ps.build_mesh(*_KEPT_SWEEPS[case]), mu, opts))
                     for p in (3.0, 6.0)}
            m = ps.build_mesh(*_KEPT_SWEEPS[case])
            for p in (3.0, 6.0, 3.0, 3.0, 6.0):
                assert _sweep_bytes(spectral._cut_sweep_second(p, m, mu, opts)) == fresh[p]

    @pytest.mark.parametrize("case", ["triangle-L2", "thin-rectangle-L2"])
    def test_only_new_components_are_cut(self, monkeypatch, case):
        mu = ps.lebesgue()
        keys = _recorded_submesh(monkeypatch)
        spectral._cut_sweep_second(6.0, ps.build_mesh(*_KEPT_SWEEPS[case]), mu, SolverOptions())
        components6 = set(keys)
        keys.clear()
        m = ps.build_mesh(*_KEPT_SWEEPS[case])
        spectral._cut_sweep_second(3.0, m, mu, SolverOptions())
        components3 = set(keys)
        assert len(keys) == len(components3) and set(m.cache["side meshes"]) == components3
        kept = dict(m.cache["side meshes"])
        keys.clear()
        spectral._cut_sweep_second(3.0, m, mu, SolverOptions())
        assert keys == []
        assert m.cache["side meshes"].keys() == kept.keys()
        assert all(m.cache["side meshes"][key] is kept[key] for key in kept)
        spectral._cut_sweep_second(6.0, m, mu, SolverOptions())
        # the p = 6 sweep cuts only what the p = 3 sweep did not visit, and
        # the mesh keeps exactly the p = 6 sweep's components
        assert sorted(keys) == sorted(components6 - components3) and keys
        assert set(m.cache["side meshes"]) == components6 and components3 - components6
        assert all(m.cache["side meshes"][key] is kept[key] for key in components6 & components3)

    @pytest.mark.parametrize("k", [1, 5])
    def test_sweep_that_raises_leaves_the_mesh_usable(self, monkeypatch, k):
        domain, level = _KEPT_SWEEPS["triangle-L2"]
        mu, opts = ps.gaussian(), SolverOptions()
        fresh = _sweep_bytes(spectral._cut_sweep_second(3.0, ps.build_mesh(domain, level), mu, opts))
        m = ps.build_mesh(domain, level)
        spectral._cut_sweep_second(6.0, m, mu, opts)
        ground_state, calls = spectral._ground_state, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == k:
                raise RuntimeError("side solve failed")
            return ground_state(*args, **kwargs)

        monkeypatch.setattr(spectral, "_ground_state", failing)
        with pytest.raises(RuntimeError, match="side solve failed"):
            spectral._cut_sweep_second(3.0, m, mu, opts)
        # the failed sweep's sub-meshes, the one whose solve raised included
        assert len(m.cache["side meshes"]) == k
        monkeypatch.setattr(spectral, "_ground_state", ground_state)
        assert _sweep_bytes(spectral._cut_sweep_second(3.0, m, mu, opts)) == fresh


# p = 2 meshes on which deflation is checked against eigsh and the block
# inverse iteration oracle; the polygons are built here, the rest cached
_LANCZOS_POLYGONS = {
    "triangle": ps.polygon_domain(_TRIANGLE),
    "quadrilateral": ps.polygon_domain(_QUADRILATERAL),
    "pentagon": ps.polygon_domain(_PENTAGON),
}
_LANCZOS_CASES = (
    [("interval01", level) for level in range(2, 7)]
    + [("square", level) for level in range(1, 6)]
    + [(name, level) for name in _LANCZOS_POLYGONS for level in (2, 3, 4)]
)


def _interior_matrices(m, mu):
    i = m.interior
    return spectral.weighted_stiffness(m, mu)[i][:, i].tocsc(), spectral.weighted_mass(m, mu)[i][:, i].tocsc()


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
    @pytest.mark.parametrize("name,level", _LANCZOS_CASES)
    def test_p2_pairs_match_eigsh(self, cache, name, level, measure):
        mu = _MEASURES[measure]
        if name in _LANCZOS_POLYGONS:
            m = ps.build_mesh(_LANCZOS_POLYGONS[name], level)
            first = ps.first_eigenpair(2.0, m, mu)
            second = ps.second_eigenvalue(2.0, m, mu, first)
        else:
            m = cache.mesh(name, level)
            first, second = cache.pair(2.0, name, level, measure), cache.second(2.0, name, level, measure)
        tol = SolverOptions().tol
        assert second.converged and second.estimator == "deflation"
        assert second.residual <= tol
        K, M = _interior_matrices(m, mu)
        lam = np.sort(eigsh(K, k=3, M=M, sigma=0, return_eigenvectors=False))
        theta, _, rel, _ = block_inverse_iteration_second(K, M, first.field.values[m.interior], tol=tol)
        assert rel <= tol
        assert abs(first.lam - lam[0]) <= 1e-9 * lam[0]
        for ref in (theta, lam[1]):
            assert abs(second.lam - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("level", [1, 3, 4, 5])
    def test_gaussian_square_returns_lambda2_not_lambda3(self, cache, level):
        # the standard Gaussian factorises on the unit square, so lambda_2 =
        # lambda_3 is double in the continuum (x <-> y); the mesh splits the
        # pair by 3e-6 to 2e-4 relative (5e-5 at level 3)
        m = cache.mesh("square", level)
        K, M = _interior_matrices(m, ps.gaussian())
        lam, vecs = eigsh(K, k=3, M=M, sigma=0)
        order = np.argsort(lam)
        lam, vecs = lam[order], vecs[:, order]
        assert lam[2] - lam[1] <= 2.5e-4 * lam[1]
        pair = cache.second(2.0, "square", level, "gaussian")
        assert pair.converged
        assert abs(pair.lam - lam[1]) <= 1e-12 * lam[1]
        # the field is lambda_2's eigenvector, M-orthogonal to lambda_3's
        v = pair.field.values[m.interior]
        assert abs(v @ (M @ vecs[:, 2])) <= 1e-6 * math.sqrt(v @ (M @ v))

    def test_step_cap_reported_unconverged(self, cache):
        # two Lanczos steps are too few on the square at level 3, for the
        # ground state and for deflation
        opts = SolverOptions(max_outer=2)
        with pytest.warns(UserWarning, match="first_eigenpair stopped after 2 shift-invert solves"):
            bad = ps.first_eigenpair(2.0, cache.mesh("square", 3), ps.lebesgue(), opts)
        assert not bad.converged and bad.iterations == 2 and bad.residual > opts.tol
        u1 = cache.pair(2.0, "square", 3)
        with pytest.warns(UserWarning, match="shift-invert solves"):
            pair = ps.second_eigenvalue(2.0, cache.mesh("square", 3), ps.lebesgue(), u1, opts)
        assert not pair.converged and pair.estimator == "deflation"
        assert pair.iterations == 2 and pair.residual > opts.tol
        assert np.isfinite(pair.lam)

    def test_iterations_count_solves(self, cache, monkeypatch):
        # the ground state factored the stiffness matrix of the shared mesh;
        # deflation makes no factor and solves with that one once per step
        calls = []
        pbtrs = spectral._pbtrs

        def counted(factor, rhs, **kwargs):
            calls.append(rhs.shape)
            return pbtrs(factor, rhs, **kwargs)

        u1 = cache.pair(2.0, "square", 3)
        monkeypatch.setattr(spectral, "_pbtrs", counted)
        monkeypatch.setattr(spectral, "_lu_solve", lambda *args: pytest.fail("a new factor"))
        pair = ps.second_eigenvalue(2.0, cache.mesh("square", 3), ps.lebesgue(), u1)
        assert pair.iterations == len(calls) > 0
        assert all(len(shape) == 1 for shape in calls)

    @pytest.mark.parametrize("name, level", [("thin-rectangle", 4), ("square", 5)])
    def test_lanczos_rows_past_first_capacity(self, cache, name, level):
        # Gaussian measure: the thin rectangle's pairs take 19 and 20
        # Lanczos steps, the square's second pair more than 20, so the
        # basis arrays grow past their first _LANCZOS_ROWS rows
        mu = ps.gaussian()
        if name == "square":
            m = cache.mesh(name, level)
            first, second = cache.pair(2.0, name, level, "gaussian"), cache.second(2.0, name, level, "gaussian")
        else:
            m = ps.build_mesh(ps.polygon_domain(_THIN_RECTANGLE), level)
            first = ps.first_eigenpair(2.0, m, mu)
            second = ps.second_eigenvalue(2.0, m, mu, first)
            assert first.iterations > spectral._LANCZOS_ROWS
        assert second.iterations > spectral._LANCZOS_ROWS
        assert first.converged and second.converged
        K, M = _interior_matrices(m, mu)
        lam = np.sort(eigsh(K, k=3, M=M, sigma=0, return_eigenvectors=False))
        assert abs(first.lam - lam[0]) <= 1e-9 * lam[0]
        assert abs(second.lam - lam[1]) <= 1e-12 * lam[1]
        for pair in (first, second):
            assert len(pair.residual_history) == pair.iterations
            _assert_ritz_values_fall(pair.residual_history)

    def test_lanczos_rows_capacity_changes_nothing(self, cache, monkeypatch):
        # from one row the basis arrays double five times on the way to the
        # second pair's 17 steps on square L4; the pairs are the same
        m = cache.mesh("square", 4)
        want = (cache.pair(2.0, "square", 4), cache.second(2.0, "square", 4))
        monkeypatch.setattr(spectral, "_LANCZOS_ROWS", 1)
        first = ps.first_eigenpair(2.0, m, ps.lebesgue())
        got = (first, ps.second_eigenvalue(2.0, m, ps.lebesgue(), first))
        for pair, ref in zip(got, want):
            assert pair.iterations == ref.iterations and pair.converged
            assert abs(pair.lam - ref.lam) <= 1e-15 * ref.lam
            assert np.allclose(pair.residual_history, ref.residual_history, rtol=1e-15, atol=0.0)

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


# the Dirichlet (lambda1, lambda2) of the 1-D standard Gaussian measure on
# (0, 1) by weighted shooting (ROADMAP item 18)
_GAUSSIAN_01 = {
    1.5: (5.074041679163244, 14.876406345191022),
    2.0: (9.440202892191358, 39.05860397172313),
    3.0: (27.089035545130486, 223.93892207477597),
    6.0: (404.2579136348226, 26724.64973327698),
}
# relative errors of the P1 pairs on the Gaussian interval (0, 1) at levels
# 3, 5 and 7 (ROADMAP item 18): lambda1 at p = 1.5, 2, 3 and 6, and the
# p = 2 deflation lambda2
_GAUSSIAN_01_ERRORS = {
    (1.5, "first"): (5.1e-5, 3.2e-6, 2.0e-7),
    (2.0, "first"): (5.3e-5, 3.3e-6, 2.1e-7),
    (3.0, "first"): (8.9e-5, 5.5e-6, 3.6e-7),
    (6.0, "first"): (2.5e-4, 2.0e-5, 9.9e-7),
    (2.0, "second"): (2.0e-4, 1.3e-5, 8.0e-7),
}
# Gaussian rectangles [a, b] x [c, d] at p = 2: the standard Gaussian density
# factorises, so every eigenvalue is lambda_x + lambda_y of two weighted 1-D
# problems. Per rectangle, C in the O(h^2) bound C 4^-L on the relative
# errors of the P1 lambda1, the deflation lambda2 and the gap at L2-L5; the
# measured C 4^L reads 0.77-0.80, 1.64-1.95 and 2.20-2.89. The unit square's
# lambda2 = lambda3 is double; the others have unequal sides and a simple
# lambda2
_GAUSSIAN_RECTANGLES = {
    (0.0, 1.0, 0.0, 1.0): (0.85, 1.8, 2.4),
    (0.0, 1.0, 0.0, 0.8): (0.85, 2.1, 3.0),
    (0.1, 1.1, -0.5, 0.3): (0.85, 2.1, 3.0),
}


class TestShootingOracle:
    # the weighted shooting oracle of tests/oracles.py, an external reference
    # for the Gaussian pairs; each value is computed once per session
    @pytest.mark.parametrize("p", sorted(_GAUSSIAN_01))
    def test_lebesgue_pi_p(self, p):
        lam1 = pi_p_quad_oracle(p) ** p
        for k, want in ((1, lam1), (2, 2.0**p * lam1)):
            assert abs(shooting_eigenvalue(k, p, 0.0, 1.0, unit_weight) - want) <= 1e-12 * want

    @pytest.mark.parametrize("p", sorted(_GAUSSIAN_01))
    def test_gaussian_interval_values(self, p):
        for k, want in enumerate(_GAUSSIAN_01[p], 1):
            assert abs(shooting_eigenvalue(k, p, 0.0, 1.0, gaussian_weight) - want) <= 1e-12 * want

    @pytest.mark.parametrize("p, which", sorted(_GAUSSIAN_01_ERRORS))
    def test_gaussian_interval_convergence(self, cache, p, which):
        # P1 pairs above the oracle, within 2x of the recorded errors, and
        # falling at least 10x every two levels
        k = 1 if which == "first" else 2
        exact = shooting_eigenvalue(k, p, 0.0, 1.0, gaussian_weight)
        get = cache.pair if which == "first" else cache.second
        errs = [(get(p, "interval01", level, "gaussian").lam - exact) / exact for level in (3, 5, 7)]
        for err, ref in zip(errs, _GAUSSIAN_01_ERRORS[(p, which)]):
            assert 0.5 * ref <= err <= 2.0 * ref
        assert errs[0] >= 10.0 * errs[1] and errs[1] >= 10.0 * errs[2]

    @pytest.mark.parametrize("box", sorted(_GAUSSIAN_RECTANGLES))
    def test_gaussian_rectangle_p2(self, box):
        a, b, c, d = box
        x1, x2 = (shooting_eigenvalue(k, 2.0, a, b, gaussian_weight) for k in (1, 2))
        y1, y2 = (shooting_eigenvalue(k, 2.0, c, d, gaussian_weight) for k in (1, 2))
        lam1, lam2 = x1 + y1, min(x2 + y1, x1 + y2)
        if box == (0.0, 1.0, 0.0, 1.0):
            assert abs(lam1 - 18.880405784382716) <= 1e-12 * lam1
            assert abs(lam2 - 48.49880686391449) <= 1e-12 * lam2
        domain = ps.polygon_domain([[a, c], [b, c], [b, d], [a, d]])
        errs = []
        for level in (2, 3, 4, 5):
            mesh = ps.build_mesh(domain, level)
            first = ps.first_eigenpair(2.0, mesh, ps.gaussian())
            second = ps.second_eigenvalue(2.0, mesh, ps.gaussian(), first)
            assert first.converged and second.converged
            got = (first.lam, second.lam, second.lam - first.lam)
            errs.append([(g - e) / e for g, e in zip(got, (lam1, lam2, lam2 - lam1))])
            for err, bound in zip(errs[-1], _GAUSSIAN_RECTANGLES[box]):
                assert 0.0 < err <= bound * 4.0**-level
        # second order: each error falls at least 3.5x per level
        assert all(coarse >= 3.5 * fine for prev, cur in zip(errs, errs[1:]) for coarse, fine in zip(prev, cur))

    @pytest.mark.parametrize("p", sorted(_GAUSSIAN_01) + [1.1])
    def test_first_integral_oracle(self, p):
        # lambda1 on (0, 1) from the ODE's first integral: an independent
        # quadrature of pi_p^p, 2e-16 to 9e-16 off pi_p_quad_oracle from
        # p = 1.05 to 10 (5.2e-12 at p = 1.5 before its endpoint substitution)
        want = pi_p_quad_oracle(p) ** p
        assert abs(lambda1_interval_quadrature(p) - want) <= 1e-14 * want


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
                assert energies[-1] == float(np.sum(spectral._guarded_power(gn, p) * de))
                # the einsum gradients and pow, as before the sparse operator
                # and the integer powers
                old = float(gradient_energies_pow(p, gradients_einsum(m, values), de))
                assert abs(energies[-1] - old) <= 1e-15 * old
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
        out = np.full_like(uq, np.nan)
        assert m.values_at_quad(values, out=out) is out and out.tobytes() == uq.tobytes()
        for p in (1.5, 2.0, 3.0, 6.0):
            rows = [float(spectral.lp_energies(p, u, w)) for u in uq]
            assert rows == [float(np.sum(w * spectral._guarded_power(np.abs(u), p))) for u in uq]
            # the einsum values and pow, as before the matmul and the integer powers
            old = lp_energies_pow(p, values_at_quad_einsum(m, values), w)
            assert np.all(np.abs(np.array(rows) - old) <= 1e-15 * old)
            assert spectral.lp_energies(p, uq, w).tolist() == rows
            # the flattened rows of the distance kernel
            assert spectral.lp_energies(p, uq.reshape(len(uq), -1), w.ravel()).tolist() == rows
            # written into given arrays, the first of them uq's own copy
            a, y = uq.copy(), np.full_like(uq, np.nan)
            assert spectral.lp_energies(p, uq, w, out=(a, y)).tolist() == rows
            assert a.tobytes() == np.abs(uq).tobytes()
            assert spectral.lp_energies(p, a, w, out=(a, y)).tolist() == rows
            for v, row in zip(values, rows):
                f = ps.Field(m, v)
                assert ps.rayleigh_quotient(p, f, mu) == ps.grad_energy(p, f, mu) / row


def _kernel_mesh(cache, name):
    """Interval L4, square L3, triangle L3 or a sub-mesh cut from square L3."""
    if name == "triangle":
        return ps.build_mesh(ps.polygon_domain(_TRIANGLE), 3)
    if name == "cut":
        m = cache.mesh("square", 3)
        centroids = np.mean(m.nodes[m.elements], axis=1)
        return submesh(m, np.nonzero(centroids @ [1.0, 0.3] > 0.6)[0])[0]
    return cache.mesh("interval01", 4) if name == "interval" else cache.mesh("square", 3)


class TestQuadratureKernels:
    """The matmul values, sparse-operator gradients, basis-product mass
    matrices and integer powers against their einsum and pow forms
    (tests/oracles.py). Bounds: values and gradients within 1e-15 of the
    sum of the absolute terms, mass entries and energies within 1e-15
    relative, and integer powers within 1e-15 relative wherever the power
    is a normal float."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["interval", "square", "triangle", "cut"]), rows=st.sampled_from([1, 16, 100]),
           measure=st.sampled_from(sorted(_MEASURES)), p=st.sampled_from([1.5, 2.0, 3.0, 4.0, 6.0, 8.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_einsum_and_pow_forms(self, cache, name, rows, measure, p, seed):
        m = _kernel_mesh(cache, name)
        mu = _MEASURES[measure]
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, (rows, m.n_nodes))
        uq, g = m.values_at_quad(values), m.gradients(values)
        # each block row is bitwise its field alone
        for row, u, gu in zip(values, uq, g):
            assert np.array_equal(u, m.values_at_quad(row)) and np.array_equal(gu, m.gradients(row))
        magnitude = values_at_quad_einsum(m, np.abs(values))
        assert np.all(np.abs(uq - values_at_quad_einsum(m, values)) <= 1e-15 * magnitude)
        g_magnitude = np.einsum("mkd,...mk->...md", np.abs(m.grads), np.abs(values).take(m.elements, axis=-1))
        assert np.all(np.abs(g - gradients_einsum(m, values)) <= 1e-15 * g_magnitude)

        w, de = m.measure_weights(mu), m.element_density_integrals(mu)
        scaled = w * rng.uniform(0.0, 2.0, w.shape)
        old = mass_local_einsum(m, scaled)
        assert np.all(np.abs(spectral._mass_local(m, scaled) - old) <= 1e-15 * old)
        for got, want in ((spectral.lp_energies(p, uq, w), lp_energies_pow(p, values_at_quad_einsum(m, values), w)),
                          (spectral.gradient_energies(p, g, de), gradient_energies_pow(p, gradients_einsum(m, values), de))):
            assert np.all(np.abs(got - want) <= 1e-15 * want)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), rows=st.sampled_from([1, 16]), m=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.5))
    def test_short_axis_sums_match_numpy_reductions(self, dim, rows, m, seed, zeros):
        # the in-order sums over the dimensions and the element's vertices
        # against numpy's reductions and einsum (tests/oracles.py), with
        # exact zeros and negative zeros: bitwise, but for the sign of a
        # zero in G g, which the scatter that follows erases
        rng = np.random.default_rng(seed)

        def draw(shape):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            a[rng.random(shape) < zeros] = 0.0
            a[rng.random(shape) < zeros] = -0.0
            return a

        g = draw((rows, m, dim))
        assert spectral._inner(g, g).tobytes() == squared_norms_reduce(g).tobytes()
        assert spectral._inner(g[0], g[0]).tobytes() == squared_norms_reduce(g[0]).tobytes()
        grads, lengths = draw((rows, dim + 1, dim)), np.abs(draw((rows, dim + 1)))
        gphi, want = spectral._inner(grads, g[:, 0, None, :]), grads_dot_einsum(grads, g[:, 0])
        # each entry scattered alone, as by _interior_vector and _scatter
        slots = np.arange(gphi.size)
        assert np.bincount(slots, gphi.ravel()).tobytes() == np.bincount(slots, want.ravel()).tobytes()
        values = np.abs(draw((rows, dim + 1)))
        assert spectral._inner(lengths, values).tobytes() == vertex_sum_reduce(lengths, values).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(e=st.integers(3, 8), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 5))
    def test_integer_powers(self, e, seed, zeros):
        # x^e stays a normal float for x in [1e-30, 1e30] and e <= 8
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(-30.0, 30.0, 200)
        x[rng.choice(x.size, zeros, replace=False)] = 0.0
        got, want = spectral._guarded_power(x, float(e)), x ** float(e)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert np.all(got[x == 0.0] == 0.0)
        # and on a one-row block, as the distance kernel takes it
        assert np.array_equal(spectral._guarded_power(x[None], float(e))[0], got)

    @pytest.mark.parametrize("name", ["interval", "square", "triangle", "cut"])
    def test_gradient_operator_built_once_on_first_use(self, cache, monkeypatch, name):
        calls = []
        build = sparse.csr_matrix

        def counted(*args, **kwargs):
            calls.append(kwargs.get("shape"))
            return build(*args, **kwargs)

        monkeypatch.setattr(sparse, "csr_matrix", counted)
        if name in ("interval", "square"):
            # not from the session cache, whose meshes may have been used
            domain = cache.domain("interval01" if name == "interval" else "square")
            m = ps.build_mesh(domain, 4 if name == "interval" else 3)
        else:
            m = _kernel_mesh(cache, name)
        assert calls == []
        values = np.random.default_rng(0).uniform(-1.0, 1.0, (16, m.n_nodes))
        operator = m.gradient_operator()
        for _ in range(3):
            m.gradients(values)
            m.gradients(values[0])
            ps.grad_energy(3.0, ps.Field(m, values[0]), ps.lebesgue())
        assert calls == [(m.n_elements * m.dim, m.n_nodes)]
        assert m.gradient_operator() is operator


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


class TestKeptPatternShared:
    # weighted_stiffness and weighted_mass share the mesh's read-only full
    # pattern (Mesh.pattern, kept by geometry.per_mesh)

    def test_structural_edit_raises_and_leaves_the_mesh(self):
        domain = ps.polygon_domain(_SQUARE)
        m, fresh = ps.build_mesh(domain, 2), ps.build_mesh(domain, 2)
        mu = ps.lebesgue()
        K = spectral.weighted_stiffness(m, mu)
        K.data[K.data < 0.0] = 0.0
        with pytest.raises(ValueError):
            K.eliminate_zeros()
        for got, want in zip(m.pattern("all"), fresh.pattern("all"), strict=True):
            assert np.array_equal(got, want)
        assert spectral.weighted_mass(m, mu).nnz == spectral.weighted_mass(fresh, mu).nnz
        assert np.array_equal(ps.random_zero_trace_field(m, 0).values, ps.random_zero_trace_field(fresh, 0).values)

    @pytest.mark.parametrize("kind", ["lebesgue", "gaussian"])
    def test_scipy_solvers_take_the_matrices(self, kind):
        m = ps.build_mesh(ps.polygon_domain(_SQUARE), 3)
        mu = _MEASURES[kind]
        K, M = spectral.weighted_stiffness(m, mu), spectral.weighted_mass(m, mu)
        assert not (K.indices.flags.writeable or M.indptr.flags.writeable)
        rhs = M @ np.ones(m.n_nodes)
        for x in (spsolve(M, rhs), splu(M).solve(rhs)):
            assert np.max(np.abs(x - 1.0)) <= 1e-12
        # without boundary conditions K's null space is the constants
        lam = eigsh(K, k=2, M=M, sigma=-1.0, return_eigenvectors=False)
        assert np.min(np.abs(lam)) <= 1e-10 and np.max(lam) > 9.0


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, monkeypatch, seed):
        # rejected when the options are made, so that no solve runs first:
        # numpy's default_rng refuses a negative seed only where deflation
        # draws its start vector, after the ground state
        solves = []
        monkeypatch.setattr(spectral, "_ground_state", lambda *a: solves.append(a))
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverOptions(seed=seed)
        assert solves == []
        assert SolverOptions(seed=np.int64(3)).seed == 3 and SolverOptions(seed=0).seed == 0

    def test_eigenpair_json_export(self, cache):
        pair = cache.pair(2.0, "interval01", 4)
        d = cli._pair_entry(pair, "mesh.txt")
        assert d["lambda"] == pytest.approx(pair.lam)
        assert d["iterations"] == pair.iterations
        assert d["nodal_values"]["mesh_file"] == "mesh.txt"
        assert len(d["nodal_values"]["values"]) == pair.field.values.size
        assert d["residual_history"][-1] == pytest.approx(pair.lam)
        assert d["lambda2_is_upper_bound"] is False
        assert d["residual"] == pair.residual <= SolverOptions().tol
        assert d["residual_floor"] == pair.residual_floor > 0.0
