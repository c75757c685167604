import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plapstab as ps
from plapstab import spectral, verify
from plapstab.spectral import gradient_energies
from plapstab.verify import (
    _convex_lp_min,
    _random_fields,
    _smoothing,
    _weight_array,
    centering_root,
    cp_remainder,
    stability_battery,
    weighted_poincare_check,
    write_reports_csv,
)

from oracles import centering_scan, golden_lp_min, picone_sides_highprec, sequential_zero_trace_fields

PI2 = math.pi**2


class TestDistance:
    def test_member_of_eigenspace(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        dist, c = ps.distance_to_eigenspace(2.0, u1.field, u1.field, ps.lebesgue())
        assert dist <= 1e-12
        assert abs(c - 1.0) <= 1e-8

    def test_scaled_member(self, cache):
        u1 = cache.pair(3.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.Field(m, 3.0 * u1.field.values)
        dist, c = ps.distance_to_eigenspace(3.0, u, u1.field, ps.lebesgue())
        assert dist <= 1e-10
        assert abs(c - 3.0) <= 1e-6

    def test_fourier_orthogonality(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0]))
        dist, c = ps.distance_to_eigenspace(2.0, u, u1.field, ps.lebesgue())
        assert abs(dist - 0.5) <= 5e-3 * 0.5
        assert abs(c) <= 1e-6

    def test_newton_stationarity_p3(self, cache):
        u1 = cache.pair(3.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0]))
        dist, c = ps.distance_to_eigenspace(3.0, u, u1.field, ps.lebesgue())
        W = m.quad_weights
        d = u.at_quad() - c * u1.field.at_quad()
        g = -3.0 * float(np.sum(W * np.abs(d) ** 1.0 * d * u1.field.at_quad()))
        scale = 3.0 * float(
            np.sum(W * (np.abs(u.at_quad()) + np.abs(u1.field.at_quad())) ** 2.0)
        )
        assert abs(g) <= 1e-10 * scale


class TestDeficit:
    def test_eigenfunction_deficit_vanishes(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        d = ps.deficit(2.0, u1.field, u1.lam, ps.lebesgue())
        tol = 1e-8 * ps.grad_energy(2.0, u1.field, ps.lebesgue())
        assert abs(d) <= tol

    def test_normalized_sine_golden(self, cache):
        # sqrt(2) sin(2 pi x) has unit L^2 norm: deficit = 4 pi^2 - pi^2
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.zero_trace(m, math.sqrt(2.0) * np.sin(2.0 * math.pi * m.nodes[:, 0]))
        d = ps.deficit(2.0, u, u1.lam, ps.lebesgue())
        assert abs(d - 3.0 * PI2) <= 0.01 * 3.0 * PI2

    def test_plain_sine_is_half(self, cache):
        # without normalization the same field integrates to half the deficit
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0]))
        d = ps.deficit(2.0, u, u1.lam, ps.lebesgue())
        assert abs(d - 1.5 * PI2) <= 0.01 * 1.5 * PI2

    def test_p_homogeneity(self, cache):
        u1 = cache.pair(3.0, "interval01", 3)
        m = cache.mesh("interval01", 3)
        u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0]))
        d1 = ps.deficit(3.0, u, u1.lam, ps.lebesgue())
        dt = ps.deficit(3.0, ps.Field(m, 2.5 * u.values), u1.lam, ps.lebesgue())
        assert abs(dt - 2.5**3 * d1) <= 1e-10 * abs(dt)

    def test_quadratic_near_optimizer(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        pert = ps.random_zero_trace_field(m, 3).values
        ds = []
        for tau in (1e-1, 1e-2, 1e-3):
            u = ps.Field(m, u1.field.values + tau * pert)
            ds.append(ps.deficit(2.0, u, u1.lam, ps.lebesgue()))
        assert abs(ds[0] / ds[1] - 100.0) <= 1.0
        assert abs(ds[1] / ds[2] - 100.0) <= 1.0


class TestRemainderAndIdentity:
    def test_optimizer_annihilates_remainder(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.Field(m, 4.0 * u1.field.values)
        r = cp_remainder(2.0, u, u1.field, ps.lebesgue())
        assert abs(r) <= 1e-10

    def test_p2_sine_remainder_matches_deficit(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0]))
        r = cp_remainder(2.0, u, u1.field, ps.lebesgue())
        d = ps.deficit(2.0, u, u1.lam, ps.lebesgue())
        assert abs(r - d) <= 0.02 * d

    def test_discrete_eigen_inputs(self, cache):
        u1 = cache.pair(2.0, "interval01", 4)
        res = ps.identity_check(2.0, u1.field, u1.field, u1.lam, ps.lebesgue())
        assert res <= 1e-6

    def test_p3_battery_level4(self, cache):
        u1 = cache.pair(3.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        x = m.nodes[:, 0]
        u = ps.zero_trace(m, x * (1.0 - x))
        res = ps.identity_check(3.0, u, u1.field, u1.lam, ps.lebesgue())
        assert res <= 0.02

    def test_residual_shrinks_under_refinement(self, cache):
        res = []
        for level in (3, 4):
            u1 = cache.pair(3.0, "interval01", level)
            m = cache.mesh("interval01", level)
            u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0]))
            res.append(ps.identity_check(3.0, u, u1.field, u1.lam, ps.lebesgue()))
        assert res[1] <= res[0] / 1.5

    def test_boundary_layer_warning(self, cache):
        m = cache.mesh("interval01", 3)
        x = m.nodes[:, 0]
        spike = np.where(np.abs(x - 0.5) < 0.05, 1.0, 1e-13)
        u1 = ps.zero_trace(m, spike)
        u = ps.zero_trace(m, np.sin(2.0 * math.pi * x))
        with pytest.warns(UserWarning, match="boundary layer"):
            cp_remainder(3.0, u, u1, ps.lebesgue())


class TestStability:
    def test_sine_golden(self, cache, interval):
        u1 = cache.pair(2.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.zero_trace(m, math.sqrt(2.0) * np.sin(2.0 * math.pi * m.nodes[:, 0]))
        rep = ps.stability_check(2.0, interval, u, ps.lebesgue(), eigenpair=u1)
        assert rep.passed
        assert abs(rep.deficit - 3.0 * PI2) <= 0.01 * 3.0 * PI2
        assert abs(rep.constant - PI2) <= 1e-10
        assert abs(rep.rhs - PI2) <= 0.01 * PI2
        assert abs(rep.margin - 2.0 * PI2) <= 0.02 * PI2
        assert rep.measure == "lebesgue" and rep.note == ""

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_battery_rejects_a_bad_seed_before_any_solve(self, monkeypatch, interval, seed):
        # the seed is checked first, not where the fields are drawn after
        # the ground state was solved
        solves = []
        monkeypatch.setattr(spectral, "_ground_state", lambda *a: solves.append(a))
        m = ps.build_mesh(interval, 0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ps.stability_battery(2.0, interval, m, ps.lebesgue(), 4, seed=seed)
        assert solves == []

    def test_optimizer_trivial(self, cache, interval):
        u1 = cache.pair(3.0, "interval01", 4)
        m = cache.mesh("interval01", 4)
        u = ps.Field(m, 2.0 * u1.field.values)
        rep = ps.stability_check(3.0, interval, u, ps.lebesgue(), eigenpair=u1)
        assert rep.passed
        assert abs(rep.deficit) <= rep.tol_quad
        assert rep.distance_p <= 1e-10

    def test_random_field_square_p3(self, cache, square):
        u1 = cache.pair(3.0, "square", 3)
        m = cache.mesh("square", 3)
        u = ps.random_zero_trace_field(m, 7)
        rep = ps.stability_check(3.0, square, u, ps.lebesgue(), eigenpair=u1)
        assert rep.passed and rep.margin >= -rep.tol_quad
        assert rep.note != ""  # polygon runs are labeled

    def test_gaussian_has_no_polygon_note(self, cache, square):
        u1 = cache.pair(2.0, "square", 3, "gaussian")
        m = cache.mesh("square", 3)
        u = ps.random_zero_trace_field(m, 7)
        rep = ps.stability_check(2.0, square, u, ps.gaussian(), eigenpair=u1)
        assert rep.note == ""

    def test_rejects_p_below_two(self, cache, interval):
        m = cache.mesh("interval01", 3)
        u = ps.random_zero_trace_field(m, 0)
        with pytest.raises(ValueError):
            ps.stability_check(1.5, interval, u, ps.lebesgue())

    def test_rejects_nonzero_trace(self, cache, interval):
        m = cache.mesh("interval01", 3)
        with pytest.raises(ValueError):
            ps.stability_check(2.0, interval, ps.Field(m, np.ones(m.n_nodes)), ps.lebesgue())

    def test_battery_all_pass(self, cache, interval):
        u1 = cache.pair(2.0, "interval01", 3)
        m = cache.mesh("interval01", 3)
        reps = stability_battery(2.0, interval, m, ps.lebesgue(), 50, seed=0, eigenpair=u1)
        assert len(reps) == 50
        assert all(r.passed for r in reps)

    def test_battery_deterministic(self, cache, interval):
        u1 = cache.pair(2.0, "interval01", 3)
        m = cache.mesh("interval01", 3)
        a = stability_battery(2.0, interval, m, ps.lebesgue(), 5, seed=3, eigenpair=u1)
        b = stability_battery(2.0, interval, m, ps.lebesgue(), 5, seed=3, eigenpair=u1)
        assert [r.margin for r in a] == [r.margin for r in b]

    def test_dilation_margin_covariance(self):
        leb = ps.lebesgue()
        margins = {}
        for s in (0.5, 1.0, 2.0):
            dom = ps.interval_domain(0.0, s)
            m = ps.build_mesh(dom, 3)
            pair = ps.first_eigenpair(3.0, m, leb)
            u = ps.zero_trace(m, np.sin(2.0 * math.pi * m.nodes[:, 0] / s))
            rep = ps.stability_check(3.0, dom, u, leb, eigenpair=pair)
            margins[s] = rep.margin
        # n = 1, p = 3: both sides scale by s^(n-p) = s^-2; signs invariant
        assert margins[0.5] > 0 and margins[1.0] > 0 and margins[2.0] > 0
        assert abs(margins[0.5] - 4.0 * margins[1.0]) <= 0.01 * margins[0.5]
        assert abs(margins[2.0] - 0.25 * margins[1.0]) <= 0.01 * margins[2.0]


class TestCentering:
    def test_constant_field(self, cache):
        m = cache.mesh("interval01", 3)
        f = ps.Field(m, np.full(m.n_nodes, 4.2))
        assert centering_root(2.0, f, np.ones_like(m.quad_weights)) == 4.2

    def test_odd_symmetry_p2(self, cache):
        m = cache.mesh("interval01", 4)
        f = ps.interpolate(m, lambda pts: pts[:, 0] - 0.5)
        t0 = centering_root(2.0, f, np.ones_like(m.quad_weights))
        assert abs(t0) <= 1e-10

    def test_p3_linear_profile_vs_scan(self, cache):
        # int |x - t|(x - t) dx = 0 on (0,1) forces t0 = 1/2 exactly
        m = cache.mesh("interval01", 4)
        f = ps.interpolate(m, lambda pts: pts[:, 0])
        w = np.ones_like(m.quad_weights)
        t0 = centering_root(3.0, f, w)
        assert abs(t0 - 0.5) <= 1e-9
        scan = centering_scan(3.0, f.at_quad().ravel(), w.ravel(), m.quad_weights.ravel())
        assert abs(t0 - scan) <= 1e-3

    def test_root_residual_small(self, cache, rng):
        m = cache.mesh("interval01", 4)
        f = ps.Field(m, rng.normal(size=m.n_nodes))
        w = 1.0 + 0.5 * np.cos(m.quad_points[:, :, 0])
        t0 = centering_root(3.0, f, w)
        d = f.at_quad() - t0
        g = float(np.sum(m.quad_weights * w * np.abs(d) * d))
        span = f.values.max() - f.values.min()
        scale = float(np.sum(m.quad_weights * w)) * span**2
        assert abs(g) <= 1e-10 * scale

    def test_rejects_negative_weight(self, cache):
        m = cache.mesh("interval01", 3)
        f = ps.interpolate(m, lambda pts: pts[:, 0])
        with pytest.raises(ValueError):
            centering_root(2.0, f, -np.ones_like(m.quad_weights))


class TestWeightedPoincare:
    def test_sharpness_witness(self, cache, interval):
        m = cache.mesh("interval01", 5)
        f = ps.interpolate(m, lambda pts: np.cos(math.pi * pts[:, 0]))
        rep = weighted_poincare_check(2.0, interval, f, np.ones_like(m.quad_weights))
        assert rep.passed
        assert abs(rep.ratio - PI2) <= 1e-4 * PI2
        assert abs(rep.lhs - PI2 / 2.0) <= 1e-3 * PI2
        assert abs(rep.t0) <= 1e-9

    def test_constant_degenerate(self, cache, interval):
        m = cache.mesh("interval01", 3)
        f = ps.Field(m, np.ones(m.n_nodes))
        rep = weighted_poincare_check(2.0, interval, f, np.ones_like(m.quad_weights))
        assert rep.degenerate and rep.passed
        assert rep.lhs <= 1e-14 and rep.rhs_inf <= 1e-14

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_constant_field_is_its_own_center(self, cache, interval, p):
        m = cache.mesh("interval01", 3)
        # the weighted mean of 7.7 rounds to another float here
        f = ps.Field(m, np.full(m.n_nodes, 7.7))
        rep = weighted_poincare_check(p, interval, f, 1.0 + 0.5 * np.cos(m.quad_points[:, :, 0]))
        assert rep.t0 == 7.7 and rep.rhs_inf == 0.0 and rep.lhs == 0.0
        assert rep.degenerate and rep.passed

    def test_eigen_weight_quotient_field(self, cache, square):
        # the proof-step run: omega = u1^p, f = u / u1 for a random field
        p = 3.0
        u1 = cache.pair(p, "square", 3)
        m = cache.mesh("square", 3)
        u = ps.random_zero_trace_field(m, 11)
        floor = 1e-10 * u1.field.values.max()
        fvals = np.where(u1.field.values > floor, u.values / np.maximum(u1.field.values, floor), 0.0)
        f = ps.Field(m, fvals)
        omega = ps.Field(m, u1.field.values**p)
        rep = weighted_poincare_check(p, square, f, omega)
        assert rep.passed and rep.margin >= -1e-8 * max(rep.lhs, 1.0)

    @pytest.mark.parametrize("measure", [None, "gaussian"])
    @pytest.mark.parametrize("case", ["sharpness", "eigen_quotient"])
    def test_weight_first_product(self, cache, interval, square, case, measure):
        # the inputs of the two tests above; every weighted quantity comes
        # from quad_weights * w, then times the density, in that order
        meas = None if measure is None else ps.gaussian()
        if case == "sharpness":
            p, domain, m = 2.0, interval, cache.mesh("interval01", 5)
            f = ps.interpolate(m, lambda pts: np.cos(math.pi * pts[:, 0]))
            omega = np.ones_like(m.quad_weights)
            wq = omega
        else:
            p, domain, m = 3.0, square, cache.mesh("square", 3)
            u1 = cache.pair(p, "square", 3)
            u = ps.random_zero_trace_field(m, 11)
            floor = 1e-10 * u1.field.values.max()
            f = ps.Field(m, np.where(u1.field.values > floor,
                                     u.values / np.maximum(u1.field.values, floor), 0.0))
            omega = ps.Field(m, u1.field.values**p)
            wq = omega.at_quad()
        W = m.quad_weights * wq
        if meas is not None:
            W = W * m.density_at_quad(meas)
        assert np.array_equal(_weight_array(m, omega, meas), W)
        rep = weighted_poincare_check(p, domain, f, omega, meas)
        # t0 and the infimum come from one minimisation over the constants
        dist, t0 = _convex_lp_min(p, W, f.at_quad()[None], np.ones_like(W))
        assert rep.t0 == float(t0[0]) == centering_root(p, f, omega, meas)
        assert rep.rhs_inf == float(dist[0])
        assert rep.lhs == float(gradient_energies(p, f.gradients(), np.sum(W, axis=1)))

    def test_log_concavity_midpoints_in_one_call(self, cache, monkeypatch):
        # the 200 seeded midpoints go to the weight's locator in one call,
        # drawn as 200 sequential pairs of nodes
        m = cache.mesh("square", 3)
        omega = ps.Field(m, cache.pair(3.0, "square", 3).field.values ** 3.0)
        calls = []
        evaluate = ps.Field.__call__

        def recorded(field, points):
            calls.append(np.array(points))
            return evaluate(field, points)

        monkeypatch.setattr(ps.Field, "__call__", recorded)
        verify._check_log_concave(m, omega)
        ok_nodes = np.nonzero(omega.values > 1e-3 * omega.values.max())[0]
        rng = np.random.default_rng(0)
        pairs = [rng.choice(ok_nodes, size=2, replace=False) for _ in range(200)]
        mids = np.array([0.5 * (m.nodes[i] + m.nodes[j]) for i, j in pairs])
        assert len(calls) == 1 and np.array_equal(calls[0], mids)

    def test_callable_weight_rejected(self, cache, interval):
        m = cache.mesh("interval01", 3)
        f = ps.interpolate(m, lambda pts: pts[:, 0])
        with pytest.raises(ValueError):
            weighted_poincare_check(2.0, interval, f, lambda pts: np.ones(len(pts)))

    @pytest.mark.parametrize("a, b, level", [(0.0, 1.0, 3), (5.0, 6.0, 2)])
    def test_weight_field_on_another_mesh_rejected(self, cache, interval, a, b, level):
        # a finer mesh of the same interval, and a mesh of the same size on
        # another interval, whose nodes the weight's own indices would read
        m = cache.mesh("interval01", 2)
        f = ps.interpolate(m, lambda pts: np.sin(math.pi * pts[:, 0]))
        other = ps.build_mesh(ps.interval_domain(a, b), level)
        omega = ps.Field(other, np.ones(other.n_nodes))
        with pytest.raises(ValueError, match="must live on the mesh"):
            weighted_poincare_check(2.0, interval, f, omega)
        with pytest.raises(ValueError, match="must live on the mesh"):
            centering_root(2.0, f, omega)

    def test_weight_field_on_an_equal_mesh_accepted(self, cache, interval):
        m = cache.mesh("interval01", 2)
        f = ps.interpolate(m, lambda pts: np.sin(math.pi * pts[:, 0]))
        copy = ps.build_mesh(interval, 2)
        assert copy is not m
        rep = weighted_poincare_check(2.0, interval, f, ps.Field(copy, np.ones(copy.n_nodes)))
        assert rep == weighted_poincare_check(2.0, interval, f, ps.Field(m, np.ones(m.n_nodes)))

    @pytest.mark.parametrize("case", ["flat", "finer mesh", "scalar"])
    def test_weight_array_of_another_shape_rejected(self, cache, interval, case):
        m = cache.mesh("interval01", 2)
        f = ps.interpolate(m, lambda pts: np.sin(math.pi * pts[:, 0]))
        weight = {
            "flat": np.ones(m.quad_weights.size),
            "finer mesh": np.ones_like(cache.mesh("interval01", 3).quad_weights),
            "scalar": 1.0,
        }[case]
        with pytest.raises(ValueError, match="shaped like the mesh's quadrature grid"):
            weighted_poincare_check(2.0, interval, f, weight)
        with pytest.raises(ValueError, match="shaped like the mesh's quadrature grid"):
            centering_root(2.0, f, weight)

    def test_log_convex_weight_rejected(self, cache, interval):
        m = cache.mesh("interval01", 4)
        f = ps.interpolate(m, lambda pts: pts[:, 0])
        bad = ps.interpolate(m, lambda pts: np.exp(8.0 * (pts[:, 0] - 0.5) ** 2))
        with pytest.raises(ValueError, match="log-concav"):
            weighted_poincare_check(2.0, interval, f, bad)


class TestPicone:
    def test_phi_equals_u(self, cache):
        m = cache.mesh("interval01", 4)
        u = ps.Field(m, 1.0 + ps.random_zero_trace_field(m, 2).values**2)
        res = ps.picone_check(3.0, u, u, ps.lebesgue())
        assert res.max_abs_residual <= 1e-12 * res.scale

    def test_p2_random(self, cache, rng):
        m = cache.mesh("square", 3)
        u = ps.random_zero_trace_field(m, rng)
        phi = ps.Field(m, 0.5 + rng.uniform(0.0, 1.0, m.n_nodes))
        res = ps.picone_check(2.0, u, phi, ps.lebesgue())
        assert res.max_abs_residual <= 1e-10 * res.scale

    def test_p3_negative_phi(self, cache, rng):
        m = cache.mesh("interval01", 4)
        u = ps.random_zero_trace_field(m, rng)
        phi = ps.Field(m, -(0.5 + rng.uniform(0.0, 1.0, m.n_nodes)))
        res = ps.picone_check(3.0, u, phi, ps.lebesgue())
        assert res.max_abs_residual <= 1e-8 * res.scale

    def test_skipped_samples_counted(self, cache, rng):
        m = cache.mesh("interval01", 3)
        u = ps.random_zero_trace_field(m, rng)
        vals = np.zeros(m.n_nodes)
        vals[m.nodes[:, 0] > 0.5] = 1.0
        phi = ps.Field(m, vals)
        res = ps.picone_check(3.0, u, phi, ps.lebesgue())
        assert res.n_skipped > 0

    def test_formula_against_highprec_oracle(self, rng):
        # spot-check both sides at raw sample data in 30-digit arithmetic
        for p in (2.0, 2.5, 3.0):
            for _ in range(5):
                u, phi = rng.normal(), 0.5 + rng.uniform()
                du = rng.normal(size=2)
                dphi = rng.normal(size=2)
                c_side, r_side = picone_sides_highprec(p, u, du, phi, dphi)
                assert abs(c_side - r_side) <= 1e-12 * (abs(c_side) + 1.0)


    def test_verdict_is_the_tolerance_rule(self, cache, rng, monkeypatch):
        m = cache.mesh("square", 3)
        u = ps.random_zero_trace_field(m, rng)
        phi = ps.Field(m, 0.5 + rng.uniform(0.0, 1.0, m.n_nodes))
        res = ps.picone_check(3.0, u, phi, ps.lebesgue())
        assert res.passed is True and 0.0 < res.max_abs_residual <= verify.TOL_QUAD_FACTOR * res.scale
        # a tolerance just below the residual fails the same samples
        monkeypatch.setattr(verify, "TOL_QUAD_FACTOR", 0.5 * res.max_abs_residual / res.scale)
        again = ps.picone_check(3.0, u, phi, ps.lebesgue())
        assert again.passed is False and again.max_abs_residual == res.max_abs_residual


class TestExponentRule:
    """Every entry point that takes p checks it by cpcore._check_p: finite
    and above 1."""

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1.0])
    @pytest.mark.parametrize("entry", [
        "first_eigenpair", "second_eigenvalue", "rayleigh_quotient", "distance_to_eigenspace",
    ])
    def test_rejected(self, cache, entry, p):
        m = cache.mesh("interval01", 2)
        u1 = cache.pair(2.0, "interval01", 2)
        calls = {
            "first_eigenpair": lambda: ps.first_eigenpair(p, m, ps.lebesgue()),
            "second_eigenvalue": lambda: ps.second_eigenvalue(p, m, ps.lebesgue(), u1),
            "rayleigh_quotient": lambda: ps.rayleigh_quotient(p, u1.field, ps.lebesgue()),
            "distance_to_eigenspace": lambda: ps.distance_to_eigenspace(p, u1.field, u1.field, ps.lebesgue()),
        }
        with pytest.raises(ValueError, match="exponent p must satisfy p > 1.0"):
            calls[entry]()

    def test_p2_second_needs_a_first_pair(self, cache):
        with pytest.raises(ValueError, match="needs a converged first eigenpair"):
            ps.second_eigenvalue(2.0, cache.mesh("interval01", 2), ps.lebesgue(), None)


class TestGap:
    def test_interval_p2_golden(self, cache, interval):
        m = cache.mesh("interval01", 4)
        pairs = (cache.pair(2.0, "interval01", 4), cache.second(2.0, "interval01", 4))
        rep = ps.gap_check(2.0, interval, m, ps.lebesgue(), pairs=pairs)
        assert rep.passed and rep.verdict == "certified"
        assert abs(rep.gap - 3.0 * PI2) <= 0.01 * 3.0 * PI2
        assert abs(rep.C_value - 1.0) <= 1e-8
        assert abs(rep.bound - PI2) <= 1e-6 * PI2
        assert abs(rep.margin - 2.0 * PI2) <= 0.02 * PI2

    def test_square_p2(self, cache, square):
        m = cache.mesh("square", 4)
        pairs = (cache.pair(2.0, "square", 4), cache.second(2.0, "square", 4))
        rep = ps.gap_check(2.0, square, m, ps.lebesgue(), pairs=pairs)
        assert rep.passed
        assert abs(rep.gap - 3.0 * PI2) <= 0.05 * 3.0 * PI2
        # diam = sqrt(2): bound = pi^2 / 2 at C = 1
        assert abs(rep.bound - PI2 / 2.0) <= 0.01 * PI2

    def test_degenerate_second_equals_first(self, cache, interval):
        m = cache.mesh("interval01", 4)
        u1 = cache.pair(2.0, "interval01", 4)
        rep = ps.gap_check(2.0, interval, m, ps.lebesgue(), pairs=(u1, u1))
        assert rep.C_value <= 1e-10
        assert rep.bound <= 1e-9
        assert rep.passed

    def test_p3_empirical_flag(self, cache, interval):
        m = cache.mesh("interval01", 4)
        pairs = (cache.pair(3.0, "interval01", 4), cache.second(3.0, "interval01", 4))
        rep = ps.gap_check(3.0, interval, m, ps.lebesgue(), pairs=pairs)
        assert rep.lambda2_is_upper_bound
        assert rep.verdict == "empirical"
        assert rep.passed

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_bound_is_stability_constant_times_c(self, cache, interval, p):
        m = cache.mesh("interval01", 4)
        u1 = cache.pair(p, "interval01", 4)
        pairs = (u1, cache.second(p, "interval01", 4))
        rep = ps.gap_check(p, interval, m, ps.lebesgue(), pairs=pairs)
        u = ps.random_zero_trace_field(m, 3)
        constant = ps.stability_check(p, interval, u, ps.lebesgue(), eigenpair=u1).constant
        assert rep.bound == constant * rep.C_value

    def test_p_below_two_rejected(self, cache, interval, monkeypatch):
        # the gap bound is the stability constant times C, which needs p >= 2;
        # the check refuses before it solves anything
        def no_solve(*args, **kwargs):
            raise AssertionError("gap_check solved below p = 2")

        monkeypatch.setattr(verify, "first_eigenpair", no_solve)
        m = cache.mesh("interval01", 3)
        with pytest.raises(ValueError, match="p >= 2"):
            ps.gap_check(1.5, interval, m, ps.lebesgue())
        u1 = cache.pair(1.5, "interval01", 3)
        with pytest.raises(ValueError, match="p >= 2"):
            ps.gap_check(1.5, interval, m, ps.lebesgue(), pairs=(u1, u1))

    def test_c_value_cap(self, cache, interval):
        m = cache.mesh("interval01", 4)
        pairs = (cache.pair(3.0, "interval01", 4), cache.second(3.0, "interval01", 4))
        rep = ps.gap_check(3.0, interval, m, ps.lebesgue(), pairs=pairs)
        assert 0.0 <= rep.C_value <= 2.0**3.0


class TestCsv:
    def test_mixed_reports(self, cache, interval, tmp_path):
        m = cache.mesh("interval01", 3)
        u1 = cache.pair(2.0, "interval01", 3)
        srep = stability_battery(2.0, interval, m, ps.lebesgue(), 2, seed=0, eigenpair=u1)
        grep = ps.gap_check(
            2.0, interval, m, ps.lebesgue(),
            pairs=(u1, cache.second(2.0, "interval01", 3)),
        )
        path = tmp_path / "rows.csv"
        write_reports_csv(path, srep + [grep])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "diam", "lambda1", "lambda2", "deficit",
                           "distance_p", "bound", "margin"]
        assert len(rows) == 4
        assert rows[1][3] == ""  # stability rows have no lambda2
        assert rows[3][4] == ""  # gap rows have no deficit
        assert float(rows[3][3]) == pytest.approx(grep.lambda2)


class TestBatchedBattery:
    @pytest.mark.parametrize("measure", ["lebesgue", "gaussian"])
    @pytest.mark.parametrize("name, level", [("interval01", 3), ("square", 2)])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
    def test_matches_single_field_checks(self, cache, p, name, level, measure):
        domain, mesh = cache.domain(name), cache.mesh(name, level)
        meas = ps.lebesgue() if measure == "lebesgue" else ps.gaussian()
        pair = cache.pair(p, name, level, measure)
        reps = stability_battery(p, domain, mesh, meas, 20, seed=9, eigenpair=pair)
        rng = np.random.default_rng(9)
        for rep in reps:
            u = ps.random_zero_trace_field(mesh, rng)
            one = ps.stability_check(p, domain, u, meas, eigenpair=pair)
            assert rep.passed == one.passed
            assert (rep.p, rep.lambda1, rep.constant, rep.note) == (one.p, one.lambda1, one.constant, one.note)
            for field, rel in (("deficit", 1e-12), ("tol_quad", 1e-12), ("margin", 1e-12),
                               ("distance_p", 1e-11), ("rhs", 1e-11)):
                a, b = getattr(rep, field), getattr(one, field)
                assert abs(a - b) <= rel * abs(b), field
            assert abs(rep.c_star - one.c_star) <= 1e-7

    @pytest.mark.parametrize("name, level", [("interval01", 3), ("square", 2)])
    def test_block_draw_equals_sequential_draws(self, cache, name, level):
        mesh = cache.mesh(name, level)
        block = _random_fields(mesh, np.random.default_rng(4), 20, _smoothing(mesh))
        rng = np.random.default_rng(4)
        one_by_one = np.array([ps.random_zero_trace_field(mesh, rng).values for _ in range(20)])
        assert np.array_equal(block, one_by_one)
        assert np.array_equal(block, sequential_zero_trace_fields(mesh, np.random.default_rng(4), 20))

    def test_smoothing_built_once_per_mesh(self, cache, monkeypatch):
        # the adjacency and degrees are built by the first draw on a mesh and
        # kept read-only; Mesh.node_adjacency itself builds anew each call
        domain = cache.domain("square")
        mesh = ps.build_mesh(domain, 3)
        want = sequential_zero_trace_fields(mesh, np.random.default_rng(4), 20)
        assert mesh.node_adjacency() is not mesh.node_adjacency()
        built = []
        node_adjacency = ps.Mesh.node_adjacency

        def counted(m):
            built.append(m.n_nodes)
            return node_adjacency(m)

        monkeypatch.setattr(ps.Mesh, "node_adjacency", counted)
        key = (_smoothing.__wrapped__,)
        assert key not in mesh.cache
        for _ in range(2):
            stability_battery(2.0, domain, mesh, ps.lebesgue(), 20, seed=4)
            assert np.array_equal(_random_fields(mesh, np.random.default_rng(4), 20, _smoothing(mesh)), want)
        ps.random_zero_trace_field(mesh, 0)
        assert built == [mesh.n_nodes] and _smoothing(mesh) is mesh.cache[key]
        adj, deg = mesh.cache[key]
        for a in (adj.data, adj.indices, adj.indptr, deg):
            with pytest.raises(ValueError):
                a[0] = 0


def _lp_problem(seed, n_rows=3, n_points=60):
    """Positive weights, a positive reference function and signed rows."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 1.0, n_points)
    v = rng.uniform(0.0, 1.0, n_points)
    return W, rng.normal(size=(n_rows, n_points)), v


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
_EXPONENTS = st.floats(1.2, 6.0)
_SEEDS = st.integers(0, 2**32 - 1)


class TestDistanceKernel:
    @_PROPERTY
    @given(p=_EXPONENTS, seed=_SEEDS,
           s=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]))
    @example(p=4.0, seed=1, s=3.7, sign=-1.0)
    @example(p=6.0, seed=2, s=0.3, sign=1.0)
    @example(p=8.0, seed=3, s=7.1, sign=-1.0)
    def test_scaling(self, p, seed, s, sign):
        W, U, v = _lp_problem(seed)
        dist, c = _convex_lp_min(p, W, U, v)
        dist_s, c_s = _convex_lp_min(p, W, sign * s * U, v)
        np.testing.assert_allclose(dist_s, s**p * dist, rtol=1e-9)
        np.testing.assert_allclose(c_s, sign * s * c, rtol=0, atol=1e-7 * s)

    @_PROPERTY
    @given(p=_EXPONENTS, seed=_SEEDS, t=st.floats(-5.0, 5.0))
    @example(p=4.0, seed=4, t=-2.3)
    @example(p=6.0, seed=5, t=4.1)
    @example(p=8.0, seed=6, t=0.7)
    def test_eigenspace_shift(self, p, seed, t):
        W, U, v = _lp_problem(seed)
        dist, c = _convex_lp_min(p, W, U, v)
        dist_t, c_t = _convex_lp_min(p, W, U + t * v, v)
        np.testing.assert_allclose(dist_t, dist, rtol=1e-9)
        np.testing.assert_allclose(c_t, c + t, rtol=0, atol=1e-7)

    @_PROPERTY
    @given(p=_EXPONENTS, seed=_SEEDS)
    @example(p=4.0, seed=7)
    @example(p=6.0, seed=8)
    @example(p=8.0, seed=9)
    def test_rows_equal_one_row_calls(self, p, seed):
        W, U, v = _lp_problem(seed, n_rows=5)
        dist, c = _convex_lp_min(p, W, U, v)
        for r in range(len(U)):
            dist_r, c_r = _convex_lp_min(p, W, U[r:r + 1], v)
            np.testing.assert_allclose(dist_r, dist[r:r + 1], rtol=1e-12)
            np.testing.assert_allclose(c_r, c[r:r + 1], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 5.0])
    def test_root_at_the_start_stops_at_once(self, p):
        # an odd row against an even v on symmetric weights: c* = 0, and
        # F'(c0) is rounding noise that no step shrinks by 1e-10, so the
        # row stops on the bracket's resolution after its first evaluation
        x = np.linspace(-1.0, 1.0, 61)
        W, v, U = 1.0 + x * x, 1.0 - x * x, (x * (1.0 - x * x))[None]
        ref = verify._lp_reference(p, W, v)
        bound = 3.0 * ps.spectral.lp_energies(p, U, W) ** (1.0 / p) / ref[4]
        c0 = (U @ ref[2]) / np.sum(ref[3])
        assert abs(c0[0]) <= 1e-15 * bound[0]
        evaluator = (verify._quadrature_derivatives(p, ref, U) if ref[-1] is None
                     else verify._moment_derivatives(p, ref, U, c0))
        calls = []

        def counted(rows, x):
            calls.append(rows.size)
            return evaluator(rows, x)

        c = verify._lp_argmin(counted, c0, -bound, bound)
        assert len(calls) == 1 and abs(c[0]) <= 1e-15 * bound[0]

    @_PROPERTY
    @given(p=st.floats(1.2, 1.95), seed=_SEEDS)
    def test_p_below_two_matches_golden_section(self, p, seed):
        W, U, v = _lp_problem(seed)
        dist, _ = _convex_lp_min(p, W, U, v)
        golden = [golden_lp_min(p, W, u, v) for u in U]
        np.testing.assert_allclose(dist, golden, rtol=1e-12)


class TestMomentPath:
    """The even exponents 4, 6 and 8, where the distance kernel reads F_r'
    and F_r'' from row moments instead of quadrature sums."""

    def test_p_alone_picks_the_evaluator(self):
        assert [verify._moment_order(p) for p in (4.0, 6.0, 8.0, 4)] == [4, 6, 8, 4]
        assert all(verify._moment_order(p) is None for p in (1.5, 2.0, 3.0, 4.5, 5.0, 10.0))
        W, _, v = _lp_problem(0)
        assert verify._lp_reference(3.0, W, v)[-1] is None
        assert verify._lp_reference(6.0, W, v)[-1].shape == (6, v.size)

    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
    @_PROPERTY
    @given(seed=_SEEDS, shift=st.floats(-2.0, 2.0))
    def test_matches_quadrature_evaluator(self, p, seed, shift):
        W, U, v = _lp_problem(seed)
        ref = verify._lp_reference(p, W, v)
        c0 = (U @ ref[2]) / np.sum(ref[3])
        moments = verify._moment_derivatives(p, ref, U, c0)
        quadrature = verify._quadrature_derivatives(p, ref, U)
        rows = np.arange(len(U))
        for x in (c0, c0 + shift, c0 - 0.1 * shift):
            d = np.abs(U - x[:, None] * v) + np.abs(v)
            size = p * (p - 1.0) * np.sum(W * d ** (p - 1.0), axis=1)
            for got, want in zip(moments(rows, x), quadrature(rows, x), strict=True):
                assert np.all(np.abs(got - want) <= 1e-12 * size)

    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
    @_PROPERTY
    @given(seed=_SEEDS)
    def test_root_matches_quadrature_path_and_golden_section(self, p, seed):
        W, U, v = _lp_problem(seed)
        ref = verify._lp_reference(p, W, v)
        energies = ps.spectral.lp_energies(p, U, W)
        bound = 3.0 * energies ** (1.0 / p) / ref[4]
        c0 = np.clip((U @ ref[2]) / np.sum(ref[3]), -bound, bound)
        moments = verify._moment_derivatives(p, ref, U, c0)
        quadrature = verify._quadrature_derivatives(p, ref, U)
        c_m = verify._lp_argmin(moments, c0, -bound, bound)
        c_q = verify._lp_argmin(quadrature, c0, -bound, bound)
        np.testing.assert_allclose(c_m, c_q, rtol=1e-12, atol=1e-14)
        dist, c = _convex_lp_min(p, W, U, v)
        assert np.array_equal(c, c_m)
        golden = [golden_lp_min(p, W, u, v) for u in U]
        np.testing.assert_allclose(dist, golden, rtol=1e-12)

    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
    @_PROPERTY
    @given(seed=_SEEDS, a=st.floats(-3.0, 3.0).filter(lambda a: abs(a) > 0.1))
    def test_near_eigenspace_rows(self, p, seed, a):
        # ||U - c* v||_p is about 1e-6 of ||U||_p, so the distance is about
        # 1e-6p of sum W |U|^p: the moments of U itself would cancel in F'
        W, U, v = _lp_problem(seed)
        U = a * v + 1e-6 * U
        dist, _ = _convex_lp_min(p, W, U, v)
        assert np.all(dist <= 1e-15 * ps.spectral.lp_energies(p, U, W))
        golden = [golden_lp_min(p, W, u, v) for u in U]
        np.testing.assert_allclose(dist, golden, rtol=1e-8)

    @pytest.mark.parametrize("p", [3.0, 5.0])
    @_PROPERTY
    @given(seed=_SEEDS, a=st.floats(-3.0, 3.0).filter(lambda a: abs(a) > 0.1))
    def test_near_eigenspace_rows_quadrature_path(self, p, seed, a):
        # the quadrature path's stop is relative to |F'(c0)| too, so it does
        # not stop at the L^2 projection c0 near the eigenspace
        W, U, v = _lp_problem(seed)
        U = a * v + 1e-6 * U
        assert verify._lp_reference(p, W, v)[-1] is None
        dist, _ = _convex_lp_min(p, W, U, v)
        golden = [golden_lp_min(p, W, u, v) for u in U]
        np.testing.assert_allclose(dist, golden, rtol=1e-8)

    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
    @pytest.mark.parametrize("a", [1.0, -0.37, 2.5e3])
    def test_exact_multiple_of_v(self, p, a):
        W, _, v = _lp_problem(11)
        U = a * v[None]
        dist, c = _convex_lp_min(p, W, U, v)
        assert dist[0] <= 1e-40 * ps.spectral.lp_energies(p, U, W)[0]
        assert abs(c[0] - a) <= 1e-14 * abs(a)
