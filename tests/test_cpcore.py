import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapstab import cpcore
from plapstab.cpcore import (
    c1_sharp,
    c1_variational,
    c2_c3_estimate,
    cp_eval,
    cp_eval_batch,
    cp_eval_flagged,
    pi_p,
    pi_p_quadrature,
)

from oracles import (
    c1_root_mp,
    c1_root_newton,
    c1_variational_grid,
    c2_c3_estimate_grid,
    cp_scalar,
    pi_p_quad_oracle,
)

SQRT2 = math.sqrt(2.0)


class TestPiP:
    def test_p2_is_pi(self):
        assert abs(pi_p(2.0) - math.pi) <= 1e-12

    def test_p3_frozen_oracle_value(self):
        # tanh-sinh oracle value of the defining integral, 30 digits
        assert abs(pi_p(3.0) - 3.0469919990461723) <= 1e-10
        assert abs(pi_p_quad_oracle(3.0) - 3.0469919990461723) <= 1e-12

    def test_p15_matches_quadrature(self):
        val = pi_p(1.5)
        assert val > 0.0 and np.isfinite(val)
        assert abs(val - pi_p_quadrature(1.5)) <= 1e-8

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_closed_form_vs_quadrature(self, p):
        assert abs(pi_p(p) - pi_p_quadrature(p)) <= 1e-8
        assert abs(pi_p(p) - pi_p_quad_oracle(p)) <= 1e-10

    @pytest.mark.parametrize("p, tol", [
        (1.0 + 1e-7, 1e-8), (1.001, 1e-12), (1.1, 1e-14), (120.0, 1e-13), (200.0, 1e-13),
        (1000.0, 1e-13), (1e6, 1e-9),
    ])
    def test_quadrature_at_both_ends_of_p(self, p, tol):
        # where a half-line integrand breaks down: s^p overflows from p ~ 120
        # on, and quad runs out of subdivisions near p = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(pi_p_quadrature(p) - pi_p(p)) <= tol

    @pytest.mark.parametrize("p", [1.0, 0.5, -3.0])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(ValueError):
            pi_p(p)


def test_import_leaves_out_integrate_and_optimize():
    # only pi_p_quadrature and the c1 root need them; they load on first use
    code = (
        "import sys, plapstab\n"
        "late = ('scipy.integrate', 'scipy.optimize')\n"
        "assert not [m for m in late if m in sys.modules], sorted(sys.modules)\n"
        "assert abs(plapstab.c1_sharp(3).c1 - (2 - 2 ** 0.5)) <= 1e-14\n"
        "assert abs(plapstab.pi_p_quadrature(3) - plapstab.pi_p(3)) <= 1e-14\n"
        "assert all(m in sys.modules for m in late)\n"
    )
    src = str(Path(cpcore.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestC1Sharp:
    def test_p2_unity(self):
        res = c1_sharp(2.0)
        assert res.c1 == 1.0
        assert math.isnan(res.r0) and math.isnan(res.k0)

    def test_p3_golden(self):
        res = c1_sharp(3.0)
        assert abs(res.c1 - (2.0 - SQRT2)) <= 1e-10
        assert abs(res.r0 - (1.0 + SQRT2)) <= 1e-10
        assert abs(res.k0 - res.r0 / (1.0 + res.r0)) == 0.0

    def test_p10_inside_envelope(self):
        res = c1_sharp(10.0)
        assert 2.0**-8 <= res.c1 <= 9.0 * 2.0**-8

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0])
    def test_envelope_bounds(self, p):
        res = c1_sharp(p)
        assert res.lower <= res.c1 <= res.upper
        assert res.lower == 2.0 ** (2.0 - p)
        assert res.upper == (p - 1.0) * 2.0 ** (2.0 - p)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 10.0])
    def test_both_closed_forms_agree(self, p):
        res = c1_sharp(p)
        assert abs(res.log_c1() - res.log_c1_k0_form()) <= 1e-12

    @pytest.mark.parametrize("p", [3.0, 50.0, 500.0, 1000.0, 1025.0])
    def test_normal_range_keeps_its_products(self, p):
        res = c1_sharp(p)
        assert res.c1 == (p - 1.0) * (res.r0 + 1.0) ** (2.0 - p)
        assert res.lower == 2.0 ** (2.0 - p) and res.upper == (p - 1.0) * 2.0 ** (2.0 - p)

    @pytest.mark.parametrize("p", [1030.0, 1050.0, 1071.0, 1076.0, 1080.0, 1110.0])
    def test_subnormal_range_is_exp_of_log(self, p):
        # (p-1)(r0+1)^(2-p) multiplies a subnormal power, which keeps only a
        # few digits: c1(1071) read above c1(1070) and c1(1074) read 0
        res = c1_sharp(p)
        assert res.c1 == math.exp(math.log(p - 1.0) + (2.0 - p) * math.log1p(res.r0))
        product = (p - 1.0) * 2.0 ** (2.0 - p)
        if product < sys.float_info.min:
            assert res.upper == math.exp(math.log(p - 1.0) + (2.0 - p) * math.log(2.0))
        else:
            assert res.upper == product
        # a power of two, exact down to 2^-1074, then 0
        assert res.lower == 2.0 ** (2.0 - p)
        assert res.lower <= res.c1 <= res.upper
        assert abs(res.log_c1() - res.log_c1_k0_form()) <= 1e-12

    def test_subnormal_c1_decreases(self):
        values = [c1_sharp(float(p)).c1 for p in range(1020, 1090)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        # 2^-1074 is the least positive float
        assert values[1081 - 1020] > 0.0 and values[1082 - 1020] == 0.0

    def test_root_residual(self):
        for p in [2.5, 3.0, 4.0, 6.0, 10.0, 20.0]:
            r0 = c1_sharp(p).r0
            f = r0 ** (p - 1.0) - (p - 1.0) * r0 - (p - 2.0)
            df = (p - 1.0) * (r0 ** (p - 2.0) - 1.0)
            assert abs(f) <= 1e-12 * max(1.0, df)
            assert r0 > 1.0

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0])
    def test_root_within_two_ulp_of_mpmath(self, p):
        r0 = c1_sharp(p).r0
        ref = c1_root_mp(p)
        with mp.workdps(40):
            err = abs(mp.mpf(r0) - ref)
            assert err <= 2 * math.ulp(r0)
            # no worse than the safeguarded Newton root it replaced
            assert err <= abs(mp.mpf(c1_root_newton(p)) - ref)

    @pytest.mark.parametrize("p", [2.0001, 2.001, 2.01])
    def test_root_near_two_within_four_ulp_of_mpmath(self, p):
        # f(r) cancels to O(p - 2) here; the root is found from f / (p - 2)
        r0 = c1_sharp(p).r0
        ref = c1_root_mp(p)
        with mp.workdps(40):
            assert abs(mp.mpf(r0) - ref) <= 4 * math.ulp(r0)

    @pytest.mark.parametrize("p", [1030.0, 2000.0, 1e4])
    def test_root_where_two_overflows(self, p):
        # (p - 2) log 2 overflows expm1, so the bracket starts just above 1
        res = c1_sharp(p)
        ref = c1_root_mp(p)
        assert res.r0 > 1.0
        with mp.workdps(40):
            assert abs(mp.mpf(res.r0) - ref) <= 4 * math.ulp(res.r0)
        assert res.lower <= res.c1 <= res.upper

    @pytest.mark.parametrize("p", np.geomspace(2.0000001, 1e7, 41).tolist() + [2.0001, 3.0, 1029.0, 1082.0])
    def test_k0_residual_first_order(self, p):
        # the root equation at r = k0 / (1 - k0): at most 2e-15 p at the true
        # k0 (measured from p = 2 + 1e-7 to 1e7), at least 4e-9 p where k0
        # moves by 1e-9 relative; constants passes at 1e-13 p
        res = c1_sharp(p)
        assert abs(res.k0_residual()) <= 1e-13 * p
        for shift in (1e-9, -1e-9):
            moved = dataclasses.replace(res, k0=res.k0 * (1.0 + shift))
            assert abs(moved.k0_residual()) >= 3e-9 * p

    def test_k0_residual_log_form_where_the_scaled_form_overflows(self):
        # r = 9 and r^(p-2) overflows at p = 2000: the log form of the same
        # equation, (p-1) log r - log((p-1) r + p - 2)
        res = dataclasses.replace(c1_sharp(2000.0), k0=0.9)
        r = 0.9 / (1.0 - 0.9)
        assert res.k0_residual() == 1999.0 * math.log(r) - math.log(1999.0 * r + 1998.0)
        assert c1_sharp(2.0).k0_residual() == 0.0

    def test_p4_exact(self):
        # r^3 - 3r - 2 = (r - 2)(r + 1)^2, so r0 = 2 and c1 = 3 * 3^-2
        res = c1_sharp(4.0)
        assert res.r0 == 2.0
        assert res.c1 == 1.0 / 3.0

    def test_decay_witness(self):
        grid = [2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0]
        values = [c1_sharp(p).c1 for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 19.0 * 2.0**-18

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            c1_sharp(1.5)


class TestC1Variational:
    def test_p2_ratio_identically_one(self):
        s, t = np.array([[0.3, 0.7], [-1.0, 2.0], [5.0, 0.0], [0.0, -4.0]]).T
        assert np.all(np.abs(cpcore._c1_kernel(2.0, *cpcore._ratio_pieces(s, t)) - 1.0) <= 1e-13)

    def test_p3_brackets_sharp_value(self):
        val = c1_variational(3.0)
        assert 2.0 - SQRT2 - 1e-3 <= val <= 2.0 - SQRT2 + 1e-3

    @pytest.mark.parametrize("p", [2.0, 2.0001, 2.001, 2.01, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0])
    def test_one_sided(self, p):
        # every sample is a value of the ratio, so none may undercut c1 by
        # more than rounding; at p = 2 a refinement that may sample near the
        # origin, where the ratio's numerator cancels, gives 1 - 1.6e-7
        c1 = c1_sharp(p).c1
        assert c1 * (1.0 - 1e-12) <= c1_variational(p) <= c1 * (1.0 + 1e-6)

    @pytest.mark.parametrize("p, upper", [(122.0, 1e-6), (246.0, 1e-6), (247.0, 1e-6), (300.0, 1e-6),
                                          (1030.0, None)])
    def test_one_sided_at_large_p(self, p, upper):
        # (t^2 + s^2)^(p/2) overflows at the grid's outer radii, where the
        # plain quotient read 0 and won the minimum (at 862 of the integers
        # p from 2 to 1100, the first p = 122); at p = 1030 c1 is
        # subnormal, so only the lower side holds to rounding
        c1 = c1_sharp(p).c1
        val = c1_variational(p)
        assert val > 0.0 and val >= c1 * (1.0 - 1e-12)
        if upper is not None:
            assert val <= c1 * (1.0 + upper)

    @pytest.mark.parametrize("p", [3.0, 50.0, 246.0, 247.0, 1030.0])
    def test_ratio_is_the_plain_quotient_where_finite(self, p):
        s, t = np.meshgrid(np.linspace(-40.0, 40.0, 81), np.linspace(-40.0, 40.0, 81))
        x = t * t + s * s + 2.0 * s
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            num = np.expm1(0.5 * p * np.log1p(x)) - p * s
            den = (t * t + s * s) ** (0.5 * p)
            plain = num / den
        finite = np.isfinite(num) & np.isfinite(den)
        ratio = cpcore._c1_kernel(p, *cpcore._ratio_pieces(s, t))
        assert np.array_equal(ratio[finite], plain[finite], equal_nan=True)
        # elsewhere a value in [0, inf]: the ratio itself may overflow
        assert np.all(ratio[~finite] >= 0.0)

    @pytest.mark.parametrize("p, s, t", [(247.0, -18.0, 0.5), (247.0, 30.0, -7.0), (1030.0, -3.0, 1.0),
                                         (1030.0, 25.0, 25.0)])
    def test_log_form_ratio(self, p, s, t):
        # points where the denominator, or both sides, overflow
        with mp.workdps(40):
            ps_, ss, ts = mp.mpf(p), mp.mpf(s), mp.mpf(t)
            exact = ((ts**2 + (1 + ss) ** 2) ** (ps_ / 2) - 1 - ps_ * ss) / (ts**2 + ss**2) ** (ps_ / 2)
        ratio = float(cpcore._c1_kernel(p, *cpcore._ratio_pieces(s, t)))
        assert abs(ratio - float(exact)) <= 1e-12 * float(exact)

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            c1_variational(1.5)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the shrinking 17x17 refinement misses the ratio's "
                                           "narrow valley, 1.8e-3 to 1.0 relative above c1 at these p")
    @pytest.mark.parametrize("p", [129.0, 140.0, 441.0, 500.0, 601.0, 1030.0])
    def test_within_1e10_of_sharp_at_the_top_end(self, p):
        c1 = c1_sharp(p).c1
        assert abs(c1_variational(p) - c1) <= 1e-10 * c1


# every 7th integer p from 2 to 1080, then the p where the plain quotient
# once overflowed (122, 246, 247), where the refinement misses c1 (129, 140,
# 441) or c1 is subnormal (1029-1080), and the far top end (2e5, 1e6)
_GRID_C1_P = [float(p) for p in range(2, 1081, 7)] + [
    122.0, 129.0, 140.0, 246.0, 247.0, 441.0, 1029.0, 1030.0, 1080.0, 2e5, 1e6]
_GRID_C2C3_P = [1.0000001, 1.01, 1.1, 1.5, 1.9, 1.999]


def _sampled_hex(p):
    """The sampled constants at p, as float.hex strings."""
    return [c1_variational(p).hex()] if p >= 2.0 else [v.hex() for v in c2_c3_estimate(p)]


def _grid_hex(p):
    """The same from the whole-grid evaluation of tests/oracles.py."""
    return [c1_variational_grid(p).hex()] if p >= 2.0 else [v.hex() for v in c2_c3_estimate_grid(p)]


class TestSampleGrid:
    """The kept sample grid, evaluated chunk by chunk, against one call over
    the whole grid rebuilt per estimate (tests/oracles.py): bitwise."""

    def test_bitwise_at_listed_p(self):
        assert [p for p in _GRID_C1_P + _GRID_C2C3_P if _sampled_hex(p) != _grid_hex(p)] == []

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(p=st.one_of(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), st.floats(2.0, 2000.0)))
    def test_bitwise_at_any_p(self, p):
        assert _sampled_hex(p) == _grid_hex(p)

    @pytest.mark.parametrize("p, limit_kb", [(3.0, 128), (1.5, 128), (1000.0, 256)])
    def test_warm_call_peak_memory(self, p, limit_kb):
        # each chunk's temporaries are 32 KB arrays (97 KB at peak); at
        # p = 1000 the log form runs on every chunk and keeps a few more of
        # them (199 KB)
        _sampled_hex(p)
        tracemalloc.start()
        try:
            _sampled_hex(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_kb * 1024

    def test_kept_grid_is_read_only_and_whole_rows(self):
        near, far, stencil = cpcore._sample_grid()
        assert cpcore._sample_grid() is cpcore._sample_grid()
        arrays = [stencil] + [a for t, pieces in near + far for a in (t,) + pieces[:-1]]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            near[0][0][0] = 1.0
        rows = cpcore._N_ANGLES
        sizes = [t.size for t, _ in near + far]
        assert all(size % rows == 0 and size <= cpcore._CHUNK_ROWS * rows for size in sizes)
        assert sum(t.size for t, _ in near) == cpcore._N_RADII * rows
        assert sum(t.size for t, _ in far) == len(cpcore._C2C3_FAR_RADII) * rows
        assert sum(a.nbytes for a in arrays) <= 1.4e6

    def test_import_builds_no_grid(self):
        code = (
            "import plapstab\n"
            "from plapstab import cpcore\n"
            "assert cpcore._sample_grid.cache_info().currsize == 0\n"
            "plapstab.c2_c3_estimate(1.5)\n"
            "plapstab.c1_variational(3.0)\n"
            "assert cpcore._sample_grid.cache_info() == (1, 1, None, 1), cpcore._sample_grid.cache_info()\n"
        )
        src = str(Path(cpcore.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestCpEval:
    def test_eta_zero(self):
        for p in [1.5, 2.0, 3.0]:
            assert cp_eval(p, [1.0 + 2.0j, -3.0], [0.0, 0.0]) == 0.0

    def test_eta_equals_xi(self):
        xi = np.array([1.0 + 1.0j, 2.0, -0.5j])
        for p in [1.5, 2.0, 3.7]:
            expected = np.linalg.norm(xi) ** p
            assert abs(cp_eval(p, xi, xi) - expected) <= 1e-13 * expected

    def test_p2_real_is_eta_norm_squared(self, rng):
        for _ in range(20):
            xi = rng.normal(size=4)
            eta = rng.normal(size=4)
            val = cp_eval(2.0, xi, eta)
            assert abs(val - np.sum(eta * eta)) <= 1e-13 * (1.0 + np.sum(eta * eta))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cp_eval(2.0, [1.0, 2.0], [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cp_eval(2.0, [np.inf, 0.0], [1.0, 0.0])

    def test_cancellation_clamped_near_zero(self):
        # eta nearly parallel and tiny: exact value 3 eps^2, below rounding
        eps = 1e-9
        val, clamped = cp_eval_flagged(3.0, [1.0, 0.0], [eps, 0.0])
        assert 0.0 <= val <= 1e-15
        assert isinstance(clamped, bool)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_nonnegative_battery(self, p, rng):
        n = 10000
        xi = rng.normal(size=(n, 3))
        eta = rng.normal(size=(n, 3))
        assert np.min(cp_eval_batch(p, xi, eta)) >= 0.0
        xi_c = xi + 1j * rng.normal(size=(n, 3))
        eta_c = eta + 1j * rng.normal(size=(n, 3))
        assert np.min(cp_eval_batch(p, xi_c, eta_c)) >= 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_c1_lower_bound_battery(self, p, rng):
        c1 = c1_sharp(p).c1
        n = 10000
        for complex_case in (False, True):
            xi = rng.normal(size=(n, 3))
            eta = rng.normal(size=(n, 3))
            if complex_case:
                xi = xi + 1j * rng.normal(size=(n, 3))
                eta = eta + 1j * rng.normal(size=(n, 3))
            vals = cp_eval_batch(p, xi, eta)
            ne = np.linalg.norm(eta, axis=1)
            nx = np.linalg.norm(xi, axis=1)
            scale = np.maximum(nx, ne) ** p + 1.0
            assert np.all(vals >= c1 * ne**p - 1e-12 * scale)

    def test_batch_matches_single(self, rng):
        # the single-vector formula of the oracle, row by row
        xi = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        eta = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        batch = cp_eval_batch(2.5, xi, eta)
        singles = [cp_scalar(2.5, x, e)[0] for x, e in zip(xi, eta)]
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 3.7, 6.0])
    def test_flagged_matches_scalar_oracle(self, p):
        rng = np.random.default_rng(2024)
        for n in range(1, 5):
            for complex_case in (False, True):
                for _ in range(40):
                    xi, eta = rng.normal(size=(2, n))
                    if complex_case:
                        xi, eta = xi + 1j * rng.normal(size=n), eta + 1j * rng.normal(size=n)
                    # |xi| from 1e-3 to 1e3, |eta| / |xi| from 1e-6 to 10
                    size = 10.0 ** rng.uniform(-3.0, 3.0)
                    xi, eta = size * xi, size * 10.0 ** rng.uniform(-6.0, 1.0) * eta
                    for e in (eta, np.zeros(n), xi):
                        val, _ = cp_eval_flagged(p, xi, e)
                        ref, _ = cp_scalar(p, xi, e)
                        big = max(np.linalg.norm(v) for v in (xi, e, xi - e))
                        assert abs(val - ref) <= 1e-14 * (big**p + 1.0)

    def test_cancellation_flag_matches_scalar_oracle(self):
        args = (3.0, [1.0, 0.0], [1e-9, 0.0])
        assert cp_eval_flagged(*args) == cp_scalar(*args) == (0.0, True)


class TestC2C3:
    def test_p15_membership(self):
        p = 1.5
        c2_est, c3_est = c2_c3_estimate(p)
        assert 0.0 < c2_est <= p * (p - 1.0) / 2.0 ** (p - 1.0) + 1e-9
        assert c3_est >= p / 2.0 ** (p - 1.0) - 1e-9

    @pytest.mark.parametrize("p", [2.0, 2.5, 1.0, 0.3])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            c2_c3_estimate(p)

    def test_battery_brackets_random_ratios(self, rng):
        # sampled constants are one-sided: allow a small grid cushion
        p = 1.5
        c2_est, c3_est = c2_c3_estimate(p)
        n = 10000
        xi = rng.normal(size=(n, 3))
        eta = rng.normal(size=(n, 3))
        vals = cp_eval_batch(p, xi, eta)
        ne = np.linalg.norm(eta, axis=1)
        nx = np.linalg.norm(xi, axis=1)
        nd = np.linalg.norm(xi - eta, axis=1)
        keep = ne > 1e-12
        ratio = vals[keep] * (nx[keep] + nd[keep]) ** (2.0 - p) / ne[keep] ** 2
        cushion = 1e-4
        assert np.min(ratio) >= c2_est - cushion
        assert np.max(ratio) <= c3_est + cushion

    def test_default_grid_has_asymptotic_probes(self, monkeypatch):
        # the kept grid's far rows reach 1e6; c2/c3 samples them, c1 does not
        _, far, _ = cpcore._sample_grid()
        assert max(np.max(np.hypot(pieces[0], t)) for t, pieces in far) >= 1e6
        radii = {}
        for name in ("_c1_kernel", "_c2c3_kernel"):
            def recorded(p, s, log1p_x, r2, *rest, kernel=getattr(cpcore, name), name=name):
                radii.setdefault(name, []).append(math.sqrt(np.max(r2)))
                return kernel(p, s, log1p_x, r2, *rest)

            monkeypatch.setattr(cpcore, name, recorded)
        c2_c3_estimate(1.5)
        c1_variational(3.0)
        assert max(radii["_c2c3_kernel"]) >= 1e6
        assert max(radii["_c1_kernel"]) < min(cpcore._C2C3_FAR_RADII)
