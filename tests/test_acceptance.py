"""Acceptance battery: one test per release criterion, each printing a
PASS/FAIL line (run with -s to stream them).  Golden constants are checked
against hand closed forms, solver output against independent oracles
(shooting, high-precision quadrature, closed-form sines), and the
inequality batteries at their stated tolerances."""

import math
import time

import numpy as np

import plapstab as ps
from plapstab.cpcore import c1_sharp, c1_variational, cp_eval_batch, pi_p
from plapstab.verify import stability_battery, weighted_poincare_check

from oracles import lambda1_interval_quadrature, shooting_eigenvalue, unit_weight

PI2 = math.pi**2
SQRT2 = math.sqrt(2.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def smooth_random_values(x, a, b, seed=42):
    """Fixed smooth zero-trace battery field: seeded low-pass sine series."""
    coef = np.random.default_rng(seed).normal(size=5)
    out = np.zeros_like(x)
    for k, c in enumerate(coef, start=1):
        out += c / (k * k) * np.sin(k * math.pi * (x - a) / (b - a))
    return out


def test_criterion_01_constants_golden():
    t0 = time.perf_counter()
    ok_c12 = c1_sharp(2.0).c1 == 1.0
    ok_c13 = abs(c1_sharp(3.0).c1 - (2.0 - SQRT2)) <= 1e-10
    ok_pi2 = abs(pi_p(2.0) - math.pi) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok_c12 and ok_c13 and ok_pi2 and elapsed < 1.0
    report(1, ok, f"c1(2)=1, c1(3)=2-sqrt2 to 1e-10, pi_2=pi to 1e-12 ({elapsed:.3f}s)")


def test_criterion_02_c1_envelope():
    t0 = time.perf_counter()
    ok = True
    for p in (2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0):
        res = c1_sharp(p)
        ok = ok and 2.0 ** (2.0 - p) <= res.c1 <= (p - 1.0) * 2.0 ** (2.0 - p)
        ok = ok and abs(res.log_c1() - res.log_c1_k0_form()) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"2^(2-p) <= c1 <= (p-1)2^(2-p) and both forms agree, p grid ({elapsed:.3f}s)")


def test_criterion_03_cp_lower_bound_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    worst = np.inf
    for p in (2.0, 3.0, 4.0):
        c1 = c1_sharp(p).c1
        for complex_case in (False, True):
            xi = rng.normal(size=(10000, 3))
            eta = rng.normal(size=(10000, 3))
            if complex_case:
                xi = xi + 1j * rng.normal(size=(10000, 3))
                eta = eta + 1j * rng.normal(size=(10000, 3))
            vals = cp_eval_batch(p, xi, eta)
            ne = np.linalg.norm(eta, axis=1)
            scale = np.maximum(np.linalg.norm(xi, axis=1), ne) ** p + 1.0
            slack = np.min(vals - c1 * ne**p + 1e-12 * scale)
            worst = min(worst, slack)
            ok = ok and slack >= 0.0
    var3 = c1_variational(3.0)
    ok = ok and abs(var3 - (2.0 - SQRT2)) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(3, ok, f"C_p >= c1|eta|^p on 6x10^4 pairs (worst slack {worst:.1e}), "
                  f"variational inf(3)={var3:.9f} ({elapsed:.2f}s)")


def test_criterion_04_p2_eigensolver_convergence(cache):
    t0 = time.perf_counter()
    errs_i, errs_s1, errs_s2 = [], [], []
    for level in (2, 3, 4):
        errs_i.append(abs(cache.pair(2.0, "interval01", level).lam - PI2) / PI2)
        errs_s1.append(abs(cache.pair(2.0, "square", level).lam - 2.0 * PI2) / (2.0 * PI2))
        errs_s2.append(abs(cache.second(2.0, "square", level).lam - 5.0 * PI2) / (5.0 * PI2))
    ok = errs_i[-1] <= 1e-3 and errs_s1[-1] <= 0.015 and errs_s2[-1] <= 0.015
    for errs in (errs_i, errs_s1, errs_s2):
        ok = ok and errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, f"interval lam1 err {errs_i[-1]:.2e} (<=0.1%), square lam1/lam2 errs "
                  f"{errs_s1[-1]:.2e}/{errs_s2[-1]:.2e} (<=1.5%), shrink >=3x ({elapsed:.1f}s)")


def test_criterion_05_p3_interval_vs_shooting_oracle(cache):
    t0 = time.perf_counter()
    lam_shoot = shooting_eigenvalue(1, 3.0, 0.0, 1.0, unit_weight)
    lam_quad = lambda1_interval_quadrature(3.0)
    # two independent oracles agree with each other and with pi_p(3)^3
    oracles_ok = abs(lam_shoot - lam_quad) <= 1e-6 * lam_quad
    oracles_ok = oracles_ok and abs(lam_quad - pi_p(3.0) ** 3) <= 1e-10 * lam_quad
    lam_fem = cache.pair(3.0, "interval01", 4).lam
    fem_ok = abs(lam_fem - lam_shoot) <= 0.01 * lam_shoot
    elapsed = time.perf_counter() - t0
    ok = oracles_ok and fem_ok and elapsed < 60.0
    report(5, ok, f"lambda1(3,(0,1)): FEM {lam_fem:.6f} vs shooting {lam_shoot:.6f} "
                  f"= pi_3^3 (quadrature oracle {lam_quad:.6f}) within 1% ({elapsed:.1f}s)")


def test_criterion_06_identity_battery(cache):
    t0 = time.perf_counter()
    worst_l4 = 0.0
    worst_shrink = np.inf
    ok = True
    for dom_name, measure in (("interval01", "lebesgue"), ("interval-sym", "gaussian")):
        a, b = cache.domain(dom_name).interval
        meas = ps.lebesgue() if measure == "lebesgue" else ps.gaussian()
        for p in (2.0, 3.0):
            residuals = {"sin": [], "poly": [], "rand": []}
            for level in (2, 3, 4):
                mesh = cache.mesh(dom_name, level)
                pair = cache.pair(p, dom_name, level, measure)
                x = mesh.nodes[:, 0]
                fields = {
                    "sin": np.sin(2.0 * math.pi * x),
                    "poly": x * (1.0 - x),
                    "rand": smooth_random_values(x, a, b),
                }
                for name, vals in fields.items():
                    u = ps.zero_trace(mesh, vals)
                    residuals[name].append(
                        ps.identity_check(p, u, pair.field, pair.lam, meas)
                    )
            for name, seq in residuals.items():
                worst_l4 = max(worst_l4, seq[-1])
                shrink = min(seq[0] / seq[1], seq[1] / seq[2])
                worst_shrink = min(worst_shrink, shrink)
                ok = ok and seq[-1] <= 0.02 and shrink >= 1.5
    elapsed = time.perf_counter() - t0
    report(6, ok, f"deficit/remainder identity: worst level-4 residual {worst_l4:.2e} "
                  f"(<=2%), worst shrink {worst_shrink:.2f}x (>=1.5x), "
                  f"Lebesgue+Gaussian ({elapsed:.1f}s)")


def test_criterion_07_stability_battery(cache):
    t0 = time.perf_counter()
    ok = True
    worst = np.inf
    cells = 0
    for p in (2.0, 3.0, 4.0):
        for dom_name, level in (("interval01", 4), ("square", 3)):
            for measure in ("lebesgue", "gaussian"):
                domain = cache.domain(dom_name)
                mesh = cache.mesh(dom_name, level)
                meas = ps.lebesgue() if measure == "lebesgue" else ps.gaussian()
                pair = cache.pair(p, dom_name, level, measure)
                reports = stability_battery(
                    p, domain, mesh, meas, 1000, seed=100, eigenpair=pair
                )
                frac = np.mean([r.passed for r in reports])
                margin = min(r.margin / max(r.tol_quad, 1e-300) for r in reports)
                worst = min(worst, margin)
                ok = ok and frac == 1.0
                cells += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(7, ok, f"stability battery: {cells} cells x 1000 fields all passed, "
                  f"worst margin/tol {worst:.1e} ({elapsed:.1f}s)")


def test_criterion_08_fundamental_gap(cache):
    t0 = time.perf_counter()
    leb = ps.lebesgue()
    interval = cache.domain("interval01")
    square = cache.domain("square")

    rep_i = ps.gap_check(
        2.0, interval, cache.mesh("interval01", 4), leb,
        pairs=(cache.pair(2.0, "interval01", 4), cache.second(2.0, "interval01", 4)),
    )
    ok = rep_i.passed and abs(rep_i.gap - 3.0 * PI2) <= 0.01 * 3.0 * PI2
    ok = ok and abs(rep_i.C_value - 1.0) <= 1e-8

    rep_s = ps.gap_check(
        2.0, square, cache.mesh("square", 4), leb,
        pairs=(cache.pair(2.0, "square", 4), cache.second(2.0, "square", 4)),
    )
    ok = ok and rep_s.passed and rep_s.gap >= PI2 / 2.0

    rep_3 = ps.gap_check(
        3.0, interval, cache.mesh("interval01", 4), leb,
        pairs=(cache.pair(3.0, "interval01", 4), cache.second(3.0, "interval01", 4)),
    )
    ok = ok and rep_3.passed and rep_3.lambda2_is_upper_bound
    ok = ok and rep_3.verdict == "empirical"
    elapsed = time.perf_counter() - t0
    report(8, ok, f"gap: interval p2 gap={rep_i.gap:.4f} C={rep_i.C_value:.9f}, square p2 "
                  f"gap={rep_s.gap:.4f}>=pi^2/2, p3 empirical w/ upper-bound flag ({elapsed:.1f}s)")


def test_criterion_09_picone_identity(cache):
    t0 = time.perf_counter()
    mesh = cache.mesh("square", 3)
    rng = np.random.default_rng(99)
    u = ps.random_zero_trace_field(mesh, rng)
    phi = ps.Field(mesh, 0.5 + rng.uniform(0.0, 1.0, mesh.n_nodes))
    ok = True
    worst = 0.0
    for p in (2.0, 2.5, 3.0, 4.0):
        res = ps.picone_check(p, u, phi, ps.lebesgue(), max_samples=1000, seed=7)
        rel = res.max_abs_residual / (1e-8 * res.scale)
        worst = max(worst, rel)
        ok = ok and res.max_abs_residual <= 1e-8 * res.scale and res.n_samples == 1000
    elapsed = time.perf_counter() - t0
    report(9, ok, f"picone |C_p - R_p| <= 1e-8*scale on 10^3 points, worst "
                  f"{worst:.1e} of budget ({elapsed:.1f}s)")


def test_criterion_10_weighted_poincare_sharpness(cache):
    t0 = time.perf_counter()
    interval = cache.domain("interval01")
    mesh = cache.mesh("interval01", 5)
    f = ps.interpolate(mesh, lambda pts: np.cos(math.pi * pts[:, 0]))
    rep = weighted_poincare_check(2.0, interval, f, np.ones_like(mesh.quad_weights))
    rel = abs(rep.ratio - PI2) / PI2
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rel <= 1e-4
    report(10, ok, f"cos(pi x) witness: ratio {rep.ratio:.8f} vs pi^2, rel {rel:.1e} "
                   f"(<=1e-4) ({elapsed:.1f}s)")


def _logconc_failures(pair, mesh, n_pairs, seed):
    u = pair.field
    vals = u.values
    umax = float(vals.max())
    interior = np.nonzero(mesh.interior & (vals > 1e-3 * umax))[0]
    rng = np.random.default_rng(seed)
    h = mesh.h
    fails = 0
    for _ in range(n_pairs):
        i, j = rng.choice(interior, 2, replace=False)
        um = u(0.5 * (mesh.nodes[i] + mesh.nodes[j])[None, :])[0]
        if um <= 0.0:
            fails += 1
            continue
        # slack: P1 interpolation error h^2 |D^2 u| / 8 with |D^2 u| ~ lam*umax,
        # converted to log scale through the sampled values
        tau = 0.5 * h * h * pair.lam * umax * (1.0 / vals[i] + 1.0 / vals[j] + 1.0 / um)
        if math.log(um) < 0.5 * (math.log(vals[i]) + math.log(vals[j])) - tau:
            fails += 1
    return fails / n_pairs


def test_criterion_11_log_concavity(cache):
    t0 = time.perf_counter()
    ok = True
    details = []
    for measure in ("lebesgue", "gaussian"):
        fracs = []
        for level in (3, 4):
            pair = cache.pair(2.0, "square", level, measure)
            mesh = cache.mesh("square", level)
            fracs.append(_logconc_failures(pair, mesh, 1000, seed=17))
        ok = ok and fracs[-1] <= 1e-3 and fracs[1] <= fracs[0]
        details.append(f"{measure}: fail {fracs[0]:.4f}->{fracs[1]:.4f}")
    elapsed = time.perf_counter() - t0
    report(11, ok, f"midpoint log-concavity of ground states ({'; '.join(details)}), "
                   f">=99.9% pass, non-increasing ({elapsed:.1f}s)")
