"""The four benchmark workloads: battery, eigen, gap and cli.

Each workload is a fixed list of operations that call the public API of
plapstab in the order the CLI makes the same calls.  One pass runs every
operation once, in one process, one operation at a time.  Every operation is
checked (convergence, verdicts, exit codes, report digests, closed-form
eigenvalues) and a violation is recorded on the operation instead of being
raised, so that a faster but wrong answer counts as a failed operation.
"""

import hashlib
import json
import math
import os
import time
from types import SimpleNamespace

import plapstab as ps
from plapstab import cli, spectral, verify

import speed

PI2 = math.pi**2
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_FLAG = "polygon:0,0;1,0;1,1;0,1"
DOMAINS = {
    "interval": lambda: ps.interval_domain(0.0, 1.0),
    "square": lambda: ps.polygon_domain(UNIT_SQUARE),
}
MEASURES = {"lebesgue": ps.lebesgue, "gaussian": ps.gaussian}


def library():
    """The public calls the workloads make; the traced run swaps in wrapped ones."""
    return SimpleNamespace(
        first_eigenpair=spectral.first_eigenpair,
        second_eigenvalue=spectral.second_eigenvalue,
        stability_battery=verify.stability_battery,
        gap_check=verify.gap_check,
        cli_main=cli.main,
    )


def reference(shape, index, p):
    """Closed-form Dirichlet lambda_index under the Lebesgue measure, with the
    acceptance tolerance it is checked at; None where no closed form exists."""
    if shape == "interval":
        # lambda_k on (0, 1) is (k pi_p)^p; 0.1% at p = 2 and 1% otherwise
        return (index * ps.pi_p(p)) ** p, (1e-3 if p == 2.0 else 1e-2)
    if shape == "square" and p == 2.0:
        return (2.0 if index == 1 else 5.0) * PI2, 1.5e-2
    return None


class Context:
    """Per-run state shared by the passes of one workload."""

    def __init__(self, seed, lib, out_dir, reference_scale=1.0, calibrate=False):
        self.seed = seed
        self.lib = lib
        self.out_dir = out_dir
        # a deliberately wrong scale lets the smoke test exercise the checker
        self.reference_scale = reference_scale
        # time the speed kernel before each operation (see speed.py)
        self.calibrate = calibrate
        self.digests = {}

    def opts(self, **extra):
        return ps.SolverOptions(seed=self.seed, **extra)

    def run(self, name, body):
        """Run one operation, timing it and recording every violation."""
        op = Op(name)
        if self.calibrate:
            op.kernel_before = speed.kernel()
        t0 = time.perf_counter()
        try:
            body(op)
        except Exception as exc:  # a crash is one failed operation, not a crashed run
            op.problems.append(f"{type(exc).__name__}: {exc}")
        op.seconds = time.perf_counter() - t0
        return op


class Op:
    """One checked operation: its time, the eigenvalues it produced, and every
    violation found."""

    def __init__(self, name):
        self.name = name
        self.seconds = 0.0
        self.lambdas = []
        self.problems = []
        self.extra = {}
        self.kernel_before = None
        self.scaled_seconds = None
        # (p, shape, level, measure, mesh, ground state) the per-layer probes reuse
        self.cells = []

    def expect(self, ok, problem):
        if not ok:
            self.problems.append(problem)

    def eigenvalue(self, ctx, shape, measure, p, index, value):
        value = float(value)
        entry = {"index": index, "p": p, "shape": shape, "measure": measure, "lambda": value}
        self.expect(math.isfinite(value) and value > 0.0, f"lambda{index} = {value}")
        ref = reference(shape, index, p) if measure == "lebesgue" else None
        if ref is not None and math.isfinite(value):
            exact = ref[0] * ctx.reference_scale
            rel = abs(value - exact) / exact
            entry.update(reference=exact, rel_err=rel, tol=ref[1])
            self.expect(rel <= ref[1], f"lambda{index} rel err {rel:.3e} > {ref[1]}")
        self.lambdas.append(entry)

    def record(self):
        return {
            "name": self.name,
            "seconds": self.seconds,
            "scaled_seconds": self.scaled_seconds,
            "ok": not self.problems,
            "problems": self.problems,
            "lambdas": self.lambdas,
            **self.extra,
        }


def build_meshes(levels):
    """Build each (shape, level) mesh once: this is the workload's set-up."""
    return {key: ps.build_mesh(DOMAINS[key[0]](), key[1]) for key in levels}


class Battery:
    """The acceptance-07 grid: per cell one ground state, then one batch call
    to stability_battery over seeded random fields."""

    name = "battery"

    def __init__(self, smoke=False):
        self.grid = [("interval", 2 if smoke else 4), ("square", 3)]
        self.fields = 3 if smoke else 100

    def build(self):
        meshes = build_meshes(self.grid)
        return [
            (p, shape, level, measure, meshes[(shape, level)])
            for p in (2.0, 3.0, 4.0)
            for shape, level in self.grid
            for measure in ("lebesgue", "gaussian")
        ]

    def run_pass(self, cells, ctx):
        ops = []
        for p, shape, level, measure, mesh in cells:

            def body(op, p=p, shape=shape, level=level, measure=measure, mesh=mesh):
                meas = MEASURES[measure]()
                pair = ctx.lib.first_eigenpair(p, mesh, meas, ctx.opts())
                op.expect(pair.converged, "ground state did not converge")
                op.eigenvalue(ctx, shape, measure, p, 1, pair.lam)
                op.cells.append((p, shape, level, measure, mesh, pair))
                t0 = time.perf_counter()
                reports = ctx.lib.stability_battery(
                    p, DOMAINS[shape](), mesh, meas, self.fields, seed=ctx.seed, eigenpair=pair
                )
                op.extra["verify_s"] = time.perf_counter() - t0
                op.extra["fields"] = len(reports)
                op.extra["worst_margin_over_tol"] = min(
                    r.margin / max(r.tol_quad, 1e-300) for r in reports
                )
                op.expect(len(reports) == self.fields, f"{len(reports)} reports")
                failed = sum(not r.passed for r in reports)
                op.expect(failed == 0, f"{failed} fields failed the stability inequality")

            ops.append(ctx.run(f"battery p={p:g} {shape} L{level} {measure}", body))
        return ops


class Eigen:
    """Ground states on a few large systems, and one deflated second eigenvalue."""

    name = "eigen"

    def __init__(self, smoke=False):
        square, deflate, line = (3, 4, 3) if smoke else (4, 5, 5)
        self.solves = [
            (p, shape, level, measure)
            for shape, level, ps_ in (
                ("square", square, (2.0, 3.0, 6.0)),
                ("square", deflate, (2.0,)),
                ("interval", line, (2.0, 3.0, 6.0)),
            )
            for p in ps_
            for measure in ("lebesgue", "gaussian")
        ]
        self.deflate = ("square", deflate)

    def build(self):
        return build_meshes(sorted({(s[1], s[2]) for s in self.solves}))

    def run_pass(self, meshes, ctx):
        ops = []
        ground = {}
        for p, shape, level, measure in self.solves:

            def body(op, p=p, shape=shape, level=level, measure=measure):
                meas = MEASURES[measure]()
                mesh = meshes[(shape, level)]
                pair = ctx.lib.first_eigenpair(p, mesh, meas, ctx.opts())
                op.expect(pair.converged, "did not converge")
                op.extra["iterations"] = pair.iterations
                op.eigenvalue(ctx, shape, measure, p, 1, pair.lam)
                op.cells.append((p, shape, level, measure, mesh, pair))
                ground[(p, shape, level, measure)] = pair

            ops.append(ctx.run(f"first p={p:g} {shape} L{level} {measure}", body))

        shape, level = self.deflate

        def second(op):
            pair = ground[(2.0, shape, level, "lebesgue")]
            mesh = meshes[(shape, level)]
            pair2 = ctx.lib.second_eigenvalue(2.0, mesh, ps.lebesgue(), pair, ctx.opts())
            op.expect(pair2.converged, "deflation did not converge")
            op.expect(pair2.estimator == "deflation", f"estimator {pair2.estimator}")
            op.extra["iterations"] = pair2.iterations
            op.eigenvalue(ctx, shape, "lebesgue", 2.0, 2, pair2.lam)

        ops.append(ctx.run(f"second p=2 {shape} L{level} lebesgue", second))
        return ops


class Gap:
    """Fundamental-gap reports: the p = 3 hyperplane-cut sweep on the interval
    and the p = 2 deflation gaps on the interval and the square."""

    name = "gap"

    def __init__(self, smoke=False):
        self.cases = [(3.0, "interval", 1), (2.0, "interval", 2 if smoke else 4), (2.0, "square", 4)]
        # the smoke run keeps the cut sweep but with fewer offsets per direction
        self.sweep = {"n_offsets": 8} if smoke else {}

    def build(self):
        return build_meshes(sorted({(c[1], c[2]) for c in self.cases}))

    def run_pass(self, meshes, ctx):
        ops = []
        for p, shape, level in self.cases:

            def body(op, p=p, shape=shape, level=level):
                meas = ps.lebesgue()
                mesh = meshes[(shape, level)]
                opts = ctx.opts(**self.sweep)
                u1 = ctx.lib.first_eigenpair(p, mesh, meas, opts)
                op.expect(u1.converged, "ground state did not converge")
                op.cells.append((p, shape, level, "lebesgue", mesh, u1))
                u2 = ctx.lib.second_eigenvalue(p, mesh, meas, u1, opts)
                op.expect(u2.converged, "second eigenvalue did not converge")
                op.extra.update(estimator=u2.estimator, iterations=u2.iterations)
                rep = ctx.lib.gap_check(p, DOMAINS[shape](), mesh, meas, opts=opts, pairs=(u1, u2))
                op.eigenvalue(ctx, shape, "lebesgue", p, 1, rep.lambda1)
                op.eigenvalue(ctx, shape, "lebesgue", p, 2, rep.lambda2)
                op.extra["margin_over_tol"] = rep.margin / rep.tol_quad
                op.expect(rep.passed, f"gap verdict {rep.verdict}")
                want = "certified" if p == 2.0 else "empirical"
                op.expect(rep.verdict == want, f"verdict {rep.verdict}, want {want}")
                op.expect(rep.lambda2_is_upper_bound == (p != 2.0), "upper-bound flag")
                if p == 2.0 and shape == "interval":
                    # acceptance 08: gap 3 pi^2 to 1%, C exactly 1
                    op.expect(abs(rep.gap - 3.0 * PI2) <= 0.03 * PI2, f"gap {rep.gap}")
                    op.expect(abs(rep.C_value - 1.0) <= 1e-8, f"C {rep.C_value}")
                if p == 2.0 and shape == "square":
                    op.expect(rep.gap >= PI2 / 2.0, f"gap {rep.gap}")

            ops.append(ctx.run(f"gap p={p:g} {shape} L{level}", body))
        return ops


class Cli:
    """In-process plapstab.cli.main over the documented commands."""

    name = "cli"

    def __init__(self, smoke=False):
        picone_level, gap_level = (2, 3) if smoke else (3, 4)
        self.commands = [
            ("constants", ["--p", "2,3" if smoke else "1.5,2,3,10"]),
            ("picone", ["--p", "2,2.5,3,4", "--level", str(picone_level), "--samples", "1000"]),
            ("eigen", ["--p", "2", "--domain", SQUARE_FLAG, "--level", "4", "--second"]),
            ("stability", ["--p", "2", "--domain", SQUARE_FLAG, "--measure", "gaussian", "--level", "3",
                           "--fields", "5" if smoke else "100", "--csv", "{dir}/stability.csv"]),
            ("gap", ["--p", "2", "--domain", "interval:0,1", "--level", str(gap_level)]),
        ]
        # (p, shape, level, measure) of the meshes and ground states the commands use
        self.probe_cells = [
            (2.0, "interval", picone_level, "lebesgue"),
            (2.0, "square", 4, "lebesgue"),
            (2.0, "square", 3, "gaussian"),
            (2.0, "interval", gap_level, "lebesgue"),
        ]

    def build(self):
        """The commands build their own meshes, so set-up is the import alone."""
        return None

    def run_pass(self, _inputs, ctx):
        ops = []
        out = os.path.join(ctx.out_dir, f"cli-s{ctx.seed}")
        os.makedirs(out, exist_ok=True)
        for command, flags in self.commands:

            def body(op, command=command, flags=flags):
                path = os.path.join(out, f"{command}.json")
                argv = [command, *[f.format(dir=out) for f in flags],
                        "--seed", str(ctx.seed), "--no-timestamp", "--out", path]
                if os.path.exists(path):
                    os.remove(path)
                code = ctx.lib.cli_main(argv)
                op.extra["command"] = command
                op.expect(code == 0, f"exit code {code}")
                with open(path, "rb") as fh:
                    text = fh.read()
                op.extra["report_bytes"] = len(text)
                digest = hashlib.sha256(text).hexdigest()
                first = ctx.digests.setdefault(command, digest)
                op.expect(digest == first, "report differs from the first pass at this seed")
                report = json.loads(text)
                op.expect(report["passed"] is True, "report not passed")
                self._check(op, ctx, command, report)

            ops.append(ctx.run(f"cli {command}", body))
        return ops

    def _check(self, op, ctx, command, report):
        results = report["results"]
        if command == "eigen":
            entry = results[0]
            op.expect(entry["first"]["converged"] and entry["second"]["converged"], "not converged")
            op.eigenvalue(ctx, "square", "lebesgue", 2.0, 1, entry["first"]["lambda"])
            op.eigenvalue(ctx, "square", "lebesgue", 2.0, 2, entry["second"]["lambda"])
        elif command == "gap":
            op.expect(results[0]["verdict"] == "certified", f"verdict {results[0]['verdict']}")
            op.eigenvalue(ctx, "interval", "lebesgue", 2.0, 1, results[0]["lambda1"])
            op.eigenvalue(ctx, "interval", "lebesgue", 2.0, 2, results[0]["lambda2"])
        else:
            op.expect(all(r["passed"] for r in results), "a result did not pass")


WORKLOADS = {w.name: w for w in (Battery, Eigen, Gap, Cli)}
