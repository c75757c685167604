"""One benchmark process, started in a fresh interpreter by run.py.

    worker.py setup --workload W            import plapstab, build the inputs, print "ready"
    worker.py measure --workload W --seed S --seconds T --trace 0|1 --out FILE

`measure` repeats passes of the workload until the next pass would end after
T seconds, and writes the pass times, checked operations and metrics to FILE.
With --trace 1 it alternates untraced and traced passes, so the tracing
overhead is measured in the same process, then runs the per-layer probes and
writes the spans beside FILE.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import speed
import workloads


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def run_passes(workload, inputs, ctx, seconds, tracer):
    """Closed loop of passes; with a tracer, untraced and traced passes alternate."""
    from tracing import instrumented

    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.run = len(passes)
            with instrumented(tracer, ctx.lib), tracer.span("pass", "bench"):
                ops = workload.run_pass(inputs, ctx)
        else:
            ops = workload.run_pass(inputs, ctx)
        wall = time.perf_counter() - t0
        record = {"traced": traced, "wall_s": wall, "ops": ops}
        if ctx.calibrate:
            after = [op.kernel_before for op in ops[1:]] + [speed.kernel()]
            for op, k_after in zip(ops, after):
                op.scaled_seconds = speed.scale(op.seconds, op.kernel_before, k_after)
            # the pass time without the kernels run between operations
            record["wall_s"] = sum(op.seconds for op in ops)
            record["scaled_s"] = sum(op.scaled_seconds for op in ops)
        passes.append(record)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start + wall > seconds:
            return passes


def end_to_end(passes):
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    scaled = [p["scaled_s"] for p in untraced]
    rel = {1: [], 2: []}
    for p in untraced:
        for op in p["ops"]:
            for lam in op.lambdas:
                if "rel_err" in lam:
                    rel[lam["index"]].append(lam["rel_err"])
    metrics = {
        "wall_ref_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # no checked eigenvalue at all (every operation crashed) counts as 100% error
        "lambda1_rel_err": (max(rel[1], default=1.0), "rel"),
    }
    # reported where they apply; the JSON line carries the metrics every workload has
    extra = {"wall_ref_s_passes": scaled, "wall_s_passes": walls}
    if rel[2]:
        extra["lambda2_rel_err"] = max(rel[2])
    margins = [op.extra["worst_margin_over_tol"] for p in untraced for op in p["ops"]
               if "worst_margin_over_tol" in op.extra]
    verified = [(sum(op.extra.get("fields", 0) for op in p["ops"]),
                 sum(op.extra.get("verify_s", 0.0) for op in p["ops"])) for p in untraced]
    rates = [fields / seconds for fields, seconds in verified if seconds > 0.0]
    if rates:
        extra["fields_per_s_passes"] = rates
    if margins:
        extra["worst_margin_over_tol"] = min(margins)
    return metrics, extra


def per_layer(passes, tracer, probes):
    from tracing import LAYERS, summarize

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        run = passes.index(p)
        summary = summarize(tracer.spans, run)
        spans = [s for s in tracer.spans if s["run"] == run]
        first = [s for s in spans if s["name"] == "spectral.first_eigenpair"]
        second = [s for s in spans if s["name"] == "spectral.second_eigenvalue"]
        wall = p["wall_s"]
        # spans of calls that raised carry no result attributes
        outer = sum(s.get("iterations", 0) for s in first)
        row = {
            "spectral.first_eigenpair_s": sum(s["end"] - s["start"] for s in first),
            "spectral.outer_iterations": outer,
            "spectral.converged_frac": sum(s.get("converged", False) for s in first) / max(len(first), 1),
            "spectral.unconverged_warnings": sum(not s.get("converged", False) for s in first),
            "spectral.n_cuts": sum(s["iterations"] for s in second if s.get("estimator") == "nodal-cut"),
            "spectral.deflation_iterations": sum(
                s["iterations"] for s in second if s.get("estimator") == "deflation"),
            "verify.fields": sum(s.get("fields", 0) for s in spans),
            "cli.report_bytes": sum(op.extra.get("report_bytes", 0) for op in p["ops"]),
            "trace.spans": len(spans),
        }
        row["spectral.s_per_outer"] = row["spectral.first_eigenpair_s"] / max(outer, 1)
        for layer in (*LAYERS, "bench"):
            row[f"{layer}.self_frac"] = summary["layers"].get(layer, 0.0) / wall
        row["_summary"] = summary
        row["_wall"] = wall
        rows.append(row)

    metrics = {}
    for name in rows[0]:
        if not name.startswith("_"):
            metrics[name] = statistics.median(r[name] for r in rows)
    metrics.update(probes)
    traced_wall = statistics.median(r["_wall"] for r in rows)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    # self time per layer and per traced name, for the accounting report
    layers = {layer: statistics.median(r["_summary"]["layers"].get(layer, 0.0) for r in rows)
              for layer in (*LAYERS, "bench")}
    names = {}
    for r in rows:
        for name, entry in r["_summary"]["names"].items():
            names.setdefault(name, []).append(entry)
    names = {name: {k: statistics.median(e[k] for e in entries) for k in entries[0]}
             for name, entries in names.items()}
    accounting = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "layer_self_s": {k: v for k, v in layers.items() if k != "bench"},
        "layer_self_sum_s": sum(v for k, v in layers.items() if k != "bench"),
        "bench_self_s": layers["bench"],
        "overhead_s": traced_wall - untraced_wall,
    }
    # wall_s untraced = sum of layer self times + harness time - tracing overhead
    accounting["residual_s"] = (untraced_wall - accounting["layer_self_sum_s"]
                                - accounting["bench_self_s"])
    accounting["accounted"] = abs(accounting["residual_s"]) <= abs(accounting["overhead_s"]) + 1e-3
    return metrics, {"accounting": accounting, "by_name": names}


def probe_cells(workload, passes):
    if hasattr(workload, "probe_cells"):
        meshes = workloads.build_meshes(sorted({(c[1], c[2]) for c in workload.probe_cells}))
        return [(p, shape, level, measure, meshes[(shape, level)], None)
                for p, shape, level, measure in workload.probe_cells]
    return [cell for op in passes[-1]["ops"] for cell in op.cells]


def measure(args):
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    inputs = workload.build()
    out_dir = os.path.dirname(os.path.abspath(args.out))
    ctx = workloads.Context(args.seed, workloads.library(), out_dir,
                            reference_scale=1.05 if args.wrong_reference else 1.0,
                            calibrate=not args.trace)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = run_passes(workload, inputs, ctx, args.seconds, tracer)

    ops = [op for p in passes for op in p["ops"]]
    failures = [f"{op.name}: {problem}" for op in ops for problem in op.problems]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(ops),
        "failed": sum(bool(op.problems) for op in ops),
        "failures": failures[:50],
        "env": environment(),
        "passes": [{**p, "ops": [op.record() for op in p["ops"]]} for p in passes],
    }
    if args.trace:
        import probes

        repeats, fields = (2, 2) if args.smoke else (5, 10)
        probe = probes.run(probe_cells(workload, passes), args.seed, repeats, fields)
        metrics, detail = per_layer(passes, tracer, probe)
        result["trace"] = detail
        trace_file = os.path.splitext(args.out)[0] + ".spans.json"
        with open(trace_file, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed, "spans": tracer.spans,
                       "probes": probe, **detail}, fh)
        result["metrics"] = {k: (v, unit_of(k)) for k, v in metrics.items()}
    else:
        metrics, extra = end_to_end(passes)
        result["metrics"] = metrics
        result["extra"] = extra
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)


def unit_of(name):
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def setup(args):
    workloads.WORKLOADS[args.workload](smoke=args.smoke).build()
    print("ready", flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        measure(args)


if __name__ == "__main__":
    sys.exit(main())
