"""plapstab benchmark launcher.

    python3 perfbench/run.py --workload {battery,eigen,gap,cli} --seed N --seconds T --trace 0|1

Run it from the root of a source checkout; the library is imported from
./src, nothing needs installing.  The launcher pins BLAS and OpenMP to one
thread in the environment of the processes it starts and changes no machine
setting.  It starts the measuring worker in a fresh interpreter, then (with
--trace 0) starts several more fresh interpreters that only import plapstab
and build the workload's meshes, to time set-up.  With --trace 1 it also
times the import of plapstab.cpcore with `python -X importtime`.

Human-readable results go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Per-run records (every
computed eigenvalue beside its time, the environment) and, when tracing, the
spans are written under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
WORKER_GRACE_S = 120


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(workload, smoke, env):
    """Seconds from starting a fresh interpreter until the worker is ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "setup", "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return elapsed


def time_cpcore_import(env):
    """Cumulative import time of plapstab.cpcore in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plapstab.cpcore"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "plapstab.cpcore":
            return int(fields[1]) * 1e-6
    raise RuntimeError("plapstab.cpcore missing from -X importtime output")


def fmt_quartiles(values):
    """Median and quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"


def report(result, args, setup_times):
    print(f"plapstab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    env = result["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']} ({env['cpus_usable']} usable), cpu {env['cpu_model']!r}, "
          f"threads {env['threads']}")
    attempted, failed = result["attempted"], result["failed"]
    for p_i, p in enumerate(result["passes"]):
        kind = "traced" if p["traced"] else "untraced"
        scaled = f", {p['scaled_s']:.4f} s at reference speed" if "scaled_s" in p else ""
        print(f"pass {p_i} ({kind}): {p['wall_s']:.4f} s{scaled}")
        for op in p["ops"]:
            lams = ", ".join(f"lambda{lam['index']}={lam['lambda']:.10g}"
                             + (f" (rel err {lam['rel_err']:.3e})" if "rel_err" in lam else "")
                             for lam in op["lambdas"])
            status = "ok" if op["ok"] else "FAIL " + "; ".join(op["problems"])
            print(f"  {op['seconds']:8.4f} s  {op['name']}  {lams}  {status}")
    print(f"fail_frac: {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for line in result["failures"]:
        print(f"  failure: {line}")
    if args.trace:
        acc = result["trace"]["accounting"]
        print("per-layer self time per traced pass (median):")
        for layer, sec in acc["layer_self_s"].items():
            print(f"  {layer:9s} {sec:.4f} s")
        print(f"  harness   {acc['bench_self_s']:.4f} s")
        print(f"  layer sum {acc['layer_self_sum_s']:.4f} s; untraced wall_s {acc['untraced_wall_s']:.4f} s; "
              f"traced wall_s {acc['traced_wall_s']:.4f} s; tracing overhead {acc['overhead_s']:.4f} s; "
              f"residual {acc['residual_s']:.4f} s; accounted within overhead: {acc['accounted']}")
        print("spans by name (median per traced pass):")
        for name, e in sorted(result["trace"]["by_name"].items()):
            print(f"  {name:32s} calls {e['calls']:6.0f}  total {e['total_s']:.4f} s  self {e['self_s']:.4f} s")
    else:
        extra = result["extra"]
        for label, values, unit, count in (
            ("wall_ref_s (at reference CPU speed)", extra["wall_ref_s_passes"], "s", "passes"),
            ("wall_s (raw)", extra["wall_s_passes"], "s", "passes"),
            ("setup_s (at reference CPU speed)", [s for _, s in setup_times], "s", "fresh interpreters"),
            ("setup_s (raw)", [r for r, _ in setup_times], "s", "fresh interpreters"),
            ("fields_per_s", extra.get("fields_per_s_passes"), "1/s", "passes"),
        ):
            if values:
                print(f"{label}: {fmt_quartiles(values)} {unit} (n={len(values)} {count})")
        for key, unit in (("lambda2_rel_err", "rel"), ("worst_margin_over_tol", "1")):
            if key in extra:
                print(f"{key}: {extra[key]:.6g} {unit}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value!r} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["battery", "eigen", "gap", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="scale every closed-form reference by 1.05 (tests the checker)")
    args = parser.parse_args()

    if not (SRC / "plapstab" / "__init__.py").is_file():
        print(f"no plapstab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    out = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), "measure", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    cmd += ["--smoke"] * args.smoke + ["--wrong-reference"] * args.wrong_reference
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0 or not out.exists():
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.read_text())
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}

    setup_times = []
    if args.trace:
        imports = [time_cpcore_import(env) for _ in range(1 if args.smoke else IMPORT_SAMPLES)]
        metrics["cpcore.import_s"] = (statistics.median(imports), "s")
    else:
        for _ in range(1 if args.smoke else SETUP_SAMPLES):
            before = speed.kernel()
            raw = time_setup(args.workload, args.smoke, env)
            setup_times.append((raw, speed.scale(raw, before, speed.kernel())))
        metrics["setup_s"] = (statistics.median(s for _, s in setup_times), "s")
    result["metrics"] = metrics
    report(result, args, setup_times)

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
