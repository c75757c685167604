"""Paired in-process passes of one benchmark workload on two checkouts.

    python tests/ab_passes.py PARENT_SRC CHANGE_SRC --workload gap --passes 200 [--seed N]

PARENT_SRC and CHANGE_SRC are source checkouts (or their `src` directories).
Each side's `plapstab` is loaded under a package name of its own in this one
interpreter, and `perfbench/workloads.py` of this checkout, read as it is,
is loaded once per side against that side's package. After one warm-up pass
per side, the two sides take turns pass by pass, the side that goes first
alternating from pair to pair, so that both see the same machine state.

It prints the median over the pairs of the change/parent pass-time ratio,
the number of pairs in which the change's pass was faster, the median
per-operation ratios, and whether every operation's numbers are bitwise
equal on the two sides in every pass: its lambdas, the numbers it records
besides its times (iterations, margins, report sizes), and for each
eigenpair it keeps the eigenvalue, the iterations, the residual, the
residual floor and the sha1 of the field; in `cli`, also the SHA-256 of
each report file. The BLAS and OpenMP threads are
pinned to 1, as the benchmark's launcher pins them. Passes in one process
resolve a few percent where separate 20-s benchmark runs do not, since
they share the interpreter, the heap and the CPU state. Not a test:
pytest does not collect it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SUBMODULES = ("cpcore", "geometry", "spectral", "verify", "cli")


def load_side(name, src):
    """The workloads module of perfbench, bound to the plapstab in `src`,
    which is loaded as the package `name`."""
    root = src if os.path.isdir(os.path.join(src, "plapstab")) else os.path.join(src, "src")
    pkg_dir = os.path.join(root, "plapstab")
    spec = importlib.util.spec_from_file_location(name, os.path.join(pkg_dir, "__init__.py"),
                                                  submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    # workloads.py imports `plapstab`: alias it to this side while it loads
    aliases = {"plapstab": package, **{f"plapstab.{sub}": sys.modules[f"{name}.{sub}"] for sub in SUBMODULES}}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{name}", os.path.join(PERFBENCH, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, value in saved.items():
            if value is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = value
    return workloads


class Side:
    def __init__(self, name, src, workload, seed, out_dir):
        self.workloads = load_side(name, src)
        self.workload = self.workloads.WORKLOADS[workload]()
        self.inputs = self.workload.build()
        self.ctx = self.workloads.Context(seed, self.workloads.library(), out_dir)

    def run_pass(self):
        """(pass seconds, {op name: seconds}, {op name: its numbers}, failed ops)."""
        t0 = time.perf_counter()
        ops = self.workload.run_pass(self.inputs, self.ctx)
        wall = time.perf_counter() - t0
        return (wall, {op.name: op.seconds for op in ops}, {op.name: numbers(op) for op in ops},
                [op.name for op in ops if op.problems])


def numbers(op):
    """Everything an operation computed, times left out, as comparable values."""
    pairs = [(pair.lam.hex(), pair.iterations, float(pair.residual).hex(), float(pair.residual_floor).hex(),
              hashlib.sha1(pair.field.values.tobytes()).hexdigest()) for *_, pair in op.cells]
    extra = {key: value for key, value in op.extra.items() if not key.endswith("_s")}
    return [float(lam["lambda"]).hex() for lam in op.lambdas], repr(extra), pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=("battery", "eigen", "gap", "cli"))
    parser.add_argument("--passes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, PERFBENCH)  # workloads.py imports speed.py from there

    with tempfile.TemporaryDirectory() as tmp:
        # one directory for both: a cli report names the files it wrote
        sides = [Side(name, src, args.workload, args.seed, tmp)
                 for name, src in (("plapstab_parent", args.parent_src), ("plapstab_change", args.change_src))]
        for side in sides:
            side.run_pass()  # warm-up: first-use builds
        walls = ([], [])
        op_times = ({}, {})
        equal = True
        failed = [0, 0]
        for i in range(args.passes):
            results = [None, None]
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                results[k] = sides[k].run_pass()
            for k in (0, 1):
                wall, ops, _, bad = results[k]
                walls[k].append(wall)
                failed[k] += len(bad)
                for name, seconds in ops.items():
                    op_times[k].setdefault(name, []).append(seconds)
            equal = equal and results[0][2] == results[1][2]
        # the cli workload's report digests, taken in each side's first pass
        equal = equal and sides[0].ctx.digests == sides[1].ctx.digests

    ratios = [c / p for p, c in zip(*walls)]
    wins = sum(c < p for p, c in zip(*walls))
    print(f"workload {args.workload}, seed {args.seed}, {args.passes} paired passes")
    print(f"median pass: parent {statistics.median(walls[0]):.6f} s, change {statistics.median(walls[1]):.6f} s")
    print(f"paired pass ratio change/parent: median {statistics.median(ratios):.4f} "
          f"({100.0 * (statistics.median(ratios) - 1.0):+.1f}%)")
    print(f"change faster in {wins}/{args.passes} pairs")
    for name in op_times[0]:
        op_ratios = [c / p for p, c in zip(op_times[0][name], op_times[1][name])]
        print(f"  {name}: {statistics.median(op_ratios):.4f} "
              f"(parent median {statistics.median(op_times[0][name]) * 1e3:.3f} ms)")
    print(f"failed ops: parent {failed[0]}, change {failed[1]}")
    print(f"numbers bitwise equal in every pass: {equal}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
