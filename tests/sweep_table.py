"""Cut-sweep evidence table: one in-process `spectral._cut_sweep_second` per
config, on the sources of the checkout this file sits in.

    python tests/sweep_table.py [--repeat N] > rows.json
    python tests/sweep_table.py --compare parent.json change.json > table.json

The first form writes one row per config: lambda2 (and its float.hex), the
sha1 of the glued field's bytes, the cut count (`EigenPair.iterations`),
`converged`, the sub-solves (`spectral._ground_state` calls), the distinct
components solved (distinct element sets handed to `spectral.submesh`), the
unconverged sub-solves that the sweep's warning counts, and the median sweep
seconds over N calls (default 3) twice: `sweep_s` each on a fresh mesh, which
no sweep has run on (built outside the timer), and `warm_s` each on the
counted mesh, whose last sweep's side sub-meshes the next sweep takes over
(`Mesh.side_meshes`). Run it in two checkouts to compare them;
the second form joins their rows, [parent, change] per entry, with whether
lambda2 and the field agree bitwise. Not a test: pytest does not collect it.
"""

import argparse
import hashlib
import json
import re
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import plapstab as ps  # noqa: E402
from plapstab import spectral  # noqa: E402

_PENTAGON_ANGLES = 0.3 + 0.4 * np.pi * np.arange(5)
SHAPES = {
    "interval": ps.interval_domain(0.0, 1.0),
    "square": ps.polygon_domain([[0, 0], [1, 0], [1, 1], [0, 1]]),
    "triangle": ps.polygon_domain([[0, 0], [1, 0], [0.2, 0.9]]),
    "quadrilateral": ps.polygon_domain([[0, 0], [1.3, 0], [1, 0.8], [0.1, 0.6]]),
    "pentagon": ps.polygon_domain(np.stack([np.cos(_PENTAGON_ANGLES), np.sin(_PENTAGON_ANGLES)], 1)),
}
MEASURES = {"lebesgue": ps.lebesgue(), "gaussian": ps.gaussian()}
# the sweep_table configs of BENCH_12.json and BENCH_16.json
CONFIGS = [
    (shape, level, p, measure)
    for shape, level in [("interval", 1), ("interval", 4), ("square", 2), ("triangle", 2),
                         ("quadrilateral", 2), ("pentagon", 2)]
    for p in (1.5, 3.0, 6.0)
    for measure in ("lebesgue", "gaussian")
] + [("square", 3, 3.0, "lebesgue")]


def sweep_row(shape, level, p, measure, repeat):
    """One config's row; counts from the first call, seconds the median."""
    mesh = ps.build_mesh(SHAPES[shape], level)
    ground_state, submesh = spectral._ground_state, spectral.submesh
    counts = {"sub_solves": 0, "parts": set()}

    def counted_ground_state(*args, **kwargs):
        counts["sub_solves"] += 1
        return ground_state(*args, **kwargs)

    def counted_submesh(parent, element_idx):
        counts["parts"].add(np.asarray(element_idx, dtype=int).tobytes())
        return submesh(parent, element_idx)

    spectral._ground_state, spectral.submesh = counted_ground_state, counted_submesh
    try:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            est = spectral._cut_sweep_second(p, mesh, MEASURES[measure], spectral.SolverOptions())
    finally:
        spectral._ground_state, spectral.submesh = ground_state, submesh
    warned = [re.match(r"cut sweep: (\d+) side sub-solves", str(w.message)) for w in record]
    seconds = {"sweep_s": [], "warm_s": []}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(repeat):
            for key, swept in (("sweep_s", ps.build_mesh(SHAPES[shape], level)), ("warm_s", mesh)):
                t0 = time.perf_counter()
                spectral._cut_sweep_second(p, swept, MEASURES[measure], spectral.SolverOptions())
                seconds[key].append(time.perf_counter() - t0)
    return {
        "config": f"{shape}-L{level}-p{p}-{measure}",
        "lambda2": est.lam,
        "lambda2_hex": float.hex(est.lam),
        "field_sha1": hashlib.sha1(est.field.values.tobytes()).hexdigest(),
        "cuts": est.iterations,
        "converged": est.converged,
        "sub_solves": counts["sub_solves"],
        "distinct_components": len(counts["parts"]),
        "warned_unconverged": sum(int(m.group(1)) for m in warned if m),
        **{key: round(statistics.median(values), 4) for key, values in seconds.items()},
    }


def compare(parent_rows, change_rows):
    """[parent, change] per entry of two runs' rows, matched by config; null
    where a run has no such entry (`warm_s` in rows written before it)."""
    change = {row["config"]: row for row in change_rows}
    table = []
    for old in parent_rows:
        new = change[old["config"]]
        table.append({
            "config": old["config"],
            "lambda2_hex": new["lambda2_hex"],
            "lambda2_bitwise": old["lambda2_hex"] == new["lambda2_hex"],
            "field_sha1_bitwise": old["field_sha1"] == new["field_sha1"],
            **{key: [old.get(key), new.get(key)] for key in
               ("cuts", "converged", "sub_solves", "distinct_components", "warned_unconverged",
                "sweep_s", "warm_s")},
        })
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="timed calls per config")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="join two runs' rows instead of running the sweeps")
    args = parser.parse_args(argv)
    if args.compare:
        rows = [json.loads(Path(path).read_text()) for path in args.compare]
        out = compare(*rows)
    else:
        out = [sweep_row(*config, args.repeat) for config in CONFIGS]
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
