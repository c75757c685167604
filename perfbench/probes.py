"""Per-call probes: timed calls of public functions on a workload's own inputs.

The probes give per-layer costs that no span separates: mesh set-up, assembly,
and the per-field verification kernels inside stability_battery.  Each probe
reports the median over repeats of one call, summed over the workload's meshes
or averaged over its (p, mesh, measure) cells as stated.
"""

import statistics
import time

import numpy as np

import plapstab as ps
from plapstab import cpcore, geometry, spectral, verify

from workloads import DOMAINS, MEASURES

CONSTANTS_P = (1.5, 2.0, 3.0, 10.0)
PICONE_SAMPLES = 1000


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _constants():
    """The calls `plapstab constants --p 1.5,2,3,10` makes."""
    for p in CONSTANTS_P:
        cpcore.pi_p(p)
        cpcore.pi_p_quadrature(p)
        if p >= 2.0:
            cpcore.c1_sharp(p)
            cpcore.c1_variational(p)
        else:
            cpcore.c2_c3_estimate(p)


def _halves(mesh):
    """Element sets of one hyperplane cut through the middle of the mesh."""
    x = np.mean(mesh.nodes[mesh.elements], axis=1)[:, 0]
    side = x > np.median(x)
    return np.nonzero(side)[0], np.nonzero(~side)[0]


def run(cells, seed, repeats, fields):
    """Probe every layer on `cells`, a list of (p, shape, level, measure, mesh,
    ground state or None).  Missing ground states are solved first, untimed."""
    rng = np.random.default_rng(seed)
    cells = [
        (p, shape, level, measure, mesh,
         pair or spectral.first_eigenpair(p, mesh, MEASURES[measure](), ps.SolverOptions(seed=seed)))
        for p, shape, level, measure, mesh, pair in cells
    ]
    meshes = {}
    for _, shape, level, _, mesh, _ in cells:
        meshes.setdefault((shape, level), mesh)
    leb = ps.lebesgue()
    dim = next(iter(meshes.values())).dim
    xi = rng.normal(size=(PICONE_SAMPLES, dim))
    eta = rng.normal(size=(PICONE_SAMPLES, dim))

    out = {
        "cpcore.constants_s": _median_time(_constants, repeats),
        "cpcore.cp_eval_batch_s": _median_time(lambda: cpcore.cp_eval_batch(3.0, xi, eta), repeats),
        "cpcore.cp_rows": PICONE_SAMPLES,
        "geometry.n_nodes": sum(m.n_nodes for m in meshes.values()),
        "geometry.n_elements": sum(m.n_elements for m in meshes.values()),
    }
    for (shape, level), mesh in meshes.items():
        halves = _halves(mesh)
        calls = {
            "geometry.build_mesh_s": lambda: geometry.build_mesh(DOMAINS[shape](), level),
            "geometry.node_adjacency_s": mesh.node_adjacency,
            "geometry.submesh_s": lambda: [geometry.submesh(mesh, h) for h in halves],
            "spectral.weighted_stiffness_s": lambda: spectral.weighted_stiffness(mesh, leb),
            "spectral.weighted_mass_s": lambda: spectral.weighted_mass(mesh, leb),
        }
        for name, call in calls.items():
            out[name] = out.get(name, 0.0) + _median_time(call, repeats)

    per_cell = {name: [] for name in ("verify.random_zero_trace_field_s", "verify.deficit_s",
                                      "verify.distance_to_eigenspace_s", "verify.picone_check_s")}
    for p, _, _, measure, mesh, pair in cells:
        meas = MEASURES[measure]()
        times = {name: [] for name in per_cell}
        for _ in range(fields):
            t0 = time.perf_counter()
            u = verify.random_zero_trace_field(mesh, rng)
            t1 = time.perf_counter()
            verify.deficit(p, u, pair.lam, meas)
            t2 = time.perf_counter()
            verify.distance_to_eigenspace(p, u, pair.field, meas)
            t3 = time.perf_counter()
            times["verify.random_zero_trace_field_s"].append(t1 - t0)
            times["verify.deficit_s"].append(t2 - t1)
            times["verify.distance_to_eigenspace_s"].append(t3 - t2)
        u = verify.random_zero_trace_field(mesh, rng)
        phi = ps.Field(mesh, 0.5 + rng.uniform(0.0, 1.0, mesh.n_nodes))
        times["verify.picone_check_s"].append(_median_time(
            lambda: verify.picone_check(p, u, phi, meas, max_samples=PICONE_SAMPLES, seed=seed),
            repeats))
        for name, values in times.items():
            per_cell[name].append(statistics.median(values))
    for name, values in per_cell.items():
        out[name] = statistics.fmean(values)
    return out
