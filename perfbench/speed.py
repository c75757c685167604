"""CPU-speed reference for the timed end-to-end metrics.

On a shared 2-vCPU Xeon VM (the one the benchmark was tuned on), the speed
of both CPUs moves together by up to about 1.6x over seconds to minutes,
with no steal time. A fixed kernel, independent of plapstab, is therefore timed on
the same CPU right before and after each timed piece of work. The work's
time is scaled by REFERENCE_S over the kernel's time. The result is the
time the work would take at the speed where the kernel takes REFERENCE_S.
Raw times are reported beside the scaled ones.
"""

import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

# the kernel's time on that VM in its faster state (2-vCPU Xeon, numpy 2.4, scipy 1.17)
REFERENCE_S = 0.010

_RNG = np.random.default_rng(0)
_A = _RNG.random(4096)
_N = 400
_I, _J = _RNG.integers(0, _N, (2, 3000))
_V = _RNG.random(3000)
_G = _RNG.random((300, 3, 3))
_W = _RNG.random(300)
_EVEN = np.arange(0, _N, 2)


def _work():
    """The workloads' mix: interpreter work, small-array numpy calls, and
    sparse assembly, slicing and CG as in the solvers."""
    d = {}
    for i in range(5000):
        d[i & 63] = d.get(i & 63, 0.0) + i * 0.5
    rows = [(i % 97, {"i": i}) for i in range(3000)]
    rows.sort(key=lambda r: r[0])
    for _ in range(100):
        np.sort(_A)
        np.exp(_A[:256]) @ _A[:256]
    for _ in range(3):
        m = sparse.coo_matrix((_V, (_I, _J)), shape=(_N, _N)).tocsr()
        m = m + m.T + 50.0 * sparse.identity(_N)
        cg(m[_EVEN][:, _EVEN], np.ones(_EVEN.size), rtol=1e-12, maxiter=15)
        np.einsum("mij,m->mij", _G, _W).sum()


def kernel():
    """Seconds for one kernel run, the faster of two back to back."""
    return min(_timed() for _ in range(2))


def _timed():
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(seconds, before, after):
    """`seconds` measured between kernel times `before` and `after`, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
