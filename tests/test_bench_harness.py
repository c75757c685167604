"""The benchmark's tracing harness (perfbench/tracing.py) patches plapstab
names by getattr/setattr. A name it wraps that the library renames or drops
breaks `--trace 1` runs; these tests catch that in the tier-1 suite."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import plapstab as ps
from plapstab import cli, cpcore, geometry, spectral, verify

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# what the harness's workloads call through their `lib` object
_LIB_NAMES = ("first_eigenpair", "second_eigenvalue", "stability_battery", "gap_check", "cli_main")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _StubTracer:
    """Wraps each function in a counting pass-through, keyed by layer.name."""

    def __init__(self):
        self.calls = {}

    def wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        self.calls[name] = 0

        def traced(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return traced


def test_instrumented_wraps_live_names_and_restores_them():
    tracing = _tracing()
    tracer = _StubTracer()
    lib = SimpleNamespace(**{name: object() for name in _LIB_NAMES})
    targets = (cli, cpcore, geometry, spectral, verify, lib)
    before = [dict(vars(obj)) for obj in targets]
    mesh = ps.build_mesh(ps.interval_domain(0.0, 1.0), 1)
    # entering fails with AttributeError if a wrapped name is gone
    with tracing.instrumented(tracer, lib):
        inside = [dict(vars(obj)) for obj in targets]
        # the cut sweep cuts its sides by the name the harness wraps
        ps.second_eigenvalue(3.0, mesh, ps.lebesgue(), None)
    assert tracer.calls["geometry.submesh"] == 4
    changed = {(i, name) for i, (old, new) in enumerate(zip(before, inside))
               for name in old if new[name] is not old[name]}
    assert (targets.index(spectral), "submesh") in changed
    assert {(targets.index(lib), name) for name in _LIB_NAMES} <= changed
    # every wrapped name is restored
    for obj, old in zip(targets, before):
        assert all(getattr(obj, name) is value for name, value in old.items())
