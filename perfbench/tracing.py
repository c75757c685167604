"""In-memory spans around calls into the plapstab layers.

A span records its name, layer, start, end, parent span and run id (the pass
it belongs to).  Spans are taken only at public cross-module calls: the calls
the workloads make, and the calls one plapstab module makes into another
(cli into geometry, spectral, verify and cpcore; verify into spectral and
cpcore; spectral into geometry).  Private helpers such as the linear solve
stay inside their caller's span.
"""

import time
from contextlib import contextmanager

from plapstab import cli, cpcore, geometry, spectral, verify

LAYERS = ("cpcore", "geometry", "spectral", "verify", "cli")


def _pair_attrs(pair):
    return {"iterations": int(pair.iterations), "converged": bool(pair.converged),
            "estimator": pair.estimator}


# result -> attributes kept on the span
ATTRS = {
    "spectral.first_eigenpair": _pair_attrs,
    "spectral.second_eigenvalue": _pair_attrs,
    "verify.stability_battery": lambda reports: {"fields": len(reports)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def _open(self, name, layer):
        span = {"name": name, "layer": layer, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "run": self.run}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, layer):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.update(attrs(result))
            return result

        traced.__name__ = fn.__name__
        return traced


class _Module:
    """Stands in for a module object: the listed functions are wrapped, every
    other attribute is the module's own."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _layer(fn):
    return fn.__module__.rsplit(".", 1)[-1]


@contextmanager
def instrumented(tracer, lib):
    """Wrap the cross-module call sites in plapstab and the workload calls in
    `lib`; everything is restored on exit, so untraced passes pay nothing."""

    def wrap(fn):
        return tracer.wrap(_layer(fn), fn)

    def module(mod, names):
        return _Module(mod, {n: wrap(getattr(mod, n)) for n in names})

    patches = [
        (cli, {
            "run": wrap(cli.run),
            **{n: wrap(getattr(cli, n)) for n in
               ("make_domain", "build_mesh", "write_mesh", "first_eigenpair", "second_eigenvalue")},
            "cpcore": module(cpcore, ("pi_p", "pi_p_quadrature", "c1_sharp", "c1_variational",
                                      "c2_c3_estimate")),
            "verify": module(verify, ("stability_battery", "gap_check", "picone_check",
                                      "random_zero_trace_field", "write_reports_csv")),
        }),
        (verify, {
            "first_eigenpair": wrap(spectral.first_eigenpair),
            "second_eigenvalue": wrap(spectral.second_eigenvalue),
            "cpcore": module(cpcore, ("pi_p", "cp_eval_batch")),
        }),
        (spectral, {"submesh": wrap(geometry.submesh)}),
        (lib, {
            "first_eigenpair": wrap(spectral.first_eigenpair),
            "second_eigenvalue": wrap(spectral.second_eigenvalue),
            "stability_battery": wrap(verify.stability_battery),
            "gap_check": wrap(verify.gap_check),
            "cli_main": wrap(cli.main),
        }),
    ]
    saved = [(obj, name, getattr(obj, name)) for obj, names in patches for name in names]
    try:
        for obj, names in patches:
            for name, value in names.items():
                setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


def summarize(spans, run):
    """Per-layer self time and per-name totals for the spans of one run.

    A span's self time is its duration minus the durations of its children.
    """
    idx = [i for i, s in enumerate(spans) if s["run"] == run]
    child = {i: 0.0 for i in idx}
    for i in idx:
        parent = spans[i]["parent"]
        if parent is not None:
            child[parent] += spans[i]["end"] - spans[i]["start"]
    layers = {}
    names = {}
    for i in idx:
        s = spans[i]
        dur = s["end"] - s["start"]
        own = dur - child[i]
        layers[s["layer"]] = layers.get(s["layer"], 0.0) + own
        entry = names.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += own
    return {"layers": layers, "names": names}
