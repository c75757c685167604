"""Batch front end: configuration parsing, run orchestration, report emission.

Commands: constants, eigen, stability, gap, picone.  A JSON config file
may supply any option; command-line flags override it.  Exit status is 0
when every verdict passed (empirical verdicts count when not falsified),
2 on a failed inequality, 1 on usage, configuration or solver errors.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from . import cpcore, verify
from .geometry import Field, Measure, build_mesh, make_domain, write_mesh
from .spectral import SolverOptions, first_eigenpair, second_eigenvalue

SCHEMA_VERSION = 1

_DEFAULTS = {
    "p": [2.0],
    "domain": {"interval": [0.0, 1.0]},
    "measure": "lebesgue",
    "level": 4,
    "seed": 0,
    "fields": 20,
    "samples": 1000,
    "second": False,
    "no_timestamp": False,
    "out": None,
    "csv": None,
    "mesh_out": None,
    "inject_bad_constant": False,
}


def parse_domain_flag(text):
    """`interval:a,b` or `polygon:x1,y1;x2,y2;...` to a domain spec dict."""
    kind, _, rest = text.partition(":")
    if kind == "interval":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad interval spec {text!r}")
        return {"interval": [float(parts[0]), float(parts[1])]}
    if kind == "polygon":
        pts = []
        for chunk in rest.split(";"):
            xy = chunk.split(",")
            if len(xy) != 2:
                raise ValueError(f"bad polygon vertex {chunk!r} in {text!r}")
            pts.append([float(xy[0]), float(xy[1])])
        return {"polygon": pts}
    raise ValueError(f"unknown domain kind {kind!r} (want interval: or polygon:)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plapstab",
        description="Poincare stability constants, p-Laplacian eigenpairs, "
        "and inequality verification batteries.",
    )
    # the options every command takes, declared once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--p", help="comma-separated exponent list, e.g. 2,3,4")
    common.add_argument("--domain", help="interval:a,b or polygon:x1,y1;x2,y2;...")
    common.add_argument("--measure", choices=["lebesgue", "gaussian"])
    common.add_argument("--level", type=int, help="mesh refinement level (0..7)")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="write the JSON report here (else stdout)")
    common.add_argument("--csv", help="also write CSV rows here")
    common.add_argument("--no-timestamp", action="store_true", default=None,
                        help="omit the timestamp for byte-reproducible output")
    common.add_argument("--fields", type=int, help="random fields per battery cell")
    common.add_argument("--samples", type=int, help="sample-point budget (picone)")
    common.add_argument("--second", action="store_true", default=None,
                        help="also compute the second eigenpair (eigen)")
    common.add_argument("--mesh-out", help="mesh file path (eigen)")
    common.add_argument("--inject-bad-constant", action="store_true", default=None,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("constants", "pi_p and the c1 (or c2/c3) constants for each p"),
        ("eigen", "first (and optionally second) Dirichlet eigenpair"),
        ("stability", "random-field stability battery on one configuration"),
        ("gap", "fundamental-gap report"),
        ("picone", "pointwise Picone identity residual on random fields"),
    ]:
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


@functools.cache
def _parser():
    """The parser of `main`, built once per process: parsing leaves no state
    in it."""
    return build_parser()


def load_config(args):
    config = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(_DEFAULTS) - {"command"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(file_cfg)
    # every other option's flag has the config key as its argparse dest
    for key in _DEFAULTS.keys() - {"p", "domain"}:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    if args.p is not None:
        config["p"] = [float(tok) for tok in args.p.split(",") if tok]
    elif not isinstance(config["p"], list):
        config["p"] = [config["p"]]
    if args.domain is not None:
        config["domain"] = parse_domain_flag(args.domain)
    config["command"] = args.command
    _validate_config(config)
    return config


def _validate_config(config):
    if not config["p"]:
        raise ValueError("p-list must be nonempty")
    for p in config["p"]:
        # _check_p takes p through float(), which a config file's "2" or true would pass
        if type(p) not in (int, float):
            raise ValueError(f"every exponent must be a number, got {p!r}")
        cpcore._check_p(p)
    # a config-file value must have the type its flag parses to
    for key in _DEFAULTS.keys() - {"p", "domain"}:
        default, value = _DEFAULTS[key], config[key]
        kind = str if default is None else type(default)
        if type(value) is not kind and not (default is None and value is None):
            raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    for key, low, high in (("level", 0, 7), ("seed", 0, math.inf), ("fields", 1, math.inf),
                           ("samples", 1, math.inf)):
        if not low <= config[key] <= high:
            raise ValueError(f"{key} must lie in [{low}, {high}], got {config[key]}")
    Measure(config["measure"])  # raises on an unknown kind
    make_domain(config["domain"])  # raises on malformed geometry


def _problem(config):
    """(domain, mesh, measure) of a validated config."""
    domain = make_domain(config["domain"])
    return domain, build_mesh(domain, config["level"]), Measure(config["measure"])


@functools.cache
def _field_names(cls):
    """Field names of a report dataclass, in the sorted order of JSON keys."""
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _write_object(items, pad, out):
    """Append to `out` the JSON object of (key, value) pairs in the order
    given; its members go on lines indented by `pad` plus two spaces. A key
    that is not a str raises TypeError."""
    if not items:
        out.append("{}")
        return
    inner = pad + "  "
    lead = "{\n" + inner
    for key, value in items:
        out.append(lead + encode_basestring_ascii(key) + ": ")
        _write(value, inner, out)
        lead = ",\n" + inner
    out.append("\n" + pad + "}")


def _write_array(items, pad, out):
    """Append to `out` the JSON array of a list or tuple, one item a line."""
    if not items:
        out.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    # a list of floats (nodal values, residual histories) is one join; no
    # finite float's repr has an "n", while "nan" and "inf" have
    try:
        text = sep.join(map(float.__repr__, items))
    except TypeError:  # an item is not a float
        pass
    else:
        if "n" not in text:
            out.append("[\n" + inner + text + "\n" + pad + "]")
            return
    lead = "[\n" + inner
    for value in items:
        out.append(lead)
        _write(value, inner, out)
        lead = sep
    out.append("\n" + pad + "]")


def _write(obj, pad, out):
    """Append to `out` the JSON text of a report value at indent `pad`."""
    if isinstance(obj, (float, np.floating)):  # the commonest leaf first
        v = float(obj)
        out.append(float.__repr__(v) if math.isfinite(v) else "null")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        _write_object(sorted(obj.items()), pad, out)
    elif isinstance(obj, (list, tuple)):
        _write_array(obj, pad, out)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):  # before int: bool is an int
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.ndarray):
        _write_array(obj.tolist(), pad, out)
    elif dataclasses.is_dataclass(obj):
        _write_object([(k, getattr(obj, k)) for k in _field_names(type(obj))], pad, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _report_text(report):
    """Strict JSON text of a report, as `json.dumps(..., indent=2,
    sort_keys=True)` lays it out: dataclasses are objects of their fields,
    numpy scalars and arrays Python values, NaN and +-inf null; any other
    type, or a key that is not a str, raises TypeError."""
    out = []
    _write(report, "", out)
    out.append("\n")
    return "".join(out)


def run_constants(config):
    results = []
    all_ok = True
    for p in config["p"]:
        entry = {"p": p, "pi_p": cpcore.pi_p(p), "pi_p_quadrature": cpcore.pi_p_quadrature(p)}
        ok = abs(entry["pi_p"] - entry["pi_p_quadrature"]) <= 1e-8
        if p >= 2.0:
            res = cpcore.c1_sharp(p)
            entry.update(
                c1=res.c1, r0=res.r0, k0=res.k0,
                c1_lower=res.lower, c1_upper=res.upper,
                c1_variational=cpcore.c1_variational(p),
            )
            ok = ok and res.lower <= res.c1 <= res.upper
            # on logs, which stay exact where c1 is subnormal; their rounding
            # grows with |log c1|, about 0.69 p
            log_c1 = res.log_c1()
            ok = ok and abs(log_c1 - res.log_c1_k0_form()) <= max(1e-12, 1e-14 * abs(log_c1))
            # that form is stationary at k0; the root equation is first order
            # in it. Its rounding at the true k0 stays below 2e-15 p (p from
            # 2 + 1e-7 to 1e7), and a k0 moved by 1e-9 relative reads at
            # least 4e-9 p
            ok = ok and abs(res.k0_residual()) <= 1e-13 * p
            # every sample of the ratio bounds c1 from above, up to rounding
            ok = ok and entry["c1_variational"] >= res.c1 * (1.0 - 1e-12)
        else:
            c2_est, c3_est = cpcore.c2_c3_estimate(p)
            entry.update(
                c2_upper_estimate=c2_est, c3_lower_estimate=c3_est,
                one_sided="c2 sampled from above, c3 from below",
            )
            ok = ok and 0.0 < c2_est <= p * (p - 1.0) / 2 ** (p - 1.0) + 1e-9
            ok = ok and c3_est >= p / 2 ** (p - 1.0) - 1e-9
        entry["passed"] = ok
        all_ok = all_ok and ok
        results.append(entry)
    return all_ok, results, []


def _pair_entry(pair, mesh_file):
    """The report entry of an EigenPair, its nodal values tied to the mesh
    file `mesh_file` (or None); `residual` and `residual_floor` are NaN
    where not computed, which a report writes as null."""
    return {
        "lambda": float(pair.lam),
        "iterations": int(pair.iterations),
        "residual_history": [float(r) for r in pair.residual_history],
        "residual": float(pair.residual),
        "residual_floor": float(pair.residual_floor),
        "normalized": True,
        "converged": bool(pair.converged),
        "estimator": pair.estimator,
        "lambda2_is_upper_bound": bool(pair.is_upper_bound),
        "nodal_values": {"mesh_file": mesh_file, "values": pair.field.values},
    }


def run_eigen(config):
    _, mesh, measure = _problem(config)
    opts = SolverOptions(seed=config["seed"])
    results = []
    ok = True
    mesh_file = config.get("mesh_out")
    if mesh_file is None and config.get("out"):
        mesh_file = str(config["out"]) + ".mesh"
    for p in config["p"]:
        pair = first_eigenpair(p, mesh, measure, opts)
        ok = ok and pair.converged
        entry = {"p": p, "first": _pair_entry(pair, mesh_file)}
        if config["second"]:
            pair2 = second_eigenvalue(p, mesh, measure, pair, opts)
            ok = ok and pair2.converged
            entry["second"] = _pair_entry(pair2, mesh_file)
        results.append(entry)
    if not ok:
        raise RuntimeError("eigen solve did not converge")
    # only now, so that a run that fails leaves no mesh file without a report
    if mesh_file:
        write_mesh(mesh, mesh_file)
    return True, results, []


def run_stability(config):
    domain, mesh, measure = _problem(config)
    factor = 1e9 if config["inject_bad_constant"] else 1.0
    all_reports = []
    results = []
    ok = True
    for p in config["p"]:
        reports = verify.stability_battery(
            p, domain, mesh, measure, config["fields"],
            seed=config["seed"], opts=SolverOptions(seed=config["seed"]),
            constant_factor=factor,
        )
        cell_ok = all(r.passed for r in reports)
        ok = ok and cell_ok
        results.append(
            {
                "p": p,
                "fields": len(reports),
                "passed": cell_ok,
                "min_margin": min(r.margin for r in reports),
                "lambda1": reports[0].lambda1,
                "reports": reports,
            }
        )
        all_reports.extend(reports)
    return ok, results, all_reports


def run_gap(config):
    domain, mesh, measure = _problem(config)
    factor = 1e9 if config["inject_bad_constant"] else 1.0
    opts = SolverOptions(seed=config["seed"])
    reports = [
        verify.gap_check(p, domain, mesh, measure, opts=opts, constant_factor=factor)
        for p in config["p"]
    ]
    return all(r.passed for r in reports), reports, reports


def run_picone(config):
    _, mesh, measure = _problem(config)
    rng = np.random.default_rng(config["seed"])
    results = []
    ok = True
    for p in config["p"]:
        u = verify.random_zero_trace_field(mesh, rng)
        phi = Field(mesh, 0.5 + rng.uniform(0.0, 1.0, mesh.n_nodes))
        res = verify.picone_check(p, u, phi, measure, max_samples=config["samples"], seed=config["seed"])
        ok = ok and res.passed
        results.append({"p": p, **vars(res)})
    return ok, results, []


_RUNNERS = {
    "constants": run_constants,
    "eigen": run_eigen,
    "stability": run_stability,
    "gap": run_gap,
    "picone": run_picone,
}


def run(config):
    """Dispatch a validated config; returns (exit_code, report_dict)."""
    runner = _RUNNERS[config["command"]]
    passed, results, reports = runner(config)
    report = {
        "schema": SCHEMA_VERSION,
        "command": config["command"],
        "config": {
            k: v for k, v in config.items()
            if k not in ("out", "csv", "no_timestamp", "command", "mesh_out")
        },
        "passed": bool(passed),
        "results": results,
    }
    if not config["no_timestamp"]:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    if config.get("csv") and reports:
        verify.write_reports_csv(config["csv"], reports)
    return (0 if passed else 2), report


def _write_atomic(path, text):
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no temp file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means a failed inequality
        # here; -h exits 0
        return 1 if exc.code else 0
    if not args.command:
        parser.print_help()
        return 1
    try:
        config = load_config(args)
    except (ValueError, TypeError, OSError, OverflowError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        code, report = run(config)
        text = _report_text(report)
        if config["out"]:
            _write_atomic(config["out"], text)
        else:
            sys.stdout.write(text)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
