"""Command-line front end.

Subcommands: ``identities``, ``lax-check``, ``evolve``, ``rmatrix``.
Reports are deterministic JSON documents

    {"command", "params", "seed", "results": [...], "meta": {...}}

whose payload (everything except "meta") is byte-identical across runs
with the same configuration and seed; volatile fields live in "meta".
Exit codes: 0 all checks passed, 1 numerical failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .elliptic import EllipticError, EllipticParams
from .fourier import DressedFnParams, registry_ids, verify_identity
from .models import (MODEL_KINDS, REDUCTION_KINDS, lax_residual, make_model,
                     project_constraints)
from .dynamics import IntegratorConfig, integrate, write_monitor_csv, \
    write_trajectory_csv
from . import rmatrix as rm

EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE = 0, 1, 2

_COMPLEX_RE = re.compile(
    r"^([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:([+-]\d*(?:\.\d*)?(?:[eE][+-]?\d+)?)i)?$")


def parse_complex(text: str) -> complex:
    """Shell-safe complex syntax: 'a+bi', 'a-bi', or bare 'a'."""
    mo = _COMPLEX_RE.match(text.strip())
    if not mo:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}; expected e.g. 0.3+1.1i")
    re_part = float(mo.group(1))
    im_text = mo.group(2)
    if im_text is None:
        return complex(re_part, 0.0)
    if im_text in ("+", "-"):
        im_text += "1"
    return complex(re_part, float(im_text))


def positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for a step, a span or a scale: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def format_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real:.17g}{sign}{abs(value.imag):.17g}i"


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".elliptop-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str | None, command: str, params: dict, seed: int,
                 results: list[dict]) -> dict:
    payload = {"command": command, "params": params, "seed": seed,
               "results": results}
    report = dict(payload)
    report["meta"] = {"version": __version__,
                      "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)
    return report


def _result(check: str, max_abs: float, max_rel: float, tol: float,
            passed: bool, expected_fail: bool = False, **extra) -> dict:
    out = {"check": check, "max_abs_residual": max_abs,
           "max_rel_residual": max_rel, "tol": tol, "pass": passed,
           "expected_fail": expected_fail}
    out.update(extra)
    return out


def _add_common(sp, with_eta=False, with_out=True):
    sp.add_argument("--tau", type=parse_complex, default=0.3 + 1.1j,
                    help="elliptic modulus, Im > 0 (default 0.3+1.1i)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=positive_float, default=None)
    if with_out:
        sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.add_argument("--config", default=None,
                    help="key=value file supplying defaults for any flag")
    if with_eta:
        sp.add_argument("--eta", type=parse_complex, default=0.17 + 0.05j)


def _apply_config(args, parser, argv):
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        overrides = []
        for ln in lines:
            if "=" not in ln:
                raise ValueError(f"malformed config line: {ln!r}")
            key, val = ln.split("=", 1)
            overrides += [f"--{key.strip().replace('_', '-')}", val.strip()]
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    # config supplies defaults: parse it first, then explicit flags win
    cmd, rest = argv[0], argv[1:]
    return parser.parse_args([cmd] + overrides + rest)


def _validate_tau(tau: complex, parser) -> None:
    if not cmath.isfinite(tau):
        parser.error(f"tau must be finite, got {format_complex(tau)}")
    if not tau.imag > 0:
        parser.error(f"Im(tau) must be positive, got {format_complex(tau)}")


def cmd_identities(args, parser) -> int:
    _validate_tau(args.tau, parser)
    if args.M > 1 and math.gcd(args.N, args.M) != 1:
        parser.error(f"--N {args.N} and --M {args.M} must be coprime")
    params = DressedFnParams(args.N, args.M, EllipticParams(args.tau))
    tol = args.tol if args.tol is not None else 1e-8
    if args.ids.strip().lower() == "all":
        ids = registry_ids(params)
    else:
        ids = [s.strip() for s in args.ids.split(",") if s.strip()]
    results = []
    all_pass = True
    for ident in ids:
        try:
            rep = verify_identity(ident, params, samples=args.samples,
                                  seed=args.seed, tol=tol)
        except ValueError as exc:  # an UnknownIdentityError is a ValueError
            parser.error(str(exc))
        results.append(_result(ident, rep.max_abs_residual, rep.max_rel_residual,
                               tol, rep.passed, notes=rep.notes))
        all_pass &= rep.passed
    write_report(args.out, "identities",
                 {"N": args.N, "M": args.M, "tau": format_complex(args.tau),
                  "samples": args.samples, "ids": ids},
                 args.seed, results)
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def _build_model(args, parser):
    _validate_tau(args.tau, parser)
    p = EllipticParams(args.tau)
    try:
        model = make_model(args.model, args.N, p, eta=args.eta, m=args.M, k=args.K)
    except ValueError as exc:
        parser.error(str(exc))
    return model


def cmd_lax_check(args, parser) -> int:
    model = _build_model(args, parser)
    tol = args.tol if args.tol is not None else 1e-8
    field = model.random_field(args.seed)
    results = []
    if args.no_constraints:
        if model.reduction is None:
            parser.error(f"model {args.model!r} has no constraints to drop")
        rng = np.random.default_rng(args.seed)
        field = rng.normal(size=model.field_shape()) \
            + 1j * rng.normal(size=model.field_shape())
        res = lax_residual(model, field, model.spectral_samples(args.points, args.seed))
        passed = res["max_rel"] > 1e-3
        results.append(_result("lax-negative-control", res["max_abs"], res["max_rel"],
                               1e-3, passed, expected_fail=True))
    else:
        res = lax_residual(model, field, model.spectral_samples(args.points, args.seed))
        results.append(_result("lax-residual", res["max_abs"], res["max_rel"],
                               tol, res["max_rel"] < tol))
    write_report(args.out, "lax-check",
                 {"model": args.model, "N": args.N, "M": args.M, "K": args.K,
                  "eta": format_complex(args.eta),
                  "tau": format_complex(args.tau), "points": args.points,
                  "no_constraints": bool(args.no_constraints)},
                 args.seed, results)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_NUMERICAL


def cmd_evolve(args, parser) -> int:
    model = _build_model(args, parser)
    reduction = args.reduction or model.reduction
    if reduction is not None and reduction not in REDUCTION_KINDS:
        parser.error(f"unknown reduction {reduction!r}")
    field = model.random_field(args.seed, scale=args.amplitude)
    if reduction is not None:
        try:
            field = project_constraints(field, reduction, model)
        except ValueError as exc:
            parser.error(str(exc))
    probes = tuple(model.spectral_samples(args.probes, args.seed + 1))
    cfg = IntegratorConfig(dt=args.dt, t_end=args.t_end,
                           record_every=args.record_every,
                           spectral_probes=probes)
    traj = integrate(model, field, cfg, reduction=reduction)
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    write_trajectory_csv(traj, os.path.join(outdir, "trajectory.csv"))
    for i, z in enumerate(probes):
        write_monitor_csv(traj, z, os.path.join(outdir, f"monitor_{i}.csv"))
    tol = args.tol if args.tol is not None else 1e-6
    results = [_result("completed", 0.0, 0.0, 0.0, traj.completed,
                       reason=traj.abort_reason)]
    for check, drift in (("trace-drift", traj.trace_drift()),
                         ("eigenvalue-drift", traj.eigenvalue_drift()),
                         ("constraint-drift", traj.constraint_drift())):
        results.append(_result(check, drift, drift, tol, drift < tol))
    write_report(os.path.join(outdir, "summary.json"), "evolve",
                 {"model": args.model, "N": args.N, "M": args.M, "K": args.K,
                  "eta": format_complex(args.eta), "tau": format_complex(args.tau),
                  "dt": args.dt, "t_end": args.t_end,
                  "reduction": reduction or "",
                  "probes": [format_complex(z) for z in probes]},
                 args.seed, results)
    if not traj.completed:
        return EXIT_NUMERICAL
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_NUMERICAL


_RM_CHECKS = ("unitarity", "aybe", "fourier-swap", "classical-limit",
              "sym-unitarity", "sym-aybe", "sublattice", "rational-aybe")


def cmd_rmatrix(args, parser) -> int:
    _validate_tau(args.tau, parser)
    p = EllipticParams(args.tau)
    n, m = args.N, args.M
    if m > 1 and math.gcd(n, m) != 1:
        parser.error(f"--N {n} and --M {m} must be coprime")
    if args.checks.strip().lower() == "all":
        checks = [c for c in _RM_CHECKS
                  if (m > 1) == c.startswith(("sym", "sublattice", "rational"))]
    else:
        checks = [s.strip() for s in args.checks.split(",") if s.strip()]
        bad = [c for c in checks if c not in _RM_CHECKS]
        if bad:
            parser.error(f"unknown rmatrix checks: {bad}; available: {_RM_CHECKS}")
    rng = np.random.default_rng(args.seed)

    def pt():
        a, b = rng.uniform(0.05, 0.45, 2)
        return complex(a + b * args.tau)

    tol = args.tol if args.tol is not None else 1e-9
    results = []
    for check in checks:
        this_tol = tol
        if check == "unitarity":
            r = rm.belavin_unitarity_residual(pt(), pt() / 2, n, p)
        elif check == "aybe":
            r = rm.check_aybe_belavin(n, p, (pt(), pt(), pt()), pt() / 2,
                                      pt() / 3 + 0.05)
        elif check == "fourier-swap":
            r = rm.fourier_swap_residual(pt(), pt() / 2, n, p)
        elif check == "classical-limit":
            slope, _ = rm.classical_limit_slope(pt(), n, p)
            r = abs(slope - 2.0)
            this_tol = 0.1
        elif check == "sym-unitarity":
            r = rm.symmetric_unitarity_residual(pt(), pt() / 2, n, m, p)
            this_tol = max(tol, 1e-8)
        elif check == "sym-aybe":
            r = rm.check_aybe_symmetric(n, m, p, (pt(), pt(), pt()),
                                        (pt(), pt(), pt()))
            this_tol = max(tol, 1e-8)
        elif check == "sublattice":
            r = max(rm.sublattice_residuals(pt(), pt() / 2, n, m, p))
        elif check == "rational-aybe":
            # informative: the rational degeneration is not asserted exact
            r = rm.check_aybe_rational(n, m, (0.31, 0.87, 1.4), (0.21, 0.55, 1.13))
        else:  # pragma: no cover
            parser.error(f"unhandled check {check}")
        results.append(_result(check, r, r, this_tol, r < this_tol))
    write_report(args.out, "rmatrix",
                 {"N": n, "M": m, "tau": format_complex(args.tau),
                  "checks": checks}, args.seed, results)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elliptop",
        description="Elliptic integrable tops: identity suites, Lax checks, "
                    "R-matrix checks, and conservation-monitored integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("identities", help="run the lattice identity registry")
    sp.add_argument("--N", type=positive_int, required=True)
    sp.add_argument("--M", type=positive_int, default=1)
    sp.add_argument("--samples", type=positive_int, default=20)
    sp.add_argument("--ids", default="all")
    _add_common(sp)
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("lax-check", help="verify dL/dt = [L, M] for a model")
    sp.add_argument("--model", required=True, choices=MODEL_KINDS)
    sp.add_argument("--N", type=positive_int, required=True)
    sp.add_argument("--M", type=positive_int, default=1)
    sp.add_argument("--K", type=positive_int, default=1)
    sp.add_argument("--points", type=positive_int, default=5)
    sp.add_argument("--no-constraints", action="store_true",
                    help="negative control: skip the reduction projection")
    _add_common(sp, with_eta=True)
    sp.set_defaults(func=cmd_lax_check)

    sp = sub.add_parser("evolve", help="integrate and monitor conserved quantities")
    sp.add_argument("--model", required=True, choices=MODEL_KINDS)
    sp.add_argument("--N", type=positive_int, required=True)
    sp.add_argument("--M", type=positive_int, default=1)
    sp.add_argument("--K", type=positive_int, default=1)
    sp.add_argument("--reduction", default=None, choices=REDUCTION_KINDS)
    sp.add_argument("--dt", type=positive_float, default=1e-3)
    sp.add_argument("--t-end", type=positive_float, default=1.0)
    sp.add_argument("--record-every", type=positive_int, default=100)
    sp.add_argument("--probes", type=positive_int, default=2,
                    help="number of spectral monitor probes")
    sp.add_argument("--amplitude", type=positive_float, default=0.25,
                    help="initial-field scale; the quadratic flow must stay "
                         "within the fixed-step error budget")
    sp.add_argument("--out-dir", default="elliptop-run")
    _add_common(sp, with_eta=True, with_out=False)
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("rmatrix", help="R-matrix property checks")
    sp.add_argument("--N", type=positive_int, required=True)
    sp.add_argument("--M", type=positive_int, default=1)
    sp.add_argument("--checks", default="all")
    _add_common(sp)
    sp.set_defaults(func=cmd_rmatrix)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = _apply_config(args, parser, argv)
    try:
        return args.func(args, parser)
    except (ValueError, RuntimeError, EllipticError) as exc:
        print(f"elliptop: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
