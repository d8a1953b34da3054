"""Command-line front end.

Subcommands: ``identities``, ``lax-check``, ``evolve``, ``rmatrix``.
Reports are deterministic JSON documents

    {"command", "params", "seed", "results": [...], "meta": {...}}

whose payload (everything except "meta") is byte-identical across runs
with the same configuration and seed; volatile fields live in "meta".
Each ``cmd_*`` returns its report path, params and results; ``main`` alone
writes the report and picks the exit code: 0 when every result passes, 1 for
a failing result or a numerical failure (``EllipticError``, ``RuntimeError``,
no report; ``identities`` names the identity, N, M and tau that failed), 2
for a usage error (argparse, or a ``ValueError``: the library's type for a
rejected input).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .fourier import (DressedFnParams, _draw_box, check_coprime, identity_spec,
                      registry_ids, verify_identity)
from .models import MODEL_KINDS, REDUCTION_KINDS, lax_residual, make_model
from .dynamics import IntegratorConfig, integrate, write_monitor_csv, \
    write_trajectory_csv
from . import rmatrix as rm

EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE = 0, 1, 2
# the most random draws one --samples, --points or --probes may ask for:
# they are drawn up front, 16 MB per column at 10^6, and guarded in rounds
# of fourier._DRAW_ROUND candidates
MAX_DRAWS = 10 ** 6
# the most monitor values, probes x snapshots x size (tr L^k, k = 1..size),
# that one evolve run keeps and writes: 64 MB of complex values at 2^22
MAX_MONITOR_ENTRIES = 2 ** 22

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


def draw_count(text: str) -> int:
    """argparse type for a number of random draws: a count of at most MAX_DRAWS."""
    value = positive_int(text)
    if value > MAX_DRAWS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DRAWS}, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for a seed: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
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
    return {"check": check, "max_abs_residual": max_abs, "max_rel_residual": max_rel,
            "tol": tol, "pass": passed, "expected_fail": expected_fail, **extra}


def _add_common(sp, tol, with_eta=False, with_out=True):
    sp.add_argument("--tau", type=parse_complex, default=0.3 + 1.1j,
                    help="elliptic modulus, Im > 0 (default 0.3+1.1i)")
    sp.add_argument("--seed", type=non_negative_int, default=0)
    sp.add_argument("--tol", type=positive_float, default=tol)
    if with_out:
        sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.add_argument("--config", default=None,
                    help="key=value file supplying defaults for any flag")
    if with_eta:
        sp.add_argument("--eta", type=parse_complex, default=0.17 + 0.05j)


def _apply_config(args, parser, argv):
    try:
        with open(args.config) as fh:
            lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
        overrides = []
        for ln in lines:
            if "=" not in ln:
                raise ValueError(f"malformed config line: {ln!r}")
            key, val = ln.split("=", 1)
            overrides.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    # config supplies defaults: parse it first, then explicit flags win
    cmd, rest = argv[0], argv[1:]
    return parser.parse_args([cmd] + overrides + rest)


def _name_list(text: str, flag: str) -> list[str] | None:
    """The comma-separated names of ``flag``, or None for 'all'; a value
    that names nothing, or a name twice, is rejected (ValueError)."""
    if text.strip().lower() == "all":
        return None
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ValueError(f"{flag} names nothing; give 'all' or a comma-separated list")
    repeats = sorted({name for name in names if names.count(name) > 1})
    if repeats:
        raise ValueError(f"{flag} names {', '.join(repeats)} more than once")
    return names


def _check_output_paths(args) -> None:
    """Reject (ValueError) an ``--out`` that is not a file in an existing
    directory, and an ``--out-dir`` that cannot be made, before any work."""
    out = getattr(args, "out", None)
    if out and (os.path.isdir(out)
                or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise ValueError(f"--out {out!r} is not a file path in an existing directory")
    if hasattr(args, "out_dir"):
        probe = os.path.abspath(args.out_dir)
        while not os.path.exists(probe):  # the nearest existing ancestor
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ValueError(f"--out-dir {args.out_dir!r} cannot be made: "
                             f"{probe!r} is not a directory")


def cmd_identities(args):
    params = DressedFnParams(args.N, args.M, EllipticParams(args.tau))
    if args.N < 2:
        raise ValueError(f"identities need N >= 2, got N = {args.N}: Z_1^2 has no "
                         "non-zero modes, so the lattice sweeps would check nothing")
    ids = _name_list(args.ids, "--ids") or registry_ids(params)
    for ident in ids:  # every name is checked before any is verified
        identity_spec(ident, params)
    results = []
    for ident in ids:
        try:
            rep = verify_identity(ident, params, samples=args.samples, seed=args.seed,
                                  tol=args.tol)
        except (EllipticError, RuntimeError) as exc:
            raise RuntimeError(f"identity {ident!r} at N = {args.N}, M = {args.M}, "
                               f"tau = {format_complex(args.tau)}: {exc}") from exc
        results.append(_result(ident, rep.max_abs_residual, rep.max_rel_residual,
                               args.tol, rep.passed, notes=rep.notes))
    return args.out, {"N": args.N, "M": args.M, "tau": format_complex(args.tau),
                      "samples": args.samples, "ids": ids}, results


def _build_model(args, reduction=None):
    """The model and the report params naming it, eta only where it is read."""
    model = make_model(args.model, args.N, EllipticParams(args.tau), eta=args.eta,
                       m=args.M, k=args.K, reduction=reduction)
    eta = {} if model.eta is None else {"eta": format_complex(args.eta)}
    return model, {"model": args.model, "N": args.N, "M": args.M, "K": args.K,
                   "tau": format_complex(args.tau), **eta}


def cmd_lax_check(args):
    model, params = _build_model(args)
    if not args.no_constraints:
        field = model.random_field(args.seed)
    elif model.k == 1:  # T-paired tops are integrable unreduced; 1 x 1 blocks commute
        raise ValueError(f"--no-constraints needs blocks larger than 1 x 1: a "
                         f"{model.kind} field of 1 x 1 blocks satisfies its Lax "
                         "equation unconstrained, so the negative control cannot fail")
    else:
        rng = np.random.default_rng(args.seed)
        field = rng.normal(size=model.field_shape()) \
            + 1j * rng.normal(size=model.field_shape())
    res = lax_residual(model, field, model.spectral_samples(args.points, args.seed))
    if args.no_constraints:
        result = _result("lax-negative-control", res["max_abs"], res["max_rel"], 1e-3,
                         res["max_rel"] > 1e-3, expected_fail=True)
    else:
        result = _result("lax-residual", res["max_abs"], res["max_rel"], args.tol,
                         res["max_rel"] < args.tol)
    return args.out, {**params, "points": args.points,
                      "no_constraints": bool(args.no_constraints)}, [result]


def cmd_evolve(args):
    model, params = _build_model(args, args.reduction)
    cfg = IntegratorConfig(dt=args.dt, t_end=args.t_end, record_every=args.record_every)
    most = MAX_MONITOR_ENTRIES // (cfg.snapshots * model.size)
    if args.probes > most:
        raise ValueError(
            f"--probes {args.probes} is more than the {most} probes whose monitors fit "
            f"at these sizes: probes x snapshots x size must be at most "
            f"{MAX_MONITOR_ENTRIES}, with {cfg.snapshots} snapshots and size {model.size}")
    field = model.random_field(args.seed, scale=args.amplitude)
    probes = tuple(model.spectral_samples(args.probes, args.seed + 1))
    traj = integrate(model, field, dataclasses.replace(cfg, spectral_probes=probes))
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    write_trajectory_csv(traj, os.path.join(outdir, "trajectory.csv"))
    for i in range(len(probes)):
        write_monitor_csv(traj, i, os.path.join(outdir, f"monitor_{i}.csv"))
    results = [_result("completed", 0.0, 0.0, 0.0, traj.completed,
                       reason=traj.abort_reason)]
    for check, drift in (("trace-drift", traj.trace_drift()),
                         ("eigenvalue-drift", traj.eigenvalue_drift()),
                         ("constraint-drift", traj.constraint_drift())):
        results.append(_result(check, drift, drift, args.tol, drift < args.tol))
    return os.path.join(outdir, "summary.json"), {
        **params, "dt": args.dt, "t_end": args.t_end, "reduction": model.reduction or "",
        "probes": [format_complex(z) for z in probes]}, results


# check name -> (runs by default at M > 1, the floor of its tolerance
# max(--tol, floor), its residual and extra report fields given the seeded
# point draw pt()).  The Belavin checks are the M = 1 case of the
# GL_N x GL_M ones; each residual draws its points in argument order, so
# the draws of a check list are fixed by the seed.
_RM_CHECKS = {
    "unitarity": (False, 0.0, lambda pt, n, m, p:
                  (rm.symmetric_unitarity_residual(pt(), pt() / 2, n, 1, p), {})),
    "aybe": (False, 0.0, lambda pt, n, m, p:
             (rm.check_aybe_symmetric(n, 1, p, (pt(), pt(), pt()),
                                      (pt() / 2, 0.0, pt() / 3 + 0.05)), {})),
    "fourier-swap": (False, 0.0, lambda pt, n, m, p:
                     (rm.sublattice_residuals(pt(), pt() / 2, n, 1, p)[0], {})),
    "classical-limit": (False, 0.0, lambda pt, n, m, p:
                        rm.classical_limit_residual(pt(), n, p)),
    "sym-unitarity": (True, 1e-8, lambda pt, n, m, p:
                      (rm.symmetric_unitarity_residual(pt(), pt() / 2, n, m, p), {})),
    "sym-aybe": (True, 1e-8, lambda pt, n, m, p:
                 (rm.check_aybe_symmetric(n, m, p, (pt(), pt(), pt()),
                                          (pt(), pt(), pt())), {})),
    "sublattice": (True, 0.0, lambda pt, n, m, p:
                   (max(rm.sublattice_residuals(pt(), pt() / 2, n, m, p)), {})),
    # the rational degeneration satisfies the same AYBE, at fixed points
    "rational-aybe": (True, 0.0, lambda pt, n, m, p:
                      (rm.check_aybe_rational(n, m, (0.31, 0.87, 1.4),
                                              (0.21, 0.55, 1.13)), {})),
}


def cmd_rmatrix(args):
    n, m = args.N, args.M
    p = EllipticParams(args.tau)
    check_coprime(n, m)
    checks = _name_list(args.checks, "--checks") or [
        c for c, (at_m, _, _) in _RM_CHECKS.items() if at_m == (m > 1)]
    bad = [c for c in checks if c not in _RM_CHECKS]
    if bad:
        raise ValueError(f"unknown rmatrix checks: {bad}; available: {tuple(_RM_CHECKS)}")
    rng = np.random.default_rng(args.seed)

    def pt():
        return complex(_draw_box(rng, 1, 1, args.tau)[0, 0])

    results = []
    for check in checks:
        _, floor, residual = _RM_CHECKS[check]
        (r, extra), this_tol = residual(pt, n, m, p), max(args.tol, floor)
        results.append(_result(check, r, r, this_tol, r < this_tol, **extra))
    return args.out, {"N": n, "M": m, "tau": format_complex(args.tau),
                      "checks": checks}, results


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing does
    not change it."""
    parser = argparse.ArgumentParser(
        prog="elliptop",
        description="Elliptic integrable tops: identity suites, Lax checks, "
                    "R-matrix checks, and conservation-monitored integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("identities", help="run the lattice identity registry")
    sp.add_argument("--N", type=positive_int, required=True)
    sp.add_argument("--M", type=positive_int, default=1)
    sp.add_argument("--samples", type=draw_count, default=20)
    sp.add_argument("--ids", default="all")
    _add_common(sp, tol=1e-8)
    sp.set_defaults(func=cmd_identities)

    def model_parser(name, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--model", required=True, choices=MODEL_KINDS)
        sp.add_argument("--N", type=positive_int, required=True)
        sp.add_argument("--M", type=positive_int, default=1)
        sp.add_argument("--K", type=positive_int, default=1)
        return sp

    sp = model_parser("lax-check", "verify dL/dt = [L, M] for a model")
    sp.add_argument("--points", type=draw_count, default=5)
    sp.add_argument("--no-constraints", action="store_true",
                    help="negative control: skip the reduction projection")
    _add_common(sp, tol=1e-8, with_eta=True)
    sp.set_defaults(func=cmd_lax_check)

    sp = model_parser("evolve", "integrate and monitor conserved quantities")
    sp.add_argument("--reduction", default=None, choices=REDUCTION_KINDS)
    sp.add_argument("--dt", type=positive_float, default=1e-3)
    sp.add_argument("--t-end", type=positive_float, default=1.0)
    sp.add_argument("--record-every", type=positive_int, default=100)
    sp.add_argument("--probes", type=draw_count, default=2,
                    help="number of spectral monitor probes")
    sp.add_argument("--amplitude", type=positive_float, default=0.25,
                    help="initial-field scale; the quadratic flow must stay "
                         "within the fixed-step error budget")
    sp.add_argument("--out-dir", default="elliptop-run")
    _add_common(sp, tol=1e-6, with_eta=True, with_out=False)
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("rmatrix", help="R-matrix property checks")
    sp.add_argument("--N", type=positive_int, required=True)
    sp.add_argument("--M", type=positive_int, default=1)
    sp.add_argument("--checks", default="all")
    _add_common(sp, tol=1e-9)
    sp.set_defaults(func=cmd_rmatrix)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a number to the long option before it, '--tau -0.45+0.9i' as
    '--tau=-0.45+0.9i': argparse reads a token with a leading minus as an
    option unless it is a plain negative number."""
    out = argv[:1]
    for tok in argv[1:]:
        if out[-1][:2] == "--" and "=" not in out[-1] and _COMPLEX_RE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = _apply_config(args, parser, argv)
    try:
        _check_output_paths(args)
        report_path, params, results = args.func(args)
    except ValueError as exc:  # a rejected input; an UnknownIdentityError is one
        parser.error(str(exc))
    except (EllipticError, RuntimeError) as exc:
        print(f"elliptop: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_report(report_path, args.command, params, args.seed, results)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_NUMERICAL

if __name__ == "__main__":
    sys.exit(main())
