"""Job lists of the benchmark workloads and the checks on their outputs.

A workload is a fixed list of jobs built from the workload seed.  A job is
one call a user makes: ``elliptop.cli.main`` with a command line, or a
public library function.  ``Job.run`` is the timed call; ``Job.inspect``
runs after the pass, outside the timed region, and turns the job's output
into operations.

An operation is one claim the program makes, such as one identity in an
``identities`` report or one residue of a Gaudin reduction.  Its ``ok``
is the program's own verdict (for library calls with no verdict of their
own: that the call returned).  Its checks are the benchmark's: properties
the method must have, each a value against a limit.  Problems are
structural faults the benchmark found in the output, such as a CSV with
the wrong number of rows.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from elliptop import cli
from elliptop.dynamics import convergence_order
from elliptop.elliptic import EllipticParams
from elliptop.fourier import DressedFnParams, registry_ids
from elliptop.models import check_relativization, gaudin_reduce, make_model

TAU = 0.3 + 1.1j
ETA = 0.17 + 0.05j
ETA_ARG = "0.17+0.05i"

# The coupled scaling series runs on one fixed field: its quadrature error
# depends on the field, and (2, 9, 2) is the known failure counted in every
# run (fixed quadrature radius in CoupledTop._nodes).
SCALING_SEED = 17
SCALING_POINTS = ((2, 5, 2), (2, 7, 2), (3, 4, 2), (2, 9, 2))
# The evolve runs start from the fields of acceptance criterion 7 (seed 5):
# at the default amplitude the fixed-step flow exceeds its drift gates on
# some other fields (see CHANGES.md), so only the RK4 order fit follows the
# workload seed.
EVOLVE_SEED = 5

# evolve: the runs of acceptance criterion 7 (kind, N, extra CLI flags)
EVOLVE_RUNS = (
    ("nonrel-top", 2, ()),
    ("nonrel-top", 3, ("--reduction", "z2-nonrel")),
    ("rel-top", 2, ()),
    ("rel-top", 3, ("--reduction", "z2-rel")),
    ("matrix-top", 2, ("--M", "3")),
    ("gaudin-lattice", 3, ("--K", "2")),
    ("coupled", 2, ("--M", "3", "--K", "2")),
)
EVOLVE_DT, EVOLVE_T_END, EVOLVE_RECORD = 1e-3, 1.0, 100

# pointwise: one Lax check per model, as in acceptance criterion 2
LAX_MODELS = (
    ("nonrel-top", 2, 1, 1), ("nonrel-top", 3, 1, 1),
    ("rel-top", 2, 1, 1), ("rel-top", 3, 1, 1),
    ("matrix-top", 2, 3, 1), ("gaudin-lattice", 3, 1, 2),
    ("coupled", 2, 3, 2),
)
GAUDIN_CASES = tuple((n, m, variant, k) for n, m in ((2, 3), (3, 2))
                     for variant, k in ((1, n), (2, m)))

# limits of the benchmark's own checks
IDENTITY_TOL = 1e-8
LAX_TOL = 1e-8
NEGATIVE_CONTROL_MIN = 1e-3
TRACE_DRIFT_TOL = 1e-6
EIGEN_DRIFT_TOL = 1e-8
CONSTRAINT_DRIFT_TOL = 1e-7
RK4_ORDER_TOL = 0.2
GAUDIN_TOL = 1e-8
RELATIVIZATION_TOL = 1e-9
RMATRIX_TOLS = {"unitarity": 1e-9, "aybe": 1e-9, "fourier-swap": 1e-9,
                "classical-limit": 0.1, "sym-unitarity": 1e-8,
                "sym-aybe": 1e-8, "sublattice": 1e-9, "rational-aybe": 1e-9}


@dataclass
class Check:
    name: str
    value: float
    limit: float
    above: bool = False      # pass needs value > limit (negative controls)

    @property
    def holds(self) -> bool:
        return self.value > self.limit if self.above else self.value < self.limit

    @property
    def margin_digits(self) -> float | None:
        """log10 of how far inside its limit the value lands; None for exact zeros."""
        if self.value == 0.0:
            return None
        ratio = self.value / self.limit if self.above else self.limit / self.value
        return float(np.log10(ratio))


@dataclass
class Op:
    label: str
    ok: bool
    checks: list = field(default_factory=list)
    problems: list = field(default_factory=list)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    inspect: Callable[[object], list]


def _guarded(fn):
    """Run a job call; an exception is returned as the job's output."""
    def run():
        try:
            return fn()
        except Exception as exc:  # a failing call is an output to report
            return exc
    return run


def _failed_call(label: str, exc: Exception) -> list:
    return [Op(label, False, problems=[f"raised {type(exc).__name__}: {exc}"])]


# --------------------------------------------------------------------------
# CLI jobs
# --------------------------------------------------------------------------

def _read_report(path: str, command: str) -> tuple[dict | None, list]:
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"no readable report at {os.path.basename(path)}: {exc}"]
    problems = []
    if rep.get("command") != command or not isinstance(rep.get("results"), list):
        problems.append(f"malformed {command} report")
    return rep, problems


def _cli_job(label: str, argv: list, report: str, command: str,
             entry_checks: Callable[[dict], list], expect: int | None = None,
             extra: Callable[[], list] | None = None) -> Job:
    """One ``elliptop`` command; one operation per result entry of its report."""
    def inspect(code):
        if isinstance(code, Exception):
            return _failed_call(label, code)
        rep, problems = _read_report(report, command)
        if rep is None:
            return [Op(label, False, problems=problems)]
        results = rep["results"]
        if expect is not None and len(results) != expect:
            problems.append(f"{len(results)} results, expected {expect}")
        if (code == 0) != all(r["pass"] for r in results):
            problems.append(f"exit code {code} disagrees with the report")
        if extra is not None:
            problems += extra()
        ops = [Op(f"{label} {r['check']}", bool(r["pass"]), entry_checks(r))
               for r in results]
        if ops:
            ops[0].problems += problems
        else:
            ops = [Op(label, False, problems=problems or ["empty report"])]
        return ops

    return Job(label, _guarded(lambda: cli.main(list(argv))), inspect)


def _identity_checks(entry: dict) -> list:
    return [Check("max_rel_residual", entry["max_rel_residual"], IDENTITY_TOL)]


def _lax_checks(entry: dict) -> list:
    if entry["check"] == "lax-negative-control":
        return [Check("negative_control", entry["max_rel_residual"],
                      NEGATIVE_CONTROL_MIN, above=True)]
    return [Check("max_rel_residual", entry["max_rel_residual"], LAX_TOL)]


def _rmatrix_checks(entry: dict) -> list:
    return [Check("residual", entry["max_abs_residual"], RMATRIX_TOLS[entry["check"]])]


def _csv_rows(path: str) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _evolve_job(kind: str, n: int, flags: tuple, seed: int, work: str,
                t_end: float, record_every: int) -> Job:
    outdir = os.path.join(work, f"evolve-{kind}-N{n}")
    argv = ["evolve", "--model", kind, "--N", str(n), *flags, "--eta", ETA_ARG,
            "--seed", str(seed), "--dt", repr(EVOLVE_DT), "--t-end", repr(t_end),
            "--record-every", str(record_every), "--out-dir", outdir]
    steps = round(t_end / EVOLVE_DT)
    snapshots = 1 + steps // record_every + (1 if steps % record_every else 0)
    scalar = kind in ("nonrel-top", "rel-top")
    constrained = kind != "coupled" and (bool(flags and flags[0] == "--reduction")
                                         or kind in ("matrix-top", "gaudin-lattice"))

    def entry_checks(entry):
        name, value = entry["check"], entry["max_abs_residual"]
        if name == "trace-drift":
            return [Check(name, value, TRACE_DRIFT_TOL)]
        if name == "eigenvalue-drift" and scalar:
            return [Check(name, value, EIGEN_DRIFT_TOL)]
        if name == "constraint-drift" and constrained:
            return [Check(name, value, CONSTRAINT_DRIFT_TOL)]
        return []

    def csv_problems():
        probs = []
        for fname in ["trajectory.csv", "monitor_0.csv", "monitor_1.csv"]:
            path = os.path.join(outdir, fname)
            try:
                rows = _csv_rows(path)
            except OSError as exc:
                probs.append(f"{fname}: {exc}")
                continue
            if rows != snapshots:
                probs.append(f"{fname} has {rows} rows for {snapshots} snapshots")
        return probs

    label = f"evolve {kind} N{n}" + (f" {flags[-1]}" if flags else "")
    return _cli_job(label, argv, os.path.join(outdir, "summary.json"), "evolve",
                    entry_checks, expect=4, extra=csv_problems)


# --------------------------------------------------------------------------
# library jobs
# --------------------------------------------------------------------------

def _order_job(seed: int, params: EllipticParams, t_end: float) -> Job:
    model = make_model("rel-top", 2, params, eta=ETA)
    field0 = model.random_field(seed=seed, scale=0.5)
    label = "convergence_order rel-top N2"

    def inspect(order):
        if isinstance(order, Exception):
            return _failed_call(label, order)
        return [Op(label, True, [Check("abs(order - 4)", abs(order - 4.0), RK4_ORDER_TOL)])]

    return Job(label, _guarded(lambda: convergence_order(model, field0, t_end=t_end)),
               inspect)


def _gaudin_job(n: int, m: int, variant: int, k: int, seed: int,
                params: EllipticParams) -> Job:
    model = make_model("coupled", n, params, eta=ETA, m=m, k=k)
    field0 = model.random_field(seed=seed)
    label = f"gaudin_reduce N{n} M{m} variant {variant}"
    want_points = m * m if variant == 1 else n * n

    def run():
        red = gaudin_reduce(field0, variant, ETA, model)
        return red, [red.extract_residue(i) for i in range(len(red.marked_points))]

    def inspect(out):
        if isinstance(out, Exception):
            return _failed_call(label, out)
        red, numeric = out
        ops = []
        for i, num in enumerate(numeric):
            den = max(float(np.abs(red.residues[i]).max()), 1e-30)
            err = float(np.abs(num - red.residues[i]).max()) / den
            ops.append(Op(f"{label} residue {i}", True,
                          [Check("residue_rel_error", err, GAUDIN_TOL)]))
        if len(red.marked_points) != want_points:
            ops = ops or [Op(label, True)]
            ops[0].problems.append(f"{len(red.marked_points)} marked points, "
                                   f"expected {want_points}")
        return ops

    return Job(label, _guarded(run), inspect)


def box_points(rng, count: int) -> np.ndarray:
    """Generic points of the sampling box [0.05, 0.45] + tau*[0.05, 0.45]."""
    a = rng.uniform(0.05, 0.45, count)
    b = rng.uniform(0.05, 0.45, count)
    return a + b * TAU


def _relativization_job(seed: int, params: EllipticParams) -> Job:
    model = make_model("rel-top", 3, params, eta=ETA)
    field0 = model.random_field(seed)
    points = [complex(z) for z in box_points(np.random.default_rng(seed), 5)]
    label = "check_relativization rel-top N3"

    def inspect(out):
        if isinstance(out, Exception):
            return _failed_call(label, out)
        return [Op(f"{label} z{i}", True, [Check("w51_residual", r, RELATIVIZATION_TOL)])
                for i, r in enumerate(out)]

    return Job(label, _guarded(
        lambda: [check_relativization(field0, ETA, z, model) for z in points]),
        inspect)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def _identities(seed: int, work: str, smoke: bool) -> list:
    params = EllipticParams(TAU)
    sizes = ((2, 1), (2, 3)) if smoke else ((2, 1), (3, 1), (5, 1), (2, 3), (3, 2))
    samples = 2 if smoke else 20
    jobs = []
    for n, m in sizes:
        report = os.path.join(work, f"identities-N{n}-M{m}.json")
        argv = ["identities", "--N", str(n), "--M", str(m), "--ids", "all",
                "--samples", str(samples), "--seed", str(seed), "--out", report]
        expect = len(registry_ids(DressedFnParams(n, m, params)))
        jobs.append(_cli_job(f"identities N{n} M{m}", argv, report, "identities",
                             _identity_checks, expect=expect))
    return jobs


def _evolve(seed: int, work: str, smoke: bool) -> list:
    t_end, record_every = (0.1, 20) if smoke else (EVOLVE_T_END, EVOLVE_RECORD)
    jobs = [_evolve_job(kind, n, flags, EVOLVE_SEED, work, t_end, record_every)
            for kind, n, flags in EVOLVE_RUNS]
    jobs.append(_order_job(seed, EllipticParams(TAU), t_end=0.4))
    return jobs


def _lax_job(kind: str, n: int, m: int, k: int, seed: int, work: str,
             negative: bool = False) -> Job:
    tag = f"{kind} N{n} M{m} K{k}" + (" unconstrained" if negative else "")
    report = os.path.join(work, "lax-" + tag.replace(" ", "-") + ".json")
    argv = ["lax-check", "--model", kind, "--N", str(n), "--M", str(m),
            "--K", str(k), "--eta", ETA_ARG, "--seed", str(seed), "--out", report]
    if negative:
        argv.append("--no-constraints")
    return _cli_job(f"lax-check {tag}", argv, report, "lax-check", _lax_checks,
                    expect=1)


def _rmatrix_job(n: int, m: int, seed: int, work: str) -> Job:
    report = os.path.join(work, f"rmatrix-N{n}-M{m}.json")
    argv = ["rmatrix", "--N", str(n), "--M", str(m), "--checks", "all",
            "--seed", str(seed), "--out", report]
    return _cli_job(f"rmatrix N{n} M{m}", argv, report, "rmatrix", _rmatrix_checks,
                    expect=4)


def _pointwise(seed: int, work: str, smoke: bool) -> list:
    params = EllipticParams(TAU)
    jobs = [_lax_job(kind, n, m, k, seed, work) for kind, n, m, k in LAX_MODELS]
    if not smoke:
        jobs += [_lax_job("coupled", n, m, k, SCALING_SEED, work)
                 for n, m, k in SCALING_POINTS]
    jobs.append(_lax_job("coupled", 2, 3, 2, seed, work, negative=True))
    cases = GAUDIN_CASES[2:3] if smoke else GAUDIN_CASES
    jobs += [_gaudin_job(n, m, variant, k, seed, params) for n, m, variant, k in cases]
    jobs.append(_relativization_job(seed, params))
    sizes = ((2, 1),) if smoke else ((2, 1), (3, 1), (2, 3))
    jobs += [_rmatrix_job(n, m, seed, work) for n, m in sizes]
    return jobs


def build(workload: str, seed: int, work: str, smoke: bool = False) -> list:
    """The workload's job list for ``seed``; CLI outputs go under ``work``."""
    makers = {"identities": _identities, "evolve": _evolve, "pointwise": _pointwise}
    return makers[workload](seed, work, smoke)
