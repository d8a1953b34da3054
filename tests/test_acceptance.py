"""Acceptance suite: every top-level numerical claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""
import json
import time

import numpy as np
import pytest

from elliptop import rmatrix as rm
from elliptop.cli import main as cli_main
from elliptop.dynamics import IntegratorConfig, convergence_order, integrate
from elliptop.elliptic import EllipticParams
from elliptop.fourier import DressedFnParams, registry_ids, verify_identity
from elliptop.models import (check_relativization, gaudin_reduce, lax_residual,
                             make_model)

from conftest import TAU, belavin_R, box_points

ETA = 0.17 + 0.05j


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_identity_suite(params):
    """All registry identities, N in {2,3,5} plus (N,M) in {(2,3),(3,2)},
    20 samples, max relative residual < 1e-8, under 60 s."""
    t0 = time.time()
    worst = 0.0
    worst_id = ""
    for n in (2, 3, 5):
        dp = DressedFnParams(n, 1, params)
        for ident in registry_ids(dp):
            rep = verify_identity(ident, dp, samples=20, seed=42, tol=1e-8)
            if rep.max_rel_residual > worst:
                worst, worst_id = rep.max_rel_residual, f"{ident}@N={n}"
    for n, m in ((2, 3), (3, 2)):
        dp = DressedFnParams(n, m, params)
        for ident in registry_ids(dp):
            rep = verify_identity(ident, dp, samples=20, seed=42, tol=1e-8)
            if rep.max_rel_residual > worst:
                worst, worst_id = rep.max_rel_residual, f"{ident}@({n},{m})"
    elapsed = time.time() - t0
    report("1 identity suite", worst < 1e-8 and elapsed < 60.0,
           f"worst {worst:.2e} at {worst_id}, {elapsed:.1f} s")


def test_criterion_2_lax_equivalence(params):
    """Relative Lax residual < 1e-8 at 5 generic spectral points per model;
    the unconstrained coupled model is the failing negative control."""
    cases = [
        ("nonrel-top", dict(n=2), {}),
        ("nonrel-top", dict(n=3), {}),
        ("rel-top", dict(n=2), {"eta": ETA}),
        ("rel-top", dict(n=3), {"eta": ETA}),
        ("matrix-top", dict(n=2), {"eta": ETA, "m": 3}),
        ("gaudin-lattice", dict(n=3), {"eta": ETA, "k": 2}),
        ("coupled", dict(n=2), {"eta": ETA, "m": 3, "k": 2}),
    ]
    worst = 0.0
    for kind, base, kw in cases:
        model = make_model(kind, base["n"], params, **kw)
        field = model.random_field(seed=17)
        res = lax_residual(model, field, model.spectral_samples(5, 23))
        worst = max(worst, res["max_rel"])
    model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
    rng = np.random.default_rng(17)
    raw = (rng.normal(size=model.field_shape())
           + 1j * rng.normal(size=model.field_shape()))
    neg = lax_residual(model, raw, model.spectral_samples(5, 23))
    report("2 Lax equivalence", worst < 1e-8 and neg["max_rel"] > 1e-3,
           f"worst {worst:.2e}, negative control {neg['max_rel']:.2e}")


def test_criterion_3_fourier_swap(params):
    """w1005 and the e913 family agree (joint pass) at < 1e-10, N in {2,3,5}."""
    ok = True
    worst = 0.0
    for n in (2, 3, 5):
        rng = np.random.default_rng(300 + n)
        z, hb = box_points(rng, 2)
        swap = rm.sublattice_residuals(z, hb / 2, n, 1, params)[0]
        rep = verify_identity("e913", DressedFnParams(n, 1, params),
                              samples=20, seed=300 + n, tol=1e-10)
        joint = (swap < 1e-10) and rep.passed
        ok &= joint
        worst = max(worst, swap, rep.max_rel_residual)
    report("3 Fourier swap = e913 family", ok, f"worst {worst:.2e}")


def test_criterion_4_rmatrix_algebra(params):
    rng = np.random.default_rng(44)

    def pts(k):
        return box_points(rng, k)

    hb1, e1 = pts(2) / 2
    aybe2 = rm.check_aybe_symmetric(2, 1, params, tuple(pts(3)), (hb1, 0.0, e1 + 0.1))
    hb2, e2 = pts(2) / 2
    aybe3 = rm.check_aybe_symmetric(3, 1, params, tuple(pts(3)), (hb2, 0.0, e2 + 0.1))
    sym_aybe = rm.check_aybe_symmetric(2, 3, params, tuple(pts(3)),
                                       tuple(pts(3) / 2))
    z, hb = pts(2)
    uni = max(rm.symmetric_unitarity_residual(z, hb / 2, n, 1, params) for n in (2, 3))
    sym_uni = rm.symmetric_unitarity_residual(z, hb / 2, 2, 3, params)
    sub = max(max(rm.sublattice_residuals(z, hb / 2, n, m, params))
              for n, m in ((2, 3), (3, 2)))
    ok = (aybe2 < 1e-9 and aybe3 < 1e-9 and sym_aybe < 1e-8
          and uni < 1e-9 and sym_uni < 1e-8 and sub < 1e-9)
    report("4 R-matrix algebra", ok,
           f"AYBE {max(aybe2, aybe3):.2e}, sym AYBE {sym_aybe:.2e}, "
           f"unitarity {uni:.2e}/{sym_uni:.2e}, sublattice {sub:.2e}")


def test_criterion_5_classical_limit(params):
    """A log-log fit over h = 2^-3 ... 2^-10, independent of the library's
    Laurent-coefficient check (``rmatrix.classical_limit_residual``)."""
    rng = np.random.default_rng(5)
    (z,) = box_points(rng, 1)
    r12, m12 = rm.classical_expansion(z, 2, params)
    hs = 2.0 ** -np.arange(3, 11)
    errs = [np.abs(belavin_R(z, h, 2, params) - np.eye(4) / h - r12 - h * m12).max()
            for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    report("5 classical limit", abs(slope - 2.0) < 0.1, f"slope {slope:.3f}")


def test_criterion_6_relativization(params):
    rng = np.random.default_rng(6)
    model = make_model("rel-top", 3, params, eta=ETA)
    n = 3
    field = rng.normal(size=(n, n, 1, 1)) + 1j * rng.normal(size=(n, n, 1, 1))
    w51 = max(check_relativization(field, ETA, z, model)
              for z in box_points(rng, 5))
    nonrel = make_model("nonrel-top", n, params)
    base = nonrel.eom_rhs(field)
    etas, gaps = [], []
    for k in range(3, 11):
        eta = 2.0 ** (-k)
        rel = make_model("rel-top", n, params, eta=eta)
        gaps.append(float(np.abs(rel.eom_rhs(field) / eta - base).max()))
        etas.append(eta)
    slope = float(np.polyfit(np.log(etas), np.log(gaps), 1)[0])
    ok = w51 < 1e-9 and abs(slope - 1.0) < 0.1
    report("6 relativization", ok, f"w51 {w51:.2e}, limit slope {slope:.3f}")


def test_criterion_7_dynamics_conservation(params):
    runs = [
        ("nonrel-top", dict(), None, 2),
        ("nonrel-top", dict(), "z2-nonrel", 3),
        ("rel-top", dict(eta=ETA), None, 2),
        ("rel-top", dict(eta=ETA), "z2-rel", 3),
        ("matrix-top", dict(eta=ETA, m=3), None, 2),
        ("gaudin-lattice", dict(eta=ETA, k=2), None, 3),
        ("coupled", dict(eta=ETA, m=3, k=2), None, 2),
    ]
    eig_w = trace_w = constr_w = 0.0
    for kind, kw, red, n in runs:
        model = make_model(kind, n, params, reduction=red, **kw)
        field = model.random_field(seed=5, scale=0.25)
        probes = tuple(model.spectral_samples(2, 11))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=100,
                               spectral_probes=probes)
        traj = integrate(model, field, cfg)
        assert traj.completed
        trace_w = max(trace_w, traj.trace_drift())
        if kind in ("nonrel-top", "rel-top"):
            eig_w = max(eig_w, traj.eigenvalue_drift())
        if model.reduction:
            constr_w = max(constr_w, traj.constraint_drift())
    rel2 = make_model("rel-top", 2, params, eta=ETA)
    order = convergence_order(rel2, rel2.random_field(seed=5, scale=0.5),
                              t_end=0.4)
    ok = (eig_w < 1e-8 and trace_w < 1e-6 and constr_w < 1e-7
          and abs(order - 4.0) < 0.2)
    report("7 dynamics conservation", ok,
           f"eig {eig_w:.2e}, traces {trace_w:.2e}, constraints {constr_w:.2e}, "
           f"RK4 order {order:.2f}")


def test_criterion_8_gaudin_reduction(params):
    worst = 0.0
    for n, m in ((2, 3), (3, 2)):
        for variant, k in ((1, n), (2, m)):
            model = make_model("coupled", n, params, eta=ETA, m=m, k=k)
            field = model.random_field(seed=8)
            red = gaudin_reduce(field, variant, ETA, model)
            want_points = m * m if variant == 1 else n * n
            assert len(red.marked_points) == want_points
            for i in range(len(red.marked_points)):
                num = red.extract_residue(i)
                den = max(np.abs(red.residues[i]).max(), 1e-30)
                worst = max(worst, float(np.abs(num - red.residues[i]).max() / den))
    report("8 Gaudin reduction residues", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_9_cli_determinism(params, tmp_path):
    def once(idx: int, argv):
        out = tmp_path / f"d{idx}.json"
        code = cli_main(argv + ["--out", str(out)])
        rep = json.loads(out.read_text())
        rep.pop("meta")
        return code, json.dumps(rep, sort_keys=True).encode()

    ok = True
    for argv in (
        ["identities", "--N", "3", "--samples", "6", "--seed", "9",
         "--ids", "e913,e9202,w92"],
        ["lax-check", "--model", "matrix-top", "--N", "2", "--M", "3",
         "--eta", "0.17+0.05i", "--seed", "2"],
        ["rmatrix", "--N", "2", "--checks", "unitarity,fourier-swap",
         "--seed", "4"],
    ):
        c1, b1 = once(0, argv)
        c2, b2 = once(1, argv)
        ok &= (c1 == c2 == 0 and b1 == b2)
    report("9 CLI determinism", ok)
