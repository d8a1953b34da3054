"""Independent check of the special functions against mpmath.

elliptop's odd theta function is  theta(z) = -theta_1(pi z, q)  with
q = exp(i pi tau), where theta_1 is mpmath's ``jtheta(1, ., q)``.  Hence

    E1(z)       = pi theta_1'(pi z) / theta_1(pi z)
    phi(eta, z) = pi theta_1'(0) theta_1(pi (eta + z))
                  / (theta_1(pi eta) theta_1(pi z))

evaluated here at 30 significant digits, a code path that shares nothing
with elliptop's series.
"""
from __future__ import annotations

import mpmath
import numpy as np

from elliptop.elliptic import (EllipticParams, eisenstein_E1, kronecker_phi,
                               theta)

ORACLE_TOL = 1e-12


def check(tau: complex, points, etas) -> list:
    """Problems found comparing theta, E1 and phi at ``points`` (and ``etas``)."""
    p = EllipticParams(tau)
    problems = []
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        pi = mpmath.pi

        def t1(z, d=0):
            return mpmath.jtheta(1, pi * mpmath.mpc(z), q, d)

        d1_at_0 = t1(0, 1)

        def compare(name, got, want):
            err = abs(complex(got) - complex(want)) / max(abs(complex(want)), 1e-300)
            if not err < ORACLE_TOL:
                problems.append(f"{name}: relative error {err:.3e} against mpmath")

        # each function once per point and once vectorised over all points
        theta_vec = theta(np.asarray(points, dtype=complex), p)
        for i, z in enumerate(points):
            want = -t1(z)
            compare(f"theta({z:.6g})", theta(z, p), want)
            compare(f"theta([{z:.6g}, ...])", theta_vec[i], want)
            compare(f"eisenstein_E1({z:.6g})", eisenstein_E1(z, p),
                    pi * t1(z, 1) / t1(z))
            for eta in etas:
                compare(f"kronecker_phi({eta:.6g}, {z:.6g})", kronecker_phi(eta, z, p),
                        pi * d1_at_0 * t1(eta + z) / (t1(eta) * t1(z)))
    return problems
