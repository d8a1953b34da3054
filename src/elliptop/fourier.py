"""Dressed elliptic functions on Z_N x Z_N, the GL_N x GL_M family, the
finite Fourier transform of coefficient tables, and the identity registry.

Dressed functions (raw integer indices; all are invariant under index
shifts by the lattice size, which is what makes raw arithmetic safe):

    varphi_a(z, y + omega_a) = exp(2*pi*i*z*a2/N) * phi(z, y + omega_a)
    f_a(z, omega_a)          = exp(2*pi*i*z*a2/N) * f(z, omega_a)
    Phi_{a,ta}(z, eta) = exp(2*pi*i*((z + N*tw_ta)*a2/N + eta*N*ta2/M))
                         * phi(z + N*tw_ta, eta + omega_a)

with omega_a = (a1 + a2*tau)/N and tw_ta = (ta1 + ta2*tau)/M.

Every registry identity evaluates its two sides through independent code
paths: lattice sums are summed directly from dressed-function values, the
single-point side calls the same kernel but shares no summation code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elliptic import (TWO_PI_I, EllipticParams, eisenstein_E1, eisenstein_E2,
                       kronecker_f, kronecker_phi, lattice_distance,
                       weierstrass_p)
from .parallel import thread_map

# redrawing margin for degenerate sample configurations; well above
# pole_guard so that no evaluation ever sits near a pole
DEGENERACY_MARGIN = 0.02
MAX_REDRAWS = 500


class UnknownIdentityError(ValueError):
    """Requested identity id is not in the registry."""


@dataclass(frozen=True)
class DressedFnParams:
    """Lattice sizes and elliptic parameters for identity verification."""

    N: int
    M: int = 1
    elliptic: EllipticParams = field(default_factory=lambda: EllipticParams(0.3 + 1.1j))

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("lattice sizes must be positive")
        if self.M > 1 and math.gcd(self.N, self.M) != 1:
            raise ValueError(f"N = {self.N} and M = {self.M} must be coprime")


def omega_of(a1, a2, n: int, tau: complex):
    """Half period (a1 + a2*tau)/n for raw integer indices."""
    return (np.asarray(a1) + np.asarray(a2) * tau) / n


def phi_alpha(z, eta, a1, a2, n: int, p: EllipticParams):
    """varphi_a(z, eta + omega_a); raw integer index arrays broadcast with z."""
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    w = omega_of(a1, a2, n, p.tau)
    return np.exp(TWO_PI_I * np.asarray(z) * a2 / n) * kronecker_phi(z, np.asarray(eta) + w, p)


def f_alpha(z, a1, a2, n: int, p: EllipticParams):
    """f_a(z, omega_a) for a != 0 (mod N)."""
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    if np.any((a1 % n == 0) & (a2 % n == 0)):
        raise ValueError("f_alpha is undefined at alpha = 0")
    w = omega_of(a1, a2, n, p.tau)
    return np.exp(TWO_PI_I * np.asarray(z) * a2 / n) * kronecker_f(z, w, p)


def phi_big(z, eta, a1, a2, ta1, ta2, n: int, m: int, p: EllipticParams):
    """Phi_{a,ta}(z, eta), the GL_N x GL_M function; raw integer indices."""
    a2 = np.asarray(a2)
    ta2 = np.asarray(ta2)
    tw = omega_of(ta1, ta2, m, p.tau)
    w = omega_of(a1, a2, n, p.tau)
    pref = np.exp(TWO_PI_I * ((np.asarray(z) + n * tw) * a2 / n
                              + np.asarray(eta) * n * ta2 / m))
    return pref * kronecker_phi(np.asarray(z) + n * tw, np.asarray(eta) + w, p)


def phi_big_swapped(z, eta, tg1, tg2, a1, a2, n: int, m: int, p: EllipticParams):
    """Phi with the roles of the Z_N and Z_M lattices interchanged."""
    return phi_big(z, eta, tg1, tg2, a1, a2, m, n, p)


def kappa_sq_matrix(n: int) -> np.ndarray:
    """K[b1, b2, a1, a2] = kappa_{b,a}^2 = exp(2*pi*i*(a1*b2 - a2*b1)/n)."""
    idx = np.arange(n)
    b1, b2, a1, a2 = np.meshgrid(idx, idx, idx, idx, indexing="ij")
    return np.exp(TWO_PI_I * (a1 * b2 - a2 * b1) / n)


def ft_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Finite Fourier transform A~^b = (1/N) sum_a kappa_{b,a}^2 A^a.

    ``coeffs`` has shape (n, n, ...); trailing axes (matrix blocks) are
    transformed entrywise.  The transform is an involution, so it is its
    own inverse.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[:2] != (n, n):
        raise ValueError(f"coefficient table must have leading shape ({n}, {n})")
    k2 = kappa_sq_matrix(n)
    return np.einsum("bcad,ad...->bc...", k2, coeffs) / n


def _grid(n: int):
    idx = np.arange(n)
    a1, a2 = np.meshgrid(idx, idx, indexing="ij")
    return a1.ravel(), a2.ravel()


def _nonzero_grid(n: int):
    a1, a2 = _grid(n)
    keep = ~((a1 == 0) & (a2 == 0))
    return a1[keep], a2[keep]


# --------------------------------------------------------------------------
# identity registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySpec:
    """One verifiable identity.

    ``evaluate(params, sample)`` returns (lhs, rhs) arrays over the full
    admissible discrete sweep; ``guard(params, sample)`` returns the
    continuous points that must stay DEGENERACY_MARGIN away from the
    period lattice for the configuration to count as non-degenerate.
    """

    id: str
    arity: str
    evaluate: Callable
    guard: Callable
    continuous_args: tuple
    requires_m: bool = False
    notes: str = ""


@dataclass
class VerificationReport:
    """Residual record for one identity at one parameter set."""

    identity: str
    params: dict
    seed: int
    tol: float
    per_sample_abs: list
    per_sample_rel: list
    max_abs_residual: float
    max_rel_residual: float
    passed: bool
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "seed": self.seed,
            "tol": self.tol,
            "per_sample_abs": self.per_sample_abs,
            "per_sample_rel": self.per_sample_rel,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
            "notes": self.notes,
        }


def _residuals(lhs, rhs):
    lhs = np.atleast_1d(np.asarray(lhs))
    rhs = np.atleast_1d(np.asarray(rhs))
    err = np.abs(lhs - rhs)
    scale = np.maximum(np.abs(rhs), 1.0)
    return float(err.max()), float((err / scale).max())


def _dtw(a2, n):
    """2*pi*i * d(omega)/d(tau) = 2*pi*i*a2/n, computed exactly."""
    return TWO_PI_I * np.asarray(a2) / n


# ---- section-2 identities (scalar lattice) --------------------------------

def _e913(params, s):
    n, p = params.N, params.elliptic
    z, hb = s["z"], s["hbar"]
    a1, a2 = _grid(n)
    g1, g2 = _grid(n)
    vals = phi_alpha(n * hb, z / n, a1, a2, n, p)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = k2 @ vals / n
    rhs = phi_alpha(z, hb, g1, g2, n, p)
    return lhs, rhs


def _e913_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    z, hb = s["z"], s["hbar"]
    a1, a2 = _grid(n)
    return np.concatenate([
        np.atleast_1d(n * hb), np.atleast_1d(z),
        z / n + omega_of(a1, a2, n, tau),
        hb + omega_of(a1, a2, n, tau),
    ])


def _e914(params, s):
    n, p = params.N, params.elliptic
    z, hb = s["z"], s["hbar"]
    a1, a2 = _grid(n)
    g1, g2 = _grid(n)
    vals = phi_alpha(z, hb, a1, a2, n, p)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = k2 @ vals / n
    rhs = phi_alpha(n * hb, z / n, g1, g2, n, p)
    return lhs, rhs


def _e915(params, s):
    n, p = params.N, params.elliptic
    hb = s["hbar"]
    a1, a2 = _grid(n)
    lhs = np.sum(eisenstein_E1(hb + omega_of(a1, a2, n, p.tau), p) + _dtw(a2, n)) / n
    rhs = eisenstein_E1(n * hb, p)
    return lhs, rhs


def _e915_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    hb = s["hbar"]
    a1, a2 = _grid(n)
    return np.concatenate([np.atleast_1d(n * hb), hb + omega_of(a1, a2, n, tau)])


def _e916(params, s):
    n, p = params.N, params.elliptic
    hb = s["hbar"]
    a1, a2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    vec = eisenstein_E1(hb + omega_of(a1, a2, n, p.tau), p) + _dtw(a2, n)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = k2 @ vec / n
    rhs = phi_alpha(n * hb, 0.0, g1, g2, n, p)
    return lhs, rhs


def _e917(params, s):
    n, p = params.N, params.elliptic
    z = s["z"]
    a1, a2 = _nonzero_grid(n)
    g1, g2 = _grid(n)
    vals = phi_alpha(z, 0.0, a1, a2, n, p)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = (eisenstein_E1(z, p) + k2 @ vals) / n
    rhs = eisenstein_E1(omega_of(g1, g2, n, p.tau) + z / n, p) + _dtw(g2, n)
    return lhs, rhs


def _e917_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    z = s["z"]
    a1, a2 = _grid(n)
    return np.concatenate([np.atleast_1d(z), z / n + omega_of(a1, a2, n, tau)])


def _e918(params, s):
    n, p = params.N, params.elliptic
    a1, a2 = _nonzero_grid(n)
    lhs = np.sum(eisenstein_E1(omega_of(a1, a2, n, p.tau), p) + _dtw(a2, n)) / n
    return lhs, 0.0 * lhs


def _e919(params, s):
    n, p = params.N, params.elliptic
    a1, a2 = _nonzero_grid(n)
    g1, g2 = _nonzero_grid(n)
    vec = eisenstein_E1(omega_of(a1, a2, n, p.tau), p) + _dtw(a2, n)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = k2 @ vec / n
    rhs = eisenstein_E1(omega_of(g1, g2, n, p.tau), p) + _dtw(g2, n)
    return lhs, rhs


def _e920(params, s):
    n, p = params.N, params.elliptic
    hb = s["hbar"]
    a1, a2 = _grid(n)
    lhs = np.sum(eisenstein_E2(hb + omega_of(a1, a2, n, p.tau), p))
    rhs = n * n * eisenstein_E2(n * hb, p)
    return lhs, rhs


def _e9202(params, s):
    n, p = params.N, params.elliptic
    hb = s["hbar"]
    a1, a2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    vec = eisenstein_E2(hb + omega_of(a1, a2, n, p.tau), p)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = k2 @ vec
    wg = omega_of(g1, g2, n, p.tau)
    rhs = (-n * n * phi_alpha(n * hb, 0.0, g1, g2, n, p)
           * (eisenstein_E1(n * hb + wg, p) - eisenstein_E1(n * hb, p) + _dtw(g2, n)))
    return lhs, rhs


def _e9202_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    hb = s["hbar"]
    a1, a2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    return np.concatenate([
        np.atleast_1d(n * hb),
        hb + omega_of(a1, a2, n, tau),
        n * hb + omega_of(g1, g2, n, tau),
    ])


def _e921(params, s):
    n, p = params.N, params.elliptic
    a1, a2 = _nonzero_grid(n)
    lhs = np.sum(weierstrass_p(omega_of(a1, a2, n, p.tau), p))
    return lhs, 0.0 * lhs


def _e922(params, s):
    n, p = params.N, params.elliptic
    z = s["z"]
    a1, a2 = _nonzero_grid(n)
    g1, g2 = _grid(n)
    vec = f_alpha(z, a1, a2, n, p)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    base = 0.5 * (eisenstein_E1(z, p) ** 2 - weierstrass_p(z, p))
    lhs = base + k2 @ vec
    w = omega_of(g1, g2, n, p.tau) + z / n
    rhs = 0.5 * n * n * ((eisenstein_E1(w, p) + _dtw(g2, n)) ** 2 - weierstrass_p(w, p))
    return lhs, rhs


def _e923(params, s):
    n, p = params.N, params.elliptic
    z = s["z"]
    a1, a2 = _grid(n)
    w = omega_of(a1, a2, n, p.tau) + z / n
    lhs = np.sum((eisenstein_E1(w, p) + _dtw(a2, n)) ** 2 - weierstrass_p(w, p))
    rhs = eisenstein_E1(z, p) ** 2 - weierstrass_p(z, p)
    return lhs, rhs


def _e924(params, s):
    n, p = params.N, params.elliptic
    z = s["z"]
    a1, a2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    w = omega_of(a1, a2, n, p.tau) + z / n
    vec = (eisenstein_E1(w, p) + _dtw(a2, n)) ** 2 - weierstrass_p(w, p)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = 0.5 * (k2 @ vec)
    rhs = f_alpha(z, g1, g2, n, p)
    return lhs, rhs


def _e9051(params, s):
    n = params.N
    a1, a2 = _grid(n)
    g1, g2 = _grid(n)
    k2 = np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)
    lhs = k2.sum(axis=1)
    rhs = np.where((g1 == 0) & (g2 == 0), float(n * n), 0.0).astype(complex)
    return lhs, rhs


# ---- dressed-function identities ------------------------------------------

def _w52(params, s):
    n, p = params.N, params.elliptic
    z, eta = s["z"], s["eta"]
    a1, a2 = _nonzero_grid(n)
    lhs = phi_alpha(z, eta, a1, a2, n, p) / kronecker_phi(z, eta, p)
    rhs = phi_alpha(z + eta, 0.0, a1, a2, n, p) / phi_alpha(eta, 0.0, a1, a2, n, p)
    return lhs, rhs


def _w52_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    z, eta = s["z"], s["eta"]
    a1, a2 = _nonzero_grid(n)
    w = omega_of(a1, a2, n, tau)
    return np.concatenate([
        np.atleast_1d(z), np.atleast_1d(eta), np.atleast_1d(z + eta),
        eta + w, z + eta + w, w + 0 * w,
    ])


def _w85(params, s):
    p = params.elliptic
    z, w, q, u = s["z"], s["w"], s["q"], s["u"]
    lhs = kronecker_phi(z, q, p) * kronecker_phi(w, u, p)
    rhs = (kronecker_phi(z - w, q, p) * kronecker_phi(w, q + u, p)
           + kronecker_phi(w - z, u, p) * kronecker_phi(z, q + u, p))
    return lhs, rhs


def _w85_guard(params, s):
    z, w, q, u = s["z"], s["w"], s["q"], s["u"]
    return np.array([z, w, q, u, z - w, q + u])


def _w86(params, s):
    p = params.elliptic
    z, w, q = s["z"], s["w"], s["q"]
    lhs = kronecker_phi(z, q, p) * kronecker_phi(w, q, p)
    rhs = kronecker_phi(z + w, q, p) * (
        eisenstein_E1(z, p) + eisenstein_E1(w, p) + eisenstein_E1(q, p)
        - eisenstein_E1(z + w + q, p))
    return lhs, rhs


def _w86_guard(params, s):
    z, w, q = s["z"], s["w"], s["q"]
    return np.array([z, w, q, z + w, z + w + q])


def _w87(params, s):
    p = params.elliptic
    z, x, y = s["z"], s["x"], s["y"]
    lhs = kronecker_phi(z, x, p) * kronecker_f(z, y, p) \
        - kronecker_phi(z, y, p) * kronecker_f(z, x, p)
    rhs = kronecker_phi(z, x + y, p) * (weierstrass_p(x, p) - weierstrass_p(y, p))
    return lhs, rhs


def _w87_guard(params, s):
    z, x, y = s["z"], s["x"], s["y"]
    return np.array([z, x, y, x + y, z + x, z + y])


def _w91(params, s):
    n, p = params.N, params.elliptic
    x, y, eta = s["x"], s["y"], s["eta"]
    b1, b2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    B1, G1 = np.meshgrid(b1, g1, indexing="ij")
    B2, G2 = np.meshgrid(b2, g2, indexing="ij")
    lhs = (phi_alpha(x, eta, B1, B2, n, p) * phi_alpha(y, 0.0, G1, G2, n, p))
    rhs = (phi_alpha(x - y, eta, B1, B2, n, p)
           * phi_alpha(y, eta, B1 + G1, B2 + G2, n, p)
           + phi_alpha(y - x, 0.0, G1, G2, n, p)
           * phi_alpha(x, eta, B1 + G1, B2 + G2, n, p))
    return lhs.ravel(), rhs.ravel()


def _w91_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    x, y, eta = s["x"], s["y"], s["eta"]
    # eta + omega over the doubled index range reached by beta + gamma
    d1, d2 = _grid(2 * n)
    pts = [np.atleast_1d(v) for v in (x, y, x - y, y - x)]
    pts.append(eta + omega_of(d1, d2, n, tau))
    return np.concatenate(pts)


def _w92(params, s):
    n, p = params.N, params.elliptic
    z, eta = s["z"], s["eta"]
    b1, b2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    B1, G1 = np.meshgrid(b1, g1, indexing="ij")
    B2, G2 = np.meshgrid(b2, g2, indexing="ij")
    tau = p.tau
    lhs = phi_alpha(z, eta, B1, B2, n, p) * phi_alpha(z, 0.0, G1, G2, n, p)
    rhs = phi_alpha(z, eta, B1 + G1, B2 + G2, n, p) * (
        eisenstein_E1(z, p)
        + eisenstein_E1(eta + omega_of(B1, B2, n, tau), p)
        + eisenstein_E1(omega_of(G1, G2, n, tau), p)
        - eisenstein_E1(z + eta + omega_of(B1 + G1, B2 + G2, n, tau), p))
    return lhs.ravel(), rhs.ravel()


def _w92_guard(params, s):
    n, tau = params.N, params.elliptic.tau
    z, eta = s["z"], s["eta"]
    d1, d2 = _grid(2 * n)
    w = omega_of(d1, d2, n, tau)
    return np.concatenate([np.atleast_1d(z), eta + w, z + eta + w])


def _w93(params, s):
    n, p = params.N, params.elliptic
    z = s["z"]
    b1, b2 = _nonzero_grid(n)
    B1, G1 = np.meshgrid(b1, b1, indexing="ij")
    B2, G2 = np.meshgrid(b2, b2, indexing="ij")
    keep = ~(((B1 + G1) % n == 0) & ((B2 + G2) % n == 0))
    B1, B2, G1, G2 = B1[keep], B2[keep], G1[keep], G2[keep]
    tau = p.tau
    lhs = (phi_alpha(z, 0.0, B1, B2, n, p) * f_alpha(z, G1, G2, n, p)
           - phi_alpha(z, 0.0, G1, G2, n, p) * f_alpha(z, B1, B2, n, p))
    rhs = phi_alpha(z, 0.0, B1 + G1, B2 + G2, n, p) * (
        weierstrass_p(omega_of(B1, B2, n, tau), p)
        - weierstrass_p(omega_of(G1, G2, n, tau), p))
    return lhs, rhs


def _w93_guard(params, s):
    return np.atleast_1d(s["z"])


# ---- GL_N x GL_M identities -----------------------------------------------

def _w16(params, s):
    n, m, p = params.N, params.M, params.elliptic
    z, eta = s["z"], s["eta"]
    a1, a2 = _grid(n)
    ta1, ta2 = _grid(m)
    A1, TA1 = np.meshgrid(a1, ta1, indexing="ij")
    A2, TA2 = np.meshgrid(a2, ta2, indexing="ij")
    base = phi_big(z, eta, A1, A2, TA1, TA2, n, m, p)
    shifted = [
        phi_big(z, eta, A1 + n, A2, TA1, TA2, n, m, p),
        phi_big(z, eta, A1, A2 + n, TA1, TA2, n, m, p),
        phi_big(z, eta, A1, A2, TA1 + m, TA2, n, m, p),
        phi_big(z, eta, A1, A2, TA1, TA2 + m, n, m, p),
    ]
    lhs = np.concatenate([x.ravel() for x in shifted])
    rhs = np.concatenate([base.ravel()] * 4)
    return lhs, rhs


def _w16_guard(params, s):
    n, m, tau = params.N, params.M, params.elliptic.tau
    z, eta = s["z"], s["eta"]
    a1, a2 = _grid(n)
    ta1, ta2 = _grid(m)
    A1, TA1 = np.meshgrid(a1, ta1, indexing="ij")
    A2, TA2 = np.meshgrid(a2, ta2, indexing="ij")
    return np.concatenate([
        (z + n * omega_of(TA1, TA2, m, tau)).ravel(),
        (eta + omega_of(A1, A2, n, tau)).ravel(),
    ])


def _phi_sweep_4(params):
    """Index grids for (beta, gamma, tbeta, tgamma) sweeps."""
    n, m = params.N, params.M
    b1, b2 = _grid(n)
    t1, t2 = _grid(m)
    B1, G1, TB1, TG1 = np.meshgrid(b1, b1, t1, t1, indexing="ij")
    B2, G2, TB2, TG2 = np.meshgrid(b2, b2, t2, t2, indexing="ij")
    return B1, B2, G1, G2, TB1, TB2, TG1, TG2


def _w33(params, s):
    n, m, p = params.N, params.M, params.elliptic
    z, eta = s["z"], s["eta"]
    B1, B2, G1, G2, TB1, TB2, TG1, TG2 = _phi_sweep_4(params)
    keep = ~((G1 == 0) & (G2 == 0)) & ~((TB1 == TG1) & (TB2 == TG2))
    B1, B2, G1, G2 = B1[keep], B2[keep], G1[keep], G2[keep]
    TB1, TB2, TG1, TG2 = TB1[keep], TB2[keep], TG1[keep], TG2[keep]
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(z, 0.0, G1, G2, TG1, TG2, n, m, p))
    rhs = (phi_big(0.0, eta, B1, B2, TB1 - TG1, TB2 - TG2, n, m, p)
           * phi_big(z, eta, B1 + G1, B2 + G2, TG1, TG2, n, m, p)
           + phi_big(0.0, 0.0, G1, G2, TG1 - TB1, TG2 - TB2, n, m, p)
           * phi_big(z, eta, B1 + G1, B2 + G2, TB1, TB2, n, m, p))
    return lhs, rhs


def _w34(params, s):
    n, m, p = params.N, params.M, params.elliptic
    z, eta = s["z"], s["eta"]
    b1, b2 = _grid(n)
    g1, g2 = _nonzero_grid(n)
    t1, t2 = _grid(m)
    B1, G1, TB1 = np.meshgrid(b1, g1, t1, indexing="ij")
    B2, G2, TB2 = np.meshgrid(b2, g2, t2, indexing="ij")
    tau = p.tau
    tw = omega_of(TB1, TB2, m, tau)
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(z, 0.0, G1, G2, TB1, TB2, n, m, p))
    rhs = phi_big(z, eta, B1 + G1, B2 + G2, TB1, TB2, n, m, p) * (
        eisenstein_E1(z + n * tw, p)
        + eisenstein_E1(eta + omega_of(B1, B2, n, tau), p)
        + eisenstein_E1(omega_of(G1, G2, n, tau), p)
        - eisenstein_E1(z + eta + omega_of(B1 + G1, B2 + G2, n, tau) + n * tw, p))
    return lhs.ravel(), rhs.ravel()


def _w34_guard(params, s):
    n, m, tau = params.N, params.M, params.elliptic.tau
    z, eta = s["z"], s["eta"]
    d1, d2 = _grid(2 * n)
    t1, t2 = _grid(m)
    w = omega_of(d1, d2, n, tau)
    tws = omega_of(t1, t2, m, tau)
    pts = [eta + w]
    for tw in np.unique(n * tws):
        pts.append(np.atleast_1d(z + tw))
        pts.append(z + eta + w + tw)
    return np.concatenate(pts)


def _w331(params, s):
    n, m, p = params.N, params.M, params.elliptic
    z, eta = s["z"], s["eta"]
    B1, B2, G1, G2, TB1, TB2, TG1, TG2 = _phi_sweep_4(params)
    keep = ~((TG1 == 0) & (TG2 == 0)) & ~((B1 == G1) & (B2 == G2))
    B1, B2, G1, G2 = B1[keep], B2[keep], G1[keep], G2[keep]
    TB1, TB2, TG1, TG2 = TB1[keep], TB2[keep], TG1[keep], TG2[keep]
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(0.0, eta, G1, G2, TG1, TG2, n, m, p))
    rhs = (phi_big(z, 0.0, B1 - G1, B2 - G2, TB1, TB2, n, m, p)
           * phi_big(z, eta, G1, G2, TB1 + TG1, TB2 + TG2, n, m, p)
           + phi_big(0.0, 0.0, G1 - B1, G2 - B2, TG1, TG2, n, m, p)
           * phi_big(z, eta, B1, B2, TB1 + TG1, TB2 + TG2, n, m, p))
    return lhs, rhs


def _w341(params, s):
    n, m, p = params.N, params.M, params.elliptic
    z, eta = s["z"], s["eta"]
    b1, b2 = _grid(n)
    t1, t2 = _grid(m)
    tg1, tg2 = _nonzero_grid(m)
    B1, TB1, TG1 = np.meshgrid(b1, t1, tg1, indexing="ij")
    B2, TB2, TG2 = np.meshgrid(b2, t2, tg2, indexing="ij")
    tau = p.tau
    twb = omega_of(TB1, TB2, m, tau)
    twg = omega_of(TG1, TG2, m, tau)
    wb = omega_of(B1, B2, n, tau)
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(0.0, eta, B1, B2, TG1, TG2, n, m, p))
    rhs = phi_big(z, eta, B1, B2, TB1 + TG1, TB2 + TG2, n, m, p) * (
        eisenstein_E1(z + n * twb, p) + eisenstein_E1(n * twg, p)
        + eisenstein_E1(eta + wb, p)
        - eisenstein_E1(z + eta + n * (twb + twg) + wb, p))
    return lhs.ravel(), rhs.ravel()


def _w341_guard(params, s):
    n, m, tau = params.N, params.M, params.elliptic.tau
    z, eta = s["z"], s["eta"]
    b1, b2 = _grid(n)
    t1, t2 = _grid(2 * m)
    w = omega_of(b1, b2, n, tau)
    tws = np.unique(n * omega_of(t1, t2, m, tau))
    pts = [eta + w]
    for tw in tws:
        pts.append(np.atleast_1d(z + tw))
        pts.append(z + eta + w + tw)
    return np.concatenate(pts)


REGISTRY: dict[str, IdentitySpec] = {}


def _register(spec: IdentitySpec):
    REGISTRY[spec.id] = spec


for _spec in [
    IdentitySpec("e913", "z, hbar; sweep gamma", _e913, _e913_guard, ("z", "hbar")),
    IdentitySpec("e914", "z, hbar; sweep gamma", _e914, _e913_guard, ("z", "hbar")),
    IdentitySpec("e915", "hbar", _e915, _e915_guard, ("hbar",)),
    IdentitySpec("e916", "hbar; sweep gamma != 0", _e916, _e915_guard, ("hbar",)),
    IdentitySpec("e917", "z; sweep gamma", _e917, _e917_guard, ("z",)),
    IdentitySpec("e918", "none", _e918, lambda p, s: np.zeros(0, complex), ()),
    IdentitySpec("e919", "sweep gamma != 0", _e919, lambda p, s: np.zeros(0, complex), ()),
    IdentitySpec("e920", "hbar", _e920, _e915_guard, ("hbar",)),
    IdentitySpec("e9202", "hbar; sweep gamma != 0", _e9202, _e9202_guard, ("hbar",),
                 notes="printed sign confirmed against the d/d_hbar oracle of e916"),
    IdentitySpec("e921", "none", _e921, lambda p, s: np.zeros(0, complex), ()),
    IdentitySpec("e922", "z; sweep gamma", _e922, _e917_guard, ("z",)),
    IdentitySpec("e923", "z", _e923, _e917_guard, ("z",)),
    IdentitySpec("e924", "z; sweep gamma != 0", _e924, _e917_guard, ("z",)),
    IdentitySpec("e9051", "sweep gamma", _e9051, lambda p, s: np.zeros(0, complex), ()),
    IdentitySpec("w52", "z, eta; sweep alpha != 0", _w52, _w52_guard, ("z", "eta")),
    IdentitySpec("w85", "z, w, q, u", _w85, _w85_guard, ("z", "w", "q", "u")),
    IdentitySpec("w86", "z, w, q", _w86, _w86_guard, ("z", "w", "q")),
    IdentitySpec("w87", "z, x, y", _w87, _w87_guard, ("z", "x", "y")),
    IdentitySpec("w91", "x, y, eta; sweep beta, gamma != 0", _w91, _w91_guard,
                 ("x", "y", "eta")),
    IdentitySpec("w92", "z, eta; sweep beta, gamma != 0", _w92, _w92_guard, ("z", "eta")),
    IdentitySpec("w93", "z; sweep beta, gamma != 0, beta+gamma != 0", _w93, _w93_guard,
                 ("z",)),
    IdentitySpec("w16", "z, eta; sweep alpha, talpha", _w16, _w16_guard, ("z", "eta"),
                 requires_m=True),
    IdentitySpec("w33", "z, eta; sweep gamma != 0, tbeta != tgamma", _w33, _w34_guard,
                 ("z", "eta"), requires_m=True),
    IdentitySpec("w34", "z, eta; sweep gamma != 0, tbeta", _w34, _w34_guard,
                 ("z", "eta"), requires_m=True),
    IdentitySpec("w331", "z, eta; sweep tgamma != 0, beta != gamma", _w331, _w341_guard,
                 ("z", "eta"), requires_m=True),
    IdentitySpec("w341", "z, eta; sweep beta, tgamma != 0", _w341, _w341_guard,
                 ("z", "eta"), requires_m=True),
]:
    _register(_spec)


def registry_ids(params: DressedFnParams | None = None) -> list[str]:
    """All identity ids applicable at the given parameters (sorted)."""
    ids = sorted(REGISTRY)
    if params is not None and params.M == 1:
        ids = [i for i in ids if not REGISTRY[i].requires_m]
    return ids


def draw_samples(spec: IdentitySpec, params: DressedFnParams, count: int,
                 rng: np.random.Generator) -> list[dict]:
    """Draw non-degenerate continuous arguments from the sampling box.

    Points are uniform in [0.05, 0.45] + tau*[0.05, 0.45]; a sample is
    redrawn whenever any guard point falls within DEGENERACY_MARGIN of the
    period lattice.
    """
    tau = params.elliptic.tau
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > MAX_REDRAWS + count:
            raise RuntimeError(
                f"could not draw a non-degenerate sample for '{spec.id}' "
                f"after {MAX_REDRAWS} redraws")
        s = {}
        for name in spec.continuous_args:
            a, b = rng.uniform(0.05, 0.45, 2)
            s[name] = a + b * tau
        pts = spec.guard(params, s)
        if pts.size and float(np.min(lattice_distance(pts, tau))) < DEGENERACY_MARGIN:
            continue
        out.append(s)
    return out


def verify_identity(identity: str, params: DressedFnParams, samples: int = 20,
                    seed: int = 0, tol: float = 1e-8) -> VerificationReport:
    """Check one registry identity on random non-degenerate samples.

    The discrete arguments are swept exhaustively inside the evaluator;
    pass requires every sample's residual below ``tol`` (relative where
    |rhs| >= 1, absolute otherwise).
    """
    if identity not in REGISTRY:
        raise UnknownIdentityError(f"unknown identity id: {identity!r}")
    spec = REGISTRY[identity]
    if spec.requires_m and params.M == 1:
        raise ValueError(f"identity {identity!r} needs the GL_NxGL_M setting (M > 1)")
    rng = np.random.default_rng(seed)
    samp = draw_samples(spec, params, samples, rng)

    def one(s):
        return _residuals(*spec.evaluate(params, s))

    res = thread_map(one, samp)
    abs_r = [r[0] for r in res]
    rel_r = [r[1] for r in res]
    max_abs = max(abs_r) if abs_r else 0.0
    max_rel = max(rel_r) if rel_r else 0.0
    return VerificationReport(
        identity=identity,
        params={"N": params.N, "M": params.M, "tau": str(params.elliptic.tau)},
        seed=seed, tol=tol,
        per_sample_abs=abs_r, per_sample_rel=rel_r,
        max_abs_residual=max_abs, max_rel_residual=max_rel,
        passed=bool(max_rel < tol), notes=spec.notes)
