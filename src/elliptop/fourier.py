"""Dressed elliptic functions on Z_N x Z_N, the GL_N x GL_M family, the
finite Fourier transform of coefficient tables, and the identity registry.

Dressed functions (raw integer indices; all are invariant under index
shifts by the lattice size, which is what makes raw arithmetic safe):

    varphi_a(z, y + omega_a) = exp(2*pi*i*z*a2/N) * phi(z, y + omega_a)
    f_a(z, omega_a)          = exp(2*pi*i*z*a2/N) * f(z, omega_a)
    Phi_{a,ta}(z, eta) = exp(2*pi*i*((z + N*tw_ta)*a2/N + eta*N*ta2/M))
                         * phi(z + N*tw_ta, eta + omega_a)

with omega_a = (a1 + a2*tau)/N and tw_ta = (ta1 + ta2*tau)/M.  Each is
evaluated once per distinct tuple of raw indices in a call and gathered
back over the sweep, unless a continuous argument varies along the index
axes; a phi inside is one theta-kernel call.  The indices keep their raw
values, so every entry is the value a direct evaluation gives.  So is
every E1 and wp term of a sweep whose argument is sample columns plus
index-only terms (``_shifted``): it runs once per distinct tuple of those
terms, summed in the order the formula writes them.

Every registry identity evaluates its two sides through independent code
paths: lattice sums are summed directly from dressed-function values, the
single-point side calls the same kernel but shares no summation code.

An identity is declared once, as ``@_identity("e913", _e913_guard)`` on
``def _e913(params, z, hbar)``: the evaluator's parameters after ``params``
are its continuous arguments, which evaluator and guard take as keywords,
as values or as (S, 1) columns of S samples.  A guard returns a list of
points that must stay away from the period lattice, each broadcasting
against a column; an identity without continuous arguments has none.  A
point that does not depend on the sample is checked once, by
``identity_spec``.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elliptic import (TWO_PI_I, EllipticParams, eisenstein_E1, eisenstein_E2,
                       kronecker_f, kronecker_phi, lattice_distance,
                       weierstrass_p)
from .torus import _grid, _nonzero_grid, _product

# redrawing margin for degenerate sample configurations; well above
# pole_guard so that no evaluation ever sits near a pole
DEGENERACY_MARGIN = 0.02
MAX_REDRAWS = 500
# samples times row width per evaluator call in verify_identity: the least
# power of two that holds the default 20 samples of a (N M)^4 = 1296 wide
# sweep, so every identity with N <= 6 or N M <= 6 takes one call.  The
# first block is sized from a bound on the width, later ones from the width
# measured.  tracemalloc peaks of one verify_identity at 20 samples: w331 at
# (N, M) = (2, 3) 1.4 MB, w33 at (3, 2) 1.4 MB, w92 at (5, 1) 1.1 MB; wider
# sweeps, in several blocks, reach 2.8 MB (w33 at (2, 5)) and 4.2 MB (w331
# at (3, 4))
_BLOCK_POINTS = 32768


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
        check_coprime(self.N, self.M)


def check_coprime(n: int, m: int) -> None:
    """Z_N^2 x Z_M^2 sits in Z_NM^2 only for coprime N and M; else ValueError."""
    if math.gcd(n, m) != 1:
        raise ValueError(f"N = {n} and M = {m} must be coprime")


def omega_of(a1, a2, n: int, tau: complex):
    """Half period (a1 + a2*tau)/n for raw integer indices."""
    return (np.asarray(a1) + np.asarray(a2) * tau) / n


def _per_index_tuple(fn, args, indices, *rest):
    """fn(*args, *indices, *rest), evaluated once per distinct index tuple.

    The integer index arrays broadcast to the trailing index axes.  When
    no continuous argument in ``args`` varies along them, fn runs on the
    distinct tuples only (one np.unique over one integer key) with the
    arguments as columns, and the values are gathered back through the
    inverse index.  Otherwise, and for scalar or empty index arrays, fn
    runs on the full sweep.
    """
    args = [np.asarray(x) for x in args]
    indices = [np.asarray(i) for i in indices]
    idx = np.broadcast_arrays(*indices)
    k = idx[0].ndim
    if (k == 0 or idx[0].size == 0
            or not all(np.issubdtype(i.dtype, np.integer) for i in idx)
            or any(d != 1 for x in args for d in x.shape[max(x.ndim - k, 0):])):
        return fn(*args, *indices, *rest)
    flat = [i.ravel() for i in idx]
    lo = [i.min() for i in flat]
    dims = [int(i.max() - m) + 1 for i, m in zip(flat, lo)]
    if math.prod(dims) > np.iinfo(np.intp).max:
        return fn(*args, *indices, *rest)
    key = np.ravel_multi_index([i - m for i, m in zip(flat, lo)], dims)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    cols = [x.reshape(x.shape[:max(x.ndim - k, 0)] + (1,)) if x.ndim else x
            for x in args]
    vals = fn(*cols, *(i[first] for i in flat), *rest)
    shape = np.broadcast_shapes(*(x.shape for x in args), idx[0].shape)
    return vals[..., inverse].reshape(shape)


def _shifted(fn, x, *shifts, p: EllipticParams):
    """fn(x + shifts[0] + shifts[1] + ..., p), summed left to right, for a
    sample column or value x (0.0 for none) and index-only shifts over the
    sweep.  np.unique codes each shift, and the codes are the raw indices
    of _per_index_tuple, so fn runs once per distinct tuple of shifts."""
    tabs, codes = zip(*(np.unique(s, return_inverse=True) for s in shifts))

    def at(x, *c):
        for tab, i in zip(tabs, c):
            x = x + tab[i]
        return fn(x, p)
    return _per_index_tuple(at, (x,), codes)


def phi_alpha(z, eta, a1, a2, n: int, p: EllipticParams):
    """varphi_a(z, eta + omega_a); raw integer index arrays broadcast with z."""
    return _per_index_tuple(_phi_alpha, (z, eta), (a1, a2), n, p)


def _phi_alpha(z, eta, a1, a2, n, p):
    w = omega_of(a1, a2, n, p.tau)
    return np.exp(TWO_PI_I * z * a2 / n) * kronecker_phi(z, eta + w, p)


def f_alpha(z, a1, a2, n: int, p: EllipticParams):
    """f_a(z, omega_a) for a != 0 (mod N)."""
    if np.any((np.asarray(a1) % n == 0) & (np.asarray(a2) % n == 0)):
        raise ValueError("f_alpha is undefined at alpha = 0")
    return _per_index_tuple(_f_alpha, (z,), (a1, a2), n, p)


def _f_alpha(z, a1, a2, n, p):
    w = omega_of(a1, a2, n, p.tau)
    return np.exp(TWO_PI_I * z * a2 / n) * kronecker_f(z, w, p)


def phi_big(z, eta, a1, a2, ta1, ta2, n: int, m: int, p: EllipticParams):
    """Phi_{a,ta}(z, eta), the GL_N x GL_M function; raw integer indices."""
    return _per_index_tuple(_phi_big, (z, eta), (a1, a2, ta1, ta2), n, m, p)


def _phi_big(z, eta, a1, a2, ta1, ta2, n, m, p):
    tw = omega_of(ta1, ta2, m, p.tau)
    w = omega_of(a1, a2, n, p.tau)
    pref = np.exp(TWO_PI_I * ((z + n * tw) * a2 / n + eta * n * ta2 / m))
    return pref * kronecker_phi(z + n * tw, eta + w, p)


def ft_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Finite Fourier transform A~^b = (1/N) sum_a kappa_{b,a}^2 A^a.

    ``coeffs`` has shape (n, n, ...); trailing axes (matrix blocks) are
    transformed entrywise.  The transform is an involution, so it is its
    own inverse.  It is a forward DFT over a2 and an inverse DFT over a1,
    b1 and b2 exchanged: kappa_{b,a}^2 = exp(2*pi*i*(a1*b2 - a2*b1)/n).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[:2] != (n, n):
        raise ValueError(f"coefficient table must have leading shape ({n}, {n})")
    return np.swapaxes(np.fft.ifft(np.fft.fft(coeffs, axis=1), axis=0), 0, 1)


def _k2(g1, g2, a1, a2, n: int) -> np.ndarray:
    """Fourier kernel exp(2*pi*i*(g1*a2 - g2*a1)/n), rows g and columns a."""
    return np.exp(TWO_PI_I * (g1[:, None] * a2[None, :] - g2[:, None] * a1[None, :]) / n)


def _ft(vals, rows, cols, n: int):
    """Lattice Fourier sum over the last axis of ``vals`` (its columns a):
    sum_a exp(2*pi*i*(g1*a2 - g2*a1)/n) vals_a for each row g."""
    return vals @ _k2(*rows, *cols, n).T


# --------------------------------------------------------------------------
# identity registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySpec:
    """One verifiable identity.

    ``evaluate(params, **sample)`` returns (lhs, rhs) arrays over the full
    admissible discrete sweep, on the last axis; the sample values may be
    (S, 1) columns of S samples, giving one row per sample.  The sweep has
    at most N^4 entries, or (N M)^4 where ``requires_m``.
    ``guard(params, **sample)`` takes the same values or columns and returns
    a list of continuous points, each broadcasting against an (S, 1) column
    to a row per sample, that must stay DEGENERACY_MARGIN away from the
    period lattice for the configuration to count as non-degenerate.
    """

    id: str
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


REGISTRY: dict[str, IdentitySpec] = {}


def _no_points(params):
    """Guard of an identity without continuous arguments."""
    return []


def _identity(ident: str, guard: Callable = _no_points, requires_m: bool = False,
              notes: str = ""):
    """Register the decorated evaluator as identity ``ident``; its parameters
    after ``params`` are the identity's continuous arguments, in order."""
    def register(evaluate):
        names = tuple(inspect.signature(evaluate).parameters)[1:]
        REGISTRY[ident] = IdentitySpec(ident, evaluate, guard, names, requires_m, notes)
        return evaluate
    return register


def _dtw(a2, n):
    """2*pi*i * d(omega)/d(tau) = 2*pi*i*a2/n, computed exactly."""
    return TWO_PI_I * np.asarray(a2) / n


def _e1_tw(w, a2, n, p):
    """Dressed E1(w) + 2*pi*i*a2/n."""
    return eisenstein_E1(w, p) + _dtw(a2, n)


def _e1_tw_sq(w, a2, n, p):
    """(E1(w) + 2*pi*i*a2/n)^2 - wp(w)."""
    return _e1_tw(w, a2, n, p) ** 2 - weierstrass_p(w, p)


# ---- section-2 identities (scalar lattice) --------------------------------

def _e913_guard(params, z, hbar):
    n, tau = params.N, params.elliptic.tau
    w = omega_of(*_grid(n), n, tau)
    return [n * hbar, z, z / n + w, hbar + w]


@_identity("e913", _e913_guard)
def _e913(params, z, hbar):
    n, p = params.N, params.elliptic
    a = _grid(n)
    lhs = _ft(phi_alpha(n * hbar, z / n, *a, n, p), a, a, n) / n
    return lhs, phi_alpha(z, hbar, *a, n, p)


@_identity("e914", _e913_guard)
def _e914(params, z, hbar):
    n, p = params.N, params.elliptic
    a = _grid(n)
    lhs = _ft(phi_alpha(z, hbar, *a, n, p), a, a, n) / n
    return lhs, phi_alpha(n * hbar, z / n, *a, n, p)


def _e915_guard(params, hbar):
    n, tau = params.N, params.elliptic.tau
    return [n * hbar, hbar + omega_of(*_grid(n), n, tau)]


@_identity("e915", _e915_guard)
def _e915(params, hbar):
    n, p = params.N, params.elliptic
    a1, a2 = _grid(n)
    lhs = np.sum(_e1_tw(hbar + omega_of(a1, a2, n, p.tau), a2, n, p),
                 axis=-1, keepdims=True) / n
    return lhs, eisenstein_E1(n * hbar, p)


@_identity("e916", _e915_guard)
def _e916(params, hbar):
    n, p = params.N, params.elliptic
    a1, a2 = _grid(n)
    g = _nonzero_grid(n)
    vec = _e1_tw(hbar + omega_of(a1, a2, n, p.tau), a2, n, p)
    return _ft(vec, g, (a1, a2), n) / n, phi_alpha(n * hbar, 0.0, *g, n, p)


def _e917_guard(params, z):
    n, tau = params.N, params.elliptic.tau
    return [z, z / n + omega_of(*_grid(n), n, tau)]


@_identity("e917", _e917_guard)
def _e917(params, z):
    n, p = params.N, params.elliptic
    a = _nonzero_grid(n)
    g1, g2 = _grid(n)
    lhs = (eisenstein_E1(z, p) + _ft(phi_alpha(z, 0.0, *a, n, p), (g1, g2), a, n)) / n
    return lhs, _e1_tw(omega_of(g1, g2, n, p.tau) + z / n, g2, n, p)


@_identity("e918")
def _e918(params):
    n, p = params.N, params.elliptic
    a1, a2 = _nonzero_grid(n)
    lhs = np.sum(_e1_tw(omega_of(a1, a2, n, p.tau), a2, n, p),
                 axis=-1, keepdims=True) / n
    return lhs, 0.0 * lhs


@_identity("e919")
def _e919(params):
    n, p = params.N, params.elliptic
    a1, a2 = _nonzero_grid(n)
    g1, g2 = _nonzero_grid(n)
    vec = _e1_tw(omega_of(a1, a2, n, p.tau), a2, n, p)
    lhs = _ft(vec, (g1, g2), (a1, a2), n) / n
    return lhs, _e1_tw(omega_of(g1, g2, n, p.tau), g2, n, p)


@_identity("e920", _e915_guard)
def _e920(params, hbar):
    n, p = params.N, params.elliptic
    w = hbar + omega_of(*_grid(n), n, p.tau)
    lhs = np.sum(eisenstein_E2(w, p), axis=-1, keepdims=True)
    return lhs, n * n * eisenstein_E2(n * hbar, p)


def _e9202_guard(params, hbar):
    n, tau = params.N, params.elliptic.tau
    return [n * hbar, hbar + omega_of(*_grid(n), n, tau),
            n * hbar + omega_of(*_nonzero_grid(n), n, tau)]


@_identity("e9202", _e9202_guard,
           notes="printed sign confirmed against the d/d_hbar oracle of e916")
def _e9202(params, hbar):
    n, p = params.N, params.elliptic
    a = _grid(n)
    g1, g2 = _nonzero_grid(n)
    lhs = _ft(eisenstein_E2(hbar + omega_of(*a, n, p.tau), p), (g1, g2), a, n)
    wg = omega_of(g1, g2, n, p.tau)
    rhs = (-n * n * phi_alpha(n * hbar, 0.0, g1, g2, n, p)
           * (eisenstein_E1(n * hbar + wg, p) - eisenstein_E1(n * hbar, p) + _dtw(g2, n)))
    return lhs, rhs


@_identity("e921")
def _e921(params):
    n, p = params.N, params.elliptic
    lhs = np.sum(weierstrass_p(omega_of(*_nonzero_grid(n), n, p.tau), p),
                 axis=-1, keepdims=True)
    return lhs, 0.0 * lhs


@_identity("e922", _e917_guard)
def _e922(params, z):
    n, p = params.N, params.elliptic
    a = _nonzero_grid(n)
    g1, g2 = _grid(n)
    base = 0.5 * (eisenstein_E1(z, p) ** 2 - weierstrass_p(z, p))
    lhs = base + _ft(f_alpha(z, *a, n, p), (g1, g2), a, n)
    rhs = 0.5 * n * n * _e1_tw_sq(omega_of(g1, g2, n, p.tau) + z / n, g2, n, p)
    return lhs, rhs


@_identity("e923", _e917_guard)
def _e923(params, z):
    n, p = params.N, params.elliptic
    a1, a2 = _grid(n)
    lhs = np.sum(_e1_tw_sq(omega_of(a1, a2, n, p.tau) + z / n, a2, n, p),
                 axis=-1, keepdims=True)
    return lhs, eisenstein_E1(z, p) ** 2 - weierstrass_p(z, p)


@_identity("e924", _e917_guard)
def _e924(params, z):
    n, p = params.N, params.elliptic
    a1, a2 = _grid(n)
    g = _nonzero_grid(n)
    vec = _e1_tw_sq(omega_of(a1, a2, n, p.tau) + z / n, a2, n, p)
    return 0.5 * _ft(vec, g, (a1, a2), n), f_alpha(z, *g, n, p)


@_identity("e9051")
def _e9051(params):
    n = params.N
    g1, g2 = _grid(n)
    lhs = _k2(g1, g2, g1, g2, n).sum(axis=1)
    rhs = np.where((g1 == 0) & (g2 == 0), float(n * n), 0.0).astype(complex)
    return lhs, rhs


# ---- dressed-function identities ------------------------------------------

def _w52_guard(params, z, eta):
    n, tau = params.N, params.elliptic.tau
    w = omega_of(*_nonzero_grid(n), n, tau)
    return [z, eta, z + eta, eta + w, z + eta + w, w]


@_identity("w52", _w52_guard)
def _w52(params, z, eta):
    n, p = params.N, params.elliptic
    a = _nonzero_grid(n)
    lhs = phi_alpha(z, eta, *a, n, p) / kronecker_phi(z, eta, p)
    rhs = phi_alpha(z + eta, 0.0, *a, n, p) / phi_alpha(eta, 0.0, *a, n, p)
    return lhs, rhs


@_identity("w85", lambda params, z, w, q, u: [z, w, q, u, z - w, q + u])
def _w85(params, z, w, q, u):
    p = params.elliptic
    lhs = kronecker_phi(z, q, p) * kronecker_phi(w, u, p)
    rhs = (kronecker_phi(z - w, q, p) * kronecker_phi(w, q + u, p)
           + kronecker_phi(w - z, u, p) * kronecker_phi(z, q + u, p))
    return lhs, rhs


@_identity("w86", lambda params, z, w, q: [z, w, q, z + w, z + w + q])
def _w86(params, z, w, q):
    p = params.elliptic
    lhs = kronecker_phi(z, q, p) * kronecker_phi(w, q, p)
    rhs = kronecker_phi(z + w, q, p) * (
        eisenstein_E1(z, p) + eisenstein_E1(w, p) + eisenstein_E1(q, p)
        - eisenstein_E1(z + w + q, p))
    return lhs, rhs


@_identity("w87", lambda params, z, x, y: [z, x, y, x + y, z + x, z + y])
def _w87(params, z, x, y):
    p = params.elliptic
    lhs = kronecker_phi(z, x, p) * kronecker_f(z, y, p) \
        - kronecker_phi(z, y, p) * kronecker_f(z, x, p)
    rhs = kronecker_phi(z, x + y, p) * (weierstrass_p(x, p) - weierstrass_p(y, p))
    return lhs, rhs


def _w91_guard(params, x, y, eta):
    n, tau = params.N, params.elliptic.tau
    # eta + omega over the doubled index range reached by beta + gamma
    return [x, y, x - y, y - x, eta + omega_of(*_grid(2 * n), n, tau)]


@_identity("w91", _w91_guard)
def _w91(params, x, y, eta):
    n, p = params.N, params.elliptic
    B1, B2, G1, G2 = _product(_grid(n), _nonzero_grid(n))
    lhs = (phi_alpha(x, eta, B1, B2, n, p) * phi_alpha(y, 0.0, G1, G2, n, p))
    rhs = (phi_alpha(x - y, eta, B1, B2, n, p)
           * phi_alpha(y, eta, B1 + G1, B2 + G2, n, p)
           + phi_alpha(y - x, 0.0, G1, G2, n, p)
           * phi_alpha(x, eta, B1 + G1, B2 + G2, n, p))
    return lhs, rhs


def _w92_guard(params, z, eta):
    n, tau = params.N, params.elliptic.tau
    w = omega_of(*_grid(2 * n), n, tau)
    return [z, eta + w, z + eta + w]


@_identity("w92", _w92_guard)
def _w92(params, z, eta):
    n, p = params.N, params.elliptic
    B1, B2, G1, G2 = _product(_grid(n), _nonzero_grid(n))
    tau = p.tau
    lhs = phi_alpha(z, eta, B1, B2, n, p) * phi_alpha(z, 0.0, G1, G2, n, p)
    rhs = phi_alpha(z, eta, B1 + G1, B2 + G2, n, p) * (
        eisenstein_E1(z, p)
        + _shifted(eisenstein_E1, eta, omega_of(B1, B2, n, tau), p=p)
        + _shifted(eisenstein_E1, 0.0, omega_of(G1, G2, n, tau), p=p)
        - _shifted(eisenstein_E1, z + eta, omega_of(B1 + G1, B2 + G2, n, tau), p=p))
    return lhs, rhs


@_identity("w93", lambda params, z: [z])
def _w93(params, z):
    n, p = params.N, params.elliptic
    idx = _product(_nonzero_grid(n), _nonzero_grid(n))
    B1, B2, G1, G2 = idx
    keep = ~(((B1 + G1) % n == 0) & ((B2 + G2) % n == 0))
    B1, B2, G1, G2 = (x[keep] for x in idx)
    tau = p.tau
    lhs = (phi_alpha(z, 0.0, B1, B2, n, p) * f_alpha(z, G1, G2, n, p)
           - phi_alpha(z, 0.0, G1, G2, n, p) * f_alpha(z, B1, B2, n, p))
    rhs = phi_alpha(z, 0.0, B1 + G1, B2 + G2, n, p) * (
        _shifted(weierstrass_p, 0.0, omega_of(B1, B2, n, tau), p=p)
        - _shifted(weierstrass_p, 0.0, omega_of(G1, G2, n, tau), p=p))
    return lhs, rhs


# ---- GL_N x GL_M identities -----------------------------------------------

def _w16_guard(params, z, eta):
    n, m, tau = params.N, params.M, params.elliptic.tau
    A1, A2, TA1, TA2 = _product(_grid(n), _grid(m))
    return [z + n * omega_of(TA1, TA2, m, tau), eta + omega_of(A1, A2, n, tau)]


@_identity("w16", _w16_guard, requires_m=True)
def _w16(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    A1, A2, TA1, TA2 = _product(_grid(n), _grid(m))
    base = phi_big(z, eta, A1, A2, TA1, TA2, n, m, p)
    shifted = [
        phi_big(z, eta, A1 + n, A2, TA1, TA2, n, m, p),
        phi_big(z, eta, A1, A2 + n, TA1, TA2, n, m, p),
        phi_big(z, eta, A1, A2, TA1 + m, TA2, n, m, p),
        phi_big(z, eta, A1, A2, TA1, TA2 + m, n, m, p),
    ]
    lhs = np.concatenate(shifted, axis=-1)
    rhs = np.concatenate([base] * 4, axis=-1)
    return lhs, rhs


def _phi_sweep_4(params):
    """Flat index arrays B1, B2, G1, G2, TB1, TB2, TG1, TG2 of the
    (beta, gamma, tbeta, tgamma) sweep over Z_N^2 x Z_N^2 x Z_M^2 x Z_M^2."""
    n, m = params.N, params.M
    return _product(_grid(n), _grid(n), _grid(m), _grid(m))


def _shift_points(z, eta, w, shifts):
    """Three arrays of points: eta + w, z + tw and z + eta + w + tw over the
    distinct shifts tw, the last over every w and tw on one trailing axis."""
    tws = np.unique(shifts)
    both = (z + eta + w)[..., None] + tws
    # an explicit size, since -1 is ambiguous on the empty (0, 1) columns
    return [eta + w, z + tws, both.reshape(both.shape[:-2] + (both.shape[-2] * tws.size,))]


def _w34_guard(params, z, eta):
    n, m, tau = params.N, params.M, params.elliptic.tau
    return _shift_points(z, eta, omega_of(*_grid(2 * n), n, tau),
                         n * omega_of(*_grid(m), m, tau))


@_identity("w33", _w34_guard, requires_m=True)
def _w33(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    idx = _phi_sweep_4(params)
    B1, B2, G1, G2, TB1, TB2, TG1, TG2 = idx
    keep = ~((G1 == 0) & (G2 == 0)) & ~((TB1 == TG1) & (TB2 == TG2))
    B1, B2, G1, G2, TB1, TB2, TG1, TG2 = (x[keep] for x in idx)
    lhs = phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
    lhs *= phi_big(z, 0.0, G1, G2, TG1, TG2, n, m, p)
    rhs = phi_big(0.0, eta, B1, B2, TB1 - TG1, TB2 - TG2, n, m, p)
    rhs *= phi_big(z, eta, B1 + G1, B2 + G2, TG1, TG2, n, m, p)
    # phi_big(0, 0, ...) has no sample axis, so the product goes into the other factor
    u = phi_big(z, eta, B1 + G1, B2 + G2, TB1, TB2, n, m, p)
    rhs += np.multiply(phi_big(0.0, 0.0, G1, G2, TG1 - TB1, TG2 - TB2, n, m, p), u, out=u)
    return lhs, rhs


@_identity("w34", _w34_guard, requires_m=True)
def _w34(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    B1, B2, G1, G2, TB1, TB2 = _product(_grid(n), _nonzero_grid(n), _grid(m))
    tau = p.tau
    tw = omega_of(TB1, TB2, m, tau)
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(z, 0.0, G1, G2, TB1, TB2, n, m, p))
    rhs = phi_big(z, eta, B1 + G1, B2 + G2, TB1, TB2, n, m, p) * (
        _shifted(eisenstein_E1, z, n * tw, p=p)
        + _shifted(eisenstein_E1, eta, omega_of(B1, B2, n, tau), p=p)
        + _shifted(eisenstein_E1, 0.0, omega_of(G1, G2, n, tau), p=p)
        - _shifted(eisenstein_E1, z + eta, omega_of(B1 + G1, B2 + G2, n, tau),
                   n * tw, p=p))
    return lhs, rhs


def _w341_guard(params, z, eta):
    n, m, tau = params.N, params.M, params.elliptic.tau
    return _shift_points(z, eta, omega_of(*_grid(n), n, tau),
                         n * omega_of(*_grid(2 * m), m, tau))


@_identity("w331", _w341_guard, requires_m=True)
def _w331(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    idx = _phi_sweep_4(params)
    B1, B2, G1, G2, TB1, TB2, TG1, TG2 = idx
    keep = ~((TG1 == 0) & (TG2 == 0)) & ~((B1 == G1) & (B2 == G2))
    B1, B2, G1, G2, TB1, TB2, TG1, TG2 = (x[keep] for x in idx)
    lhs = phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
    lhs *= phi_big(0.0, eta, G1, G2, TG1, TG2, n, m, p)
    rhs = phi_big(z, 0.0, B1 - G1, B2 - G2, TB1, TB2, n, m, p)
    rhs *= phi_big(z, eta, G1, G2, TB1 + TG1, TB2 + TG2, n, m, p)
    u = phi_big(z, eta, B1, B2, TB1 + TG1, TB2 + TG2, n, m, p)
    rhs += np.multiply(phi_big(0.0, 0.0, G1 - B1, G2 - B2, TG1, TG2, n, m, p), u, out=u)
    return lhs, rhs


@_identity("w341", _w341_guard, requires_m=True)
def _w341(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    B1, B2, TB1, TB2, TG1, TG2 = _product(_grid(n), _grid(m), _nonzero_grid(m))
    tau = p.tau
    twb = omega_of(TB1, TB2, m, tau)
    twg = omega_of(TG1, TG2, m, tau)
    wb = omega_of(B1, B2, n, tau)
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(0.0, eta, B1, B2, TG1, TG2, n, m, p))
    rhs = phi_big(z, eta, B1, B2, TB1 + TG1, TB2 + TG2, n, m, p) * (
        _shifted(eisenstein_E1, z, n * twb, p=p) + _shifted(eisenstein_E1, 0.0, n * twg, p=p)
        + _shifted(eisenstein_E1, eta, wb, p=p)
        - _shifted(eisenstein_E1, z + eta, n * (twb + twg), wb, p=p))
    return lhs, rhs


def registry_ids(params: DressedFnParams | None = None) -> list[str]:
    """All identity ids applicable at the given parameters (sorted)."""
    ids = sorted(REGISTRY)
    if params is not None and params.M == 1:
        ids = [i for i in ids if not REGISTRY[i].requires_m]
    return ids


def _draw_box(rng: np.random.Generator, count: int, width: int, tau: complex,
              near=None, margin: float = 0.0, redraws: int = 0,
              what: str = "points") -> np.ndarray:
    """``count`` rows of ``width`` points uniform in the sampling box
    [0.05, 0.45] + tau*[0.05, 0.45], as a (count, width) array.

    ``near`` maps a (C, width) round of candidates to a (C, P) array of
    points; a candidate is redrawn whenever one of its points falls within
    ``margin`` of the period lattice.  The missing rows are drawn as one
    round of candidates, which consumes the stream exactly as drawing them
    one at a time would, and candidates are accepted in stream order.
    A row that would take more than ``redraws`` redraws raises
    RuntimeError naming ``what``.
    """
    out = np.empty((0, width), dtype=complex)
    tries = 0
    while len(out) < count:
        need = count - len(out)
        if tries + need > redraws + count:
            raise RuntimeError(f"could not draw {what} after {redraws} redraws")
        tries += need
        box = rng.uniform(0.05, 0.45, (need, width, 2))
        cands = box[..., 0] + box[..., 1] * tau
        if near is not None:
            cands = cands[~(lattice_distance(near(cands), tau) < margin).any(axis=1)]
        out = np.concatenate([out, cands])
    return out


def _columns(spec: IdentitySpec, rows: np.ndarray) -> dict:
    """The continuous arguments of ``spec`` as keywords: one (S, 1) column
    per argument, over the S rows of a (S, width) array of samples."""
    return {name: rows[:, i, None] for i, name in enumerate(spec.continuous_args)}


def draw_samples(spec: IdentitySpec, params: DressedFnParams, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw non-degenerate continuous arguments from the sampling box
    (``_draw_box``), as a (count, width) array with one column per
    continuous argument: a sample is redrawn whenever any guard point falls
    within DEGENERACY_MARGIN of the period lattice.  The guard runs once
    per round on the ``_columns`` of the C candidates, and its points go
    through one lattice_distance call.
    """
    def guard_points(cands):
        rows = len(cands)
        pts = [np.broadcast_to(x, np.broadcast_shapes(np.shape(x), (rows, 1)))
               .reshape(rows, -1) for x in spec.guard(params, **_columns(spec, cands))]
        return np.concatenate([np.zeros((rows, 0))] + pts, axis=1)

    return _draw_box(rng, count, len(spec.continuous_args), params.elliptic.tau,
                     guard_points, DEGENERACY_MARGIN, MAX_REDRAWS,
                     f"a non-degenerate sample for '{spec.id}'")


def _block_residuals(spec: IdentitySpec, params: DressedFnParams, block: np.ndarray):
    """Absolute and relative residuals of one evaluator call, a row per
    sample of the (S, width) ``block``.

    The evaluator takes the block's ``_columns``, so it sweeps every sample
    at once; an identity without continuous arguments broadcasts to the S
    rows.
    """
    lhs, rhs = spec.evaluate(params, **_columns(spec, block))
    err = np.abs(lhs - rhs)
    # both sides span the same sweep, so rel is divided into the clipped |rhs|
    rel = np.abs(rhs)
    np.divide(err, np.maximum(rel, 1.0, out=rel), out=rel)
    shape = np.broadcast_shapes(err.shape, (len(block), 1))
    return np.broadcast_to(err, shape), np.broadcast_to(rel, shape)


@functools.lru_cache(maxsize=256)
def _fixed_guard_point(identity: str, params: DressedFnParams):
    """The point nearest the period lattice among the guard points of
    ``identity`` that do not depend on the sample (w52's omega_a), and its
    distance; None if there are none.  The guard runs once, on empty (0, 1)
    columns, where every other point is empty."""
    spec = REGISTRY[identity]
    empty = _columns(spec, np.empty((0, len(spec.continuous_args)), dtype=complex))
    fixed = np.concatenate([np.zeros(0)] + [np.ravel(x) for x in spec.guard(params, **empty)])
    if not fixed.size:
        return None
    dist = lattice_distance(fixed, params.elliptic.tau)
    i = int(np.argmin(dist))
    return complex(fixed[i]), float(dist[i])


def identity_spec(identity: str, params: DressedFnParams) -> IdentitySpec:
    """The registry entry of ``identity``.  An unknown id raises
    UnknownIdentityError, and an identity that needs M > 1 raises
    ValueError at M = 1.  A guard point that does not depend on the sample
    and lies within DEGENERACY_MARGIN of the period lattice would reject
    every draw, so it raises ValueError naming the identity and the point."""
    if identity not in REGISTRY:
        raise UnknownIdentityError(f"unknown identity id: {identity!r}")
    spec = REGISTRY[identity]
    if spec.requires_m and params.M == 1:
        raise ValueError(f"identity {identity!r} needs the GL_NxGL_M setting (M > 1)")
    fixed = _fixed_guard_point(identity, params)
    if fixed is not None and fixed[1] < DEGENERACY_MARGIN:
        raise ValueError(
            f"identity {identity!r} has the sample-independent guard point "
            f"{fixed[0]}, {fixed[1]!r} from the period lattice "
            f"(DEGENERACY_MARGIN = {DEGENERACY_MARGIN}), so no sample can be drawn")
    return spec


def _width_bound(spec: IdentitySpec, params: DressedFnParams) -> int:
    """Bound on the row width of ``spec``'s sweep: N^4 on the scalar lattice,
    (N M)^4 for a GL_N x GL_M identity."""
    return (params.N * params.M if spec.requires_m else params.N) ** 4


def verify_identity(identity: str, params: DressedFnParams, samples: int = 20,
                    seed: int = 0, tol: float = 1e-8) -> VerificationReport:
    """Check one registry identity on random non-degenerate samples.

    The discrete arguments are swept exhaustively inside the evaluator,
    which is called once per block of samples (at most _BLOCK_POINTS
    values per call, or one sample; the default 20 samples are one call
    wherever _width_bound is at most 1638): the first block is sized from
    _width_bound, each later one from the row width the last call
    returned.  Pass requires every sample's residual below ``tol``
    (relative where |rhs| >= 1, absolute otherwise).  An empty sweep has
    residual 0.  Fewer than one sample raises ValueError.
    """
    spec = identity_spec(identity, params)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    samp = draw_samples(spec, params, samples, np.random.default_rng(seed))
    abs_r, rel_r = [], []
    start, size = 0, max(1, _BLOCK_POINTS // _width_bound(spec, params))
    while start < len(samp):
        block = samp[start:start + size]
        err, rel = _block_residuals(spec, params, block)
        abs_r += err.max(axis=1, initial=0.0).tolist()
        rel_r += rel.max(axis=1, initial=0.0).tolist()
        start += len(block)
        size = max(1, _BLOCK_POINTS // max(1, err.shape[1]))
        del err, rel   # not held while the next block is evaluated
    max_abs, max_rel = max(abs_r), max(rel_r)  # one row per sample, samples >= 1
    return VerificationReport(
        identity=identity,
        params={"N": params.N, "M": params.M, "tau": str(params.elliptic.tau)},
        seed=seed, tol=tol,
        per_sample_abs=abs_r, per_sample_rel=rel_r,
        max_abs_residual=max_abs, max_rel_residual=max_rel,
        passed=bool(max_rel < tol), notes=spec.notes)
