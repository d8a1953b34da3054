"""Elliptic special functions on the curve C/(Z + tau*Z).

Conventions (odd theta):

    theta(z) = sum_k exp(pi*i*tau*(k+1/2)^2 + 2*pi*i*(z+1/2)*(k+1/2)),  k in Z

    E1(z) = theta'(z)/theta(z)                 (odd, E1(z+tau) = E1(z) - 2*pi*i)
    E2(z) = E1(z)^2 - theta''(z)/theta(z)      (= -dE1/dz, even, elliptic)
    wp(z) = E2(z) + theta'''(0)/(3*theta'(0))  (Weierstrass p)

    phi(eta, z) = theta'(0)*theta(eta+z) / (theta(eta)*theta(z))
    f(z, u)     = d/du phi(z, u) = phi(z, u)*(E1(z+u) - E1(u))

All evaluators accept scalars or numpy arrays of points and are pure
functions of their inputs; theta derivatives at 0 are memoized per
parameter set.  Poles are never regularized: evaluating closer than
``pole_guard`` to the lattice raises :class:`PoleProximityError`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI_I = 2j * np.pi


class EllipticError(Exception):
    """Base class for elliptic-function evaluation failures."""


class ThetaTruncationError(EllipticError):
    """Theta series hit the term cap before reaching the requested tolerance."""

    def __init__(self, max_terms: int, last_term: float, tol: float):
        super().__init__(
            f"theta series not converged after |k| <= {max_terms}: "
            f"last term {last_term:.3e} vs tolerance target {tol:.3e}")
        self.max_terms = max_terms
        self.last_term = last_term


class ThetaOverflowError(EllipticError):
    """The theta series overflowed: |Im z| is too large for this modulus."""

    def __init__(self, k: int, tau: complex):
        super().__init__(
            f"theta series overflowed (non-finite partial sum at |k| = {k}); "
            f"|Im z| is too large to evaluate at tau = {tau}")
        self.k = k


class PoleProximityError(EllipticError):
    """An evaluation point is within pole_guard of the period lattice."""

    def __init__(self, name: str, value: complex, distance: float, guard: float):
        super().__init__(
            f"argument '{name}' = {value} is {distance:.3e} from a lattice "
            f"point (pole_guard = {guard:.1e})")
        self.name = name
        self.value = value
        self.distance = distance


@dataclass(frozen=True)
class EllipticParams:
    """Modulus and evaluation policy shared by all elliptic functions.

    tau        : complex modulus, Im(tau) > 0
    series_tol : term-magnitude cutoff for the theta series
    max_terms  : cap on the series index |k|
    pole_guard : minimum allowed distance from any pole, measured after
                 reduction to the fundamental domain
    """

    tau: complex
    series_tol: float = 1e-16
    max_terms: int = 64
    pole_guard: float = 1e-8

    def __post_init__(self):
        if not np.imag(self.tau) > 0:
            raise ValueError(f"Im(tau) must be positive, got tau = {self.tau}")
        if not self.series_tol > 0:
            raise ValueError("series_tol must be positive")
        if self.max_terms < 8:
            raise ValueError("max_terms must be >= 8")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be positive")


@dataclass(frozen=True)
class ThetaConstants:
    """theta'(0), theta'''(0) and their ratio for a fixed parameter set."""

    theta_d1_at_0: complex
    theta_d3_at_0: complex
    ratio_d3_d1: complex


def lattice_distance(z, tau: complex) -> np.ndarray:
    """Distance from z to the nearest point of Z + tau*Z.

    The lattice coefficients are recovered by a real 2x2 solve and rounded
    to the nearest integers, which is well defined for Im(tau) > 0.
    """
    z = np.asarray(z, dtype=complex)
    b = np.imag(z) / np.imag(tau)
    a = np.real(z) - np.rint(b) * np.real(tau)
    red = z - np.rint(a) - np.rint(b) * tau
    # rounding (a, b) independently may miss the closest corner; check the
    # four surrounding lattice points
    best = np.abs(red)
    for da in (-1.0, 0.0, 1.0):
        for db in (-1.0, 0.0, 1.0):
            best = np.minimum(best, np.abs(red - da - db * tau))
    return best


def check_pole_distance(z, p: EllipticParams, name: str) -> None:
    """Raise PoleProximityError if any entry of z is pole_guard-close to the lattice."""
    d = np.atleast_1d(lattice_distance(z, p.tau))
    if np.any(d <= p.pole_guard):
        i = int(np.argmin(d))
        bad = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()[i]
        raise PoleProximityError(name, complex(bad), float(d.ravel()[i]), p.pole_guard)


def _theta_sum(z, p: EllipticParams, order: int):
    """Term-wise differentiated theta series, summed over k in [-K, K-1].

    K grows until the last included term pair is below
    series_tol * (|partial sum| + 1), per the truncation policy.  A
    non-finite term or partial sum raises ThetaOverflowError.
    """
    z = np.asarray(z, dtype=complex)
    total = np.zeros(z.shape, dtype=complex)

    def term(k: int):
        kk = k + 0.5
        e = np.exp(1j * np.pi * p.tau * kk * kk + TWO_PI_I * (z + 0.5) * kk)
        return e if order == 0 else (TWO_PI_I * kk) ** order * e

    k = 0
    while True:
        t = term(k) + term(-k - 1)
        total = total + t
        last = float(np.max(np.abs(t)))
        size = float(np.max(np.abs(total))) if k >= 3 else 0.0
        if not math.isfinite(last + size):
            raise ThetaOverflowError(k, p.tau)
        if k >= 3 and last < p.series_tol * (size + 1.0):
            return total
        k += 1
        if k >= p.max_terms:
            raise ThetaTruncationError(p.max_terms, last, p.series_tol)


def theta(z, p: EllipticParams):
    """Odd theta function."""
    return _theta_sum(z, p, 0)


def theta_d(z, p: EllipticParams, order: int = 1):
    """order-th derivative of theta, from the term-wise differentiated series."""
    return _theta_sum(z, p, order)


@functools.lru_cache(maxsize=64)
def theta_derivatives(p: EllipticParams) -> ThetaConstants:
    """theta'(0) and theta'''(0); theta''(0) vanishes since theta is odd."""
    d1 = complex(_theta_sum(0.0, p, 1))
    d3 = complex(_theta_sum(0.0, p, 3))
    return ThetaConstants(d1, d3, d3 / d1)


def eisenstein_E1(z, p: EllipticParams):
    """E1(z) = theta'(z)/theta(z); simple pole on the lattice."""
    check_pole_distance(z, p, "z")
    return theta_d(z, p, 1) / theta(z, p)


def eisenstein_E2(z, p: EllipticParams):
    """E2(z) = (theta'/theta)^2 - theta''/theta = -dE1/dz."""
    check_pole_distance(z, p, "z")
    t = theta(z, p)
    return (theta_d(z, p, 1) / t) ** 2 - theta_d(z, p, 2) / t


def weierstrass_p(z, p: EllipticParams):
    """Weierstrass p-function, wp = E2 + theta'''(0)/(3 theta'(0))."""
    c = theta_derivatives(p)
    return eisenstein_E2(z, p) + c.ratio_d3_d1 / 3.0


def kronecker_phi(eta, z, p: EllipticParams):
    """Kronecker function phi(eta, z); symmetric, simple poles in each argument."""
    check_pole_distance(eta, p, "eta")
    check_pole_distance(z, p, "z")
    eta = np.asarray(eta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    d1 = theta_derivatives(p).theta_d1_at_0
    return d1 * theta(eta + z, p) / (theta(eta, p) * theta(z, p))


def kronecker_f(z, u, p: EllipticParams):
    """f(z, u) = d/du phi(z, u) = phi(z, u) (E1(z+u) - E1(u))."""
    check_pole_distance(np.asarray(z, dtype=complex) + u, p, "z+u")
    return kronecker_phi(z, u, p) * (eisenstein_E1(np.asarray(z, dtype=complex) + u, p)
                                     - eisenstein_E1(u, p))
