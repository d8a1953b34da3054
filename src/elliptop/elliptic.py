"""Elliptic special functions on the curve C/(Z + tau*Z).

Conventions (odd theta):

    theta(z) = sum_k exp(pi*i*tau*(k+1/2)^2 + 2*pi*i*(z+1/2)*(k+1/2)),  k in Z

    E1(z) = theta'(z)/theta(z)                 (odd, E1(z+tau) = E1(z) - 2*pi*i)
    E2(z) = E1(z)^2 - theta''(z)/theta(z)      (= -dE1/dz, even, elliptic)
    wp(z) = E2(z) + theta'''(0)/(3*theta'(0))  (Weierstrass p)

    phi(eta, z) = theta'(0)*theta(eta+z) / (theta(eta)*theta(z))
    f(z, u)     = d/du phi(z, u) = phi(z, u)*(E1(z+u) - E1(u))

theta and its first three derivatives come from one kernel: z is reduced
to z_r = z - a - b*tau with |Re z_r| <= 1/2 and |Im z_r| <= Im(tau)/2,
the series is summed at a fixed depth K per parameter set (the least K
whose first omitted term, bounded over the reduced strip, is below
``series_tol``; more than ``max_terms`` raises ThetaTruncationError), and
the quasi-periodicity multiplier of DLMF 20.2 is applied analytically (a
non-finite result raises ThetaOverflowError; a non-finite argument
raises NonFiniteArgumentError before the reduction).

All evaluators accept scalars or numpy arrays of points and are pure
functions of their inputs; theta derivatives at 0 are memoized per
parameter set.  phi is one kernel call over the concatenated points
[eta, z, eta + z], and f adds one order-1 call for its two E1 terms.
Poles are never regularized: the kernel checks each argument whose theta
sits in a denominator (z for E1 and E2, eta and then z for phi), and an
entry with |z_r| <= ``pole_guard`` raises :class:`PoleProximityError`
before any series is summed.  Since
``pole_guard`` < min(1/2, Im(tau)/2), a point that close to a lattice
point p + q*tau reduces with (a, b) = (p, q), so |z_r| is exactly its
distance to the lattice.
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
    """The series depth needed for series_tol exceeds max_terms."""

    def __init__(self, max_terms: int, last_term: float, tol: float):
        super().__init__(
            f"theta series needs more than |k| <= {max_terms} terms: the term "
            f"bound there is {last_term:.3e} vs tolerance target {tol:.3e}")
        self.max_terms = max_terms
        self.last_term = last_term


class ThetaOverflowError(EllipticError):
    """Theta overflowed: |Im z| is too large for this modulus."""

    def __init__(self, periods: float, tau: complex):
        super().__init__(
            f"theta overflowed (non-finite value {periods:g} periods up the "
            f"tau direction); |Im z| is too large to evaluate at tau = {tau}")
        self.periods = periods


class PoleProximityError(EllipticError):
    """An evaluation point is within pole_guard of the period lattice."""

    def __init__(self, name: str, value: complex, distance: float, guard: float):
        super().__init__(
            f"argument '{name}' = {value} is {distance:.3e} from a lattice "
            f"point (pole_guard = {guard:.1e})")
        self.name = name
        self.value = value
        self.distance = distance


class NonFiniteArgumentError(EllipticError):
    """An evaluation point is infinite or NaN."""

    def __init__(self, name: str, value: complex):
        super().__init__(f"argument '{name}' = {value} is not finite")
        self.name = name
        self.value = value


def _reject_non_finite(flat: np.ndarray, guard=()) -> None:
    """Raise NonFiniteArgumentError for the first non-finite entry of the
    flat points, named by the ``guard`` segment holding it, else 'z'."""
    bad = ~np.isfinite(flat)
    if bad.any():
        i = int(np.argmax(bad))
        name, end = "z", 0
        for seg, size in guard:
            end += size
            if i < end:
                name = seg
                break
        raise NonFiniteArgumentError(name, complex(flat[i]))


@dataclass(frozen=True)
class EllipticParams:
    """Modulus and evaluation policy shared by all elliptic functions.

    tau        : complex modulus, Im(tau) > 0
    series_tol : bound on the first omitted theta series term; fixes the
                 series depth
    max_terms  : cap on that depth (the series index |k|)
    pole_guard : minimum allowed distance from any pole, the reduced |z_r|;
                 must be below min(1/2, Im(tau)/2), where |z_r| is the
                 lattice distance
    """

    tau: complex
    series_tol: float = 1e-16
    max_terms: int = 64
    pole_guard: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got tau = {self.tau}")
        if not np.imag(self.tau) > 0:
            raise ValueError(f"Im(tau) must be positive, got tau = {self.tau}")
        if not self.series_tol > 0:
            raise ValueError("series_tol must be positive")
        if self.max_terms < 8:
            raise ValueError("max_terms must be >= 8")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be positive")
        bound = min(0.5, np.imag(self.tau) / 2)
        if not self.pole_guard < bound:
            raise ValueError(f"pole_guard must be below min(1/2, Im(tau)/2) = "
                             f"{bound:g}, got {self.pole_guard:g}")


@dataclass(frozen=True)
class ThetaConstants:
    """theta'(0), theta'''(0) and their ratio for a fixed parameter set."""

    theta_d1_at_0: complex
    theta_d3_at_0: complex
    ratio_d3_d1: complex


@functools.lru_cache(maxsize=64)
def _reduced_basis(tau: complex):
    """Lagrange-reduced basis (u, v) of Z + tau*Z and its nine corners i*u + j*v.

    Reduced means |u| <= |v| and |Re(v/u)| <= 1/2; Gauss's algorithm gets
    there from (1, tau) by integer steps, so (u, v) spans the same lattice.
    """
    u, v = 1.0 + 0.0j, complex(tau)
    while True:
        v -= round((v / u).real) * u
        if abs(v) >= abs(u):
            break
        u, v = v, u
    steps = np.arange(-1.0, 2.0)
    corners = (steps[:, None] * u + steps[None, :] * v).ravel()
    corners.setflags(write=False)
    return u, v, corners


def lattice_distance(z, tau: complex) -> np.ndarray:
    """Distance from z to the nearest point of Z + tau*Z.

    z is rounded to a lattice point in a Lagrange-reduced basis, and the
    nearest point is among that point's nine neighbours i*u + j*v,
    i, j in {-1, 0, 1}, for any tau with Im(tau) > 0.
    """
    u, v, corners = _reduced_basis(complex(tau))
    z = np.asarray(z, dtype=complex)
    _reject_non_finite(z.ravel())
    with np.errstate(over="ignore", invalid="ignore"):
        w = z / u
        t = v / u
        b = np.rint(w.imag / t.imag)
        a = np.rint((w - b * t).real)
        red = z - a * u - b * v
        return np.min(np.abs(red[..., None] - corners), axis=-1)


@functools.lru_cache(maxsize=64)
def _series_table(p: EllipticParams):
    """Fixed depth K of the reduced theta series and its coefficient rows.

    A reduced point has |Im z_r| <= Im(tau)/2, so with x = k + 1/2 every
    term of derivative order j <= 3 is bounded by
    (2 pi |x|)^3 exp(-pi Im(tau) (x^2 - |x|)).  K is the least k whose bound
    is below series_tol, and the terms k in [-K, K-1] are kept.  Row m of
    the (2K, 4) table holds exp(pi i tau x^2) exp(pi i x) (2 pi i x)^j for
    x = m - K + 1/2, stored highest power of w first for Horner's rule.
    """
    im = float(np.imag(p.tau))
    for depth in range(p.max_terms + 1):
        x = depth + 0.5
        bound = (2 * math.pi * x) ** 3 * math.exp(-math.pi * im * (x * x - x))
        if bound < p.series_tol:
            break
    else:
        raise ThetaTruncationError(p.max_terms, bound, p.series_tol)
    m = np.arange(-depth, depth)
    x = m + 0.5
    # exp(pi i x) = i (-1)^m exactly
    row = np.exp(1j * np.pi * p.tau * x * x) * (1j * (1 - 2 * (m % 2)))
    table = (row[:, None] * (TWO_PI_I * x[:, None]) ** np.arange(4))[::-1].copy()
    table.setflags(write=False)
    return depth, table


def _theta_series(z, p: EllipticParams, order: int, guard=()) -> np.ndarray:
    """theta and its derivatives up to ``order`` (<= 3), stacked on a leading axis.

    z = z_r + a + b tau with b = rint(Im z / Im tau), a = rint(Re(z - b tau)).
    The reduced series theta^(j)(z_r) = exp(2 pi i z_r (1/2 - K)) S_j, with
    S_j = sum_m c[m, j] w^m in w = exp(2 pi i z_r), is summed by Horner's
    rule.  The quasi-periodicity theta(z) = (-1)^(a+b)
    exp(-pi i b^2 tau - 2 pi i b z_r) theta(z_r) (DLMF 20.2) and its chain
    rule in c = -2 pi i b give theta^(j)(z) = (-1)^(a+b)
    exp(2 pi i z_r (1/2 - K - b) - pi i b^2 tau) sum_i C(j, i) c^(j-i) S_i.
    A non-finite result raises ThetaOverflowError.  ``guard`` holds
    (name, count) pairs naming consecutive leading segments of the
    flattened z.  A non-finite entry raises NonFiniteArgumentError naming
    its segment ('z' past them) before the reduction.  The segments are
    then checked in order, and the first one with an entry
    |z_r| <= pole_guard raises PoleProximityError for its closest such
    entry, before the series is summed.
    """
    depth, table = _series_table(p)
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    _reject_non_finite(flat, guard)
    count = flat.size
    if count == 1:
        # numpy rounds a one-element complex product on another path than
        # an array's; a padded copy keeps a point's value independent of
        # the batch it is evaluated in
        flat = np.repeat(flat, 2)
    tau = p.tau
    b = np.rint(flat.imag / tau.imag)
    zb = flat - b * tau
    a = np.rint(zb.real)
    zr = zb - a
    start = 0
    for name, size in guard:
        dist = np.abs(zr[start:start + size])
        close = dist <= p.pole_guard
        if close.any():
            i = int(np.argmin(np.where(close, dist, np.inf)))
            raise PoleProximityError(name, complex(flat[start + i]), float(dist[i]),
                                     p.pole_guard)
        start += size
    c = -TWO_PI_I * b
    powers = [1.0]
    for _ in range(order):
        powers.append(powers[-1] * c)
    # an overflow is reported by the typed error below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(TWO_PI_I * zr)
        out = np.empty((order + 1, flat.size), dtype=complex)
        out[...] = table[0, :order + 1, None]
        for row in table[1:, :order + 1, None]:
            out *= w
            out += row
        for j in range(order, 0, -1):
            for i in range(j):
                out[j] += math.comb(j, i) * powers[j - i] * out[i]
        sign = 1 - 2 * ((a + b).astype(np.int64) & 1)
        out *= sign * np.exp(TWO_PI_I * (0.5 - depth - b) * zr - 1j * np.pi * b * b * tau)
        if not np.isfinite(out).all():
            raise ThetaOverflowError(float(np.max(np.abs(b))), tau)
    return out[:, :count].reshape((order + 1,) + z.shape)


def _segments(values: np.ndarray, *arrays) -> list:
    """Split flat kernel ``values`` into consecutive segments shaped like
    ``arrays``; a 0-d array's segment is a numpy scalar, as indexing gives."""
    out, start = [], 0
    for x in arrays:
        out.append(values[start:start + x.size].reshape(x.shape)[()])
        start += x.size
    return out


def theta(z, p: EllipticParams):
    """Odd theta function."""
    return _theta_series(z, p, 0)[0]


def theta_d(z, p: EllipticParams, order: int = 1):
    """order-th derivative of theta (order 0 to 3), from the differentiated series."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"theta_d supports derivative orders 0 to 3, got {order}")
    return _theta_series(z, p, order)[order]


@functools.lru_cache(maxsize=64)
def theta_derivatives(p: EllipticParams) -> ThetaConstants:
    """theta'(0) and theta'''(0); theta''(0) vanishes since theta is odd."""
    _, d1, _, d3 = (complex(v) for v in _theta_series(0.0, p, 3))
    return ThetaConstants(d1, d3, d3 / d1)


def eisenstein_E1(z, p: EllipticParams):
    """E1(z) = theta'(z)/theta(z); simple pole on the lattice."""
    z = np.asarray(z, dtype=complex)
    t, t1 = _theta_series(z, p, 1, (("z", z.size),))
    return t1 / t


def eisenstein_E2(z, p: EllipticParams):
    """E2(z) = (theta'/theta)^2 - theta''/theta = -dE1/dz."""
    z = np.asarray(z, dtype=complex)
    t, t1, t2 = _theta_series(z, p, 2, (("z", z.size),))
    return (t1 / t) ** 2 - t2 / t


def weierstrass_p(z, p: EllipticParams):
    """Weierstrass p-function, wp = E2 + theta'''(0)/(3 theta'(0))."""
    c = theta_derivatives(p)
    return eisenstein_E2(z, p) + c.ratio_d3_d1 / 3.0


def kronecker_phi(eta, z, p: EllipticParams):
    """Kronecker function phi(eta, z); symmetric, simple poles in each argument.

    One kernel call over [eta, z, eta + z]; the denominator segments carry
    the pole guard, eta first.
    """
    eta = np.asarray(eta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    s = eta + z
    pts = np.concatenate((eta.ravel(), z.ravel(), s.ravel()))
    guard = (("eta", eta.size), ("z", z.size))
    t_eta, t_z, t_s = _segments(_theta_series(pts, p, 0, guard)[0], eta, z, s)
    d1 = theta_derivatives(p).theta_d1_at_0
    return d1 * t_s / (t_eta * t_z)


def kronecker_f(z, u, p: EllipticParams):
    """f(z, u) = d/du phi(z, u) = phi(z, u) (E1(z+u) - E1(u)).

    After phi, one order-1 kernel call gives both E1 terms; it guards z+u
    and u (which phi has already guarded) under E1's argument name, 'z'.
    """
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    phi = kronecker_phi(z, u, p)
    s = z + u
    t, t1 = _theta_series(np.concatenate((s.ravel(), u.ravel())), p, 1,
                          (("z", s.size + u.size),))
    e1_s, e1_u = _segments(t1 / t, s, u)
    return phi * (e1_s - e1_u)
