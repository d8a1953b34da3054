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
the series is summed at a fixed depth K per tau (the least K whose first
omitted term, bounded over the reduced strip, is below ``SERIES_TOL``;
more than ``MAX_TERMS`` raises ThetaTruncationError), and
the quasi-periodicity multiplier of DLMF 20.2 is applied analytically (a
multiplier beyond the double range, or a non-finite result, raises
ThetaOverflowError; a non-finite argument raises NonFiniteArgumentError
ahead of both).  The kernel runs in place.  Besides its (order + 1, n)
result it holds three complex n-arrays (the reduced points, which become
w = exp(2*pi*i*z_r), the multiplier, and one scratch array) and the
rounded a and b; the chain rule adds c = -2*pi*i*b, its powers up to
c^order and one term array, at most order + 1 of them at once.  Its
tracemalloc peak at n = 32768 is 4.3 / 5.5 / 7.5 / 9.5 complex n-arrays for
orders 0-3.  The values are bit for bit those of the out-of-place formula:
the same operations run in the same order, and a product is formed in
place only where one factor is real or imaginary, or where the formula
itself multiplies in place (numpy can round an in-place product of two
general complex arrays differently from a fresh one).

All evaluators accept scalars or numpy arrays of points and are pure
functions of their inputs; theta derivatives at 0 are memoized per
parameter set.  phi is one kernel call over the concatenated points
[eta, z, eta + z], and f is one order-1 call over [z, u, z + u].
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
# the theta series depth: the first omitted term is bounded by SERIES_TOL,
# with at most MAX_TERMS terms on each side of the series index
SERIES_TOL = 1e-16
MAX_TERMS = 64


class EllipticError(Exception):
    """Base class for elliptic-function evaluation failures."""


class ThetaTruncationError(EllipticError):
    """The series depth needed for SERIES_TOL exceeds MAX_TERMS."""

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


def _segment(guard, i: int) -> tuple:
    """(name, start, stop) of the ``guard`` segment holding flat index i;
    ('z', end, end) past the last one, which ends at end."""
    start = 0
    for name, size in guard:
        if i < start + size:
            return name, start, start + size
        start += size
    return "z", start, start


def _reject_non_finite(flat: np.ndarray, guard=()) -> None:
    """Raise NonFiniteArgumentError for the first non-finite entry of the
    flat points, named by the ``guard`` segment holding it, else 'z'."""
    bad = ~np.isfinite(flat)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteArgumentError(_segment(guard, i)[0], complex(flat[i]))


@dataclass(frozen=True)
class EllipticParams:
    """Modulus and evaluation policy shared by all elliptic functions.

    tau        : complex modulus, Im(tau) > 0; it fixes the theta series
                 depth (module docstring)
    pole_guard : minimum allowed distance from any pole, the reduced |z_r|;
                 must be below min(1/2, Im(tau)/2), where |z_r| is the
                 lattice distance
    """

    tau: complex
    pole_guard: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got tau = {self.tau}")
        if not np.imag(self.tau) > 0:
            raise ValueError(f"Im(tau) must be positive, got tau = {self.tau}")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be positive")
        bound = min(0.5, np.imag(self.tau) / 2)
        if not self.pole_guard < bound:
            raise ValueError(f"tau = {self.tau} leaves no room for the pole guard: "
                             f"pole_guard must be below min(1/2, Im(tau)/2) = "
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


_LAURENT_POINTS, _LAURENT_RHO = 32, 0.3


def _laurent(fn, centre: complex, poles, tau: complex):
    """(c, r, tail): the Laurent coefficients of ``fn`` about ``centre`` by
    the trapezoidal rule on a circle of radius r, one call of fn on its
    P = ``_LAURENT_POINTS`` points (a (P, ...) array back) and one FFT.  r is
    rho = ``_LAURENT_RHO`` times the distance to the nearest of ``poles`` and
    the centre's lattice translates (each pole stands for its own), so order
    k + jP aliases onto order k with weight rho^(jP) (Trefethen and
    Weideman, SIAM Review 56, 2014).  c[k] is the coefficient of
    (z - centre)^k, -P/2 <= k < P/2, negative k counted from the end (c[-1]
    is the residue); tail is the largest |c_k| r^k at |k| >= P/2 - 1 over
    the largest at any k."""
    near = lattice_distance(np.asarray(poles, dtype=complex) - centre, tau)
    radius = _LAURENT_RHO * float(near.min(initial=abs(_reduced_basis(complex(tau))[0])))
    k = np.fft.fftfreq(_LAURENT_POINTS, 1 / _LAURENT_POINTS)
    scaled = np.fft.fft(fn(centre + radius * np.exp(TWO_PI_I * k / k.size)), axis=0) / k.size
    size = np.abs(scaled).reshape(k.size, -1).max(axis=1)
    tail = float(size[np.abs(k) >= k.size // 2 - 1].max() / size.max())
    return (scaled.T / radius ** k).T, radius, tail


@functools.lru_cache(maxsize=64)
def _series_table(p: EllipticParams):
    """Fixed depth K of the reduced theta series and its coefficient rows.

    A reduced point has |Im z_r| <= Im(tau)/2, so with x = k + 1/2 every
    term of derivative order j <= 3 is bounded by
    (2 pi |x|)^3 exp(-pi Im(tau) (x^2 - |x|)).  K is the least k whose bound
    is below SERIES_TOL, and the terms k in [-K, K-1] are kept.  Row m of
    the (2K, 4) table holds exp(pi i tau x^2) exp(pi i x) (2 pi i x)^j for
    x = m - K + 1/2, stored highest power of w first for Horner's rule.
    """
    im = float(np.imag(p.tau))
    for depth in range(MAX_TERMS + 1):
        x = depth + 0.5
        bound = (2 * math.pi * x) ** 3 * math.exp(-math.pi * im * (x * x - x))
        if bound < SERIES_TOL:
            break
    else:
        raise ThetaTruncationError(MAX_TERMS, bound, SERIES_TOL)
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
    ``guard`` holds (name, count) pairs naming consecutive leading
    segments of the flattened z.  A non-finite entry raises
    NonFiniteArgumentError naming its segment ('z' past them).  A
    multiplier beyond the double range raises ThetaOverflowError next: that
    far up the reduction has lost z_r.  The segments are then checked in
    order, and the first one with an entry |z_r| <= pole_guard raises
    PoleProximityError for its closest such entry, before the series is
    summed.  A non-finite result raises ThetaOverflowError.

    Every step writes into a buffer it owns (module docstring): z_r, then w
    in its place; the multiplier, with the sign (-1)^(a+b) folded in; a
    scratch array for the b^2 tau term, dropped once subtracted; and the
    powers of c.  The result takes the multiplier in one product.
    """
    depth, table = _series_table(p)
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    count = flat.size
    if count == 1:
        # numpy rounds a one-element complex product on another path than
        # an array's; a padded copy keeps a point's value independent of
        # the batch it is evaluated in
        flat = np.repeat(flat, 2)
    tau = p.tau
    # an overflow is reported by the typed errors below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.rint(flat.imag / tau.imag)
        zr = flat - b * tau
        a = np.rint(zr.real)
        zr -= a
        # far up, the reduction has lost every digit of z_r: the multiplier
        # overflowing says so before the pole guard could misread z_r.  A
        # non-finite argument always makes the multiplier non-finite, and
        # is reported first
        scale = np.multiply(TWO_PI_I, 0.5 - depth - b)
        scale *= zr
        square = np.multiply(1j * np.pi, b)
        square *= b
        square *= tau
        scale -= square
        del square
        np.exp(scale, out=scale)
        if not np.isfinite(scale).all():
            _reject_non_finite(flat[:count], guard)
            raise ThetaOverflowError(float(np.max(np.abs(b))), tau)
        dist = np.abs(zr[:sum(size for _, size in guard)])
        if dist.size and dist.min() <= p.pole_guard:
            close = dist <= p.pole_guard
            # the segment holding the first close entry, at its closest one
            name, start, stop = _segment(guard, int(np.argmax(close)))
            seg = slice(start, stop)
            i = start + int(np.argmin(np.where(close[seg], dist[seg], np.inf)))
            raise PoleProximityError(name, complex(flat[i]), float(dist[i]),
                                     p.pole_guard)
        del dist
        # the sign (-1)^(a+b) goes into the multiplier
        a += b
        sign = a.astype(np.int64)
        del a
        sign &= 1
        sign *= -2
        sign += 1
        np.multiply(sign, scale, out=scale)
        del sign
        w = np.exp(np.multiply(TWO_PI_I, zr, out=zr), out=zr)
        # the depth is at least 1, so the table has at least two rows
        out = np.multiply(table[0, :order + 1, None], w)
        out += table[1, :order + 1, None]
        for row in table[2:, :order + 1, None]:
            out *= w
            out += row
        del w, zr
        if order:
            # powers[k] = c^k for c = -2 pi i b, a running product from 1.0 as
            # the formula writes it; the chain rule reads each of them
            c = np.multiply(-TWO_PI_I, b)
            powers = [None, np.multiply(1.0, c)]
            for _ in range(order - 1):
                powers.append(np.multiply(powers[-1], c))
            del c
            term = np.empty_like(out[0])
            for j in range(order, 0, -1):
                for i in range(j):
                    np.multiply(math.comb(j, i), powers[j - i], out=term)
                    term *= out[i]
                    out[j] += term
            del powers, term
        out *= scale
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


def _quotient(num, den):
    """num / den, written into num when it is an array.  The two hold
    the same shape; an in-place complex division rounds as a fresh one."""
    return np.divide(num, den, out=num if isinstance(num, np.ndarray) else None)


def theta(z, p: EllipticParams):
    """Odd theta function."""
    return _theta_series(z, p, 0)[0]


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
    return _quotient(theta_derivatives(p).theta_d1_at_0 * t_s, t_eta * t_z)


def kronecker_f(z, u, p: EllipticParams):
    """f(z, u) = d/du phi(z, u) = phi(z, u) (E1(z+u) - E1(u)).

    One order-1 kernel call over [z, u, z + u] gives phi and both E1
    terms; it guards z (as phi's 'eta'), then u (as 'z'), then z + u
    (under E1's argument name, 'z').
    """
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    s = z + u
    pts = np.concatenate((z.ravel(), u.ravel(), s.ravel()))
    guard = (("eta", z.size), ("z", u.size), ("z", s.size))
    t, t1 = _theta_series(pts, p, 1, guard)
    t_z, t_u, t_s = _segments(t, z, u, s)
    _, e1_u, e1_s = _segments(np.divide(t1, t, out=t1), z, u, s)
    phi = _quotient(theta_derivatives(p).theta_d1_at_0 * t_s, t_z * t_u)
    return phi * (e1_s - e1_u)
