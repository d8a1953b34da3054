"""Lax pairs, equations of motion, and reduction constraints for the
elliptic top family.

Models (the CLI kind strings in parentheses):

* scalar non-relativistic top (``nonrel-top``):
    L = sum'_a T_a S_a varphi_a(z, omega_a),  M = sum'_a T_a S_a f_a(z, omega_a),
    dS/dt = [S, J(S)] with J_a = -wp(omega_a)
* scalar relativistic top (``rel-top``):
    L = sum_a T_a S_a varphi_a(z, eta + omega_a),
    M = -sum'_a T_a S_a varphi_a(z, omega_a),
    J^eta_a = E1(eta + omega_a) - E1(omega_a)
* matrix top (``matrix-top``), blocks S_a in Mat(M), coupling eta/N,
  constraints: S_0 scalar, S_a / varphi_a(eta/N, omega_a) symmetric in a -> -a
* Gaudin-like lattice top (``gaudin-lattice``), blocks A^a in Mat(K),
  same constraint pattern
* coupled GL_N x GL_M model (``coupled``):
    L(z, eta) = sum_{a, ta} A^{a,ta} Phi_{a,ta}(z, eta)  in Mat(K),
    M(z) = -sum_{a != 0, ta} A^{a,ta} Phi_{a,ta}(z, 0)
           - sum_ta A^{0,ta} E1(z + N*tw_ta)
  with the zero-mode sum constrained to a scalar and the Z2-type
  constraint imposed on the Z_M-Fourier-transformed coefficients at
  lattice size N*M.

Every Lax matrix is a coefficient vector contracted with a basis stack,
L(z) = sum_i c_i(z) B_i, and every reduction averages the pairs a <-> -a
of a weighted coefficient table; both are written once below.  The T_a
come from the shared ``torus.t_stack``.

The coupled matrix L(z, eta) = CoupledTop.L_of has four dual forms, each
one such contraction of a block stack with one batched coefficient row
(z scalar or a 1-D array, as for L_of).  (M a + N ta) mod NM places
Z_N^2 x Z_M^2 in Z_NM^2:

* ``coupled_form_w303``: the big field to_big(A) against
  varphi_A(M z, omega_A + eta/M), A in Z_NM^2;
* ``coupled_form_w305``: the Z_N-Fourier blocks ft_coeffs(A, N), placed
  at A = (M g + N ta) mod NM, against varphi_A(N eta, omega_A + z/N);
* ``coupled_form_w307``: to_big(A) read at (M a + N ta) mod NM and Fourier
  transformed over its Z_N axes by ft_coeffs, against
  Phi_{g,ta}(N eta/M, M z/N);
* ``coupled_form_w308``: the same gathered field Fourier transformed over
  its Z_M axes, against the Phi of Z_M^2 x Z_N^2 at (eta, z).

In w305, w307 and w308 z takes the place of eta and eta that of z: the
finite Fourier transform exchanges the two arguments.

Every top's equations of motion are the quadratic flow dS = [S, J(S)],
written in two ways.  The scalar tops (K = 1) use one weight row per mode
(``_LatticeTop``): their coefficients commute, so the two orderings of
the commutator fold into one weight.  The block models share one
commutator kernel (``_dual_maps``, ``_dual_eom``).  For the matrix top it
is the single point S = sum_a T_a (x) S_a in Mat(NK), with dS_a read back
from the T-decomposition of [S, J(S)] and dS_0 = 0.  The Gaudin-like and
coupled equations of motion are one convolution on a lattice Z_L^2,
evaluated as a commutator at each point of the dual lattice.  In lattice
coordinates curlyA^A (A^a for the Gaudin-like top, L = N; the big-lattice
field to_big(A) for the coupled model, L = N*M)

    d curlyA^A = sum_{G != 0} J_G (curlyA^{A-G} curlyA^G - curlyA^G curlyA^{A-G})
                 (A != 0),   d curlyA^0 = 0,

with J_A = E1(y + omega_A) - E1(omega_A), omega_A = (A1 + A2 tau)/L, J_0 = 0,
and y = eta/N (Gaudin-like) or eta/M (coupled).  With x = F curlyA and
y = F (J curlyA) for the discrete Fourier transform F on Z_L^2,
d curlyA = F^-1 [x, y] with the zero mode dropped.  No eom evaluates the
Lax coefficients, so lax_residual, which does, stays an independent
check; the unconstrained field is its negative control.

Gauge of the coupled flow.  The M(z) above has the z-independent part
C = sum_{j=1}^{M-1} gamma_j curlyA^{(Nj, 0)}, gamma_j = 2 pi i N /
(1 - exp(2 pi i N j / M)), from E1(z + tau) = E1(z) - 2 pi i in its terms
-A^{0,ta} E1(z + N tw_ta).  The Lax equation fixes M only up to such a
z-independent term, so two flows fit the same L: dL = [L, M] is the
convolution plus [C, curlyA^A], and the convolution alone is
dL = [L, M + C].  Both conserve tr L^k.  [C, .] conjugates by a
field-dependent matrix, though, and for complex fields it drives the
coefficients along a non-compact gauge orbit, where the field norm grows
roughly exponentially and the drift gates fail (as for evolve at
(N, M, K) = (2, 3, 2), seeds 3 and 8).  The eom is therefore the
convolution alone, and CoupledTop.M_of returns M(z) + C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import (TWO_PI_I, EllipticParams, eisenstein_E1, kronecker_phi,
                       lattice_distance, weierstrass_p)
from .fourier import (_grid as _index_grid, _sweep, f_alpha, ft_coeffs, omega_of,
                      phi_alpha, phi_big)
from .torus import decompose, kappa, reconstruct, reduction_sign, t_stack

MODEL_KINDS = ("nonrel-top", "rel-top", "matrix-top", "gaudin-lattice", "coupled")
REDUCTION_KINDS = ("z2-nonrel", "z2-rel", "matrix-top-constraints",
                   "gaudin-constraints", "coupled-constraints")


# --------------------------------------------------------------------------
# shared lattice helpers
# --------------------------------------------------------------------------

def _grid(n: int):
    """Row-major index arrays (a1, a2) of Z_n^2 and the flat index of -a."""
    a1, a2 = _index_grid(n)
    return a1, a2, (-a1 % n) * n + (-a2 % n)


def _check_coupling(eta: complex, y: complex, indices, n: int,
                    p: EllipticParams) -> None:
    """Reject an eta that puts a Lax coefficient varphi_a(z, y + omega_a) on
    a pole for every z: y + omega_a within pole_guard of the period lattice,
    for a among the (a1, a2) ``indices``, raises ValueError naming eta, as
    does a non-finite eta."""
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got eta = {eta}")
    a1, a2 = indices
    pts = y + omega_of(a1, a2, n, p.tau)
    dist = lattice_distance(pts, p.tau)
    i = int(np.argmin(dist))
    if dist[i] <= p.pole_guard:
        raise ValueError(
            f"eta = {eta} puts the Lax coefficient at a = ({a1[i]}, {a2[i]}) on a "
            f"pole: y + omega_a = {complex(pts[i])} is {dist[i]:.3e} from a lattice "
            f"point (pole_guard = {p.pole_guard:.1e})")


def _pair_grid(n: int, m: int):
    """Flat index arrays (a1, a2, ta1, ta2) of Z_n^2 x Z_m^2, a-major."""
    return tuple(_sweep(np.arange(n), np.arange(n), np.arange(m), np.arange(m)))


def _column(z) -> np.ndarray:
    """Spectral points as a trailing axis that broadcasts against index arrays."""
    return np.asarray(z, dtype=complex)[..., None]


def _contract(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_i coeffs[..., i] basis[i]: a Lax-type matrix, batched over z."""
    return np.einsum("...i,ijk->...jk", coeffs, basis)


def _with_zero_mode(values: np.ndarray) -> np.ndarray:
    """Prepend a zero for the flat index 0 that a singular coefficient skips."""
    values = np.asarray(values, dtype=complex)
    return np.concatenate((np.zeros(values.shape[:-1] + (1,)), values), axis=-1)


def _phi_weights(x, n: int, p: EllipticParams) -> np.ndarray:
    """varphi_a(x, omega_a) over flat Z_n^2; 1 at a = 0, which pairs with itself."""
    a1, a2, _ = _grid(n)
    out = np.ones(n * n, dtype=complex)
    out[1:] = phi_alpha(x, 0.0, a1[1:], a2[1:], n, p)
    return out


def _pair_average(data: np.ndarray, partner: np.ndarray, weight: np.ndarray,
                  sign) -> np.ndarray:
    """Symmetrize c_a = data[a] / weight[a] under a -> -a.

    data has the flat lattice index first.  Each pair (a, partner[a]) is
    visited from its smaller index a and set to c_{-a} = sign[a] * c_a =
    sign[a] * average; self-paired indices are left untouched.
    """
    col = (-1,) + (1,) * (data.ndim - 1)
    weight = np.reshape(weight, col)
    sign = np.broadcast_to(np.reshape(sign, col), weight.shape)
    a = np.flatnonzero(partner > np.arange(partner.size))
    b = partner[a]
    avg = 0.5 * (data[a] / weight[a] + sign[a] * data[b] / weight[b])
    out = data.copy()
    out[a] = avg * weight[a]
    out[b] = sign[a] * avg * weight[b]
    return out


def _fourier_matrix(l: int) -> np.ndarray:
    """The discrete Fourier transform on flat Z_l^2; it is symmetric."""
    a1, a2, _ = _grid(l)
    return np.exp(-TWO_PI_I * (np.outer(a1, a1) + np.outer(a2, a2)) / l)


def _t_entries(n: int) -> np.ndarray:
    """The map c -> sum_a c_a T_a onto the flat entries (i, j) of Mat(N)."""
    return t_stack(n).reshape(n * n, n * n).T


def _dual_maps(j: np.ndarray, into: np.ndarray, f: np.ndarray, tile: int = 1):
    """Matrices of a quadratic flow written as one commutator per dual point:
    dA^A = sum_{G != 0} J_G (A^{A-G} A^G - A^G A^{A-G}) on a lattice field,
    or d S = [S, J(S)] on S = sum_a T_a (x) S_a, with dA^0 = 0.

    into is the unitary map from the model's flat coefficients to the flat
    lattice field and j is J over that field with J_0 = 0.  f maps the
    lattice field to its dual points, with orthogonal columns of equal norm
    (f^H f = c 1): the discrete Fourier transform (convolution becomes a
    pointwise product, tile = 1) or ``_t_entries`` (the product of
    T-coefficients becomes the product in Mat(N), one point of tile = N).
    Each point is the (tile K) x (tile K) matrix whose K x K blocks are f's
    rows in row-major order.  Returns the stacked forward map
    [f into; f J into], the backward map into^H f^H / c with the zero mode
    dropped, and tile.
    """
    c = np.vdot(f[:, 0], f[:, 0]).real
    fwd = np.concatenate((f @ into, f @ (j[:, None] * into)))
    back = into.conj().T[:, 1:] @ f.conj().T[1:] / c
    return fwd, back, tile


def _dual_eom(maps, data: np.ndarray, k: int) -> np.ndarray:
    """Evaluate the flow of ``_dual_maps`` on K x K blocks: d = back [x, y]."""
    fwd, back, tile = maps
    size = tile * k
    xy = (fwd @ data.reshape(-1, k * k)).reshape(2, -1, tile, tile, k, k)
    x, y = xy.swapaxes(3, 4).reshape(2, -1, size, size)
    comm = (x @ y - y @ x).reshape(-1, tile, k, tile, k).swapaxes(2, 3)
    return (back @ comm.reshape(-1, k * k)).reshape(data.shape)


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

class EllipticTopModel:
    """Shared interface: fields, constraints, equations of motion, Lax data.

    A model supplies its coefficient vectors ``_l_coeffs(z)`` and
    ``_m_coeffs(z)`` and its basis stack ``_basis(field)``; ``L_of`` and
    ``M_of`` contract the two.
    """

    kind = ""
    reduction = None  # mandatory reduction kind, if any

    def __init__(self, n: int, params: EllipticParams):
        self.n = n
        self.params = params

    # -- fields ------------------------------------------------------------
    def field_shape(self) -> tuple:
        """Shape of a field, the complex array of dynamical variables: one
        K x K block per lattice index, (N, N, K, K) on Z_N^2 and
        (N, N, M, M, K, K) on Z_N^2 x Z_M^2 (the scalar tops are K = 1)."""
        raise NotImplementedError

    def random_field(self, seed: int, scale: float = 1.0) -> np.ndarray:
        """i.i.d. complex Gaussian entries, then projected onto constraints.

        ``scale`` multiplies the unit-variance draw; long integrations use a
        reduced amplitude so the quadratic flow stays within the fixed-step
        error budget (projection is linear, so scaling commutes with it).
        """
        rng = np.random.default_rng(seed)
        shape = self.field_shape()
        data = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        return self.project(data)

    # -- constraints ---------------------------------------------------------
    def project(self, field: np.ndarray) -> np.ndarray:
        return field

    # -- dynamics ------------------------------------------------------------
    def eom_rhs(self, field: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def L_of(self, field: np.ndarray, z) -> np.ndarray:
        """L(z) for a scalar z; for a 1-D array of z a stack (nz, size, size)."""
        return _contract(self._l_coeffs(z), self._basis(field))

    def M_of(self, field: np.ndarray, z) -> np.ndarray:
        """M(z), batched over z like ``L_of``."""
        return _contract(self._m_coeffs(z), self._basis(field))

    def _l_coeffs(self, z) -> np.ndarray:
        raise NotImplementedError

    def _m_coeffs(self, z) -> np.ndarray:
        raise NotImplementedError

    def _basis(self, field: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_coupling(self) -> None:
        """Raise ValueError naming eta if some Lax coefficient has a pole at
        every z (a model without eta has none).  Construction runs it
        before any table is evaluated at eta."""

    @property
    def size(self) -> int:
        raise NotImplementedError

    def pole_set(self) -> list:
        return [0.0 + 0.0j]

    def spectral_samples(self, count: int, seed: int) -> list[complex]:
        """Generic spectral points away from the model's pole set."""
        rng = np.random.default_rng(seed)
        tau = self.params.tau
        poles = np.asarray(self.pole_set(), dtype=complex)
        out: list[complex] = []
        tries = 0
        while len(out) < count:
            tries += 1
            if tries > 200 + count:
                raise RuntimeError("could not sample pole-free spectral points")
            a, b = rng.uniform(0.05, 0.45, 2)
            z = a + b * tau
            if float(np.min(lattice_distance(z - poles, tau))) < 0.05:
                continue
            out.append(complex(z))
        return out


class _LatticeTop(EllipticTopModel):
    """Z_N^2 top with one K x K block S_a per lattice index.

    L(z) = sum_a c_a(z) B_a with basis B_a = T_a (x) S_a (T-paired tops) or
    B_a = S_a (Gaudin-like top).  The scalar tops are K = 1, and their
    equations of motion dS = [S, J(S)] are one weight row per mode:

        dS_a = sum_{g != 0} D[a, g] S_b S_g,   b = (a - g) mod N,
        D[a, g] = s J_g (kappa_{b,g} - kappa_{g,b}),

    s the reduction sign of the raw sum b + g.  The two orderings of the
    commutator fold into one weight because S_b S_g = S_g S_b at K = 1.
    D is exactly 0 where b = g, so a single mode is exactly stationary,
    and on the row a = 0, so dS_0 = 0.  The block tops (``_BlockTop``)
    replace this table by the commutator kernel of ``_dual_maps``.
    """

    _t_paired = True

    def __init__(self, n: int, params: EllipticParams, k: int = 1,
                 eta: complex | None = None, coupling: complex = 0.0):
        super().__init__(n, params)
        self.k = k
        self.eta = eta
        self._coupling = coupling   # y of varphi_a(z, y + omega_a) in L
        self.check_coupling()
        self._a1, self._a2, self._partner = _grid(n)
        self._tstack = t_stack(n)
        w = omega_of(self._a1[1:], self._a2[1:], n, params.tau)
        self._set_inertia(_with_zero_mode(self._inertia(w)).reshape(n, n))

    def _inertia(self, w) -> np.ndarray:
        """J at the non-zero half periods w: E1(y + w) - E1(w)."""
        p = self.params
        return eisenstein_E1(self._coupling + w, p) - eisenstein_E1(w, p)

    def _set_inertia(self, j: np.ndarray) -> None:
        """Store J ((N, N), J_0 unused) and build the eom weight row from it."""
        n = self.n
        g1, g2 = self._a1[1:], self._a2[1:]
        b1, b2 = (self._a1[:, None] - g1) % n, (self._a2[:, None] - g2) % n
        s = reduction_sign((b1 + g1, b2 + g2), n) * j.ravel()[1:]
        d = s * kappa((b1, b2), (g1, g2), n) - s * kappa((g1, g2), (b1, b2), n)
        d[0] = 0.0  # dS_0/dt = 0: the zero mode is left out of the flow
        self._j, self._b, self._d = j, b1 * n + b2, d

    def check_coupling(self) -> None:
        if self.eta is not None:
            _check_coupling(self.eta, self._coupling, _index_grid(self.n), self.n,
                            self.params)

    def field_shape(self):
        return (self.n, self.n, self.k, self.k)

    @property
    def size(self):
        return self.n * self.k if self._t_paired else self.k

    def eom_rhs(self, field: np.ndarray) -> np.ndarray:
        s = field.reshape(-1)
        return ((self._d * s[self._b]) @ s[1:]).reshape(field.shape)

    def _basis(self, field):
        s = field.reshape(-1, self.k, self.k)
        if not self._t_paired:
            return s
        kron = np.einsum("aij,akl->aikjl", self._tstack, s)
        return kron.reshape(len(s), self.size, self.size)

    def _off_zero(self, fn, z, *args) -> np.ndarray:
        """fn(z, *args, a1, a2, N, params) over the non-zero indices, 0 at a = 0
        (where varphi_a(z, omega_a) and f_a are singular)."""
        return _with_zero_mode(fn(_column(z), *args, self._a1[1:], self._a2[1:],
                                  self.n, self.params))

    def _l_coeffs(self, z):
        return phi_alpha(_column(z), self._coupling, self._a1, self._a2, self.n,
                         self.params)

    def _m_coeffs(self, z):
        return -self._off_zero(phi_alpha, z, 0.0)


class NonRelativisticTop(_LatticeTop):
    """Scalar elliptic top with J_a = -wp(omega_a)."""

    kind = "nonrel-top"

    def _inertia(self, w):
        return -weierstrass_p(w, self.params)

    def _l_coeffs(self, z):
        return self._off_zero(phi_alpha, z, 0.0)

    def _m_coeffs(self, z):
        return self._off_zero(f_alpha, z)


class RelativisticTop(_LatticeTop):
    """One-parameter deformation with J^eta_a = E1(eta+omega_a) - E1(omega_a)."""

    kind = "rel-top"

    def __init__(self, n: int, params: EllipticParams, eta: complex):
        eta = complex(eta)
        super().__init__(n, params, eta=eta, coupling=eta)


class _BlockTop(_LatticeTop):
    """Z_N^2 top with matrix blocks and coupling eta/N (matrix & Gaudin-like).

    Matrix blocks paired with T_a pick up the representative-reduction sign
    under a -> -a; plain phi-paired blocks do not.
    """

    def __init__(self, n: int, params: EllipticParams, eta: complex, k: int):
        eta = complex(eta)
        super().__init__(n, params, k, eta, eta / n)
        sign = reduction_sign((-self._a1, -self._a2), n) if self._t_paired else 1.0
        self._pair = (self._partner, _phi_weights(eta / n, n, params), sign)

    def _set_inertia(self, j: np.ndarray) -> None:
        """Store J and build the commutator kernel: one point
        sum_a T_a (x) S_a in Mat(NK) (matrix top), or the Fourier-dual
        points of Z_N^2 (Gaudin-like top)."""
        n = self.n
        f, tile = (_t_entries(n), n) if self._t_paired else (_fourier_matrix(n), 1)
        self._j = j
        self._eom_maps = _dual_maps(j.ravel(), np.eye(n * n), f, tile)

    def eom_rhs(self, field: np.ndarray) -> np.ndarray:
        return _dual_eom(self._eom_maps, field, self.k)

    def project(self, field: np.ndarray) -> np.ndarray:
        """Zero block to a scalar; symmetrize c_a = S_a / varphi_a(eta/N, omega_a)."""
        k = self.k
        out = _pair_average(field.reshape(-1, k, k), *self._pair)
        out[0] = np.trace(out[0]) / k * np.eye(k)
        return out.reshape(field.shape)


class MatrixTop(_BlockTop):
    """Matrix extension: L = sum_a T_a (x) S_a varphi_a(z, omega_a + eta/N).

    Its equations of motion dS = [S, J(S)] are evaluated in Mat(NK) on
    S = sum_a T_a (x) S_a, one point of the shared commutator kernel.
    """

    kind = "matrix-top"
    reduction = "matrix-top-constraints"

    def __init__(self, n: int, params: EllipticParams, eta: complex, m: int):
        self.m = m
        super().__init__(n, params, eta, k=m)


class GaudinLatticeTop(_BlockTop):
    """Gaudin-type top: plain Mat(K) blocks, L = sum_a A^a varphi_a(z, omega_a + eta/N)."""

    kind = "gaudin-lattice"
    reduction = "gaudin-constraints"
    _t_paired = False


# --------------------------------------------------------------------------
# coupled GL_N x GL_M model
# --------------------------------------------------------------------------

class CoupledTop(EllipticTopModel):
    """N^2 x M^2 coupled tops in Mat(K) with both parameters on the curve."""

    kind = "coupled"
    reduction = "coupled-constraints"

    def __init__(self, n: int, params: EllipticParams, eta: complex, m: int, k: int):
        if n < 2:
            raise ValueError(f"the coupled model needs N >= 2, got N = {n}: "
                             "Z_1^2 has no non-zero modes")
        if math.gcd(n, m) != 1:
            raise ValueError(f"N = {n} and M = {m} must be coprime")
        super().__init__(n, params)
        self.eta = complex(eta)
        self.check_coupling()
        self.m = m
        self.k = k
        self.nm = n * m
        self._idx = _pair_grid(n, m)
        # to_big as one matrix: curly A^A = (1/M) sum_ta ktilde^2_{A,ta} A^{A mod N, ta}
        # with ktilde^2_{A,ta} = exp(2*pi*i*(ta1*A2 - A1*ta2)/M); from_big is
        # its conjugate transpose
        big1, big2, partner = _grid(self.nm)
        big1, big2 = big1[:, None], big2[:, None]
        a1, a2, t1, t2 = self._idx
        on = (big1 % n == a1) & (big2 % n == a2)
        self._big = np.where(on, np.exp(TWO_PI_I * (t1 * big2 - big1 * t2) / m), 0.0) / m
        self._pair = (partner, _phi_weights(self.eta / m, self.nm, params), 1.0)
        # the eom is the Gaudin-like flow on Z_NM^2 with coupling eta/M; M(z)
        # carries C = sum_j gamma_j curlyA^{(Nj, 0)} (module docstring)
        w = omega_of(big1[1:, 0], big2[1:, 0], self.nm, params.tau)
        j = _with_zero_mode(eisenstein_E1(self.eta / m + w, params)
                            - eisenstein_E1(w, params))
        self._eom_maps = _dual_maps(j, self._big, _fourier_matrix(self.nm))
        js = np.arange(1, m)
        gamma = TWO_PI_I * n / (1.0 - np.exp(TWO_PI_I * n * js / m))
        self._c_row = gamma @ self._big[n * js * self.nm]

    @property
    def size(self):
        return self.k

    def check_coupling(self) -> None:
        _check_coupling(self.eta, self.eta, _index_grid(self.n), self.n, self.params)

    def field_shape(self):
        return (self.n, self.n, self.m, self.m, self.k, self.k)

    def pole_set(self) -> list:
        tau = self.params.tau
        return [-self.n * (t1 + t2 * tau) / self.m
                for t1 in range(self.m) for t2 in range(self.m)]

    # -- big-lattice (Z_NM^2) coordinates -----------------------------------
    def to_big(self, field: np.ndarray) -> np.ndarray:
        """curly A^{a} = (1/M) sum_ta ktilde^2_{a,ta} A^{a mod N, ta}, a in Z_NM^2."""
        k, nm = self.k, self.nm
        return (self._big @ field.reshape(-1, k * k)).reshape(nm, nm, k, k)

    def from_big(self, big: np.ndarray) -> np.ndarray:
        k = self.k
        return (self._big.conj().T @ big.reshape(-1, k * k)).reshape(self.field_shape())

    def project(self, field: np.ndarray) -> np.ndarray:
        """Scalar zero mode of the big field plus Z2-type c-symmetrization.

        In the Z_NM^2 coordinates the constraints read exactly as for the
        Gaudin-like top: curlyA^0 proportional to the identity, and
        curlyA^a / varphi_a(eta/M, omega_a/M) symmetric under a -> -a.
        """
        k = self.k
        big = _pair_average(self.to_big(field).reshape(-1, k, k), *self._pair)
        big[0] = np.trace(big[0]) / k * np.eye(k)
        return self.from_big(big)

    # -- evaluators ----------------------------------------------------------
    def _basis(self, field):
        return field.reshape(-1, self.k, self.k)

    def _l_coeffs(self, z) -> np.ndarray:
        """Phi_{a,ta}(z, eta) over the flat index grid; z scalar or (nz,)."""
        return phi_big(_column(z), self.eta, *self._idx, self.n, self.m, self.params)

    def _m_coeffs(self, z) -> np.ndarray:
        """Coefficients of M(z) + C over the flat index grid (module docstring)."""
        n, m, p = self.n, self.m, self.params
        a1, a2, t1, t2 = self._idx
        z = np.asarray(z, dtype=complex)
        zero = (a1 % n == 0) & (a2 % n == 0)
        out = np.zeros(z.shape + a1.shape, dtype=complex)
        out[..., ~zero] = -phi_big(z[..., None], 0.0, a1[~zero], a2[~zero],
                                   t1[~zero], t2[~zero], n, m, p)
        tw = omega_of(t1[zero], t2[zero], m, p.tau)
        out[..., zero] = -eisenstein_E1(z[..., None] + n * tw, p)
        return out + self._c_row

    def eom_rhs(self, field: np.ndarray) -> np.ndarray:
        return _dual_eom(self._eom_maps, field, self.k)


# --------------------------------------------------------------------------
# model factory, reductions, Lax residual, relativization
# --------------------------------------------------------------------------

def make_model(kind: str, n: int, params: EllipticParams, eta: complex | None = None,
               m: int = 1, k: int = 1) -> EllipticTopModel:
    if kind == "nonrel-top":
        return NonRelativisticTop(n, params)
    if kind == "rel-top":
        return RelativisticTop(n, params, _need_eta(kind, eta))
    if kind == "matrix-top":
        return MatrixTop(n, params, _need_eta(kind, eta), m)
    if kind == "gaudin-lattice":
        return GaudinLatticeTop(n, params, _need_eta(kind, eta), k)
    if kind == "coupled":
        return CoupledTop(n, params, _need_eta(kind, eta), m, k)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def _need_eta(kind: str, eta) -> complex:
    if eta is None:
        raise ValueError(f"model {kind!r} needs the coupling parameter eta")
    return complex(eta)


def project_constraints(field: np.ndarray, reduction: str,
                        model: EllipticTopModel) -> np.ndarray:
    """Project onto a reduction's constraint set (exact in c-coordinates)."""
    n, p = model.n, model.params
    if reduction in ("z2-nonrel", "z2-rel"):
        # z2-nonrel: fixed points of S -> h S h^{-1}; in canonical coefficients
        # the invariant submanifold carries the T-reduction sign of -a.
        # z2-rel: the same pairing of c_a = S_a / varphi_a(eta, omega_a)
        a1, a2, partner = _grid(n)
        weight = np.ones(n * n)
        if reduction == "z2-rel":
            eta = getattr(model, "eta", None)
            if eta is None:
                raise ValueError("z2-rel reduction needs a relativistic model")
            weight = _phi_weights(eta, n, p)
        data = field.reshape((n * n,) + field.shape[2:])
        out = _pair_average(data, partner, weight, reduction_sign((-a1, -a2), n))
        return out.reshape(field.shape)
    if reduction in ("matrix-top-constraints", "gaudin-constraints",
                     "coupled-constraints"):
        return model.project(field)
    raise ValueError(f"unknown reduction {reduction!r}; expected one of "
                     f"{REDUCTION_KINDS}")


def constraint_deviation(field: np.ndarray, reduction: str,
                         model: EllipticTopModel) -> float:
    return float(np.linalg.norm(field - project_constraints(field, reduction, model)))


def lax_residual(model: EllipticTopModel, field: np.ndarray, spectral_samples) -> dict:
    """max_z || dL/dt (z) - [L(z), M(z)] || over the given spectral points.

    dL/dt is L evaluated on the eom output (L is linear in the
    coefficients), so the two sides go through independent code paths.
    All points are evaluated in one batched call.
    """
    sdot = model.eom_rhs(field)
    zs = np.asarray(list(spectral_samples), dtype=complex)
    lm, mm = model.L_of(field, zs), model.M_of(field, zs)
    comm = lm @ mm - mm @ lm
    err = np.linalg.norm(model.L_of(sdot, zs) - comm, axis=(1, 2))
    rel = err / np.maximum(np.linalg.norm(comm, axis=(1, 2)), 1e-300)
    return {"max_abs": float(err.max()), "max_rel": float(rel.max())}


def relativize(field: np.ndarray, eta: complex, model: EllipticTopModel) -> np.ndarray:
    """Change of variables S_a -> S_a / varphi_a(eta, omega_a) (a != 0)."""
    n = model.n
    weight = _phi_weights(eta, n, model.params)
    col = (n, n) + (1,) * (field.ndim - 2)
    return field / weight.reshape(col)


def check_relativization(field: np.ndarray, eta: complex, z: complex,
                         model: EllipticTopModel) -> float:
    """Residual of L^eta(z - eta, L0(eta, S)) = phi(z - eta, eta) L0(z, S)."""
    n, p = model.n, model.params
    s = field[..., 0, 0]
    a1, a2, _ = _grid(n)

    def l0(zz):
        # L0 = S_0 1 + sum'_a T_a S_a varphi_a(zz, omega_a)
        return reconstruct(s * _phi_weights(zz, n, p).reshape(n, n), n)

    sprime = decompose(l0(eta), n)
    lhs = reconstruct(sprime * phi_alpha(z - eta, eta, a1, a2, n, p).reshape(n, n), n)
    rhs = complex(kronecker_phi(z - eta, eta, p)) * l0(z)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


# --------------------------------------------------------------------------
# Gaudin reductions of the coupled model
# --------------------------------------------------------------------------

# circle quadrature of GaudinReduction.extract_residue
RESIDUE_QUAD_POINTS = 24
RESIDUE_RADIUS = 0.05


@dataclass
class GaudinReduction:
    """Reduced Lax data: marked points, declared residues, and the evaluator
    L(z), batched over z like ``L_of``."""

    variant: int
    marked_points: list
    residues: list
    L: Callable

    def extract_residue(self, i: int) -> np.ndarray:
        """Numerical residue at marked point i by circle quadrature."""
        ws = RESIDUE_RADIUS * np.exp(TWO_PI_I * np.arange(RESIDUE_QUAD_POINTS)
                                     / RESIDUE_QUAD_POINTS)
        lz = self.L(self.marked_points[i] + ws)
        return np.einsum("w,wij->ij", ws, lz) / RESIDUE_QUAD_POINTS


def gaudin_reduce(field: np.ndarray, variant: int, eta: complex,
                  model: CoupledTop) -> GaudinReduction:
    """Project a coupled-model field onto the Gaudin form.

    Variant 1 (requires K = N) keeps the Z_N-Fourier-transformed blocks
    proportional to T_g and yields M^2 marked points at -N*tw_ta.
    Variant 2 (requires K = M) is its mirror N <-> M: the same reduction
    with the Z_N and Z_M axes of the field exchanged, giving blocks
    proportional to T~_tg and N^2 marked points at -M*w_a.
    """
    n, m = model.n, model.m
    if variant == 1:
        if model.k != n:
            raise ValueError("variant 1 needs K = N blocks")
        return _gaudin_reduce(field, 1, complex(eta), n, m, model.params)
    if variant == 2:
        if model.k != m:
            raise ValueError("variant 2 needs K = M blocks")
        swapped = np.transpose(field, (2, 3, 0, 1, 4, 5))
        return _gaudin_reduce(swapped, 2, complex(eta), m, n, model.params)
    raise ValueError("variant must be 1 or 2")


def _gaudin_reduce(data: np.ndarray, variant: int, eta: complex, n: int, m: int,
                   p: EllipticParams) -> GaudinReduction:
    """Variant 1 on data[a, ta] of shape (N, N, M, M, N, N).

    The Z_N-Fourier blocks A~^{g,ta} keep their T_g component
    c_{g,ta} = tr(T_{-g} A~^{g,ta}) / N, so L(z) = sum c_{g,ta} Phi_{g,ta}(z, eta) T_g,
    whose residue at -N tw_ta is exp(2 pi i eta N ta2 / M) sum_g c_{g,ta} T_g.
    """
    g1, g2, t1, t2 = _pair_grid(n, m)
    tstack = t_stack(n)
    blocks = ft_coeffs(data, n).reshape(n * n, m * m, n, n)
    c = np.einsum("gij,gtji->gt", t_stack(n, -1), blocks) / n
    basis = np.einsum("gt,gij->gtij", c, tstack).reshape(-1, n, n)
    ta1, ta2, _ = _grid(m)
    phase = np.exp(TWO_PI_I * eta * n * ta2 / m)
    residues = np.einsum("gt,gij->tij", c, tstack) * phase[:, None, None]

    def L(z):
        return _contract(phi_big(_column(z), eta, g1, g2, t1, t2, n, m, p), basis)

    return GaudinReduction(variant, (-n * omega_of(ta1, ta2, m, p.tau)).tolist(),
                           list(residues), L)


# --------------------------------------------------------------------------
# the four equivalent coefficient forms of the coupled-model matrix
# --------------------------------------------------------------------------

def _dual_index(model: CoupledTop):
    """(M a + N ta) mod NM over the flat Z_N^2 x Z_M^2 grid, as (A1, A2)."""
    n, m, nm = model.n, model.m, model.nm
    a1, a2, t1, t2 = model._idx
    return (m * a1 + n * t1) % nm, (m * a2 + n * t2) % nm


def _gathered_big(model: CoupledTop, field: np.ndarray) -> np.ndarray:
    """The big field curlyA at (M a + N ta) mod NM, shaped like the field."""
    return model.to_big(field)[_dual_index(model)].reshape(field.shape)


def coupled_form_w303(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Big-lattice form sum_a curlyA^a varphi_a(M z, omega_a + eta/M)."""
    m, nm, k = model.m, model.nm, model.k
    coeffs = phi_alpha(m * _column(z), eta / m, *_index_grid(nm), nm, model.params)
    return _contract(coeffs, model.to_big(field).reshape(-1, k, k))


def coupled_form_w305(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Dual big-lattice form sum_a curlyA'^a varphi_a(N eta, omega_a + z/N),
    curlyA' the Z_N-Fourier blocks of A placed at (M g + N ta) mod NM."""
    n, k = model.n, model.k
    coeffs = phi_alpha(n * eta, _column(z) / n, *_dual_index(model), model.nm,
                       model.params)
    return _contract(coeffs, ft_coeffs(field, n).reshape(-1, k, k))


def coupled_form_w307(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Z_N-Fourier of the big field, evaluated as Phi_{g,ta}(N eta/M, M z/N)."""
    n, m, k = model.n, model.m, model.k
    coeffs = phi_big(n * eta / m, m * _column(z) / n, *model._idx, n, m, model.params)
    blocks = ft_coeffs(_gathered_big(model, field), n)
    return _contract(coeffs, blocks.reshape(-1, k, k))


def coupled_form_w308(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Z_M-Fourier of the big field, evaluated as Phi~_{tg,al}(eta, z), the
    Phi of Z_M^2 x Z_N^2 (N and M exchanged)."""
    n, m, k = model.n, model.m, model.k
    swapped = np.transpose(_gathered_big(model, field), (2, 3, 0, 1, 4, 5))
    coeffs = phi_big(eta, _column(z), *_pair_grid(m, n), m, n, model.params)
    return _contract(coeffs, ft_coeffs(swapped, m).reshape(-1, k, k))
