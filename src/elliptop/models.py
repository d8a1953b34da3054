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
of a weighted coefficient table; both are written once below.

The coupled-model equations of motion are obtained by expanding
[L(z), M(z)] back in the Phi basis: the commutator is projected onto the
quasi-periodicity sectors of the z variable and the residue at each of
the M^2 simple poles is extracted by circle quadrature.  The expansion
exists exactly when the constraints hold; the same machinery therefore
yields the unconstrained negative control (a large Lax residual).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import (TWO_PI_I, EllipticParams, eisenstein_E1, kronecker_phi,
                       lattice_distance, weierstrass_p)
from .fourier import f_alpha, omega_of, phi_alpha, phi_big, phi_big_swapped
from .torus import T, kappa, lattice, reduction_sign

MODEL_KINDS = ("nonrel-top", "rel-top", "matrix-top", "gaudin-lattice", "coupled")
REDUCTION_KINDS = ("z2-nonrel", "z2-rel", "matrix-top-constraints",
                   "gaudin-constraints", "coupled-constraints")


@dataclass
class CoeffField:
    """Dynamical variables: one K x K block per lattice index.

    data has shape (N, N, K, K) on Z_N^2 and (N, N, M, M, K, K) on
    Z_N^2 x Z_M^2 (scalar models use K = 1).
    """

    lattice_shape: tuple
    K: int
    data: np.ndarray
    model_tag: str = ""
    coupling: complex | None = None

    def with_data(self, data: np.ndarray) -> "CoeffField":
        return CoeffField(self.lattice_shape, self.K, np.asarray(data, complex),
                          self.model_tag, self.coupling)

    def copy(self) -> "CoeffField":
        return self.with_data(self.data.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.data.ravel()))


# --------------------------------------------------------------------------
# shared lattice helpers
# --------------------------------------------------------------------------

def _grid(n: int):
    """Row-major index arrays (a1, a2) of Z_n^2 and the flat index of -a."""
    a1, a2 = np.divmod(np.arange(n * n), n)
    return a1, a2, (-a1 % n) * n + (-a2 % n)


def _column(z) -> np.ndarray:
    """Spectral points as a trailing axis that broadcasts against index arrays."""
    return np.asarray(z, dtype=complex)[..., None]


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
        raise NotImplementedError

    def random_field(self, seed: int, scale: float = 1.0) -> CoeffField:
        """i.i.d. complex Gaussian entries, then projected onto constraints.

        ``scale`` multiplies the unit-variance draw; long integrations use a
        reduced amplitude so the quadratic flow stays within the fixed-step
        error budget (projection is linear, so scaling commutes with it).
        """
        rng = np.random.default_rng(seed)
        shape = self.field_shape()
        data = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        return self.project(self._wrap(data))

    def _wrap(self, data) -> CoeffField:
        raise NotImplementedError

    # -- constraints ---------------------------------------------------------
    def project(self, field: CoeffField) -> CoeffField:
        return field

    def constraint_deviation(self, field: CoeffField) -> float:
        return field.with_data(field.data - self.project(field).data).norm()

    # -- dynamics ------------------------------------------------------------
    def eom_rhs(self, field: CoeffField) -> CoeffField:
        raise NotImplementedError

    def L_of(self, field: CoeffField, z) -> np.ndarray:
        """L(z) for a scalar z; for a 1-D array of z a stack (nz, size, size)."""
        return np.einsum("...i,ijk->...jk", self._l_coeffs(z), self._basis(field))

    def M_of(self, field: CoeffField, z) -> np.ndarray:
        """M(z), batched over z like ``L_of``."""
        return np.einsum("...i,ijk->...jk", self._m_coeffs(z), self._basis(field))

    def _l_coeffs(self, z) -> np.ndarray:
        raise NotImplementedError

    def _m_coeffs(self, z) -> np.ndarray:
        raise NotImplementedError

    def _basis(self, field: CoeffField) -> np.ndarray:
        raise NotImplementedError

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

    The scalar tops are K = 1.  L(z) = sum_a c_a(z) B_a with basis
    B_a = T_a (x) S_a (T-paired tops) or B_a = S_a (Gaudin-like top), and
    the equations of motion are one structure-tensor contraction

        dS_a = sum_{g != 0} (c+[a, g] S_b S_g - c-[a, g] S_g S_b),
        b = (a - g) mod N,

    with c+- = s * kappa_{b,g} J_g, s * kappa_{g,b} J_g (s the reduction sign
    of the raw sum b + g) for T-paired blocks and c+- = J_g otherwise.
    """

    _t_paired = True

    def __init__(self, n: int, params: EllipticParams, k: int = 1,
                 eta: complex | None = None, coupling: complex = 0.0):
        super().__init__(n, params)
        self.k = k
        self.eta = eta
        self._coupling = coupling   # y of varphi_a(z, y + omega_a) in L
        self._a1, self._a2, self._partner = _grid(n)
        self._tstack = np.stack([T(a, n) for a in lattice(n)])
        w = omega_of(self._a1[1:], self._a2[1:], n, params.tau)
        self._set_inertia(_with_zero_mode(self._inertia(w)).reshape(n, n))

    def _inertia(self, w) -> np.ndarray:
        """J at the non-zero half periods w: E1(y + w) - E1(w)."""
        p = self.params
        return eisenstein_E1(self._coupling + w, p) - eisenstein_E1(w, p)

    def _set_inertia(self, j: np.ndarray) -> None:
        """Store J ((N, N), J_0 unused) and build the eom weight table from it."""
        n = self.n
        g1, g2 = self._a1[1:], self._a2[1:]
        b1, b2 = (self._a1[:, None] - g1) % n, (self._a2[:, None] - g2) % n
        jg = j.ravel()[1:]
        if self._t_paired:
            s = reduction_sign((b1 + g1, b2 + g2), n) * jg
            cp, cm = s * kappa((b1, b2), (g1, g2), n), s * kappa((g1, g2), (b1, b2), n)
        else:
            cp = cm = np.broadcast_to(jg, b1.shape)
        cp, cm = np.array(cp), np.array(cm)
        cp[0] = cm[0] = 0.0  # dS_0/dt = 0: the zero mode is left out of the flow
        self._j, self._b = j, b1 * n + b2
        self._cp, self._cm = cp[:, None, :], cm[:, None, :]

    def field_shape(self):
        return (self.n, self.n, self.k, self.k)

    def _wrap(self, data):
        return CoeffField((self.n,), self.k, np.asarray(data, complex), self.kind,
                          self.eta)

    @property
    def size(self):
        return self.n * self.k if self._t_paired else self.k

    def eom_rhs(self, field: CoeffField) -> CoeffField:
        k = self.k
        s = field.data.reshape(-1, k, k)
        sb, sg = s[self._b], s[1:]
        # the two terms are contracted apart so that they cancel exactly
        # where S_b S_g = S_g S_b
        sdot = (self._cp @ (sb @ sg).reshape(len(s), -1, k * k)
                - self._cm @ (sg @ sb).reshape(len(s), -1, k * k))
        return field.with_data(sdot.reshape(field.data.shape))

    def _basis(self, field):
        s = field.data.reshape(-1, self.k, self.k)
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

    def project(self, field: CoeffField) -> CoeffField:
        """Zero block to a scalar; symmetrize c_a = S_a / varphi_a(eta/N, omega_a)."""
        k = self.k
        out = _pair_average(field.data.reshape(-1, k, k), *self._pair)
        out[0] = np.trace(out[0]) / k * np.eye(k)
        return field.with_data(out.reshape(field.data.shape))


class MatrixTop(_BlockTop):
    """Matrix extension: L = sum_a T_a (x) S_a varphi_a(z, omega_a + eta/N)."""

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

    def __init__(self, n: int, params: EllipticParams, eta: complex, m: int, k: int,
                 quad_points: int = 16, quad_radius: float = 0.04):
        if n < 2:
            raise ValueError(f"the coupled model needs N >= 2, got N = {n}: "
                             "Z_1^2 has no non-zero modes")
        if math.gcd(n, m) != 1:
            raise ValueError(f"N = {n} and M = {m} must be coprime")
        super().__init__(n, params)
        self.eta = complex(eta)
        self.m = m
        self.k = k
        self.nm = n * m
        self._quad_points = quad_points
        self._quad_radius = quad_radius
        self._cache = None
        self._idx = tuple(x.ravel() for x in np.meshgrid(
            np.arange(n), np.arange(n), np.arange(m), np.arange(m), indexing="ij"))
        # to_big as one matrix: curly A^A = (1/M) sum_ta ktilde^2_{A,ta} A^{A mod N, ta}
        # with ktilde^2_{A,ta} = exp(2*pi*i*(ta1*A2 - A1*ta2)/M); from_big is
        # its conjugate transpose
        big1, big2, partner = _grid(self.nm)
        big1, big2 = big1[:, None], big2[:, None]
        a1, a2, t1, t2 = self._idx
        on = (big1 % n == a1) & (big2 % n == a2)
        self._big = np.where(on, np.exp(TWO_PI_I * (t1 * big2 - big1 * t2) / m), 0.0) / m
        self._pair = (partner, _phi_weights(self.eta / m, self.nm, params), 1.0)

    @property
    def size(self):
        return self.k

    def field_shape(self):
        return (self.n, self.n, self.m, self.m, self.k, self.k)

    def _wrap(self, data):
        return CoeffField((self.n, self.m), self.k, np.asarray(data, complex),
                          self.kind, self.eta)

    def pole_set(self) -> list:
        tau = self.params.tau
        return [-self.n * (t1 + t2 * tau) / self.m
                for t1 in range(self.m) for t2 in range(self.m)]

    # -- big-lattice (Z_NM^2) coordinates -----------------------------------
    def to_big(self, field: CoeffField) -> np.ndarray:
        """curly A^{a} = (1/M) sum_ta ktilde^2_{a,ta} A^{a mod N, ta}, a in Z_NM^2."""
        k, nm = self.k, self.nm
        return (self._big @ field.data.reshape(-1, k * k)).reshape(nm, nm, k, k)

    def from_big(self, big: np.ndarray) -> CoeffField:
        k = self.k
        data = self._big.conj().T @ big.reshape(-1, k * k)
        return self._wrap(data.reshape(self.field_shape()))

    def project(self, field: CoeffField) -> CoeffField:
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
        return field.data.reshape(-1, self.k, self.k)

    def _l_coeffs(self, z) -> np.ndarray:
        """Phi_{a,ta}(z, eta) over the flat index grid; z scalar or (nz,)."""
        return phi_big(_column(z), self.eta, *self._idx, self.n, self.m, self.params)

    def _m_coeffs(self, z) -> np.ndarray:
        """Coefficients of the M-matrix over the flat index grid."""
        n, m, p = self.n, self.m, self.params
        a1, a2, t1, t2 = self._idx
        z = np.asarray(z, dtype=complex)
        zero = (a1 % n == 0) & (a2 % n == 0)
        out = np.zeros(z.shape + a1.shape, dtype=complex)
        out[..., ~zero] = -phi_big(z[..., None], 0.0, a1[~zero], a2[~zero],
                                   t1[~zero], t2[~zero], n, m, p)
        tw = omega_of(t1[zero], t2[zero], m, p.tau)
        out[..., zero] = -eisenstein_E1(z[..., None] + n * tw, p)
        return out

    # -- equations of motion via residue matching ----------------------------
    def _nodes(self):
        """Quadrature nodes and cached basis/weight tensors for the expansion.

        Nodes are circles of radius quad_radius around each pole
        -N*tw_ta, replicated over the N x N cell translates used by the
        quasi-periodicity sector projection.  The weight tensor W folds
        the sector phases, one-pole residue normalization, and the
        quadrature weights, so the eom is three tensor contractions.
        """
        if self._cache is not None:
            return self._cache
        n, m, p = self.n, self.m, self.params
        tau = p.tau
        nq, r = self._quad_points, self._quad_radius
        circle = r * np.exp(TWO_PI_I * np.arange(nq) / nq)
        poles = [-n * omega_of(t1, t2, m, tau)
                 for t1 in range(m) for t2 in range(m)]
        zs = np.empty(m * m * nq * n * n, dtype=complex)
        wgt = np.zeros((n * n * m * m, zs.size), dtype=complex)
        eta = self.eta
        pos = 0
        for ip in range(m * m):
            t1, t2 = divmod(ip, m)
            for iq in range(nq):
                for ms in range(n):
                    for ns in range(n):
                        zs[pos] = poles[ip] + circle[iq] + ms + ns * tau
                        for al1 in range(n):
                            for al2 in range(n):
                                row = ((al1 * n + al2) * m + t1) * m + t2
                                wgt[row, pos] = (
                                    np.exp(-TWO_PI_I * (ms * al2 - ns * al1) / n
                                           + TWO_PI_I * ns * eta)
                                    * circle[iq]
                                    * np.exp(-TWO_PI_I * eta * n * t2 / m)
                                    / (nq * n * n))
                        pos += 1
        lco = self._l_coeffs(zs)    # (nodes, N^2 M^2)
        mco = self._m_coeffs(zs)
        self._cache = (lco, mco, wgt)
        return self._cache

    def eom_rhs(self, field: CoeffField) -> CoeffField:
        """Expand [L(z), M(z)] in the Phi basis: project [L, M] onto the
        z-quasi-periodicity sectors and read the residue at each of the M^2
        simple poles by circle quadrature."""
        lco, mco, wgt = self._nodes()
        flat = field.data.reshape(-1, self.k, self.k)
        lv = np.einsum("ni,ijk->njk", lco, flat)
        mv = np.einsum("ni,ijk->njk", mco, flat)
        g = lv @ mv - mv @ lv
        # wgt row order matches the (al1, al2, t1, t2) flat index layout;
        # the per-row weights already include the residue normalization of
        # Phi at its pole, exp(2*pi*i*eta*N*ta2/M)
        data = np.einsum("rn,njk->rjk", wgt, g)
        return field.with_data(data.reshape(self.field_shape()))


# --------------------------------------------------------------------------
# inverse-inertia operators
# --------------------------------------------------------------------------

def j_nonrel(field: CoeffField, n: int, params: EllipticParams) -> CoeffField:
    """(J(S))_a = -wp(omega_a) S_a for a != 0, zero at the zero mode."""
    out = np.zeros_like(field.data)
    for a in lattice(n):
        if a == (0, 0):
            continue
        out[a] = -complex(weierstrass_p(omega_of(a[0], a[1], n, params.tau), params)) \
            * field.data[a]
    return field.with_data(out)


def j_rel(field: CoeffField, eta: complex, n: int, params: EllipticParams) -> CoeffField:
    """(J^eta(S))_a = (E1(eta + omega_a) - E1(omega_a)) S_a for a != 0."""
    out = np.zeros_like(field.data)
    for a in lattice(n):
        if a == (0, 0):
            continue
        w = omega_of(a[0], a[1], n, params.tau)
        out[a] = (complex(eisenstein_E1(eta + w, params))
                  - complex(eisenstein_E1(w, params))) * field.data[a]
    return field.with_data(out)


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


def project_constraints(field: CoeffField, reduction: str,
                        model: EllipticTopModel) -> CoeffField:
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
        data = field.data.reshape((n * n,) + field.data.shape[2:])
        out = _pair_average(data, partner, weight, reduction_sign((-a1, -a2), n))
        return field.with_data(out.reshape(field.data.shape))
    if reduction in ("matrix-top-constraints", "gaudin-constraints",
                     "coupled-constraints"):
        return model.project(field)
    raise ValueError(f"unknown reduction {reduction!r}; expected one of "
                     f"{REDUCTION_KINDS}")


def constraint_deviation(field: CoeffField, reduction: str,
                         model: EllipticTopModel) -> float:
    proj = project_constraints(field, reduction, model)
    return field.with_data(field.data - proj.data).norm()


def lax_residual(model: EllipticTopModel, field: CoeffField,
                 spectral_samples, relative: bool = True) -> dict:
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


def relativize(field: CoeffField, eta: complex, model: EllipticTopModel) -> CoeffField:
    """Change of variables S_a -> S_a / varphi_a(eta, omega_a) (a != 0)."""
    n, p = model.n, model.params
    out = field.data.copy()
    for a in lattice(n):
        if a == (0, 0):
            continue
        out[a] = field.data[a] / complex(phi_alpha(eta, 0.0, a[0], a[1], n, p))
    return field.with_data(out)


def check_relativization(field: CoeffField, eta: complex, z: complex,
                         model: EllipticTopModel) -> float:
    """Residual of L^eta(z - eta, L0(eta, S)) = phi(z - eta, eta) L0(z, S)."""
    n, p = model.n, model.params
    from .torus import decompose

    def l0(zz):
        out = field.data[0, 0, 0, 0] * np.eye(n, dtype=complex)
        for a in lattice(n):
            if a == (0, 0):
                continue
            out += T(a, n) * field.data[a][0, 0] * phi_alpha(zz, 0.0, a[0], a[1], n, p)
        return out

    sprime = decompose(l0(eta), n)
    lhs = np.zeros((n, n), dtype=complex)
    for a in lattice(n):
        lhs += T(a, n) * sprime[a] * phi_alpha(z - eta, eta, a[0], a[1], n, p)
    rhs = complex(kronecker_phi(z - eta, eta, p)) * l0(z)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


# --------------------------------------------------------------------------
# Gaudin reductions of the coupled model
# --------------------------------------------------------------------------

@dataclass
class GaudinReduction:
    """Reduced Lax data: marked points, declared residues, and the evaluator."""

    variant: int
    marked_points: list
    residues: list
    scalars: dict
    L: Callable

    def extract_residue(self, i: int, quad_points: int = 24,
                        radius: float = 0.05) -> np.ndarray:
        """Numerical residue at marked point i by circle quadrature."""
        c = self.marked_points[i]
        ws = radius * np.exp(TWO_PI_I * np.arange(quad_points) / quad_points)
        out = None
        for w in ws:
            v = self.L(c + w) * w
            out = v if out is None else out + v
        return out / quad_points


def gaudin_reduce(field: CoeffField, variant: int, eta: complex,
                  model: CoupledTop) -> GaudinReduction:
    """Project a coupled-model field onto the Gaudin form.

    Variant 1 (requires K = N) keeps the Z_N-Fourier-transformed blocks
    proportional to T_gamma and yields M^2 marked points at -N*tw_ta;
    variant 2 (requires K = M) is the mirror with N^2 points at -M*w_a.
    """
    n, m, p = model.n, model.m, model.params
    tau = p.tau
    eta = complex(eta)
    if variant == 1:
        if model.k != n:
            raise ValueError("variant 1 needs K = N blocks")
        scalars = {}
        atil = {}
        for t1 in range(m):
            for t2 in range(m):
                for g in lattice(n):
                    blk = sum(kappa(g, al, n) ** 2 * field.data[al[0], al[1], t1, t2]
                              for al in lattice(n)) / n
                    s = np.exp(TWO_PI_I * eta * t2) * np.trace(
                        T((-g[0], -g[1]), n) @ blk) / n
                    scalars[((t1, t2), g)] = s
                    atil[(g, (t1, t2))] = (np.exp(-TWO_PI_I * eta * t2) * s * T(g, n))
        marked, resid = [], []
        for t1 in range(m):
            for t2 in range(m):
                marked.append(complex(-n * omega_of(t1, t2, m, tau)))
                resid.append(np.exp(TWO_PI_I * eta * t2 * (n - m) / m)
                             * sum(scalars[((t1, t2), g)] * T(g, n)
                                   for g in lattice(n)))

        def L(z):
            out = np.zeros((n, n), dtype=complex)
            for (g, ta), blk in atil.items():
                out += blk * complex(phi_big(z, eta, g[0], g[1], ta[0], ta[1], n, m, p))
            return out

        return GaudinReduction(1, marked, resid, scalars, L)

    if variant == 2:
        if model.k != m:
            raise ValueError("variant 2 needs K = M blocks")
        km = lambda tg, ta: kappa(tg, ta, m)
        scalars = {}
        atil = {}
        for al in lattice(n):
            for tg in lattice(m):
                blk = sum(km(tg, ta) ** 2 * field.data[al[0], al[1], ta[0], ta[1]]
                          for ta in lattice(m)) / m
                s = np.exp(TWO_PI_I * eta * al[1]) * np.trace(
                    T((-tg[0], -tg[1]), m) @ blk) / m
                scalars[(al, tg)] = s
                atil[(al, tg)] = np.exp(-TWO_PI_I * eta * al[1]) * s * T(tg, m)
        marked, resid = [], []
        for al in lattice(n):
            marked.append(complex(-m * omega_of(al[0], al[1], n, tau)))
            resid.append(np.exp(TWO_PI_I * eta * al[1] * (m - n) / n)
                         * sum(scalars[(al, tg)] * T(tg, m) for tg in lattice(m)))

        def L(z):
            out = np.zeros((m, m), dtype=complex)
            for (al, tg), blk in atil.items():
                out += blk * complex(
                    phi_big_swapped(z, eta, tg[0], tg[1], al[0], al[1], n, m, p))
            return out

        return GaudinReduction(2, marked, resid, scalars, L)

    raise ValueError("variant must be 1 or 2")


# --------------------------------------------------------------------------
# the four equivalent coefficient forms of the coupled-model matrix
# --------------------------------------------------------------------------

def coupled_form_base(model: CoupledTop, field: CoeffField, z, eta) -> np.ndarray:
    n, m, p = model.n, model.m, model.params
    out = np.zeros((model.k, model.k), dtype=complex)
    for al in lattice(n):
        for ta in lattice(m):
            out += field.data[al[0], al[1], ta[0], ta[1]] * complex(
                phi_big(z, eta, al[0], al[1], ta[0], ta[1], n, m, p))
    return out


def coupled_form_w303(model: CoupledTop, field: CoeffField, z, eta) -> np.ndarray:
    """Big-lattice form sum_a curlyA^a varphi_a(M z, omega_a + eta/M)."""
    n, m, nm, p = model.n, model.m, model.nm, model.params
    big = model.to_big(field)
    out = np.zeros((model.k, model.k), dtype=complex)
    for a1 in range(nm):
        for a2 in range(nm):
            out += big[a1, a2] * complex(phi_alpha(m * z, eta / m, a1, a2, nm, p))
    return out


def coupled_form_w305(model: CoupledTop, field: CoeffField, z, eta) -> np.ndarray:
    """Dual big-lattice form sum_a curlyA'^a varphi_a(N eta, omega_a + z/N)."""
    n, m, nm, p = model.n, model.m, model.nm, model.params
    out = np.zeros((model.k, model.k), dtype=complex)
    for g in lattice(n):
        for ta in lattice(m):
            a = ((m * g[0] + n * ta[0]) % nm, (m * g[1] + n * ta[1]) % nm)
            blk = sum(kappa(g, al, n) ** 2 * field.data[al[0], al[1], ta[0], ta[1]]
                      for al in lattice(n)) / n
            out += blk * complex(phi_alpha(n * eta, z / n, a[0], a[1], nm, p))
    return out


def coupled_form_w307(model: CoupledTop, field: CoeffField, z, eta) -> np.ndarray:
    """Z_N-Fourier of the big field, evaluated as Phi_{g,ta}(N eta/M, M z/N)."""
    n, m, nm, p = model.n, model.m, model.nm, model.params
    big = model.to_big(field)
    out = np.zeros((model.k, model.k), dtype=complex)
    for g in lattice(n):
        for ta in lattice(m):
            blk = np.zeros((model.k, model.k), dtype=complex)
            for al in lattice(n):
                a = ((m * al[0] + n * ta[0]) % nm, (m * al[1] + n * ta[1]) % nm)
                blk += kappa(g, al, n) ** 2 * big[a]
            out += blk / n * complex(
                phi_big(n * eta / m, m * z / n, g[0], g[1], ta[0], ta[1], n, m, p))
    return out


def coupled_form_w308(model: CoupledTop, field: CoeffField, z, eta) -> np.ndarray:
    """Z_M-Fourier of the big field, evaluated as Phi~_{tg,al}(eta, z)."""
    n, m, nm, p = model.n, model.m, model.nm, model.params
    big = model.to_big(field)
    out = np.zeros((model.k, model.k), dtype=complex)
    for al in lattice(n):
        for tg in lattice(m):
            blk = np.zeros((model.k, model.k), dtype=complex)
            for ta in lattice(m):
                a = ((m * al[0] + n * ta[0]) % nm, (m * al[1] + n * ta[1]) % nm)
                blk += kappa(tg, ta, m) ** 2 * big[a]
            out += blk / m * complex(
                phi_big_swapped(eta, z, tg[0], tg[1], al[0], al[1], n, m, p))
    return out
