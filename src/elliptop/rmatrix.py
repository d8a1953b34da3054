"""Belavin R-matrix, its classical expansion, the symmetric GL_N x GL_M
R-matrix, the rational analogue, and the associated checkers.

Leg conventions:

* Belavin objects act on (C^N)^(x2) or (C^N)^(x3) with kron ordering.
* Four-leg objects act on (C^N (x) C^M)^(x2) with the fixed leg ordering
  (1, 1~, 2, 2~);  R_{21,...} variants are realized by explicit
  permutation matrices built once per (N, M).
* The sublattice relations identify Z_{NM}^2 with Z_N^2 x Z_M^2 through
  a factorized T-basis on C^N (x) C^M:

      a  ->  T_{M^{-1} a mod N} (x) T~_{N^{-1} a mod M}    (P12 relation)
      a  ->  T_{a mod N}        (x) T~_{a mod M}           (P~12 relation)

  i.e. the right-hand sides of the relations are the size-NM Belavin sum
  written in these bases; no clock-shift similarity transform realizes
  them, so the identification is part of the statement.

Every R-matrix here is ``torus.pair_sum`` of one coefficient table,
evaluated by one batched call of the dressed functions: varphi_a for the
Belavin R-matrix and its classical expansion, Phi_{a,ta} for the
symmetric R-matrix, and the size-NM varphi_a scattered onto Z_N^2 x Z_M^2
through the bijection above for the sublattice relations.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .elliptic import EllipticParams, eisenstein_E1, weierstrass_p
from .fourier import _grid, _nonzero_grid, f_alpha, phi_alpha, phi_big
from .torus import pair_sum, permutation_operator


def belavin_R(z, hbar, n: int, p: EllipticParams) -> np.ndarray:
    """R^hbar_12(z) = sum_a T_a (x) T_{-a} varphi_a(z, omega_a + hbar)."""
    return pair_sum(phi_alpha(z, hbar, *_grid(n), n, p), n)


def classical_expansion(z, n: int, p: EllipticParams) -> tuple[np.ndarray, np.ndarray]:
    """(r12, m12) of R^hbar(z) = 1/hbar + r12 + hbar m12 + O(hbar^2).

    The a = 0 pair is the identity; its coefficients E1(z) and
    (E1(z)^2 - wp(z)) / 2 lead the two tables.
    """
    e1 = complex(eisenstein_E1(z, p))
    wp = complex(weierstrass_p(z, p))
    a = _nonzero_grid(n)
    r12 = pair_sum(np.concatenate(([e1], phi_alpha(z, 0.0, *a, n, p))), n)
    m12 = pair_sum(np.concatenate(([0.5 * (e1 * e1 - wp)], f_alpha(z, *a, n, p))), n)
    return r12, m12


def lax_from_R(smat: np.ndarray, z, eta, n: int, p: EllipticParams) -> np.ndarray:
    """L^eta(z, S) as the normalized partial trace (1/N) tr_2(R^eta_12(z) S_2).

    The 1/N makes this literally equal to the top's Lax matrix
    sum_a T_a S_a varphi_a(z, eta + omega_a), since tr(T_{-a} T_b) = N delta.
    """
    r = belavin_R(z, eta, n, p)
    return _partial_trace_2(r @ np.kron(np.eye(n), smat), n) / n


def m_from_r(smat: np.ndarray, z, n: int, p: EllipticParams) -> np.ndarray:
    """-(1/N) tr_2(r_12(z) S_2); differs from the top's M-matrix by the
    scalar E1(z) S_0 1_N, which cancels in the Lax equations."""
    r12, _ = classical_expansion(z, n, p)
    return -_partial_trace_2(r12 @ np.kron(np.eye(n), smat), n) / n


def _partial_trace_2(mat: np.ndarray, n: int) -> np.ndarray:
    return np.trace(mat.reshape(n, n, n, n), axis1=1, axis2=3)


def fourier_swap_residual(z, hbar, n: int, p: EllipticParams) -> float:
    """|| R^hbar_12(z) P_12 - R^{z/N}_12(N hbar) || / || . ||."""
    lhs = belavin_R(z, hbar, n, p) @ permutation_operator(n)
    rhs = belavin_R(n * hbar, z / n, n, p)
    return float(np.abs(lhs - rhs).max() / np.abs(rhs).max())


def belavin_unitarity_residual(z, hbar, n: int, p: EllipticParams) -> float:
    """R^h_12(z) R^h_21(-z) = N^2 (wp(N hbar) - wp(z)) 1, checked with the
    explicit factor."""
    perm = permutation_operator(n)
    r12 = belavin_R(z, hbar, n, p)
    r21 = perm @ belavin_R(-z, hbar, n, p) @ perm
    fac = n * n * (complex(weierstrass_p(n * hbar, p)) - complex(weierstrass_p(z, p)))
    return float(np.abs(r12 @ r21 - fac * np.eye(n * n)).max() / abs(fac))


# --------------------------------------------------------------------------
# leg embeddings and the associative Yang-Baxter equation
# --------------------------------------------------------------------------

def _embed(op: np.ndarray, legs: tuple, dims: tuple) -> np.ndarray:
    """Place an operator on the ``legs`` of a tensor product of spaces of
    sizes ``dims``; op's row and column indices run over its legs in the
    order given, in kron ordering."""
    rest = [s for s in range(len(dims)) if s not in legs]
    order = list(legs) + rest
    shape = [dims[s] for s in order]
    full = np.kron(op, np.eye(math.prod(shape[len(legs):])))
    perm = list(np.argsort(order))
    full = full.reshape(shape + shape).transpose(perm + [len(dims) + i for i in perm])
    size = math.prod(dims)
    return full.reshape(size, size)


def check_aybe_belavin(n: int, p: EllipticParams, z_points, hbar, eta) -> float:
    """Residual of R^h_12(z12) R^e_23(z23) = R^e_13(z13) R^{h-e}_12(z12)
    + R^{e-h}_23(z23) R^h_13(z13) at one point tuple."""
    z1, z2, z3 = z_points
    if abs(hbar - eta) < 1e-12:
        raise ValueError("hbar = eta makes the AYBE degenerate (pole of R^0)")
    z12, z23, z13 = z1 - z2, z2 - z3, z1 - z3

    def e(r, legs):
        return _embed(r, legs, (n, n, n))

    lhs = e(belavin_R(z12, hbar, n, p), (0, 1)) @ e(belavin_R(z23, eta, n, p), (1, 2))
    rhs = e(belavin_R(z13, eta, n, p), (0, 2)) @ \
        e(belavin_R(z12, hbar - eta, n, p), (0, 1)) + \
        e(belavin_R(z23, eta - hbar, n, p), (1, 2)) @ \
        e(belavin_R(z13, hbar, n, p), (0, 2))
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())


# --------------------------------------------------------------------------
# symmetric GL_N x GL_M R-matrix
# --------------------------------------------------------------------------

def _check_coprime(n: int, m: int):
    if math.gcd(n, m) != 1:
        raise ValueError(f"N = {n} and M = {m} must be coprime")


def symmetric_R(z, hbar, n: int, m: int, p: EllipticParams) -> np.ndarray:
    """sum_{a,ta} Phi_{a,ta}(z, hbar) T_a (x) T~_ta (x) T_{-a} (x) T~_{-ta},
    acting on (C^N (x) C^M)^(x2) with leg ordering (1, 1~, 2, 2~)."""
    _check_coprime(n, m)
    a1, a2 = _grid(n)
    return pair_sum(phi_big(z, hbar, a1[:, None], a2[:, None], *_grid(m), n, m, p),
                    n, m)


def rational_symmetric_R(z, hbar, n: int, m: int) -> np.ndarray:
    """M (1 (x) 1 (x) P~) / hbar + N (P (x) 1~ (x) 1~) / z."""
    if z == 0 or hbar == 0:
        raise ValueError("rational R-matrix is singular at z = 0 or hbar = 0")
    return m * swap_tilde_legs(n, m) / hbar + n * swap_n_legs(n, m) / z


def _leg_permutation(n: int, m: int, legs: tuple) -> np.ndarray:
    """Permutation matrix of the legs (1, 1~, 2, 2~) of (C^N (x) C^M)^(x2):
    output leg i is input leg legs[i]."""
    d = n * m
    x = np.eye(d * d).reshape((n, m, n, m) * 2).transpose(legs + (4, 5, 6, 7))
    x = x.reshape(d * d, d * d)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=16)
def swap_n_legs(n: int, m: int) -> np.ndarray:
    """Permutation matrix exchanging the two N-legs in ordering (1, 1~, 2, 2~)."""
    return _leg_permutation(n, m, (2, 1, 0, 3))


@lru_cache(maxsize=16)
def swap_tilde_legs(n: int, m: int) -> np.ndarray:
    """Permutation matrix exchanging the two M-legs."""
    return _leg_permutation(n, m, (0, 3, 2, 1))


def symmetric_unitarity_residual(z, hbar, n: int, m: int, p: EllipticParams) -> float:
    """R_{12,1~2~}(z,h) R_{21,1~2~}(-z,h) = N^2 M^2 (wp(N h) - wp(M z)) 1."""
    _check_coprime(n, m)
    sn = swap_n_legs(n, m)
    r = symmetric_R(z, hbar, n, m, p)
    r21 = sn @ symmetric_R(-z, hbar, n, m, p) @ sn
    fac = n * n * m * m * (complex(weierstrass_p(n * hbar, p))
                           - complex(weierstrass_p(m * z, p)))
    return float(np.abs(r @ r21 - fac * np.eye((n * m) ** 2)).max() / abs(fac))


def check_aybe_symmetric(n: int, m: int, p: EllipticParams, z_points,
                         h_points) -> float:
    """Residual of R_{12,1~2~} R_{23,3~2~} = R_{13,3~2~} R_{12,1~3~}
    + R_{23,3~1~} R_{13,1~2~} with arguments (z_a - z_b, h_a~ - h_b~)."""
    _check_coprime(n, m)
    return _aybe_six_leg(lambda z, h: symmetric_R(z, h, n, m, p), n, m,
                         z_points, h_points)


def check_aybe_rational(n: int, m: int, z_points, h_points) -> float:
    """The same six-leg AYBE residual for the rational R-matrix."""
    return _aybe_six_leg(lambda z, h: rational_symmetric_R(z, h, n, m), n, m,
                         z_points, h_points)


def _aybe_six_leg(r_of, n: int, m: int, z_points, h_points) -> float:
    z1, z2, z3 = z_points
    h1, h2, h3 = h_points

    def rr(za, zb, ha, hb, legs):
        # 4-leg operator (x, x~, y, y~) on N-legs (a, b) and M-legs (ta, tb)
        # of the 6-leg space ordered (1, 2, 3, 1~, 2~, 3~)
        a, b, ta, tb = legs
        return _embed(r_of(za - zb, ha - hb), (a, 3 + ta, b, 3 + tb),
                      (n, n, n, m, m, m))

    lhs = rr(z1, z2, h1, h2, (0, 1, 0, 1)) @ rr(z2, z3, h3, h2, (1, 2, 2, 1))
    rhs = rr(z1, z3, h3, h2, (0, 2, 2, 1)) @ rr(z1, z2, h1, h3, (0, 1, 0, 2)) \
        + rr(z2, z3, h3, h1, (1, 2, 2, 0)) @ rr(z1, z3, h1, h2, (0, 2, 0, 1))
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())


def sublattice_residuals(z, hbar, n: int, m: int, p: EllipticParams) -> tuple[float, float]:
    """Residuals of the two sublattice Fourier relations.

    First:  R(z,h) P_12  = size-NM Belavin sum in the factorized basis
            T_{M^{-1} a} (x) T~_{N^{-1} a}, arguments (N hbar, z/N).
    Second: R(z,h) P~_12 = same with basis T_{a mod N} (x) T~_{a mod M},
            arguments (M z, hbar/M).
    """
    _check_coprime(n, m)
    nm = n * m
    r = symmetric_R(z, hbar, n, m, p)
    minv = pow(m, -1, n) if n > 1 else 0
    ninv = pow(n, -1, m) if m > 1 else 0
    big1, big2 = _grid(nm)

    def big_sum(x, y, dict_n, dict_m):
        # a -> (dict_n a mod N, dict_m a mod M) is a bijection of Z_NM^2
        # onto Z_N^2 x Z_M^2 (CRT), so varphi_a fills the table exactly once
        g = dict_n * big1 % n * n + dict_n * big2 % n
        t = dict_m * big1 % m * m + dict_m * big2 % m
        c = np.empty((n * n, m * m), dtype=complex)
        c[g, t] = phi_alpha(x, y, big1, big2, nm, p)
        return pair_sum(c, n, m)

    lhs1 = r @ swap_n_legs(n, m)
    rhs1 = big_sum(n * hbar, z / n, minv, ninv)
    lhs2 = r @ swap_tilde_legs(n, m)
    rhs2 = big_sum(m * z, hbar / m, 1, 1)
    res1 = float(np.abs(lhs1 - rhs1).max() / np.abs(rhs1).max())
    res2 = float(np.abs(lhs2 - rhs2).max() / np.abs(rhs2).max())
    return res1, res2


def classical_limit_slope(z, n: int, p: EllipticParams,
                          k_range=range(3, 11)) -> tuple[float, list]:
    """Log-log slope of || R^h(z) - 1/h - r - h m || over h = 2^{-k}.

    The printed expansion is second order, so the fitted slope is 2.
    """
    r12, m12 = classical_expansion(z, n, p)
    eye = np.eye(n * n)
    hs, resids = [], []
    for k in k_range:
        h = 2.0 ** (-k)
        res = np.abs(belavin_R(z, h, n, p) - eye / h - r12 - h * m12).max()
        hs.append(h)
        resids.append(res)
    slope = np.polyfit(np.log(hs), np.log(resids), 1)[0]
    return float(slope), resids
