"""The finite Heisenberg pair (Q, Lambda) and the T-basis of Mat(N, C).

    Q = diag(exp(2*pi*i*k/N), k = 1..N)        (clock)
    Lambda[k, k+1 mod N] = 1                   (shift),  zeta*Q*Lambda = Lambda*Q

    T_a = exp(pi*i*a1*a2/N) * Q^a1 * Lambda^a2

T accepts *raw* integer index pairs.  The prefactor is only sign-stable
under shifts a -> a + N*e, so formulas that add or negate indices (for
example T_a * T_b = kappa_{a,b} * T_{a+b}, or the pairing T_a (x) T_{-a})
hold exactly with raw integer arithmetic; ``reduction_sign`` converts to
canonical representatives in [0, N)^2 when a coefficient table is indexed.
"""
from __future__ import annotations

import functools

import numpy as np


def lattice(n: int):
    """Canonical representatives of Z_n x Z_n, row-major."""
    return [(i, j) for i in range(n) for j in range(n)]


def build_Q(n: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(1, n + 1) / n))


def build_Lambda(n: int) -> np.ndarray:
    lam = np.zeros((n, n), dtype=complex)
    for k in range(n):
        lam[k, (k + 1) % n] = 1.0
    return lam


@functools.lru_cache(maxsize=None)
def _t_cached(a1: int, a2: int, n: int) -> np.ndarray:
    q, lam = build_Q(n), build_Lambda(n)
    m = (np.exp(1j * np.pi * a1 * a2 / n)
         * np.linalg.matrix_power(q, a1 % n) @ np.linalg.matrix_power(lam, a2 % n))
    m.setflags(write=False)
    return m


def T(alpha, n: int) -> np.ndarray:
    """Basis matrix T_alpha for a raw integer index pair."""
    a1, a2 = int(alpha[0]), int(alpha[1])
    return _t_cached(a1, a2, n)


def kappa(alpha, beta, n: int):
    """kappa_{a,b} = exp(pi*i*(b1*a2 - b2*a1)/N), raw integer indices.

    Index components may be integer arrays; they broadcast.
    """
    return np.exp(1j * np.pi * (beta[0] * alpha[1] - beta[1] * alpha[0]) / n)


def structure_C(alpha, beta, n: int):
    """C_{a,b} = kappa_{a,b} - kappa_{b,a}; [T_a, T_b] = C_{a,b} T_{a+b}."""
    return kappa(alpha, beta, n) - kappa(beta, alpha, n)


def reduction_sign(alpha, n: int):
    """Sign s with T_alpha = s * T_{alpha mod N} for a raw index pair (or arrays)."""
    a1, a2 = alpha
    return np.exp(1j * np.pi * (a1 * a2 - (a1 % n) * (a2 % n)) / n)


def decompose(mat: np.ndarray, n: int) -> np.ndarray:
    """Coefficients c[a1, a2] with mat = sum_a c[a] T_a; uses tr(T_a T_{-a}) = N."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {mat.shape}")
    c = np.empty((n, n), dtype=complex)
    for i, j in lattice(n):
        c[i, j] = np.trace(mat @ T((-i, -j), n)) / n
    return c


def reconstruct(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of decompose."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} coefficient table, got {coeffs.shape}")
    out = np.zeros((n, n), dtype=complex)
    for i, j in lattice(n):
        out += coeffs[i, j] * T((i, j), n)
    return out


def permutation_operator(n: int) -> np.ndarray:
    """P12 = (1/N) sum_a T_a (x) T_{-a};  P12 (u (x) v) = v (x) u."""
    out = np.zeros((n * n, n * n), dtype=complex)
    for a in lattice(n):
        out += np.kron(T(a, n), T((-a[0], -a[1]), n))
    return out / n


def z2_conjugator(n: int) -> np.ndarray:
    """h = J Lambda^{-1} with J the antidiagonal; h T_a h^{-1} = T_{-a}."""
    jmat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        jmat[i, n - 1 - i] = 1.0
    return jmat @ np.linalg.inv(build_Lambda(n))
