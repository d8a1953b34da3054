"""The finite Heisenberg pair (Q, Lambda) and the T-basis of Mat(N, C).

    Q = diag(exp(2*pi*i*k/N), k = 1..N)        (clock)
    Lambda[k, k+1 mod N] = 1                   (shift),  zeta*Q*Lambda = Lambda*Q

    T_a = exp(pi*i*a1*a2/N) * Q^a1 * Lambda^a2

T accepts *raw* integer index pairs.  The prefactor is only sign-stable
under shifts a -> a + N*e, so formulas that add or negate indices (for
example T_a * T_b = kappa_{a,b} * T_{a+b}, or the pairing T_a (x) T_{-a})
hold exactly with raw integer arithmetic; ``reduction_sign`` converts to
canonical representatives in [0, N)^2 when a coefficient table is indexed.

Every sum over the T-basis is a contraction of a coefficient table with
the cached stack ``t_stack``: ``reconstruct`` (of one table or a stack)
and ``decompose`` for one factor, ``pair_sum`` for the pairing sum
T_a (x) T~_ta (x) T_{-a} (x) T~_{-ta} behind the Belavin and symmetric
R-matrices.

This module is the only one that enumerates the lattice: ``_grid`` holds
the row-major index arrays of Z_n^2 that every sweep, coefficient table and
stack reads, ``t_stack`` included, and ``placement`` puts
Z_N^2 x Z_M^2 into Z_NM^2 for coprime N and M.
"""
from __future__ import annotations

import functools

import numpy as np


def _sweep(*axes):
    """Flat row-major index arrays over the product of the index ``axes``."""
    return [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]


def _product(*grids):
    """Flat row-major (x1, x2) index pairs over the product of the (x1, x2)
    ``grids``, in grid order: X1, X2 of the first grid, then of the next."""
    first = _sweep(*(g[0] for g in grids))
    second = _sweep(*(g[1] for g in grids))
    return [x for pair in zip(first, second) for x in pair]


@functools.lru_cache(maxsize=32)
def _grid(n: int):
    """Row-major index arrays (a1, a2) of Z_n^2, read-only and shared."""
    return _frozen(_sweep(np.arange(n), np.arange(n)))


@functools.lru_cache(maxsize=32)
def _nonzero_grid(n: int):
    a1, a2 = _grid(n)
    keep = ~((a1 == 0) & (a2 == 0))
    return _frozen((a1[keep], a2[keep]))


def _frozen(arrays):
    for x in arrays:
        x.setflags(write=False)
    return tuple(arrays)


def placement(n: int, m: int, u: int = 1, v: int = 1):
    """(M u a + N v ta) mod NM over the flat Z_N^2 x Z_M^2 grid (a outer, ta
    inner), as index arrays (A1, A2) of Z_NM^2.

    For coprime N and M and units u mod N, v mod M this is a bijection
    onto Z_NM^2 (CRT): A = M u a mod N and A = N v ta mod M.  (u, v) = (1, 1)
    inverts A -> (M^-1 A mod N, N^-1 A mod M), and (u, v) = (M^-1 mod N,
    N^-1 mod M) inverts A -> (A mod N, A mod M).
    """
    nm = n * m
    a1, a2, t1, t2 = _product(_grid(n), _grid(m))
    return (m * u * a1 + n * v * t1) % nm, (m * u * a2 + n * v * t2) % nm


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


def reduction_sign(alpha, n: int):
    """Sign s with T_alpha = s * T_{alpha mod N} for a raw index pair (or arrays)."""
    a1, a2 = alpha
    return np.exp(1j * np.pi * (a1 * a2 - (a1 % n) * (a2 % n)) / n)


@functools.lru_cache(maxsize=None)
def t_stack(n: int, sign: int = 1) -> np.ndarray:
    """Read-only stack of the T_{sign * a}, a over Z_n x Z_n in ``_grid`` order.

    sign = -1 gives the raw T_{-a}, the pairing partners of T_a.
    """
    out = np.stack([T((sign * i, sign * j), n) for i, j in zip(*_grid(n))])
    out.setflags(write=False)
    return out


def decompose(mat: np.ndarray, n: int) -> np.ndarray:
    """Coefficients c[a1, a2] with mat = sum_a c[a] T_a; uses tr(T_a T_{-a}) = N."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {mat.shape}")
    return np.trace(mat @ t_stack(n, -1), axis1=1, axis2=2).reshape(n, n) / n


def reconstruct(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of decompose; leading axes are kept, so a (..., n, n) stack
    of tables gives the (..., n, n) stack of matrices."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[-2:] != (n, n):
        raise ValueError(f"expected {n}x{n} coefficient tables, got {coeffs.shape}")
    # the sum adds the terms in lattice order, as the loop did, for each
    # table of a stack alike, so evolve's eigenvalues stay bit for bit the same
    return (coeffs.reshape(coeffs.shape[:-2] + (-1, 1, 1)) * t_stack(n)).sum(axis=-3)


def pair_sum(c, n: int, m: int = 1) -> np.ndarray:
    """sum_{a, ta} c[a, ta] T_a (x) T~_ta (x) T_{-a} (x) T~_{-ta}.

    c holds N^2 x M^2 values, a and ta flat in ``_grid`` order; the result
    acts on (C^N (x) C^M)^(x2) with leg ordering (1, 1~, 2, 2~).  At M = 1
    this is the Belavin sum sum_a c[a] T_a (x) T_{-a} on (C^N)^(x2).  The
    N and M factors are contracted in turn, so no stack of four-leg
    products is formed.
    """
    c = np.reshape(np.asarray(c, dtype=complex), (n * n, m * m))
    half = np.einsum("at,aik,aIK->tikIK", c, t_stack(n), t_stack(n, -1))
    full = np.einsum("tjl,tJL,tikIK->ijIJklKL", t_stack(m), t_stack(m, -1), half)
    return full.reshape((n * m) ** 2, (n * m) ** 2)
