"""Belavin R-matrix, its classical expansion and the Laurent coefficients
that check it, the symmetric GL_N x GL_M R-matrix, the rational analogue,
and the associated checkers.

The symmetric R-matrix at M = 1 is the Belavin R-matrix, so the Belavin
checks are the M = 1 case of the GL_N x GL_M ones: unitarity is
``symmetric_unitarity_residual(z, hbar, n, 1, p)``, the AYBE
R^h_12 R^e_23 = R^e_13 R^{h-e}_12 + R^{e-h}_23 R^h_13 is
``check_aybe_symmetric(n, 1, p, zs, (h, 0, e))``, and the Fourier swap
R^hbar_12(z) P_12 = R^{z/N}_12(N hbar) is the first relation of
``sublattice_residuals(z, hbar, n, 1, p)``.

Leg conventions:

* Belavin objects act on (C^N)^(x2) with kron ordering.
* Four-leg objects act on (C^N (x) C^M)^(x2) with the fixed leg ordering
  (1, 1~, 2, 2~);  R_{21,...} variants are realized by explicit
  permutation matrices built once per (N, M).
* The AYBE places its four-leg factors on the six-leg space
  (1, 2, 3, 1~, 2~, 3~) of size d = N^3 M^3.  ``_leg_product`` multiplies
  two placed factors by contracting only the one N-leg and one M-leg they
  share, and no factor is embedded as a d x d matrix: d^2 NM operations
  where the product of embedded factors costs d^3.  The residual is
  reduced one row block at a time: the legs 1, 1~, 2, ... are fixed in
  turn until one block's matmul is below ``_ONE_THREAD_WORK``
  multiply-adds (NM blocks of d / NM rows at NM = 6, one per index of legs
  1 and 1~; one block, the whole product, at NM <= 4).  The work is the
  same d^2 NM operations, and no d x d product is held: at most four
  blocks are in hand at once, each of fewer than 2^16 / NM entries up to
  NM = 15.
* The sublattice relations identify Z_{NM}^2 with Z_N^2 x Z_M^2 through
  a factorized T-basis on C^N (x) C^M:

      A  ->  T_{M^{-1} A mod N} (x) T~_{N^{-1} A mod M}    (P12 relation)
      A  ->  T_{A mod N}        (x) T~_{A mod M}           (P~12 relation)

  i.e. the right-hand sides of the relations are the size-NM Belavin sum
  written in these bases; no clock-shift similarity transform realizes
  them, so the identification is part of the statement.  Each map is a
  bijection of Z_NM^2 onto Z_N^2 x Z_M^2 (CRT), and its inverse is the
  placement A = (M u a + N v ta) mod NM of ``torus.placement``, with
  (u, v) = (1, 1) for the first and (M^{-1} mod N, N^{-1} mod M) for the
  second.

Every R-matrix here is ``torus.pair_sum`` of one coefficient table,
evaluated by one batched call of the dressed functions: varphi_a for the
Belavin R-matrix and its classical expansion, Phi_{a,ta} for the
symmetric R-matrix, and for the sublattice relations the size-NM varphi_A
gathered at the placement of each (a, ta) of Z_N^2 x Z_M^2.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .elliptic import EllipticParams, _laurent, eisenstein_E1, weierstrass_p
from .fourier import check_coprime, f_alpha, omega_of, phi_alpha, phi_big
from .torus import _grid, _nonzero_grid, pair_sum, placement


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
    return _trace_2_against(belavin_R(z, eta, n, p), smat, n)


def m_from_r(smat: np.ndarray, z, n: int, p: EllipticParams) -> np.ndarray:
    """-(1/N) tr_2(r_12(z) S_2); differs from the top's M-matrix by the
    scalar E1(z) S_0 1_N, which cancels in the Lax equations."""
    r12, _ = classical_expansion(z, n, p)
    return -_trace_2_against(r12, smat, n)


def _trace_2_against(r: np.ndarray, smat: np.ndarray, n: int) -> np.ndarray:
    """(1/N) tr_2(r (1 (x) S)) as one contraction, without forming 1 (x) S."""
    return np.einsum("ijkm,mj->ik", r.reshape(n, n, n, n), smat) / n


# --------------------------------------------------------------------------
# symmetric GL_N x GL_M R-matrix
# --------------------------------------------------------------------------

def symmetric_R(z, hbar, n: int, m: int, p: EllipticParams) -> np.ndarray:
    """sum_{a,ta} Phi_{a,ta}(z, hbar) T_a (x) T~_ta (x) T_{-a} (x) T~_{-ta},
    acting on (C^N (x) C^M)^(x2) with leg ordering (1, 1~, 2, 2~)."""
    check_coprime(n, m)
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
    sn = swap_n_legs(n, m)
    r = symmetric_R(z, hbar, n, m, p)
    r21 = sn @ symmetric_R(-z, hbar, n, m, p) @ sn
    fac = n * n * m * m * (complex(weierstrass_p(n * hbar, p))
                           - complex(weierstrass_p(m * z, p)))
    return float(np.abs(r @ r21 - fac * np.eye((n * m) ** 2)).max() / abs(fac))


def check_aybe_symmetric(n: int, m: int, p: EllipticParams, z_points,
                         h_points) -> float:
    """Residual of R_{12,1~2~} R_{23,3~2~} = R_{13,3~2~} R_{12,1~3~}
    + R_{23,3~1~} R_{13,1~2~} with arguments (z_a - z_b, h_a~ - h_b~).

    Two coinciding h raise ValueError.  At M = 1, h = (hbar, 0, eta) gives
    the Belavin AYBE with every R argument as written there.
    """
    return _aybe_six_leg(lambda z, h: symmetric_R(z, h, n, m, p), n, m,
                         z_points, h_points)


def check_aybe_rational(n: int, m: int, z_points, h_points) -> float:
    """The same six-leg AYBE residual for the rational R-matrix."""
    return _aybe_six_leg(lambda z, h: rational_symmetric_R(z, h, n, m), n, m,
                         z_points, h_points)


def _leg_product(x: np.ndarray, legs_x: tuple, y: np.ndarray, legs_y: tuple,
                 dims: tuple, fixed: tuple = ()) -> Iterator[np.ndarray]:
    """Row blocks of (x on ``legs_x``)(y on ``legs_y``) on the tensor product
    of spaces of sizes ``dims``, a dense matrix in kron ordering.  x's row
    and column indices run over its legs in the order given, in kron
    ordering, and so do y's; every leg is a leg of x or of y.

    A generator: one block per index tuple of the legs ``fixed``, in
    ``itertools.product`` order, holding the product's rows with those legs
    at those indices, in kron ordering of the other legs.  With nothing
    fixed, the one block is the whole d x d product.

    Only the shared legs s are summed.  With i, j the product's row and
    column legs,

        out[i, j] = sum_s x[i on legs_x, (j on x's own legs, s)]
                          y[(i on y's own legs, s), j on legs_y],

    one matmul of shape (D_x^2 / S, S) @ (S, D_y^2 / S) for operator sizes
    D_x, D_y and shared size S: d^2 S multiply-adds for the product's size
    d = D_x D_y / S, where the product of the embedded operators costs d^3.
    A fixed leg selects rows of that matmul's left factor when x acts on
    it and columns of its right factor otherwise, so each block is one
    matmul over the same sums as the whole: B blocks of d^2 S / B
    multiply-adds, each holding its d^2 / B entries twice (the matmul's
    output and its copy in kron ordering) while it is formed.
    """
    shared = sorted(set(legs_x) & set(legs_y))
    own_x = [s for s in legs_x if s not in shared]
    own_y = [s for s in legs_y if s not in shared]
    fixed_x = [s for s in fixed if s in legs_x]
    fixed_y = [s for s in fixed if s not in legs_x]
    # x's axes: the fixed rows, the other rows on legs_x, columns on its own
    # legs, then the shared ones; y's: the fixed rows, rows on the shared
    # legs, the other rows on its own legs, then columns on legs_y.  Each
    # block is then a contiguous piece of each factor
    col_x = {s: len(legs_x) + i for i, s in enumerate(legs_x)}
    row_y = {s: i for i, s in enumerate(legs_y)}
    rows_x = [s for s in legs_x if s not in fixed]
    rows_y = [s for s in own_y if s not in fixed]
    a = np.ascontiguousarray(x.reshape([dims[s] for s in legs_x] * 2).transpose(
        [legs_x.index(s) for s in fixed_x + rows_x] + [col_x[s] for s in own_x + shared]))
    b = np.ascontiguousarray(y.reshape([dims[s] for s in legs_y] * 2).transpose(
        [row_y[s] for s in fixed_y + shared + rows_y]
        + list(range(len(legs_y), 2 * len(legs_y)))))
    size = math.prod(dims[s] for s in shared)
    # a block's axes as its matmul gives them, and their order in the result
    axes = ([("i", s) for s in rows_x] + [("j", s) for s in own_x]
            + [("i", s) for s in rows_y] + [("j", s) for s in legs_y])
    order = [ax for ax in ((side, s) for side in "ij" for s in range(len(dims)))
             if ax in axes]
    shape = [dims[s] for _, s in axes]
    perm = [axes.index(ax) for ax in order]
    d = math.prod(dims)
    for index in itertools.product(*(range(dims[s]) for s in fixed)):
        at = dict(zip(fixed, index))
        # one expression, so the suspended generator keeps no matmul output
        yield (a[tuple(at[s] for s in fixed_x)].reshape(-1, size)
               @ b[tuple(at[s] for s in fixed_y)].reshape(size, -1)).reshape(
                   shape).transpose(perm).reshape(-1, d)


# multiply-adds of one complex matmul below which OpenBLAS runs it on the
# calling thread.  The AYBE's row blocks stay below it: on a 2-vCPU host
# (numpy 2.4 with OpenBLAS 0.3.31) a matmul handed to a parked worker thread,
# as in a fresh process or after an idle spell, took up to 2 ms where its
# work takes 20 us
_ONE_THREAD_WORK = 2 ** 16


def _aybe_six_leg(r_of, n: int, m: int, z_points, h_points) -> float:
    z1, z2, z3 = z_points
    h1, h2, h3 = h_points
    for (i, hi), (j, hj) in itertools.combinations(enumerate(h_points, 1), 2):
        if abs(hi - hj) < 1e-12:
            raise ValueError(f"h{i} = h{j} = {hi} makes the AYBE degenerate: "
                             "R with hbar = 0 has a pole at every z")
    dims = (n, n, n, m, m, m)

    def rr(za, zb, ha, hb, legs):
        # 4-leg operator (x, x~, y, y~) on N-legs (a, b) and M-legs (ta, tb)
        # of the 6-leg space ordered (1, 2, 3, 1~, 2~, 3~)
        a, b, ta, tb = legs
        return r_of(za - zb, ha - hb), (a, 3 + ta, b, 3 + tb)

    # row blocks: the legs 1, 1~, 2, 2~, 3, 3~ are fixed in turn until a
    # block's matmul, d^2 NM / (number of blocks) multiply-adds, runs on
    # one thread; no d x d product is held
    fixed, work = [], (n * m) ** 7
    for leg in (0, 3, 1, 4, 2, 5):
        if work < _ONE_THREAD_WORK:
            break
        fixed.append(leg)
        work //= dims[leg]
    # the blocks of the lhs R_12 R_23 and of the two rhs products, each R
    # built once; the maxima over the blocks are the maxima over the whole
    products = [_leg_product(*x, *y, dims, tuple(fixed)) for x, y in (
        (rr(z1, z2, h1, h2, (0, 1, 0, 1)), rr(z2, z3, h3, h2, (1, 2, 2, 1))),
        (rr(z1, z3, h3, h2, (0, 2, 2, 1)), rr(z1, z2, h1, h3, (0, 1, 0, 2))),
        (rr(z2, z3, h3, h1, (1, 2, 2, 0)), rr(z1, z3, h1, h2, (0, 2, 0, 1))))]
    gap = scale = 0.0
    for lhs, rhs, rhs2 in zip(*products):
        scale = max(scale, float(np.abs(lhs).max()))
        rhs += rhs2
        lhs -= rhs
        gap = max(gap, float(np.abs(lhs).max()))
        del lhs, rhs, rhs2  # before zip forms the next blocks
    return gap / scale


def sublattice_residuals(z, hbar, n: int, m: int, p: EllipticParams) -> tuple[float, float]:
    """Residuals of the two sublattice Fourier relations.

    First:  R(z,h) P_12  = size-NM Belavin sum in the factorized basis
            T_{M^{-1} a} (x) T~_{N^{-1} a}, arguments (N hbar, z/N).
    Second: R(z,h) P~_12 = same with basis T_{a mod N} (x) T~_{a mod M},
            arguments (M z, hbar/M).
    """
    r = symmetric_R(z, hbar, n, m, p)

    def big_sum(x, y, u, v):
        # the (a, ta) entry is varphi_A at A = placement(n, m, u, v)[a, ta]
        return pair_sum(phi_alpha(x, y, *placement(n, m, u, v), n * m, p), n, m)

    lhs1 = r @ swap_n_legs(n, m)
    rhs1 = big_sum(n * hbar, z / n, 1, 1)
    lhs2 = r @ swap_tilde_legs(n, m)
    rhs2 = big_sum(m * z, hbar / m, pow(m, -1, n), pow(n, -1, m))
    res1 = float(np.abs(lhs1 - rhs1).max() / np.abs(rhs1).max())
    res2 = float(np.abs(lhs2 - rhs2).max() / np.abs(rhs2).max())
    return res1, res2


def classical_limit_residual(z, n: int, p: EllipticParams) -> tuple[float, dict]:
    """Residual of R^h(z) = 1/h + r12 + h m12 + O(h^2) with its circle's
    {"radius", "tail"}: the largest entry of c_-1 - 1, c_0 - r12 and c_1 - m12
    over the largest of 1, r12 and m12.  c_k are the Laurent coefficients in h
    of R's table by ``elliptic._laurent`` about h = 0 on one ``phi_alpha`` call
    (radius rho |u| / N: the other poles are -omega_a).  r12 and m12 come from
    E1, wp and f_a (``classical_expansion``), an independent path."""
    coeffs, radius, tail = _laurent(lambda h: phi_alpha(z, h[:, None], *_grid(n), n, p),
                                    0.0, -omega_of(*_nonzero_grid(n), n, p.tau), p.tau)
    want = (np.eye(n * n), *classical_expansion(z, n, p))
    gap = max(np.abs(pair_sum(coeffs[k], n) - w).max() for k, w in zip((-1, 0, 1), want))
    return float(gap / max(np.abs(w).max() for w in want)), {"radius": radius, "tail": tail}
