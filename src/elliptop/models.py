"""Lax pairs, equations of motion, and reduction constraints for the
elliptic top family.

Three model bodies (the CLI kind strings in parentheses); the other two
kinds are parameter maps onto the smallest case of one of them:

* scalar non-relativistic top (``nonrel-top``):
    L = sum'_a T_a S_a varphi_a(z, omega_a),  M = sum'_a T_a S_a f_a(z, omega_a),
    dS/dt = [S, J(S)] with J_a = -wp(omega_a)
* matrix top (``matrix-top``), blocks S_a in Mat(M), y = eta/N:
    L = sum_a T_a (x) S_a varphi_a(z, y + omega_a),
    M = -sum'_a T_a (x) S_a varphi_a(z, omega_a);
  the scalar relativistic top (``rel-top``, N, eta) is its M = 1 case
  with y = eta,
* coupled GL_N x GL_M model (``coupled``), Mat(K) blocks A^{a,ta}:
    L(z, eta) = sum_{a, ta} A^{a,ta} Phi_{a,ta}(z, eta);
  in the coordinates curlyA = to_big(A) on Z_NM^2 it is the Gaudin-like
  top on Z_NM^2 with coupling eta/M taken at M z, Lax pair, flow and
  constraints included:
    L = sum_A curlyA^A varphi_A(M z, eta/M + omega_A),
    M = -sum'_A curlyA^A varphi_A(M z, omega_A),
  so its poles are (Z + tau Z)/M.  The Gaudin-like lattice top
  (``gaudin-lattice``, N, K, eta) is its case (N, 1, K, eta/N), where
  to_big is the identity, so it takes its fields as they are, with no
  big-lattice map: L = sum_a A^a varphi_a(z, eta/N + omega_a) and
  M = -sum'_a A^a varphi_a(z, omega_a), with fields of shape (N, N, K, K).

A model is a coefficient lattice Z_L^2 (L = N, or N*M for the coupled
model), a coupling y and a pair table over Z_L^2, all built once by
``_LatticeTop``.  Its L evaluates varphi_A(s z, y + omega_A), s = M for
the coupled model and 1 otherwise, so ``check_coupling`` rejects an eta
that puts some y + omega_A, A in Z_L^2, on the period lattice, and the
poles of L and M form (Z + tau Z)/s (``pole_distance``).  Its inertia is
J_A = E1(y + omega_A) - E1(omega_A), omega_A = (A1 + A2 tau)/L
(-wp(omega_A) for the non-relativistic top, which has no y).  Its
reduction is the pair projection ``_pair_project``: c_A = curlyA^A /
varphi_A(y, omega_A) (weight 1 without y) is set to c_{-A} = s_A c_A by
averaging each pair A <-> -A, with s_A the T-reduction sign of -A for the
T-paired tops and 1 otherwise, and the zero block is made a scalar.
``project`` is that projection of the blocks of into(field), mapped back
by out_of (the maps below), for a field or a stack of fields.
``z2-nonrel``, ``z2-rel`` and the three ``*-constraints`` are this one
projection over their models' tables; the ``z2-nonrel`` fields are the
fixed points of S -> h S h^-1.  A model carries its reduction as
``model.reduction``, fixed by ``make_model``: matrix-top, gaudin-lattice
and coupled always carry theirs, the scalar tops only when it is asked
for.  ``random_field`` projects exactly when it is set, and
``constraint_deviation`` measures the distance to it.
Every Lax matrix is a coefficient vector contracted with a basis stack,
L(z) = sum_i c_i(z) B_i, written once too (``_contract``), and a model's
L and M are ``L_of`` and ``M_of``, the only readers of its coefficient
rows: for a field or a stack of fields, at a scalar z or a 1-D array of
z.  ``lax_residual`` and the monitors of ``dynamics.integrate`` call
them.  The T_a come from the shared ``torus.t_stack``.

``CoupledTop.L_of`` is the form w303 of the coupled matrix L(z, eta),
the big field to_big(A) against varphi_A(M z, omega_A + eta/M), A in
Z_NM^2.  It has three dual forms, each one such contraction of a block
stack with one batched coefficient row (z scalar or a 1-D array, as for
L_of).  ``torus.placement``, (M a + N ta) mod NM, places Z_N^2 x Z_M^2 in
Z_NM^2.  None of them goes through the big lattice:

* ``coupled_form_w305``: the Z_N-Fourier blocks ft_coeffs(A, N), placed
  at A = (M g + N ta) mod NM, against varphi_A(N eta, omega_A + z/N);
* ``coupled_form_w307``: ft_coeffs of A over its Z_N axes, then over its
  Z_M axes, read at ((M^-1 g) mod N, (N ta) mod M), against
  Phi_{g,ta}(N eta/M, M z/N) (to_big(A) read at (M a + N ta) mod NM,
  Fourier transformed over Z_N);
* ``coupled_form_w308``: A relabelled by sigma, B^{tg,al} =
  A^{(M al) mod N, (N^-1 tg) mod M}, against the Phi of Z_M^2 x Z_N^2 at
  (eta, z) (the same gathered field Fourier transformed over Z_M).

In w305, w307 and w308 z takes the place of eta and eta that of z: the
finite Fourier transform exchanges the two arguments, and on the field
itself it is only the relabelling sigma: the (N, M) model at coupling eta,
taken at z0, is the (M, N) model at coupling z0, taken at eta, on sigma A.

Every top's equations of motion are the quadratic flow dS = [S, J(S)],
written in two ways.  A T-paired top with K = 1 (nonrel-top, rel-top,
matrix-top at M = 1) uses one weight row per mode (``_LatticeTop``): its
coefficients commute, so the two orderings of the commutator fold into
one weight.  Every other top evaluates one commutator [x, y] per dual
point.  For the matrix top that is the single point x = S = sum_a T_a (x)
S_a in Mat(NK), y = J(S), with dS_a read back from the T-decomposition
of [x, y] and dS_0 = 0.  The coupled flow (and so the Gaudin-like one,
M = 1) is one convolution on Z_L^2, L = N*M, in the coordinates
curlyA = to_big(A), evaluated as a commutator at each point of the dual
lattice:

    d curlyA^A = sum_{G != 0} J_G (curlyA^{A-G} curlyA^G - curlyA^G curlyA^{A-G})
                 (A != 0),   d curlyA^0 = 0,

with J of the coupling y = eta/M and J_0 = 0.  With x = F curlyA and
y = F (J curlyA) for the discrete Fourier transform F on Z_L^2,
d curlyA = F^-1 [x, y] with the zero mode dropped.  The Lax equation
fixes M only up to a z-independent C, and the eom has no term [C, curlyA^A]
because for complex fields that conjugation drives the coefficients along
a non-compact gauge orbit, where the field norm grows.  No eom evaluates
the Lax coefficients, so lax_residual, which does, stays an independent
check; the unconstrained field is its negative control wherever the
blocks are larger than 1 x 1 (with 1 x 1 blocks the Lax equation holds
without constraints).

One commutator kernel, ``_dual_eom``, runs every commutator flow, on
maps each model fixes once at construction, the callables
(f, f^-1, into, out_of, tile): into takes the flat coefficients to the
flat lattice field and out_of = into^-1 = into^H takes it back (to_big
and from_big for the coupled model, the identity for the T-paired tops
and gaudin-lattice), f takes that field
to the dual points (F by one L x L DFT along each axis of Z_L^2, or the
entries of sum_a T_a (x) S_a in Mat(N), one point of tile N), and f^-1
inverts f.  x and y are f into S and f J into S, and the backward map is
f^-1 with the zero mode set to 0, then out_of.  ``eom_rhs`` applies the
maps per call (``_LatticeTop._one_shot``), so a Lax check, which makes
one eom call, builds no C x C array.  ``dynamics.integrate`` steps with
``_stepper`` instead, which tabulates the maps on a model's first run and
keeps the plan (``_DualPlan``): the forward map is the one-shot forward
map of the C unit vectors, the backward map its conjugate transpose less
the zero mode's outer product, over c for f^H f = c 1.  The two ways
round differently and agree at rounding level.

The kernel runs on the flat state (C, K^2), one K x K block per row,
which is the shape ``dynamics.integrate`` steps (``state_shape``): the
forward map (one matmul in the plan), two index gathers, the commutator,
the backward map.  The gathers (``_gathers``, one set per R, K and tile
for R dual rows) are index arrays that place each entry of the forward
image where the commutator reads it, so the kernel reshapes, transposes
and broadcasts nothing.  numpy's stacked x @ y - y @ x dispatches one
BLAS call per K x K block, which costs more than the arithmetic of a
small block.  At the Fourier-dual
points with K = 2, 3 or 4 the kernel therefore does without it: the
gathers give every entry product x_ij y_jl and y_ij x_jl in one
multiply, and one matmul with a constant (2 K^3, K^2) matrix of +-1 does
the j-sum and the commutator's minus together.  The matrix top's single
point of size N K, K = 1 (where the stacked matmul keeps the flow exactly
0) and K > 4 keep the stacked matmul; there the gathers lay out x and y
as (tile K) x (tile K) matrices and a third gather reads the
commutator's K x K blocks back in row order.  Per eom call on the flat
state of gaudin-lattice N = 3 (2 vCPU, numpy 2.4.6; min of interleaved
repeats), stacked matmul -> entry products:

    K = 2: 14.8 -> 6.7 us      K = 3: 15.7 -> 9.8 us
    K = 4: 16.9 -> 15.3 us     K = 5: 19.8 -> 27.9 us

The two kernels round the two products of a commutator differently, so
a trajectory depends at rounding level on which one its K selects.
coupled (2, 3, 2) takes 11.6 us per call, matrix-top (2, 3) 8.1 us and
the weight row of nonrel-top N = 2 1.8 us.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .elliptic import (TWO_PI_I, EllipticParams, _laurent, eisenstein_E1,
                       kronecker_phi, lattice_distance, weierstrass_p)
from .fourier import (_draw_box, check_coprime, f_alpha, ft_coeffs, omega_of,
                      phi_alpha, phi_big)
from .torus import (_grid, _nonzero_grid, _product, decompose, kappa, placement,
                    reconstruct, reduction_sign, t_stack)

# REDUCTION_KINDS[i] is the reduction of model kind MODEL_KINDS[i]
MODEL_KINDS = ("nonrel-top", "rel-top", "matrix-top", "gaudin-lattice", "coupled")
REDUCTION_KINDS = ("z2-nonrel", "z2-rel", "matrix-top-constraints",
                   "gaudin-constraints", "coupled-constraints")
# the most entries of a coefficient row stack (points x C), a basis stack
# (fields x C x size^2) or a matrix stack that one L_of block of
# lax_residual or of the evolve monitors evaluates
_LAX_BLOCK = 2 ** 16


# --------------------------------------------------------------------------
# shared lattice helpers
# --------------------------------------------------------------------------

def _column(z) -> np.ndarray:
    """Spectral points as a trailing axis that broadcasts against index arrays."""
    return np.asarray(z, dtype=complex)[..., None]


def _contract(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_i coeffs[..., i] basis[..., i, :, :]: a Lax-type matrix for each
    coefficient row, (C,) for one z or (nz, C), and each leading axis of
    the basis stack (..., C, size, size); the basis axes lead the result."""
    rows = np.reshape(coeffs, (-1, coeffs.shape[-1]))
    out = np.einsum("zi,...ijk->...zjk", rows, basis)
    return out.reshape(basis.shape[:-3] + coeffs.shape[:-1] + basis.shape[-2:])


def _with_zero_mode(values: np.ndarray) -> np.ndarray:
    """Prepend a zero for the flat index 0 that a singular coefficient skips."""
    values = np.asarray(values, dtype=complex)
    return np.concatenate((np.zeros(values.shape[:-1] + (1,)), values), axis=-1)


def _phi_weights(x, n: int, p: EllipticParams) -> np.ndarray:
    """varphi_a(x, omega_a) over flat Z_n^2; 1 at a = 0, which pairs with itself."""
    out = np.ones(n * n, dtype=complex)
    out[1:] = phi_alpha(x, 0.0, *_nonzero_grid(n), n, p)
    return out


def _pair_project(blocks: np.ndarray, partner: np.ndarray, weight: np.ndarray,
                  sign) -> np.ndarray:
    """Project K x K ``blocks`` (..., C, K, K), flat lattice index at axis
    -3, onto a reduction: symmetrize c_a = blocks[a] / weight[a] under
    a -> -a, then make the zero block a scalar.

    Each pair (a, partner[a]) is visited from its smaller index a and set to
    c_{-a} = sign[a] * c_a = sign[a] * average; self-paired indices are left
    untouched, and so is a 1 x 1 zero block, which is a scalar already.
    """
    weight = np.reshape(weight, (-1, 1, 1))
    sign = np.broadcast_to(np.reshape(sign, (-1, 1, 1)), weight.shape)
    a = np.flatnonzero(partner > np.arange(partner.size))
    b = partner[a]
    avg = 0.5 * (blocks[..., a, :, :] / weight[a]
                 + sign[a] * blocks[..., b, :, :] / weight[b])
    out = blocks.copy()
    out[..., a, :, :] = avg * weight[a]
    out[..., b, :, :] = sign[a] * avg * weight[b]
    k = blocks.shape[-1]
    if k > 1:
        trace = np.trace(out[..., 0, :, :], axis1=-2, axis2=-1)[..., None, None]
        out[..., 0, :, :] = trace / k * np.eye(k)
    return out


def _lattice_dft(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The discrete Fourier transform on flat Z_l^2, F[g, A] = exp(-2 pi i
    g.A / l), or its inverse F^H / l^2, applied to the first axis of x
    (length l^2): one l x l DFT along each axis of Z_l^2, without the
    l^2 x l^2 matrix F."""
    l = math.isqrt(len(x))
    transform = np.fft.ifft2 if inverse else np.fft.fft2
    return transform(x.reshape(l, l, -1), axes=(0, 1)).reshape(x.shape)


_lattice_idft = functools.partial(_lattice_dft, inverse=True)


@functools.cache
def _gathers(rows: int, k: int, tile: int) -> tuple:
    """The index gathers of ``_dual_eom`` on R = ``rows`` forward rows of
    K x K blocks, (left, right, signs, order): left and right place the
    entries of the flat forward image (rows x_r, y_r interleaved) where
    the kernel reads its two factors.  At tile 1 with K = 2, 3 or 4 they
    give every entry product, signs is the matrix of +-1 that sums them
    into the commutator and order is None (module docstring); otherwise
    they lay out x and y as (tile K) x (tile K) matrices, signs is None,
    and order reads the commutator's K x K blocks back in row order.  The
    arrays are shared by every call with the same (R, K, tile)."""
    # entry r, s, i, j of the forward image (s = 0: x, s = 1: y), flat
    entry = np.arange(2 * rows * k * k).reshape(rows, 2, k, k)
    if tile == 1 and 2 <= k <= 4:
        # entry products x_ij y_jl and y_ij x_jl beat the stacked matmul at
        # K = 2, 3, 4 (module docstring)
        shape = (rows, 2, k, k, k)
        left = np.broadcast_to(entry[:, :, :, :, None], shape).reshape(rows, -1)
        right = np.broadcast_to(entry[:, ::-1, None, :, :], shape).reshape(rows, -1)
        # the (2 K^3, K^2) signs take the entry products p[s, i, j, l]
        # (s = 0: x_ij y_jl, s = 1: y_ij x_jl) to [x, y]_il
        eye = np.eye(k)
        signs = np.einsum("s,ia,j,lb->sijlab", [1.0, -1.0], eye, np.ones(k), eye)
        return left, right, signs.reshape(2 * k ** 3, k * k).astype(complex), None
    # the stacked matmul: x and y as (tile K) x (tile K) matrices per point,
    # and the commutator's K x K blocks back in row order
    size = tile * k
    pair = entry.reshape(-1, tile, tile, 2, k, k).transpose(3, 0, 1, 4, 2, 5).reshape(
        2, -1, size, size)
    order = np.arange(rows * k * k).reshape(-1, tile, k, tile, k).swapaxes(2, 3).reshape(
        rows, k * k)
    return pair[0], pair[1], None, order


class _DualPlan(NamedTuple):
    """The commutator flow of one model as ``_dual_eom`` runs it: ``fwd``
    maps the flat state (C, K^2) onto the R rows of x and y, interleaved,
    and ``back`` maps the R rows (R, K^2) of [x, y] onto the flat state;
    the rest are the ``_gathers`` of (R, K, tile).  ``_LatticeTop._one_shot``
    applies the maps per call, ``_LatticeTop._stepper`` tabulates them."""

    fwd: Callable
    back: Callable
    left: np.ndarray
    right: np.ndarray
    signs: np.ndarray | None
    order: np.ndarray | None


def _dual_eom(plan: _DualPlan, state: np.ndarray) -> np.ndarray:
    """The commutator flow on a flat state (C, K^2): back [x, y], by entry
    products when the plan carries a sign matrix, else by numpy's stacked
    matmul (the commutator kernel of the module docstring)."""
    z = plan.fwd(state).ravel()
    a, b = z[plan.left], z[plan.right]
    if plan.signs is not None:
        comm = (a * b) @ plan.signs
    else:
        comm = (a @ b - b @ a).ravel()[plan.order]
    return plan.back(comm)


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

class _LatticeTop:
    """A top on the coefficient lattice Z_L^2 with coupling y.

    A field is a complex array of shape ``field_shape()``: one K x K block
    per coefficient.  ``L_of`` and ``M_of``, L(z) = sum_i c_i(z) B_i,
    contract the model's coefficient rows ``_l_coeffs(z)`` and
    ``_m_coeffs(z)`` over Z_L^2, taken at s z, with its basis stack,
    B_a = T_a (x) S_a (T-paired tops) or the blocks curlyA^A of
    into(field) (to_big for the coupled model).
    The constructor builds, once, the inertia J (``_inertia``), the pair
    table of the model's reduction (module docstring), the flow from J
    (``_set_inertia``) and the commutator flow's maps ``_maps``,
    (f, f^-1, into, out_of, tile) of the module docstring.

    A T-paired top with K = 1 runs its flow as one weight row per mode:

        dS_a = sum_{g != 0} D[a, g] S_b S_g,   b = (a - g) mod N,
        D[a, g] = s J_g (kappa_{b,g} - kappa_{g,b}),

    s the reduction sign of the raw sum b + g.  The two orderings of the
    commutator fold into one weight because S_b S_g = S_g S_b at K = 1.
    D is exactly 0 where b = g, so a single mode is exactly stationary,
    and on the row a = 0, so dS_0 = 0.  Every other top runs its flow
    through the commutator kernel ``_dual_eom`` on the maps ``_maps``:
    ``eom_rhs`` applies them per call (``_one_shot``), and the stepping
    kernel ``_stepper`` tabulates them on its first call.  ``eom_rhs``
    takes a field, and the stepping kernel its flat state of shape
    ``state_shape``, (C,) for the weight row and (C, K^2) otherwise, C the
    number of K x K blocks.
    """

    kind = ""
    reduction = None  # the model's reduction kind; make_model sets an optional one
    _t_paired = True
    _z_scale = 1      # s of varphi_A(s z, ...): L and M have their poles on (Z + tau Z)/s

    def __init__(self, n: int, params: EllipticParams, k: int = 1,
                 eta: complex | None = None, coupling: complex = 0.0,
                 side: int | None = None):
        if n < 2:
            raise ValueError(f"the {self.kind} model needs N >= 2, got N = {n}: "
                             "Z_1^2 has no non-zero modes")
        self.n = n
        self.params = params
        self.k = k
        self.eta = eta
        self._coupling = coupling   # y of varphi_a(z, y + omega_a) in L
        self._side = side = side or n
        self._a1, self._a2 = _grid(side)
        self.check_coupling()
        w = omega_of(self._a1[1:], self._a2[1:], side, params.tau)
        self._set_inertia(_with_zero_mode(self._inertia(w)).reshape(side, side))
        weight = (np.ones(side * side) if eta is None
                  else _phi_weights(coupling, side, params))
        sign = reduction_sign((-self._a1, -self._a2), n) if self._t_paired else 1.0
        partner = (-self._a1 % side) * side + (-self._a2 % side)   # the flat index of -a
        self._pair = (partner, weight, sign)
        if self._t_paired:
            # the entries of sum_a c_a T_a in Mat(N), inverted by its adjoint
            # over N: tr(T_a^H T_b) = N delta_ab; np.asarray is the identity
            t = t_stack(n).reshape(n * n, n * n).T
            self._maps = (t.__matmul__, (t.conj().T / n).__matmul__, np.asarray,
                          np.asarray, n)
        else:
            self._maps = (_lattice_dft, _lattice_idft, self._to_big, self._from_big, 1)

    def _inertia(self, w) -> np.ndarray:
        """J at the non-zero half periods w: E1(y + w) - E1(w)."""
        p = self.params
        return eisenstein_E1(self._coupling + w, p) - eisenstein_E1(w, p)

    def _set_inertia(self, j: np.ndarray) -> None:
        """Store J ((L, L), J_0 unused) and the flow's tables: the weight row
        of a T-paired top with K = 1 (``_d`` is None for every other top),
        and no stepping plan until ``_stepper`` builds one from this J."""
        self._j = j
        self._eom_plan = None
        n, size = self.n, self._side ** 2
        if not (self._t_paired and self.k == 1):
            self._d = None
            self.state_shape = (size, self.k * self.k)
            return
        g1, g2 = self._a1[1:], self._a2[1:]
        b1, b2 = (self._a1[:, None] - g1) % n, (self._a2[:, None] - g2) % n
        s = reduction_sign((b1 + g1, b2 + g2), n) * j.ravel()[1:]
        d = s * kappa((b1, b2), (g1, g2), n) - s * kappa((g1, g2), (b1, b2), n)
        d[0] = 0.0  # dS_0/dt = 0: the zero mode is left out of the flow
        self._b, self._d = b1 * n + b2, d
        self.state_shape = (size,)

    def _one_shot(self) -> _DualPlan:
        """The commutator flow's maps applied per call: fwd is f(into s) and
        f(J into s), back is f^-1 with the zero mode set to 0, then out_of.
        It builds nothing C x C."""
        f, f_inv, into, out_of, tile = self._maps
        j = self._j.reshape(-1, 1)

        def fwd(s):
            u = into(s)
            out = np.empty((len(u), 2) + s.shape[1:], dtype=complex)
            out[:, 0] = f(u)
            np.multiply(j, u, out=out[:, 1])
            out[:, 1] = f(out[:, 1])
            return out

        def back(rows):
            d = f_inv(rows)
            d[0] = 0.0
            return out_of(d)

        return _DualPlan(fwd, back, *_gathers(len(j), self.k, tile))

    def _stepper(self) -> Callable:
        """The flow on the flat state as ``dynamics.integrate`` steps it: the
        weight row, or ``_dual_eom`` on the one-shot maps tabulated, built
        on the first call and kept on the model.  fwd is the one-shot fwd
        of the unit vectors; back is (f into)^H less the zero mode's outer
        product out_of(e0) f0^H, over c = |f0|^2 (f^H f = c 1), f0 f's
        zero-mode column and e0 the zero mode's unit vector."""
        if self._d is not None:
            return self._weight_row
        if self._eom_plan is None:
            op = self._one_shot()
            f, _, _, out_of, _ = self._maps
            rows = self._j.size
            fwd = op.fwd(np.eye(rows))
            f0 = f(np.eye(rows, 1))[:, 0]
            back = fwd[:, 0].conj().T
            back -= np.outer(out_of(np.eye(rows, 1))[:, 0], f0.conj())
            back /= np.vdot(f0, f0).real
            self._eom_plan = op._replace(fwd=fwd.reshape(2 * rows, -1).__matmul__,
                                         back=back.__matmul__)
        return functools.partial(_dual_eom, self._eom_plan)

    def _weight_row(self, s: np.ndarray) -> np.ndarray:
        return (self._d * s[self._b]) @ s[1:]

    def check_coupling(self) -> None:
        """Raise ValueError naming eta as given if some Lax coefficient
        varphi_A(s z, y + omega_A) has a pole at every z: y + omega_A
        within pole_guard of the period lattice, for the model's own
        coupling y and some A of its own lattice Z_L^2, or a non-finite eta
        (a model without eta has none).  Construction runs it before any
        table is evaluated at eta."""
        eta, p = self.eta, self.params
        if eta is None:
            return
        if not np.isfinite(eta):
            raise ValueError(f"eta must be finite, got eta = {eta}")
        a1, a2 = self._a1, self._a2
        pts = self._coupling + omega_of(a1, a2, self._side, p.tau)
        dist = lattice_distance(pts, p.tau)
        i = int(np.argmin(dist))
        if dist[i] <= p.pole_guard:
            raise ValueError(
                f"eta = {eta} puts the Lax coefficient at a = ({a1[i]}, {a2[i]}) on a "
                f"pole: y + omega_a = {complex(pts[i])} is {dist[i]:.3e} from a lattice "
                f"point (pole_guard = {p.pole_guard:.1e})")

    # -- fields ------------------------------------------------------------
    def field_shape(self) -> tuple:
        """Shape of a field, the complex array of dynamical variables: one
        K x K block per lattice index, (N, N, K, K) on Z_N^2 and
        (N, N, M, M, K, K) on Z_N^2 x Z_M^2 (the scalar tops are K = 1)."""
        return (self.n, self.n, self.k, self.k)

    def random_field(self, seed: int, scale: float = 1.0) -> np.ndarray:
        """i.i.d. complex Gaussian entries, projected onto the constraints
        of the model's reduction when it has one.

        ``scale`` multiplies the unit-variance draw; long integrations use a
        reduced amplitude so the quadratic flow stays within the fixed-step
        error budget (projection is linear, so scaling commutes with it).
        """
        rng = np.random.default_rng(seed)
        shape = self.field_shape()
        with np.errstate(over="ignore", invalid="ignore"):
            data = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        if not np.isfinite(data).all():
            raise ValueError(f"the field amplitude scale = {scale!r} overflows the "
                             "draw: the initial field would have non-finite entries")
        return data if self.reduction is None else self.project(data)

    def project(self, field: np.ndarray) -> np.ndarray:
        """The model's reduction in its lattice coordinates, out_of of the
        pair projection of the blocks of into(field): c_A = curlyA^A /
        weight_A set to c_{-A} = sign_A c_A by pair averaging, and the zero
        block made a scalar.  A stack of fields is projected field by field."""
        blocks = _pair_project(self._blocks(field), *self._pair)
        return self._maps[3](blocks.reshape(blocks.shape[:-2] + (-1,))).reshape(field.shape)

    def constraint_deviation(self, field: np.ndarray) -> float:
        """||field - project(field)||, the distance from the reduction's constraints."""
        return float(np.linalg.norm(field - self.project(field)))

    # -- dynamics ------------------------------------------------------------
    def eom_rhs(self, field: np.ndarray) -> np.ndarray:
        """dS/dt at a field, of the field's shape; any other shape, the flat
        state that ``_stepper`` steps included, is a ValueError.  It runs
        the weight row, or ``_dual_eom`` on the maps applied per call
        (``_one_shot``), on the field's flat state, and builds no stepping
        plan."""
        if field.shape != self.field_shape():
            raise ValueError(f"the {self.kind} flow takes a field of shape "
                             f"{self.field_shape()}, got shape {field.shape}")
        s = field.reshape(self.state_shape)
        out = (self._weight_row(s) if self._d is not None
               else _dual_eom(self._one_shot(), s))
        return out.reshape(field.shape)

    def L_of(self, field: np.ndarray, z) -> np.ndarray:
        """L(z) of a field, (size, size) for a scalar z and (nz, size, size)
        for a 1-D array of z; a stack of fields keeps its leading axes in
        front.  The only reader of the coefficient rows ``_l_coeffs``."""
        return _contract(self._l_coeffs(z), self._basis(field))

    def M_of(self, field: np.ndarray, z) -> np.ndarray:
        """M(z), batched over z and over a stack of fields like ``L_of``."""
        return _contract(self._m_coeffs(z), self._basis(field))

    @property
    def size(self) -> int:
        return self.n * self.k if self._t_paired else self.k

    def _blocks(self, field: np.ndarray) -> np.ndarray:
        """The K x K blocks of into(field), (..., C, K, K); the leading axes
        of a stack of fields, an empty one included, are kept.  ValueError
        unless the trailing axes are ``field_shape()``."""
        lead, c, k = field.shape[:-len(self.field_shape())], self._side ** 2, self.k
        if field.shape[len(lead):] != self.field_shape():
            raise ValueError(f"a {self.kind} field has shape {self.field_shape()} (after "
                             f"any leading stack axes), got shape {field.shape}")
        return self._maps[2](field.reshape(lead + (c, k * k))).reshape(lead + (c, k, k))

    def _basis(self, field):
        """The basis stack B_i of a field, (C, size, size): the blocks of
        into(field), and T_a (x) S_a for the T-paired tops; the leading axes
        of a stack of fields are kept."""
        s = self._blocks(field)
        if not self._t_paired:
            return s
        kron = np.einsum("aij,...akl->...aikjl", t_stack(self.n), s)
        return kron.reshape(s.shape[:-2] + (self.size, self.size))

    def _off_zero(self, fn, z, *args) -> np.ndarray:
        """fn(s z, *args, a1, a2, L, params) over the non-zero indices of Z_L^2,
        0 at a = 0 (where varphi_a(z, omega_a) and f_a are singular)."""
        return _with_zero_mode(fn(_column(self._z_scale * np.asarray(z)), *args,
                                  self._a1[1:], self._a2[1:], self._side, self.params))

    def _l_coeffs(self, z):
        return phi_alpha(_column(self._z_scale * np.asarray(z)), self._coupling,
                         self._a1, self._a2, self._side, self.params)

    def _m_coeffs(self, z):
        return -self._off_zero(phi_alpha, z, 0.0)

    def pole_distance(self, z) -> np.ndarray:
        """Distance from z to the poles of L and M, the lattice (Z + tau Z)/s:
        lattice_distance(s z) / s."""
        s = self._z_scale
        return lattice_distance(s * np.asarray(z), self.params.tau) / s

    def spectral_samples(self, count: int, seed: int) -> list[complex]:
        """Generic spectral points of the sampling box (``fourier._draw_box``),
        0.05 away from the poles of L and M (s z kept 0.05 s from the period
        lattice, as in ``pole_distance``), with at most 200 redraws."""
        s = self._z_scale
        box = _draw_box(np.random.default_rng(seed), count, 1, self.params.tau,
                        lambda z: s * z, 0.05 * s, 200, "pole-free spectral points")
        return [complex(z) for z in box[:, 0]]


class NonRelativisticTop(_LatticeTop):
    """Scalar elliptic top with J_a = -wp(omega_a)."""

    kind = "nonrel-top"

    def _inertia(self, w):
        return -weierstrass_p(w, self.params)

    def _l_coeffs(self, z):
        return self._off_zero(phi_alpha, z, 0.0)

    def _m_coeffs(self, z):
        return self._off_zero(f_alpha, z)


class MatrixTop(_LatticeTop):
    """Matrix extension: L = sum_a T_a (x) S_a varphi_a(z, omega_a + eta/N);
    its flow is the commutator kernel at the one point sum_a T_a (x) S_a of
    Mat(NM), or at M = 1 the weight row of ``_LatticeTop``."""

    kind = "matrix-top"
    reduction = "matrix-top-constraints"

    def __init__(self, n: int, params: EllipticParams, eta: complex, m: int):
        self.m = m
        eta = complex(eta)
        super().__init__(n, params, m, eta, eta / n)


class RelativisticTop(MatrixTop):
    """The matrix top at M = 1 with coupling y = eta: J^eta_a = E1(eta + omega_a)
    - E1(omega_a).  Its reduction ``z2-rel`` is optional."""

    kind = "rel-top"
    reduction = None

    def __init__(self, n: int, params: EllipticParams, eta: complex):
        # y = eta itself: matrix-top's (N eta) / N differs from it in the last bit
        self.m = 1
        eta = complex(eta)
        _LatticeTop.__init__(self, n, params, 1, eta, eta)


class CoupledTop(_LatticeTop):
    """N^2 x M^2 coupled tops in Mat(K) with both parameters on the curve:
    the Gaudin-like top on Z_NM^2 with coupling eta/M, taken at M z, in the
    coordinates curlyA = to_big(A), whose blocks are its basis stack."""

    kind = "coupled"
    reduction = "coupled-constraints"
    _t_paired = False

    def __init__(self, n: int, params: EllipticParams, eta: complex, m: int, k: int):
        check_coprime(n, m)
        self.m = self._z_scale = m
        self.nm = n * m
        # the CRT placement: field index (a, ta) -> A in Z_NM^2 with A = a
        # mod N and A = ta mod M; _crt_inv is the inverse permutation
        big1, big2 = placement(n, m, pow(m, -1, n), pow(n, -1, m))
        self._crt = big1 * self.nm + big2
        self._crt_inv = np.argsort(self._crt)
        eta = complex(eta)
        super().__init__(n, params, k, eta, eta / m, self.nm)

    def field_shape(self):
        return (self.n, self.n, self.m, self.m, self.k, self.k)

    # -- big-lattice (Z_NM^2) coordinates -----------------------------------
    def to_big(self, field: np.ndarray) -> np.ndarray:
        """curly A^A = (1/M) sum_ta ktilde^2_{A,ta} A^{A mod N, ta}, A in Z_NM^2:
        ft_coeffs of A over its Z_M axes read at (A mod N, A mod M), a new
        array.  The leading axes of a stack of fields are kept."""
        blocks = self._blocks(field)
        return blocks.reshape(blocks.shape[:-3] + (self.nm, self.nm, self.k, self.k)).copy()

    def from_big(self, big: np.ndarray) -> np.ndarray:
        """The inverse of ``to_big``, which is unitary: the CRT gather
        undone, then ft_coeffs over Z_M, an involution; a new array.  The
        leading axes of a stack are kept, and any other trailing shape than
        (NM, NM, K, K) is a ValueError."""
        lead, shape = big.shape[:-4], (self.nm, self.nm, self.k, self.k)
        if big.shape[len(lead):] != shape:
            raise ValueError(f"a {self.kind} big-lattice field has shape {shape} (after "
                             f"any leading stack axes), got shape {big.shape}")
        return self._maps[3](big.reshape(lead + (-1, self.k * self.k))).reshape(
            lead + self.field_shape()).copy()

    def _to_big(self, s: np.ndarray) -> np.ndarray:
        """``to_big`` on the flat lattice axis (-2) of s, (..., C, X)."""
        return self._ft_m(s)[..., self._crt_inv, :]

    def _from_big(self, s: np.ndarray) -> np.ndarray:
        """``from_big`` on the flat lattice axis (-2) of s, (..., C, X)."""
        return self._ft_m(s[..., self._crt, :])

    def _ft_m(self, s: np.ndarray) -> np.ndarray:
        """ft_coeffs over the Z_M axes of the flat field axis (-2) of s."""
        n, m = self.n, self.m
        grid = np.moveaxis(s.reshape(s.shape[:-2] + (n, n, m, m, s.shape[-1])),
                           (-3, -2), (0, 1))
        return np.moveaxis(ft_coeffs(grid, m), (0, 1), (-3, -2)).reshape(s.shape)


class GaudinLatticeTop(CoupledTop):
    """Gaudin-type top L = sum_a A^a varphi_a(z, omega_a + eta/N) in Mat(K): the
    coupled model at M = 1 with coupling eta/N, fields of shape (N, N, K, K).
    Its big lattice is Z_N^2 itself, so its maps into and out_of (to_big and
    from_big on the flat lattice axis) are the identity, and it builds no
    CRT placement."""

    kind = "gaudin-lattice"
    reduction = "gaudin-constraints"

    def __init__(self, n: int, params: EllipticParams, eta: complex, k: int):
        self.m, self.nm = 1, n
        eta = complex(eta)
        _LatticeTop.__init__(self, n, params, k, eta, eta / n, n)

    field_shape = _LatticeTop.field_shape
    _to_big = _from_big = staticmethod(np.asarray)


# --------------------------------------------------------------------------
# model factory, Lax residual, relativization
# --------------------------------------------------------------------------

def make_model(kind: str, n: int, params: EllipticParams, eta: complex | None = None,
               m: int = 1, k: int = 1, reduction: str | None = None) -> _LatticeTop:
    """The model of ``kind`` with its reduction: ``reduction`` names one of
    REDUCTION_KINDS, each the reduction of its partner in MODEL_KINDS, so an
    unknown name or the reduction of another kind is a ValueError.  The
    scalar tops carry theirs only when it is named; the other kinds always
    carry their own.  A size M or K other than 1 that ``kind`` does not
    read is a ValueError naming it."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    for name, size, readers in (("M", m, ("matrix-top", "coupled")),
                                ("K", k, ("gaudin-lattice", "coupled"))):
        if size != 1 and kind not in readers:
            raise ValueError(f"model {kind!r} reads no size {name}: got {name} = {size}, "
                             f"but only {' and '.join(readers)} read {name}")
    if reduction is not None:
        if reduction not in REDUCTION_KINDS:
            raise ValueError(f"unknown reduction {reduction!r}; expected one of "
                             f"{REDUCTION_KINDS}")
        owner = MODEL_KINDS[REDUCTION_KINDS.index(reduction)]
        if kind != owner:
            raise ValueError(f"reduction {reduction!r} belongs to model kind "
                             f"{owner!r}, not {kind!r}")
    if kind == "nonrel-top":
        model = NonRelativisticTop(n, params)
    elif eta is None:
        raise ValueError(f"model {kind!r} needs the coupling parameter eta")
    elif kind == "rel-top":
        model = RelativisticTop(n, params, eta)
    elif kind == "matrix-top":
        model = MatrixTop(n, params, eta, m)
    elif kind == "gaudin-lattice":
        model = GaudinLatticeTop(n, params, eta, k)
    else:
        model = CoupledTop(n, params, eta, m, k)
    if reduction is not None:
        model.reduction = reduction
    return model


def lax_residual(model: _LatticeTop, field: np.ndarray, spectral_samples) -> dict:
    """max_z || dL/dt (z) - [L(z), M(z)] || over the given spectral points.

    dL/dt is L evaluated on the eom output (L is linear in the
    coefficients), so the two sides go through independent code paths.
    The points are evaluated in blocks of at most ``_LAX_BLOCK`` entries
    of L's coefficient rows or of one matrix stack, each block in one
    ``L_of`` call for both fields and one ``M_of`` call; a point's values
    do not depend on its block.  No point at all is a ValueError.
    """
    zs = np.asarray(list(spectral_samples), dtype=complex)
    if not zs.size:
        raise ValueError("lax_residual needs at least one spectral point")
    both = np.stack((field, model.eom_rhs(field)))
    step = max(1, _LAX_BLOCK // max(model._side ** 2, model.size ** 2))
    worst = np.zeros(2)   # max_abs, max_rel
    for start in range(0, len(zs), step):
        block = zs[start:start + step]
        (lm, dlm), mm = model.L_of(both, block), model.M_of(field, block)
        comm = lm @ mm - mm @ lm
        err = np.linalg.norm(dlm - comm, axis=(1, 2))
        rel = err / np.maximum(np.linalg.norm(comm, axis=(1, 2)), 1e-300)
        worst = np.maximum(worst, (err.max(), rel.max()))
    return {"max_abs": float(worst[0]), "max_rel": float(worst[1])}


def check_relativization(field: np.ndarray, eta: complex, z: complex,
                         model: _LatticeTop) -> float:
    """Residual of L^eta(z - eta, L0(eta, S)) = phi(z - eta, eta) L0(z, S)."""
    n, p = model.n, model.params
    s = field[..., 0, 0]
    a1, a2 = _grid(n)

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

@dataclass
class GaudinReduction:
    """Reduced Lax data: marked points, declared residues, the evaluator
    L(z), batched over z like ``L_of``, and the modulus of its periods."""

    marked_points: list
    residues: list
    L: Callable
    tau: complex

    def extract_residue(self, i: int) -> np.ndarray:
        """Numerical residue of L at marked point i: its order -1 coefficient
        by ``elliptic._laurent``, the other marked points being L's poles."""
        others = self.marked_points[:i] + self.marked_points[i + 1:]
        return _laurent(self.L, self.marked_points[i], others, self.tau)[0][-1]


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
        return _gaudin_reduce(field, complex(eta), n, m, model.params)
    if variant == 2:
        if model.k != m:
            raise ValueError("variant 2 needs K = M blocks")
        swapped = np.transpose(field, (2, 3, 0, 1, 4, 5))
        return _gaudin_reduce(swapped, complex(eta), m, n, model.params)
    raise ValueError("variant must be 1 or 2")


def _gaudin_reduce(data: np.ndarray, eta: complex, n: int, m: int,
                   p: EllipticParams) -> GaudinReduction:
    """Variant 1 on data[a, ta] of shape (N, N, M, M, N, N).

    The Z_N-Fourier blocks A~^{g,ta} keep their T_g component
    c_{g,ta} = tr(T_{-g} A~^{g,ta}) / N, so L(z) = sum c_{g,ta} Phi_{g,ta}(z, eta) T_g,
    whose residue at -N tw_ta is exp(2 pi i eta N ta2 / M) sum_g c_{g,ta} T_g.
    """
    g1, g2, t1, t2 = _product(_grid(n), _grid(m))
    tstack = t_stack(n)
    blocks = ft_coeffs(data, n).reshape(n * n, m * m, n, n)
    c = np.einsum("gij,gtji->gt", t_stack(n, -1), blocks) / n
    basis = np.einsum("gt,gij->gtij", c, tstack).reshape(-1, n, n)
    ta1, ta2 = _grid(m)
    phase = np.exp(TWO_PI_I * eta * n * ta2 / m)
    residues = np.einsum("gt,gij->tij", c, tstack) * phase[:, None, None]

    def L(z):
        return _contract(phi_big(_column(z), eta, g1, g2, t1, t2, n, m, p), basis)

    return GaudinReduction((-n * omega_of(ta1, ta2, m, p.tau)).tolist(),
                           list(residues), L, p.tau)


# --------------------------------------------------------------------------
# the four equivalent coefficient forms of the coupled-model matrix
# --------------------------------------------------------------------------

def coupled_form_w305(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Dual big-lattice form sum_a curlyA'^a varphi_a(N eta, omega_a + z/N),
    curlyA' the Z_N-Fourier blocks of A placed at (M g + N ta) mod NM."""
    n, k = model.n, model.k
    coeffs = phi_alpha(n * eta, _column(z) / n, *placement(n, model.m), model.nm,
                       model.params)
    return _contract(coeffs, ft_coeffs(field, n).reshape(-1, k, k))


def coupled_form_w307(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Z_N-Fourier of the big field, evaluated as Phi_{g,ta}(N eta/M, M z/N):
    ft_coeffs of A over Z_N, then over Z_M, read at ((M^-1 g) mod N,
    (N ta) mod M)."""
    n, m, k, u = model.n, model.m, model.k, pow(model.m, -1, model.n)
    g1, g2, t1, t2 = _product(_grid(n), _grid(m))
    coeffs = phi_big(n * eta / m, m * _column(z) / n, g1, g2, t1, t2, n, m, model.params)
    both = model._ft_m(ft_coeffs(field, n).reshape(-1, k * k)).reshape(field.shape)
    return _contract(coeffs, both[u * g1 % n, u * g2 % n, n * t1 % m, n * t2 % m])


def coupled_form_w308(model: CoupledTop, field: np.ndarray, z, eta) -> np.ndarray:
    """Z_M-Fourier of the big field, evaluated as Phi~_{tg,al}(eta, z), the
    Phi of Z_M^2 x Z_N^2 (N and M exchanged): A relabelled by sigma,
    B^{tg,al} = A^{(M al) mod N, (N^-1 tg) mod M}."""
    n, m, v = model.n, model.m, pow(model.n, -1, model.m)
    tg1, tg2, al1, al2 = _product(_grid(m), _grid(n))
    coeffs = phi_big(eta, _column(z), tg1, tg2, al1, al2, m, n, model.params)
    return _contract(coeffs, field[m * al1 % n, m * al2 % n, v * tg1 % m, v * tg2 % m])
