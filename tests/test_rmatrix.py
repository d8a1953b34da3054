"""Belavin and symmetric R-matrices: unitarity, AYBE, Fourier relations."""
import itertools
import tracemalloc

import numpy as np
import pytest

from elliptop import rmatrix as rm
from elliptop.elliptic import (EllipticParams, PoleProximityError, eisenstein_E1,
                               kronecker_phi, weierstrass_p)
from elliptop.fourier import (DressedFnParams, _draw_box, f_alpha, phi_alpha, phi_big,
                              verify_identity)
from elliptop.models import make_model
from elliptop.torus import T, decompose, pair_sum, placement, reconstruct

from conftest import belavin_R, box_points, lattice


def kron_pair_sum(coeff, n, m=1):
    """Oracle: sum_{a,ta} coeff(a, ta) T_a (x) T~_ta (x) T_{-a} (x) T~_{-ta}
    as an explicit loop of np.kron products, one scalar coefficient each."""
    d = (n * m) ** 2
    out = np.zeros((d, d), dtype=complex)
    for a in lattice(n):
        for ta in lattice(m):
            out += complex(coeff(a, ta)) * np.kron(
                np.kron(T(a, n), T(ta, m)),
                np.kron(T((-a[0], -a[1]), n), T((-ta[0], -ta[1]), m)))
    return out


def rel_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestAgainstKronLoops:
    """Each R-matrix is pair_sum of a coefficient table; the loop oracle
    builds the same sum one np.kron term at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_belavin_and_classical_expansion(self, params, rng, n):
        z, hb = box_points(rng, 2)
        want = kron_pair_sum(lambda a, _: phi_alpha(z, hb, a[0], a[1], n, params), n)
        assert rel_gap(belavin_R(z, hb, n, params), want) < 1e-14
        e1 = complex(eisenstein_E1(z, params))
        wp = complex(weierstrass_p(z, params))
        r12, m12 = rm.classical_expansion(z, n, params)
        r_want = kron_pair_sum(lambda a, _: e1 if a == (0, 0) else
                               phi_alpha(z, 0.0, a[0], a[1], n, params), n)
        m_want = kron_pair_sum(lambda a, _: 0.5 * (e1 * e1 - wp) if a == (0, 0) else
                               f_alpha(z, a[0], a[1], n, params), n)
        assert rel_gap(r12, r_want) < 1e-14 and rel_gap(m12, m_want) < 1e-14

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 5), (1, 3), (3, 1)])
    def test_symmetric(self, params, rng, n, m):
        z, hb = box_points(rng, 2)
        want = kron_pair_sum(lambda a, ta: phi_big(z, hb, *a, *ta, n, m, params), n, m)
        assert rel_gap(rm.symmetric_R(z, hb, n, m, params), want) < 1e-14


def embed(op, legs, dims):
    """Oracle: op placed on ``legs`` of a tensor product of spaces of sizes
    ``dims`` as a dense matrix, np.kron(op, 1) with its legs permuted into
    place; op's indices run over its legs in the order given."""
    rest = [s for s in range(len(dims)) if s not in legs]
    order = list(legs) + rest
    shape = [dims[s] for s in order]
    full = np.kron(op, np.eye(int(np.prod(shape[len(legs):]))))
    perm = list(np.argsort(order))
    full = full.reshape(shape + shape).transpose(perm + [len(dims) + i for i in perm])
    size = int(np.prod(dims))
    return full.reshape(size, size)


class TestEmbed:
    """The test-side embedding oracle of ``TestLegProduct``."""

    @pytest.mark.parametrize("legs", [(0, 1), (1, 2), (0, 2), (2, 0)])
    def test_against_kron(self, rng, legs):
        # unequal leg sizes, so a leg placed at the wrong site cannot match;
        # real entries, whose products are exact in either order
        dims = (2, 3, 4)
        mats = [rng.normal(size=(d, d)) for d in dims]
        op = np.kron(mats[legs[0]], mats[legs[1]])
        f = [mats[s] if s in legs else np.eye(dims[s]) for s in range(3)]
        want = np.kron(np.kron(f[0], f[1]), f[2])
        assert np.array_equal(embed(op, legs, dims), want)


# the legs (a, b, ta, tb) of the six R factors of the AYBE, in its three
# products: N-legs a, b of (1, 2, 3) and M-legs ta, tb of (1~, 2~, 3~)
AYBE_PRODUCTS = (((0, 1, 0, 1), (1, 2, 2, 1)), ((0, 2, 2, 1), (0, 1, 0, 2)),
                 ((1, 2, 2, 0), (0, 2, 0, 1)))


def dense_aybe_residual(r_of, n, m, z_points, h_points):
    """Oracle: the AYBE residual of ``rmatrix.check_aybe_symmetric``'s
    docstring, each R_{ab,ta~tb~}(z_a - z_b, h_ta - h_tb) embedded as a dense
    d x d matrix and the products taken as written."""
    dims = (n, n, n, m, m, m)

    def r(a, b, ta, tb):
        op = r_of(z_points[a - 1] - z_points[b - 1], h_points[ta - 1] - h_points[tb - 1])
        return embed(op, (a - 1, 2 + ta, b - 1, 2 + tb), dims)

    lhs = r(1, 2, 1, 2) @ r(2, 3, 3, 2)
    rhs = r(1, 3, 3, 2) @ r(1, 2, 1, 3) + r(2, 3, 3, 1) @ r(1, 3, 1, 2)
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())


class TestLegProduct:
    """``rmatrix._leg_product`` contracts the shared legs of two placed
    four-leg operators; the dense product of the embedded ones is its oracle."""

    @pytest.mark.parametrize("pair", [(x, y) for x, y in AYBE_PRODUCTS]
                             + [(y, x) for x, y in AYBE_PRODUCTS], ids=str)
    def test_against_dense_embedding(self, rng, pair):
        # the six-leg space (1, 2, 3, 1~, 2~, 3~) with unequal leg sizes and
        # complex entries; each factor in both orders.  The whole product,
        # then its row blocks with the legs 1, 1~, 2, 2~, 3, 3~ fixed in
        # turn as the AYBE fixes them: rows of x in some products and rows
        # of y's own legs in others
        dims = (2, 3, 4, 3, 2, 2)
        size = int(np.prod(dims))
        placed = [(a, 3 + ta, b, 3 + tb) for a, b, ta, tb in pair]
        x, y = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                for d in (int(np.prod([dims[s] for s in legs])) for legs in placed))
        want = embed(x, placed[0], dims) @ embed(y, placed[1], dims)
        scale = np.abs(want).max()
        (got,) = rm._leg_product(x, placed[0], y, placed[1], dims)
        assert np.abs(got - want).max() <= 1e-14 * scale
        rows = want.reshape(dims + (size,))
        for k in range(1, 7):
            fixed = (0, 3, 1, 4, 2, 5)[:k]
            blocks = rm._leg_product(x, placed[0], y, placed[1], dims, fixed)
            for index, got in zip(itertools.product(*(range(dims[s]) for s in fixed)),
                                  blocks, strict=True):
                at = dict(zip(fixed, index))
                block = rows[tuple(at.get(s, slice(None)) for s in range(6))].reshape(-1, size)
                assert np.abs(got - block).max() <= 1e-14 * scale, (fixed, index)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("work", [None, 1], ids=["blocks", "rows"])
    def test_checks_equal_the_dense_residual(self, params, rng, monkeypatch, n, m, work):
        # at the default bound NM blocks; at work 1 all six legs are fixed,
        # one block per row
        if work is not None:
            monkeypatch.setattr(rm, "_ONE_THREAD_WORK", work)
        zs, hs = tuple(box_points(rng, 3)), tuple(box_points(rng, 3) / 2)
        q = rng.normal(size=((n * m) ** 2,) * 2)

        def sym(z, h):
            return rm.symmetric_R(z, h, n, m, params)

        def bad(z, h):
            # a planted defect: each R times a fixed matrix breaks the AYBE
            return sym(z, h) @ q

        for got, r_of in ((rm.check_aybe_symmetric(n, m, params, zs, hs), sym),
                          (rm.check_aybe_rational(n, m, zs, hs),
                           lambda z, h: rm.rational_symmetric_R(z, h, n, m))):
            want = dense_aybe_residual(r_of, n, m, zs, hs)
            assert got < 1e-12 and abs(got - want) < 1e-13
        # the blocks reduce an O(1) residual to the dense one too
        want = dense_aybe_residual(bad, n, m, zs, hs)
        assert want > 1e-3
        assert abs(rm._aybe_six_leg(bad, n, m, zs, hs) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n,m", [(2, 5), (3, 4)])
    def test_peak_memory_below_one_product(self, params, n, m):
        # the residual is reduced one row block at a time: no d x d complex
        # matrix (d^2 16 bytes: 15.3 MB at (2, 5), 45.6 MB at (3, 4)) is held
        d = (n * m) ** 3
        tracemalloc.start()
        try:
            rm.check_aybe_symmetric(n, m, params, (0.1, 0.2 + 0.4j, 0.3j),
                                    (0.05 + 0.1j, 0.27, 0.13 + 0.2j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= d * d * 16

    @pytest.mark.parametrize("n,m", [(2, 3), (1, 4)])
    def test_swapped_m_legs_break_the_aybe(self, params, rng, n, m):
        # negative control: the same AYBE with the second R's two M-legs
        # exchanged (conjugated by P~) must fail.  Not at M = 2, where
        # -ta = ta makes each T~_ta (x) T~_-ta symmetric under the exchange
        zs, hs = tuple(box_points(rng, 3)), tuple(box_points(rng, 3) / 2)
        pt = rm.swap_tilde_legs(n, m)
        calls = []

        def r_of(z, h):
            calls.append(None)
            r = rm.symmetric_R(z, h, n, m, params)
            return pt @ r @ pt if len(calls) == 2 else r

        assert rm._aybe_six_leg(lambda z, h: rm.symmetric_R(z, h, n, m, params),
                                n, m, zs, hs) < 1e-9
        assert rm._aybe_six_leg(r_of, n, m, zs, hs) > 1e-3
        assert len(calls) == 6


class TestBelavin:
    def test_n1_is_scalar_phi(self, params, rng):
        z, hb = box_points(rng, 2)
        r = belavin_R(z, hb, 1, params)
        assert r.shape == (1, 1)
        assert abs(r[0, 0] - kronecker_phi(z, hb, params)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitarity_explicit_factor(self, params, rng, n):
        # the GL_N x GL_M unitarity at M = 1: N^2 (wp(N hbar) - wp(z)) 1
        z, hb = box_points(rng, 2)
        assert rm.symmetric_unitarity_residual(z, hb / 2, n, 1, params) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fourier_swap(self, params, rng, n):
        # the first sublattice relation at M = 1: R^hbar(z) P = R^{z/N}(N hbar)
        z, hb = box_points(rng, 2)
        assert rm.sublattice_residuals(z, hb / 2, n, 1, params)[0] < 1e-11

    def test_fourier_swap_joint_with_e913(self, params):
        """The swap relation and the e913 family stand or fall together:
        assert the joint pass at the same seed for each N."""
        for n in (2, 3, 5):
            rng = np.random.default_rng(100 + n)
            z, hb = box_points(rng, 2)
            swap_ok = rm.sublattice_residuals(z, hb / 2, n, 1, params)[0] < 1e-10
            rep = verify_identity("e913", DressedFnParams(n, 1, params),
                                  samples=8, seed=100 + n, tol=1e-10)
            assert swap_ok and rep.passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_aybe(self, params, rng, n):
        # the six-leg AYBE at M = 1 with h = (hbar, 0, eta)
        zs = box_points(rng, 3)
        hb, eta = box_points(rng, 2) / 2
        assert rm.check_aybe_symmetric(n, 1, params, tuple(zs),
                                       (hb, 0.0, eta + 0.1)) < 1e-10

    def test_aybe_rejects_degenerate(self, params):
        with pytest.raises(ValueError):
            rm.check_aybe_symmetric(2, 1, params, (0.1, 0.2, 0.3j), (0.11, 0.0, 0.11))

    def test_classical_expansion_slope(self, params, rng):
        # a log-log fit over h = 2^-3 ... 2^-10: a second path beside the
        # library's successive-ratio estimator
        (z,) = box_points(rng, 1)
        r12, m12 = rm.classical_expansion(z, 2, params)
        hs = 2.0 ** -np.arange(3, 11)
        errs = [np.abs(belavin_R(z, h, 2, params) - np.eye(4) / h - r12 - h * m12).max()
                for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_classical_r_fd_oracle(self, params, rng):
        # (R^h + R^{-h})/2 = r12 + O(h^2): the pole and the odd h term drop
        # out, and the gap shrinks quartically when h is quartered
        n = 2
        (z,) = box_points(rng, 1)
        r12, _ = rm.classical_expansion(z, n, params)

        def gap(h):
            sym = 0.5 * (belavin_R(z, h, n, params)
                         + belavin_R(z, -h, n, params))
            return np.abs(sym - r12).max()

        g1, g2 = gap(1e-3), gap(2.5e-4)
        assert g1 < 1e-2
        assert 10 < g1 / g2 < 26  # h^2 scaling

    def test_n1_classical_coeffs(self, params, rng):
        (z,) = box_points(rng, 1)
        r12, m12 = rm.classical_expansion(z, 1, params)
        e1 = eisenstein_E1(z, params)
        assert abs(r12[0, 0] - e1) < 1e-12
        assert abs(m12[0, 0] - 0.5 * (e1 ** 2 - weierstrass_p(z, params))) < 1e-11


# the tau scan of the classical-limit check: moderate, large and small Im tau
SCAN_TAUS = (0.3 + 1.1j, 0.5 + 2j, 0.2 + 0.35j, 0.1 + 0.2j, 0.4 + 3j, -0.45 + 0.9j,
             0.15j, 0.5 + 4.5j)


class TestClassicalLimitResidual:
    """The Laurent coefficients of R^h in h against the explicit expansion,
    under the CLI's default tolerance 1e-9."""

    @pytest.mark.parametrize("tau", SCAN_TAUS, ids=str)
    def test_sweep_passes_and_wrong_expansions_fail(self, tau, rng, monkeypatch):
        p = EllipticParams(tau)
        expansion, memo = rm.classical_expansion, {}

        def exact(z, n, p):  # each point's expansion is computed once
            if (z, n) not in memo:
                memo[z, n] = expansion(z, n, p)
            return memo[z, n]

        def m12_scaled(z, n, p):
            r12, m12 = exact(z, n, p)
            return r12, 1.01 * m12

        def r12_dropped(z, n, p):  # without its a = (0, 1) term
            r12, m12 = exact(z, n, p)
            term = phi_alpha(z, 0.0, 0, 1, n, p) * np.kron(T((0, 1), n), T((0, -1), n))
            return r12 - term, m12

        for n in (2, 3, 4):
            for z in box_points(rng, 20, tau):
                for variant, ok in ((exact, True), (m12_scaled, False),
                                    (r12_dropped, False)):
                    monkeypatch.setattr(rm, "classical_expansion", variant)
                    residual, extra = rm.classical_limit_residual(z, n, p)
                    assert (residual < 1e-9) == ok, (variant.__name__, n, z, extra)

    def test_radius_and_tail(self, rng):
        # the nearest other pole in h is at |u| / N, u = 1 at this tau
        p = EllipticParams(0.3 + 1.1j)
        for n in (1, 2, 3, 4):
            residual, extra = rm.classical_limit_residual(box_points(rng, 1)[0], n, p)
            assert residual < 1e-13
            assert extra["radius"] == pytest.approx(0.3 / n, rel=1e-14)
            assert extra["tail"] < 1e-7

    def test_circle_inside_the_pole_guard_raises(self, rng):
        # the circle's radius 0.3 / 7 is below pole_guard = 0.05
        p = EllipticParams(0.3 + 1.1j, pole_guard=0.05)
        with pytest.raises(PoleProximityError, match="pole_guard = 5.0e-02"):
            rm.classical_limit_residual(box_points(rng, 1)[0], 7, p)


def partial_trace_2(r, smat, n):
    """(1/N) tr_2(r (1 (x) S)), with 1 (x) S formed as a Kronecker product."""
    prod = (r @ np.kron(np.eye(n), smat)).reshape(n, n, n, n)
    return np.trace(prod, axis1=1, axis2=3) / n


class TestLaxFromR:
    """The top's Lax pair from the R-matrix: L^eta(z) = (1/N) tr_2(R^eta_12(z) S_2),
    since tr(T_{-a} T_b) = N delta_ab, and -(1/N) tr_2(r_12(z) S_2) is M up
    to the scalar E1(z) S_0 1_N, which cancels in the Lax equation."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_top_lax(self, params, rng, n):
        z, eta = box_points(rng, 2)
        smat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        model = make_model("rel-top", n, params, eta=eta)
        f = decompose(smat, n).reshape(n, n, 1, 1)
        want = model.L_of(f, z)
        got = partial_trace_2(belavin_R(z, eta, n, params), smat, n)
        assert np.abs(got - want).max() < 1e-11

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_m_offset_is_E1_scalar(self, params, rng, n):
        z, eta = box_points(rng, 2)
        smat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        model = make_model("rel-top", n, params, eta=eta)
        f = decompose(smat, n).reshape(n, n, 1, 1)
        want = model.M_of(f, z) \
            - eisenstein_E1(z, params) * f[0, 0, 0, 0] * np.eye(n)
        got = -partial_trace_2(rm.classical_expansion(z, n, params)[0], smat, n)
        assert np.abs(got - want).max() < 1e-11

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_identity_matrix_single_mode(self, params, rng, n):
        # S = 1_N decomposes to a delta at 0, so L = phi(z, eta) 1_N
        z, eta = box_points(rng, 2)
        got = partial_trace_2(belavin_R(z, eta, n, params), np.eye(n), n)
        want = complex(kronecker_phi(z, eta, params)) * np.eye(n)
        assert np.abs(got - want).max() < 1e-12


class TestSymmetricR:
    def test_m1_reduces_to_belavin(self, params, rng):
        z, hb = box_points(rng, 2)
        for n in (2, 3):
            got = rm.symmetric_R(z, hb, n, 1, params)
            want = belavin_R(z, hb, n, params)
            assert np.abs(got - want).max() < 1e-12

    def test_n1_reduces_to_swapped_belavin(self, params, rng):
        z, hb = box_points(rng, 2)
        m = 3
        got = rm.symmetric_R(z, hb, 1, m, params)
        want = belavin_R(hb, z, m, params)
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_unitarity(self, params, rng, n, m):
        z, hb = box_points(rng, 2)
        assert rm.symmetric_unitarity_residual(z, hb / 2, n, m, params) < 1e-9

    @pytest.mark.parametrize("tau,seed,at_floor", [(0.1j, 2, True), (0.1j, 0, False),
                                                   (0.1j, 1, False), (0.3 + 1.1j, 2, False)])
    def test_unitarity_residual_is_a_rounding_floor(self, tau, seed, at_floor):
        # `rmatrix --N 2 --M 3 --tau 0+0.1i --seed 2` fails its 1e-8 gate at
        # 2.2e-7: |wp(2h)| ~ |wp(3z)| ~ 329 cancel to |fac| = 8.0e-6, and the
        # floor eps max|R| max|R21| (NM)^2 / |fac| of the normalised product
        # is 1.3e-7.  The points are the command's first two draws.
        n, m, p = 2, 3, EllipticParams(tau)
        rng = np.random.default_rng(seed)
        z, h = (complex(_draw_box(rng, 1, 1, tau)[0, 0]) for _ in range(2))
        h /= 2
        res = rm.symmetric_unitarity_residual(z, h, n, m, p)
        sn = rm.swap_n_legs(n, m)
        r = rm.symmetric_R(z, h, n, m, p)
        r21 = sn @ rm.symmetric_R(-z, h, n, m, p) @ sn
        fac = (n * m) ** 2 * (complex(weierstrass_p(n * h, p))
                              - complex(weierstrass_p(m * z, p)))
        floor = (np.finfo(float).eps * np.abs(r).max() * np.abs(r21).max()
                 * (n * m) ** 2 / abs(fac))
        if at_floor:
            assert 1e-8 < res <= 4 * floor
            assert abs(fac) < 1e-5
        else:
            assert res < 1e-11

    def test_aybe(self, params, rng):
        zs = tuple(box_points(rng, 3))
        hs = tuple(box_points(rng, 3) / 2)
        assert rm.check_aybe_symmetric(2, 3, params, zs, hs) < 1e-9

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("hs,pair", [((0.2, 0.2, 0.5), "h1 = h2"),
                                         ((0.2, 0.5, 0.2), "h1 = h3"),
                                         ((0.2, 0.5, 0.5), "h2 = h3")])
    def test_aybe_rejects_coinciding_h(self, params, m, hs, pair):
        # these once failed late with a pole named 'z' = 0j
        with pytest.raises(ValueError, match=pair):
            rm.check_aybe_symmetric(2, m, params, (0.1, 0.2 + 0.4j, 0.3j), hs)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_sublattice_relations(self, params, rng, n, m):
        z, hb = box_points(rng, 2)
        r1, r2 = rm.sublattice_residuals(z, hb / 2, n, m, params)
        assert r1 < 1e-10 and r2 < 1e-10

    def test_coprimality_enforced(self, params):
        with pytest.raises(ValueError):
            rm.symmetric_R(0.3j, 0.2, 2, 4, params)


def scattered_table(x, y, n, m, dict_n, dict_m, params):
    """Reference sublattice table: varphi_A over Z_NM^2 scattered onto
    Z_N^2 x Z_M^2 through A -> (dict_n A mod N, dict_m A mod M)."""
    nm = n * m
    big1, big2 = np.divmod(np.arange(nm * nm), nm)
    g = dict_n * big1 % n * n + dict_n * big2 % n
    t = dict_m * big1 % m * m + dict_m * big2 % m
    c = np.empty((n * n, m * m), dtype=complex)
    c[g, t] = phi_alpha(x, y, big1, big2, nm, params)
    return c


class TestPlacement:
    """``torus.placement`` inverts the two maps of the sublattice relations;
    gathering varphi_A at it gives the scattered table bit for bit."""

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 5), (3, 4), (5, 2)])
    @pytest.mark.parametrize("relation", [1, 2])
    def test_gather_inverts_the_scatter(self, params, rng, n, m, relation):
        nm = n * m
        minv, ninv = pow(m, -1, n), pow(n, -1, m)
        z, hb = box_points(rng, 2)
        if relation == 1:
            (u, v), (dict_n, dict_m), (x, y) = (1, 1), (minv, ninv), (n * hb, z / n)
        else:
            (u, v), (dict_n, dict_m), (x, y) = (minv, ninv), (1, 1), (m * z, hb / m)
        big1, big2 = placement(n, m, u, v)
        # a bijection onto Z_NM^2
        assert sorted((big1 * nm + big2).tolist()) == list(range(nm * nm))
        # inverse of A -> (dict_n A mod N, dict_m A mod M), (a, ta) row-major
        a1, a2, t1, t2 = (ax.ravel() for ax in np.indices((n, n, m, m)))
        assert np.array_equal(dict_n * big1 % n, a1) and np.array_equal(dict_n * big2 % n, a2)
        assert np.array_equal(dict_m * big1 % m, t1) and np.array_equal(dict_m * big2 % m, t2)
        gathered = phi_alpha(x, y, big1, big2, nm, params).reshape(n * n, m * m)
        want = scattered_table(x, y, n, m, dict_n, dict_m, params)
        assert np.array_equal(gathered, want)
        assert np.array_equal(pair_sum(gathered, n, m), pair_sum(want, n, m))


class TestRationalR:
    def test_structural_symmetry(self):
        # (z <-> hbar, N <-> M, legs <-> tilde legs) maps the expression
        # onto itself; verify on matrix entries via the leg-exchange map
        n, m = 2, 3
        z, hb = 0.37, 0.59
        a = rm.rational_symmetric_R(z, hb, n, m)
        b = rm.rational_symmetric_R(hb, z, m, n)
        # exchange (N-leg, M-leg) blocks: reindex (i1,j1,i2,j2) -> (j1,i1,j2,i2)
        d1, d2 = n, m
        perm = np.zeros(((d1 * d2) ** 2, (d2 * d1) ** 2))
        for i1 in range(n):
            for j1 in range(m):
                for i2 in range(n):
                    for j2 in range(m):
                        row = ((i1 * m + j1) * n + i2) * m + j2
                        col = ((j1 * n + i1) * m + j2) * n + i2
                        perm[row, col] = 1.0
        assert np.abs(a - perm @ b @ perm.T).max() < 1e-13

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (1, 3)])
    def test_leg_swaps_act_on_product_vectors(self, rng, n, m):
        # leg ordering (1, 1~, 2, 2~): u (x) u~ (x) v (x) v~
        def draw(k):
            return rng.normal(size=k) + 1j * rng.normal(size=k)

        u, ut, v, vt = draw(n), draw(m), draw(n), draw(m)

        def prod(*legs):
            out = np.ones(1)
            for x in legs:
                out = np.kron(out, x)
            return out

        x = prod(u, ut, v, vt)
        assert np.abs(rm.swap_n_legs(n, m) @ x - prod(v, ut, u, vt)).max() < 1e-14
        assert np.abs(rm.swap_tilde_legs(n, m) @ x - prod(u, vt, v, ut)).max() < 1e-14

    def test_aybe_reported(self):
        # informative: the rational degeneration turns out to satisfy the
        # same three-term identity
        z = (0.31, 0.87, 1.4)
        h = (0.21, 0.55, 1.13)
        assert rm.check_aybe_rational(2, 3, z, h) < 1e-12

    def test_zero_arguments_rejected(self):
        with pytest.raises(ValueError):
            rm.rational_symmetric_R(0.0, 0.3, 2, 3)
