"""Belavin and symmetric R-matrices: unitarity, AYBE, Fourier relations."""
import numpy as np
import pytest

from elliptop import rmatrix as rm
from elliptop.elliptic import eisenstein_E1, kronecker_phi, weierstrass_p
from elliptop.fourier import DressedFnParams, f_alpha, phi_alpha, phi_big, verify_identity
from elliptop.models import make_model
from elliptop.torus import T, decompose, lattice, reconstruct

from conftest import box_points


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
        assert rel_gap(rm.belavin_R(z, hb, n, params), want) < 1e-14
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


class TestEmbed:
    @pytest.mark.parametrize("legs", [(0, 1), (1, 2), (0, 2), (2, 0)])
    def test_against_kron(self, rng, legs):
        # unequal leg sizes, so a leg placed at the wrong site cannot match;
        # real entries, whose products are exact in either order
        dims = (2, 3, 4)
        mats = [rng.normal(size=(d, d)) for d in dims]
        op = np.kron(mats[legs[0]], mats[legs[1]])
        f = [mats[s] if s in legs else np.eye(dims[s]) for s in range(3)]
        want = np.kron(np.kron(f[0], f[1]), f[2])
        assert np.array_equal(rm._embed(op, legs, dims), want)


class TestBelavin:
    def test_n1_is_scalar_phi(self, params, rng):
        z, hb = box_points(rng, 2)
        r = rm.belavin_R(z, hb, 1, params)
        assert r.shape == (1, 1)
        assert abs(r[0, 0] - kronecker_phi(z, hb, params)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitarity_explicit_factor(self, params, rng, n):
        z, hb = box_points(rng, 2)
        assert rm.belavin_unitarity_residual(z, hb / 2, n, params) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fourier_swap(self, params, rng, n):
        z, hb = box_points(rng, 2)
        assert rm.fourier_swap_residual(z, hb / 2, n, params) < 1e-11

    def test_fourier_swap_joint_with_e913(self, params):
        """The swap relation and the e913 family stand or fall together:
        assert the joint pass at the same seed for each N."""
        for n in (2, 3, 5):
            rng = np.random.default_rng(100 + n)
            z, hb = box_points(rng, 2)
            swap_ok = rm.fourier_swap_residual(z, hb / 2, n, params) < 1e-10
            rep = verify_identity("e913", DressedFnParams(n, 1, params),
                                  samples=8, seed=100 + n, tol=1e-10)
            assert swap_ok and rep.passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_aybe(self, params, rng, n):
        zs = box_points(rng, 3)
        hb, eta = box_points(rng, 2) / 2
        assert rm.check_aybe_belavin(n, params, tuple(zs), hb, eta + 0.1) < 1e-10

    def test_aybe_rejects_degenerate(self, params):
        with pytest.raises(ValueError):
            rm.check_aybe_belavin(2, params, (0.1, 0.2, 0.3j), 0.11, 0.11)

    def test_classical_expansion_slope(self, params, rng):
        (z,) = box_points(rng, 1)
        slope, _ = rm.classical_limit_slope(z, 2, params)
        assert abs(slope - 2.0) < 0.1

    def test_classical_r_fd_oracle(self, params, rng):
        # (R^h + R^{-h})/2 = r12 + O(h^2): the pole and the odd h term drop
        # out, and the gap shrinks quartically when h is quartered
        n = 2
        (z,) = box_points(rng, 1)
        r12, _ = rm.classical_expansion(z, n, params)

        def gap(h):
            sym = 0.5 * (rm.belavin_R(z, h, n, params)
                         + rm.belavin_R(z, -h, n, params))
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


class TestLaxFromR:
    def test_matches_top_lax(self, params, rng):
        n = 3
        z, eta = box_points(rng, 2)
        smat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        model = make_model("rel-top", n, params, eta=eta)
        f = decompose(smat, n).reshape(n, n, 1, 1)
        want = model.L_of(f, z)
        got = rm.lax_from_R(smat, z, eta, n, params)
        assert np.abs(got - want).max() < 1e-11

    def test_m_offset_is_E1_scalar(self, params, rng):
        n = 3
        z, eta = box_points(rng, 2)
        smat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        model = make_model("rel-top", n, params, eta=eta)
        f = decompose(smat, n).reshape(n, n, 1, 1)
        want = model.M_of(f, z) \
            - eisenstein_E1(z, params) * f[0, 0, 0, 0] * np.eye(n)
        got = rm.m_from_r(smat, z, n, params)
        assert np.abs(got - want).max() < 1e-11

    def test_identity_matrix_single_mode(self, params, rng):
        # S = 1_N decomposes to a delta at 0, so L = phi(z, eta) 1_N
        n = 3
        z, eta = box_points(rng, 2)
        got = rm.lax_from_R(np.eye(n), z, eta, n, params)
        want = complex(kronecker_phi(z, eta, params)) * np.eye(n)
        assert np.abs(got - want).max() < 1e-12


class TestSymmetricR:
    def test_m1_reduces_to_belavin(self, params, rng):
        z, hb = box_points(rng, 2)
        for n in (2, 3):
            got = rm.symmetric_R(z, hb, n, 1, params)
            want = rm.belavin_R(z, hb, n, params)
            assert np.abs(got - want).max() < 1e-12

    def test_n1_reduces_to_swapped_belavin(self, params, rng):
        z, hb = box_points(rng, 2)
        m = 3
        got = rm.symmetric_R(z, hb, 1, m, params)
        want = rm.belavin_R(hb, z, m, params)
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_unitarity(self, params, rng, n, m):
        z, hb = box_points(rng, 2)
        assert rm.symmetric_unitarity_residual(z, hb / 2, n, m, params) < 1e-9

    def test_aybe(self, params, rng):
        zs = tuple(box_points(rng, 3))
        hs = tuple(box_points(rng, 3) / 2)
        assert rm.check_aybe_symmetric(2, 3, params, zs, hs) < 1e-9

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_sublattice_relations(self, params, rng, n, m):
        z, hb = box_points(rng, 2)
        r1, r2 = rm.sublattice_residuals(z, hb / 2, n, m, params)
        assert r1 < 1e-10 and r2 < 1e-10

    def test_coprimality_enforced(self, params):
        with pytest.raises(ValueError):
            rm.symmetric_R(0.3j, 0.2, 2, 4, params)


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
