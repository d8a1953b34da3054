"""Dressed functions, the lattice Fourier transform, and the identity registry."""
import numpy as np
import pytest

from elliptop.elliptic import EllipticParams, eisenstein_E1
from elliptop.fourier import (DressedFnParams, UnknownIdentityError, f_alpha,
                              ft_coeffs, omega_of, phi_alpha, phi_big,
                              registry_ids, verify_identity)

from conftest import TAU, box_points


@pytest.fixture(scope="module")
def dp(params):
    return DressedFnParams(3, 1, params)


class TestDressedFunctions:
    def test_zero_index_is_plain_phi(self, params, rng):
        from elliptop.elliptic import kronecker_phi
        z, eta = box_points(rng, 2)
        assert abs(phi_alpha(z, eta, 0, 0, 3, params)
                   - kronecker_phi(z, eta, params)) == 0.0

    def test_index_shift_invariance(self, params, rng):
        # the dressing exponent and the quasi-periodicity of phi compensate
        z, eta = box_points(rng, 2)
        n = 3
        base = phi_alpha(z, eta, 1, 2, n, params)
        assert abs(phi_alpha(z, eta, 1 + n, 2, n, params) - base) < 1e-12 * abs(base)
        assert abs(phi_alpha(z, eta, 1, 2 + n, n, params) - base) < 1e-12 * abs(base)

    def test_translation_identity_w52(self, params, rng):
        from elliptop.elliptic import kronecker_phi
        n = 3
        z, eta = box_points(rng, 2)
        for a in [(0, 1), (1, 0), (2, 2)]:
            lhs = phi_alpha(z, eta, *a, n, params) / kronecker_phi(z, eta, params)
            rhs = (phi_alpha(z + eta, 0.0, *a, n, params)
                   / phi_alpha(eta, 0.0, *a, n, params))
            assert abs(lhs - rhs) < 1e-12

    def test_f_alpha_rejects_zero(self, params):
        with pytest.raises(ValueError):
            f_alpha(0.3, 0, 0, 3, params)
        with pytest.raises(ValueError):
            f_alpha(0.3, 3, 3, 3, params)

    def test_f_alpha_fd_oracle(self, params, rng):
        # oracle: d/d_eta phi_a(z, eta + omega_a) at eta = 0, h = 1e-6
        n, h = 3, 1e-6
        (z,) = box_points(rng, 1)
        for a in [(1, 0), (1, 2)]:
            fd = (phi_alpha(z, h, *a, n, params)
                  - phi_alpha(z, -h, *a, n, params)) / (2 * h)
            assert abs(f_alpha(z, *a, n, params) - fd) < 1e-8

    def test_f_alpha_z_shift(self, params, rng):
        # z -> z + 1 multiplies f_a by the character exp(2*pi*i*a2/N); in
        # particular f_a is 1-periodic exactly when a2 = 0 mod N
        n = 3
        (z,) = box_points(rng, 1)
        v = f_alpha(z, 1, 0, n, params)
        assert abs(f_alpha(z + 1, 1, 0, n, params) - v) < 1e-11 * max(1, abs(v))
        v = f_alpha(z, 1, 2, n, params)
        fac = np.exp(2j * np.pi * 2 / n)
        assert abs(f_alpha(z + 1, 1, 2, n, params) - fac * v) < 1e-11 * max(1, abs(v))

    def test_phi_big_m1_reduces(self, params, rng):
        z, eta = box_points(rng, 2)
        for a in [(0, 0), (1, 2)]:
            lhs = phi_big(z, eta, a[0], a[1], 0, 0, 3, 1, params)
            rhs = phi_alpha(z, eta, a[0], a[1], 3, params)
            assert abs(lhs - rhs) < 1e-13 * max(1, abs(rhs))

    def test_phi_big_at_eta_zero(self, params, rng):
        # Phi_{a,ta}(z, 0) = varphi_a(z + N tw_ta, omega_a)
        n, m = 2, 3
        (z,) = box_points(rng, 1)
        a, ta = (1, 1), (2, 1)
        tw = omega_of(ta[0], ta[1], m, TAU)
        lhs = phi_big(z, 0.0, a[0], a[1], ta[0], ta[1], n, m, params)
        rhs = phi_alpha(z + n * tw, 0.0, a[0], a[1], n, params)
        assert abs(lhs - rhs) < 1e-12


class TestFourierTransform:
    def test_delta_at_zero(self):
        n = 3
        coeffs = np.zeros((n, n), dtype=complex)
        coeffs[0, 0] = 1.0
        out = ft_coeffs(coeffs, n)
        assert np.abs(out - 1.0 / n).max() < 1e-14

    def test_involution(self, rng):
        for n in (2, 3):
            coeffs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.abs(ft_coeffs(ft_coeffs(coeffs, n), n) - coeffs).max() < 1e-13

    def test_n2_sign_matrix(self):
        # the 4x4 transform at N = 2, basis order (0,0), (1,0), (0,1), (1,1)
        n = 2
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        mat = np.zeros((4, 4), dtype=complex)
        for j, a in enumerate(order):
            e = np.zeros((n, n), dtype=complex)
            e[a] = 1.0
            out = ft_coeffs(e, n)
            for i, b in enumerate(order):
                mat[i, j] = out[b]
        want = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                               [1, -1, 1, -1], [1, -1, -1, 1]])
        assert np.abs(mat - want).max() < 1e-14

    def test_blockwise(self, rng):
        n, k = 2, 3
        coeffs = rng.normal(size=(n, n, k, k)) + 1j * rng.normal(size=(n, n, k, k))
        out = ft_coeffs(coeffs, n)
        # entrywise agreement with the scalar transform
        for i in range(k):
            for j in range(k):
                assert np.abs(out[..., i, j]
                              - ft_coeffs(coeffs[..., i, j], n)).max() < 1e-13


class TestRegistry:
    def test_unknown_id(self, dp):
        with pytest.raises(UnknownIdentityError):
            verify_identity("nope", dp)

    def test_phi_family_needs_m(self, dp):
        with pytest.raises(ValueError):
            verify_identity("w33", dp)

    def test_registry_count(self, params):
        assert len(registry_ids()) == 26
        assert len(registry_ids(DressedFnParams(2, 1, params))) == 21
        assert len(registry_ids(DressedFnParams(2, 3, params))) == 26

    def test_e913_n1_trivial(self, params):
        # N = 1 collapses to the symmetry phi(hbar, z) = phi(z, hbar)
        rep = verify_identity("e913", DressedFnParams(1, 1, params), samples=4, seed=0)
        assert rep.max_abs_residual < 1e-12

    def test_e9051_exact(self, params):
        rep = verify_identity("e9051", DressedFnParams(3, 1, params), samples=1, seed=0)
        assert rep.max_abs_residual < 1e-13

    @pytest.mark.parametrize("ident", ["e913", "e916", "e920", "e922", "w52",
                                       "w86", "w91", "w93"])
    def test_scalar_identities_pass(self, ident, dp):
        rep = verify_identity(ident, dp, samples=6, seed=7, tol=1e-9)
        assert rep.passed, (ident, rep.max_rel_residual)

    @pytest.mark.parametrize("ident", ["w16", "w33", "w34", "w331", "w341"])
    def test_phi_identities_pass(self, ident, params):
        rep = verify_identity(ident, DressedFnParams(2, 3, params),
                              samples=5, seed=7, tol=1e-9)
        assert rep.passed, (ident, rep.max_rel_residual)

    def test_report_determinism(self, dp):
        a = verify_identity("e914", dp, samples=5, seed=3)
        b = verify_identity("e914", dp, samples=5, seed=3)
        assert a.as_dict() == b.as_dict()

    def test_seed_changes_samples(self, dp):
        a = verify_identity("e914", dp, samples=5, seed=3)
        b = verify_identity("e914", dp, samples=5, seed=4)
        assert a.per_sample_abs != b.per_sample_abs


class TestLimitFamilyConsistency:
    def test_e9202_sign_oracle(self, params, rng):
        """Confirm the printed sign of the kappa^2 E2 sum by differentiating
        the e916 right-hand side in hbar (central difference).

        e916 says (1/N) sum_a kappa^2 (E1(omega_a + h) + dtw) = phi_g(N h, w_g);
        its h-derivative gives sum_a kappa^2 E2(omega_a + h) = -N d/dh rhs.
        """
        n, h = 3, 1e-6
        (hb,) = box_points(rng, 1)
        hb = hb / n
        g = (2, 1)
        a1 = np.repeat(np.arange(n), n)
        a2 = np.tile(np.arange(n), n)
        k2 = np.exp(2j * np.pi * (g[0] * a2 - g[1] * a1) / n)
        from elliptop.elliptic import eisenstein_E2
        e2sum = np.sum(k2 * eisenstein_E2(hb + omega_of(a1, a2, n, TAU), params))
        fd = (phi_alpha(n * (hb + h), 0.0, *g, n, params)
              - phi_alpha(n * (hb - h), 0.0, *g, n, params)) / (2 * h)
        assert abs(e2sum + n * fd) < 1e-3 * abs(e2sum)
        # the printed closed form carries the same minus sign
        wg = omega_of(g[0], g[1], n, TAU)
        rhs_printed = (-n * n * phi_alpha(n * hb, 0.0, *g, n, params)
                       * (eisenstein_E1(n * hb + wg, params)
                          - eisenstein_E1(n * hb, params)
                          + 2j * np.pi * g[1] / n))
        assert abs(e2sum - rhs_printed) < 1e-10 * abs(rhs_printed)

    def test_e918_from_e915_limit(self, params):
        """The printed closed forms are mutually consistent: evaluating the
        e915 residual at small hbar approaches the e918 sum."""
        n = 3
        a1 = np.repeat(np.arange(n), n)
        a2 = np.tile(np.arange(n), n)
        keep = ~((a1 == 0) & (a2 == 0))

        def e915_gap(hb):
            s = np.sum(eisenstein_E1(hb + omega_of(a1, a2, n, TAU), params)
                       + 2j * np.pi * a2 / n) / n
            return s - eisenstein_E1(n * hb, params)

        e918 = np.sum(eisenstein_E1(omega_of(a1[keep], a2[keep], n, TAU), params)
                      + 2j * np.pi * a2[keep] / n) / n
        assert abs(e918) < 1e-12
        assert abs(e915_gap(1e-5)) < 1e-3

    def test_e918_from_e917_at_gamma_zero(self, params):
        n = 3
        a1 = np.repeat(np.arange(n), n)
        a2 = np.tile(np.arange(n), n)
        keep = ~((a1 == 0) & (a2 == 0))

        def e917_gap(z):
            lhs = (eisenstein_E1(z, params)
                   + np.sum(phi_alpha(z, 0.0, a1[keep], a2[keep], n, params))) / n
            return lhs - eisenstein_E1(z / n, params)

        assert abs(e917_gap(1e-5)) < 1e-3
