"""Dressed functions, the lattice Fourier transform, and the identity registry."""
import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from elliptop import fourier, models, torus
from elliptop.elliptic import (EllipticParams, eisenstein_E1, lattice_distance,
                               weierstrass_p)
from elliptop.fourier import (REGISTRY, DressedFnParams, IdentitySpec,
                              UnknownIdentityError, draw_samples, f_alpha,
                              ft_coeffs, omega_of, phi_alpha, phi_big,
                              registry_ids, verify_identity)

from conftest import TAU, box_points, lattice


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


def per_column(fn, args, indices, *rest):
    """fn over a sweep, each index column evaluated in a call of its own."""
    idx = np.broadcast_arrays(*(np.asarray(i) for i in indices))
    shape = np.broadcast_shapes(*(np.shape(a) for a in args), idx[0].shape)
    one = (1,) * idx[0].ndim
    out = np.empty(shape, dtype=complex)
    for pos in np.ndindex(idx[0].shape):
        col = fn(*args, *(i[pos].reshape(one) for i in idx), *rest)
        out[(Ellipsis,) + pos] = col[(Ellipsis,) + (0,) * len(one)]
    return out


def distinct(*indices) -> int:
    return len(np.unique(np.stack([np.ravel(i) for i in np.broadcast_arrays(*indices)]),
                         axis=1).T)


class TestPerIndexTuple:
    """phi_alpha, f_alpha and phi_big evaluate once per distinct index tuple
    and gather the values back; each entry must be exactly the value of its
    index column evaluated alone."""

    def check(self, fn, args, indices, *rest):
        got = fn(*args, *indices, *rest)
        assert np.array_equal(got, per_column(fn, args, indices, *rest))
        return got

    def test_four_index_sweep(self, params, rng):
        n, m = 2, 3
        b1, b2, g1, g2, tb1, tb2, tg1, tg2 = fourier._phi_sweep_4(
            DressedFnParams(n, m, params))
        z, eta = box_points(rng, 3)[:, None], box_points(rng, 3)[:, None]
        big = (b1 + g1, b2 + g2, tb1 - tg1, tb2 - tg2)
        assert distinct(*big) < b1.size
        assert self.check(phi_big, (z, eta), big, n, m, params).shape == (3, b1.size)
        self.check(phi_big, (z, eta), (g1, g2, tg1 + tb1, tg2), n, m, params)
        self.check(phi_alpha, (z, eta), (b1 - g1, b2 - g2), n, params)
        keep = ~((g1 == 0) & (g2 == 0))
        self.check(f_alpha, (z,), (g1[keep] + n * b1[keep], g2[keep]), n, params)

    def test_two_index_sweep_with_columns(self, params, rng):
        n = 3
        b1, b2 = torus._grid(n)
        g1, g2 = torus._nonzero_grid(n)
        B1, G1 = torus._sweep(b1, g1)
        B2, G2 = torus._sweep(b2, g2)
        x, eta = box_points(rng, 4)[:, None], box_points(rng, 4)[:, None]
        assert distinct(B1 + G1, B2 + G2) < B1.size
        self.check(phi_alpha, (x, eta), (B1 + G1, B2 + G2), n, params)
        self.check(f_alpha, (x,), (G1, G2), n, params)
        self.check(phi_big, (x, eta), (B1, B2, G1, G2), n, 2, params)

    def test_broadcast_index_form(self, params, rng):
        # symmetric_R passes (a1[:, None], a2[:, None]) against the Z_M^2 grid
        n, m = 3, 2
        a1, a2 = torus._grid(n)
        t1, t2 = torus._grid(m)
        z, hb = box_points(rng, 2)
        got = self.check(phi_big, (z, hb), (a1[:, None], a2[:, None], t1, t2),
                         n, m, params)
        assert got.shape == (n * n, m * m)
        self.check(phi_alpha, (z, hb), (a1[:, None] + t1, a2[:, None]), n, params)
        zs = box_points(rng, 2)[:, None, None]
        self.check(phi_alpha, (zs, hb), (a1[:, None] + t1, a2[:, None]), n, params)

    def test_direct_evaluation_cases(self, params, rng):
        n = 3
        a1, a2 = torus._grid(n)
        # z varies along the index axis: every entry is its own evaluation
        zs, eta = box_points(rng, a1.size), box_points(rng, 1)[0]
        want = [phi_alpha(zs[j:j + 1], eta, a1[j:j + 1], a2[j:j + 1], n, params)[0]
                for j in range(a1.size)]
        assert np.array_equal(phi_alpha(zs, eta, a1, a2, n, params), want)
        # float indices, and integer ranges whose key would overflow
        z = box_points(rng, 2)[:, None]
        assert np.array_equal(phi_alpha(z, eta, a1 * 1.0, a2 * 1.0, n, params),
                              phi_alpha(z, eta, a1, a2, n, params))
        wide = (np.array([0, n << 40]), np.array([1, 2]), np.array([0, 1 << 30]),
                np.array([1, 0]))
        self.check(phi_big, (z, eta), wide, n, 2, params)

    def test_empty_sweep(self, params, rng):
        none = np.zeros(0, dtype=int)
        z, eta = box_points(rng, 3)[:, None], box_points(rng, 3)[:, None]
        assert self.check(phi_alpha, (z, eta), (none, none), 3, params).shape == (3, 0)
        assert self.check(f_alpha, (z,), (none, none), 3, params).shape == (3, 0)
        got = self.check(phi_big, (z, eta), (none,) * 4, 3, 2, params)
        assert got.shape == (3, 0)


def full_sweep_w92(params, z, eta):
    n, p = params.N, params.elliptic
    B1, B2, G1, G2 = torus._product(torus._grid(n), torus._nonzero_grid(n))
    tau = p.tau
    lhs = phi_alpha(z, eta, B1, B2, n, p) * phi_alpha(z, 0.0, G1, G2, n, p)
    rhs = phi_alpha(z, eta, B1 + G1, B2 + G2, n, p) * (
        eisenstein_E1(z, p)
        + eisenstein_E1(eta + omega_of(B1, B2, n, tau), p)
        + eisenstein_E1(omega_of(G1, G2, n, tau), p)
        - eisenstein_E1(z + eta + omega_of(B1 + G1, B2 + G2, n, tau), p))
    return lhs, rhs


def full_sweep_w93(params, z):
    n, p = params.N, params.elliptic
    idx = torus._product(torus._nonzero_grid(n), torus._nonzero_grid(n))
    B1, B2, G1, G2 = idx
    keep = ~(((B1 + G1) % n == 0) & ((B2 + G2) % n == 0))
    B1, B2, G1, G2 = (x[keep] for x in idx)
    tau = p.tau
    lhs = (phi_alpha(z, 0.0, B1, B2, n, p) * f_alpha(z, G1, G2, n, p)
           - phi_alpha(z, 0.0, G1, G2, n, p) * f_alpha(z, B1, B2, n, p))
    rhs = phi_alpha(z, 0.0, B1 + G1, B2 + G2, n, p) * (
        weierstrass_p(omega_of(B1, B2, n, tau), p)
        - weierstrass_p(omega_of(G1, G2, n, tau), p))
    return lhs, rhs


def full_sweep_w34(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    B1, B2, G1, G2, TB1, TB2 = torus._product(torus._grid(n), torus._nonzero_grid(n),
                                              torus._grid(m))
    tau = p.tau
    tw = omega_of(TB1, TB2, m, tau)
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(z, 0.0, G1, G2, TB1, TB2, n, m, p))
    rhs = phi_big(z, eta, B1 + G1, B2 + G2, TB1, TB2, n, m, p) * (
        eisenstein_E1(z + n * tw, p)
        + eisenstein_E1(eta + omega_of(B1, B2, n, tau), p)
        + eisenstein_E1(omega_of(G1, G2, n, tau), p)
        - eisenstein_E1(z + eta + omega_of(B1 + G1, B2 + G2, n, tau) + n * tw, p))
    return lhs, rhs


def full_sweep_w341(params, z, eta):
    n, m, p = params.N, params.M, params.elliptic
    B1, B2, TB1, TB2, TG1, TG2 = torus._product(torus._grid(n), torus._grid(m),
                                                torus._nonzero_grid(m))
    tau = p.tau
    twb = omega_of(TB1, TB2, m, tau)
    twg = omega_of(TG1, TG2, m, tau)
    wb = omega_of(B1, B2, n, tau)
    lhs = (phi_big(z, eta, B1, B2, TB1, TB2, n, m, p)
           * phi_big(0.0, eta, B1, B2, TG1, TG2, n, m, p))
    rhs = phi_big(z, eta, B1, B2, TB1 + TG1, TB2 + TG2, n, m, p) * (
        eisenstein_E1(z + n * twb, p) + eisenstein_E1(n * twg, p)
        + eisenstein_E1(eta + wb, p)
        - eisenstein_E1(z + eta + n * (twb + twg) + wb, p))
    return lhs, rhs


class TestShiftedTerms:
    """The E1 and wp terms of w92, w93, w34 and w341 run once per distinct
    tuple of index-only shifts (fourier._shifted); both sides must be bit
    for bit those of the formulas evaluated over the full sweep."""

    FULL_SWEEP = {"w92": full_sweep_w92, "w93": full_sweep_w93,
                  "w34": full_sweep_w34, "w341": full_sweep_w341}

    @pytest.mark.parametrize("samples", [1, 3, 20])
    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (3, 4)])
    def test_bits_of_the_full_sweep(self, params, n, m, samples):
        dp = DressedFnParams(n, m, params)
        for ident, full_sweep in self.FULL_SWEEP.items():
            spec = REGISTRY[ident]
            if spec.requires_m and m == 1:
                continue
            drawn = draw_samples(spec, dp, samples, np.random.default_rng(31))
            cols = fourier._columns(spec, drawn)
            got, want = spec.evaluate(dp, **cols), full_sweep(dp, **cols)
            assert np.array_equal(got[0], want[0]), (ident, "lhs")
            assert np.array_equal(got[1], want[1]), (ident, "rhs")

    def test_one_evaluation_per_distinct_shift_tuple(self, params, rng):
        n, m = 3, 2
        a1, a2, t1, t2 = torus._product(torus._grid(n), torus._grid(m))
        w, tw = omega_of(a1 % 2, a2, n, TAU), n * omega_of(t1, 0 * t2, m, TAU)
        x = box_points(rng, 4)[:, None]
        sizes = []

        def e1(z, p):
            sizes.append(np.size(z))
            return eisenstein_E1(z, p)
        got = fourier._shifted(e1, x, w, tw, p=params)
        assert sizes == [4 * distinct(a1 % 2, a2, t1)]
        assert np.array_equal(got, eisenstein_E1(x + w + tw, params))
        sizes.clear()
        assert np.array_equal(fourier._shifted(e1, 0.0, tw + 0.2, p=params),
                              eisenstein_E1(tw + 0.2, params))
        assert sizes == [m]


class TestIndexGrid:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_row_major_grid(self, n):
        # reference: the divmod construction the models module used to keep
        a1, a2 = np.divmod(np.arange(n * n), n)
        g1, g2 = torus._grid(n)
        assert np.array_equal(g1, a1) and np.array_equal(g2, a2)
        assert lattice(n) == list(zip(a1.tolist(), a2.tolist()))
        if n > 1:
            # the pair table pairs each a with -a
            partner = models.make_model("nonrel-top", n, EllipticParams(TAU))._pair[0]
            assert np.array_equal(partner, (-a1 % n) * n + (-a2 % n))


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

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    @pytest.mark.parametrize("tail", [(), (4,), (2, 3)], ids=str)
    def test_against_the_dense_kernel(self, rng, n, tail):
        # A~^b = (1/N) sum_a kappa^2_{b,a} A^a with the kernel summed
        # directly, kappa^2_{b,a} = exp(2 pi i (a1 b2 - a2 b1) / N)
        b1, b2, a1, a2 = np.indices((n, n, n, n))
        kernel = np.exp(2j * np.pi * ((a1 * b2 - a2 * b1) % n) / n)
        shape = (n, n) + tail
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = np.tensordot(kernel, coeffs, axes=([2, 3], [0, 1])) / n
        got = ft_coeffs(coeffs, n)
        assert got.shape == shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

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

    def test_n1_sweeps_report_zero(self, params):
        # at N = 1 the gamma != 0 sweeps are empty: residual 0, not a crash
        dp1 = DressedFnParams(1, 1, params)
        for ident in registry_ids(dp1):
            rep = verify_identity(ident, dp1, samples=3, seed=0)
            assert rep.passed and len(rep.per_sample_rel) == 3, ident
            assert rep.max_rel_residual < 1e-13, ident

    def test_e9051_exact(self, params):
        rep = verify_identity("e9051", DressedFnParams(3, 1, params), samples=1, seed=0)
        assert rep.max_abs_residual < 1e-13

    @pytest.mark.parametrize("n", [5, 7])
    def test_sample_independent_guard_point_on_the_lattice(self, n):
        # w52 guards the omega_a themselves; at tau = 0.1i one lies within
        # DEGENERACY_MARGIN of the lattice, so every draw would be rejected
        dp_low = DressedFnParams(n, 1, EllipticParams(0.1j))
        with pytest.raises(ValueError, match=r"^identity 'w52' has the "
                                             r"sample-independent guard point"):
            fourier.identity_spec("w52", dp_low)
        with pytest.raises(ValueError, match="sample-independent"):
            verify_identity("w52", dp_low, samples=2)
        # no other guard has a point that does not depend on the sample
        for ident in registry_ids(dp_low):
            if ident != "w52":
                assert fourier.identity_spec(ident, dp_low) is REGISTRY[ident]

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

    @pytest.mark.parametrize("ident", sorted(REGISTRY))
    def test_declared_arguments_agree(self, ident):
        # the evaluator's parameters after params are the continuous
        # arguments, and its guard takes the same ones
        spec = REGISTRY[ident]

        def after_params(fn):
            return tuple(inspect.signature(fn).parameters)[1:]
        assert after_params(spec.evaluate) == spec.continuous_args
        assert after_params(spec.guard) == spec.continuous_args

    def test_report_determinism(self, dp):
        a = verify_identity("e914", dp, samples=5, seed=3)
        b = verify_identity("e914", dp, samples=5, seed=3)
        assert a == b

    def test_seed_changes_samples(self, dp):
        a = verify_identity("e914", dp, samples=5, seed=3)
        b = verify_identity("e914", dp, samples=5, seed=4)
        assert a.per_sample_abs != b.per_sample_abs


class TestBatchedSweep:
    @pytest.mark.parametrize("cap", [None, 50])
    @pytest.mark.parametrize("n, m", [(3, 1), (2, 3)])
    def test_blocks_match_single_samples(self, params, monkeypatch, n, m, cap):
        """verify_identity evaluates blocks of samples at once; its per-sample
        residuals must be those of evaluating each drawn sample alone."""
        if cap is not None:
            monkeypatch.setattr(fourier, "_BLOCK_POINTS", cap)
        drawn = []

        def recording(*args):
            out = draw_samples(*args)
            drawn.append(out)
            return out

        monkeypatch.setattr(fourier, "draw_samples", recording)
        dp, seed, tol = DressedFnParams(n, m, params), 5, 1e-8
        for ident in registry_ids(dp):
            spec = REGISTRY[ident]
            drawn.clear()
            rep = verify_identity(ident, dp, samples=20, seed=seed, tol=tol)
            direct = draw_samples(spec, dp, 20, np.random.default_rng(seed))
            assert len(drawn) == 1 and np.array_equal(drawn[0], direct), ident
            assert direct.shape == (20, len(spec.continuous_args)), ident
            abs_r, rel_r = [], []
            for row in direct:
                lhs, rhs = spec.evaluate(dp, **dict(zip(spec.continuous_args, row)))
                err = np.abs(np.asarray(lhs) - np.asarray(rhs))
                abs_r.append(float(np.max(err, initial=0.0)))
                rel_r.append(float(np.max(err / np.maximum(np.abs(rhs), 1.0),
                                          initial=0.0)))
            assert np.abs(np.subtract(rep.per_sample_abs, abs_r)).max() <= 1e-13, ident
            assert np.abs(np.subtract(rep.per_sample_rel, rel_r)).max() <= 1e-13, ident
            assert rep.passed == (max(rel_r) < tol), ident

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1),
                                      (2, 3), (3, 2), (2, 5), (3, 4), (4, 3),
                                      (5, 2), (7, 2)])
    def test_row_width_within_bound(self, params, n, m):
        # the bound sizes verify_identity's first block before any width is seen
        dp = DressedFnParams(n, m, params)
        for ident in registry_ids(dp):
            spec = REGISTRY[ident]
            block = draw_samples(spec, dp, 1, np.random.default_rng(0))
            err, _ = fourier._block_residuals(spec, dp, block)
            assert err.shape[1] <= fourier._width_bound(spec, dp), ident

    @staticmethod
    def recorded_calls(monkeypatch, ident):
        """Wrap REGISTRY[ident].evaluate; each call appends (samples, width)."""
        spec, calls = REGISTRY[ident], []

        def evaluate(params, **sample):
            lhs, rhs = spec.evaluate(params, **sample)
            rows = len(next(iter(sample.values()))) if sample else 1
            calls.append((rows, np.broadcast(lhs, rhs).shape[-1]))
            return lhs, rhs
        monkeypatch.setitem(REGISTRY, ident, dataclasses.replace(spec, evaluate=evaluate))
        return calls

    @pytest.mark.parametrize("cap", [None, 50])
    @pytest.mark.parametrize("n, m", [(3, 1), (5, 1), (2, 3)])
    def test_blocks_within_cap(self, params, monkeypatch, n, m, cap):
        if cap is not None:
            monkeypatch.setattr(fourier, "_BLOCK_POINTS", cap)
        dp = DressedFnParams(n, m, params)
        for ident in registry_ids(dp):
            calls = self.recorded_calls(monkeypatch, ident)
            verify_identity(ident, dp, samples=20, seed=5)
            # an evaluator without continuous arguments sees no sample count
            if REGISTRY[ident].continuous_args:
                assert sum(rows for rows, _ in calls) == 20, ident
            for rows, width in calls:
                assert rows == 1 or rows * width <= fourier._BLOCK_POINTS, (ident, rows, width)

    @pytest.mark.parametrize("ident, n, m, samples", [("e913", 3, 1, 20),
                                                      ("w91", 2, 1, 20),
                                                      ("w33", 2, 3, 3),
                                                      ("w33", 2, 3, 20),
                                                      ("w331", 3, 2, 20),
                                                      ("w92", 5, 1, 20)])
    def test_one_call_when_bound_fits(self, params, monkeypatch, ident, n, m, samples):
        dp = DressedFnParams(n, m, params)
        assert samples * fourier._width_bound(REGISTRY[ident], dp) <= fourier._BLOCK_POINTS
        calls = self.recorded_calls(monkeypatch, ident)
        verify_identity(ident, dp, samples=samples, seed=5)
        assert [rows for rows, _ in calls] == [samples]

    @pytest.mark.parametrize("ident, n, m", [("w92", 5, 1), ("w331", 2, 3)])
    def test_memory_of_one_call(self, params, ident, n, m):
        # 1.1 and 1.4 MB measured: the E1 terms of w92 over the full
        # (samples, width) sweep took 2.9 MB in one call
        dp = DressedFnParams(n, m, params)
        verify_identity(ident, dp, samples=2, seed=5)  # fills the caches
        tracemalloc.start()
        try:
            verify_identity(ident, dp, samples=20, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, peak

    def test_no_block_held_into_the_next(self, params, monkeypatch):
        # w33 at (2, 5) takes 6 blocks of 20 samples; each later block once
        # started with 0.33-0.45 MB of the block before still held
        dp, spec, held = DressedFnParams(2, 5, params), REGISTRY["w33"], []

        def evaluate(params, **sample):
            held.append(tracemalloc.get_traced_memory()[0])
            return spec.evaluate(params, **sample)
        verify_identity("w33", dp, samples=2, seed=5)  # fills the caches
        monkeypatch.setitem(REGISTRY, "w33", dataclasses.replace(spec, evaluate=evaluate))
        tracemalloc.start()
        try:
            verify_identity("w33", dp, samples=20, seed=5)
        finally:
            tracemalloc.stop()
        assert len(held) > 2
        assert max(h - held[0] for h in held[1:]) <= 0.05 * 2 ** 20, held

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_memory_of_each_phi_big(self, params, monkeypatch, n, m):
        # the theta kernel inside phi_big sets each call's peak above its
        # start: up to 1.04 MB with the out-of-place kernel, 0.68 MB in place,
        # where the largest array a call returns, (20, 96), is 0.03 MB
        dp, spec, peaks = DressedFnParams(n, m, params), REGISTRY["w33"], []
        block = draw_samples(spec, dp, 20, np.random.default_rng(5))
        phi_big = fourier._phi_big

        def traced(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = phi_big(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out
        spec.evaluate(dp, **fourier._columns(spec, block))  # fills the caches
        monkeypatch.setattr(fourier, "_phi_big", traced)
        tracemalloc.start()
        try:
            spec.evaluate(dp, **fourier._columns(spec, block))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 6
        assert max(peaks) <= 0.8e6, peaks


def sequential_draws(spec, params, count, rng):
    """Reference sampler: one candidate, one guard call and one distance test
    per try, the redraw rule of draw_samples.  Returns the samples and
    whether each try was accepted."""
    tau = params.elliptic.tau
    out, accepted = [], []
    while len(out) < count:
        if len(accepted) >= fourier.MAX_REDRAWS + count:
            raise RuntimeError("redraws exhausted")
        s = {}
        for name in spec.continuous_args:
            a, b = rng.uniform(0.05, 0.45, 2)
            s[name] = a + b * tau
        pts = np.concatenate([np.zeros(0)]
                             + [np.ravel(x) for x in spec.guard(params, **s)])
        ok = not (pts.size and float(np.min(lattice_distance(pts, tau)))
                  < fourier.DEGENERACY_MARGIN)
        accepted.append(ok)
        if ok:
            out.append(s)
    return out, accepted


def rounds_of(accepted, count):
    """Rounds of candidates a sampler takes that draws every missing sample
    at once, given whether each try in stream order is accepted."""
    rounds = tries = got = 0
    while got < count:
        need = count - got
        got += sum(accepted[tries:tries + need])
        tries += need
        rounds += 1
    return rounds


def counted(spec):
    """spec with a counting guard, and the list that each guard call appends to."""
    calls = []

    def guard(params, **s):
        calls.append(1)
        return spec.guard(params, **s)
    out = dataclasses.replace(spec, guard=guard)
    return out, calls


def half_rejecting(params, z, w):
    """Guard points on the lattice (rejected) whenever Re z < 0.25."""
    return [np.where(np.real(z) < 0.25, 0.0j, 0.5 + 0.0j), w]


class TestBatchedSampler:
    """draw_samples draws each round of candidates in one batch, with one
    guard call per round; samples and the generator state must be those of
    one try at a time."""

    def check(self, spec, dp, count, seed):
        new_spec, calls = counted(spec)
        ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref, accepted = sequential_draws(spec, dp, count, ref_rng)
        got = draw_samples(new_spec, dp, count, new_rng)
        assert got.shape == (count, len(spec.continuous_args))
        assert np.array_equal(got, [[s[name] for name in spec.continuous_args]
                                    for s in ref])
        rounds = rounds_of(accepted, count)
        assert len(calls) == rounds
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        return len(accepted), rounds

    @pytest.mark.parametrize("n, m", [(3, 1), (2, 3)])
    def test_registry_matches_sequential(self, params, n, m):
        dp = DressedFnParams(n, m, params)
        for ident in registry_ids(dp):
            self.check(REGISTRY[ident], dp, 20, 5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_redraws_match_sequential(self, params, seed):
        spec = IdentitySpec("test", None, half_rejecting, ("z", "w"))
        tries, rounds = self.check(spec, DressedFnParams(2, 1, params), 25, seed)
        assert tries > 25 + 5 and rounds > 2

    def test_redraw_limit(self, params):
        spec = IdentitySpec("test", None, lambda p, z: [0j], ("z",))
        dp = DressedFnParams(2, 1, params)
        with pytest.raises(RuntimeError):
            sequential_draws(spec, dp, 3, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="redraws"):
            draw_samples(spec, dp, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_too_few_samples_rejected(self, dp, samples):
        with pytest.raises(ValueError, match="samples"):
            verify_identity("e913", dp, samples=samples)


class TestDrawBox:
    """fourier._draw_box is the one sampling box: identity samples, spectral
    points (tests/test_models.py) and R-matrix points all come from it."""

    @pytest.mark.parametrize("tau", [TAU, 0.2 + 0.35j, 0.4 + 3j])
    def test_unguarded_points_are_the_old_point_draws(self, tau):
        # the rmatrix command drew each point as a, b = rng.uniform(0.05, 0.45, 2)
        ref_rng, new_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(12):
            a, b = ref_rng.uniform(0.05, 0.45, 2)
            got = fourier._draw_box(new_rng, 1, 1, tau)
            assert got.shape == (1, 1)
            assert complex(got[0, 0]) == complex(a + b * tau)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_identity_failure_message(self, params):
        spec = IdentitySpec("test", None, lambda p, z: [0j], ("z",))
        with pytest.raises(RuntimeError) as err:
            draw_samples(spec, DressedFnParams(2, 1, params), 3, np.random.default_rng(0))
        assert str(err.value) == \
            "could not draw a non-degenerate sample for 'test' after 500 redraws"


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
