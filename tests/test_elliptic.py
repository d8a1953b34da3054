"""Special-function kernels against independent oracles.

Expected values marked by finite differences / limit sequences were
computed with the stated oracle and frozen as tolerances, never from the
implementation path they check.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elliptop.elliptic import (EllipticParams, PoleProximityError,
                               ThetaOverflowError, ThetaTruncationError,
                               eisenstein_E1,
                               eisenstein_E2, kronecker_f, kronecker_phi,
                               lattice_distance, theta, theta_d,
                               theta_derivatives, weierstrass_p)

from conftest import TAU, box_points


class TestTheta:
    def test_odd_at_zero(self, params_square):
        assert abs(theta(0.0, params_square)) < 1e-15

    def test_oddness(self, params, rng):
        for z in box_points(rng, 5):
            assert abs(theta(-z, params) + theta(z, params)) < 1e-13

    def test_period_one(self, params, rng):
        for z in box_points(rng, 5):
            assert abs(theta(z + 1, params) + theta(z, params)) < 1e-12

    def test_quasi_period_tau(self, params, rng):
        # theta(z + tau) = -exp(-pi*i*tau - 2*pi*i*z) theta(z), checked by
        # term-wise re-indexing of the series
        for z in box_points(rng, 5):
            lhs = theta(z + TAU, params)
            rhs = -np.exp(-1j * np.pi * TAU - 2j * np.pi * z) * theta(z, params)
            assert abs(lhs - rhs) < 1e-13 * abs(rhs)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95),
           m=st.integers(-2, 2), n=st.integers(-2, 2))
    def test_quasi_periodicity_lattice(self, a, b, m, n):
        p = EllipticParams(TAU)
        z = a + b * TAU
        fac = (-1.0) ** (m + n) * np.exp(-1j * np.pi * TAU * n * n
                                         - 2j * np.pi * n * z)
        rhs = fac * theta(z, p)
        assert abs(theta(z + m + n * TAU, p) - rhs) < 1e-11 * max(1.0, abs(rhs))

    def test_vectorized_matches_scalar(self, params, rng):
        zs = box_points(rng, 7)
        vec = theta(zs, params)
        assert all(abs(vec[i] - theta(zs[i], params)) == 0.0 for i in range(7))

    def test_truncation_error(self):
        p = EllipticParams(0.0 + 0.001j, max_terms=8)
        with pytest.raises(ThetaTruncationError):
            theta(0.3, p)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_reported_as_overflow(self, params):
        # far up the tau direction the series terms overflow before they
        # decay; that must not read as a truncation failure
        z = 0.21 + 0.13j
        with pytest.raises(ThetaOverflowError, match="overflow"):
            eisenstein_E1(z + 16 * TAU, params)
        # +12 tau still evaluates, and quasi-periodicity
        # E1(z + n tau) = E1(z) - 2 pi i n holds there
        far = complex(eisenstein_E1(z + 12 * TAU, params))
        assert np.isfinite(far)
        want = complex(eisenstein_E1(z, params)) - 12 * 2j * np.pi
        assert abs(far - want) < 1e-11 * abs(want)

    def test_determinism(self, params):
        z = 0.123 + 0.456j
        assert theta(z, params) == theta(z, params)


class TestThetaDerivatives:
    def test_d1_against_central_difference(self, params_square):
        # oracle: (theta(h) - theta(-h)) / 2h, h = 1e-6
        h = 1e-6
        fd = (theta(h, params_square) - theta(-h, params_square)) / (2 * h)
        d1 = theta_derivatives(params_square).theta_d1_at_0
        assert d1 != 0
        assert abs(fd - d1) / abs(d1) < 1e-9

    def test_d2_vanishes(self, params):
        assert abs(theta_d(0.0, params, 2)) < 1e-14

    def test_ratio_via_E2_wp_offset(self, params, rng):
        # E2(z) - wp(z) = -theta'''(0)/(3 theta'(0)), both sides independent
        c = theta_derivatives(params)
        for z in box_points(rng, 4):
            lhs = eisenstein_E2(z, params) - weierstrass_p(z, params)
            assert abs(lhs + c.ratio_d3_d1 / 3.0) < 1e-12


class TestEisenstein:
    def test_E1_odd(self, params, rng):
        for z in box_points(rng, 4):
            assert abs(eisenstein_E1(-z, params) + eisenstein_E1(z, params)) < 1e-12

    def test_E1_quasi_periods(self, params, rng):
        for z in box_points(rng, 4):
            assert abs(eisenstein_E1(z + 1, params) - eisenstein_E1(z, params)) < 1e-11
            assert abs(eisenstein_E1(z + TAU, params) - eisenstein_E1(z, params)
                       + 2j * np.pi) < 1e-11

    def test_E1_at_half(self, params):
        assert abs(eisenstein_E1(0.5, params)) < 1e-13

    def test_E2_even_and_elliptic(self, params, rng):
        for z in box_points(rng, 4):
            assert abs(eisenstein_E2(-z, params) - eisenstein_E2(z, params)) < 1e-11
            assert abs(eisenstein_E2(z + 1, params) - eisenstein_E2(z, params)) < 1e-10
            assert abs(eisenstein_E2(z + TAU, params) - eisenstein_E2(z, params)) < 1e-10

    def test_E2_is_minus_dE1(self, params, rng):
        # oracle: central difference of E1 with h = 1e-6
        h = 1e-6
        for z in box_points(rng, 3):
            fd = (eisenstein_E1(z + h, params) - eisenstein_E1(z - h, params)) / (2 * h)
            assert abs(eisenstein_E2(z, params) + fd) < 1e-8

    def test_pole_guard(self, params):
        with pytest.raises(PoleProximityError):
            eisenstein_E1(1e-12, params)
        with pytest.raises(PoleProximityError):
            eisenstein_E1(1.0 + TAU + 1e-12, params)


class TestWeierstrass:
    def test_even(self, params, rng):
        for z in box_points(rng, 3):
            assert abs(weierstrass_p(-z, params) - weierstrass_p(z, params)) < 1e-10

    def test_leading_laurent(self, params):
        # z^2 wp(z) -> 1 along z = 10^{-k}; oracle values from the Laurent
        # expansion of the theta series
        for k in (3, 4, 5):
            z = 10.0 ** (-k)
            assert abs(z * z * weierstrass_p(z, params) - 1) < 10.0 ** (-2 * k + 1)

    def test_half_period_sum_n3(self, params):
        # sum over nonzero half periods of wp vanishes (N = 3)
        n = 3
        total = sum(weierstrass_p((a1 + a2 * TAU) / n, params)
                    for a1 in range(n) for a2 in range(n) if (a1, a2) != (0, 0))
        assert abs(total) < 1e-11


class TestKronecker:
    def test_symmetry(self, params, rng):
        z, w = box_points(rng, 2)
        assert abs(kronecker_phi(z, w, params) - kronecker_phi(w, z, params)) < 1e-13

    def test_quasi_period(self, params, rng):
        x, y = box_points(rng, 2)
        lhs = kronecker_phi(x + TAU, y, params)
        rhs = np.exp(-2j * np.pi * y) * kronecker_phi(x, y, params)
        assert abs(lhs - rhs) < 1e-12

    def test_residue(self, params, rng):
        (z,) = box_points(rng, 1)
        for k in (4, 5, 6):
            eta = 10.0 ** (-k)
            assert abs(eta * kronecker_phi(z, eta, params) - 1) < 10.0 ** (-k + 1)

    def test_f_is_phi_derivative(self, params, rng):
        # oracle: (phi(z, u+h) - phi(z, u-h)) / 2h, h = 1e-6
        h = 1e-6
        z, u = box_points(rng, 2)
        fd = (kronecker_phi(z, u + h, params) - kronecker_phi(z, u - h, params)) / (2 * h)
        assert abs(kronecker_f(z, u, params) - fd) < 1e-8

    def test_fay(self, params, rng):
        z, w, q, u = box_points(rng, 4)
        lhs = kronecker_phi(z, q, params) * kronecker_phi(w, u, params)
        rhs = (kronecker_phi(z - w, q, params) * kronecker_phi(w, q + u, params)
               + kronecker_phi(w - z, u, params) * kronecker_phi(z, q + u, params))
        assert abs(lhs - rhs) < 1e-11

    def test_fay_degeneration_first(self, params, rng):
        z, w, q = box_points(rng, 3)
        lhs = kronecker_phi(z, q, params) * kronecker_phi(w, q, params)
        rhs = kronecker_phi(z + w, q, params) * (
            eisenstein_E1(z, params) + eisenstein_E1(w, params)
            + eisenstein_E1(q, params) - eisenstein_E1(z + w + q, params))
        assert abs(lhs - rhs) < 1e-11

    def test_fay_degeneration_second(self, params, rng):
        z, x, y = box_points(rng, 3)
        lhs = (kronecker_phi(z, x, params) * kronecker_f(z, y, params)
               - kronecker_phi(z, y, params) * kronecker_f(z, x, params))
        rhs = kronecker_phi(z, x + y, params) * (
            weierstrass_p(x, params) - weierstrass_p(y, params))
        assert abs(lhs - rhs) < 1e-11

    def test_degenerate_coincident_args(self, params, rng):
        z, x = box_points(rng, 2)
        lhs = (kronecker_phi(z, x, params) * kronecker_f(z, x, params)
               - kronecker_phi(z, x, params) * kronecker_f(z, x, params))
        assert lhs == 0

    def test_pole_naming(self, params):
        with pytest.raises(PoleProximityError) as err:
            kronecker_phi(1e-12, 0.3, params)
        assert "eta" in str(err.value)


class TestLatticeDistance:
    def test_lattice_points_have_zero_distance(self):
        for m in range(-2, 3):
            for n in range(-2, 3):
                assert lattice_distance(m + n * TAU, TAU) < 1e-12

    def test_generic_point(self):
        assert lattice_distance(0.5, TAU) == pytest.approx(0.5)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EllipticParams(0.3 - 1.1j)
        with pytest.raises(ValueError):
            EllipticParams(1j, series_tol=0.0)
        with pytest.raises(ValueError):
            EllipticParams(1j, max_terms=4)
        with pytest.raises(ValueError):
            EllipticParams(1j, pole_guard=0.0)
