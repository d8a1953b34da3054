"""Special-function kernels against independent oracles.

Expected values marked by finite differences / limit sequences were
computed with the stated oracle and frozen as tolerances, never from the
implementation path they check.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elliptop import elliptic
from elliptop.elliptic import (EllipticParams, NonFiniteArgumentError,
                               PoleProximityError, ThetaOverflowError,
                               ThetaTruncationError, eisenstein_E1,
                               eisenstein_E2, kronecker_f, kronecker_phi,
                               lattice_distance, theta, theta_derivatives,
                               weierstrass_p)

from conftest import TAU, box_points


class TestTheta:
    def test_odd_at_zero(self, params_square):
        assert abs(theta(0.0, params_square)) < 1e-15

    def test_oddness(self, params, rng):
        for z in box_points(rng, 5):
            assert abs(theta(-z, params) + theta(z, params)) < 1e-13

    def test_period_one(self, params, rng):
        """Exercises the kernel's own multiplier (the law it applies after
        reduction); TestThetaOracle is the independent path."""
        for z in box_points(rng, 5):
            assert abs(theta(z + 1, params) + theta(z, params)) < 1e-12

    def test_quasi_period_tau(self, params, rng):
        """theta(z + tau) = -exp(-pi*i*tau - 2*pi*i*z) theta(z).  Exercises the
        kernel's own multiplier; TestThetaOracle is the independent path."""
        for z in box_points(rng, 5):
            lhs = theta(z + TAU, params)
            rhs = -np.exp(-1j * np.pi * TAU - 2j * np.pi * z) * theta(z, params)
            assert abs(lhs - rhs) < 1e-13 * abs(rhs)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95),
           m=st.integers(-2, 2), n=st.integers(-2, 2))
    def test_quasi_periodicity_lattice(self, a, b, m, n):
        """Exercises the kernel's own multiplier (DLMF 20.2) over lattice
        shifts; TestThetaOracle is the independent path."""
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
        # the series depth is set by tau alone; at Im tau = 0.001 the term
        # bound at |k| = MAX_TERMS is still far above SERIES_TOL
        p = EllipticParams(0.0 + 0.001j)
        with pytest.raises(ThetaTruncationError):
            theta(0.3, p)

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

    def test_overflow_emits_no_runtime_warning(self, params):
        # the typed error is the only report: numpy prints no overflow or
        # invalid-value warning on the way to it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ThetaOverflowError):
                eisenstein_E1(0.21 + 0.13j + 16 * TAU, params)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("im", [16.0, 1e17, 1e300, -1e17])
    def test_far_up_is_overflow_not_pole(self, params, im):
        # from about 1e17 up the reduction loses every digit of z_r, which
        # the pole guard once read as "0.000e+00 from a lattice point"
        z = 0.3 + 1j * im
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for fn in (eisenstein_E1, eisenstein_E2, theta):
                with pytest.raises(ThetaOverflowError, match="overflow"):
                    fn(z, params)
            with pytest.raises(ThetaOverflowError):
                kronecker_phi(0.2 + 0.1j, np.array([0.1 + 0.3j, z]), params)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_determinism(self, params):
        z = 0.123 + 0.456j
        assert theta(z, params) == theta(z, params)


class TestThetaOracle:
    """theta ... theta''' from the series kernel ``elliptic._theta_series``
    against mpmath, which shares no code with the kernel.

    With q = exp(pi i tau), theta^(j)(z) = -pi^j theta_1^(j)(pi z, q) for
    mpmath's jtheta(1, ., q, j).  The points reach |Im z| = 12 Im(tau) at
    tau = 0.3+1.1i (the quasi-periodicity multiplier overflows near 14) and
    20 Im(tau) at the other two moduli, 0.1 from the zeros of theta.
    """

    @pytest.mark.parametrize("tau, reach", [(0.3 + 1.1j, 12), (0.1 + 0.3j, 20),
                                            (0.5 + 0.05j, 20)])
    def test_orders_0_to_3(self, tau, reach):
        mpmath = pytest.importorskip("mpmath")
        p = EllipticParams(tau)
        rng = np.random.default_rng(11)
        im = np.concatenate([[reach, -reach, 0.0], rng.uniform(-reach, reach, 40)])
        zs = rng.uniform(-2.0, 2.0, im.size) + 1j * tau.imag * im
        zs = zs[lattice_distance(zs, tau) > 0.1][:12]
        assert zs.size == 12
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            for j in range(4):
                got = elliptic._theta_series(zs, p, j)[j]
                for z, g in zip(zs, got):
                    want = complex(-mpmath.pi ** j
                                   * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), q, j))
                    assert abs(g - want) <= 1e-12 * abs(want), (tau, z, j)


class TestThetaDerivatives:
    def test_d1_against_central_difference(self, params_square):
        # oracle: (theta(h) - theta(-h)) / 2h, h = 1e-6
        h = 1e-6
        fd = (theta(h, params_square) - theta(-h, params_square)) / (2 * h)
        d1 = theta_derivatives(params_square).theta_d1_at_0
        assert d1 != 0
        assert abs(fd - d1) / abs(d1) < 1e-9

    def test_d2_vanishes(self, params):
        assert abs(elliptic._theta_series(0.0, params, 2)[2]) < 1e-14

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

    @pytest.mark.parametrize("corner", [0.0, 1.0, TAU, 1.0 + TAU])
    def test_pole_guard_after_reduction(self, params, corner):
        # the kernel reduces z to the fundamental cell; the guard must still
        # see a pole at pole_guard/2, at the cell's corners and far from it
        half = params.pole_guard / 2
        for shift in (0.0, 3.0 - 2.0 * TAU, -4.0 + 5.0 * TAU):
            for step in (half, -half, 1j * half, -1j * half):
                z = corner + shift + step
                for fn in (lambda: eisenstein_E1(z, params),
                           lambda: eisenstein_E2(z, params),
                           lambda: weierstrass_p(np.array([0.3 + 0.2j, z]), params),
                           lambda: kronecker_phi(z, 0.3 + 0.2j, params),
                           lambda: kronecker_phi(0.3 + 0.2j, z, params),
                           lambda: kronecker_f(0.3 + 0.2j, z, params)):
                    with pytest.raises(PoleProximityError):
                        fn()


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

    # phi is one kernel call over [eta, z, eta + z]; its guard checks the
    # eta segment before the z segment, as two separate calls once did
    def test_both_arguments_near_poles_name_eta(self, params):
        with pytest.raises(PoleProximityError) as err:
            kronecker_phi(1.0 + 1e-10, TAU - 1e-11, params)
        assert err.value.name == "eta"
        assert err.value.value == 1.0 + 1e-10

    def test_z_alone_near_a_pole_names_z(self, params):
        z = np.array([0.3 + 0.2j, 0.1 + 0.4j, 1.0 + TAU + 2e-9j])
        with pytest.raises(PoleProximityError) as err:
            kronecker_phi(np.array([0.2 + 0.1j, 0.25 + 0.3j, 0.15 + 0.2j]), z, params)
        assert err.value.name == "z"
        assert err.value.value == z[2]
        assert err.value.distance == pytest.approx(2e-9, rel=1e-6)

    def test_closest_entry_of_the_segment_is_reported(self, params):
        # the segment's closest entry within the guard, not its first one
        z = np.array([0.3 + 0.2j, -1.0 + 5e-9, 1.0 + TAU + 2e-10j])
        with pytest.raises(PoleProximityError) as err:
            kronecker_phi(np.array([0.2 + 0.1j, 0.25 + 0.3j, 0.15 + 0.2j]), z, params)
        assert err.value.name == "z"
        assert err.value.value == z[2]
        assert err.value.distance == pytest.approx(2e-10, rel=1e-4)

    def test_eta_entry_reported_before_a_closer_z_entry(self, params):
        eta = np.array([0.2 + 0.1j, -1.0 + 5e-9, 0.3 + 0.3j])
        z = np.array([TAU + 1e-11j, 0.3 + 0.2j, 0.1 + 0.4j])
        with pytest.raises(PoleProximityError) as err:
            kronecker_phi(eta, z, params)
        assert err.value.name == "eta"
        assert err.value.value == eta[1]
        assert err.value.distance == pytest.approx(5e-9, rel=1e-6)

    def test_merged_calls_equal_separate_evaluations(self, rng):
        # f is one order-1 kernel call over [z, u, z + u]; the chain-rule
        # step leaves theta itself untouched, so phi and f match theta, phi
        # and the two E1 terms evaluated apart bit for bit
        shapes = [((2, 3), (3,)), ((), ()), ((1,), (1,)), ((7,), (7,)),
                  ((5, 3), (5, 3)), ((4, 1), (6,))]
        for tau in (TAU, 0.2 + 0.35j, 0.5 + 4.5j, -0.45 + 0.9j):
            p = EllipticParams(tau)
            d1 = theta_derivatives(p).theta_d1_at_0
            for eshape, zshape in shapes:
                eta = box_points(rng, int(np.prod(eshape)), tau).reshape(eshape)
                z = box_points(rng, int(np.prod(zshape)), tau).reshape(zshape)
                phi = d1 * theta(eta + z, p) / (theta(eta, p) * theta(z, p))
                assert np.array_equal(kronecker_phi(eta, z, p), phi)
                f = phi * (eisenstein_E1(eta + z, p) - eisenstein_E1(z, p))
                got = kronecker_f(eta, z, p)
                assert np.shape(got) == np.broadcast_shapes(eshape, zshape)
                assert np.array_equal(got, f), (tau, eshape, zshape)


def brute_distance(z, tau, reach=40):
    """Distance to Z + tau*Z by a direct search over |m|, |n| <= reach."""
    m, n = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    lattice = (m + n * tau).ravel()
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.concatenate([np.min(np.abs(chunk[:, None] - lattice), axis=1)
                           for chunk in np.array_split(z, max(1, z.size // 100))])


class TestLatticeDistance:
    def test_lattice_points_have_zero_distance(self):
        for m in range(-2, 3):
            for n in range(-2, 3):
                assert lattice_distance(m + n * TAU, TAU) < 1e-12

    def test_generic_point(self):
        assert lattice_distance(0.5, TAU) == pytest.approx(0.5)

    @pytest.mark.parametrize("tau", [2.5 + 1.1j, 1.3 + 0.8j, 0.37 + 0.1j, TAU])
    def test_matches_brute_force(self, tau):
        # rounding in the (1, tau) basis without reducing it overestimated
        # the first three by up to 0.19, 0.145 and 0.058
        rng = np.random.default_rng(7)
        z = rng.uniform(-2, 2, 600) + 1j * rng.uniform(-2, 2, 600)
        np.testing.assert_allclose(lattice_distance(z, tau), brute_distance(z, tau),
                                   rtol=0, atol=1e-13)

    def test_keeps_shape(self):
        z = np.full((2, 3), 0.25 + 0.1j)
        assert lattice_distance(z, TAU).shape == (2, 3)
        assert np.ndim(lattice_distance(0.25, TAU)) == 0


class TestKernelGuard:
    """The theta kernel's test |z_r| <= pole_guard is the lattice distance test."""

    @pytest.mark.parametrize("tau, guard", [(TAU, 0.3), (2.5 + 1.1j, 0.4),
                                            (0.37 + 0.1j, 0.045), (1j, 0.2)])
    def test_agrees_with_brute_force(self, tau, guard):
        p = EllipticParams(tau, pole_guard=guard)
        rng = np.random.default_rng(3)
        outcomes = set()
        for corner in (0.0, 1.0, tau, 1.0 + tau):
            for shift in (0.0, 3.0 - 2.0 * tau, -4.0 + 5.0 * tau):
                radius = guard * rng.uniform(0.5, 1.5, 12)
                angle = rng.uniform(0, 2 * np.pi, 12)
                for z in corner + shift + radius * np.exp(1j * angle):
                    dist = float(brute_distance(z, tau)[0])
                    try:
                        eisenstein_E1(z, p)
                        raised = False
                    except PoleProximityError as err:
                        raised = True
                        assert err.name == "z"
                        assert err.value == z
                        assert err.distance == pytest.approx(dist, abs=1e-12)
                    assert raised == (dist <= guard), (corner, shift, z, dist)
                    outcomes.add(raised)
        assert outcomes == {True, False}

    def test_reports_closest_entry(self, params):
        z = np.array([0.3 + 0.2j, 2.0 + 1e-9, 0.4 + 0.1j, 1.0 + TAU - 3e-9j])
        with pytest.raises(PoleProximityError) as err:
            eisenstein_E2(z, params)
        assert err.value.value == z[1]
        assert err.value.distance == pytest.approx(1e-9, rel=1e-6)

    def test_empty_array(self, params):
        assert eisenstein_E1(np.zeros(0, complex), params).shape == (0,)

    def test_f_guards_z_plus_u_through_E1(self, params):
        with pytest.raises(PoleProximityError) as err:
            kronecker_f(0.3 + 0.2j, -0.3 - 0.2j + 1e-12, params)
        assert err.value.name == "z"
        # the segments are checked z (named as phi's 'eta'), u, then z + u
        with pytest.raises(PoleProximityError) as err:
            kronecker_f(1e-12, TAU - 1e-11, params)
        assert (err.value.name, err.value.value) == ("eta", 1e-12)
        with pytest.raises(PoleProximityError) as err:
            kronecker_f(1.5e-8, -0.6e-8, params)   # z + u is within the guard too
        assert (err.value.name, err.value.value) == ("z", -0.6e-8)


class TestNonFiniteArgument:
    """A non-finite point raises a typed error naming its argument before
    the reduction, with no numpy warning on the way."""

    def _raises(self, fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteArgumentError) as err:
                fn(*args)
        return err.value.name

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan")])
    def test_E1(self, params, bad):
        assert self._raises(eisenstein_E1, np.array([0.2 + 0.1j, bad]), params) == "z"

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan")])
    def test_phi_names_eta(self, params, bad):
        assert self._raises(kronecker_phi, bad, 0.3 + 0.2j, params) == "eta"

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan")])
    def test_phi_names_z(self, params, bad):
        z = np.array([0.3 + 0.2j, 0.1 + 0.4j, bad])
        assert self._raises(kronecker_phi, 0.2 + 0.1j, z, params) == "z"

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan")])
    def test_lattice_distance(self, bad):
        assert self._raises(lattice_distance, bad, TAU) == "z"


class TestErrorPrecedence:
    """The kernel reports a non-finite argument before an overflowing
    multiplier, and both before a pole, each with its own message."""

    @pytest.mark.parametrize("z,error,message", [
        (complex("nan"), NonFiniteArgumentError, "argument 'z' = (nan+0j) is not finite"),
        (1e300j, ThetaOverflowError,
         "theta overflowed (non-finite value 9.09091e+299 periods up the tau "
         "direction); |Im z| is too large to evaluate at tau = (0.3+1.1j)"),
        (0.0, PoleProximityError,
         "argument 'z' = 0j is 0.000e+00 from a lattice point (pole_guard = 1.0e-08)"),
        (1.0, PoleProximityError,
         "argument 'z' = (1+0j) is 0.000e+00 from a lattice point (pole_guard = 1.0e-08)"),
    ], ids=["nan", "far-up", "zero", "one"])
    def test_single_point(self, params, z, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                eisenstein_E1(z, params)
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize("points,error", [
        ([1e300j, complex("nan")], NonFiniteArgumentError),
        ([0.0, complex("inf")], NonFiniteArgumentError),
        ([0.0, 1e300j], ThetaOverflowError),
    ], ids=["overflow-then-nan", "pole-then-inf", "pole-then-overflow"])
    def test_batch_order(self, params, points, error):
        with pytest.raises(error):
            eisenstein_E1(np.array(points), params)


def reference_series(z, p, order, guard=()):
    """The out-of-place theta kernel: the same floating-point operations in
    the same order as ``elliptic._theta_series``, each into a fresh array.
    It is the bit-for-bit reference of the in-place kernel."""
    depth, table = elliptic._series_table(p)
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    count = flat.size
    if count == 1:
        flat = np.repeat(flat, 2)
    tau = p.tau
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.rint(flat.imag / tau.imag)
        zb = flat - b * tau
        a = np.rint(zb.real)
        zr = zb - a
        scale = np.exp(elliptic.TWO_PI_I * (0.5 - depth - b) * zr
                       - 1j * np.pi * b * b * tau)
        if not np.isfinite(scale).all():
            elliptic._reject_non_finite(flat[:count], guard)
            raise ThetaOverflowError(float(np.max(np.abs(b))), tau)
        dist = np.abs(zr[:sum(size for _, size in guard)])
        if dist.size and dist.min() <= p.pole_guard:
            close = dist <= p.pole_guard
            name, start, stop = elliptic._segment(guard, int(np.argmax(close)))
            seg = slice(start, stop)
            i = start + int(np.argmin(np.where(close[seg], dist[seg], np.inf)))
            raise PoleProximityError(name, complex(flat[i]), float(dist[i]),
                                     p.pole_guard)
        w = np.exp(elliptic.TWO_PI_I * zr)
        out = table[0, :order + 1, None] * w + table[1, :order + 1, None]
        for row in table[2:, :order + 1, None]:
            out *= w
            out += row
        if order:
            c = -elliptic.TWO_PI_I * b
            powers = [1.0]
            for _ in range(order):
                powers.append(powers[-1] * c)
            for j in range(order, 0, -1):
                for i in range(j):
                    out[j] += math.comb(j, i) * powers[j - i] * out[i]
        sign = 1 - 2 * ((a + b).astype(np.int64) & 1)
        out *= sign * scale
        if not np.isfinite(out).all():
            raise ThetaOverflowError(float(np.max(np.abs(b))), tau)
    return out[:, :count].reshape((order + 1,) + z.shape)


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except elliptic.EllipticError as err:
        return type(err), str(err)


class TestKernelInPlace:
    """The in-place kernel returns every bit of the out-of-place one, and
    raises the same error with the same message."""

    TAUS = [0.3 + 1.1j, 0.5 + 10j, 0.15j, 0.2 + 0.35j, 0.1 + 0.2j, 1j, -0.4 + 0.6j]

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("size", [1, 2, 7, 100, 5000])
    def test_bit_identical(self, tau, size):
        p = EllipticParams(tau)
        rng = np.random.default_rng(size)
        # up to 4 periods up the tau direction, 1.5 at Im(tau) = 10
        reach = 1.5 if tau.imag > 5 else 4.0
        z = rng.uniform(-3.0, 3.0, size) + 1j * tau.imag * rng.uniform(-reach, reach, size)
        if size == 7:
            z = z.reshape(7, 1)
        guard = (("z", size),)
        for order in range(4):
            got = elliptic._theta_series(z, p, order, guard)
            want = reference_series(z, p, order, guard)
            assert got.shape == want.shape == (order + 1,) + z.shape
            assert np.array_equal(got, want), (tau, size, order)

    @pytest.mark.parametrize("points, guard", [
        ([complex("nan")], None), ([1e300j], None), ([0.0], None), ([1.0], None),
        ([1e300j, complex("nan")], None), ([0.0, complex("inf")], None),
        ([0.0, 1e300j], None), ([0.1, 2.0 + 1e-12, 0.3], (("eta", 1), ("z", 2))),
    ], ids=["nan", "far-up", "zero", "one", "overflow-then-nan", "pole-then-inf",
            "pole-then-overflow", "second-segment"])
    def test_same_errors(self, params, points, guard):
        z = np.array(points)
        guard = guard or (("z", z.size),)
        for order in range(4):
            got = outcome(elliptic._theta_series, z, params, order, guard)
            want = outcome(reference_series, z, params, order, guard)
            assert isinstance(got, tuple) and got == want, (points, order)

    @pytest.mark.parametrize("order, bound", [(0, 5.5), (1, 8.5), (2, 10.5), (3, 12.5)])
    def test_peak_memory(self, params, order, bound):
        # tracemalloc peaks at n = 32768, in complex n-arrays: the out-of-place
        # kernel 7.8 / 10.8 / 12.8 / 14.8 for orders 0-3, this one 4.3 / 5.5 /
        # 7.5 / 9.5
        n = 32768
        rng = np.random.default_rng(3)
        z = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
        elliptic._theta_series(z, params, order)  # fills the series table cache
        tracemalloc.start()
        try:
            elliptic._theta_series(z, params, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 16 * n, peak / (16 * n)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EllipticParams(0.3 - 1.1j)
        with pytest.raises(ValueError):
            EllipticParams(1j, pole_guard=0.0)

    @pytest.mark.parametrize("tau", [complex(0.3, np.inf), complex(np.inf, 1.1),
                                     complex(0.3, np.nan)])
    def test_nonfinite_tau_rejected(self, tau):
        # Im(tau) = inf once passed and failed late inside the theta kernel
        with pytest.raises(ValueError, match="tau must be finite"):
            EllipticParams(tau)

    @pytest.mark.parametrize("tau, guard", [(TAU, 0.5), (TAU, 0.7), (1j, 0.5),
                                            (0.37 + 0.1j, 0.05), (0.2 + 0.02j, 0.011)])
    def test_pole_guard_bound(self, tau, guard):
        # above min(1/2, Im(tau)/2) the reduced |z_r| is no lattice distance
        with pytest.raises(ValueError, match="pole_guard"):
            EllipticParams(tau, pole_guard=guard)

    def test_pole_guard_below_bound(self):
        assert EllipticParams(0.37 + 0.1j, pole_guard=0.049).pole_guard == 0.049
