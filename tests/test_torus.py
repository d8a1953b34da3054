"""Finite Heisenberg pair and T-basis algebra (raw-integer index bookkeeping)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elliptop.rmatrix import swap_n_legs
from elliptop.torus import (T, build_Lambda, build_Q, decompose, kappa, pair_sum,
                            reconstruct, reduction_sign, t_stack)

from conftest import lattice, z2_conjugator


def permutation(n):
    """P12 = (1/N) sum_a T_a (x) T_{-a}, the pair sum at constant weight."""
    return pair_sum(np.full(n * n, 1.0 / n), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestClockShift:
    def test_orders(self, n):
        assert np.allclose(np.linalg.matrix_power(build_Q(n), n), np.eye(n))
        assert np.allclose(np.linalg.matrix_power(build_Lambda(n), n), np.eye(n))

    def test_weyl_relation(self, n):
        q, lam = build_Q(n), build_Lambda(n)
        zeta = np.exp(2j * np.pi / n)
        assert np.allclose(zeta * q @ lam, lam @ q)


def test_n1_degenerate():
    assert np.allclose(build_Q(1), [[1.0]])
    assert np.allclose(build_Lambda(1), [[1.0]])


class TestTBasis:
    def test_identity_element(self):
        assert np.allclose(T((0, 0), 3), np.eye(3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_product_rule_exhaustive(self, n):
        # T_a T_b = kappa_{a,b} T_{a+b}, raw integer index sums
        for a in lattice(n):
            for b in lattice(n):
                lhs = T(a, n) @ T(b, n)
                rhs = kappa(a, b, n) * T((a[0] + b[0], a[1] + b[1]), n)
                assert np.abs(lhs - rhs).max() < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutator_structure(self, n):
        for a in lattice(n):
            for b in lattice(n):
                lhs = T(a, n) @ T(b, n) - T(b, n) @ T(a, n)
                # C_{a,b} = kappa_{a,b} - kappa_{b,a}
                rhs = (kappa(a, b, n) - kappa(b, a, n)) * T((a[0] + b[0], a[1] + b[1]), n)
                assert np.abs(lhs - rhs).max() < 1e-13

    def test_trace_pairing(self):
        n = 4
        for a in lattice(n):
            tr = np.trace(T(a, n) @ T((-a[0], -a[1]), n))
            assert abs(tr - n) < 1e-12

    def test_reduction_sign(self):
        n = 3
        for a in lattice(n):
            raw = (-a[0], -a[1])
            canon = ((-a[0]) % n, (-a[1]) % n)
            assert np.abs(T(raw, n) - reduction_sign(raw, n) * T(canon, n)).max() < 1e-13


class TestKappa:
    def test_diagonal_is_one(self):
        for n in (2, 3, 5):
            for a in lattice(n):
                assert kappa(a, a, n) == pytest.approx(1.0)

    def test_kappa_sq_sum(self):
        # sum_a kappa_{a,g}^2 = N^2 delta_{g,0}
        n = 3
        for g in lattice(n):
            s = sum(kappa(a, g, n) ** 2 for a in lattice(n))
            want = n * n if g == (0, 0) else 0.0
            assert abs(s - want) < 1e-12

    def test_index_arrays_broadcast(self):
        # the eom tables evaluate kappa and reduction_sign on index arrays
        n = 3
        a1, a2 = np.meshgrid(np.arange(-3, 4), np.arange(-2, 5), indexing="ij")
        k = kappa((a1, a2), (2, -1), n)
        s = reduction_sign((a1, a2), n)
        for i, j in np.ndindex(a1.shape):
            a = (int(a1[i, j]), int(a2[i, j]))
            assert abs(k[i, j] - kappa(a, (2, -1), n)) < 1e-14
            assert abs(s[i, j] - reduction_sign(a, n)) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_cocycle(self, a1, a2, b1, b2, c1, c2):
        # kappa_{a,b} kappa_{a+b,c} = kappa_{a,b+c} kappa_{b,c} (raw sums)
        n = 5
        a, b, c = (a1, a2), (b1, b2), (c1, c2)
        ab = (a1 + b1, a2 + b2)
        bc = (b1 + c1, b2 + c2)
        lhs = kappa(a, b, n) * kappa(ab, c, n)
        rhs = kappa(a, bc, n) * kappa(b, c, n)
        assert abs(lhs - rhs) < 1e-12

    def test_antisymmetry_of_C(self):
        n = 3
        for a in lattice(n):
            for b in lattice(n):
                c_ab = kappa(a, b, n) - kappa(b, a, n)
                c_ba = kappa(b, a, n) - kappa(a, b, n)
                assert abs(c_ab + c_ba) < 1e-13
            minus_a = (-a[0], -a[1])
            assert abs(kappa(a, minus_a, n) - kappa(minus_a, a, n)) < 1e-13


class TestDecompose:
    def test_identity_field(self):
        c = decompose(np.eye(3), 3)
        assert abs(c[0, 0] - 1) < 1e-14
        assert np.abs(c).sum() == pytest.approx(1.0, abs=1e-13)

    def test_basis_delta(self):
        n = 3
        c = decompose(np.array(T((1, 2), n)), n)
        want = np.zeros((n, n))
        want[1, 2] = 1.0
        assert np.abs(c - want).max() < 1e-13

    def test_round_trip(self, rng):
        n = 3
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.abs(reconstruct(decompose(mat, n), n) - mat).max() < 1e-14
        coeffs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.abs(decompose(reconstruct(coeffs, n), n) - coeffs).max() < 1e-13

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3), 4)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equal_to_loops(self, rng, n):
        # the stacked forms keep the loops' arithmetic, so the eigenvalues
        # that evolve reports from reconstruct stay bit for bit the same
        coeffs = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = np.zeros((n, n), dtype=complex)
        for a in lattice(n):
            want += coeffs[a] * T(a, n)
        assert np.array_equal(reconstruct(coeffs, n), want)
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = np.array([np.trace(mat @ T((-a[0], -a[1]), n)) / n for a in lattice(n)])
        assert np.array_equal(decompose(mat, n), want.reshape(n, n))

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("lead", [(1,), (11,), (2, 7)])
    def test_stack_equals_tables(self, rng, n, lead):
        # evolve reconstructs its whole stack of snapshots at once; each
        # matrix must be that of its table alone, bit for bit
        coeffs = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
        got = reconstruct(coeffs, n)
        assert got.shape == lead + (n, n)
        for idx in np.ndindex(*lead):
            assert np.array_equal(got[idx], reconstruct(coeffs[idx], n))

    def test_stack_shape_validation(self):
        with pytest.raises(ValueError, match="3x3"):
            reconstruct(np.zeros((4, 3, 2)), 3)
        with pytest.raises(ValueError, match="3x3"):
            reconstruct(np.zeros(9), 3)


class TestPairSum:
    def test_stack_is_shared_and_read_only(self):
        n = 3
        stack, neg = t_stack(n), t_stack(n, -1)
        assert t_stack(n) is stack
        assert not stack.flags.writeable and not neg.flags.writeable
        for i, a in enumerate(lattice(n)):
            assert np.array_equal(stack[i], T(a, n))
            assert np.array_equal(neg[i], T((-a[0], -a[1]), n))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (2, 3), (3, 2), (1, 3)])
    def test_matches_kron_sum(self, rng, n, m):
        c = rng.normal(size=(n * n, m * m)) + 1j * rng.normal(size=(n * n, m * m))
        want = np.zeros(((n * m) ** 2,) * 2, dtype=complex)
        for i, a in enumerate(lattice(n)):
            for j, ta in enumerate(lattice(m)):
                legs = (T(a, n), T(ta, m), T((-a[0], -a[1]), n),
                        T((-ta[0], -ta[1]), m))
                want += c[i, j] * np.kron(np.kron(legs[0], legs[1]),
                                          np.kron(legs[2], legs[3]))
        got = pair_sum(c, n, m)
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()
        if m == 1:
            assert np.array_equal(pair_sum(c.ravel(), n), got)


class TestPermutation:
    @pytest.mark.parametrize("n", [2, 3])
    def test_squares_to_identity(self, n):
        p = permutation(n)
        assert np.abs(p @ p - np.eye(n * n)).max() < 1e-13

    def test_swaps_simple_tensors(self, rng):
        n = 3
        p = permutation(n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.abs(p @ np.kron(u, v) - np.kron(v, u)).max() < 1e-13

    def test_n1_scalar(self):
        assert np.allclose(permutation(1), [[1.0]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_the_leg_swap(self, n):
        # the pair sum and the index permutation that rmatrix swaps legs with
        assert np.abs(permutation(n) - swap_n_legs(n, 1)).max() < 1e-13


class TestZ2Conjugator:
    @pytest.mark.parametrize("n", [2, 3])
    def test_conjugation(self, n):
        h = z2_conjugator(n)
        hinv = np.linalg.inv(h)
        for a in lattice(n):
            lhs = h @ T(a, n) @ hinv
            assert np.abs(lhs - T((-a[0], -a[1]), n)).max() < 1e-13

    def test_invertible(self):
        assert abs(np.linalg.det(z2_conjugator(4))) > 1e-12

    def test_involutive_on_coefficients(self, rng):
        n = 3
        h = z2_conjugator(n)
        hinv = np.linalg.inv(h)
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        twice = h @ (h @ mat @ hinv) @ hinv
        assert np.abs(decompose(twice, n) - decompose(mat, n)).max() < 1e-13
