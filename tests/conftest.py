import itertools

import numpy as np
import pytest

from elliptop.elliptic import EllipticParams
from elliptop.fourier import phi_alpha
from elliptop.torus import build_Lambda, pair_sum

TAU = 0.3 + 1.1j


@pytest.fixture(scope="session")
def params():
    return EllipticParams(TAU)


@pytest.fixture(scope="session")
def params_square():
    return EllipticParams(1j)


def box_points(rng, count, tau=TAU):
    """Generic points in the sampling box [0.05, 0.45] + tau*[0.05, 0.45]."""
    a = rng.uniform(0.05, 0.45, count)
    b = rng.uniform(0.05, 0.45, count)
    return a + b * tau


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def lattice(n):
    """Z_n x Z_n as index pairs, row-major: the library's order, built
    without the library's index arrays."""
    return list(itertools.product(range(n), repeat=2))


def z2_conjugator(n):
    """h = J Lambda^{-1} with J the antidiagonal; h T_a h^{-1} = T_{-a}."""
    return np.eye(n)[::-1] @ np.linalg.inv(build_Lambda(n))


def belavin_R(z, hbar, n, p):
    """The Belavin R-matrix R^hbar_12(z) = sum_a T_a (x) T_{-a}
    varphi_a(z, omega_a + hbar), summed over ``lattice``: the symmetric
    R-matrix at M = 1, built without ``rmatrix``."""
    a1, a2 = np.array(lattice(n)).T
    return pair_sum(phi_alpha(z, hbar, a1, a2, n, p), n)
