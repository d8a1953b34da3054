"""Equations of motion, Lax equivalence, reductions, and the coupled model."""
import json
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from elliptop import cli, models
from elliptop.dynamics import IntegratorConfig, integrate
from elliptop.elliptic import (EllipticParams, eisenstein_E1, kronecker_phi,
                               lattice_distance)
from elliptop.fourier import ft_coeffs, omega_of, phi_alpha, phi_big
from elliptop.models import (MODEL_KINDS, REDUCTION_KINDS, CoupledTop,
                             RelativisticTop, _dual_eom,
                             check_relativization, coupled_form_w305,
                             coupled_form_w307, coupled_form_w308,
                             gaudin_reduce, lax_residual, make_model)
from elliptop.torus import T, decompose, kappa, placement, reconstruct, reduction_sign

from conftest import TAU, box_points, lattice, z2_conjugator

ETA = 0.17 + 0.05j


def scalar_field(model, rng, scale=1.0):
    n = model.n
    data = scale * (rng.normal(size=(n, n, 1, 1)) + 1j * rng.normal(size=(n, n, 1, 1)))
    return data


def lattice_convolution(big, y, params):
    """dA^A = sum_{G != 0} J_G (A^{A-G} A^G - A^G A^{A-G}) (A != 0), dA^0 = 0,
    on a field over Z_L^2, J_G = E1(y + w_G) - E1(w_G), w_G = (G1 + G2 tau)/L,
    by a double loop."""
    side = big.shape[0]
    want = np.zeros_like(big)
    for g in lattice(side):
        if g == (0, 0):
            continue
        w = omega_of(g[0], g[1], side, TAU)
        jg = complex(eisenstein_E1(y + w, params) - eisenstein_E1(w, params))
        for a in lattice(side):
            if a == (0, 0):
                continue
            b = ((a[0] - g[0]) % side, (a[1] - g[1]) % side)
            want[a] += jg * (big[b] @ big[g] - big[g] @ big[b])
    return want


def plan_of(model):
    """The commutator kernel's plan, read through the stepping accessor
    that builds it on first use."""
    model._stepper()
    return model._eom_plan


def both_paths(model, field):
    """The flow at a field by ``eom_rhs`` and by the stepping kernel on the
    flat state, each shaped like the field."""
    stepped = model._stepper()(field.reshape(model.state_shape))
    return model.eom_rhs(field), stepped.reshape(field.shape)


def sizes_read(kind, m, k):
    """The make_model sizes besides N that ``kind`` reads, as keywords."""
    return {"matrix-top": {"m": m}, "gaudin-lattice": {"k": k},
            "coupled": {"m": m, "k": k}}.get(kind, {})


def dense_to_big(n, m):
    """to_big as a dense (NM)^2 x N^2 M^2 phase table: curlyA^B =
    (1/M) sum_ta exp(2 pi i (ta1 B2 - B1 ta2) / M) A^{B mod N, ta}, the
    phase reduced mod M."""
    nm = n * m
    b1, b2 = (x.ravel()[:, None] for x in np.indices((nm, nm)))
    g1, g2, t1, t2 = (x.ravel() for x in np.indices((n, n, m, m)))
    on = (b1 % n == g1) & (b2 % n == g2)
    return np.where(on, np.exp(2j * np.pi * ((t1 * b2 - b1 * t2) % m) / m), 0.0) / m


class TestScalarEom:
    def test_commutator_oracle_nonrel(self, params, rng):
        # oracle: dS/dt = [S, J(S)] evaluated as a plain matrix commutator
        for n in (2, 3):
            model = make_model("nonrel-top", n, params)
            f = scalar_field(model, rng)
            s = f[..., 0, 0]
            smat = reconstruct(s, n)
            jmat = sum(T(a, n) * s[a] * model._j[a]
                       for a in lattice(n) if a != (0, 0))
            want = decompose(smat @ jmat - jmat @ smat, n)
            got = model.eom_rhs(f)[..., 0, 0]
            assert np.abs(got - want).max() < 1e-11

    def test_commutator_oracle_rel(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        s = f[..., 0, 0]
        smat = reconstruct(s, 3)
        jmat = sum(T(a, 3) * s[a] * model._j[a] for a in lattice(3) if a != (0, 0))
        want = decompose(smat @ jmat - jmat @ smat, 3)
        got = model.eom_rhs(f)[..., 0, 0]
        assert np.abs(got - want).max() < 1e-11

    def test_euler_cross_product_dictionary(self, params, rng):
        """N = 2 elliptic top against the Euler equations dS/dt = S x J(S)
        through the Pauli dictionary S = (1/2i) sum sigma_k S_k."""
        n = 2
        model = make_model("nonrel-top", n, params)
        sigma = [np.array([[0, 1], [1, 0]], complex),
                 np.array([[0, -1j], [1j, 0]], complex),
                 np.array([[1, 0], [0, -1]], complex)]
        svec = rng.normal(size=3) + 1j * rng.normal(size=3)
        smat = sum(sigma[k] * svec[k] for k in range(3)) / 2j
        coeffs = decompose(smat, n)
        f = coeffs.reshape(n, n, 1, 1)
        out = reconstruct(model.eom_rhs(f)[..., 0, 0], n)
        # J in the Pauli frame: J(S) has the same sigma components scaled by J_k
        jvals = {}
        for k in range(3):
            comp = decompose(sigma[k] / 2j, n)
            a = max(lattice(n), key=lambda x: abs(comp[x]))
            jvals[k] = model._j[a]
        jvec = np.array([svec[k] * jvals[k] for k in range(3)])
        cross = np.cross(svec, jvec)
        want = sum(sigma[k] * cross[k] for k in range(3)) / 2j
        assert np.abs(out - want).max() < 1e-11

    def test_j_constant_shift_invariance(self, params, rng):
        # shifting all J_a by a constant leaves the equations of motion alone
        n = 2
        model = make_model("nonrel-top", n, params)
        f = scalar_field(model, rng)
        base = model.eom_rhs(f)
        shifted = make_model("nonrel-top", n, params)
        j = shifted._j + (3.7 - 0.2j)
        j[0, 0] = 0.0  # J_0 never enters the flow
        shifted._set_inertia(j)
        assert np.abs(shifted.eom_rhs(f) - base).max() < 1e-11

    def test_single_mode_is_stationary(self, params):
        for kind, kw in [("nonrel-top", {}), ("rel-top", {"eta": ETA})]:
            model = make_model(kind, 3, params, **kw)
            data = np.zeros((3, 3, 1, 1), dtype=complex)
            data[1, 2] = 1.7 + 0.3j
            assert np.linalg.norm(model.eom_rhs(data)) == 0.0

    def test_sdot_zero_mode_vanishes(self, params, rng):
        for kind, kw in [("nonrel-top", {}), ("rel-top", {"eta": ETA})]:
            model = make_model(kind, 3, params, **kw)
            f = scalar_field(model, rng)
            assert abs(model.eom_rhs(f)[0, 0, 0, 0]) == 0.0

    def test_trace_conservation(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        sdot = model.eom_rhs(f)[..., 0, 0]
        assert abs(np.trace(reconstruct(sdot, 3))) < 1e-12


class TestInverseInertia:
    """The inertia table J that the equations of motion read (model._j)."""

    def test_nonrel_n2_three_modes(self, params):
        vals = make_model("nonrel-top", 2, params)._j
        assert abs(vals[0, 0]) == 0.0
        assert all(abs(vals[a]) > 0 for a in [(0, 1), (1, 0), (1, 1)])

    def test_single_mode_stays_single(self, params):
        n = 3
        data = np.zeros((n, n), dtype=complex)
        data[2, 1] = 1.0
        for model in (make_model("nonrel-top", n, params),
                      make_model("rel-top", n, params, eta=ETA)):
            nz = np.nonzero(np.abs(model._j * data) > 0)
            assert list(zip(*nz)) == [(2, 1)]

    def test_j_even_in_index(self, params):
        # J_a = J_{-a} for the nonrelativistic inertia (wp is even)
        n = 3
        vals = make_model("nonrel-top", n, params)._j
        for a in lattice(n):
            an = ((-a[0]) % n, (-a[1]) % n)
            assert abs(vals[a] - vals[an]) < 1e-12

    def test_j_rel_zero_eta(self, params):
        # J^0 = 0 on the rel-top inertia formula E1(eta + w) - E1(w), read
        # off the class: construction rejects eta = 0, where L has a pole
        n = 3
        a1, a2 = np.array([a for a in lattice(n) if a != (0, 0)]).T
        top = SimpleNamespace(_coupling=0.0, params=params)
        j = RelativisticTop._inertia(top, omega_of(a1, a2, n, params.tau))
        assert np.abs(j).max() == 0.0

    def test_j_rel_small_eta_limit(self, params):
        # J^eta_a / eta -> -E2(omega_a), Richardson over eta = 2^{-k}
        from elliptop.elliptic import eisenstein_E2
        n = 3
        a = (1, 2)
        want = -complex(eisenstein_E2(omega_of(a[0], a[1], n, params.tau), params))
        vals = []
        for k in (6, 7, 8):
            eta = 2.0 ** (-k)
            vals.append(make_model("rel-top", n, params, eta=eta)._j[a] / eta)
        # first-order convergence, removed by Richardson extrapolation
        assert abs(vals[1] - want) < 0.6 * abs(vals[0] - want)
        rich = 2 * vals[2] - vals[1]
        assert abs(rich - want) < 2e-3
        assert abs(rich - want) < 0.1 * abs(vals[2] - want)


# one model of each kind
EVERY_KIND = [
    ("nonrel-top", 3, {}),
    ("rel-top", 3, {"eta": ETA}),
    ("matrix-top", 2, {"eta": ETA, "m": 3}),
    ("gaudin-lattice", 3, {"eta": ETA, "k": 2}),
    ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}),
]


class TestLaxEquivalence:
    @pytest.mark.parametrize("kind,n,kw", [
        ("nonrel-top", 2, {}),
        ("nonrel-top", 3, {}),
        ("rel-top", 2, {"eta": ETA}),
        ("rel-top", 3, {"eta": ETA}),
    ])
    def test_scalar_tops_unconstrained(self, params, kind, n, kw):
        model = make_model(kind, n, params, **kw)
        f = model.random_field(seed=11)
        res = lax_residual(model, f, model.spectral_samples(5, 3))
        assert res["max_rel"] < 1e-9

    def test_matrix_top(self, params):
        model = make_model("matrix-top", 2, params, eta=ETA, m=3)
        f = model.random_field(seed=4)
        res = lax_residual(model, f, model.spectral_samples(5, 3))
        assert res["max_rel"] < 1e-9

    def test_gaudin_lattice(self, params):
        model = make_model("gaudin-lattice", 3, params, eta=ETA, k=2)
        f = model.random_field(seed=4)
        res = lax_residual(model, f, model.spectral_samples(5, 3))
        assert res["max_rel"] < 1e-9

    def test_coupled(self, params):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=4)
        res = lax_residual(model, f, model.spectral_samples(5, 3))
        assert res["max_rel"] < 1e-9

    @pytest.mark.parametrize("kind,n,kw", EVERY_KIND)
    def test_points_in_blocks(self, params, monkeypatch, kind, n, kw):
        # a point's values do not depend on its block: blocks of 1, 2 and 3
        # of 7 points give the one-block residuals exactly, in one L_of
        # call per block
        model = make_model(kind, n, params, **kw)
        f = model.random_field(seed=4)
        zs = model.spectral_samples(7, 3)
        whole = lax_residual(model, f, zs)
        per_point = max(model._side ** 2, model.size ** 2)
        calls = []
        lax = model.L_of
        monkeypatch.setattr(model, "L_of", lambda *a: calls.append(1) or lax(*a))
        for points, blocks in ((1, 7), (2, 4), (3, 3)):
            calls.clear()
            monkeypatch.setattr(models, "_LAX_BLOCK", points * per_point)
            assert lax_residual(model, f, zs) == whole
            assert len(calls) == blocks
        with pytest.raises(ValueError, match="at least one spectral point"):
            lax_residual(model, f, [])

    def test_coupled_negative_control(self, params, rng):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        shape = model.field_shape()
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        res = lax_residual(model, raw, model.spectral_samples(5, 3))
        assert res["max_rel"] > 1e-3

    def test_rel_top_delta_field(self, params):
        # S supported on the zero mode: L = S0 phi(z, eta) 1, M = 0
        n = 3
        model = make_model("rel-top", n, params, eta=ETA)
        f = np.zeros((n, n, 1, 1), dtype=complex)
        f[0, 0] = 2.2 - 0.4j
        z = 0.21 + 0.33j
        want = f[0, 0, 0, 0] * complex(kronecker_phi(z, ETA, params)) * np.eye(n)
        assert np.abs(model.L_of(f, z) - want).max() < 1e-13
        assert np.abs(model.M_of(f, z)).max() == 0.0

    def test_nonrel_L_decomposition(self, params, rng):
        # decompose(L(z)) = phi_a(z, omega_a) S_a off zero, 0 at zero
        n = 3
        model = make_model("nonrel-top", n, params)
        f = scalar_field(model, rng)
        z = 0.31 + 0.21j
        c = decompose(model.L_of(f, z), n)
        assert abs(c[0, 0]) < 1e-12
        for a in lattice(n):
            if a == (0, 0):
                continue
            want = f[a][0, 0] * complex(phi_alpha(z, 0.0, a[0], a[1], n, params))
            assert abs(c[a] - want) < 1e-11

    def test_lax_pair_holomorphic_off_poles(self, params):
        # sample near (but outside) the guard of the coupled pole set
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=2)
        poles = pole_list(model)
        assert len(poles) == 9
        val = model.L_of(f, poles[1] + 0.02)
        assert np.all(np.isfinite(val.view(float)))

    @pytest.mark.parametrize("kind,n,kw", EVERY_KIND)
    def test_batched_z_matches_pointwise(self, params, kind, n, kw):
        # a 1-D array of z gives the stack of the per-point matrices
        model = make_model(kind, n, params, **kw)
        f = model.random_field(seed=12)
        zs = np.asarray(model.spectral_samples(4, 5))
        for lax in (model.L_of, model.M_of):
            stack = lax(f, zs)
            assert stack.shape == (len(zs), model.size, model.size)
            for z, got in zip(zs, stack):
                want = lax(f, complex(z))
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("kind,n,kw", EVERY_KIND)
    def test_field_stack_matches_per_field(self, params, kind, n, kw):
        # a (2, 3) stack of fields keeps its axes in front, and each of its
        # matrices is the per-field one bit for bit, at one z and at four
        model = make_model(kind, n, params, **kw)
        stack = np.stack([model.random_field(seed) for seed in range(6)]).reshape(
            (2, 3) + model.field_shape())
        zs = np.asarray(model.spectral_samples(4, 5))
        size = model.size
        for lax in (model.L_of, model.M_of):
            for z, shape in ((zs[0], (size, size)), (zs, (4, size, size))):
                got = lax(stack, z)
                assert got.shape == (2, 3) + shape
                for i, j in np.ndindex(2, 3):
                    assert np.array_equal(got[i, j], lax(stack[i, j], z))
            assert lax(stack[:0], zs).shape == (0, 3, 4, size, size)


class TestReductions:
    def test_projector_idempotent(self, params):
        for kind, kw, red in [
            ("nonrel-top", {}, "z2-nonrel"),
            ("rel-top", {"eta": ETA}, "z2-rel"),
            ("matrix-top", {"eta": ETA, "m": 2}, "matrix-top-constraints"),
            ("gaudin-lattice", {"eta": ETA, "k": 2}, "gaudin-constraints"),
        ]:
            model = make_model(kind, 3, params, reduction=red, **kw)
            rng = np.random.default_rng(8)
            raw = (rng.normal(size=model.field_shape())
                   + 1j * rng.normal(size=model.field_shape()))
            once = model.project(raw)
            twice = model.project(once)
            assert np.abs(once - twice).max() < 1e-12
            assert model.constraint_deviation(once) < 1e-12

    def test_coupled_projector_idempotent(self, params, rng):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        once = model.project(raw)
        assert np.abs(model.project(once) - once).max() < 1e-11
        # zero-mode sum is scalar after projection
        s = once[0, 0].sum(axis=(0, 1))
        off = s - np.trace(s) / model.k * np.eye(model.k)
        assert np.abs(off).max() < 1e-12

    @pytest.mark.parametrize("kind,n,kw,red", [
        ("nonrel-top", 3, {}, "z2-nonrel"),
        ("rel-top", 3, {"eta": ETA}, "z2-rel"),
        ("matrix-top", 3, {"eta": ETA, "m": 2}, "matrix-top-constraints"),
        ("gaudin-lattice", 3, {"eta": ETA, "k": 2}, "gaudin-constraints"),
        ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}, "coupled-constraints"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_projection_oracle(self, params, kind, n, kw, red):
        # in lattice coordinates curlyA on Z_L^2 (L = N; to_big(A) on Z_NM^2
        # for the coupled model) the projection gives c_{-A} = s_A c_A for
        # c_A = curlyA^A / varphi_A(y, omega_A) and a scalar zero block;
        # idempotence alone would hold for any weights and signs
        model = make_model(kind, n, params, reduction=red, **kw)
        assert model.reduction == red
        rng = np.random.default_rng(21)
        shape = model.field_shape()
        out = model.project(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        side, y, big = n, {"rel-top": ETA, "nonrel-top": None}.get(kind, ETA / n), out
        if kind == "coupled":
            side, y, big = n * kw["m"], ETA / kw["m"], model.to_big(out)
        zero = big[0, 0]
        k = zero.shape[0]
        assert np.abs(zero - zero[0, 0] * np.eye(k)).max() <= 1e-14 * abs(zero[0, 0])
        checked = 0
        for a in lattice(side):
            neg = ((-a[0]) % side, (-a[1]) % side)
            if neg == a:
                continue
            weight = [1.0 if y is None else complex(phi_alpha(y, 0.0, *b, side, params))
                      for b in (a, neg)]
            sign = 1.0
            if kind in ("nonrel-top", "rel-top", "matrix-top"):
                # T_{-a} = s T_{(-a) mod N} for the raw index -a
                sign = np.trace(T((-a[0], -a[1]), n) @ np.linalg.inv(T(neg, n))) / n
            c, c_neg = big[a] / weight[0], big[neg] / weight[1]
            assert np.abs(c_neg - sign * c).max() <= 1e-13 * np.abs(c).max(), a
            checked += 1
        assert checked == side * side - (1 if side % 2 else 4)

    @pytest.mark.parametrize("kind,kw", [("nonrel-top", {}), ("rel-top", {"eta": ETA})])
    def test_scalar_top_draw_is_raw(self, params, kind, kw):
        # a scalar top built without a reduction has none, so its draw is raw
        model = make_model(kind, 3, params, **kw)
        rng = np.random.default_rng(5)
        shape = model.field_shape()
        raw = 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert model.random_field(5, scale=0.3).tobytes() == raw.tobytes()

    @pytest.mark.parametrize("kind,kw", [("rel-top", {"eta": ETA}),
                                         ("gaudin-lattice", {"eta": ETA, "k": 2})])
    def test_overflowing_scale_named(self, params, kind, kw):
        # the draw overflowed with a RuntimeWarning and left the non-finite
        # field to be rejected later, without naming the scale
        model = make_model(kind, 2, params, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the field amplitude scale = 1\.7e\+308"):
                model.random_field(0, scale=1.7e308)
            assert np.isfinite(model.random_field(0, scale=1e300)).all()

    def test_n2_z2_projector_touches_nothing(self, params, rng):
        # at N = 2 every index is self-paired, so the Z2 projector is the identity
        model = make_model("nonrel-top", 2, params, reduction="z2-nonrel")
        f = scalar_field(model, rng)
        proj = model.project(f)
        assert np.abs(proj - f).max() == 0.0

    def test_n2_gaudin_constraint_only_zero_block(self, params, rng):
        model = make_model("gaudin-lattice", 2, params, eta=ETA, k=3)
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        proj = model.project(raw)
        diff = np.abs(proj - raw)
        assert diff[0, 1].max() == 0.0 and diff[1, 0].max() == 0.0 \
            and diff[1, 1].max() == 0.0
        assert diff[0, 0].max() > 0.0

    @pytest.mark.parametrize("kind,kw,red", [
        ("nonrel-top", {}, "z2-nonrel"),
        ("rel-top", {"eta": ETA}, "z2-rel"),
        ("matrix-top", {"eta": ETA, "m": 2}, "matrix-top-constraints"),
        ("gaudin-lattice", {"eta": ETA, "k": 2}, "gaudin-constraints"),
    ])
    def test_flow_tangent_to_constraints(self, params, kind, kw, red):
        # one Euler step leaves the constraint set to O(dt^2)
        model = make_model(kind, 3, params, reduction=red, **kw)
        rng = np.random.default_rng(3)
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        f = model.project(raw)
        devs = []
        for dt in (1e-2, 1e-3):
            stepped = f + dt * model.eom_rhs(f)
            devs.append(model.constraint_deviation(stepped))
        # quadratic (or better) shrinkage
        assert devs[1] < devs[0] * 1e-1 + 1e-12

    def test_z2_matches_conjugator_fixed_point(self, params, rng):
        model = make_model("nonrel-top", 3, params, reduction="z2-nonrel")
        f = model.project(scalar_field(model, rng))
        smat = reconstruct(f[..., 0, 0], 3)
        h = z2_conjugator(3)
        assert np.abs(h @ smat @ np.linalg.inv(h) - smat).max() < 1e-12

    def test_z2_lax_symmetry_informative(self, params, rng):
        # corrected form of the printed reduction symmetry: L(-z) = -h L(z) h^{-1}
        model = make_model("nonrel-top", 3, params, reduction="z2-nonrel")
        f = model.project(scalar_field(model, rng))
        h = z2_conjugator(3)
        z = 0.23 + 0.31j
        lhs = model.L_of(f, -z)
        rhs = -h @ model.L_of(f, z) @ np.linalg.inv(h)
        assert np.abs(lhs - rhs).max() < 1e-11


class TestRelativization:
    def test_w51_residual(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        for z in box_points(rng, 3):
            assert check_relativization(f, ETA, z, model) < 1e-10

    def test_nonrel_limit_slope(self, params, rng):
        # || eom_rel(S, eta)/eta - eom_nonrel(S) || ~ C eta (log-log slope 1)
        n = 3
        nonrel = make_model("nonrel-top", n, params)
        f = scalar_field(nonrel, rng, scale=0.7)
        base = nonrel.eom_rhs(f)
        etas, gaps = [], []
        for k in range(3, 11):
            eta = 2.0 ** (-k)
            rel = make_model("rel-top", n, params, eta=eta)
            gaps.append(float(np.abs(rel.eom_rhs(f) / eta - base).max()))
            etas.append(eta)
        slope = np.polyfit(np.log(etas), np.log(gaps), 1)[0]
        assert abs(slope - 1.0) < 0.1

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 7, 15])
    def test_nonrel_limit_central_difference(self, params, n, seed):
        """d/deta of the rel-top eom at eta = 0 is the nonrel eom.

        dJ^eta_a/deta at 0 is -E2(omega_a) = -wp(omega_a) + const, and a
        constant shift of J drops out of [S, J(S)], so the central
        difference is the nonrel eom up to O(h^2); no fit range is needed.
        """
        nonrel = make_model("nonrel-top", n, params)
        f = nonrel.random_field(seed)
        base = nonrel.eom_rhs(f)

        def gap(h):
            d = (make_model("rel-top", n, params, eta=h).eom_rhs(f)
                 - make_model("rel-top", n, params, eta=-h).eom_rhs(f)) / (2 * h)
            return np.linalg.norm(d - base) / np.linalg.norm(base)

        fine = gap(1e-3)
        assert fine <= 5e-5
        assert 90 <= gap(1e-2) / fine <= 110


class TestFourierDuality:
    def test_off_shell_matrix_w62(self, params, rng):
        # sum_a A^a phi_a(z, w_a + eta/N) = sum_b A~^b phi_b(eta, w_b + z/N)
        n, k = 3, 2
        a_field = rng.normal(size=(n, n, k, k)) + 1j * rng.normal(size=(n, n, k, k))
        at = ft_coeffs(a_field, n)
        z, eta = box_points(rng, 2)
        lhs = np.zeros((k, k), dtype=complex)
        rhs = np.zeros((k, k), dtype=complex)
        for a in lattice(n):
            lhs += a_field[a] * complex(phi_alpha(z, eta / n, a[0], a[1], n, params))
            rhs += at[a] * complex(phi_alpha(eta, z / n, a[0], a[1], n, params))
        assert np.abs(lhs - rhs).max() < 1e-11 * np.abs(lhs).max()

    @staticmethod
    def check_four_forms(params, rng, n, m, k):
        """CoupledTop.L_of of a model built at the sampled eta, the form w303,
        against the definition sum_{a,ta} A^{a,ta} Phi_{a,ta}(z, eta), and the
        three dual forms against L_of, at two z in one batch."""
        model = make_model("coupled", n, params, eta=ETA, m=m, k=k)
        f = model.random_field(seed=6)
        z1, z2, eta = box_points(rng, 3)
        zs = np.array([z1, z2])
        a1, a2, t1, t2 = np.indices((n, n, m, m)).reshape(4, -1)
        want = np.einsum("za,aij->zij", phi_big(zs[:, None], eta, a1, a2, t1, t2, n, m,
                                                params), f.reshape(-1, k, k))
        base = make_model("coupled", n, params, eta=eta, m=m, k=k).L_of(f, zs)
        assert np.abs(base - want).max() < 1e-10 * np.abs(want).max()
        for form in (coupled_form_w305, coupled_form_w307, coupled_form_w308):
            got = form(model, f, zs, eta)
            assert np.abs(got - base).max() < 1e-10 * np.abs(base).max(), form
            assert np.abs(form(model, f, z1, eta) - got[0]).max() \
                < 1e-14 * np.abs(base).max()

    def test_coupled_four_forms_agree(self, params, rng):
        self.check_four_forms(params, rng, 2, 3, 2)

    def test_forms_agree_swapped_sizes(self, params, rng):
        self.check_four_forms(params, rng, 3, 2, 2)

    def test_forms_agree_wide_sizes(self, params, rng):
        self.check_four_forms(params, rng, 2, 5, 2)

    @staticmethod
    def form_blocks(monkeypatch, form, model, field):
        """The block stack that ``form`` contracts with its coefficient row."""
        seen = []

        def contract(coeffs, basis):
            seen.append(basis)
            return np.einsum("...i,ijk->...jk", coeffs, basis)
        with monkeypatch.context() as patch:
            patch.setattr(models, "_contract", contract)
            form(model, field, 0.31 + 0.22j, ETA)
        return seen[0]

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.2 + 0.35j, 0.4 + 3j])
    @pytest.mark.parametrize("n,m,k", [(2, 3, 2), (3, 2, 2), (2, 5, 2), (3, 4, 1)])
    def test_duality_is_a_relabeling(self, monkeypatch, n, m, k, tau):
        # The (M, N) field B = Z_M-Fourier of the swapped big field, by the
        # chain to_big, the placement (M a + N ta) mod NM and ft_coeffs, only
        # relabels the (N, M) field A: B^{tb,a} = A^{(M a) mod N, (N^-1 tb)
        # mod M}.  So the (N, M) model at coupling eta, taken at z0, is the
        # (M, N) model at coupling z0, taken at eta.
        p = EllipticParams(tau)
        z0 = 0.31 + 0.22j
        model = make_model("coupled", n, p, eta=ETA, m=m, k=k)
        dual = make_model("coupled", m, p, eta=z0, m=n, k=k)
        rng = np.random.default_rng(3)
        a = rng.normal(size=model.field_shape()) + 1j * rng.normal(size=model.field_shape())
        gathered = model.to_big(a)[placement(n, m)].reshape(a.shape)
        b = ft_coeffs(np.transpose(gathered, (2, 3, 0, 1, 4, 5)), m)
        tb1, tb2, a1, a2 = np.indices((m, m, n, n))
        n_inv = pow(n, -1, m)
        relabeled = a[m * a1 % n, m * a2 % n, n_inv * tb1 % m, n_inv * tb2 % m]
        assert np.abs(b - relabeled).max() <= 1e-13 * np.abs(a).max()
        want = model.L_of(a, z0)
        assert np.abs(dual.L_of(relabeled, ETA) - want).max() <= 1e-12 * np.abs(want).max()
        # w308 contracts sigma A itself, w307 the Z_N-Fourier of the gathered
        # big field; the chain above is their reference
        w308 = self.form_blocks(monkeypatch, coupled_form_w308, model, a)
        assert np.array_equal(w308, relabeled.reshape(-1, k, k))
        w307 = self.form_blocks(monkeypatch, coupled_form_w307, model, a)
        old = ft_coeffs(gathered, n).reshape(-1, k, k)
        assert np.abs(w307 - old).max() <= 1e-15 * np.abs(a).max()
        assert np.abs(w308 - b.reshape(-1, k, k)).max() <= 1e-15 * np.abs(a).max()

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 9), (5, 3)])
    def test_w308_takes_no_fourier_transform(self, params, monkeypatch, n, m):
        # sigma is an index permutation: w308 runs with ft_coeffs and to_big
        # made to raise, and agrees with L_of
        model = make_model("coupled", n, params, eta=ETA, m=m, k=2)
        f = model.random_field(seed=4)
        z, eta = 0.21 + 0.13j, 0.27 + 0.19j
        base = make_model("coupled", n, params, eta=eta, m=m, k=2).L_of(f, z)

        def refuse(*args):
            raise AssertionError("w308 took a Fourier transform")
        monkeypatch.setattr(models, "ft_coeffs", refuse)
        monkeypatch.setattr(CoupledTop, "to_big", refuse)
        got = coupled_form_w308(model, f, z, eta)
        assert np.abs(got - base).max() < 1e-10 * np.abs(base).max()


def pole_list(model):
    """The poles of L and M, one per class mod Z + tau Z: z with M z on the
    period lattice for the coupled model (M = 1 for the Gaudin-like top),
    the lattice itself for the T-paired tops."""
    s = model.m if isinstance(model, CoupledTop) else 1
    tau = model.params.tau
    return [(t1 + t2 * tau) / s for t1 in range(s) for t2 in range(s)]


def sequential_spectral_samples(model, count, seed):
    """Reference spectral sampler: one candidate and one distance test against
    the explicit pole list per try, at most 200 redraws per point."""
    rng = np.random.default_rng(seed)
    tau = model.params.tau
    poles = np.asarray(pole_list(model), dtype=complex)
    out, streak = [], 0
    while len(out) < count:
        if streak > 200:
            raise RuntimeError("could not sample pole-free spectral points")
        a, b = rng.uniform(0.05, 0.45, 2)
        z = a + b * tau
        if float(np.min(lattice_distance(z - poles, tau))) < 0.05:
            streak += 1
            continue
        out.append(complex(z))
        streak = 0
    return out


def draws_or_failure(draw):
    """The points ``draw()`` returns, or "no room" where it raises RuntimeError."""
    try:
        return draw()
    except RuntimeError:
        return "no room"


# the eight scan tau of the roadmap, then 0+0.1i and 0.45+0.06i of its range scan
SCAN_TAU = [0.3 + 1.1j, 0.5 + 2j, 0.2 + 0.35j, 0.1 + 0.2j, 0.4 + 3j, -0.45 + 0.9j,
            0.15j, 0.5 + 4.5j, 0.1j, 0.45 + 0.06j]


class TestSpectralSampler:
    # the Lax checks of perfbench's pointwise workload and its coupled scaling points
    @pytest.mark.parametrize("kind,n,m,k", [
        ("nonrel-top", 2, 1, 1), ("nonrel-top", 3, 1, 1), ("rel-top", 2, 1, 1),
        ("rel-top", 3, 1, 1), ("matrix-top", 2, 3, 1), ("gaudin-lattice", 3, 1, 2),
        ("coupled", 2, 3, 2), ("coupled", 2, 5, 2), ("coupled", 2, 7, 2),
        ("coupled", 3, 4, 2), ("coupled", 2, 9, 2),
    ])
    def test_draws_of_one_try_at_a_time(self, kind, n, m, k):
        # the sampler keeps s z 0.05 s from the lattice; the reference keeps
        # z 0.05 from every pole of the explicit list
        for tau in SCAN_TAU:
            model = make_model(kind, n, EllipticParams(tau), eta=ETA, m=m, k=k)
            for seed in range(10):
                assert draws_or_failure(lambda: model.spectral_samples(5, seed)) == \
                    draws_or_failure(lambda: sequential_spectral_samples(model, 5, seed)), \
                    (tau, seed)

    @pytest.mark.parametrize("tau", SCAN_TAU, ids=str)
    @pytest.mark.parametrize("kind,n,m", [
        ("nonrel-top", 3, 1), ("coupled", 2, 3), ("coupled", 2, 9), ("coupled", 3, 4)])
    def test_pole_distance_is_the_distance_to_the_pole_list(self, kind, n, m, tau):
        params = EllipticParams(tau)
        model = make_model(kind, n, params, eta=ETA, **sizes_read(kind, m, 2))
        poles = np.asarray(pole_list(model))
        zs = np.concatenate([box_points(np.random.default_rng(7), 50, tau),
                             poles[1:] + 1e-6, [3.2 - 2 * tau]])
        want = lattice_distance(zs[:, None] - poles, tau).min(axis=1)
        assert np.abs(model.pole_distance(zs) - want).max() <= 1e-15

    def test_no_room_raises_on_both(self):
        # no point of the box is 0.05 from the poles (Z + tau Z)/9 here (at
        # 0.1+0.2i 0.7 % of it is, 145 redraws per point on average)
        model = make_model("coupled", 2, EllipticParams(0.45 + 0.06j), eta=ETA, m=9, k=2)
        with pytest.raises(RuntimeError, match="pole-free spectral points"):
            sequential_spectral_samples(model, 5, 0)
        with pytest.raises(RuntimeError, match="pole-free spectral points"):
            model.spectral_samples(5, 0)


class TestCoupledStructure:
    def test_eom_trace_free(self, params):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=1)
        sdot = model.eom_rhs(f)
        traces = np.trace(sdot, axis1=-2, axis2=-1)
        assert np.abs(traces).max() < 1e-10

    def test_zero_mode_sum_conserved(self, params):
        # the coupled analogue of dS_0/dt = 0: the constrained scalar zero
        # mode sum_ta A^{0,ta} has vanishing time derivative
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=1)
        sdot = model.eom_rhs(f)
        zero_mode_rate = sdot[0, 0].sum(axis=(0, 1))
        assert np.abs(zero_mode_rate).max() < 1e-10

    def test_m1_reduces_to_gaudin_eom(self, params):
        """At M = 1 the coupled model is the Gaudin-like lattice top with
        coupling N*eta; under the shared constraints the two independently
        coded equations of motion agree."""
        n, k = 2, 2
        coupled = make_model("coupled", n, params, eta=ETA, m=1, k=k)
        gaudin = make_model("gaudin-lattice", n, params, eta=n * ETA, k=k)
        f = coupled.random_field(seed=5)
        g = f[:, :, 0, 0]
        assert gaudin.constraint_deviation(g) < 1e-10
        got = coupled.eom_rhs(f)[:, :, 0, 0]
        want = gaudin.eom_rhs(g)
        assert np.abs(got - want).max() < 1e-9

    def test_coupled_m1_lax_matches_rel_top_L(self, params, rng):
        # Phi_{a,0} = varphi_a, so the M = 1 coupled L is the w62-type matrix
        n, k = 3, 1
        model = make_model("coupled", n, params, eta=ETA, m=1, k=k)
        f = model.random_field(seed=7)
        z = 0.27 + 0.31j
        want = np.zeros((k, k), dtype=complex)
        for a in lattice(n):
            want += f[a[0], a[1], 0, 0] * complex(
                phi_alpha(z, ETA, a[0], a[1], n, params))
        assert np.abs(model.L_of(f, z) - want).max() < 1e-12


class TestDualLatticeKernel:
    """The block tops share one commutator kernel: the Gaudin-like and
    coupled flows at the Fourier-dual points, the matrix top at the one
    point sum_a T_a (x) S_a."""

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_matrix_top_matches_double_loop(self, params, rng, n, m):
        # dS_a = sum_{g != 0} s J_g (kappa_{b,g} S_b S_g - kappa_{g,b} S_g S_b),
        # b = (a - g) mod N, s the reduction sign of the raw sum b + g,
        # dS_0 = 0, on an unconstrained field, J_g = E1(eta/N + w_g) - E1(w_g)
        model = make_model("matrix-top", n, params, eta=ETA, m=m)
        s = rng.normal(size=(n, n, m, m)) + 1j * rng.normal(size=(n, n, m, m))
        want = np.zeros_like(s)
        for a in lattice(n):
            if a == (0, 0):
                continue
            for g in lattice(n):
                if g == (0, 0):
                    continue
                w = omega_of(g[0], g[1], n, TAU)
                jg = complex(eisenstein_E1(ETA / n + w, params)
                             - eisenstein_E1(w, params))
                b = ((a[0] - g[0]) % n, (a[1] - g[1]) % n)
                sign = complex(reduction_sign((b[0] + g[0], b[1] + g[1]), n))
                want[a] += sign * jg * (complex(kappa(b, g, n)) * s[b] @ s[g]
                                        - complex(kappa(g, b, n)) * s[g] @ s[b])
        assert plan_of(model).signs is None   # the stacked matmul
        for got in both_paths(model, s):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.abs(got[0, 0]).max() == 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_gaudin_matches_double_loop(self, params, rng, n):
        # dA^a = sum_{g != 0} J_g (A^{a-g} A^g - A^g A^{a-g}), dA^0 = 0, on
        # an unconstrained field, J_g = E1(eta/N + w_g) - E1(w_g)
        k = 2
        model = make_model("gaudin-lattice", n, params, eta=ETA, k=k)
        s = rng.normal(size=(n, n, k, k)) + 1j * rng.normal(size=(n, n, k, k))
        want = lattice_convolution(s, ETA / n, params)
        for got in both_paths(model, s):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("k,small", [(1, False), (2, True), (3, True), (4, True)])
    def test_gaudin_block_sizes_match_double_loop(self, params, rng, k, small):
        # K = 2, 3, 4 run the entry-product kernel, K = 1 the stacked
        # matmul, on both paths
        n = 3
        model = make_model("gaudin-lattice", n, params, eta=ETA, k=k)
        assert (plan_of(model).signs is not None) == small
        s = rng.normal(size=(n, n, k, k)) + 1j * rng.normal(size=(n, n, k, k))
        want = lattice_convolution(s, ETA / n, params)
        for got in both_paths(model, s):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.abs(got[0, 0]).max() == 0.0

    @pytest.mark.parametrize("n,m,k", [(2, 3, 3), (3, 2, 2)])
    def test_coupled_matches_big_lattice_double_loop(self, params, rng, n, m, k):
        # the Gaudin-like convolution on Z_NM^2 with coupling eta/M, read in
        # the big-lattice coordinates to_big
        model = make_model("coupled", n, params, eta=ETA, m=m, k=k)
        assert plan_of(model).signs is not None
        shape = model.field_shape()
        field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = lattice_convolution(model.to_big(field), ETA / m, params)
        for sdot in both_paths(model, field):
            got = model.to_big(sdot)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_single_mode_is_stationary(self, params):
        # exact in the flow; the Fourier-dual kernel rounds the two products
        # of each commutator differently, so the check is at rounding level
        x = np.array([[1.7 + 0.3j, -0.4j], [0.9, 0.2 - 1.1j]])
        gaudin = make_model("gaudin-lattice", 3, params, eta=ETA, k=2)
        data = np.zeros(gaudin.field_shape(), dtype=complex)
        data[1, 2] = x
        assert np.linalg.norm(gaudin.eom_rhs(data)) <= 1e-15 * np.abs(x).sum() ** 2
        coupled = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        for mode in [(1, 2), (2, 0), (4, 0)]:   # (Nj, 0) modes also enter C
            big = np.zeros((6, 6, 2, 2), dtype=complex)
            big[mode] = x
            sdot = coupled.eom_rhs(coupled.from_big(big))
            assert np.linalg.norm(sdot) <= 1e-15 * np.abs(x).sum() ** 2, mode

    def test_zero_mode_of_output(self, params, rng):
        gaudin = make_model("gaudin-lattice", 3, params, eta=ETA, k=2)
        shape = gaudin.field_shape()
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.abs(gaudin.eom_rhs(raw)[0, 0]).max() == 0.0
        # the coupled kernel drops the big-lattice zero mode before mapping
        # back to the (a, ta) coefficients, so it returns at rounding level
        coupled = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        shape = coupled.field_shape()
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sdot = coupled.eom_rhs(raw)
        assert np.abs(coupled.to_big(sdot)[0, 0]).max() <= 1e-15 * np.linalg.norm(sdot)

    @pytest.mark.parametrize("kind,n,kw", [
        ("nonrel-top", 3, {}),
        ("matrix-top", 2, {"eta": ETA, "m": 3}),
        ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}),
    ])
    def test_flat_state_is_rejected(self, params, kind, n, kw):
        # the flat state (C,) of the weight row or (C, K^2) of the
        # commutator flows is what the stepping kernel steps; eom_rhs
        # takes a field only
        model = make_model(kind, n, params, **kw)
        flat = np.ones(model.state_shape, dtype=complex)
        with pytest.raises(ValueError, match=rf"takes a field of shape .*got shape "
                                             rf"{re.escape(str(model.state_shape))}$"):
            model.eom_rhs(flat)


FLOW_MODELS = [
    ("nonrel-top", 3, {}),
    ("rel-top", 2, {"eta": ETA}),
    *[("matrix-top", 2, {"eta": ETA, "m": m}) for m in (1, 2, 3, 4)],
    *[("gaudin-lattice", 3, {"eta": ETA, "k": k}) for k in (1, 2, 3, 4)],
    *[("coupled", 2, {"eta": ETA, "m": 3, "k": k}) for k in (1, 2, 3, 4)],
    ("coupled", 2, {"eta": ETA, "m": 9, "k": 2}),
]
FLOW_IDS = [f"{k}-{n}-{kw.get('m', 1)}-{kw.get('k', 1)}" for k, n, kw in FLOW_MODELS]


class TestOneShotFlow:
    """eom_rhs evaluates the flow by its formula and builds no stepping
    plan; the stepping kernel that integrate runs is tested against it."""

    @pytest.mark.parametrize("kind,n,kw", FLOW_MODELS,
                             ids=FLOW_IDS)
    def test_direct_flow_matches_stepping_kernel(self, params, rng, kind, n, kw):
        model = make_model(kind, n, params, **kw)
        shape = model.field_shape()
        field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        direct, stepped = both_paths(model, field)
        assert np.abs(direct - stepped).max() <= 1e-13 * np.abs(stepped).max()

    @pytest.mark.parametrize("kind,n,kw", FLOW_MODELS,
                             ids=FLOW_IDS)
    def test_one_shot_maps_match_the_tabulated_plan(self, params, rng, kind, n, kw):
        # the stepping plan is the one-shot fwd on the unit vectors, bit for
        # bit, with the one-shot gathers; its back is built from fwd and
        # agrees with the one-shot back at rounding level.  The K = 1
        # T-paired tops step with the weight row: dropping it makes the
        # stepper tabulate their commutator kernel.
        model = make_model(kind, n, params, **kw)
        model._d = None
        plan, op = plan_of(model), model._one_shot()
        for got, want in zip(plan[2:], op[2:]):
            assert got is want
        rows = model._j.size
        eye = np.eye(rows)
        assert np.array_equal(plan.fwd(eye), op.fwd(eye).reshape(2 * rows, rows))
        comm = rng.normal(size=(rows, model.k ** 2)) + 1j * rng.normal(
            size=(rows, model.k ** 2))
        want = op.back(comm)
        assert np.abs(plan.back(comm) - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("kind,n,kw", FLOW_MODELS[::2])
    def test_lax_residual_builds_no_plan(self, params, kind, n, kw):
        model = make_model(kind, n, params, **kw)
        res = lax_residual(model, model.random_field(seed=3),
                           model.spectral_samples(3, 4))
        assert model._eom_plan is None
        assert res["max_rel"] < 1e-10

    def test_lax_residual_memory_at_p_324(self, params):
        # coupled (2, 9, 2): a plan would add a (2P, C) forward map, a
        # (C, P) backward map and P x P DFT temporaries, P = C = 324
        tracemalloc.start()
        try:
            model = make_model("coupled", 2, params, eta=ETA, m=9, k=2)
            res = lax_residual(model, model.random_field(seed=3),
                               model.spectral_samples(4, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res["max_rel"] < 1e-10
        assert peak < 6_000_000


class TestFoldedKinds:
    """rel-top is the matrix top at M = 1 and gaudin-lattice the coupled
    model at M = 1; the paths the fold left unused are their oracles."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rel_top_weight_row_matches_commutator_kernel(self, params, rng, n):
        # the commutator kernel on T-entries, which no model runs at K = 1
        model = make_model("rel-top", n, params, eta=ETA)
        assert model._stepper() == model._weight_row
        assert model._eom_plan is None
        s = rng.normal(size=(n, n, 1, 1)) + 1j * rng.normal(size=(n, n, 1, 1))
        want = _dual_eom(model._one_shot(), s.reshape(n * n, 1)).reshape(s.shape)
        got = model.eom_rhs(s)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gaudin_lax_pair_against_varphi_contraction(self, params, rng, n, k):
        # L = sum_a A^a varphi_a(z, eta/N + omega_a) and
        # M = -sum'_a A^a varphi_a(z, omega_a), with no term in A^0
        model = make_model("gaudin-lattice", n, params, eta=ETA, k=k)
        assert model.field_shape() == (n, n, k, k)
        s = rng.normal(size=(n, n, k, k)) + 1j * rng.normal(size=(n, n, k, k))
        blocks = s.reshape(-1, k, k)
        a1, a2 = np.array(lattice(n)).T
        zs = np.asarray(model.spectral_samples(3, 4))
        want_l = np.einsum("za,aij->zij", phi_alpha(zs[:, None], ETA / n, a1, a2, n,
                                                    params), blocks)
        got_l = model.L_of(s, zs)
        assert np.abs(got_l - want_l).max() <= 1e-13 * np.abs(want_l).max()
        want_m = -np.einsum("za,aij->zij", phi_alpha(zs[:, None], 0.0, a1[1:], a2[1:],
                                                     n, params), blocks[1:])
        got_m = model.M_of(s, zs)
        assert np.abs(got_m - want_m).max() <= 1e-13 * np.abs(want_m).max()

    @pytest.mark.parametrize("n,k", [(3, 2), (2, 3), (3, 1)])
    def test_gaudin_lattice_is_the_coupled_model_at_m_1(self, params, rng, n, k):
        # gaudin-lattice takes its fields as they are; the coupled model at
        # M = 1 still runs the length-1 ft_coeffs and the CRT gather, and
        # every value agrees bit for bit.  Its coupling (eta/N)/1 is eta/N
        # exactly.
        model = make_model("gaudin-lattice", n, params, eta=ETA, k=k)
        ref = CoupledTop(n, params, complex(ETA) / n, 1, k)
        s = rng.normal(size=model.field_shape()) + 1j * rng.normal(size=model.field_shape())
        s[0, 1] = -0.0   # a signed zero that the maps must keep
        r = s.reshape(ref.field_shape())   # (N, N, 1, 1, K, K)
        zs = np.asarray(model.spectral_samples(3, 4))
        for name in ("eom_rhs", "project", "to_big"):
            got, want = getattr(model, name)(s), getattr(ref, name)(r)
            assert np.array_equal(got.reshape(-1), want.reshape(-1)), name
            assert got.tobytes() == want.tobytes(), name   # signed zeros too
        assert np.array_equal(model.L_of(s, zs), ref.L_of(r, zs))
        assert np.array_equal(model.M_of(s, zs), ref.M_of(r, zs))
        big = model.to_big(s)
        assert not np.shares_memory(big, s)
        assert not np.shares_memory(model.from_big(big), big)
        field = model.random_field(seed=5, scale=0.25)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05, record_every=10,
                               spectral_probes=tuple(zs[:2]))
        got = integrate(model, field, cfg)
        want = integrate(ref, field.reshape(ref.field_shape()), cfg)
        assert np.array_equal(got.states.reshape(-1), want.states.reshape(-1))
        assert np.array_equal(got.lax_traces, want.lax_traces)
        assert np.array_equal(got.constraint_dev, want.constraint_dev)

    def test_gaudin_eta_on_a_pole_names_the_given_eta(self, params):
        # eta/N + omega_(1,0) = -1/2 + 1/2; the coupled model at eta/N once
        # named eta = (-0.5+0j)
        with pytest.raises(ValueError, match=r"^eta = \(-1\+0j\) puts the Lax "
                                             r"coefficient at a = \(1, 0\) on a pole"):
            make_model("gaudin-lattice", 2, params, eta=-1, k=2)


class TestCoupledMaps:
    """The coupled flow's maps are built with one DFT per lattice axis; the
    dense DFT matrix on flat Z_NM^2 and the dense to_big phases are their
    oracles."""

    @pytest.mark.parametrize("n,m,k", [(2, 3, 2), (3, 2, 2), (2, 5, 2), (3, 4, 2)])
    def test_maps_against_dense_dft(self, params, n, m, k):
        model = make_model("coupled", n, params, eta=ETA, m=m, k=k)
        nm = n * m
        a1, a2 = (x.ravel() for x in np.indices((nm, nm)))
        f = np.exp(-2j * np.pi * (np.outer(a1, a1) + np.outer(a2, a2)) / nm)
        big = dense_to_big(n, m)
        assert np.abs(model._to_big(np.eye(nm * nm)) - big).max() <= 1e-15 / m
        j = model._j.ravel()
        plan = plan_of(model)
        fwd, back = plan.fwd(np.eye(nm * nm)), plan.back(np.eye(nm * nm))
        want = np.stack((f @ big, f @ (j[:, None] * big)), axis=1).reshape(2 * nm * nm, -1)
        assert np.abs(fwd - want).max() <= 1e-13 * np.abs(want).max()
        want = big.conj().T[:, 1:] @ f.conj().T[1:] / (nm * nm)
        assert np.abs(back - want).max() <= 1e-13 * np.abs(want).max()
        assert plan.signs is not None   # the entry products, one K x K block per point

    @pytest.mark.parametrize("kind,n,kw", [
        ("gaudin-lattice", 3, {"k": 2}), ("coupled", 2, {"m": 3, "k": 2}),
        ("coupled", 3, {"m": 2, "k": 3}), ("coupled", 2, {"m": 9, "k": 2})])
    def test_from_big_is_the_dense_adjoint(self, params, kind, n, kw):
        # from_big is the CRT gather undone and ft_coeffs over Z_M; the
        # dense table's adjoint is its oracle (M = 1 included)
        model = make_model(kind, n, params, eta=ETA, **kw)
        k = model.k
        big_table = dense_to_big(n, model.m)
        for seed in range(4):
            big = model.to_big(model.random_field(seed=seed))
            want = big_table.conj().T @ big.reshape(-1, k * k)
            got = model.from_big(big).reshape(want.shape)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("kind,n,kw", [
        ("gaudin-lattice", 3, {"k": 2}), ("coupled", 2, {"m": 3, "k": 2}),
        ("coupled", 3, {"m": 2, "k": 3}), ("coupled", 2, {"m": 9, "k": 2})])
    def test_to_big_round_trip_and_stack(self, params, rng, kind, n, kw):
        model = make_model(kind, n, params, eta=ETA, **kw)
        shape = (3,) + model.field_shape()
        fields = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        big = model.to_big(fields)
        assert big.shape == (3, model.nm, model.nm, model.k, model.k)
        assert np.abs(model.from_big(big) - fields).max() <= 1e-14
        # a stack goes through in one call, as each field does alone
        for field, one in zip(fields, big):
            assert np.array_equal(model.to_big(field), one)
        for b, one in zip(big, model.from_big(big)):
            assert np.array_equal(model.from_big(b), one)

    def test_lax_check_holds_no_p_by_p_array(self, params):
        # (5, 7, 2): P = 1225; the dense to_big table alone took 24 MB
        tracemalloc.start()
        try:
            model = make_model("coupled", 5, params, eta=ETA, m=7, k=2)
            res = lax_residual(model, model.random_field(seed=0),
                               model.spectral_samples(5, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res["max_rel"] <= 1e-10
        assert peak < 4 * 2 ** 20

    def test_lax_check_at_p_484(self, tmp_path):
        # (2, 11, 2): P = (NM)^2 = 484 lattice points, through the CLI
        out = tmp_path / "r.json"
        assert cli.main(["lax-check", "--model", "coupled", "--N", "2", "--M", "11",
                         "--K", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"][0]["pass"]


class TestCoupledScaling:
    """Scaling points of the coupled model at seed 17 (the residue
    quadrature reached 1.4e-7 at (2, 9, 2))."""

    @pytest.mark.parametrize("n,m", [(2, 5), (2, 7), (3, 4), (2, 9)])
    def test_lax_and_constraints(self, params, n, m):
        model = make_model("coupled", n, params, eta=ETA, m=m, k=2)
        f = model.random_field(seed=17)
        res = lax_residual(model, f, model.spectral_samples(5, 3))
        assert res["max_rel"] <= 1e-10
        sdot = model.eom_rhs(f)
        dev = model.constraint_deviation(sdot)
        assert dev / np.linalg.norm(sdot) <= 1e-12

    def test_unconstrained_control(self, params, rng):
        model = make_model("coupled", 2, params, eta=ETA, m=5, k=2)
        shape = model.field_shape()
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert lax_residual(model, raw, model.spectral_samples(5, 3))["max_rel"] > 1e-3


# the residue circle once had a fixed radius 0.05, wider than the marked
# points' spacing at (2, 9) and at small Im tau, where it missed by up to 4.7
GAUDIN_TAUS = (0.3 + 1.1j, 0.2 + 0.35j, 0.1 + 0.2j)


class TestGaudinReduce:
    @pytest.mark.parametrize("tau", GAUDIN_TAUS, ids=str)
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 5), (2, 9), (3, 4)])
    def test_variant1_residues(self, tau, n, m):
        model = make_model("coupled", n, EllipticParams(tau), eta=ETA, m=m, k=n)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 1, ETA, model)
        assert len(red.marked_points) == m * m
        for i in range(len(red.marked_points)):
            num = red.extract_residue(i)
            den = max(np.abs(red.residues[i]).max(), 1e-30)
            assert np.abs(num - red.residues[i]).max() / den < 1e-12

    @pytest.mark.parametrize("tau", GAUDIN_TAUS, ids=str)
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 5), (2, 9), (3, 4)])
    def test_variant2_residues(self, tau, n, m):
        model = make_model("coupled", n, EllipticParams(tau), eta=ETA, m=m, k=m)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 2, ETA, model)
        assert len(red.marked_points) == n * n
        for i in range(len(red.marked_points)):
            num = red.extract_residue(i)
            den = max(np.abs(red.residues[i]).max(), 1e-30)
            assert np.abs(num - red.residues[i]).max() / den < 1e-12

    @pytest.mark.parametrize("variant", [1, 2])
    def test_batched_z_matches_pointwise(self, params, variant):
        n, m = 2, 3
        model = make_model("coupled", n, params, eta=ETA, m=m, k=(n, m)[variant - 1])
        red = gaudin_reduce(model.random_field(seed=9), variant, ETA, model)
        zs = np.array([0.21 + 0.13j, 0.33 + 0.41j, -0.17 + 0.62j])
        want = np.stack([red.L(z) for z in zs])
        got = red.L(zs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-14

    def test_m1_single_marked_point(self, params):
        model = make_model("coupled", 2, params, eta=ETA, m=1, k=2)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 1, ETA, model)
        assert red.marked_points == [0.0 + 0.0j]

    def test_wrong_block_size(self, params):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=5)
        f = model.random_field(seed=9)
        with pytest.raises(ValueError):
            gaudin_reduce(f, 1, ETA, model)
        with pytest.raises(ValueError):
            gaudin_reduce(f, 3, ETA, model)


class TestValidation:
    @pytest.mark.parametrize("kind, n, sizes, shape", [
        ("nonrel-top", 2, {}, (4, 4, 1, 1)),
        ("nonrel-top", 2, {}, (2, 2)),
        ("gaudin-lattice", 3, {"k": 2}, (3, 3, 4, 1)),
        ("matrix-top", 2, {"m": 3}, (2, 2, 1, 1)),
        ("coupled", 2, {"m": 3, "k": 2}, (2, 2, 3, 3, 2, 1)),
    ])
    def test_wrongly_shaped_field_fails_early(self, params, kind, n, sizes, shape):
        # such fields were once projected to a wrong shape, or failed deep
        # inside numpy (a broadcast, a reshape), or passed the eom
        model = make_model(kind, n, params, eta=ETA, reduction=None, **sizes)
        field = np.ones(shape, dtype=complex)
        named = rf"field has shape {re.escape(str(model.field_shape()))} .*got shape " \
                rf"{re.escape(str(shape))}$"
        for call in (model.project, model.constraint_deviation, model._basis,
                     lambda f: model.L_of(f, 0.2 + 0.3j), lambda f: model.M_of(f, 0.2)):
            with pytest.raises(ValueError, match=named):
                call(field)
        with pytest.raises(ValueError, match=rf"takes a field of shape "
                                             rf"{re.escape(str(model.field_shape()))}, "
                                             rf"got shape {re.escape(str(shape))}$"):
            model.eom_rhs(field)

    @pytest.mark.parametrize("kind, n, sizes, shape", [
        ("gaudin-lattice", 2, {"k": 2}, (3, 3, 2, 2)),
        ("coupled", 2, {"m": 3, "k": 2}, (3, 12, 2, 2)),
        ("coupled", 2, {"m": 3, "k": 2}, (6, 6, 1, 4)),
        ("coupled", 2, {"m": 3, "k": 2}, (6, 6, 2)),
    ])
    def test_wrongly_shaped_big_field_fails_early(self, params, kind, n, sizes, shape):
        # from_big once returned a field for the last three, of the same size
        model = make_model(kind, n, params, eta=ETA, **sizes)
        with pytest.raises(ValueError, match=r"big-lattice field has shape .*got shape "
                                             rf"{re.escape(str(shape))}$"):
            model.from_big(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_project_of_a_stack_is_per_field(self, params, rng, kind):
        model = make_model(kind, 2, params, eta=ETA, **sizes_read(kind, 3, 2))
        shape = (2, 3) + model.field_shape()
        fields = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = model.project(fields)
        assert got.shape == shape
        for stack, one in zip(fields.reshape((6,) + model.field_shape()),
                              got.reshape((6,) + model.field_shape())):
            assert np.array_equal(model.project(stack), one)

    def test_unknown_kind(self, params):
        with pytest.raises(ValueError):
            make_model("spinning-top", 2, params)

    def test_missing_eta(self, params):
        with pytest.raises(ValueError):
            make_model("rel-top", 2, params)

    def test_noncoprime_coupled(self, params):
        with pytest.raises(ValueError):
            make_model("coupled", 2, params, eta=ETA, m=4, k=2)

    # eta on which some Lax coefficient's second argument y + omega_a sits
    # on the lattice, y = eta (rel-top, coupled) or eta/N (block tops)
    @pytest.mark.parametrize("kind, n, eta, m, k", [
        ("rel-top", 2, 0.0, 1, 1),
        ("rel-top", 2, -(1 + TAU) / 2, 1, 1),            # a = (1, 1)
        ("matrix-top", 2, 1.0, 2, 1),                     # a = (1, 0)
        ("gaudin-lattice", 3, TAU + 3e-9j, 1, 2),         # a = (0, 2)
        ("coupled", 2, 0.5 + 1e-10, 3, 2),                # a = (1, 0)
    ])
    def test_eta_putting_a_lax_coefficient_on_a_pole(self, params, kind, n, eta, m, k):
        with pytest.raises(ValueError, match=r"^eta = .* on a pole"):
            make_model(kind, n, params, eta=eta, m=m, k=k).check_coupling()
        make_model(kind, n, params, eta=eta + 1e-6, m=m, k=k).check_coupling()

    @pytest.mark.parametrize("eta", [0.0, 1.0, TAU])
    def test_rel_top_construction_names_eta_on_the_lattice(self, params, eta):
        # the a = 0 coefficient varphi_0(z, eta) of L has its pole there
        with pytest.raises(ValueError, match=r"^eta = .* at a = \(0, 0\) on a pole"):
            make_model("rel-top", 2, params, eta=eta)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_reduction_belongs_to_its_model(self, params, kind):
        # a reduction of another model kind once ran the model's own
        # projection, or none, under the foreign name
        kw = dict(eta=ETA, **sizes_read(kind, 3, 2))
        own = REDUCTION_KINDS[MODEL_KINDS.index(kind)]
        # the scalar tops carry their reduction only when it is named
        optional = kind in ("nonrel-top", "rel-top")
        assert make_model(kind, 2, params, **kw).reduction == (None if optional else own)
        model = make_model(kind, 2, params, reduction=own, **kw)
        assert model.reduction == own
        # at N = 2 the own projection leaves the field drawn without a named
        # reduction unchanged: raw for the scalar tops, projected otherwise
        field = make_model(kind, 2, params, **kw).random_field(1)
        assert np.abs(model.project(field) - field).max() < 1e-11
        for red in REDUCTION_KINDS:
            if red != own:
                with pytest.raises(ValueError, match=f"^reduction '{red}' belongs"):
                    make_model(kind, 2, params, reduction=red, **kw)

    @pytest.mark.parametrize("kind, sizes, named", [
        ("nonrel-top", {"m": 3, "k": 2}, "M = 3"), ("nonrel-top", {"k": 2}, "K = 2"),
        ("rel-top", {"m": 3}, "M = 3"), ("rel-top", {"k": 2}, "K = 2"),
        ("matrix-top", {"m": 3, "k": 2}, "K = 2"), ("gaudin-lattice", {"m": 3}, "M = 3"),
    ])
    def test_unread_size_is_rejected(self, params, kind, sizes, named):
        # these sizes were once ignored: the model built had N alone
        with pytest.raises(ValueError, match=f"^model '{kind}' reads no size {named[0]}: got {named},"):
            make_model(kind, 2, params, eta=ETA, **sizes)

    def test_unknown_reduction(self, params):
        with pytest.raises(ValueError, match="^unknown reduction 'z3-fold'"):
            make_model("nonrel-top", 2, params, reduction="z3-fold")

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_one_coupling_check_per_model(self, params, kind, monkeypatch):
        # the Gaudin-like top once checked its coupling twice: once under the
        # name eta as given, once more through the coupled model's check
        calls = []
        check = models._LatticeTop.check_coupling
        monkeypatch.setattr(models._LatticeTop, "check_coupling",
                            lambda self: calls.append(self.eta) or check(self))
        make_model(kind, 3, params, eta=ETA, **sizes_read(kind, 2, 2))
        # once per model, with eta as given (nonrel-top has none)
        assert calls == [None if kind == "nonrel-top" else ETA]
