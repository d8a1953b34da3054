"""Equations of motion, Lax equivalence, reductions, and the coupled model."""
from types import SimpleNamespace

import numpy as np
import pytest

from elliptop.elliptic import EllipticParams, eisenstein_E1, kronecker_phi
from elliptop.fourier import ft_coeffs, omega_of, phi_alpha
from elliptop.models import (CoupledTop, RelativisticTop, check_relativization,
                             constraint_deviation, coupled_form_w303,
                             coupled_form_w305, coupled_form_w307,
                             coupled_form_w308, gaudin_reduce, lax_residual,
                             make_model, project_constraints, relativize)
from elliptop.torus import (T, decompose, kappa, lattice, reconstruct, reduction_sign,
                            z2_conjugator)

from conftest import TAU, box_points

ETA = 0.17 + 0.05j


def scalar_field(model, rng, scale=1.0):
    n = model.n
    data = scale * (rng.normal(size=(n, n, 1, 1)) + 1j * rng.normal(size=(n, n, 1, 1)))
    return data


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
        poles = model.pole_set()
        assert len(poles) == 9
        val = model.L_of(f, poles[1] + 0.02)
        assert np.all(np.isfinite(val.view(float)))

    @pytest.mark.parametrize("kind,n,kw", [
        ("nonrel-top", 3, {}),
        ("rel-top", 3, {"eta": ETA}),
        ("matrix-top", 2, {"eta": ETA, "m": 3}),
        ("gaudin-lattice", 3, {"eta": ETA, "k": 2}),
        ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}),
    ])
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


class TestReductions:
    def test_projector_idempotent(self, params):
        for kind, kw, red in [
            ("nonrel-top", {}, "z2-nonrel"),
            ("rel-top", {"eta": ETA}, "z2-rel"),
            ("matrix-top", {"eta": ETA, "m": 2}, "matrix-top-constraints"),
            ("gaudin-lattice", {"eta": ETA, "k": 2}, "gaudin-constraints"),
        ]:
            model = make_model(kind, 3, params, **kw)
            rng = np.random.default_rng(8)
            raw = (rng.normal(size=model.field_shape())
                   + 1j * rng.normal(size=model.field_shape()))
            once = project_constraints(raw, red, model)
            twice = project_constraints(once, red, model)
            assert np.abs(once - twice).max() < 1e-12
            assert constraint_deviation(once, red, model) < 1e-12

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

    def test_n2_z2_projector_touches_nothing(self, params, rng):
        # at N = 2 every index is self-paired, so the Z2 projector is the identity
        model = make_model("nonrel-top", 2, params)
        f = scalar_field(model, rng)
        proj = project_constraints(f, "z2-nonrel", model)
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
        model = make_model(kind, 3, params, **kw)
        rng = np.random.default_rng(3)
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        f = project_constraints(raw, red, model)
        devs = []
        for dt in (1e-2, 1e-3):
            stepped = f + dt * model.eom_rhs(f)
            devs.append(constraint_deviation(stepped, red, model))
        # quadratic (or better) shrinkage
        assert devs[1] < devs[0] * 1e-1 + 1e-12

    def test_z2_matches_conjugator_fixed_point(self, params, rng):
        model = make_model("nonrel-top", 3, params)
        f = project_constraints(scalar_field(model, rng), "z2-nonrel", model)
        smat = reconstruct(f[..., 0, 0], 3)
        h = z2_conjugator(3)
        assert np.abs(h @ smat @ np.linalg.inv(h) - smat).max() < 1e-12

    def test_z2_lax_symmetry_informative(self, params, rng):
        # corrected form of the printed reduction symmetry: L(-z) = -h L(z) h^{-1}
        model = make_model("nonrel-top", 3, params)
        f = project_constraints(scalar_field(model, rng), "z2-nonrel", model)
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

    def test_small_eta_limit(self, params, rng):
        # eta*phi_a(eta, omega_a) -> 1, so relativize(S, eta)/eta -> S
        # (residue oracle for the simple pole of phi at the origin)
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        errs = []
        for k in (3, 4, 5):
            eta = 10.0 ** (-k)
            r = relativize(f, eta, model)
            diff = r / eta - f
            diff[0, 0] = 0.0  # zero mode untouched by the map
            errs.append(np.abs(diff).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4

    def test_eigenvalues_change(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        r = relativize(f, ETA, model)
        ev1 = np.sort_complex(np.linalg.eigvals(reconstruct(f[..., 0, 0], 3)))
        ev2 = np.sort_complex(np.linalg.eigvals(reconstruct(r[..., 0, 0], 3)))
        assert np.abs(ev1 - ev2).max() > 1e-3

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
        """The four dual forms of the coupled matrix against CoupledTop.L_of
        of a model built at the sampled eta, at two z in one batch."""
        model = make_model("coupled", n, params, eta=ETA, m=m, k=k)
        f = model.random_field(seed=6)
        z1, z2, eta = box_points(rng, 3)
        zs = np.array([z1, z2])
        base = make_model("coupled", n, params, eta=eta, m=m, k=k).L_of(f, zs)
        for form in (coupled_form_w303, coupled_form_w305,
                     coupled_form_w307, coupled_form_w308):
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
        assert constraint_deviation(g, gaudin.reduction, gaudin) < 1e-10
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
        got = model.eom_rhs(s)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(got[0, 0]).max() == 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_gaudin_matches_double_loop(self, params, rng, n):
        # dA^a = sum_{g != 0} J_g (A^{a-g} A^g - A^g A^{a-g}), dA^0 = 0, on
        # an unconstrained field, J_g = E1(eta/N + w_g) - E1(w_g)
        k = 2
        model = make_model("gaudin-lattice", n, params, eta=ETA, k=k)
        s = rng.normal(size=(n, n, k, k)) + 1j * rng.normal(size=(n, n, k, k))
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
                want[a] += jg * (s[b] @ s[g] - s[g] @ s[b])
        got = model.eom_rhs(s)
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
        dev = constraint_deviation(sdot, model.reduction, model)
        assert dev / np.linalg.norm(sdot) <= 1e-12

    def test_unconstrained_control(self, params, rng):
        model = make_model("coupled", 2, params, eta=ETA, m=5, k=2)
        shape = model.field_shape()
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert lax_residual(model, raw, model.spectral_samples(5, 3))["max_rel"] > 1e-3


class TestGaudinReduce:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 5), (3, 4)])
    def test_variant1_residues(self, params, n, m):
        model = make_model("coupled", n, params, eta=ETA, m=m, k=n)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 1, ETA, model)
        assert len(red.marked_points) == m * m
        for i in range(len(red.marked_points)):
            num = red.extract_residue(i)
            den = max(np.abs(red.residues[i]).max(), 1e-30)
            assert np.abs(num - red.residues[i]).max() / den < 1e-9

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 5), (3, 4)])
    def test_variant2_residues(self, params, n, m):
        model = make_model("coupled", n, params, eta=ETA, m=m, k=m)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 2, ETA, model)
        assert len(red.marked_points) == n * n
        for i in range(len(red.marked_points)):
            num = red.extract_residue(i)
            den = max(np.abs(red.residues[i]).max(), 1e-30)
            assert np.abs(num - red.residues[i]).max() / den < 1e-9

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

    def test_unknown_reduction(self, params, rng):
        model = make_model("nonrel-top", 2, params)
        f = scalar_field(model, rng)
        with pytest.raises(ValueError):
            project_constraints(f, "z3-fold", model)
