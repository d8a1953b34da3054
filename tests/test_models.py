"""Equations of motion, Lax equivalence, reductions, and the coupled model."""
import numpy as np
import pytest

from elliptop.elliptic import EllipticParams, kronecker_phi
from elliptop.fourier import ft_coeffs, omega_of, phi_alpha
from elliptop.models import (CoupledTop, check_relativization, constraint_deviation,
                             coupled_form_base, coupled_form_w303,
                             coupled_form_w305, coupled_form_w307,
                             coupled_form_w308, gaudin_reduce, lax_residual,
                             make_model, project_constraints, relativize)
from elliptop.torus import T, decompose, lattice, reconstruct, z2_conjugator

from conftest import TAU, box_points

ETA = 0.17 + 0.05j


def scalar_field(model, rng, scale=1.0):
    n = model.n
    data = scale * (rng.normal(size=(n, n, 1, 1)) + 1j * rng.normal(size=(n, n, 1, 1)))
    return model._wrap(data)


class TestScalarEom:
    def test_commutator_oracle_nonrel(self, params, rng):
        # oracle: dS/dt = [S, J(S)] evaluated as a plain matrix commutator
        for n in (2, 3):
            model = make_model("nonrel-top", n, params)
            f = scalar_field(model, rng)
            s = f.data[..., 0, 0]
            smat = reconstruct(s, n)
            jmat = sum(T(a, n) * s[a] * model._j[a]
                       for a in lattice(n) if a != (0, 0))
            want = decompose(smat @ jmat - jmat @ smat, n)
            got = model.eom_rhs(f).data[..., 0, 0]
            assert np.abs(got - want).max() < 1e-11

    def test_commutator_oracle_rel(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        s = f.data[..., 0, 0]
        smat = reconstruct(s, 3)
        jmat = sum(T(a, 3) * s[a] * model._j[a] for a in lattice(3) if a != (0, 0))
        want = decompose(smat @ jmat - jmat @ smat, 3)
        got = model.eom_rhs(f).data[..., 0, 0]
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
        f = model._wrap(coeffs.reshape(n, n, 1, 1))
        out = reconstruct(model.eom_rhs(f).data[..., 0, 0], n)
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
        base = model.eom_rhs(f).data
        shifted = make_model("nonrel-top", n, params)
        j = shifted._j + (3.7 - 0.2j)
        j[0, 0] = 0.0  # J_0 never enters the flow
        shifted._set_inertia(j)
        assert np.abs(shifted.eom_rhs(f).data - base).max() < 1e-11

    def test_single_mode_is_stationary(self, params):
        for kind, kw in [("nonrel-top", {}), ("rel-top", {"eta": ETA})]:
            model = make_model(kind, 3, params, **kw)
            data = np.zeros((3, 3, 1, 1), dtype=complex)
            data[1, 2] = 1.7 + 0.3j
            f = model._wrap(data)
            assert model.eom_rhs(f).norm() == 0.0

    def test_sdot_zero_mode_vanishes(self, params, rng):
        for kind, kw in [("nonrel-top", {}), ("rel-top", {"eta": ETA})]:
            model = make_model(kind, 3, params, **kw)
            f = scalar_field(model, rng)
            assert abs(model.eom_rhs(f).data[0, 0, 0, 0]) == 0.0

    def test_trace_conservation(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        sdot = model.eom_rhs(f).data[..., 0, 0]
        assert abs(np.trace(reconstruct(sdot, 3))) < 1e-12


class TestInverseInertia:
    def test_nonrel_n2_three_modes(self, params, rng):
        from elliptop.models import j_nonrel
        model = make_model("nonrel-top", 2, params)
        f = scalar_field(model, rng)
        out = j_nonrel(f, 2, params)
        vals = out.data[..., 0, 0]
        assert abs(vals[0, 0]) == 0.0
        assert all(abs(vals[a]) > 0 for a in [(0, 1), (1, 0), (1, 1)])

    def test_single_mode_stays_single(self, params):
        from elliptop.models import j_nonrel, j_rel
        n = 3
        data = np.zeros((n, n, 1, 1), dtype=complex)
        data[2, 1] = 1.0
        model = make_model("nonrel-top", n, params)
        f = model._wrap(data)
        for out in (j_nonrel(f, n, params), j_rel(f, ETA, n, params)):
            nz = np.nonzero(np.abs(out.data[..., 0, 0]) > 0)
            assert list(zip(*nz)) == [(2, 1)]

    def test_j_even_in_index(self, params):
        # J_a = J_{-a} for the nonrelativistic inertia (wp is even)
        from elliptop.models import j_nonrel
        n = 3
        model = make_model("nonrel-top", n, params)
        ones = model._wrap(np.ones((n, n, 1, 1), dtype=complex))
        vals = j_nonrel(ones, n, params).data[..., 0, 0]
        for a in lattice(n):
            an = ((-a[0]) % n, (-a[1]) % n)
            assert abs(vals[a] - vals[an]) < 1e-12

    def test_j_rel_zero_eta(self, params, rng):
        from elliptop.models import j_rel
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        assert j_rel(f, 0.0, 3, params).norm() == 0.0

    def test_j_rel_small_eta_limit(self, params):
        # J^eta_a / eta -> -E2(omega_a), Richardson over eta = 2^{-k}
        from elliptop.elliptic import eisenstein_E2
        from elliptop.fourier import omega_of
        from elliptop.models import j_rel
        n = 3
        ones = make_model("nonrel-top", n, params)._wrap(
            np.ones((n, n, 1, 1), dtype=complex))
        a = (1, 2)
        want = -complex(eisenstein_E2(omega_of(a[0], a[1], n, params.tau), params))
        vals = []
        for k in (6, 7, 8):
            eta = 2.0 ** (-k)
            vals.append(j_rel(ones, eta, n, params).data[a][0, 0] / eta)
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
        raw = model._wrap(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        res = lax_residual(model, raw, model.spectral_samples(5, 3))
        assert res["max_rel"] > 1e-3

    def test_rel_top_delta_field(self, params):
        # S supported on the zero mode: L = S0 phi(z, eta) 1, M = 0
        n = 3
        model = make_model("rel-top", n, params, eta=ETA)
        data = np.zeros((n, n, 1, 1), dtype=complex)
        data[0, 0] = 2.2 - 0.4j
        f = model._wrap(data)
        z = 0.21 + 0.33j
        want = data[0, 0, 0, 0] * complex(kronecker_phi(z, ETA, params)) * np.eye(n)
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
            want = f.data[a][0, 0] * complex(phi_alpha(z, 0.0, a[0], a[1], n, params))
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
            raw = model._wrap(rng.normal(size=model.field_shape())
                              + 1j * rng.normal(size=model.field_shape()))
            once = project_constraints(raw, red, model)
            twice = project_constraints(once, red, model)
            assert np.abs(once.data - twice.data).max() < 1e-12
            assert constraint_deviation(once, red, model) < 1e-12

    def test_coupled_projector_idempotent(self, params, rng):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        raw = model._wrap(rng.normal(size=model.field_shape())
                          + 1j * rng.normal(size=model.field_shape()))
        once = model.project(raw)
        assert np.abs(model.project(once).data - once.data).max() < 1e-11
        # zero-mode sum is scalar after projection
        s = once.data[0, 0].sum(axis=(0, 1))
        off = s - np.trace(s) / model.k * np.eye(model.k)
        assert np.abs(off).max() < 1e-12

    def test_n2_z2_projector_touches_nothing(self, params, rng):
        # at N = 2 every index is self-paired, so the Z2 projector is the identity
        model = make_model("nonrel-top", 2, params)
        f = scalar_field(model, rng)
        proj = project_constraints(f, "z2-nonrel", model)
        assert np.abs(proj.data - f.data).max() == 0.0

    def test_n2_gaudin_constraint_only_zero_block(self, params, rng):
        model = make_model("gaudin-lattice", 2, params, eta=ETA, k=3)
        raw = model._wrap(rng.normal(size=model.field_shape())
                          + 1j * rng.normal(size=model.field_shape()))
        proj = model.project(raw)
        diff = np.abs(proj.data - raw.data)
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
        raw = model._wrap(rng.normal(size=model.field_shape())
                          + 1j * rng.normal(size=model.field_shape()))
        f = project_constraints(raw, red, model)
        devs = []
        for dt in (1e-2, 1e-3):
            stepped = f.with_data(f.data + dt * model.eom_rhs(f).data)
            devs.append(constraint_deviation(stepped, red, model))
        # quadratic (or better) shrinkage
        assert devs[1] < devs[0] * 1e-1 + 1e-12

    def test_z2_matches_conjugator_fixed_point(self, params, rng):
        model = make_model("nonrel-top", 3, params)
        f = project_constraints(scalar_field(model, rng), "z2-nonrel", model)
        smat = reconstruct(f.data[..., 0, 0], 3)
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
            diff = r.data / eta - f.data
            diff[0, 0] = 0.0  # zero mode untouched by the map
            errs.append(np.abs(diff).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4

    def test_eigenvalues_change(self, params, rng):
        model = make_model("rel-top", 3, params, eta=ETA)
        f = scalar_field(model, rng)
        r = relativize(f, ETA, model)
        ev1 = np.sort_complex(np.linalg.eigvals(reconstruct(f.data[..., 0, 0], 3)))
        ev2 = np.sort_complex(np.linalg.eigvals(reconstruct(r.data[..., 0, 0], 3)))
        assert np.abs(ev1 - ev2).max() > 1e-3

    def test_nonrel_limit_slope(self, params, rng):
        # || eom_rel(S, eta)/eta - eom_nonrel(S) || ~ C eta (log-log slope 1)
        n = 3
        nonrel = make_model("nonrel-top", n, params)
        f = scalar_field(nonrel, rng, scale=0.7)
        base = nonrel.eom_rhs(f).data
        etas, gaps = [], []
        for k in range(3, 11):
            eta = 2.0 ** (-k)
            rel = make_model("rel-top", n, params, eta=eta)
            gaps.append(float(np.abs(rel.eom_rhs(f).data / eta - base).max()))
            etas.append(eta)
        slope = np.polyfit(np.log(etas), np.log(gaps), 1)[0]
        assert abs(slope - 1.0) < 0.1


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

    def test_coupled_four_forms_agree(self, params, rng):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=6)
        z, eta = box_points(rng, 2)
        base = coupled_form_base(model, f, z, eta)
        for form in (coupled_form_w303, coupled_form_w305,
                     coupled_form_w307, coupled_form_w308):
            got = form(model, f, z, eta)
            assert np.abs(got - base).max() < 1e-10 * np.abs(base).max(), form

    def test_forms_agree_swapped_sizes(self, params, rng):
        model = make_model("coupled", 3, params, eta=ETA, m=2, k=2)
        f = model.random_field(seed=6)
        z, eta = box_points(rng, 2)
        base = coupled_form_base(model, f, z, eta)
        for form in (coupled_form_w303, coupled_form_w305,
                     coupled_form_w307, coupled_form_w308):
            assert np.abs(form(model, f, z, eta) - base).max() \
                < 1e-10 * np.abs(base).max()


class TestCoupledStructure:
    def test_eom_trace_free(self, params):
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=1)
        sdot = model.eom_rhs(f)
        traces = np.trace(sdot.data, axis1=-2, axis2=-1)
        assert np.abs(traces).max() < 1e-10

    def test_zero_mode_sum_conserved(self, params):
        # the coupled analogue of dS_0/dt = 0: the constrained scalar zero
        # mode sum_ta A^{0,ta} has vanishing time derivative
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        f = model.random_field(seed=1)
        sdot = model.eom_rhs(f)
        zero_mode_rate = sdot.data[0, 0].sum(axis=(0, 1))
        assert np.abs(zero_mode_rate).max() < 1e-10

    def test_m1_reduces_to_gaudin_eom(self, params):
        """At M = 1 the coupled model is the Gaudin-like lattice top with
        coupling N*eta; under the shared constraints the two independently
        coded equations of motion agree."""
        n, k = 2, 2
        coupled = make_model("coupled", n, params, eta=ETA, m=1, k=k)
        gaudin = make_model("gaudin-lattice", n, params, eta=n * ETA, k=k)
        f = coupled.random_field(seed=5)
        g = gaudin._wrap(f.data[:, :, 0, 0])
        assert gaudin.constraint_deviation(g) < 1e-10
        got = coupled.eom_rhs(f).data[:, :, 0, 0]
        want = gaudin.eom_rhs(g).data
        assert np.abs(got - want).max() < 1e-9

    def test_coupled_m1_lax_matches_rel_top_L(self, params, rng):
        # Phi_{a,0} = varphi_a, so the M = 1 coupled L is the w62-type matrix
        n, k = 3, 1
        model = make_model("coupled", n, params, eta=ETA, m=1, k=k)
        f = model.random_field(seed=7)
        z = 0.27 + 0.31j
        want = np.zeros((k, k), dtype=complex)
        for a in lattice(n):
            want += f.data[a[0], a[1], 0, 0] * complex(
                phi_alpha(z, ETA, a[0], a[1], n, params))
        assert np.abs(model.L_of(f, z) - want).max() < 1e-12


class TestGaudinReduce:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_variant1_residues(self, params, n, m):
        model = make_model("coupled", n, params, eta=ETA, m=m, k=n)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 1, ETA, model)
        assert len(red.marked_points) == m * m
        for i in range(len(red.marked_points)):
            num = red.extract_residue(i)
            den = max(np.abs(red.residues[i]).max(), 1e-30)
            assert np.abs(num - red.residues[i]).max() / den < 1e-9

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
    def test_variant2_residues(self, params, n, m):
        model = make_model("coupled", n, params, eta=ETA, m=m, k=m)
        f = model.random_field(seed=9)
        red = gaudin_reduce(f, 2, ETA, model)
        assert len(red.marked_points) == n * n
        for i in range(len(red.marked_points)):
            num = red.extract_residue(i)
            den = max(np.abs(red.residues[i]).max(), 1e-30)
            assert np.abs(num - red.residues[i]).max() / den < 1e-9

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

    def test_unknown_reduction(self, params, rng):
        model = make_model("nonrel-top", 2, params)
        f = scalar_field(model, rng)
        with pytest.raises(ValueError):
            project_constraints(f, "z3-fold", model)
