"""RK4 integration, conservation monitors, and trajectory export."""
import csv

import numpy as np
import pytest

from elliptop.dynamics import (IntegratorConfig, Trajectory, convergence_order,
                               integrate, rk4_step, spectral_invariants,
                               write_monitor_csv, write_trajectory_csv)
from elliptop.models import make_model, project_constraints
from elliptop.torus import reconstruct

ETA = 0.17 + 0.05j


@pytest.fixture(scope="module")
def rel2(params):
    return make_model("rel-top", 2, params, eta=ETA)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_end=1.0, record_every=0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.3, t_end=0.1)


class TestIntegrate:
    def test_single_mode_constant(self, params, rel2):
        data = np.zeros((2, 2, 1, 1), dtype=complex)
        data[1, 1] = 0.8 + 0.2j
        cfg = IntegratorConfig(dt=1e-2, t_end=0.3, record_every=10)
        traj = integrate(rel2, data, cfg)
        assert np.abs(traj.states[-1] - data).max() == 0.0

    def test_one_eom_call_per_stage(self, params):
        # every RK4 stage calls the model's eom_rhs once, and nothing else does
        model = make_model("matrix-top", 2, params, eta=ETA, m=2)
        calls = []
        eom = model.eom_rhs

        def counting(field):
            calls.append(field)
            return eom(field)

        model.eom_rhs = counting
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2, record_every=5,
                               spectral_probes=tuple(model.spectral_samples(2, 5)))
        traj = integrate(model, model.random_field(seed=3, scale=0.25), cfg)
        assert traj.completed
        assert len(calls) == 4 * 20

    def test_zero_field_constant(self, rel2):
        f = np.zeros((2, 2, 1, 1), dtype=complex)
        probes = tuple(rel2.spectral_samples(1, 5))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2, record_every=5,
                               spectral_probes=probes)
        traj = integrate(rel2, f, cfg)
        assert traj.eigenvalue_drift() == 0.0
        assert traj.constraint_drift() == 0.0

    def test_eigenvalue_conservation(self, rel2):
        f = rel2.random_field(seed=5, scale=0.25)
        probes = tuple(rel2.spectral_samples(2, 9))
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_every=100,
                               spectral_probes=probes)
        traj = integrate(rel2, f, cfg)
        assert traj.eigenvalue_drift() < 1e-9
        assert traj.trace_drift() < 1e-9
        assert traj.completed

    def test_constraint_violation_rejected(self, params, rng):
        model = make_model("gaudin-lattice", 3, params, eta=ETA, k=2)
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError):
            integrate(model, raw, cfg)

    def test_blowup_aborts_with_last_good_state(self, params):
        # a huge field makes the quadratic flow overflow in finite time
        model = make_model("nonrel-top", 2, params)
        f = model.random_field(seed=2, scale=4e3)
        cfg = IntegratorConfig(dt=0.5, t_end=40.0, record_every=1)
        traj = integrate(model, f, cfg)
        assert not traj.completed
        assert "last good" in traj.abort_reason
        assert np.all(np.isfinite(traj.states[-1].view(float)))

    def test_rk4_convergence_order(self, rel2):
        f = rel2.random_field(seed=5, scale=0.5)
        order = convergence_order(rel2, f, t_end=0.4)
        assert abs(order - 4.0) < 0.2

    def test_rk4_halving_error_ratio(self, params, rel2):
        # halving dt shrinks the endpoint error ~16x against a dt/8 reference
        f = rel2.random_field(seed=7, scale=0.6)

        def endpoint(dt):
            cfg = IntegratorConfig(dt=dt, t_end=0.4, record_every=10 ** 9)
            return integrate(rel2, f, cfg).states[-1]

        ref = endpoint(0.4 / 512)
        e1 = np.linalg.norm((endpoint(0.02) - ref).ravel())
        e2 = np.linalg.norm((endpoint(0.01) - ref).ravel())
        assert 8 < e1 / e2 < 32


class TestMonitors:
    def test_trace_k1_equals_s0_phi(self, params, rng):
        # tr L(z) = N S_0 phi(z, eta) for the relativistic top
        from elliptop.elliptic import kronecker_phi
        n = 3
        model = make_model("rel-top", n, params, eta=ETA)
        f = model.random_field(seed=3)
        z = complex(model.spectral_samples(1, 4)[0])
        inv = spectral_invariants(model, f, [z], kmax=1)
        want = n * f[0, 0, 0, 0] * complex(kronecker_phi(z, ETA, params))
        assert abs(inv["traces"][z][0] - want) < 1e-11

    def test_charpoly_recorded(self, params):
        model = make_model("rel-top", 2, params, eta=ETA)
        f = model.random_field(seed=3)
        z = complex(model.spectral_samples(1, 4)[0])
        inv = spectral_invariants(model, f, [z])
        assert len(inv["charpoly"][z]) == 3  # monic quadratic

    def test_probe_on_pole_rejected(self, params):
        model = make_model("rel-top", 2, params, eta=ETA)
        f = model.random_field(seed=3)
        with pytest.raises(ValueError):
            spectral_invariants(model, f, [0.0])
        good = complex(model.spectral_samples(1, 4)[0])
        with pytest.raises(ValueError, match="pole set"):
            spectral_invariants(model, f, [good, 1.0 + params.tau])

    @pytest.mark.parametrize("kind,n,kw", [
        ("rel-top", 3, {"eta": ETA}),
        ("matrix-top", 2, {"eta": ETA, "m": 3}),
    ])
    def test_batched_probes_match_probe_loop(self, params, kind, n, kw):
        model = make_model(kind, n, params, **kw)
        f = model.random_field(seed=6)
        probes = tuple(model.spectral_samples(3, 8))
        inv = spectral_invariants(model, f, probes)
        assert list(inv["traces"]) == list(probes) == list(inv["charpoly"])
        for z in probes:
            lmat = model.L_of(f, z)
            traces = [np.trace(np.linalg.matrix_power(lmat, k))
                      for k in range(1, model.size + 1)]
            for got, want in ((inv["traces"][z], np.array(traces)),
                              (inv["charpoly"][z], np.poly(lmat))):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_no_probes(self, params):
        model = make_model("gaudin-lattice", 3, params, eta=ETA, k=2)
        inv = spectral_invariants(model, model.random_field(seed=3), ())
        assert inv == {"traces": {}, "charpoly": {}}

    def test_perturbed_m_breaks_conservation(self, params):
        """Negative control: perturbing one component of the flow generator
        by 1% (a non-Lax inverse inertia) produces visible tr L^k drift,
        confirming the monitor's sensitivity."""
        model = make_model("rel-top", 2, params, eta=ETA)
        broken = make_model("rel-top", 2, params, eta=ETA)
        j = broken._j.copy()
        j[1, 0] *= 1.01
        broken._set_inertia(j)

        f = model.random_field(seed=5, scale=1.0)
        probe = complex(model.spectral_samples(1, 9)[0])
        y = f.copy()
        t0 = spectral_invariants(model, f, [probe])["traces"][probe]
        for _ in range(2000):
            y = rk4_step(broken.eom_rhs, y, 1e-3)
        t1 = spectral_invariants(model, y, [probe])["traces"][probe]
        drift = np.abs(t1 - t0) / np.maximum(np.abs(t0), 1.0)
        assert drift.max() > 1e-3

    def test_unprojected_initial_deviation_reported(self, params, rng):
        model = make_model("nonrel-top", 3, params)
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        from elliptop.models import constraint_deviation
        dev = constraint_deviation(raw, "z2-nonrel", model)
        assert dev > 0.1


class TestExport:
    def test_trajectory_csv(self, tmp_path, rel2):
        f = rel2.random_field(seed=5, scale=0.3)
        probes = tuple(rel2.spectral_samples(1, 9))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1, record_every=5,
                               spectral_probes=probes)
        traj = integrate(rel2, f, cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        rows = list(csv.reader(open(path)))
        assert rows[0][0] == "time"
        assert len(rows[0]) == 1 + 2 * f.size
        assert len(rows) == 1 + len(traj.times)
        # flattened order: lattice row-major; first coefficient is (0, 0)
        assert float(rows[1][1]) == pytest.approx(float(f[0, 0, 0, 0].real))

        mpath = tmp_path / "mon.csv"
        write_monitor_csv(traj, probes[0], mpath)
        mrows = list(csv.reader(open(mpath)))
        assert len(mrows[0]) == 1 + 2 * rel2.size
