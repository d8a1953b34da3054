"""RK4 integration, conservation monitors, and trajectory export."""
import csv
import tracemalloc

import numpy as np
import pytest

from elliptop import dynamics
from elliptop.dynamics import (IntegratorConfig, Trajectory, convergence_order,
                               integrate, rk4_step, write_monitor_csv,
                               write_trajectory_csv)
from elliptop.elliptic import EllipticError
from elliptop.models import _contract, make_model
from elliptop.torus import reconstruct

ETA = 0.17 + 0.05j


def power_traces(model, field, z, kmax=None):
    """tr L(z)^k for k = 1..kmax (default the matrix size), from ``L_of`` at
    one point and one matrix power per k."""
    lmat = model.L_of(field, z)
    return np.array([np.trace(np.linalg.matrix_power(lmat, k))
                     for k in range(1, (kmax or model.size) + 1)])


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

    def test_repeated_probe_gives_identical_series(self, tmp_path, rel2):
        # series are indexed by probe position: a repeated probe once filled
        # one series twice per snapshot, and was then rejected
        z, other = rel2.spectral_samples(2, 9)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1, record_every=5,
                               spectral_probes=(z, other, z))
        traj = integrate(rel2, rel2.random_field(seed=5, scale=0.3), cfg)
        assert traj.lax_traces.shape == (3, 3, rel2.size)
        assert np.array_equal(traj.lax_traces[0], traj.lax_traces[2])
        assert not np.array_equal(traj.lax_traces[0], traj.lax_traces[1])
        paths = [tmp_path / f"monitor_{i}.csv" for i in range(3)]
        for i, path in enumerate(paths):
            write_monitor_csv(traj, i, path)
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert len(paths[0].read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("dt", [0.3, 0.4])
    def test_t_end_off_the_step_grid_rejected(self, dt):
        # these were accepted and stopped at t = 0.9 and 0.8 for t_end = 1
        with pytest.raises(ValueError, match="whole number of steps"):
            IntegratorConfig(dt=dt, t_end=1.0)

    @pytest.mark.parametrize("dt,t_end", [(1e-3, 1.0), (1e-3, 0.1), (1e-2, 0.4),
                                          (2.5e-3, 0.4), (0.4 / 512, 0.4), (0.5, 40.0)])
    def test_t_end_on_the_step_grid_accepted(self, dt, t_end):
        assert IntegratorConfig(dt=dt, t_end=t_end).t_end == t_end


class TestIntegrate:
    def test_single_mode_constant(self, params, rel2):
        data = np.zeros((2, 2, 1, 1), dtype=complex)
        data[1, 1] = 0.8 + 0.2j
        cfg = IntegratorConfig(dt=1e-2, t_end=0.3, record_every=10)
        traj = integrate(rel2, data, cfg)
        assert np.abs(traj.states[-1] - data).max() == 0.0

    def test_one_eom_call_per_stage(self, params):
        # integrate fetches the stepping kernel once per run, every RK4 stage
        # calls it once on the flat state, and eom_rhs is not called
        model = make_model("matrix-top", 2, params, eta=ETA, m=2)
        fetched, calls = [], []
        stepper = model._stepper

        def counting_stepper():
            step = stepper()
            fetched.append(step)

            def counting(state):
                calls.append(state.shape)
                return step(state)
            return counting

        def refuse(field):
            raise AssertionError("integrate called eom_rhs")

        model._stepper, model.eom_rhs = counting_stepper, refuse
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2, record_every=5,
                               spectral_probes=tuple(model.spectral_samples(2, 5)))
        traj = integrate(model, model.random_field(seed=3, scale=0.25), cfg)
        assert traj.completed
        assert len(fetched) == 1
        assert calls == [model.state_shape] * (4 * 20)

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

    @pytest.mark.parametrize("kind,n,kw,scale", [
        ("gaudin-lattice", 3, dict(eta=ETA, k=2), 1e6),
        ("coupled", 2, dict(eta=ETA, m=3, k=2), 1e6),
        ("nonrel-top", 3, dict(reduction="z2-nonrel"), 1e12),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_projected_field_passes_the_gate_at_large_amplitude(self, params, kind, n,
                                                                kw, scale):
        # the gate was once absolute, 1e-10, and rejected these projected
        # fields by 5.2e-10, 3.8e-9 and 1.1e-5: the projection is exact to
        # rounding relative to the field
        model = make_model(kind, n, params, **kw)
        field = model.random_field(0, scale=scale)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(model, field, IntegratorConfig(dt=1e-3, t_end=1e-3))
        assert traj.constraint_dev[0] <= 1e-10 * np.linalg.norm(field)

    def test_non_finite_field_rejected(self, rel2):
        f = rel2.random_field(seed=5)
        f[1, 0] = np.nan
        with pytest.raises(ValueError, match="^the initial field has non-finite"):
            integrate(rel2, f, IntegratorConfig(dt=1e-2, t_end=0.1))

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

    def test_rk3_step_is_caught(self, rel2, monkeypatch):
        # a third-order step in place of RK4 reads as order 3, not 4
        def rk3_step(f, y, dt):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + dt * (2.0 * k2 - k1))
            return y + dt / 6.0 * (k1 + 4.0 * k2 + k3)

        monkeypatch.setattr(dynamics, "rk4_step", rk3_step)
        order = convergence_order(rel2, rel2.random_field(seed=5, scale=0.5), t_end=0.4)
        assert abs(order - 4.0) >= 0.5
        assert abs(order - 3.0) < 0.2

    def test_order_needs_three_clean_ratios(self, rel2):
        # the zero field never moves: every endpoint difference is 0
        with pytest.raises(ValueError, match="rounding floor"):
            convergence_order(rel2, np.zeros(rel2.field_shape(), complex), t_end=0.4)

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


class TestOrderWindow:
    def test_last_three_ratios(self):
        errors = [2.0 ** -(4 * k) for k in range(6)]
        assert dynamics._order_window(errors, [0.0] * 6) == [4.0, 4.0, 4.0]

    def test_stops_at_the_first_error_on_its_floor(self):
        # the ratios past the floor (here 8 and -1) are rounding, not order
        errors = [1.0, 0.25, 0.0625, 2.0 ** -7, 2.0 ** -10, 2.0 ** -9]
        floors = [0.0, 0.0, 0.0, 0.0, 2.0 ** -10, 0.0]
        assert dynamics._order_window(errors, floors) == [2.0, 2.0, 3.0]
        assert dynamics._order_window(errors, [0.5] * 6) == []


class TestRk4Step:
    def test_matches_textbook_expression(self, rel2):
        y = rel2.random_field(seed=4, scale=0.5)
        dt = 1e-2
        f = rel2.eom_rhs
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        want = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.all(rk4_step(f, y, dt) == want)

    def test_writes_neither_state_nor_stages(self, rng):
        # with f the identity every stage returns its own argument, and k1 is y
        y = rng.normal(size=(3, 3, 2, 2)) + 1j * rng.normal(size=(3, 3, 2, 2))
        before = y.copy()
        out = rk4_step(lambda v: v, y, 0.1)
        assert np.all(y == before)
        assert out is not y
        assert np.allclose(out, y * (1 + 0.1 + 0.1 ** 2 / 2 + 0.1 ** 3 / 6 + 0.1 ** 4 / 24),
                           rtol=1e-14, atol=0)


class TestMonitors:
    @pytest.mark.parametrize("kind,n,kw", [
        ("nonrel-top", 3, {}),
        ("rel-top", 2, {"eta": ETA}),
        ("matrix-top", 2, {"eta": ETA, "m": 3}),
        ("gaudin-lattice", 3, {"eta": ETA, "k": 2}),
        ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}),
    ])
    def test_recorded_traces_match_matrix_powers(self, params, kind, n, kw):
        # integrate evaluates the probe rows once per run; each snapshot's
        # traces are those of L_of's matrix at one probe, raised power by power
        model = make_model(kind, n, params, **kw)
        probes = tuple(model.spectral_samples(2, 7))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1, record_every=5, spectral_probes=probes)
        traj = integrate(model, model.random_field(seed=3, scale=0.25), cfg)
        assert traj.completed and len(traj.states) == 3
        for i, snap in enumerate(traj.states):
            for p, z in enumerate(probes):
                got, want = traj.lax_traces[p][i], power_traces(model, snap, z)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_probe_on_pole_rejected_before_first_step(self, params):
        # the rejection comes before the stepping kernel is fetched, so no
        # plan is built for a run that takes no step
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        calls = []
        stepper = model._stepper
        model._stepper = lambda: calls.append(1) or stepper()
        pole = params.tau / 3   # M z = tau is on the period lattice
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1,
                               spectral_probes=(model.spectral_samples(1, 4)[0], pole))
        with pytest.raises(ValueError, match="pole set"):
            integrate(model, model.random_field(seed=3, scale=0.25), cfg)
        assert calls == []
        assert model._eom_plan is None

    def test_probe_without_lax_value_fails_before_first_step(self, params, monkeypatch):
        # a probe off the pole set where L cannot be evaluated: L at the
        # initial field is taken before the stepping kernel is fetched
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        calls = []
        stepper = model._stepper
        model._stepper = lambda: calls.append(1) or stepper()

        def refuse(z):
            raise EllipticError("|Im z| is too large to evaluate")
        monkeypatch.setattr(model, "_l_coeffs", refuse)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1,
                               spectral_probes=tuple(model.spectral_samples(2, 4)))
        with pytest.raises(EllipticError, match="too large"):
            integrate(model, model.random_field(seed=3, scale=0.25), cfg)
        assert calls == []
        assert model._eom_plan is None

    def test_trace_k1_equals_s0_phi(self, params, rng):
        # tr L(z) = N S_0 phi(z, eta) for the relativistic top
        from elliptop.elliptic import kronecker_phi
        n = 3
        model = make_model("rel-top", n, params, eta=ETA)
        f = model.random_field(seed=3)
        z = complex(model.spectral_samples(1, 4)[0])
        cfg = IntegratorConfig(dt=1e-2, t_end=1e-2, spectral_probes=(z,))
        traj = integrate(model, f, cfg)
        want = n * f[0, 0, 0, 0] * complex(kronecker_phi(z, ETA, params))
        assert abs(traj.lax_traces[0, 0, 0] - want) < 1e-11

    def test_probe_on_pole_rejected(self, params):
        model = make_model("rel-top", 2, params, eta=ETA)
        f = model.random_field(seed=3)
        good = complex(model.spectral_samples(1, 4)[0])
        for probes in ((0.0,), (good, 1.0 + params.tau)):
            cfg = IntegratorConfig(dt=1e-2, t_end=0.1, spectral_probes=probes)
            with pytest.raises(ValueError, match="pole set"):
                integrate(model, f, cfg)

    @pytest.mark.parametrize("kind,n,kw", [
        ("rel-top", 3, {"eta": ETA}),
        ("matrix-top", 2, {"eta": ETA, "m": 3}),
    ])
    def test_batched_probes_match_probe_loop(self, params, kind, n, kw):
        model = make_model(kind, n, params, **kw)
        f = model.random_field(seed=6)
        probes = tuple(model.spectral_samples(3, 8))
        cfg = IntegratorConfig(dt=1e-2, t_end=1e-2, spectral_probes=probes)
        traj = integrate(model, f, cfg)
        assert traj.lax_traces.shape == (len(probes), 2, model.size)
        for p, z in enumerate(probes):
            got, want = traj.lax_traces[p, 0], power_traces(model, f, z)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
        t0 = power_traces(model, f, probe)
        for _ in range(2000):
            y = rk4_step(broken.eom_rhs, y, 1e-3)
        t1 = power_traces(model, y, probe)
        drift = np.abs(t1 - t0) / np.maximum(np.abs(t0), 1.0)
        assert drift.max() > 1e-3

    def test_unprojected_initial_deviation_reported(self, params, rng):
        model = make_model("nonrel-top", 3, params, reduction="z2-nonrel")
        raw = (rng.normal(size=model.field_shape())
               + 1j * rng.normal(size=model.field_shape()))
        dev = model.constraint_deviation(raw)
        assert dev > 0.1


def per_snapshot_monitors(model, probes, states):
    """The monitors one snapshot at a time, as integrate once recorded them:
    ``reconstruct`` and ``eigvals`` per snapshot (scalar tops), the probe
    rows contracted with one snapshot's basis stack and raised power by
    power, and ``constraint_deviation``."""
    rows = model._l_coeffs(np.asarray(probes, dtype=complex))
    eig, traces, dev = [], [], []
    for snap in states:
        if model._t_paired and model.k == 1:
            eig.append(np.sort_complex(np.linalg.eigvals(reconstruct(snap[..., 0, 0],
                                                                     model.n))))
        traces.append(dynamics._trace_powers(_contract(rows, model._basis(snap)),
                                             model.size))
        dev.append(model.constraint_deviation(snap) if model.reduction else 0.0)
    return (np.array(eig) if eig else None), np.stack(traces, axis=1), np.array(dev)


MONITOR_MODELS = [
    ("nonrel-top", 3, {"reduction": "z2-nonrel"}),
    ("rel-top", 2, {"eta": ETA}),
    ("matrix-top", 2, {"eta": ETA, "m": 3}),
    ("gaudin-lattice", 3, {"eta": ETA, "k": 2}),
    ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}),
]


class TestMonitorPass:
    """integrate steps, stacks the snapshots, then runs one monitor pass over
    the stack; its values are those of the per-snapshot formulas, bit for bit."""

    @pytest.mark.parametrize("record_every", [1, 5])
    @pytest.mark.parametrize("nprobes", [0, 1, 3])
    @pytest.mark.parametrize("kind,n,kw", MONITOR_MODELS, ids=[m[0] for m in MONITOR_MODELS])
    def test_batched_pass_equals_per_snapshot(self, params, kind, n, kw, nprobes,
                                              record_every):
        model = make_model(kind, n, params, **kw)
        probes = tuple(model.spectral_samples(nprobes, 7)) if nprobes else ()
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1, record_every=record_every,
                               spectral_probes=probes)
        traj = integrate(model, model.random_field(seed=3, scale=0.25), cfg)
        count = 1 + 10 // record_every
        assert traj.completed
        assert traj.times.shape == (count,)
        assert traj.states.shape == (count,) + model.field_shape()
        assert traj.lax_traces.shape == (nprobes, count, model.size)
        assert traj.constraint_dev.shape == (count,)
        assert nprobes or traj.trace_drift() == 0.0
        eig, traces, dev = per_snapshot_monitors(model, probes, traj.states)
        if eig is None:
            assert traj.eigenvalues is None
        else:
            assert traj.eigenvalues.shape == (count, n)
            assert np.array_equal(traj.eigenvalues, eig)
        assert np.array_equal(traj.lax_traces, traces)
        assert np.array_equal(traj.constraint_dev, dev)

    @pytest.mark.parametrize("kind,n,kw", MONITOR_MODELS, ids=[m[0] for m in MONITOR_MODELS])
    def test_snapshots_in_blocks(self, params, monkeypatch, kind, n, kw):
        # L at the 10 snapshots after the first in blocks of 1, 3 and 4: the
        # traces of one block, bit for bit, and one L_of call per block
        # after the one on the initial field
        model = make_model(kind, n, params, **kw)
        field = model.random_field(seed=3, scale=0.25)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1, record_every=1,
                               spectral_probes=tuple(model.spectral_samples(3, 7)))
        whole = integrate(model, field, cfg).lax_traces
        per_snapshot = max(3, model._side ** 2) * model.size ** 2
        calls = []
        lax = model.L_of
        monkeypatch.setattr(model, "L_of", lambda *a: calls.append(1) or lax(*a))
        for snapshots, blocks in ((1, 10), (3, 4), (4, 3)):
            calls.clear()
            monkeypatch.setattr(dynamics, "_LAX_BLOCK", snapshots * per_snapshot)
            assert np.array_equal(integrate(model, field, cfg).lax_traces, whole)
            assert len(calls) == 1 + blocks

    @pytest.mark.parametrize("kind,n,kw", MONITOR_MODELS, ids=[m[0] for m in MONITOR_MODELS])
    def test_snapshot_values_independent_of_the_others(self, params, kind, n, kw):
        # every snapshot and every 5th: the common times carry the same values
        model = make_model(kind, n, params, **kw)
        field = model.random_field(seed=3, scale=0.25)
        probes = tuple(model.spectral_samples(2, 7))
        every, fifth = (integrate(model, field, IntegratorConfig(
            dt=1e-2, t_end=0.1, record_every=r, spectral_probes=probes)) for r in (1, 5))
        assert np.array_equal(every.times[::5], fifth.times)
        assert np.array_equal(every.states[::5], fifth.states)
        assert np.array_equal(every.lax_traces[:, ::5], fifth.lax_traces)
        assert np.array_equal(every.constraint_dev[::5], fifth.constraint_dev)
        if fifth.eigenvalues is not None:
            assert np.array_equal(every.eigenvalues[::5], fifth.eigenvalues)

    def test_drifts_are_maxima_over_the_stack(self, params):
        model = make_model("nonrel-top", 3, params, reduction="z2-nonrel")
        probes = tuple(model.spectral_samples(2, 7))
        cfg = IntegratorConfig(dt=1e-2, t_end=0.2, record_every=4, spectral_probes=probes)
        traj = integrate(model, model.random_field(seed=2, scale=0.5), cfg)
        want = max(float(np.max(np.abs(series - series[0])
                                / np.maximum(np.abs(series[0]), 1.0)))
                   for series in traj.lax_traces)
        assert traj.trace_drift() == want > 0.0
        assert traj.constraint_drift() == max(traj.constraint_dev.tolist())
        assert traj.eigenvalue_drift() > 0.0


def reference_run(model, field0, cfg):
    """integrate's steps one at a time on field-shaped arrays: ``rk4_step``
    of the model's stepping kernel, a finiteness check after every step,
    and a snapshot at every record_every-th step and at the last; returns
    the times, the stacked snapshots and the abort reason."""
    steps = round(cfg.t_end / cfg.dt)
    kernel = model._stepper()

    def eom(field):
        return kernel(field.reshape(model.state_shape)).reshape(field.shape)

    y = field0.copy()
    times, states, reason = [0.0], [y], ""
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            y_next = rk4_step(eom, y, cfg.dt)
            if not np.isfinite(y_next).all():
                reason = (f"non-finite state at t = {step * cfg.dt:.6g}; "
                          f"last good t = {(step - 1) * cfg.dt:.6g}")
                break
            y = y_next
            if step % cfg.record_every == 0 or step == steps:
                times.append(step * cfg.dt)
                states.append(y)
    return np.array(times), np.stack(states), reason


CRITERION_7_RUNS = [
    ("nonrel-top", 2, {}),
    ("nonrel-top", 3, {"reduction": "z2-nonrel"}),
    ("rel-top", 2, {"eta": ETA}),
    ("rel-top", 3, {"eta": ETA, "reduction": "z2-rel"}),
    ("matrix-top", 2, {"eta": ETA, "m": 3}),
    ("gaudin-lattice", 3, {"eta": ETA, "k": 2}),
    ("coupled", 2, {"eta": ETA, "m": 3, "k": 2}),
]


class TestBlockedSteps:
    """integrate steps the flat state in blocks and checks each block for
    non-finite states once; its trajectories are those of the per-step loop,
    bit for bit."""

    # 1000 steps recorded every 100th; 500 every 7th (a tail of 3 steps);
    # 300 with only the endpoints recorded, as convergence_order runs it
    @pytest.mark.parametrize("t_end,record_every", [(1.0, 100), (0.5, 7), (0.3, 10 ** 9)])
    @pytest.mark.parametrize("kind,n,kw", CRITERION_7_RUNS,
                             ids=[f"{k}-{n}" for k, n, _ in CRITERION_7_RUNS])
    def test_criterion_7_runs_equal_the_step_loop(self, params, kind, n, kw, t_end,
                                                  record_every):
        model = make_model(kind, n, params, **kw)
        field = model.random_field(seed=5, scale=0.25)
        probes = tuple(model.spectral_samples(2, 11))
        cfg = IntegratorConfig(dt=1e-3, t_end=t_end, record_every=record_every,
                               spectral_probes=probes)
        traj = integrate(model, field, cfg)
        times, states, reason = reference_run(model, field, cfg)
        assert traj.completed and reason == ""
        assert np.array_equal(traj.times, times)
        assert traj.states.shape == states.shape
        assert np.array_equal(traj.states, states)
        eig, traces, dev = per_snapshot_monitors(model, probes, states)
        if eig is None:
            assert traj.eigenvalues is None
        else:
            assert np.array_equal(traj.eigenvalues, eig)
        assert np.array_equal(traj.lax_traces, traces)
        assert np.array_equal(traj.constraint_dev, dev)

    def test_abort_inside_a_block(self, params):
        # evolve --model nonrel-top --N 2 --seed 0: step 647, the first
        # non-finite one, lies inside a block, between two recorded steps
        model = make_model("nonrel-top", 2, params)
        field = model.random_field(seed=0, scale=0.25)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=100,
                               spectral_probes=tuple(model.spectral_samples(2, 1)))
        traj = integrate(model, field, cfg)
        times, states, reason = reference_run(model, field, cfg)
        assert not traj.completed
        assert traj.abort_reason == reason == (
            "non-finite state at t = 0.647; last good t = 0.646")
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.times, [step * 1e-3 for step in range(0, 700, 100)])
        assert np.array_equal(traj.states, states)

    @pytest.mark.parametrize("first_bad", [1, 5, dynamics._BLOCK, dynamics._BLOCK + 1])
    def test_first_non_finite_step_is_named(self, rel2, monkeypatch, first_bad):
        # a step function that turns non-finite at a chosen step, at the
        # first and a middle step of a block and at both sides of a block edge
        calls = []

        def step(f, y, dt):
            calls.append(1)
            out = rk4_step(f, y, dt)
            if len(calls) >= first_bad:
                out[-1] = np.inf
            return out

        monkeypatch.setattr(dynamics, "rk4_step", step)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.2, record_every=10 ** 9)
        traj = integrate(rel2, rel2.random_field(seed=5, scale=0.25), cfg)
        assert traj.abort_reason == (f"non-finite state at t = {first_bad * 1e-3:.6g}; "
                                     f"last good t = {(first_bad - 1) * 1e-3:.6g}")
        assert np.array_equal(traj.times, [0.0])

    def test_memory_does_not_grow_with_record_every(self, params):
        # 2000 steps of coupled (2, 3, 2) with only the endpoints recorded
        model = make_model("coupled", 2, params, eta=ETA, m=3, k=2)
        field = model.random_field(seed=5, scale=0.25)
        cfg = IntegratorConfig(dt=1e-4, t_end=0.2, record_every=10 ** 9)
        tracemalloc.start()
        try:
            traj = integrate(model, field, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.completed and len(traj.times) == 2
        assert peak < 1_000_000


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
        write_monitor_csv(traj, 0, mpath)
        mrows = list(csv.reader(open(mpath)))
        assert len(mrows[0]) == 1 + 2 * rel2.size
