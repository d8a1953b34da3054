"""Fixed-step RK4 integration with conserved-quantity monitoring.

Time is real, the state is the complex coefficient field; constraints are
never re-projected during the flow, so constraint drift is a measured
quantity.  Monitors are evaluated at recorded snapshots only:

* eigenvalues of the reconstructed N x N matrix (scalar tops), matched
  to the initial spectrum by nearest-neighbour assignment,
* tr L(z)^k for k = 1..size and the characteristic-polynomial
  coefficients of L(z) at each spectral probe,
* deviation from the model's constraint set.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .elliptic import lattice_distance
from .models import EllipticTopModel, constraint_deviation
from .torus import reconstruct


@dataclass
class IntegratorConfig:
    dt: float
    t_end: float
    record_every: int = 10
    spectral_probes: tuple = ()

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > self.dt:
            raise ValueError("t_end must be an integer number of steps within one dt")


@dataclass
class Trajectory:
    times: list
    states: list                      # field snapshots
    eigenvalues: list                 # per-time arrays (scalar tops) or None
    lax_traces: dict                  # probe -> list of per-time [tr L^k] arrays
    charpoly: dict                    # probe -> list of per-time coefficient arrays
    constraint_dev: list
    completed: bool = True
    abort_reason: str = ""

    def eigenvalue_drift(self) -> float:
        if not self.eigenvalues or self.eigenvalues[0] is None:
            return 0.0
        ref = self.eigenvalues[0]
        drift = 0.0
        for ev in self.eigenvalues[1:]:
            drift = max(drift, float(np.abs(_match(ref, ev) - ref).max()))
        return drift

    def trace_drift(self) -> float:
        """Max relative drift of tr L(z)^k over probes and orders."""
        worst = 0.0
        for probe, series in self.lax_traces.items():
            arr = np.array(series)
            ref = arr[0]
            scale = np.maximum(np.abs(ref), 1.0)
            worst = max(worst, float((np.abs(arr - ref) / scale).max()))
        return worst

    def constraint_drift(self) -> float:
        return float(max(self.constraint_dev)) if self.constraint_dev else 0.0


def _match(ref: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbour matching of eigenvalue lists."""
    vals = list(vals)
    out = np.empty_like(ref)
    for i, r in enumerate(ref):
        j = int(np.argmin(np.abs(np.array(vals) - r)))
        out[i] = vals.pop(j)
    return out


def rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def spectral_invariants(model: EllipticTopModel, field: np.ndarray, probes,
                        kmax: int | None = None) -> dict:
    """tr L(z)^k (k = 1..kmax) and charpoly coefficients at each probe.

    All probes are evaluated in one batched ``L_of`` call.
    """
    kmax = kmax or model.size
    probes = list(probes)
    zs = np.asarray(probes, dtype=complex)
    poles = np.asarray(model.pole_set(), dtype=complex)
    dist = lattice_distance(zs[:, None] - poles, model.params.tau).min(axis=1)
    close = np.flatnonzero(dist <= model.params.pole_guard)
    if close.size:
        raise ValueError(f"spectral probe {probes[close[0]]} sits on the Lax pole set")
    lmats = model.L_of(field, zs)
    powers = lmats
    traces = [np.trace(powers, axis1=1, axis2=2)]
    for _ in range(kmax - 1):
        powers = powers @ lmats
        traces.append(np.trace(powers, axis1=1, axis2=2))
    traces = np.stack(traces, axis=1)
    eigs = np.linalg.eigvals(lmats)
    return {"traces": {z: traces[i] for i, z in enumerate(probes)},
            "charpoly": {z: np.poly(eigs[i]) for i, z in enumerate(probes)}}


def integrate(model: EllipticTopModel, field0: np.ndarray, cfg: IntegratorConfig,
              reduction: str | None = None) -> Trajectory:
    """Classical RK4 flow of the model's equations of motion.

    The initial field must satisfy the applicable constraints to 1e-10.
    NaN or overflow aborts the run, keeping the last good state.
    """
    reduction = reduction or model.reduction
    if reduction is not None:
        dev = constraint_deviation(field0, reduction, model)
        if dev > 1e-10:
            raise ValueError(
                f"initial field violates '{reduction}' constraints by {dev:.3e}")

    steps = round(cfg.t_end / cfg.dt)
    is_scalar = field0.ndim == 4 and field0.shape[2:] == (1, 1)

    traj = Trajectory([], [], [], {z: [] for z in cfg.spectral_probes},
                      {z: [] for z in cfg.spectral_probes}, [])

    def record(t: float, snap: np.ndarray):
        traj.times.append(t)
        traj.states.append(snap)
        if is_scalar:
            mat = reconstruct(snap[..., 0, 0], model.n)
            traj.eigenvalues.append(np.sort_complex(np.linalg.eigvals(mat)))
        else:
            traj.eigenvalues.append(None)
        if cfg.spectral_probes:
            inv = spectral_invariants(model, snap, cfg.spectral_probes)
            for z in cfg.spectral_probes:
                traj.lax_traces[z].append(inv["traces"][z])
                traj.charpoly[z].append(inv["charpoly"][z])
        traj.constraint_dev.append(
            constraint_deviation(snap, reduction, model) if reduction else 0.0)

    # rk4_step returns a new array, so each snapshot is kept as it is
    y = field0.copy()
    record(0.0, y)
    # overflow is an anticipated failure mode, handled by aborting; numpy
    # cannot re-enter one errstate, so one covers the whole loop
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            y_next = rk4_step(model.eom_rhs, y, cfg.dt)
            if not np.isfinite(y_next).all():
                traj.completed = False
                traj.abort_reason = (f"non-finite state at t = {step * cfg.dt:.6g}; "
                                     f"last good t = {(step - 1) * cfg.dt:.6g}")
                break
            y = y_next
            if step % cfg.record_every == 0 or step == steps:
                record(step * cfg.dt, y)
    return traj


def convergence_order(model: EllipticTopModel, field0: np.ndarray, t_end: float,
                      dts=(1e-2, 5e-3, 2.5e-3), ref_dt: float | None = None) -> float:
    """Fitted global-error order of the integrator against a fine reference."""
    ref_dt = ref_dt or min(dts) / 8.0

    def endpoint(dt: float) -> np.ndarray:
        cfg = IntegratorConfig(dt=dt, t_end=t_end, record_every=10 ** 9)
        return integrate(model, field0, cfg, reduction=None).states[-1]

    ref = endpoint(ref_dt)
    errs = [float(np.linalg.norm((endpoint(dt) - ref).ravel())) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    return float(slope)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """time, Re/Im of each coefficient; lattice row-major then block row-major."""
    ncoef = traj.states[0].size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"{p}_c{i}" for i in range(ncoef)
                                    for p in ("re", "im")])
        for t, snap in zip(traj.times, traj.states):
            flat = snap.reshape(-1)
            row = [f"{t:.12g}"]
            for c in flat:
                row += [repr(float(c.real)), repr(float(c.imag))]
            writer.writerow(row)


def write_monitor_csv(traj: Trajectory, probe: complex, path) -> None:
    """time, Re/Im of tr L^k at one spectral probe."""
    series = traj.lax_traces[probe]
    kmax = len(series[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"{p}_trL{k + 1}" for k in range(kmax)
                                    for p in ("re", "im")])
        for t, tr in zip(traj.times, series):
            row = [f"{t:.12g}"]
            for c in tr:
                row += [repr(float(c.real)), repr(float(c.imag))]
            writer.writerow(row)
