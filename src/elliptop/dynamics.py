"""Fixed-step RK4 integration with conserved-quantity monitoring.

Time is real, the state is the complex coefficient field; constraints are
never re-projected during the flow, so constraint drift is a measured
quantity.  Monitors are evaluated at recorded snapshots only:

* eigenvalues of the reconstructed N x N matrix (scalar tops), matched
  to the initial spectrum by nearest-neighbour assignment,
* tr L(z)^k for k = 1..size at each spectral probe,
* deviation from the constraint set of the model's reduction
  (``model.reduction``; 0 for a model without one).

The probes' pole check and Lax coefficient rows c_i(z) are evaluated once
per run, before the first step; each snapshot only contracts those rows
with the field's basis stack, L(z) = sum_i c_i(z) B_i (``L_of`` at all
probes at once), and takes the trace powers.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .models import _contract, _LatticeTop
from .rmatrix import _order_window
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
        # each probe keys one monitor series, so a repeat would fill it twice
        if len(set(self.spectral_probes)) < len(self.spectral_probes):
            raise ValueError(f"spectral probes must be distinct: {self.spectral_probes}")
        ratio = self.t_end / self.dt
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(f"t_end must be a whole number of steps dt: t_end / dt = "
                             f"{self.t_end!r} / {self.dt!r} = {ratio:.12g}")


@dataclass
class Trajectory:
    times: list
    states: list                      # field snapshots
    eigenvalues: list                 # per-time arrays (scalar tops) or None
    lax_traces: dict                  # probe -> list of per-time [tr L^k] arrays
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
    """y + dt/6 (k1 + 2 k2 + 2 k3 + k4), bit for bit, summed in one fresh
    array; neither y nor what f returns is written to."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    acc = 2.0 * k2
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= dt / 6.0
    acc += y
    return acc


def _probe_rows(model: _LatticeTop, probes: list) -> np.ndarray:
    """The Lax coefficient rows c_i(z) at the probes, one row per probe;
    ValueError if a probe sits within pole_guard of a pole of L and M."""
    zs = np.asarray(probes, dtype=complex)
    close = np.flatnonzero(model.pole_distance(zs) <= model.params.pole_guard)
    if close.size:
        raise ValueError(f"spectral probe {probes[close[0]]} sits on the Lax pole set")
    return model._l_coeffs(zs)


def _trace_powers(lmats: np.ndarray, kmax: int) -> np.ndarray:
    """tr L^k for k = 1..kmax, one row per matrix of the stack."""
    powers = lmats
    traces = [np.trace(powers, axis1=1, axis2=2)]
    for _ in range(kmax - 1):
        powers = powers @ lmats
        traces.append(np.trace(powers, axis1=1, axis2=2))
    return np.stack(traces, axis=1)


def integrate(model: _LatticeTop, field0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    """Classical RK4 flow of the model's equations of motion.

    The initial field must be finite and, for a model with a reduction,
    satisfy its constraints to 1e-10 max(1, ||field0||) (ValueError
    otherwise).  NaN or overflow aborts the run, keeping the last good state.
    """
    if not np.isfinite(field0).all():
        raise ValueError("the initial field has non-finite entries")
    if model.reduction is not None:
        dev = model.constraint_deviation(field0)
        if dev > 1e-10 * max(1.0, float(np.linalg.norm(field0))):
            raise ValueError(
                f"initial field violates '{model.reduction}' constraints by {dev:.3e}")

    steps = round(cfg.t_end / cfg.dt)
    is_scalar = model._t_paired and model.k == 1   # S = sum_a T_a S_a in Mat(N)

    probes = list(cfg.spectral_probes)
    rows = _probe_rows(model, probes) if probes else None
    traj = Trajectory([], [], [], {z: [] for z in probes}, [])

    def record(t: float, snap: np.ndarray):
        traj.times.append(t)
        traj.states.append(snap)
        if is_scalar:
            mat = reconstruct(snap[..., 0, 0], model.n)
            traj.eigenvalues.append(np.sort_complex(np.linalg.eigvals(mat)))
        else:
            traj.eigenvalues.append(None)
        if probes:
            traces = _trace_powers(_contract(rows, model._basis(snap)), model.size)
            for z, row in zip(probes, traces):
                traj.lax_traces[z].append(row)
        traj.constraint_dev.append(model.constraint_deviation(snap) if model.reduction else 0.0)

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


def convergence_order(model: _LatticeTop, field0: np.ndarray, t_end: float) -> float:
    """Global-error order of the integrator: the mean ``rmatrix._order_window`` of
    d_j = ||y_j - y_{j+1}|| ~ dt^q over the endpoints y_j at
    dt = t_end / 10 * 2^-j, j = 0..5.  Once truncation is gone the d_j sit
    at 3-70 eps ||y|| (rel-top N = 2 fields of scale 0.5), so the floor of
    d_j is 100 eps ||y_{j+1}||.  ValueError if fewer than three ratios are
    clean."""
    ends = [integrate(model, field0, IntegratorConfig(t_end / 10 * 2.0 ** -j, t_end,
                                                      10 ** 9)).states[-1]
            for j in range(6)]
    floor = 100 * np.finfo(float).eps
    window = _order_window([float(np.linalg.norm(a - b)) for a, b in zip(ends, ends[1:])],
                           [floor * float(np.linalg.norm(b)) for b in ends[1:]])
    if len(window) < 3:
        raise ValueError(f"only {len(window)} step-halving ratios above the "
                         "rounding floor")
    return float(np.mean(window))


def _write_csv(path, labels, times, rows) -> None:
    """time, then Re/Im of each labelled value, one line per recorded time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"{p}_{label}" for label in labels
                                    for p in ("re", "im")])
        for t, values in zip(times, rows):
            row = [f"{t:.12g}"]
            for c in values:
                row += [repr(float(c.real)), repr(float(c.imag))]
            writer.writerow(row)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """time, Re/Im of each coefficient; lattice row-major then block row-major."""
    labels = [f"c{i}" for i in range(traj.states[0].size)]
    _write_csv(path, labels, traj.times, (snap.reshape(-1) for snap in traj.states))


def write_monitor_csv(traj: Trajectory, probe: complex, path) -> None:
    """time, Re/Im of tr L^k at one spectral probe."""
    series = traj.lax_traces[probe]
    _write_csv(path, [f"trL{k + 1}" for k in range(len(series[0]))], traj.times, series)
