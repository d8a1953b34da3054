"""Fixed-step RK4 integration with conserved-quantity monitoring.

Time is real, the state is the complex coefficient field; constraints are
never re-projected during the flow, so constraint drift is a measured
quantity.  ``integrate`` steps the field as the model's flat state
(``state_shape``: (C,) for a weight-row flow, (C, K^2) for the commutator
kernel, see ``models``) with the model's stepping kernel, fetched once per
run (``_stepper``: the weight row, or the commutator kernel's plan, built
on a model's first run), which reads the flat state without a reshape.
It steps in blocks of at most ``_BLOCK`` RK4 steps; a block also ends at
the next recorded step, so a recorded state is always a checked one.
Each step's state is copied into one block buffer, and one
``np.isfinite`` pass over the buffer after the block finds the first
non-finite step: the run aborts there, with the message and the recorded
snapshots of a check after every step, having spent at most
``_BLOCK - 1`` further steps.  The
trajectory is bit for bit that of a per-step loop on field-shaped arrays.
``integrate`` stacks the recorded snapshots into one (T, *field_shape)
array; one pass over that stack then evaluates the monitors, so they see
recorded snapshots only:

* eigenvalues of the reconstructed N x N matrices (scalar tops), one
  batched ``torus.reconstruct`` and one ``eigvals``, matched to the
  initial spectrum by nearest-neighbour assignment,
* tr L(z)^k for k = 1..size at each spectral probe: the probes' Lax
  coefficient rows c_i(z), evaluated once per run before the first step,
  contracted with the basis stack of every snapshot at once,
  L(z) = sum_i c_i(z) B_i (``L_of`` at all probes and times), then one
  trace-power pass,
* deviation from the constraint set of the model's reduction
  (``model.reduction``; 0 for a model without one): one ``project`` of
  the whole stack, then one norm per snapshot.

A snapshot's monitor values do not depend on which other snapshots are
recorded.  Series are indexed by probe position, so a repeated probe
gives two identical series.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import _LatticeTop
from .torus import reconstruct

# RK4 steps per finiteness check of integrate (fewer where a recorded step
# comes first); it also bounds the block buffer and the steps an abort wastes
_BLOCK = 64


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
        ratio = self.t_end / self.dt
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(f"t_end must be a whole number of steps dt: t_end / dt = "
                             f"{self.t_end!r} / {self.dt!r} = {ratio:.12g}")


@dataclass
class Trajectory:
    """T recorded snapshots and their monitors, one array each."""

    times: np.ndarray                 # (T,)
    states: np.ndarray                # (T, *field_shape)
    eigenvalues: np.ndarray | None    # (T, N), sorted (scalar tops), else None
    lax_traces: np.ndarray            # (P, T, size): tr L^k, k = 1..size, at probe p
    constraint_dev: np.ndarray        # (T,)
    completed: bool = True
    abort_reason: str = ""

    def eigenvalue_drift(self) -> float:
        if self.eigenvalues is None:
            return 0.0
        ref = self.eigenvalues[0]
        drift = 0.0
        for ev in self.eigenvalues[1:]:
            drift = max(drift, float(np.abs(_match(ref, ev) - ref).max()))
        return drift

    def trace_drift(self) -> float:
        """Max relative drift of tr L(z)^k over probes and orders."""
        ref = self.lax_traces[:, :1]
        scale = np.maximum(np.abs(ref), 1.0)
        return float((np.abs(self.lax_traces - ref) / scale).max(initial=0.0))

    def constraint_drift(self) -> float:
        return float(self.constraint_dev.max())


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


def _probe_rows(model: _LatticeTop, probes) -> np.ndarray:
    """The Lax coefficient rows c_i(z) at the probes, (P, C), one row per
    probe (none for no probes); ValueError if a probe sits within
    pole_guard of a pole of L and M."""
    zs = np.asarray(probes, dtype=complex)
    close = np.flatnonzero(model.pole_distance(zs) <= model.params.pole_guard)
    if close.size:
        raise ValueError(f"spectral probe {probes[close[0]]} sits on the Lax pole set")
    return model._l_coeffs(zs)


def _trace_powers(lmats: np.ndarray, kmax: int) -> np.ndarray:
    """tr L^k for k = 1..kmax over a stack (..., s, s) of matrices, as (..., kmax)."""
    powers = lmats
    traces = [np.trace(powers, axis1=-2, axis2=-1)]
    for _ in range(kmax - 1):
        powers = powers @ lmats
        traces.append(np.trace(powers, axis1=-2, axis2=-1))
    return np.stack(traces, axis=-1)


def _monitors(model: _LatticeTop, rows: np.ndarray, states: np.ndarray):
    """Eigenvalues (T, N) or None, traces (P, T, size) and constraint
    deviations (T,) of a (T, *field_shape) stack of snapshots."""
    eigenvalues = None
    if model._t_paired and model.k == 1:   # S = sum_a T_a S_a in Mat(N)
        mats = reconstruct(states[..., 0, 0], model.n)
        eigenvalues = np.sort_complex(np.linalg.eigvals(mats))
    lmats = np.einsum("pi,tijk->ptjk", rows, model._basis(states))
    dev = ([np.linalg.norm(d) for d in states - model.project(states)] if model.reduction
           else [0.0] * len(states))
    return eigenvalues, _trace_powers(lmats, model.size), np.array(dev)


def integrate(model: _LatticeTop, field0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    """Classical RK4 flow of the model's equations of motion.

    The initial field must be finite and, for a model with a reduction,
    satisfy its constraints to 1e-10 max(1, ||field0||) (ValueError
    otherwise).  NaN or overflow aborts the run at the first non-finite
    step, keeping the snapshots recorded before it.
    """
    if not np.isfinite(field0).all():
        raise ValueError("the initial field has non-finite entries")
    if model.reduction is not None:
        dev = model.constraint_deviation(field0)
        if dev > 1e-10 * max(1.0, float(np.linalg.norm(field0))):
            raise ValueError(
                f"initial field violates '{model.reduction}' constraints by {dev:.3e}")

    steps, every = round(cfg.t_end / cfg.dt), cfg.record_every
    rows = _probe_rows(model, cfg.spectral_probes)
    eom = model._stepper()
    # the flat state, stepped as it is; rk4_step returns a new array, so
    # each recorded state is kept as it is
    y = field0.reshape(model.state_shape).copy()
    block = np.empty((_BLOCK,) + y.shape, dtype=complex)
    times, states, reason, step = [0.0], [y], "", 0
    # overflow is an anticipated failure mode: the loop aborts on it, and
    # where a large finite state overflows a monitor the drift gates judge
    # it; numpy cannot re-enter one errstate, so one covers both
    with np.errstate(over="ignore", invalid="ignore"):
        while step < steps:
            # a block ends at the next recorded step, so no record is undone
            size = min(steps, step + _BLOCK, (step // every + 1) * every) - step
            for i in range(size):
                y = rk4_step(eom, y, cfg.dt)
                block[i] = y
            finite = np.isfinite(block[:size]).reshape(size, -1).all(axis=1)
            if not finite.all():
                step += int(finite.argmin()) + 1
                reason = (f"non-finite state at t = {step * cfg.dt:.6g}; "
                          f"last good t = {(step - 1) * cfg.dt:.6g}")
                break
            step += size
            if step % every == 0 or step == steps:
                times.append(step * cfg.dt)
                states.append(y)
        states = np.stack(states).reshape((-1,) + field0.shape)
        monitors = _monitors(model, rows, states)
    return Trajectory(np.array(times), states, *monitors, completed=not reason,
                      abort_reason=reason)


def _order_window(errors, floors) -> list:
    """The last three ratios log2(e_k / e_{k+1}) among the leading errors above
    their rounding floors (fewer if fewer are clean): the window in which the
    ratios of an order-q method at halving steps tend to q (Hairer, Norsett
    and Wanner, Solving ODEs I, II.4)."""
    clean = [e for e, _ in itertools.takewhile(lambda ef: ef[0] > ef[1],
                                               zip(errors, floors))]
    return [math.log2(a / b) for a, b in zip(clean, clean[1:])][-3:]


def convergence_order(model: _LatticeTop, field0: np.ndarray, t_end: float) -> float:
    """Global-error order of the integrator: the mean ``_order_window`` of
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


def write_monitor_csv(traj: Trajectory, probe: int, path) -> None:
    """time, Re/Im of tr L^k at the spectral probe of index ``probe``."""
    series = traj.lax_traces[probe]
    _write_csv(path, [f"trL{k + 1}" for k in range(series.shape[1])], traj.times, series)
