"""Per-layer tracing of elliptop from outside the library.

The tracer wraps the public functions of each elliptop module (the
layers) and the model methods, and patches every name under which a
caller looks them up: ``elliptop.torus.kappa`` and
``elliptop.models.kappa`` are the same function object, so both names
get the same wrapper.  Everything is restored on exit, so untraced passes
run the unmodified library.

A span is recorded when a call crosses into a different span group
(calls inside the same group pass straight through), so a layer's call
count is the number of times other code entered it.  Spans are kept in
memory as ``(id, function, start, end, parent)`` and reduced at the end:
a span's self time is its duration minus the part of its interval that
its child spans cover.  ``parallel.thread_map`` items run on worker
threads; their spans are parented to the ``thread_map`` span and are
attributed to the layer that called ``thread_map``.
"""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import os
import threading
import time

import numpy as np

LAYERS = ("elliptic", "torus", "fourier", "models", "dynamics", "rmatrix",
          "parallel", "cli")
MODEL_KINDS = ("nonrel-top", "rel-top", "matrix-top", "gaudin-lattice",
               "coupled")

# span group of each model method / function; anything else in models is
# the plain "models" group
_MODEL_GROUPS = {
    "eom_rhs": "models.eom",
    "L_of": "models.lax_eval", "M_of": "models.lax_eval",
    "project": "models.project", "project_constraints": "models.project",
    "constraint_deviation": "models.project",
    "to_big": "models.project", "from_big": "models.project",
    "gaudin_reduce": "models.gaudin", "extract_residue": "models.gaudin",
}
_MODEL_METHODS = ("eom_rhs", "L_of", "M_of", "project", "constraint_deviation",
                  "random_field", "spectral_samples", "to_big", "from_big")
_DYNAMICS_GROUPS = {
    "rk4_step": "dynamics.rk4",
    "spectral_invariants": "dynamics.monitor", "constraint_drift": "dynamics.monitor",
    "eigenvalue_drift": "dynamics.monitor", "trace_drift": "dynamics.monitor",
    "write_trajectory_csv": "dynamics.csv", "write_monitor_csv": "dynamics.csv",
}


class Tracer:
    """Install with ``with tracer:``; read ``tracer.metrics()`` afterwards."""

    def __init__(self):
        self.names: list[str] = []        # function id -> "module.qualname"
        self.layer_of: list[str] = []     # function id -> layer
        self.spans: list[tuple] = []      # (sid, fid, t0, t1, parent sid)
        self.counts = dict.fromkeys(
            ("elliptic.points", "fourier.sample_draws", "fourier.sample_accepted",
             "dynamics.csv_bytes", "cli.report_bytes", "parallel.items"), 0)
        self._ids = itertools.count()
        self._lock = threading.Lock()     # counters are also fed from pool threads
        self._local = threading.local()
        self._undo: list = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _fid(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, group: str, after=None):
        fid = self._fid(name, layer)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][1] == group:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, out, False)
                return out
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, group))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, fid, t0, t1, parent))
            if after is not None:
                after(args, kwargs, out, True)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters fed by the wrappers -----------------------------------------
    def _count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _points(self, args, kwargs, out, entered):
        if entered:
            shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
            self._count("elliptic.points",
                        int(np.prod(np.broadcast_shapes(*shapes))) if shapes else 1)

    def _file_bytes(self, key, fn):
        """Counter hook adding the size of the file named by fn's ``path``."""
        sig = inspect.signature(fn)

        def after(args, kwargs, out, entered):
            path = sig.bind(*args, **kwargs).arguments.get("path")
            if path and os.path.exists(path):
                self._count(key, os.path.getsize(path))
        return after

    def _accepted(self, args, kwargs, out, entered):
        self._count("fourier.sample_accepted", len(out))

    # -- installing -----------------------------------------------------------
    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def __enter__(self):
        import elliptop
        from elliptop import (cli, dynamics, elliptic, fourier, models,
                              parallel, rmatrix, torus)
        mods = {"elliptic": elliptic, "torus": torus, "fourier": fourier,
                "models": models, "dynamics": dynamics, "rmatrix": rmatrix,
                "parallel": parallel, "cli": cli}
        every = [elliptop] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                group, after = self._group(layer, attr), None
                if layer == "elliptic":
                    after = self._points
                elif layer == "parallel" and attr == "thread_map":
                    wrapped = self._thread_map(obj)
                    self._patch_everywhere(every, obj, wrapped)
                    continue
                elif attr in ("write_trajectory_csv", "write_monitor_csv"):
                    after = self._file_bytes("dynamics.csv_bytes", obj)
                elif attr == "write_report":
                    group, after = "cli.report", self._file_bytes("cli.report_bytes", obj)
                elif attr == "draw_samples":
                    after = self._accepted
                wrapped = self._wrap(obj, f"{layer}.{attr}", layer, group, after)
                self._patch_everywhere(every, obj, wrapped)
        for cls in (models.NonRelativisticTop, models.RelativisticTop,
                    models.MatrixTop, models.GaudinLatticeTop, models.CoupledTop):
            for meth in _MODEL_METHODS:
                fn = getattr(cls, meth, None)
                if fn is None:
                    continue
                name = f"models.{cls.kind}.{meth}"
                self._set(cls, meth, self._wrap(
                    fn, name, "models", _MODEL_GROUPS.get(meth, "models")))
        self._set(models.GaudinReduction, "extract_residue", self._wrap(
            models.GaudinReduction.extract_residue, "models.extract_residue",
            "models", "models.gaudin"))
        for meth in ("eigenvalue_drift", "trace_drift", "constraint_drift"):
            self._set(dynamics.Trajectory, meth, self._wrap(
                getattr(dynamics.Trajectory, meth), f"dynamics.Trajectory.{meth}",
                "dynamics", "dynamics.monitor"))
        # every sampling try calls the identity's guard once
        registry = fourier.REGISTRY
        for key, spec in list(registry.items()):
            self._set_item(registry, key, dataclasses.replace(
                spec, guard=self._counting_guard(spec.guard)))
        return self

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key], None))
        mapping[key] = value

    def _patch_everywhere(self, modules, obj, wrapped):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    self._set(mod, attr, wrapped)

    def _group(self, layer: str, attr: str) -> str:
        if layer == "models":
            return _MODEL_GROUPS.get(attr, "models")
        if layer == "dynamics":
            return _DYNAMICS_GROUPS.get(attr, "dynamics")
        return layer

    def _counting_guard(self, guard):
        def counted(*args, **kwargs):
            self._count("fourier.sample_draws", 1)
            return guard(*args, **kwargs)
        return counted

    def _thread_map(self, fn):
        """thread_map span on the caller's thread, one item span per work item.

        Item spans belong to the calling layer (the work inside them is that
        layer's), with the thread_map span as parent, on whichever thread
        runs them.
        """
        map_fid = self._fid("parallel.thread_map", "parallel")
        item_fids: dict = {}
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced_map(func, items):
            items = list(items)
            stack = stack_of()
            caller = stack[-1][1] if stack else "bench"
            layer = caller.split(".")[0]
            if caller not in item_fids:
                item_fids[caller] = self._fid(f"{caller}.thread_map_item", layer)
            item_fid = item_fids[caller]
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            self._count("parallel.items", len(items))

            def item(x):
                st = stack_of()
                isid = next(ids)
                st.append((isid, caller))
                t0 = clock()
                try:
                    return func(x)
                finally:
                    t1 = clock()
                    st.pop()
                    spans.append((isid, item_fid, t0, t1, sid))

            stack.append((sid, "parallel"))
            t0 = clock()
            try:
                return fn(item, items)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, map_fid, t0, t1, parent))

        traced_map.__wrapped__ = fn
        return traced_map

    def __exit__(self, *exc):
        while self._undo:
            owner, key, old, had = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            elif had:
                setattr(owner, key, old)
            else:
                delattr(owner, key)
        return False

    # -- reduction ------------------------------------------------------------
    def self_times(self) -> dict:
        """Self time per span id: duration minus the union of child intervals."""
        children: dict = {}
        for sid, fid, t0, t1, parent in self.spans:
            children.setdefault(parent, []).append((t0, t1))
        out = {}
        for sid, fid, t0, t1, parent in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def metrics(self) -> dict:
        """Per-layer counts and times of everything recorded so far."""
        selfs = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        m: dict = {}
        eom_n = dict.fromkeys(MODEL_KINDS, 0)
        eom_t = dict.fromkeys(MODEL_KINDS, 0.0)
        sub = dict.fromkeys(("eom_calls", "eom_self_s", "lax_eval_calls",
                             "lax_eval_self_s", "project_self_s",
                             "gaudin_self_s", "rk4_steps", "rk4_self_s",
                             "monitor_self_s", "csv_self_s", "map_calls",
                             "map_wall_s", "item_s"), 0)
        for sid, fid, t0, t1, parent in self.spans:
            name, layer = self.names[fid], self.layer_of[fid]
            st = selfs[sid]
            layer_self[layer] = layer_self.get(layer, 0.0) + st
            if name.endswith(".thread_map_item"):
                sub["item_s"] += t1 - t0
                continue
            layer_calls[layer] += 1
            leaf = name.rsplit(".", 1)[-1]
            if layer == "models":
                if leaf == "eom_rhs":
                    kind = name.split(".")[1]
                    sub["eom_calls"] += 1
                    sub["eom_self_s"] += st
                    eom_n[kind] += 1
                    eom_t[kind] += t1 - t0
                elif leaf in ("L_of", "M_of"):
                    sub["lax_eval_calls"] += 1
                    sub["lax_eval_self_s"] += st
                elif _MODEL_GROUPS.get(leaf) == "models.project":
                    sub["project_self_s"] += st
                elif _MODEL_GROUPS.get(leaf) == "models.gaudin":
                    sub["gaudin_self_s"] += st
            elif layer == "dynamics":
                group = _DYNAMICS_GROUPS.get(leaf, "dynamics")
                if group == "dynamics.rk4":
                    sub["rk4_steps"] += 1
                    sub["rk4_self_s"] += st
                elif group == "dynamics.monitor":
                    sub["monitor_self_s"] += st
                elif group == "dynamics.csv":
                    sub["csv_self_s"] += st
            elif layer == "parallel":
                sub["map_calls"] += 1
                sub["map_wall_s"] += t1 - t0
        c = self.counts
        draws = c["fourier.sample_draws"]
        m["elliptic.calls"] = layer_calls["elliptic"]
        m["elliptic.points"] = c["elliptic.points"]
        m["elliptic.self_s"] = layer_self["elliptic"]
        m["fourier.calls"] = layer_calls["fourier"]
        m["fourier.self_s"] = layer_self["fourier"]
        m["fourier.sample_draws"] = draws
        m["fourier.sample_accept_ratio"] = (
            c["fourier.sample_accepted"] / draws if draws else 1.0)
        m["torus.calls"] = layer_calls["torus"]
        m["torus.self_s"] = layer_self["torus"]
        m["models.eom_calls"] = sub["eom_calls"]
        m["models.eom_self_s"] = sub["eom_self_s"]
        for kind in MODEL_KINDS:
            m[f"models.eom_us.{kind}"] = (
                1e6 * eom_t[kind] / eom_n[kind] if eom_n[kind] else 0.0)
        m["models.lax_eval_calls"] = sub["lax_eval_calls"]
        m["models.lax_eval_self_s"] = sub["lax_eval_self_s"]
        m["models.project_self_s"] = sub["project_self_s"]
        m["models.gaudin_self_s"] = sub["gaudin_self_s"]
        m["dynamics.rk4_steps"] = sub["rk4_steps"]
        m["dynamics.rk4_self_s"] = sub["rk4_self_s"]
        m["dynamics.monitor_self_s"] = sub["monitor_self_s"]
        m["dynamics.csv_self_s"] = sub["csv_self_s"]
        m["dynamics.csv_bytes"] = c["dynamics.csv_bytes"]
        m["rmatrix.calls"] = layer_calls["rmatrix"]
        m["rmatrix.self_s"] = layer_self["rmatrix"]
        m["parallel.map_calls"] = sub["map_calls"]
        m["parallel.items"] = c["parallel.items"]
        m["parallel.wall_s"] = sub["map_wall_s"]
        m["parallel.item_s"] = sub["item_s"]
        m["cli.self_s"] = layer_self["cli"]
        m["cli.report_bytes"] = c["cli.report_bytes"]
        return m

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: id, parent, function, start, end."""
        base = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id\tparent\tfunction\tstart_s\tend_s\n")
            for sid, fid, t0, t1, parent in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{self.names[fid]}\t"
                         f"{t0 - base:.9f}\t{t1 - base:.9f}\n")
