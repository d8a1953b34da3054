"""End-to-end benchmark of elliptop over three workloads.

    python3 perfbench/run.py --workload {identities,evolve,pointwise}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has ``src/elliptop``; the
program is imported from that source tree.  With ``--trace 0`` the run
times warm passes over the workload's job list for about S seconds and
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and prints the per-layer metrics.  Either way every
output is checked, and the last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of the run (per-pass times, failed operations, check failures)
go to ``perfbench/out/``; ``--trace 1`` also writes the spans there.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "margin_digits": "digits"}
PER_LAYER = {
    "elliptic.calls": "count", "elliptic.points": "count", "elliptic.self_s": "s",
    "fourier.calls": "count", "fourier.self_s": "s",
    "fourier.sample_draws": "count", "fourier.sample_accept_ratio": "ratio",
    "torus.calls": "count", "torus.self_s": "s",
    "models.eom_calls": "count", "models.eom_self_s": "s",
    "models.eom_us.nonrel-top": "us", "models.eom_us.rel-top": "us",
    "models.eom_us.matrix-top": "us", "models.eom_us.gaudin-lattice": "us",
    "models.eom_us.coupled": "us",
    "models.lax_eval_calls": "count", "models.lax_eval_self_s": "s",
    "models.project_self_s": "s", "models.gaudin_self_s": "s",
    "dynamics.rk4_steps": "count", "dynamics.rk4_self_s": "s",
    "dynamics.monitor_self_s": "s", "dynamics.csv_self_s": "s",
    "dynamics.csv_bytes": "bytes",
    "rmatrix.calls": "count", "rmatrix.self_s": "s",
    "parallel.map_calls": "count", "parallel.items": "count",
    "parallel.wall_s": "s", "parallel.item_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "margin_min_digits": "digits", "trace.overhead_s": "s",
}

SETUP_PROBES = 7      # least fresh interpreters timed per run; setup_s is their median
SETUP_FIRST = 4       # of which before the first pass; then one after each pass
MIN_PASSES = 2        # timed passes per run, even when one pass is long
PROBE_TIMEOUT = 60.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("identities", "evolve", "pointwise"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short job lists and one pass; checks only, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_program():
    """Import elliptop from this checkout's source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "elliptop", "__init__.py")):
        raise RuntimeError(f"no elliptop source tree at {SRC}")
    sys.path.insert(0, SRC)
    import elliptop
    where = os.path.realpath(elliptop.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"elliptop imported from {where}, not from {SRC}")
    return elliptop


class SetupTimer:
    """Wall time of fresh interpreters from start to 'inputs built'.

    Probes are spread over the run (a few before the first pass, one after
    each pass) so that their median speaks for the whole run, not for the
    few seconds in which they would otherwise all fall.
    """

    def __init__(self, workload: str, seed: int, work: str):
        self.argv = [sys.executable, os.path.join(BENCH, "probe.py"),
                     workload, str(seed), work]
        self.samples = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True)
            try:
                line = proc.stdout.readline().strip()
                t1 = time.perf_counter()
                proc.communicate(timeout=PROBE_TIMEOUT)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if line != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
            self.samples.append(t1 - t0)


def run_pass(jobs) -> tuple[float, list]:
    """One pass over the job list; returns its wall time and the raw outputs."""
    outputs = []
    t0 = time.perf_counter()
    for job in jobs:
        outputs.append(job.run())
    return time.perf_counter() - t0, outputs


def inspect_pass(jobs, outputs) -> list:
    ops = []
    for job, out in zip(jobs, outputs):
        ops += job.inspect(out)
    return ops


class Tally:
    """Operations attempted and failed, and what the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = []          # labels of operations the program failed
        self.broken = []          # check failures on operations that did not fail
        self.margins = None       # margin digits of the first pass's passing checks

    def add(self, ops):
        margins = []
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.failed.append(op.label)
                continue
            self.broken += [f"{op.label}: {p}" for p in op.problems]
            for c in op.checks:
                if not c.holds:
                    self.broken.append(f"{op.label}: {c.name} = {c.value:.3e} "
                                       f"against limit {c.limit:.1e}")
                elif c.margin_digits is not None:
                    margins.append(c.margin_digits)
        if self.margins is None:
            self.margins = margins


def keep_going(start: float, walls: list, seconds: float, least: int) -> bool:
    """Start another pass while it is expected to end within the run length."""
    if len(walls) < least:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure(jobs, tally: Tally, seconds: float, least: int, after_pass=None) -> list:
    walls = []
    start = time.perf_counter()
    while keep_going(start, walls, seconds, least):
        wall, outputs = run_pass(jobs)
        walls.append(wall)
        tally.add(inspect_pass(jobs, outputs))
        if after_pass is not None:
            after_pass()
    return walls


def measure_traced(jobs, tally: Tally, seconds: float, least: int, spans_path: str):
    """Alternate untraced and traced passes; per-layer metrics of the traced ones.

    ``least`` counts rounds of one untraced and one traced pass.
    """
    from tracing import Tracer
    plain, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while keep_going(start, [a + b for a, b in zip(plain, traced)], seconds, least):
        wall, outputs = run_pass(jobs)
        plain.append(wall)
        tally.add(inspect_pass(jobs, outputs))
        tracer = Tracer()
        with tracer:
            wall, outputs = run_pass(jobs)
        traced.append(wall)
        tally.add(inspect_pass(jobs, outputs))
        layer_runs.append(tracer.metrics())
        if len(traced) == 1:
            tracer.write(spans_path)
    metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        import_program()
    except (RuntimeError, ImportError) as exc:
        return fail(str(exc))
    import numpy as np
    sys.path.insert(0, BENCH)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT)
    try:
        jobs = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
        setup = SetupTimer(args.workload, args.seed, work)
        if not args.trace:
            setup.probe(1 if args.smoke else SETUP_FIRST)
        if not args.smoke:
            # warm-up: the short job list fills caches and first-call paths
            primer = workloads.build(args.workload, args.seed, work, smoke=True)
            inspect_pass(primer, run_pass(primer)[1])
        least = 1 if args.smoke or args.trace else MIN_PASSES
        seconds = 0.0 if args.smoke else args.seconds
        tally = Tally()
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "setup_samples_s": setup.samples}
        if args.trace:
            layer, plain, traced = measure_traced(
                jobs, tally, seconds, least, os.path.join(OUT, f"spans-{tag}.tsv"))
            detail.update(untraced_pass_s=plain, traced_pass_s=traced)
        else:
            walls = measure(jobs, tally, seconds, least,
                            None if args.smoke else setup.probe)
            rss = peak_rss_mb()
            if not args.smoke:
                setup.probe(max(0, SETUP_PROBES - len(setup.samples)))
            detail["pass_s"] = walls
        import oracle  # after the peak RSS reading: mpmath is the benchmark's own
        rng = np.random.default_rng(args.seed)
        points = [complex(z) for z in workloads.box_points(rng, 4)]
        tally.broken += oracle.check(workloads.TAU, points, points[:2])
    except (RuntimeError, ImportError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    margins = tally.margins or [0.0]
    if args.trace:
        values = dict(layer, margin_min_digits=min(margins))
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup.samples),
                  "peak_rss_mb": rss,
                  "margin_digits": statistics.median(margins)}
        units = END_TO_END
    result = {"correct": not tally.broken, "attempted": tally.attempted,
              "failed": len(tally.failed),
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    detail.update(result, failed_ops=sorted(set(tally.failed)),
                  check_failures=tally.broken[:50])
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in tally.broken[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
