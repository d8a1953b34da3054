"""Set-up probe: a fresh interpreter that imports elliptop and its CLI and
builds one workload's inputs, then prints ``ready``.

    python3 perfbench/probe.py <workload> <seed> <work dir>

``run.py`` times it from process start to the ``ready`` line; that span
is the benchmark's ``setup_s``.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import elliptop  # noqa: E402
import elliptop.cli  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
