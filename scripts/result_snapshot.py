#!/usr/bin/env python3
"""Run every operation of the benchmark's workloads and write what each returned.

For each workload of ``perfbench/workloads.py`` and each seed of ``--seeds``,
``DIR/<workload>-<seed>.txt`` holds one pass of the workload: per operation,
its kind and label, then its result, or the exception it raised.  Results are
written with ``repr``, numpy arrays as ``tolist()``, so every double is
written in full.  The operations call whichever ``beltrami`` the environment
imports, so a refactor is checked for identical library results by
snapshotting two checkouts and comparing them::

    PYTHONPATH=../parent/src python3 scripts/result_snapshot.py --out /tmp/before
    PYTHONPATH=src python3 scripts/result_snapshot.py --out /tmp/after
    diff -r /tmp/before /tmp/after

Only the calls run; the benchmark's output checks do not.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # perfbench/ is not a package: the line above finds it


def show(value) -> str:
    """The text of a result: its repr, an array's as a nested list."""
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def snapshot(workload: str, seed: int, out: Path):
    """Run one pass of ``workload`` at ``seed`` and write its results under ``out``."""
    lines = []
    for op in workloads.build(workload, seed):
        try:
            result = show(op.call())
        except Exception as exc:  # a refusal is a result too
            result = f"{type(exc).__name__}: {exc}"
        lines += [f"{op.kind} {op.label}", result]
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-{seed}.txt").write_text("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path, help="directory to write into")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        for seed in args.seeds.split(","):
            snapshot(workload, int(seed), args.out)


if __name__ == "__main__":
    main()
