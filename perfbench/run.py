"""Benchmark of the beltrami obstruction pipeline, its oracle and the grid evolution.

Run from the repository root:

    python3 perfbench/run.py --workload obstruction --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop with a single caller and no
threads of its own: it repeats passes over the workload's fixed list of
operations while another pass of the last one's length fits in
``--seconds``.  Untraced, the same time also holds the set-up probes, each
a fresh interpreter that imports and warms up the program.  Every
operation's output is checked.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a run with wrapped layer functions with ``--trace 1``.  The line
before it breaks the pass time down by kind of operation.  Full records go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7


def _import_program():
    """Import beltrami from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "beltrami", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no program sources at {init}")
    sys.path.insert(0, SRC)
    import beltrami

    if os.path.dirname(os.path.abspath(beltrami.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported beltrami from {beltrami.__file__}, not {SRC}")


def _run_ops(ops, stats, failures) -> list:
    """Run each operation once; returns the call times, None where it raised."""
    times = []
    for op in ops:
        stats["attempted"] += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            times.append(None)
            stats["failed"] += 1
            failures.append(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        try:
            op.check(result)
        except Exception as exc:
            stats["failed"] += 1
            failures.append(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
    return times


def _warm_up(workload):
    """Run the workload's warm-up operations; any failure ends the run."""
    import workloads

    stats, failures = {"attempted": 0, "failed": 0}, []
    _run_ops(workloads.warmup(workload), stats, failures)
    if failures:
        sys.exit("perfbench: warm-up failed: " + "; ".join(failures))


def _setup_probe(workload) -> float:
    """Wall time from starting a fresh interpreter to a warmed-up program."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


def measure(ops, seconds, tracer=None, probe=None):
    """Run passes over ``ops`` for about ``seconds``.

    With ``probe``, SETUP_PROBES set-up probes share the same time: one falls
    due every ``seconds / SETUP_PROBES`` and runs between passes, and those
    still owed when the passes end run then.  Spread out like this, they see
    the same spells of a slow or fast host as the passes do.

    Returns the per-pass lists of call times, the pass wall times, the probe
    times, the counts and the failure messages.
    """
    stats, failures = {"attempted": 0, "failed": 0}, []
    times, walls, setups = [], [], []
    probes = SETUP_PROBES if probe is not None else 0
    if tracer is not None:
        tracer.install()
    try:
        begin = time.perf_counter()
        end = begin + seconds
        while True:
            while (len(setups) < probes
                   and time.perf_counter() >= begin + len(setups) * seconds / probes):
                setups.append(probe())
            start = time.perf_counter()
            times.append(_run_ops(ops, stats, failures))
            now = time.perf_counter()
            walls.append(now - start)
            # start another pass only if one of this length still fits
            if now + (now - start) > end:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setups) < probes:
        setups.append(probe())
    return times, walls, setups, stats, failures


def breakdown(ops, times) -> dict:
    """Mean over passes of the time in each kind of operation, and grid
    throughput."""
    import workloads

    kinds = sorted({op.kind for op in ops})
    out = {f"{kind}_s": statistics.fmean(
        sum(t for op, t in zip(ops, row) if op.kind == kind and t is not None)
        for row in times) for kind in kinds}
    if "evolve_s" in out:
        ev = workloads.EVOLVE
        runs = sum(op.kind == "evolve" for op in ops)
        out["node_steps_per_s"] = (runs * ev["n"] ** 2 * round(ev["t_max"] / ev["dt"])
                                   / out["evolve_s"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    _warm_up(args.workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ops = workloads.build(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": [f"{op.kind} {op.label}" for op in ops]}
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        from beltrami import series
        from tracer import Tracer

        tracer = Tracer()
        times, walls, _, stats, failures = measure(ops, args.seconds, tracer)
        metrics = tracer.metrics(len(times), series._space.cache_info().currsize)
        metrics["trace.pass_s"] = statistics.fmean(walls)
        units = {k: "count" if k.endswith(("calls", "rows", "spaces_built")) else "s"
                 for k in metrics}
        record["absent"] = tracer.absent
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        times, walls, setups, stats, failures = measure(
            ops, args.seconds, probe=lambda: _setup_probe(args.workload))
        record["setup_probe_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_s": statistics.fmean(walls),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

    record.update(times=times, pass_wall_s=walls, breakdown=breakdown(ops, times),
                  failures=failures[:20])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(json.dumps({"passes": len(times), "breakdown": record["breakdown"]}))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
