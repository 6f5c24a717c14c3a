"""Run the benchmark on twenty seeds, in two sets, and judge its steadiness.

    python3 perfbench/compare.py

Each set runs every workload of BENCHMARK.json ten times, each time with a
new seed: set 1 uses seeds 1 to 10, set 2 seeds 11 to 20.  For each
end-to-end metric it prints the median and the spread (first to third
quartile, as a share of the median, from ``statistics.quantiles(values,
n=4)``).  A set passes when every spread is within the metric's bound in
BENCHMARK.json; the two sets agree when no median of the second is worse
than the first's by more than the bound and the share of failed operations
is the same.  A spread above a third of its bound is noted but passes.  Raw
results go to ``perfbench/out/compare-<time>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k in range(SETS):
        results = {w: [] for w in workloads}
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            for w in workloads:  # interleaved, so slow spells of the host hit all
                results[w].append(run_once(w, seed, bench["run_seconds"]))
                print(f"set {k + 1} seed {seed} {w}: "
                      + json.dumps({n: round(v["value"], 4)
                                    for n, v in results[w][-1]["metrics"].items()}),
                      flush=True)
        sets.append(results)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_path = os.path.join(HERE, "out", f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out_path, "w") as fh:
        json.dump(sets, fh)

    ok = True
    print(f"\n{'workload':16} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(k + 1):>10} {'spread' + str(k + 1):>8}"
                     for k in range(SETS)) + "  verdict")
    for w in workloads:
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in sets]
        for name, m in metrics.items():
            cols, verdict, notes = [], [], []
            stats = [spread([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            for med, spr in stats:
                cols.append(f"{med:10.4g} {spr:8.3f}")
                if spr > m["bound"]:
                    verdict.append("spread>bound")
                elif spr > m["bound"] / 3:
                    notes.append("spread>bound/3")
            first, second = stats[0][0], stats[1][0]
            worse = ((second - first) if m["better"] == "lower" else (first - second)) / first
            if worse > m["bound"]:
                verdict.append(f"median worse by {worse:.3f}")
            ok &= not verdict
            print(f"{w:16} {name:12} {m['bound']:6.2f} " + " ".join(cols) + "  "
                  + (", ".join(verdict + notes) or "ok"))
        print(f"{w:16} failed share " + " ".join(f"{s:.6f}" for s in shares)
              + ("" if len(set(shares)) == 1 else "  DIFFERS"))
        ok &= len(set(shares)) == 1
    print(f"\n{'PASS' if ok else 'FAIL'}; raw results in {os.path.relpath(out_path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
