#!/usr/bin/env python3
"""Run a fixed list of CLI commands and write what each one printed.

For each command of COMMANDS, ``DIR/<name>.out`` holds its stdout (the
report), ``DIR/<name>.err`` its stderr and ``DIR/<name>.code`` its exit code.
The commands run ``python -m beltrami.cli`` of whichever ``beltrami`` the
environment imports, one subprocess each, so a refactor is checked for
byte-identical output by snapshotting two checkouts and comparing them::

    PYTHONPATH=../parent/src python3 scripts/cli_snapshot.py --out /tmp/before
    PYTHONPATH=src python3 scripts/cli_snapshot.py --out /tmp/after
    diff -r /tmp/before /tmp/after

The list is the examples of the README's CLI section, then runs that reach
the transcendental, rational and double paths, the chart dump, the checks
both start-ups of the evolution, affine and other flows, a factor on
which ``auto`` picks the rotated frame, and an exact high-index hierarchy
member.  Every subcommand of the CLI runs at least once.
"""

import argparse
import subprocess
import sys
from pathlib import Path

TRANSCENDENTAL = "2+sin(0.8*x1+0.6*x3)+exp(0.3*x2+0.5*x3)"
QUARTIC = "1+x3-x2*x3-x1^2*x2^2+2*x1^4-2*x3^3+2*x3^2"

COMMANDS = (
    # the README examples, in its order
    ("readme-p-eval", ["p-eval", "--f", "1+a*x1+b*x1^3+x3", "--param", "a=1", "--param", "b=1",
                       "--point", "0,0,0", "--degree", "4", "--mode", "rational"]),
    ("readme-p-eval-indices", ["p-eval", "--f", "1+a*x1+x3", "--param", "a=1",
                               "--point", "0,0,0", "--indices", "2,3,4,6"]),
    ("readme-coeffs-prop3", ["coeffs-prop3", "--a", "1/2", "--b", "3"]),
    ("readme-coeffs-prop4", ["coeffs-prop4", "--a", "-1"]),
    ("readme-verify-affine", ["verify-affine", "--a", "1", "--samples", "100", "--seed", "0"]),
    ("readme-conformal-check", ["conformal-check", "--seed", "0"]),
    ("readme-cross-check", ["cross-check"]),
    ("readme-evolve", ["evolve", "--f", "1+x1^2+x3", "--point", "0,0,0", "--tmax", "0.1",
                       "--dt", "0.005", "--grid", "21x21", "--spacing", "0.01",
                       "--init", "psi:x1+x2"]),
    ("readme-dump-chart", ["dump-chart", "--f", "1+x1^2+x3", "--point", "0,0,0"]),
    # transcendental factors, whose partials share subtrees
    ("transcendental", ["p-eval", "--f", TRANSCENDENTAL]),
    ("transcendental-rotated", ["p-eval", "--f", TRANSCENDENTAL, "--frame", "rotated"]),
    ("sin-cos", ["p-eval", "--f", "sin(x1+x2)*cos(x2-x3)+2+x3", "--point", "0.1,0.2,0.3"]),
    ("sqrt-log", ["p-eval", "--f", "2+sqrt(3+x1^2)+log(2+x2)+x3"]),
    # polynomial factors, exact and in doubles
    ("quartic-rational", ["p-eval", "--f", QUARTIC, "--point", "1/3,1/5,1/7",
                          "--mode", "rational"]),
    ("quartic-double", ["p-eval", "--f", QUARTIC, "--point", "0.1,0.2,0.05"]),
    ("cubic-rational", ["p-eval", "--f", "1+a*x1+b*x1^3+x3", "--param", "a=3/2",
                        "--param", "b=-2", "--degree", "3", "--mode", "rational"]),
    ("coeffs-prop3", ["coeffs-prop3", "--a", "3/2", "--b", "-2"]),
    ("coeffs-prop4", ["coeffs-prop4", "--a", "2"]),
    ("verify-affine", ["verify-affine", "--a", "1/2", "--samples", "20", "--seed", "3"]),
    ("conformal-check", ["conformal-check", "--f", "1+x1^3+x3", "--samples", "20",
                         "--seed", "1"]),
    ("evolve-affine-exact", ["evolve", "--f", "1+sin(a)*x1+x3", "--param", "a=1",
                             "--tmax", "0.02", "--dt", "0.005", "--grid", "9x9",
                             "--init", "affine-exact", "--format", "json"]),
    ("evolve-psi", ["evolve", "--f", "1+x3", "--tmax", "0.05", "--dt", "0.005",
                    "--grid", "11x11", "--init", "psi:x1^3+x2^5"]),
    ("dump-chart-rational", ["dump-chart", "--f", "1+x3+x3^3", "--mode", "rational"]),
    ("dump-chart-double", ["dump-chart", "--f", "1+x1^2+x2^2+x3+x1^4*x2",
                           "--point", "0.1,0.2,0", "--t-order", "4", "--xi-order", "4"]),
    # flows: affine factors take one sweep, the others every graded sweep
    ("dump-chart-affine", ["dump-chart", "--f", "1+x1+2*x2+x3"]),
    ("dump-chart-affine-rational", ["dump-chart", "--f", "1+x1+2*x2+x3", "--mode", "rational"]),
    ("dump-chart-affine-rotated", ["dump-chart", "--f", "1+0.3*x1-0.7*x2+x3",
                                   "--frame", "rotated"]),
    ("dump-chart-odd-flow", ["dump-chart", "--f", "1+x3+x3^3"]),
    ("dump-chart-polynomial-flow", ["dump-chart", "--f", "x3+x1^8"]),
    ("evolve-affine-rotated", ["evolve", "--f", "1+0.5*x1+x3", "--tmax", "0.02",
                               "--dt", "0.005", "--grid", "9x9", "--init", "affine-exact",
                               "--frame", "rotated"]),
    # a shallow d3 f, where auto picks the rotated frame
    ("p-eval-auto-rotated", ["p-eval", "--f", "1+x1+x2^2+x1*x3+0.005*x3"]),
    # a high-index hierarchy member: the exact T_n recursion to n = 7
    ("p-eval-hierarchy-rational", ["p-eval", "--f", "1+a*x1+b*x1^3+x3", "--param", "a=1/2",
                                   "--param", "b=3", "--indices", "2,3,5,7", "--degree", "2",
                                   "--mode", "rational"]),
)


def snapshot(commands, out: Path):
    """Run each ``(name, argv)`` of ``commands`` and write its stdout, stderr
    and exit code under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in commands:
        done = subprocess.run([sys.executable, "-m", "beltrami.cli", *argv],
                              capture_output=True, timeout=600)
        (out / f"{name}.out").write_bytes(done.stdout)
        (out / f"{name}.err").write_bytes(done.stderr)
        (out / f"{name}.code").write_text(f"{done.returncode}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path, help="directory to write into")
    args = parser.parse_args(argv)
    snapshot(COMMANDS, args.out)


if __name__ == "__main__":
    main()
