#!/usr/bin/env python3
"""Constraint-drift comparison: generic factor vs the exact affine solution.

Runs the grid evolution with identical settings for
  (a) f = 1 + x1^2 + x3 with generic closed initial data beta = d(xi1 + xi2),
  (b) f = 1 + a x1 + x3 with the explicit solution pulled back to the chart,
and prints the normalized drift time series side by side, plus a refinement
study. The affine data is constant on every level surface, so its discrete
drift is exactly zero -- the generic factor's drift is the whole signal.
"""

import argparse

from beltrami import expr as ex
from beltrami.beltrami_ops import affine_field, orthogonal_unit
from beltrami.evolution import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=float, default=0.1)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--nodes", type=int, default=21)
    ap.add_argument("--spacing", type=float, default=0.01)
    ap.add_argument("--a", type=float, default=1.0)
    args = ap.parse_args()

    generic = run(ex.parse("1+x1^2+x3"), None, (0, 0, 0), ("psi", ex.parse("x1+x2")),
                  t_max=args.tmax, dt=args.dt, n1=args.nodes, n2=args.nodes,
                  h1=args.spacing, h2=args.spacing)
    e = (args.a, 0.0, 1.0)
    affine = run(ex.parse("1+a*x1+x3"), {"a": args.a}, (0, 0, 0),
                 ("field", affine_field(1.0, e, orthogonal_unit(e))),
                 t_max=args.tmax, dt=args.dt, n1=args.nodes, n2=args.nodes,
                 h1=args.spacing, h2=args.spacing)

    print(f"{'t':>8} {'generic drift':>16} {'affine drift':>16}")
    for t, g, b in zip(generic.times, generic.max_drift_normalized,
                       affine.max_drift_normalized):
        print(f"{t:8.4f} {g:16.6e} {b:16.6e}")

    print("\nrefinement of smooth closed data (psi = xi1^3 xi2 + xi2^4, initial drift):")
    from beltrami.evolution import GridField, drift, init_from_potential

    psi = ex.parse("x1^3*x2 + x2^4")
    prev = None
    for n, h in ((11, 0.02), (21, 0.01), (41, 0.005)):
        grid = init_from_potential(GridField.centered(n, n, h, h), psi)
        d = drift(grid)[0]
        note = "" if prev is None else f"  (ratio {prev / d:.2f})"
        print(f"  h = {h:7.4f}: drift {d:.6e}{note}")
        prev = d


if __name__ == "__main__":
    main()
