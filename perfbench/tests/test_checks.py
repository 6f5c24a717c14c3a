"""Each output check accepts the program's answer and rejects a wrong one."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import closed_forms as cf
import workloads as wl
from beltrami import evolution, expr, fd_oracle, obstruction


def test_exact_coefficient_off_by_one_is_rejected():
    a, b = Fraction(1, 2), Fraction(3, 2)
    P = obstruction.obstruction_P(expr.parse(wl.CUBIC), {"a": a, "b": b}, wl.ORIGIN,
                                  degree=3, frame="graph", mode="rational")
    want = {(j, 0): c for j, c in enumerate(cf.cubic_coeffs(a, b))}
    wl.check_exact(P, want)
    for j in range(4):
        wrong = dict(want)
        wrong[(j, 0)] += 1
        with pytest.raises(wl.CheckError):
            wl.check_exact(P, wrong)
    with pytest.raises(wl.CheckError):  # a factor with a nonzero P is not affine
        wl.check_exact(P, {})


def test_plane_wave_coefficient_plus_1e_3_is_rejected():
    c0, alpha, beta, gamma = 2.0, 0.8, 0.5, 0.7
    e = [0.48, 0.6, 0.64]
    tol = cf.plane_wave_tolerance(c0, alpha, beta)
    bent = [e[0] + 1e-3, e[1], e[2]]
    for e_sin, ok in ((e, True), (bent, False)):
        f = expr.parse(cf.plane_wave_text(c0, alpha, beta, gamma, e_sin, e))
        # low orders keep the series side cheap; P0 needs t_order 4, xi_order 2
        P = obstruction.obstruction_P(f, None, wl.ORIGIN, degree=0, t_order=4, xi_order=2,
                                      frame="graph")
        fd = fd_oracle.P_point_fd(f, None, wl.ORIGIN, frame="graph")
        for value in (P.max_abs(), fd):
            if ok:
                wl.check_vanishes(value, tol, "P")
            else:
                with pytest.raises(wl.CheckError):
                    wl.check_vanishes(value, tol, "P")


def test_double_family_checks_reject_a_stray_term():
    a, b = Fraction(1, 2), Fraction(3, 2)
    f, bind = expr.parse(wl.CUBIC), {"a": float(a), "b": float(b)}
    for frame, check in (("graph", wl._cubic_graph_check(a, b)),
                         ("rotated", lambda P: wl.check_no_xi2(P, 4))):
        P = obstruction.obstruction_P(f, bind, wl.ORIGIN, degree=4, frame=frame, **wl.ORDERS)
        check(P)
        scale = P.max_abs()
        for mono, delta in (((1, 1), 1e-3 * scale), ((0, 0), 1e-3 * max(1.0, scale))):
            wrong = replace(P, coeffs={**P.coeffs, mono: P.coeff(mono) + delta})
            if frame == "rotated" and mono == (0, 0):
                continue  # the rotated frame has no closed form for P0
            with pytest.raises(wl.CheckError):
                check(wrong)
    P = obstruction.obstruction_P(expr.parse(wl.QUADRATIC), {"a": 2.0}, wl.ORIGIN, degree=4,
                                  frame="graph", **wl.ORDERS)
    wl._quadratic_graph_check(Fraction(2))(P)
    with pytest.raises(wl.CheckError):  # no terms below degree 2
        wl._quadratic_graph_check(Fraction(2))(replace(P, coeffs={**P.coeffs, (1, 0): 1.0}))


def test_oracle_off_by_more_than_1e_3_is_rejected():
    wl.check_oracle(-20.2499, -20.25)
    with pytest.raises(wl.CheckError):
        wl.check_oracle(-20.25 * (1 + 2e-3), -20.25)
    wl.check_oracle(5e-7, 0.0)
    with pytest.raises(wl.CheckError):
        wl.check_oracle(2e-6, 0.0)


def test_flipped_theta_is_rejected():
    rho, alpha, n, h, t_max, dt = 1.2, 0.7, 21, 0.004, 0.1, 0.005
    f = expr.parse("1+x3")
    init = ("psi", expr.parse(cf.psi_text(rho, alpha)))
    report = evolution.run(f, None, wl.ORIGIN, init, t_max, dt, n, n, h, h)
    right = cf.evolved_summary(rho, alpha, n, h, cf.theta(t_max))
    wl.check_evolution(report, t_max, *right)
    flipped = cf.evolved_summary(rho, alpha, n, h, -cf.theta(t_max))
    with pytest.raises(wl.CheckError):
        wl.check_evolution(report, t_max, *flipped)


def test_flow_endpoint_off_its_level_is_rejected():
    a, b, t = 1.5, 2.0, 0.3
    x0 = np.array([0.1, -0.2, 0.25])
    x = fd_oracle.numeric_flow(expr.parse(wl.CUBIC), {"a": a, "b": b}, x0, t, dt=t / 64)
    wl.check_level(x, cf.cubic_value(a, b, x0), cf.cubic_value(a, b, x), t)
    moved = x + np.array([0.0, 0.0, 1e-6])
    with pytest.raises(wl.CheckError):
        wl.check_level(moved, cf.cubic_value(a, b, x0), cf.cubic_value(a, b, moved), t)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert wl.inputs(workload, 7) == wl.inputs(workload, 7)
    assert wl.inputs(workload, 7) != wl.inputs(workload, 8)
