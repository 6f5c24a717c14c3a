"""Seeded inputs, operations and output checks of the three workloads.

A workload is a fixed list of operations (one pass) drawn from ``--seed``;
every pass runs the same list.  An operation is one call into the program's
public API -- one obstruction polynomial, one oracle value, one flow
trajectory or one evolution run -- followed by a check of its output against
a value computed apart from the program (``closed_forms``).  Only the call is
timed.

The program is reached through module attributes at call time
(``obstruction.obstruction_P``), so that the traced run sees the wrapped
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import closed_forms as cf
from beltrami import evolution, expr, fd_oracle, obstruction

WORKLOADS = ("obstruction", "cross_check", "evolve_grid")

ORDERS = {"t_order": 6, "xi_order": 6}  # the CLI defaults
ORIGIN = (0, 0, 0)
CUBIC = "1+a*x1+b*x1^3+x3"
QUADRATIC = "1+x1^2+a*x2^2+x3"
AFFINE = "1+p*x1+q*x2+r*x3"

SMALL_RATIONALS = tuple(Fraction(v) for v in
                        ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2", "2/3", "-2/3"))

FLOW_STEPS = 256
FLOWS = 2
GRAPH_MEMBERS = 12  # double-mode family members checked against the closed forms alone
EVOLVE = {"n": 41, "t_max": 0.1, "dt": 0.005}


class CheckError(AssertionError):
    """An output disagreed with its reference."""


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _pick(rng, pool, exclude=()):
    choices = [v for v in pool if v not in exclude]
    return choices[int(rng.integers(len(choices)))]


def _same_sign_pair(rng):
    """Cubic-family (a, b) for the oracle comparison.  With a*b > 0 the
    oracle stays within 1.0e-4 of the series P0 in both frames over the whole
    pool; opposite signs reach 4e-3 (a = 3/2, b = -2), past its tolerance."""
    a = _pick(rng, SMALL_RATIONALS)
    return a, _pick(rng, [v for v in SMALL_RATIONALS if v * a > 0])


def _rng(workload, seed):
    # one stream per workload, so that changing one workload's draws leaves
    # the others' inputs alone
    return np.random.default_rng([WORKLOADS.index(workload), int(seed) % (1 << 64)])


# -- inputs --------------------------------------------------------------------

def _exact_inputs(rng) -> dict:
    cubic = [(_pick(rng, SMALL_RATIONALS), _pick(rng, SMALL_RATIONALS)) for _ in range(2)]
    return {
        "cubic": cubic,
        "cubic_a0_b": _pick(rng, SMALL_RATIONALS),
        "quadratic_a": _pick(rng, SMALL_RATIONALS, exclude=(Fraction(1),)),
        "affine": tuple(_pick(rng, SMALL_RATIONALS) for _ in range(3)),
    }


def _plane_wave_inputs(rng) -> dict:
    e = rng.normal(size=3)
    e[2] = abs(e[2]) + 1.0  # keep d3 f clear of zero for the graph frame
    e /= np.linalg.norm(e)
    return {
        "c0": float(rng.uniform(1.5, 2.5)), "alpha": float(rng.uniform(0.5, 1.0)),
        "beta": float(rng.uniform(0.25, 0.75)), "gamma": float(rng.uniform(0.5, 1.0)),
        "e": [float(c) for c in np.round(e, 6)],
    }


def _cross_inputs(rng) -> dict:
    fam = [_same_sign_pair(rng) for _ in range(2)]
    members = ([("cubic", (_pick(rng, SMALL_RATIONALS), _pick(rng, SMALL_RATIONALS)))
                for _ in range(GRAPH_MEMBERS // 2)]
               + [("quadratic", _pick(rng, SMALL_RATIONALS))
                  for _ in range(GRAPH_MEMBERS // 2)])
    flows = [{
        "a": float(_pick(rng, SMALL_RATIONALS)), "b": float(_pick(rng, SMALL_RATIONALS)),
        "x0": [float(c) for c in rng.uniform(-0.3, 0.3, size=3)],
        "t": float(rng.uniform(0.2, 0.4)),
    } for _ in range(FLOWS)]
    return {
        "cubic_graph": fam[0],
        "cubic_rotated": fam[1],
        "quadratic_a": _pick(rng, SMALL_RATIONALS, exclude=(Fraction(1),)),
        "members": members,
        "plane_wave": _plane_wave_inputs(rng),
        "flows": flows,
    }


def inputs(workload: str, seed: int) -> dict:
    """The workload's inputs as plain data; equal seeds give equal inputs."""
    rng = _rng(workload, seed)
    if workload == "obstruction":
        return {**_exact_inputs(rng), "plane_wave": _plane_wave_inputs(rng)}
    if workload == "cross_check":
        return _cross_inputs(rng)
    if workload == "evolve_grid":
        return {
            "rho": float(rng.uniform(0.5, 1.5)),
            "alpha": float(rng.uniform(0.0, 2.0 * math.pi)),
            "h": float(rng.uniform(0.0020, 0.0024)),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- checks --------------------------------------------------------------------

def _require(ok, message):
    if not ok:
        raise CheckError(message)


def check_exact(P, expected: dict):
    """Every coefficient up to P.degree equals ``expected`` (missing = 0) exactly."""
    for mono in set(P.coeffs) | set(expected):
        want = expected.get(mono, Fraction(0))
        got = P.coeff(mono)
        _require(got == want, f"coefficient {mono}: got {got}, want {want}")


def check_close(P, expected: dict, unknown=lambda mono: False, rtol=1e-9):
    """Listed coefficients within ``rtol`` of max(1, |ref|) (the CLI's rule).
    Every other coefficient for which ``unknown`` is false must vanish within
    ``rtol`` of the largest reference (or of 1)."""
    for mono, ref in expected.items():
        ref = float(ref)
        got = float(P.coeff(mono))
        _require(abs(got - ref) <= rtol * max(1.0, abs(ref)),
                 f"coefficient {mono}: got {got!r}, want {ref!r}")
    scale = max([1.0] + [abs(float(v)) for v in expected.values()])
    for mono, value in P.coeffs.items():
        if mono not in expected and not unknown(mono):
            check_vanishes(float(value), rtol * scale, f"coefficient {mono}")


def check_no_xi2(P, degree: int):
    """A factor that does not depend on x2, in a frame that keeps the x2 axis:
    P has the requested degree, finite coefficients and no xi2 terms beyond
    1e-9 of its largest coefficient."""
    _require(P.degree == degree, f"degree {P.degree}, want {degree}")
    values = [float(v) for v in P.coeffs.values()]
    _require(all(math.isfinite(v) for v in values), "a coefficient is not finite")
    scale = max([1.0] + [abs(v) for v in values])
    for mono, value in P.coeffs.items():
        _require(sum(mono) <= degree, f"coefficient {mono} beyond degree {degree}")
        if mono[1] > 0:
            check_vanishes(float(value), 1e-9 * scale, f"coefficient {mono}")


def check_oracle(fd: float, series: float):
    """1e-3 relative away from zero, 1e-6 absolute near it (the CLI's rule)."""
    if abs(series) > 1e-3:
        err = abs(fd - series) / abs(series)
        _require(err < 1e-3, f"oracle {fd!r} vs series {series!r}: relative {err:.2e}")
    else:
        err = abs(fd - series)
        _require(err < 1e-6, f"oracle {fd!r} vs series {series!r}: absolute {err:.2e}")


def check_vanishes(value: float, tol: float, what: str):
    _require(abs(value) <= tol, f"{what} = {value!r} exceeds {tol:.3e}")


def check_level(x_end, level_start: float, level_end: float, t: float):
    _require(bool(np.all(np.isfinite(x_end))), f"flow endpoint {x_end} not finite")
    err = abs(level_end - level_start - t)
    _require(err <= 1e-8, f"f(x(t)) - f(x0) - t = {err:.3e}")


def check_evolution(report, t_max, ref_max_beta, ref_max_drift, rtol=1e-9):
    final = report.final()
    _require(abs(final["t"] - t_max) <= 1e-12, f"final time {final['t']!r} != {t_max!r}")
    for key, ref in (("max_beta", ref_max_beta), ("max_drift", ref_max_drift)):
        got = final[key]
        _require(abs(got - ref) <= rtol * abs(ref), f"final {key}: got {got!r}, want {ref!r}")


# -- operations ----------------------------------------------------------------

def _series_op(kind, label, f, bindings, degree, frame, mode, check):
    return Op(kind, label,
              lambda: obstruction.obstruction_P(f, bindings, ORIGIN, degree=degree,
                                                frame=frame, mode=mode, **ORDERS),
              check)


def _oracle_pair(kind, label, f, bindings, frame, series_check, oracle_check):
    """A series op and the oracle op that is checked against its P0."""
    seen = {}

    def check_series(P):
        series_check(P)
        seen["p0"] = float(P.coeff((0, 0)))

    def check_fd(value):
        _require("p0" in seen, "no series value to compare with")
        oracle_check(value, seen.pop("p0"))

    return [
        _series_op(kind, label, f, bindings, 4, frame, "double", check_series),
        Op("oracle_p", label, lambda: fd_oracle.P_point_fd(f, bindings, ORIGIN, frame=frame),
           check_fd),
    ]


def _cubic_graph_check(a, b):
    """Double mode, graph frame, degree 4: c0..c3 from the closed form, no xi2
    terms (f does not depend on x2); c4 has no closed form unless a = 0."""
    refs = {(j, 0): c for j, c in enumerate(cf.cubic_coeffs(a, b))}
    return lambda P: check_close(P, refs, unknown=lambda mono: mono == (4, 0))


def _quadratic_graph_check(a):
    """Double mode, graph frame, degree 4: the quadratic form from the closed
    form and no terms below degree 2; degrees 3 and 4 have no closed form."""
    refs = dict(zip(((2, 0), (1, 1), (0, 2)), cf.quadratic_form(a)))
    return lambda P: check_close(P, refs, unknown=lambda mono: sum(mono) > 2)


def _plane_wave(w):
    """The plane-wave factor and the largest |P| accepted as 0 for it."""
    f = expr.parse(cf.plane_wave_text(w["c0"], w["alpha"], w["beta"], w["gamma"], w["e"], w["e"]))
    return f, cf.plane_wave_tolerance(w["c0"], w["alpha"], w["beta"])


def exact_ops(cubic, cubic_a0_b, quadratic_a, affine) -> list:
    ops = []
    f = expr.parse(CUBIC)
    for a, b in cubic:
        want = {(j, 0): c for j, c in enumerate(cf.cubic_coeffs(a, b))}
        ops.append(_series_op("p_rational", f"cubic a={a} b={b}", f, {"a": a, "b": b}, 3,
                              "graph", "rational", lambda P, w=want: check_exact(P, w)))
    want = {(4, 0): cf.cubic_c4_at_a0(cubic_a0_b)}
    ops.append(_series_op("p_rational", f"cubic a=0 b={cubic_a0_b}", f,
                          {"a": Fraction(0), "b": cubic_a0_b}, 4, "graph", "rational",
                          lambda P, w=want: check_exact(P, w)))
    f = expr.parse(QUADRATIC)
    for a in (quadratic_a, Fraction(1)):
        want = dict(zip(((2, 0), (1, 1), (0, 2)), cf.quadratic_form(a)))
        ops.append(_series_op("p_rational", f"quadratic a={a}", f, {"a": a}, 2, "graph",
                              "rational", lambda P, w=want: check_exact(P, w)))
    p, q, r = affine
    ops.append(_series_op("p_rational", f"affine p={p} q={q} r={r}", expr.parse(AFFINE),
                          {"p": p, "q": q, "r": r}, 4, "graph", "rational",
                          lambda P: check_exact(P, {})))
    return ops


def obstruction_ops(cubic, cubic_a0_b, quadratic_a, affine, plane_wave) -> list:
    """The rational families and one dense plane wave through the series."""
    f, tol = _plane_wave(plane_wave)
    return exact_ops(cubic, cubic_a0_b, quadratic_a, affine) + [
        _series_op("p_double_transc", "plane wave graph", f, None, 4, "graph", "double",
                   lambda P: check_vanishes(P.max_abs(), tol, "max |P coefficient|"))]


def cross_ops(cubic_graph, cubic_rotated, quadratic_a, members, plane_wave, flows) -> list:
    """Double-mode family members, the oracle on three of them and on a plane
    wave, and flow trajectories."""
    fc, fq = expr.parse(CUBIC), expr.parse(QUADRATIC)
    a, b = cubic_graph
    ops = _oracle_pair("p_double_poly", f"cubic a={a} b={b} graph", fc,
                       {"a": float(a), "b": float(b)}, "graph", _cubic_graph_check(a, b),
                       check_oracle)
    a, b = cubic_rotated
    ops += _oracle_pair("p_double_poly", f"cubic a={a} b={b} rotated", fc,
                        {"a": float(a), "b": float(b)}, "rotated",
                        lambda P: check_no_xi2(P, 4), check_oracle)
    ops += _oracle_pair("p_double_poly", f"quadratic a={quadratic_a} graph", fq,
                        {"a": float(quadratic_a)}, "graph",
                        _quadratic_graph_check(quadratic_a), check_oracle)
    for family, params in members:
        if family == "cubic":
            a, b = params
            ops.append(_series_op("p_double_poly", f"cubic a={a} b={b} graph", fc,
                                  {"a": float(a), "b": float(b)}, 4, "graph", "double",
                                  _cubic_graph_check(a, b)))
        else:
            ops.append(_series_op("p_double_poly", f"quadratic a={params} graph", fq,
                                  {"a": float(params)}, 4, "graph", "double",
                                  _quadratic_graph_check(params)))

    f, tol = _plane_wave(plane_wave)
    ops.append(Op("oracle_p", "plane wave graph",
                  lambda: fd_oracle.P_point_fd(f, None, ORIGIN, frame="graph"),
                  lambda v: check_vanishes(v, tol, "oracle P0")))

    for fl in flows:
        bind = {"a": fl["a"], "b": fl["b"]}
        x0, t = np.array(fl["x0"]), fl["t"]

        def check_flow(x, fl=fl, x0=x0, t=t):
            check_level(x, cf.cubic_value(fl["a"], fl["b"], x0),
                        cf.cubic_value(fl["a"], fl["b"], x), t)

        ops.append(Op("oracle_flow", f"flow a={fl['a']} b={fl['b']}",
                      lambda bind=bind, x0=x0, t=t: fd_oracle.numeric_flow(
                          fc, bind, x0, t, dt=t / FLOW_STEPS),
                      check_flow))
    return ops


def evolve_ops(rho, alpha, h, n=EVOLVE["n"], t_max=EVOLVE["t_max"], dt=EVOLVE["dt"]) -> list:
    f = expr.parse("1+x3")
    ref = cf.evolved_summary(rho, alpha, n, h, cf.theta(t_max))
    inits = (("field", expr.parse_vector(cf.field_texts(rho, alpha))),
             ("psi", expr.parse(cf.psi_text(rho, alpha))))
    return [
        Op("evolve", f"evolve {n}x{n} init={init[0]}",
           lambda init=init: evolution.run(f, None, ORIGIN, init, t_max, dt, n, n, h, h),
           lambda rep: check_evolution(rep, t_max, *ref))
        for init in inits
    ]


def build(workload: str, seed: int) -> list:
    """One pass of the workload: its list of operations."""
    spec = inputs(workload, seed)
    if workload == "obstruction":
        return obstruction_ops(**spec)
    if workload == "cross_check":
        return cross_ops(**spec)
    return evolve_ops(**spec)


def warmup(workload: str) -> list:
    """The smallest operation of each kind the workload runs, on fixed inputs;
    running them fills the program's monomial-space and pair-table caches."""
    if workload == "evolve_grid":
        return evolve_ops(rho=1.0, alpha=0.0, h=0.01, n=9, t_max=0.01, dt=0.005)
    one = Fraction(1)
    f = expr.parse(CUBIC)
    bind = {"a": 1.0, "b": 1.0}
    if workload == "obstruction":
        # the plane wave is the only double-mode item; a cubic member fills
        # the same double-mode caches at a hundredth of its cost
        return [_series_op("p_rational", "warm-up affine", expr.parse(AFFINE),
                           {"p": one, "q": one, "r": one}, 4, "graph", "rational",
                           lambda P: check_exact(P, {})),
                _series_op("p_double_transc", "warm-up cubic graph", f, bind, 4, "graph",
                           "double", _cubic_graph_check(one, one))]
    ops = []
    for frame, check in (("graph", _cubic_graph_check(one, one)),
                         ("rotated", lambda P: check_no_xi2(P, 4))):
        ops += _oracle_pair("p_double_poly", f"warm-up cubic {frame}", f, bind, frame,
                            check, check_oracle)
    x0 = np.array([0.1, 0.2, 0.3])
    ops.append(Op("oracle_flow", "warm-up flow",
                  lambda: fd_oracle.numeric_flow(f, bind, x0, 0.1, dt=0.1 / 16),
                  lambda x: check_level(x, cf.cubic_value(1.0, 1.0, x0),
                                        cf.cubic_value(1.0, 1.0, x), 0.1)))
    return ops
