"""Command-line interface: obstruction evaluation, verification, reports.

Every subcommand writes a deterministic report (JSON, or CSV for the
evolution demonstrator) to --out; domain failures produce a machine-readable
error object on stderr and exit code 1, usage errors exit 2.

Each subcommand offers exactly the options its body reads (see
``build_parser``), plus ``--out``; any other flag is a usage error.  The flags
are the only source of option values: each default is declared once, on its
flag, and a subcommand that differs overrides it with ``set_defaults``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import reference
from .beltrami_ops import (
    affine_field,
    beltrami_residual,
    conformal_metric,
    curl_div,
    elliptic_residual,
    gradient,
    orthogonal_unit,
    pullback_system_residuals,
    riemannian_curl,
)
from .chart import build_chart
from .errors import BeltramiError
from .evolution import run as evolution_run
from .expr import Mul, Pow, VectorExpr
from .fd_oracle import P_point_fd
from .obstruction import DEFAULT_INDICES, obstruction_P, tensor_T
from .series import as_double

FAMILY_TOL = 1e-9  # double-mode agreement with the closed-form family coefficients
_NON_FINITE_FIELDS = frozenset({"nan", "inf", "-inf"})  # a float's CSV field when not finite


def _number(text: str, what: str, form: str = "double"):
    """A finite number from a flag.

    Accepts integers, decimals and ``p/q`` rationals.  ``form`` is
    ``"rational"`` (a Fraction), ``"double"`` (a float) or ``"int"``; anything
    else, including nan, inf and a number beyond the double range (a rational
    run converts to doubles for its checks), is a BeltramiError.
    """
    try:
        value = Fraction(text)
        approx = float(value)
        if form == "double":
            return approx
        if form == "int":
            if value.denominator != 1:
                raise ValueError(text)
            return int(value)
        return value
    except (ValueError, ZeroDivisionError, OverflowError):
        noun = "an integer" if form == "int" else "a finite number"
        raise BeltramiError(f"{what} needs {noun}, got {text!r}") from None


def _rng(args):
    """The seeded generator of a sampling check, once --samples and --seed
    are checked."""
    if args.samples < 1:
        raise BeltramiError(f"samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise BeltramiError(f"seed must be at least 0, got {args.seed}")
    return np.random.default_rng(args.seed)


def _parse_site(args, mode: str):
    """The factor, its parameter bindings and the base point, from --f,
    --param and --point.  Each --param names a parameter of the grammar
    once; a name that the factor does not read is accepted."""
    f = ex.parse(args.f)
    bindings = {}
    for item in args.param or []:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise BeltramiError(f"--param needs name=value, got {item!r}")
        if not ex.is_param_name(name):
            raise BeltramiError(
                f"--param needs a parameter name, an identifier other than x1, x2, x3; "
                f"got {name!r}")
        if name in bindings:
            raise BeltramiError(f"--param {name} is given more than once")
        bindings[name] = _number(value, f"--param {name}", mode)
    parts = args.point.split(",")
    if len(parts) != 3:
        raise BeltramiError(f"--point needs three comma-separated values, got {args.point!r}")
    return f, bindings, tuple(_number(p, "--point", mode) for p in parts)


def _write_report(args, payload):
    if isinstance(payload, str):  # CSV rows
        text = payload
        finite = _NON_FINITE_FIELDS.isdisjoint(re.split(r"[,\n]", text))
    else:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
            finite = True
        except ValueError:
            finite = False
    if not finite:
        raise BeltramiError(
            "the report holds a non-finite number (an overflow or a NaN); "
            "no report written")
    out = args.out or "-"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise BeltramiError(f"cannot write --out {out!r}: {err.strerror or err}") from None


# -- subcommand bodies ---------------------------------------------------------


def _cmd_obstruction(args):
    f, bindings, point = _parse_site(args, args.mode)
    indices = tuple(_number(v, "--indices", "int") for v in args.indices.split(","))
    poly = obstruction_P(f, bindings, point, degree=args.degree, frame=args.frame,
                         mode=args.mode, indices=indices)
    _write_report(args, poly.to_json())
    return 0


def _family_report(poly, refs, **fields):
    """Report of a closed-form family check at the origin in the graph frame.

    ``refs`` maps a coefficient name to its monomial and reference value;
    ``fields`` are the family parameters, written in the kind of ``poly``.
    A coefficient matches when its difference from the reference, relative
    to the reference where that exceeds 1 in size, is within FAMILY_TOL,
    bound included: exactly 0 in rational mode, where the division is exact.
    """
    kind = poly.kind
    computed, reference, match = {}, {}, {}
    for name, (mono, ref) in refs.items():
        c = poly.coeff(mono)
        computed[name] = kind.json(c)
        reference[name] = kind.json(ref)
        match[name] = kind.negligible((c - ref) / max(1, abs(ref)), math.nextafter(FAMILY_TOL, 1))
    report = {name: kind.json(v) for name, v in fields.items()}
    report.update(mode=kind.name, frame="graph", computed=computed, reference=reference,
                  match=match)
    report["pass"] = all(match.values())
    return report


def _family_poly(mode, text, bindings, degree):
    return obstruction_P(ex.parse(text), bindings, (0, 0, 0), degree=degree, frame="graph",
                         mode=mode)


def _cmd_coeffs_prop3(args):
    a = _number(args.a, "--a", args.mode)
    b = _number(args.b, "--b", args.mode)
    poly = _family_poly(args.mode, "1+a*x1+b*x1^3+x3", {"a": a, "b": b}, 4 if a == 0 else 3)
    refs = {f"c{j}": ((j, 0), r) for j, r in enumerate(reference.cubic_family_coeffs(a, b))}
    if a == 0:
        refs["c4"] = ((4, 0), reference.cubic_family_c4_pure(b))
    _write_report(args, _family_report(poly, refs, a=a, b=b))
    return 0


def _cmd_coeffs_prop4(args):
    a = _number(args.a, "--a", args.mode)
    poly = _family_poly(args.mode, "1+x1^2+a*x2^2+x3", {"a": a}, 2)
    monos = ((2, 0), (1, 1), (0, 2))
    refs = dict(zip(("q20", "q11", "q02"), zip(monos, reference.quadratic_family_form(a))))
    report = _family_report(poly, refs, a=a)
    sub = max((abs(v) for m, v in poly.coeffs.items() if sum(m) < 2), default=poly.kind.zero)
    quad_max = max(abs(poly.coeff(m)) for m in monos)
    report["subquadratic_max"] = as_double(sub)
    report["quadratic_max"] = as_double(quad_max)
    report["vanishes_at_1"] = bool(a == 1 and poly.kind.negligible(quad_max, 1e-10))
    report["pass"] = report["pass"] and poly.kind.negligible(sub, FAMILY_TOL)
    _write_report(args, report)
    return 0


def _cmd_verify_affine(args):
    rng = _rng(args)
    a = _number(args.a, "--a")
    e = (a, 0.0, 1.0)
    u = affine_field(1.0, e, orthogonal_unit(e))
    f = ex.parse("1+a*x1+x3")
    bindings = {"a": a}
    points = rng.uniform(-1.0, 1.0, size=(args.samples, 3))

    bel = max(beltrami_residual(u, f, bindings, p) for p in points)
    ell = max(elliptic_residual(u, f, bindings, p) for p in points)

    chart = build_chart(f, bindings, (0, 0, 0), t_order=args.t_order,
                        xi_order=args.xi_order, frame="graph")
    sys_res = pullback_system_residuals(u, chart, tensor_T(chart), bindings)
    per_check = {
        "beltrami_residual": bel,
        "elliptic_residual": ell,
        "pullback_dim2a": sys_res["evolution_row1"],
        "pullback_dim2b": sys_res["evolution_row2"],
        "pullback_closedness": sys_res["closedness"],
        "pullback_beta_t": sys_res["beta_t"],
    }
    ok = (
        bel < 1e-9
        and ell < 1e-8
        and all(sys_res[k] < 1e-8 for k in ("evolution_row1", "evolution_row2", "closedness"))
        and sys_res["beta_t"] < 1e-10
    )
    _write_report(
        args,
        {
            "a": a,
            "samples": args.samples,
            "seed": args.seed,
            "max_residual": max(per_check.values()),
            "per_check": per_check,
            "pass": bool(ok),
        },
    )
    return 0


def _random_poly_field(rng, degree=3) -> VectorExpr:
    monos = [
        (i, j, k)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        for k in range(degree + 1 - i - j)
    ]
    comps = []
    for _ in range(3):
        node = ex.Num(Fraction(0))
        for m in monos:
            c = rng.integers(-3, 4)
            if c == 0:
                continue
            term = ex.Num(float(c))
            for axis, p in enumerate(m):
                if p:
                    term = Mul(term, Pow(ex.Var(axis), p))
            node = ex.Add(node, term)
        comps.append(node)
    return VectorExpr(tuple(comps))


def _cmd_conformal_check(args):
    rng = _rng(args)
    f = ex.parse(args.f)
    v = _random_poly_field(rng)
    metric = conformal_metric(f)
    points = rng.uniform(-0.8, 0.8, size=(args.samples, 3))
    u = VectorExpr(tuple(Mul(Pow(f, 2), comp) for comp in v.components))

    def rel_err(p):
        lhs, _ = curl_div(u, None, p)
        fval = ex.evaluate(f, None, p)
        rhs = fval * fval * fval * riemannian_curl(metric, v, None, p)
        denom = max(1.0, float(np.linalg.norm(rhs)))
        return float(np.linalg.norm(lhs - rhs)) / denom

    worst = max(rel_err(p) for p in points)
    _write_report(
        args,
        {
            "f": args.f,
            "samples": args.samples,
            "seed": args.seed,
            "max_rel_error": worst,
            "pass": bool(worst < 1e-8),
        },
    )
    return 0


BATTERY = (
    ("cubic a=1 b=1", "1+a*x1+b*x1^3+x3", {"a": 1.0, "b": 1.0}),
    ("cubic a=1 b=-1", "1+a*x1+b*x1^3+x3", {"a": 1.0, "b": -1.0}),
    ("quadratic a=0", "1+x1^2+a*x2^2+x3", {"a": 0.0}),
    ("quadratic a=2", "1+x1^2+a*x2^2+x3", {"a": 2.0}),
    ("affine a=1", "1+a*x1+x3", {"a": 1.0}),
)


def cross_check_battery():
    """Series vs finite-difference degree-0 obstruction on the fixed battery.

    The series side builds each chart at the orders P0 reads (see
    ``obstruction_P``).  Agreement is relative 1e-3 when the series value is
    away from zero and absolute 1e-6 otherwise (both pipelines must then
    agree the value is 0).
    """
    rows = []
    for name, ftext, bindings in BATTERY:
        f = ex.parse(ftext)
        poly = obstruction_P(f, bindings, (0, 0, 0), degree=0, frame="graph")
        series_val = float(poly.coeff((0, 0)))
        fd_val = P_point_fd(f, bindings, (0, 0, 0))
        if abs(series_val) > 1e-3:
            err = abs(fd_val - series_val) / abs(series_val)
            ok = err < 1e-3
            kind = "relative"
        else:
            err = abs(fd_val - series_val)
            ok = err < 1e-6
            kind = "absolute"
        rows.append(
            {
                "name": name,
                "f": ftext,
                "bindings": {k: float(v) for k, v in bindings.items()},
                "series": series_val,
                "fd": fd_val,
                "error": err,
                "error_kind": kind,
                "pass": bool(ok),
            }
        )
    return {"battery": rows, "pass": all(r["pass"] for r in rows)}


def _cmd_cross_check(args):
    report = cross_check_battery()
    _write_report(args, report)
    return 0 if report["pass"] else 1


def _cmd_evolve(args):
    f, bindings, point = _parse_site(args, "double")
    n1, sep, n2 = args.grid.partition("x")
    if not sep or not n1.isdigit() or not n2.isdigit():
        raise BeltramiError(f"--grid needs the form n1xn2, got {args.grid!r}")
    n1, n2 = int(n1), int(n2)
    t_max = _number(args.tmax, "--tmax")
    dt = _number(args.dt, "--dt")
    spacing = _number(args.spacing, "--spacing")
    if args.init == "affine-exact":
        e = tuple(gradient(f, bindings, point)) if ex.is_affine(f) else ()
        if not any(e):
            raise BeltramiError("--init affine-exact requires a nonconstant affine factor f")
        u0 = orthogonal_unit(e)
        const = ex.evaluate(f, bindings, (0.0, 0.0, 0.0))
        init = ("field", affine_field(const, e, u0))
    elif args.init.startswith("psi:"):
        init = ("psi", ex.parse(args.init[4:]))
    else:
        raise BeltramiError("--init must be 'affine-exact' or 'psi:<expr>'")
    report = evolution_run(
        f, bindings, point, init, t_max=t_max, dt=dt, n1=n1, n2=n2, h1=spacing, h2=spacing,
        t_order=args.t_order, xi_order=args.xi_order, frame=args.frame,
    )
    if args.format == "json":
        _write_report(args, {"final": report.final(), "steps": len(report.times) - 1})
    else:
        _write_report(args, report.to_csv())
    return 0


def _cmd_dump_chart(args):
    f, bindings, point = _parse_site(args, args.mode)
    chart = build_chart(f, bindings, point, t_order=args.t_order,
                        xi_order=args.xi_order, frame=args.frame, mode=args.mode)
    _write_report(args, chart.to_json())
    return 0


# -- argument wiring -----------------------------------------------------------


# The options that several subcommands read, keyed by their argparse dest.
_OPTIONS = {
    "f": dict(required=True, help="scalar factor expression"),
    "param": dict(action="append", help="name=value binding"),
    "point": dict(default="0,0,0", help="base point x1,x2,x3"),
    "degree": dict(type=int, default=4),
    "t_order": dict(type=int, default=6),
    "xi_order": dict(type=int, default=6),
    "mode": dict(choices=("double", "rational"), default="double"),
    "frame": dict(choices=("auto", "graph", "rotated"), default="auto"),
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=100),
}
_SITE = ("f", "param", "point")


def _add_common(sp, *names):
    """Offer the shared options ``names`` that the subcommand reads, then
    --out, which every subcommand has."""
    for name in names:
        sp.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])
    sp.add_argument("--out", default="-", help="output path or '-' for stdout")
    sp.set_defaults(parser=sp)  # reports the flags it does not offer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beltrami",
        description="Obstruction computations for curl u = f u with nonconstant f",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    orders = ("t_order", "xi_order")

    sp = sub.add_parser("p-eval", help="obstruction polynomial at a base point")
    _add_common(sp, *_SITE, "degree", "mode", "frame")
    sp.add_argument("--indices", default=",".join(map(str, DEFAULT_INDICES)),
                    help="hierarchy member i,j,k,l with l>k>j>i>=2")
    sp.set_defaults(fn=_cmd_obstruction)

    sp = sub.add_parser("coeffs-prop3", help="cubic-family coefficients vs closed forms")
    _add_common(sp, "mode")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(fn=_cmd_coeffs_prop3, mode="rational")

    sp = sub.add_parser("coeffs-prop4", help="quadratic-family form vs closed forms")
    _add_common(sp, "mode")
    sp.add_argument("--a", required=True)
    sp.set_defaults(fn=_cmd_coeffs_prop4, mode="rational")

    sp = sub.add_parser("verify-affine", help="residual checks for the explicit solution")
    _add_common(sp, *orders, "seed", "samples")
    sp.add_argument("--a", default="0")
    sp.set_defaults(fn=_cmd_verify_affine)

    sp = sub.add_parser("conformal-check", help="conformal curl transformation law")
    _add_common(sp, "seed", "samples")
    sp.add_argument("--f", default="1+x1^2+x2^2+x3^2")
    sp.set_defaults(fn=_cmd_conformal_check, samples=50)

    sp = sub.add_parser("evolve", help="grid evolution with drift monitoring")
    _add_common(sp, *_SITE, *orders, "frame")
    sp.add_argument("--tmax", required=True)
    sp.add_argument("--dt", required=True)
    sp.add_argument("--grid", default="21x21", help="n1xn2 nodes")
    sp.add_argument("--spacing", default="0.01")
    sp.add_argument("--init", required=True, help="psi:<expr> or affine-exact")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_evolve)

    sp = sub.add_parser("cross-check", help="series vs finite-difference oracle battery")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_cross_check)

    sp = sub.add_parser("dump-chart", help="adapted-chart series data as JSON")
    _add_common(sp, *_SITE, *orders, "mode", "frame")
    sp.set_defaults(fn=_cmd_dump_chart)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # the subcommand's usage line lists the flags it does offer
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        # stderr carries one JSON object; a non-finite result is caught when
        # the report is written, so numpy's floating-point warnings stay off
        with np.errstate(all="ignore"):
            return args.fn(args)
    except BeltramiError as err:
        sys.stderr.write(
            json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
