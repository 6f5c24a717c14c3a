"""Command-line interface: obstruction evaluation, verification, reports.

Every subcommand writes a deterministic report (JSON, or CSV for the
evolution demonstrator) to --out; domain failures produce a machine-readable
error object on stderr and exit code 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import reference
from .beltrami_ops import (
    affine_field,
    conformal_metric,
    curl_div,
    pullback_system_residuals,
    riemannian_curl,
    sample_point,
)
from .chart import build_chart
from .errors import BeltramiError
from .evolution import run as evolution_run
from .expr import Mul, Pow, VectorExpr
from .fd_oracle import P_point_fd
from .obstruction import obstruction_P, obstruction_Pijkl, tensor_T

CONFIG_KEYS = ("t_order", "xi_order", "mode", "frame", "patch_radius", "seed", "samples")
CHOICES = {"mode": ("double", "rational"), "frame": ("auto", "graph", "rotated")}


@dataclass
class RunConfig:
    t_order: int = 6
    xi_order: int = 6
    mode: str = "double"
    frame: str = "auto"
    patch_radius: float = 0.2
    seed: int = 0
    samples: int = 100


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise BeltramiError(f"cannot read --config {path!r}: {err.strerror or err}") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BeltramiError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise BeltramiError(f"unknown config key {key!r}")
        out[key] = value
    return out


def _number(text: str, what: str, kind: str = "double"):
    """A finite number from a flag or config value.

    Accepts integers, decimals and ``p/q`` rationals.  ``kind`` is
    ``"rational"`` (a Fraction), ``"double"`` (a float) or ``"int"``; anything
    else, including nan, inf and a number beyond the double range (a rational
    run converts to doubles for its checks), is a BeltramiError.
    """
    try:
        value = Fraction(text)
        approx = float(value)
        if kind == "double":
            return approx
        if kind == "int":
            if value.denominator != 1:
                raise ValueError(text)
            return int(value)
        return value
    except (ValueError, ZeroDivisionError, OverflowError):
        noun = "an integer" if kind == "int" else "a finite number"
        raise BeltramiError(f"{what} needs {noun}, got {text!r}") from None


def _merge_config(args) -> RunConfig:
    """Built-in defaults, then the subcommand's defaults, then the config
    file, then the flags: each layer overrides the ones before it."""
    cfg = RunConfig()
    for key, value in getattr(args, "defaults", {}).items():
        setattr(cfg, key, value)
    for key, text in _load_config(getattr(args, "config", None)).items():
        if key in CHOICES:
            if text not in CHOICES[key]:
                raise BeltramiError(
                    f"config key {key!r} must be one of {CHOICES[key]}, got {text!r}")
            setattr(cfg, key, text)
        else:
            kind = "int" if isinstance(getattr(cfg, key), int) else "double"
            setattr(cfg, key, _number(text, f"config key {key!r}", kind))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if cfg.samples < 1:
        raise BeltramiError(f"samples must be at least 1, got {cfg.samples}")
    if cfg.seed < 0:
        raise BeltramiError(f"seed must be at least 0, got {cfg.seed}")
    return cfg


def _parse_params(items, mode: str) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise BeltramiError(f"--param needs name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = _number(value, f"--param {name.strip()}", mode)
    return out


def _parse_point(text: str, mode: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise BeltramiError(f"--point needs three comma-separated values, got {text!r}")
    return tuple(_number(p, "--point", mode) for p in parts)


def _write_report(args, payload, default_newline=True):
    if isinstance(payload, str):
        text = payload
    else:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            raise BeltramiError(
                "the report holds a non-finite number (an overflow or a NaN); "
                "no report written") from None
        if default_newline:
            text += "\n"
    out = getattr(args, "out", "-") or "-"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise BeltramiError(f"cannot write --out {out!r}: {err.strerror or err}") from None


def _enc(value, mode):
    return str(value) if mode == "rational" else float(value)


# -- subcommand bodies ---------------------------------------------------------


def _cmd_p_eval(args):
    cfg = _merge_config(args)
    f = ex.parse(args.f)
    bindings = _parse_params(args.param, cfg.mode)
    point = _parse_point(args.point, cfg.mode)
    poly = obstruction_P(
        f, bindings, point, degree=args.degree, t_order=cfg.t_order,
        xi_order=cfg.xi_order, frame=cfg.frame, mode=cfg.mode,
    )
    _write_report(args, poly.to_json())
    return 0


def _cmd_p_hierarchy(args):
    cfg = _merge_config(args)
    f = ex.parse(args.f)
    bindings = _parse_params(args.param, cfg.mode)
    point = _parse_point(args.point, cfg.mode)
    indices = tuple(_number(v, "--indices", "int") for v in args.indices.split(","))
    poly = obstruction_Pijkl(
        f, bindings, point, indices, degree=args.degree, t_order=cfg.t_order,
        xi_order=cfg.xi_order, frame=cfg.frame, mode=cfg.mode,
    )
    _write_report(args, poly.to_json())
    return 0


def _cmd_coeffs_prop3(args):
    cfg = _merge_config(args)
    mode = cfg.mode
    a = _number(args.a, "--a", mode)
    b = _number(args.b, "--b", mode)
    f = ex.parse("1+a*x1+b*x1^3+x3")
    degree = 4 if a == 0 else 3
    poly = obstruction_P(
        f, {"a": a, "b": b}, (0, 0, 0), degree=degree, t_order=cfg.t_order,
        xi_order=cfg.xi_order, frame="graph", mode=mode,
    )
    refs = reference.cubic_family_coeffs(a, b)
    computed, ref_out, match = {}, {}, {}
    for j in range(4):
        c = poly.coeff((j, 0))
        computed[f"c{j}"] = _enc(c, mode)
        ref_out[f"c{j}"] = _enc(refs[j], mode)
        if mode == "rational":
            match[f"c{j}"] = c == refs[j]
        else:
            scale = max(1.0, abs(float(refs[j])))
            match[f"c{j}"] = abs(float(c) - float(refs[j])) <= 1e-9 * scale
    if a == 0:
        c4_ref = reference.cubic_family_c4_pure(b)
        c4 = poly.coeff((4, 0))
        computed["c4"] = _enc(c4, mode)
        ref_out["c4"] = _enc(c4_ref, mode)
        match["c4"] = (
            c4 == c4_ref
            if mode == "rational"
            else abs(float(c4) - float(c4_ref)) <= 1e-9 * max(1.0, abs(float(c4_ref)))
        )
    _write_report(
        args,
        {
            "a": _enc(a, mode),
            "b": _enc(b, mode),
            "mode": mode,
            "frame": "graph",
            "computed": computed,
            "reference": ref_out,
            "match": match,
            "pass": all(match.values()),
        },
    )
    return 0


def _cmd_coeffs_prop4(args):
    cfg = _merge_config(args)
    mode = cfg.mode
    a = _number(args.a, "--a", mode)
    f = ex.parse("1+x1^2+a*x2^2+x3")
    poly = obstruction_P(
        f, {"a": a}, (0, 0, 0), degree=2, t_order=cfg.t_order,
        xi_order=cfg.xi_order, frame="graph", mode=mode,
    )
    refs = reference.quadratic_family_form(a)
    keys = {"q20": (2, 0), "q11": (1, 1), "q02": (0, 2)}
    computed, ref_out, match = {}, {}, {}
    for name, mono in keys.items():
        c = poly.coeff(mono)
        r = refs[list(keys).index(name)]
        computed[name] = _enc(c, mode)
        ref_out[name] = _enc(r, mode)
        if mode == "rational":
            match[name] = c == r
        else:
            match[name] = abs(float(c) - float(r)) <= 1e-9 * max(1.0, abs(float(r)))
    sub = max(
        (abs(float(v)) for m, v in poly.coeffs.items() if sum(m) < 2), default=0.0
    )
    quad_max = max(abs(float(poly.coeff(m))) for m in keys.values())
    _write_report(
        args,
        {
            "a": _enc(a, mode),
            "mode": mode,
            "frame": "graph",
            "computed": computed,
            "reference": ref_out,
            "match": match,
            "subquadratic_max": sub,
            "quadratic_max": quad_max,
            "vanishes_at_1": bool(a == 1 and quad_max < 1e-10),
            "pass": all(match.values()) and sub < 1e-9,
        },
    )
    return 0


def _cmd_verify_affine(args):
    cfg = _merge_config(args)
    a = _number(args.a, "--a")
    u = affine_field(1.0, (a, 0.0, 1.0), _orthogonal_seed_vector(a))
    f = ex.parse("1+a*x1+x3")
    bindings = {"a": a}
    rng = np.random.default_rng(cfg.seed)
    points = rng.uniform(-1.0, 1.0, size=(cfg.samples, 3))

    samples = [sample_point(u, f, bindings, p) for p in points]
    bel = max(s.beltrami for s in samples)
    ell = max(s.elliptic for s in samples)

    chart = build_chart(f, bindings, (0, 0, 0), t_order=cfg.t_order,
                        xi_order=cfg.xi_order, frame="graph")
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
            "samples": int(cfg.samples),
            "seed": int(cfg.seed),
            "max_residual": max(per_check.values()),
            "per_check": per_check,
            "pass": bool(ok),
        },
    )
    return 0


def _orthogonal_seed_vector(a: float):
    e = np.array([a, 0.0, 1.0])
    u0 = np.cross(e, [0.0, 1.0, 0.0])
    return tuple(u0 / np.linalg.norm(u0))


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
    cfg = _merge_config(args)
    f = ex.parse(args.f)
    rng = np.random.default_rng(cfg.seed)
    v = _random_poly_field(rng)
    metric = conformal_metric(f)
    points = rng.uniform(-0.8, 0.8, size=(cfg.samples, 3))

    def rel_err(p):
        u = VectorExpr(tuple(Mul(Pow(f, 2), comp) for comp in v.components))
        lhs, _ = curl_div(u, None, p)
        fval = ex.evaluate(f, None, p)
        rhs = fval**3 * riemannian_curl(metric, v, None, p)
        denom = max(1.0, float(np.linalg.norm(rhs)))
        return float(np.linalg.norm(lhs - rhs)) / denom

    worst = max(rel_err(p) for p in points)
    _write_report(
        args,
        {
            "f": args.f,
            "samples": int(cfg.samples),
            "seed": int(cfg.seed),
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


def cross_check_battery(t_order=6, xi_order=6):
    """Series vs finite-difference degree-0 obstruction on the fixed battery.

    Agreement is relative 1e-3 when the series value is away from zero and
    absolute 1e-6 otherwise (both pipelines must then agree the value is 0).
    """
    rows = []
    for name, ftext, bindings in BATTERY:
        f = ex.parse(ftext)
        poly = obstruction_P(f, bindings, (0, 0, 0), degree=0, t_order=t_order,
                             xi_order=xi_order, frame="graph")
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
    cfg = _merge_config(args)
    report = cross_check_battery(t_order=cfg.t_order, xi_order=cfg.xi_order)
    _write_report(args, report)
    return 0 if report["pass"] else 1


def _cmd_evolve(args):
    cfg = _merge_config(args)
    f = ex.parse(args.f)
    bindings = _parse_params(args.param, "double")
    point = _parse_point(args.point, "double")
    n1, sep, n2 = args.grid.partition("x")
    if not sep or not n1.isdigit() or not n2.isdigit():
        raise BeltramiError(f"--grid needs the form n1xn2, got {args.grid!r}")
    n1, n2 = int(n1), int(n2)
    t_max = _number(args.tmax, "--tmax")
    dt = _number(args.dt, "--dt")
    spacing = _number(args.spacing, "--spacing")
    if dt <= 0:
        raise BeltramiError(f"--dt must be positive, got {args.dt!r}")
    if args.init == "affine-exact":
        j2 = ex.jet(f, bindings, point, 2)
        grad = [float(j2.coeff(m)) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        second = max(
            abs(float(j2.coeff(m)))
            for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
        )
        if second > 1e-12:
            raise BeltramiError("--init affine-exact requires an affine factor f")
        e = np.array(grad)
        pick = np.cross(e, [0.0, 1.0, 0.0])
        if np.linalg.norm(pick) < 1e-8:
            pick = np.cross(e, [1.0, 0.0, 0.0])
        u0 = tuple(pick / np.linalg.norm(pick))
        const = ex.evaluate(f, bindings, (0.0, 0.0, 0.0))
        init = ("field", affine_field(const, tuple(e), u0))
    elif args.init.startswith("psi:"):
        init = ("psi", ex.parse(args.init[4:]))
    else:
        raise BeltramiError("--init must be 'affine-exact' or 'psi:<expr>'")
    report = evolution_run(
        f, bindings, point, init, t_max=t_max, dt=dt, n1=n1, n2=n2,
        h1=spacing, h2=spacing, t_order=cfg.t_order,
        xi_order=cfg.xi_order, frame=cfg.frame, patch_radius=cfg.patch_radius,
    )
    if args.format == "json":
        _write_report(args, {"final": report.final(), "steps": len(report.times) - 1})
    else:
        _write_report(args, report.to_csv())
    return 0


def _cmd_dump_chart(args):
    cfg = _merge_config(args)
    f = ex.parse(args.f)
    bindings = _parse_params(args.param, cfg.mode)
    point = _parse_point(args.point, cfg.mode)
    chart = build_chart(f, bindings, point, t_order=cfg.t_order,
                        xi_order=cfg.xi_order, frame=cfg.frame, mode=cfg.mode)
    _write_report(args, chart.to_json())
    return 0


# -- argument wiring -----------------------------------------------------------


def _add_common(sp, point=True, f=True, degree=False):
    if f:
        sp.add_argument("--f", required=True, help="scalar factor expression")
        sp.add_argument("--param", action="append", help="name=value binding", default=None)
    if point:
        sp.add_argument("--point", default="0,0,0", help="base point x1,x2,x3")
    if degree:
        sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--t-order", dest="t_order", type=int, default=None)
    sp.add_argument("--xi-order", dest="xi_order", type=int, default=None)
    sp.add_argument("--mode", choices=CHOICES["mode"], default=None)
    sp.add_argument("--frame", choices=CHOICES["frame"], default=None)
    sp.add_argument("--config", default=None, help="flat key=value config file")
    sp.add_argument("--out", default="-", help="output path or '-' for stdout")
    sp.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beltrami",
        description="Obstruction computations for curl u = f u with nonconstant f",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("p-eval", help="obstruction polynomial at a base point")
    _add_common(sp, degree=True)
    sp.set_defaults(fn=_cmd_p_eval)

    sp = sub.add_parser("p-hierarchy", help="hierarchy determinant for chosen indices")
    _add_common(sp, degree=True)
    sp.add_argument("--indices", required=True, help="i,j,k,l with l>k>j>i>=2")
    sp.set_defaults(fn=_cmd_p_hierarchy)

    sp = sub.add_parser("coeffs-prop3", help="cubic-family coefficients vs closed forms")
    _add_common(sp, point=False, f=False)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(fn=_cmd_coeffs_prop3, defaults={"mode": "rational"})

    sp = sub.add_parser("coeffs-prop4", help="quadratic-family form vs closed forms")
    _add_common(sp, point=False, f=False)
    sp.add_argument("--a", required=True)
    sp.set_defaults(fn=_cmd_coeffs_prop4, defaults={"mode": "rational"})

    sp = sub.add_parser("verify-affine", help="residual checks for the explicit solution")
    _add_common(sp, point=False, f=False)
    sp.add_argument("--a", default="0")
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=_cmd_verify_affine)

    sp = sub.add_parser("conformal-check", help="conformal curl transformation law")
    _add_common(sp, point=False, f=False)
    sp.add_argument("--f", default="1+x1^2+x2^2+x3^2")
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=_cmd_conformal_check, defaults={"samples": 50})

    sp = sub.add_parser("evolve", help="grid evolution with drift monitoring")
    _add_common(sp)
    sp.add_argument("--tmax", required=True)
    sp.add_argument("--dt", required=True)
    sp.add_argument("--grid", default="21x21", help="n1xn2 nodes")
    sp.add_argument("--spacing", default="0.01")
    sp.add_argument("--init", required=True, help="psi:<expr> or affine-exact")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=_cmd_evolve)

    sp = sub.add_parser("cross-check", help="series vs finite-difference oracle battery")
    _add_common(sp, point=False, f=False)
    sp.set_defaults(fn=_cmd_cross_check)

    sp = sub.add_parser("dump-chart", help="adapted-chart series data as JSON")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_dump_chart)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
