import contextlib
import io
import json
import math
import shlex
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from beltrami import cli
from beltrami import expr as ex
from beltrami.cli import build_parser, main
from beltrami.series import DOUBLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_p_eval_rational_spot_value(capsys):
    code, out, _ = run_cli(
        capsys, "p-eval", "--f", "1+a*x1+b*x1^3+x3", "--param", "a=1",
        "--param", "b=1", "--point", "0,0,0", "--degree", "4", "--mode", "rational",
    )
    assert code == 0
    data = json.loads(out)
    deg0 = [e for e in data["coeffs"] if e["mi"] == [0, 0]]
    assert deg0[0]["c"] == "-81/4"
    assert data["frame"] == "graph"


def test_p_eval_divides_by_a_series_in_both_modes(capsys):
    # a series divisor is inverted by the same reciprocal in either mode
    want = {(0, 0): Fraction(-5, 8), (0, 1): Fraction(3, 4), (1, 0): Fraction(-17, 16)}
    argv = ("p-eval", "--f", "1+x3+x1/(1+x2)", "--point", "0,0,0", "--degree", "1")
    got = {}
    for mode in ("rational", "double"):
        code, out, _ = run_cli(capsys, *argv, "--mode", mode)
        assert code == 0
        got[mode] = {tuple(e["mi"]): e["c"] for e in json.loads(out)["coeffs"]}
    assert {m: Fraction(c) for m, c in got["rational"].items()} == want
    assert got["double"].keys() == want.keys()
    for m, c in want.items():
        assert abs(got["double"][m] - float(c)) <= 1e-13 * abs(c)


# f nested ``n`` levels deep, in the three shapes that ran out of stack
# before the parser bounded the depth, and in the right-nested quotient,
# whose partials nest three times as deep as f
_DEEP = {
    "brackets": lambda n: "(" * (n - 1) + "1+x3" + ")" * (n - 1),
    "sum": lambda n: "1+x3" + "".join(f"+{k}/{k + 1}*x1^2" for k in range(1, n - 2)),
    "product": lambda n: "*".join(["(1+x1/7)"] * (n - 2)),
    "quotient": lambda n: "x3+x1" + "/(x1" * (n - 2) + ")" * (n - 2),
}


def _at_depth(frames, fn):
    """fn() called ``frames`` frames further down the stack."""
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_expression_depth_is_bounded_at_parse_time(capsys, shape):
    make = _DEEP[shape]
    argv = ("p-eval", "--point", "0.1,0.2,0.3", "--degree", "1", "--f")
    deep = make(ex.MAX_DEPTH)
    f = ex.parse(deep)
    # every walker runs at the bound with 300 frames of the stack to spare
    walkers = [lambda: ex.parse(deep), lambda: ex.to_string(f), lambda: ex.is_affine(f),
               lambda: ex.evaluate(ex.parse(deep), None, (0.1, 0.2, 0.3)),
               lambda: [ex.evaluate(ex.diff(ex.parse(deep), i), None, (0.1, 0.2, 0.3))
                        for i in range(3)],
               lambda: main([*argv, deep])]
    for walk in walkers:
        _at_depth(300, walk)
    assert (main([*argv, deep]), capsys.readouterr().err) == (0, "")
    code, out, err = run_cli(capsys, *argv, make(ex.MAX_DEPTH + 1))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith(f"expression nests deeper than {ex.MAX_DEPTH} levels")


def test_p_eval_sqrt_of_a_zero_parameter_is_zero(capsys):
    # sqrt(a) is a number, which takes evaluate's domain: sqrt(0) = 0
    code, out, err = run_cli(capsys, "p-eval", "--f", "1+sqrt(a)*x1+x3", "--param", "a=0",
                             "--degree", "0")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "p-eval", "--f", "1+x3", "--degree", "0")


@pytest.mark.parametrize("mode", ["rational", "double"])
@pytest.mark.parametrize("f", ["1+x3+x1/x2", "x3/(x1-x1)"])
def test_p_eval_divisor_vanishing_at_the_point_is_a_domain_error(capsys, f, mode):
    code, out, err = run_cli(capsys, "p-eval", "--f", f, "--point", "0,0,0", "--degree", "1",
                             "--mode", mode)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "DomainError",
                               "message": "reciprocal of a series with zero constant term"}


def test_p_eval_critical_point_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "p-eval", "--f", "1+x1^2+x2^2+x3^2", "--point", "0,0,0"
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "CriticalPointError"


@pytest.mark.parametrize("f, point, mode, message", [
    ("1+x1^2+x2^2+x3^2", "0,0,0", "double", "grad f vanishes at (0.0, 0.0, 0.0)"),
    ("(x1-1/2)^2+x3^2", "1/2,0,0", "double", "grad f vanishes at (0.5, 0.0, 0.0)"),
    ("(x1-1/2)^2+x3^2", "1/2,0,0", "rational", "grad f vanishes at (1/2, 0, 0)"),
    ("1/1000000000+x3/1000000000+x1^2", "0,0,0", "double",
     "|grad f| = 1.000e-09 below floor 1.000e-08 at (0.0, 0.0, 0.0)"),
])
def test_critical_point_error_writes_the_point_as_the_report_does(capsys, f, point, mode,
                                                                  message):
    code, out, err = run_cli(capsys, "p-eval", "--f", f, "--point", point, "--mode", mode)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "CriticalPointError", "message": message}


def test_a_family_coefficient_at_the_tolerance_matches():
    # |computed - reference| = FAMILY_TOL is within it; a double more is not
    def report(c):
        poly = types.SimpleNamespace(kind=DOUBLE, coeff=lambda mono: c)
        return cli._family_report(poly, {"c0": ((0, 0), 0.0)})["match"]
    assert report(cli.FAMILY_TOL) == {"c0": True}
    assert report(math.nextafter(cli.FAMILY_TOL, 1.0)) == {"c0": False}


@pytest.mark.parametrize("argv, frame", [
    # rational: graph exists wherever d3 f != 0, steep or not
    (["--f", "1+x1+x3/1000", "--mode", "rational", "--degree", "1"], "graph"),
    # double: d3 f is steep enough for auto but below the floor, so no graph
    (["--f", "1+0.000000015*x1+0.0000000005*x3", "--degree", "0"], "rotated"),
])
def test_p_eval_auto_picks_a_frame_that_exists(capsys, argv, frame):
    code, out, err = run_cli(capsys, "p-eval", *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "p-eval", *argv, "--frame", frame) == (0, out, "")


@pytest.mark.parametrize("f, double_error", [
    ("1/10000000000000+x3+x1^2", "DomainError"),  # the pivot is below 1e-12
    ("1/1000000000+x3/1000000000+x1^2", "CriticalPointError"),  # |grad f| below the floor
])
def test_rational_mode_refuses_only_an_exact_zero(capsys, f, double_error):
    argv = ("p-eval", "--f", f, "--degree", "2")
    code, out, err = run_cli(capsys, *argv, "--mode", "rational")
    assert (code, err) == (0, "")
    assert [e["mi"] for e in json.loads(out)["coeffs"]] == [[2, 0]]
    code, out, err = run_cli(capsys, *argv)  # double mode keeps its thresholds
    assert (code, out, json.loads(err)["error"]) == (1, "", double_error)


def test_graph_solve_residual_is_scaled_by_the_solution(capsys):
    # h's coefficients reach 4.5e20 here, and the absolute residual 5.1e2
    code, out, err = run_cli(capsys, "p-eval", "--f", "x1^2+x2^2+x3^2",
                             "--point", "0.3,0.4,0.01")
    assert (code, err) == (0, "")
    assert json.loads(out)["frame"] == "graph"


@pytest.mark.parametrize("point, frame, named, remedy", [
    # grad f = (6/5, 8/5, 0): neither rational frame exists here, and each
    # error used to name the other one
    ("3/5,4/5,0", "rotated", "mode='double'", ["--mode", "double", "--frame", "rotated"]),
    ("3/5,4/5,0", "graph", "mode='double' with frame='rotated'",
     ["--mode", "double", "--frame", "rotated"]),
    # grad f = (6/5, 0, 8/5): the rational graph frame exists
    ("3/5,0,4/5", "rotated", "frame='graph'", ["--mode", "rational", "--frame", "graph"]),
])
def test_p_eval_frame_error_names_a_remedy_that_works(capsys, point, frame, named, remedy):
    base = ["p-eval", "--f", "x1^2+x2^2+x3^2", "--point", point, "--degree", "2"]
    code, out, err = run_cli(capsys, *base, "--mode", "rational", "--frame", frame)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FrameError"
    assert payload["message"].endswith(f"; use {named}")
    assert run_cli(capsys, *base, *remedy)[0] == 0


# the flags each subcommand offers besides -h and --out: exactly the options its
# body reads
FLAGS = {
    "p-eval": {"--f", "--param", "--point", "--degree", "--mode", "--frame", "--indices"},
    "coeffs-prop3": {"--a", "--b", "--mode"},
    "coeffs-prop4": {"--a", "--mode"},
    "verify-affine": {"--a", "--samples", "--seed", "--t-order", "--xi-order"},
    "conformal-check": {"--f", "--samples", "--seed"},
    "evolve": {"--f", "--param", "--point", "--t-order", "--xi-order", "--frame", "--tmax",
               "--dt", "--grid", "--spacing", "--init", "--format"},
    "cross-check": set(),
    "dump-chart": {"--f", "--param", "--point", "--t-order", "--xi-order", "--mode",
                   "--frame"},
}
# the required flags of each subcommand, so that a parse fails only on what is added
REQUIRED = {
    "p-eval": ["--f", "1+x3"],
    "coeffs-prop3": ["--a", "1", "--b", "1"],
    "coeffs-prop4": ["--a", "1"],
    "verify-affine": [],
    "conformal-check": [],
    "evolve": ["--f", "1+x3", "--tmax", "0.01", "--dt", "0.005", "--init", "psi:x1"],
    "cross-check": [],
    "dump-chart": ["--f", "1+x3"],
}


def test_each_subcommand_offers_the_options_it_reads():
    parsers = build_parser()._subparsers._group_actions[0].choices
    assert set(parsers) == set(FLAGS)
    for command, sp in parsers.items():
        offered = set(sp._option_string_actions)
        assert {"-h", "--help", "--out"} <= offered, command
        assert offered - {"-h", "--help", "--out"} == FLAGS[command], command
        sp.parse_args(REQUIRED[command])
    assert len(FLAGS) == 8
    assert sum(map(len, FLAGS.values())) == 39


@pytest.mark.parametrize("command,flag,value", [
    *[(c, "--seed", "1") for c in ("p-eval", "coeffs-prop3", "coeffs-prop4", "evolve",
                                   "cross-check", "dump-chart")],
    *[(c, "--frame", "rotated") for c in ("coeffs-prop3", "coeffs-prop4", "verify-affine",
                                          "conformal-check", "cross-check")],
    *[(c, "--mode", "rational") for c in ("verify-affine", "conformal-check", "evolve",
                                          "cross-check")],
    ("conformal-check", "--t-order", "4"),
    ("conformal-check", "--xi-order", "4"),
    # the obstruction path works out its own orders
    *[(c, flag, "4") for c in ("p-eval", "coeffs-prop3", "coeffs-prop4", "cross-check")
      for flag in ("--t-order", "--xi-order")],
    # option values come from flags only
    *[(c, "--config", "x.cfg") for c in FLAGS],
])
def test_unread_flags_are_usage_errors(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: beltrami {command} ")
    assert f"unrecognized arguments: {flag} {value}" in err


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("beltrami ")]


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert {argv[0] for argv in examples} == set(FLAGS)
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["p-eval"])  # missing --f
    assert exc.value.code == 2


def test_p_eval_hierarchy_member(capsys):
    code, out, _ = run_cli(
        capsys, "p-eval", "--f", "1+a*x1+x3", "--param", "a=1",
        "--point", "0,0,0", "--indices", "2,3,4,6", "--degree", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["indices"] == [2, 3, 4, 6]
    assert data["orders"]["t"] == 5  # the recursion to T_6 reads t-degrees up to 5
    assert all(abs(float(e["c"])) < 1e-10 for e in data["coeffs"])


def test_p_eval_default_indices_are_P(capsys):
    argv = ["p-eval", "--f", "1+a*x1+b*x1^3+x3", "--param", "a=3/2", "--param", "b=-2",
            "--degree", "3", "--mode", "rational"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--indices", "2,3,4,5") == (0, default, "")


def test_coeffs_prop3_defaults_rational(capsys):
    code, out, _ = run_cli(capsys, "coeffs-prop3", "--a", "2", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "rational"
    assert data["pass"] is True


def test_coeffs_prop4_vanishing(capsys):
    code, out, _ = run_cli(capsys, "coeffs-prop4", "--a", "1")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["vanishes_at_1"] is True


def test_verify_affine_report(capsys):
    code, out, _ = run_cli(capsys, "verify-affine", "--a", "1", "--samples", "25")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["samples"] == 25
    assert set(data["per_check"]) == {
        "beltrami_residual",
        "elliptic_residual",
        "pullback_dim2a",
        "pullback_dim2b",
        "pullback_closedness",
        "pullback_beta_t",
    }


def test_conformal_check_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "conformal-check", "--seed", "3", "--samples", "10")
    code2, out2, _ = run_cli(capsys, "conformal-check", "--seed", "3", "--samples", "10")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pass"] is True


def test_evolve_csv(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--f", "1+x1^2+x3", "--point", "0,0,0", "--tmax", "0.01",
        "--dt", "0.005", "--grid", "9x9", "--spacing", "0.01",
        "--init", "psi:x1+x2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,max_drift,l2_drift,max_beta,max_drift_normalized"
    assert len(lines) == 4  # header + initial sample + 2 steps


def test_evolve_affine_exact_runs(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--f", "1+a*x1+x3", "--param", "a=1", "--point", "0,0,0",
        "--tmax", "0.01", "--dt", "0.005", "--grid", "9x9", "--spacing", "0.01",
        "--init", "affine-exact", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["final"]["max_drift"] == 0.0
    assert data["final"]["max_beta"] > 0.5


def test_evolve_rejects_malformed_grid(capsys):
    code, _, err = run_cli(
        capsys, "evolve", "--f", "1+x3", "--point", "0,0,0", "--tmax", "0.01",
        "--dt", "0.005", "--grid", "21", "--init", "psi:x1",
    )
    assert code == 1
    assert "n1xn2" in json.loads(err)["message"]


def test_dump_chart_rational(capsys):
    code, out, _ = run_cli(
        capsys, "dump-chart", "--f", "1+x1^2+x3", "--point", "0,0,0",
        "--mode", "rational", "--t-order", "3", "--xi-order", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "rational"
    assert data["level"] == "1"


def test_evolve_affine_exact_requires_affine(capsys):
    # 1+x3+x1^3 has no second derivative at the origin, so the factor itself
    # must be checked, not its jet at the base point
    for f in ("1+x1^2+x3", "1+x3+x1^3", "2"):
        code, out, err = run_cli(
            capsys, "evolve", "--f", f, "--point", "0,0,0", "--tmax", "0.01",
            "--dt", "0.005", "--grid", "9x9", "--init", "affine-exact",
        )
        assert code == 1 and out == "", f
        assert "affine" in json.loads(err)["message"], f


def test_evolve_affine_exact_takes_an_affine_f_with_transcendental_coefficients(capsys):
    argv = ("evolve", "--point", "0,0,0", "--tmax", "0.01", "--dt", "0.005", "--grid", "9x9",
            "--spacing", "0.01", "--init", "affine-exact", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--f", "1+sin(a)*x1+x3", "--param", "a=1")
    assert (code, err) == (0, "")
    assert json.loads(out)["final"]["max_drift"] == 0.0


def test_cross_check_passes(capsys):
    code, out, _ = run_cli(capsys, "cross-check")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert len(data["battery"]) == 5
    names = {row["name"] for row in data["battery"]}
    assert any("cubic" in n for n in names) and any("quadratic" in n for n in names)


def test_dump_chart(capsys):
    code, out, _ = run_cli(
        capsys, "dump-chart", "--f", "1+x3", "--point", "0,0,0",
        "--t-order", "3", "--xi-order", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == {"t": 3, "xi": 3}
    assert data["g"]["g11"]["order"] == [3, 3]


def test_out_file_and_order_flags(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "dump-chart", "--f", "1+x3", "--point", "0,0,0", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text())
    assert data["orders"] == {"t": 6, "xi": 6}
    code, out, _ = run_cli(
        capsys, "dump-chart", "--f", "1+x3", "--point", "0,0,0", "--t-order", "3",
    )
    assert code == 0
    assert json.loads(out)["orders"] == {"t": 3, "xi": 6}


def test_negative_parameter_values(capsys):
    code, out, _ = run_cli(capsys, "coeffs-prop4", "--a", "-1")
    assert code == 0
    assert json.loads(out)["pass"] is True


# an exact literal or result beyond the double range, where a double is needed
BEYOND_DOUBLE = [
    ["p-eval", "--f", "1e400*x1+x3", "--point", "0,0,0"],
    ["p-eval", "--f", "1e400*x1+x3", "--point", "0,0,0", "--mode", "rational"],
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "0.005", "--init", "psi:1e400*x1"],
    ["coeffs-prop4", "--a", "1e300", "--mode", "rational"],
]
# a double chart whose series overflow to NaN: the flow residual check fails
# closed on the NaN, before any report is written
NAN_RESIDUAL = [
    ["p-eval", "--f", "1+x1^2+x3+1e200*x2^3", "--point", "1,1,0"],
    ["p-eval", "--f", "1+x3+1e300*x1^3*x2^2"],
    ["dump-chart", "--f", "1+x3+1e300*x1^3*x2^2"],
]


@pytest.mark.parametrize("argv", [
    ["verify-affine", "--a", "1/0"],
    ["verify-affine", "--a", "nan"],
    ["p-eval", "--f", "1+a*x1+x3", "--param", "a=foo"],
    ["p-eval", "--f", "1+x3", "--point", "nan,0,0"],
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "0", "--init", "psi:x1"],
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "inf", "--init", "psi:x1"],
    ["p-eval", "--f", "1+x3", "--indices", "2,3,x,6"],
    ["conformal-check", "--samples", "0"],
    ["verify-affine", "--seed", "-1"],
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "0.005", "--init", "psi:x1",
     "--grid", "5x5", "--out", "/nonexistent/dir/x.csv"],
    # non-finite results: CSV rows of nan and inf, a square past the double
    # range (inf, not OverflowError), and f^3 overflowing in conformal-check
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "0.005", "--init", "psi:x1*10^200*10^200"],
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "0.005", "--init", "psi:x1*(10^200)^2"],
    ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "0.005", "--init", "psi:x1*(10^200)^2",
     "--format", "json"],
    ["conformal-check", "--f", "1+10^150*x1", "--samples", "1"],
    *BEYOND_DOUBLE,
    *NAN_RESIDUAL,
])
def test_bad_numbers_are_json_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    # evolution.run checks the step itself, before it allocates anything
    zero_step = argv[0] == "evolve" and argv[argv.index("--dt") + 1] == "0"
    domain = zero_step or argv in BEYOND_DOUBLE or argv in NAN_RESIDUAL
    assert json.loads(err)["error"] == ("DomainError" if domain else "BeltramiError")
    if argv in NAN_RESIDUAL:
        assert json.loads(err)["message"].startswith(
            "flow series inconsistent: f(x) != c0 + t: residual nan (coefficient scale ")


def test_a_term_beyond_the_orders_read_leaves_the_double_chart_finite(capsys):
    # at degree 2 the chart reads xi-degrees up to 3, so 1e300 * x1^3 x2^2
    # never meets another large coefficient: every series stays finite and
    # the double report equals the exact one
    argv = ["p-eval", "--f", "1+x3+1e300*x1^3*x2^2", "--degree", "2"]
    code, out, err = run_cli(capsys, *argv)
    exact_code, exact_out, _ = run_cli(capsys, *argv, "--mode", "rational")
    assert code == exact_code == 0 and err == ""
    assert json.loads(out)["coeffs"] == json.loads(exact_out)["coeffs"] == []


def test_function_overflow_is_a_json_error(capsys):
    code, out, err = run_cli(capsys, "p-eval", "--f", "exp(1000)+x3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_verify_affine_accepts_a_rational(capsys):
    # --a goes through the same number parser as every other numeric flag
    _, half, _ = run_cli(capsys, "verify-affine", "--a", "1/2", "--samples", "5")
    _, decimal, _ = run_cli(capsys, "verify-affine", "--a", "0.5", "--samples", "5")
    assert half == decimal
    assert json.loads(half)["a"] == 0.5


def test_verify_affine_at_high_t_order(capsys):
    # the pullback composes u with the chart series, so no jet order cap applies
    code, out, _ = run_cli(capsys, "verify-affine", "--a", "1", "--t-order", "7",
                           "--samples", "5")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_oversized_orders_fail_before_allocating(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("graph solve started before the budget check")

    monkeypatch.setattr("beltrami.chart._graph_solve_from_jet", no_solve)
    for argv in (
        ["dump-chart", "--f", "1+x1^2+x3", "--t-order", "40", "--xi-order", "40"],
        # built at (4, 41): the flow at (5, 42) needs 3,426,885 pairs per product
        ["p-eval", "--f", "1+x1^2+x3", "--degree", "40"],
        ["p-eval", "--f", "1+x1^2+x3", "--degree", "0", "--indices", "2,3,4,200"],
        # 10^298 RK4 steps, and a step count t_max / dt that overflows to inf
        ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "1e-300", "--init", "psi:x1",
         "--grid", "5x5"],
        ["evolve", "--f", "1+x3", "--tmax", "0.01", "--dt", "1e-320", "--init", "psi:x1",
         "--grid", "5x5"],
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 1 and out == "", argv
        assert json.loads(err)["error"] == "BudgetError", argv


def test_overlong_exact_coefficient_is_a_budget_error(capsys):
    # at x1 = 1e-200 the rational P has a numerator past the interpreter's
    # int-to-str digit limit, so it cannot be written: a JSON error, and the
    # limit is left as it was.  "--point 1e-400,0,0 --degree 2" fails the
    # same way at several times the cost
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "p-eval", "--f", "1+x3+x1^2", "--point", "1e-200,0,0",
                             "--mode", "rational", "--degree", "0")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BudgetError"
    assert sys.get_int_max_str_digits() == limit


def test_mode_flag_overrides_subcommand_default(capsys):
    code, out, _ = run_cli(capsys, "coeffs-prop4", "--a", "2")
    assert code == 0
    assert json.loads(out)["mode"] == "rational"
    code, out, _ = run_cli(capsys, "coeffs-prop4", "--a", "2", "--mode", "double")
    assert code == 0
    assert json.loads(out)["mode"] == "double"


def test_samples_flag_overrides_subcommand_default(capsys):
    code, out, _ = run_cli(capsys, "conformal-check")
    assert code == 0
    assert json.loads(out)["samples"] == 50
    code, out, _ = run_cli(capsys, "conformal-check", "--samples", "3")
    assert code == 0
    assert json.loads(out)["samples"] == 3


def test_determinism_byte_identical(capsys):
    args = ["p-eval", "--f", "1+x1^2+a*x2^2+x3", "--param", "a=2",
            "--point", "0,0,0", "--degree", "2"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


SUBCOMMANDS = tuple(FLAGS)
FRAGMENTS = (
    [["--f", v] for v in ("1+x3", "1+x1^2+a*x2^2+x3", "1+sin(x1)+x3", "1+", "x1/0",
                          "log(x1)+x3", "exp(1000)+x3", "1+x1^2+x2^2+x3^2")]
    + [["--point", v] for v in ("0,0,0", "0.1,0.2,0", "1/2,0,1", "1,2", "nan,0,0", "a,b,c")]
    + [["--param", v] for v in ("a=2", "a=-1/3", "a", "a=1/0", "a=inf", "=1")]
    + [["--a", v] for v in ("1", "0", "1/2", "x", "-inf", "1e400")]
    + [["--b", v] for v in ("1", "-2", "nan")]
    + [["--degree", v] for v in ("0", "2", "4", "-1", "99", "x")]
    + [["--t-order", v] for v in ("-1", "0", "1", "4", "6", "8")]
    + [["--xi-order", v] for v in ("-1", "0", "1", "3", "6", "8")]
    + [["--samples", v] for v in ("-1", "0", "1", "5")]
    + [["--grid", v] for v in ("5x5", "7x9", "3x3", "0x0", "5", "x5", "5x5x5", "-5x5", "")]
    + [["--indices", v] for v in ("2,3,4,5", "2,3,4,6", "1,2,3,4", "5,4,3,2", "2,3,x,6")]
    + [["--mode", v] for v in ("rational", "double", "exact")]
    + [["--frame", v] for v in ("graph", "rotated", "auto")]
    + [["--tmax", v] for v in ("0.01", "0.013", "-1")]
    + [["--dt", v] for v in ("0.005", "0")]
    + [["--spacing", v] for v in ("0.01", "0", "1")]
    + [["--init", v] for v in ("psi:x1+x2", "psi:x1*", "affine-exact", "bogus")]
    + [["--seed", v] for v in ("0", "-3", "x")]
    + [["--config", "/nonexistent/beltrami.cfg"], ["--out", "/nonexistent/dir/report.json"]]
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    # half the time only the flags the subcommand knows, so that most runs get
    # past the argument parser
    known = build_parser()._subparsers._group_actions[0].choices[command]._option_string_actions
    pool = draw(st.sampled_from([FRAGMENTS, [f for f in FRAGMENTS if f[0] in known]]))
    return [command] + [token for f in draw(st.lists(st.sampled_from(pool), max_size=6))
                        for token in f]


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_cli_contract_holds_for_any_argv(argv):
    # exit 0 with a report, 1 with one JSON error object on stderr, or 2 for a
    # usage error; never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().count("\n") == 1, argv
        assert set(json.loads(err.getvalue())) == {"error", "message"}, argv
