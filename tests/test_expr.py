import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from beltrami import expr as ex
from beltrami.errors import DomainError, ParseError
from beltrami.series import TruncatedSeries


def test_parse_cubic_family():
    e = ex.parse("1 + a*x1 + b*x1^3 + x3")
    assert ex.evaluate(e, {"a": 2.0, "b": 1.0}, (1.0, 0.0, 0.5)) == pytest.approx(4.5)


def test_parse_zero_literal():
    e = ex.parse("0")
    assert isinstance(e, ex.Num) and e.value == 0


def test_pythagorean_identity():
    e = ex.parse("sin(x1)^2 + cos(x1)^2")
    for x in (-1.3, 0.0, 0.7, 2.9):
        assert abs(ex.evaluate(e, None, (x, 0, 0)) - 1.0) <= 1e-15


def test_eval_examples():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    assert ex.evaluate(f, {"a": 2}, (1, 1, 1)) == 5.0
    g = ex.parse("1+a*x1+x3")
    assert ex.evaluate(g, {"a": 0}, (0, 0, 0)) == 1.0
    assert ex.evaluate(ex.parse("exp(x3)"), None, (0, 0, math.log(2))) == pytest.approx(2.0)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("log(x1)"), None, (-1.0, 0, 0))
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("x1/x2"), None, (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("a*x1"), None, (1.0, 0.0, 0.0))  # unbound parameter


@pytest.mark.parametrize("text", ["2", "x1^0", "a*3"])
def test_evaluate_constant_tree_gives_one_value_per_row(text):
    pts = np.zeros((4, 3))
    got = ex.evaluate(ex.parse(text), {"a": 1 / 3}, pts)
    assert got.shape == (4,)
    assert np.all(got == ex.evaluate(ex.parse(text), {"a": 1 / 3}, pts[0]))
    assert ex.evaluate(ex.parse(text), {"a": 1 / 3}, np.zeros((0, 3))).shape == (0,)


def test_literal_beyond_the_double_range_is_a_domain_error():
    # an exact literal, a rational binding and an exact jet coefficient alike
    with pytest.raises(DomainError, match="beyond the double range"):
        ex.evaluate(ex.parse("1e400*x1"), None, np.zeros((2, 3)))
    with pytest.raises(DomainError, match="beyond the double range"):
        ex.evaluate(ex.parse("a*x1"), {"a": Fraction(10**400)}, (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="beyond the double range"):
        ex.jet(ex.parse("1e400*x1"), None, (0, 0, 0), 1)
    exact = ex.jet(ex.parse("1e400*x1"), None, (0, 0, 0), 1, mode="rational")
    assert exact.coeff((1, 0, 0)) == 10**400
    with pytest.raises(DomainError, match="beyond the double range"):
        exact.eval((0.0, 0.0, 0.0))


def test_evaluate_raises_in_tree_order():
    # a quotient checks its denominator before it evaluates its numerator;
    # otherwise operands go left to right
    cases = [("a/(x1-x1)", "division by zero"), ("x1/a", "unbound parameter 'a'"),
             ("b+a", "unbound parameter 'b'"), ("log(x1)+sqrt(x2)", "log of a non-positive"),
             ("sqrt(x2)*log(x1)", "sqrt of a negative")]
    for text, message in cases:
        for point in ((-1.0, -1.0, 0.0), np.full((3, 3), -1.0)):
            with pytest.raises(DomainError, match=message):
                ex.evaluate(ex.parse(text), None, point)


@pytest.mark.parametrize("text", ["x1^5-2*x2^4*x3+x3^7", "(x1-x2)^3*(1+x3)^4",
                                  "-(a*x1+x2)^6+3*x1^3*x2^2-x3^11"])
def test_evaluate_matches_the_jet_bit_for_bit(text):
    # both paths take ^ by repeated squaring, so a polynomial free of '/'
    # (which the jet takes as a product with the reciprocal) takes the same
    # double operations in the same order
    f, b = ex.parse(text), {"a": -0.75}
    points = np.random.default_rng(7).uniform(-1.0, 1.0, size=(200, 3))
    batch = ex.evaluate(f, b, points)
    for p, value in zip(points, batch):
        jet0 = float(ex.jet(f, b, tuple(p), 0).constant_term())
        assert ex.evaluate(f, b, p) == jet0 == value


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        ex.parse("1 + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        ex.parse("foo(x1)")  # unknown function
    with pytest.raises(ParseError):
        ex.parse("x1^x2")  # non-integer exponent
    for text in ("1/0", "x1/0", "x1/(0/1)", "sin(x1)/-0.0"):
        with pytest.raises(ParseError):
            ex.parse(text)  # a literal zero divisor, whatever the numerator


def test_rational_literals():
    e = ex.parse("1/2 + x1")
    assert ex.evaluate(e, None, (0.25, 0, 0)) == 0.75
    j = ex.jet(e, None, (0, 0, 0), 1, mode="rational")
    assert j.coeff((0, 0, 0)) == Fraction(1, 2)


def test_jet_monomial():
    j = ex.jet(ex.parse("x1*x3"), None, (0, 0, 0), 2)
    terms = dict(j.nonzero_terms())
    assert terms == {(1, 0, 1): 1.0}


def test_jet_cubic_family_at_zero():
    j = ex.jet(ex.parse("1+a*x1+b*x1^3+x3"), {"a": 2.5, "b": -0.5}, (0, 0, 0), 3)
    assert j.coeff((0, 0, 0)) == 1.0
    assert j.coeff((1, 0, 0)) == 2.5
    assert j.coeff((0, 1, 0)) == 0.0
    assert j.coeff((0, 0, 1)) == 1.0
    assert j.coeff((3, 0, 0)) == -0.5


def test_jet_exponential():
    j = ex.jet(ex.parse("exp(x1)"), None, (0, 0, 0), 4)
    expected = [1, 1, 0.5, 1 / 6, 1 / 24]
    got = [j.coeff((k, 0, 0)) for k in range(5)]
    assert np.allclose(got, expected)


def test_jet_sqrt_is_the_binomial_series():
    j = ex.jet(ex.parse("sqrt(4+x1)"), None, (0, 0, 0), 4)
    assert [j.coeff((k, 0, 0)) for k in range(5)] == [2, 1 / 4, -1 / 64, 1 / 512, -5 / 16384]
    for text in ("sqrt(x1)", "sqrt(x1-1)"):
        with pytest.raises(DomainError, match="strictly positive"):
            ex.jet(ex.parse(text), None, (0, 0, 0), 2)


def test_compose_takes_a_number_on_the_domain_of_evaluate():
    # a number argument is one point, so sqrt(0) is 0 as in evaluate; the
    # jet of a series argument needs sqrt's derivatives and refuses 0
    j = ex.jet(ex.parse("1+sqrt(a)*x1+x3"), {"a": 0.0}, (0, 0, 0), 2)
    assert dict(j.nonzero_terms()) == {(0, 0, 0): 1.0, (0, 0, 1): 1.0}
    assert ex.evaluate(ex.parse("sqrt(a)"), {"a": 0.0}, (0, 0, 0)) == 0.0
    for text, message in (("sqrt(a-1)*x1", "sqrt of a negative"),
                          ("log(a)*x1", "log of a non-positive")):
        for run in (lambda e: ex.jet(e, {"a": 0.0}, (0, 0, 0), 2),
                    lambda e: ex.evaluate(e, {"a": 0.0}, (0, 0, 0))):
            with pytest.raises(DomainError, match=message):
                run(ex.parse(text))


def test_jet_rational_rejects_transcendental():
    with pytest.raises(DomainError):
        ex.jet(ex.parse("sin(x1)"), None, (0, 0, 0), 2, mode="rational")


def test_jet_matches_central_differences():
    # degree-1 jet coefficients vs central differences, relative 1e-6 at step 1e-4
    rng = np.random.default_rng(3)
    f = ex.parse("exp(x1)*cos(x2) + x3^2*x1 + log(2+x1)")
    for _ in range(5):
        p = rng.uniform(-0.4, 0.4, 3)
        j = ex.jet(f, None, p, 1)
        h = 1e-4
        for axis in range(3):
            dp = np.zeros(3)
            dp[axis] = h
            fd = (ex.evaluate(f, None, p + dp) - ex.evaluate(f, None, p - dp)) / (2 * h)
            coeff = j.coeff(tuple(1 if q == axis else 0 for q in range(3)))
            assert abs(fd - coeff) <= 1e-6 * max(1.0, abs(coeff))


@st.composite
def ast(draw, depth=0):
    opts = ["num", "var", "param"]
    if depth < 3:
        opts += ["add", "sub", "mul", "div", "neg", "pow", "func"]
    kind = draw(st.sampled_from(opts))
    if kind == "num":
        return ex.Num(Fraction(draw(st.integers(0, 50)), draw(st.integers(1, 9))))
    if kind == "var":
        return ex.Var(draw(st.integers(0, 2)))
    if kind == "param":
        return ex.Param(draw(st.sampled_from(["a", "b", "lam"])))
    if kind == "neg":
        return ex.Neg(draw(ast(depth + 1)))
    if kind == "pow":
        return ex.Pow(draw(ast(depth + 1)), draw(st.integers(0, 4)))
    if kind == "func":
        return ex.Func(draw(st.sampled_from(ex.FUNCS)), draw(ast(depth + 1)))
    cls = {"add": ex.Add, "sub": ex.Sub, "mul": ex.Mul, "div": ex.Div}[kind]
    lhs, rhs = draw(ast(depth + 1)), draw(ast(depth + 1))
    if cls is ex.Div and ex.parse(ex.to_string(rhs)) == ex.Num(Fraction(0)):
        # a denominator that is or folds to a literal zero (0, -0, 0/3) is not parseable
        rhs = ex.Num(Fraction(1))
    return cls(lhs, rhs)


@settings(max_examples=120, deadline=None)
@given(ast())
def test_print_parse_round_trip(tree):
    # the property is over strings: parse(print(parse(s))) == parse(s)
    s = ex.to_string(tree)
    first = ex.parse(s)
    assert ex.parse(ex.to_string(first)) == first


BINDINGS = {"a": 0.7, "b": -1.3, "lam": 2.1}


def _partial_error(tree, point, i):
    """|d/dx_i tree - central difference| over the scale of the values, or
    None where the expression is undefined, not smooth, or large enough near
    the point (a pole, an overflow) that the difference says nothing."""
    axis = np.eye(3)[i]

    def at(h):
        return ex.evaluate(tree, BINDINGS, np.array(point) + h * axis)

    def central(h):
        return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)

    try:
        with np.errstate(all="ignore"):
            coarse, fine = central(2e-3), central(1e-3)
            d = ex.evaluate(ex.diff(tree, i), BINDINGS, point)
            values = [at(k * 1e-3) for k in (-4, -2, -1, 0, 1, 2, 4)]
    except DomainError:
        return None
    scale = max([1.0, abs(fine)] + [abs(v) for v in values])
    if not all(np.isfinite([d, coarse, fine] + values)) or max(map(abs, values)) > 1e6:
        return None
    if abs(coarse - fine) > 1e-6 * scale:
        return None  # the difference has not converged
    return abs(d - fine) / scale


@settings(max_examples=200, deadline=None)
@given(ast(), st.tuples(*[st.integers(-1500, 1500)] * 3), st.integers(0, 2))
def test_diff_matches_central_difference(tree, grid, i):
    # at points where the expression is defined and smooth, the symbolic
    # partial agrees with a fourth-order central difference.  The offset keeps
    # the points off the small rationals of the tree, where a subexpression
    # vanishes exactly and a kink or pole sits symmetric in the stencil.
    point = np.array(grid) / 1000 + (0.1234567, -0.2345678, 0.3456789)
    err = _partial_error(tree, point, i)
    assume(err is not None)
    assert err <= 1e-5


@pytest.mark.parametrize("text", [
    "sin(x1*x2)", "cos(x1^2 + x3)", "exp(x2 - x1*x3)", "log(2 + x1*x2)",
    "sqrt(2 + x1*x3)", "x1/(2 + x2*x3)", "-(x1^3*x2)", "x1*x2 - lam*x3",
    "(a*x1 + b*x2 + x3)^4", "a/(b + x3) + x1^0",
])
def test_diff_rules(text):
    # one expression per rule, so that every rule is met on every run
    for i in range(3):
        err = _partial_error(ex.parse(text), (0.3, -0.4, 0.5), i)
        assert err is not None and err <= 1e-5, (text, i, err)


def test_compose_keeps_constants_as_numbers(monkeypatch):
    # 2*a*x1 scales the series of x1 instead of multiplying constant series,
    # and x1^3 costs two products
    products = 0
    mul = TruncatedSeries.__mul__

    def counting(s, other):
        nonlocal products
        products += isinstance(other, TruncatedSeries)
        return mul(s, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    j = ex.jet(ex.parse("2*a*x1 + x1^3"), {"a": Fraction(3)}, (1, 0, 0), 3, mode="rational")
    assert products == 2
    assert [j.coeff((k, 0, 0)) for k in range(4)] == [7, 9, 3, 1]


@pytest.mark.parametrize("text", [
    "x1/(1/2)",     # a rational literal is two tokens on the right of / or *
    "x1*(1/2)",
    "x1*(a/b)",     # the parser is left-associative
    "x1+(a+b)",
    "-(x1^2)",      # -x1^2 is (-x1)^2 in this grammar
    "-(a*b)",
    "(1/2)^3",
])
def test_print_inverts_parse(text):
    tree = ex.parse(text)
    assert ex.parse(ex.to_string(tree)) == tree


def test_vector_expr_needs_three_components():
    with pytest.raises(ValueError):
        ex.parse_vector(["x1", "x2"])
    v = ex.parse_vector(["0-x2", "x1", "0"])
    assert len(v.components) == 3


def test_parse_shares_equal_subtrees():
    # equal subtrees are one node, within a text and across the components of
    # a vector, so identity-keyed walks visit each once
    c = "cos(-(x3+x3^2/2))"
    v = ex.parse_vector([f"{c}*(x1+x2)", f"sin(x1)*(x1+x2)-{c}", f"{c}"])
    a, b, third = v.components
    assert a.lhs is b.rhs is third
    assert a.rhs is b.lhs.rhs
    assert b.lhs.lhs.arg is a.rhs.lhs  # x1
    tree = ex.parse("(x1+2*x2)^2 - 3*(x1+2*x2) + 1.5 - 3/2")
    assert tree.lhs.lhs.lhs.base is tree.lhs.lhs.rhs.rhs
    assert tree.lhs.rhs is tree.rhs  # the literals 1.5 and 3/2 are one Fraction
    for e in (*v.components, tree):
        assert ex.parse(ex.to_string(e)) == e
    # separate calls share nothing
    assert ex.parse(c) == third and ex.parse(c) is not third


def test_is_affine():
    for text in ("1+a*x1+x3", "sin(a)*x1+x3", "2", "-x1/3+(x2-x3)*exp(a)", "(x1+x2)^1"):
        assert ex.is_affine(ex.parse(text)), text
    for text in ("1+a*x1+b*x1^3+x3", "1+x1^2+x3", "sin(x1)", "(x1+x2)^2*x3", "x1*x2",
                 "1/x1"):
        assert not ex.is_affine(ex.parse(text)), text


def test_walkers_leave_no_reference_cycles():
    # a cycle would keep the point batch or the series cache alive until
    # the cyclic collector runs
    f = ex.parse("1 + sin(x1)*x2/(2+x3^2) - a*exp(x3) + x1^3")
    b = {"a": 1.5}
    inner = [TruncatedSeries.variable(ex.VAR_NAMES, 3, v) + 0.1 for v in ex.VAR_NAMES]
    calls = {
        "evaluate batch": lambda: ex.evaluate(f, b, np.zeros((4, 3))),
        "evaluate point": lambda: ex.evaluate(f, b, (0.1, 0.2, 0.3)),
        "compose": lambda: ex.compose([f, ex.diff(f, 0)], b, inner),
        "jet": lambda: ex.jet(f, b, (0.1, 0.2, 0.3), 4),
        "jet rational": lambda: ex.jet(ex.parse("1+a*x1+x1^3+x3"), {"a": 2}, (0, 0, 0), 4,
                                       mode="rational"),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
