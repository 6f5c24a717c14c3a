from collections import Counter
from fractions import Fraction
import math

import numpy as np
import pytest

from beltrami import chart
from beltrami import expr as ex
from beltrami.chart import (
    CHART_VARS,
    XI_VARS,
    _check_residual,
    _minimal_rotation,
    base_point,
    build_chart,
)
from beltrami.errors import CriticalPointError, DomainError, FrameError
from beltrami.series import CONSTANT_CHECK_PAIRS, RATIONAL, TruncatedSeries, _Space


def chart_residuals(ch):
    """Max coefficients of the defining identities of a chart."""
    order = (ch.t_order, ch.xi_order)  # the metric's order pair
    dxt = [s.derive("t").truncate(order) for s in ch.x]
    cross = []
    for var in ("xi1", "xi2"):
        dxi = [s.derive(var).truncate(order) for s in ch.x]
        cross.append(sum((dxt[k] * dxi[k] for k in range(3)),
                         TruncatedSeries.zeros(CHART_VARS, order, kind=ch.bp.kind)))
    gg = [
        ch.g11 * ch.ginv11 + ch.g12 * ch.ginv12 - 1,
        ch.g11 * ch.ginv12 + ch.g12 * ch.ginv22,
        ch.g12 * ch.ginv11 + ch.g22 * ch.ginv12,
        ch.g12 * ch.ginv12 + ch.g22 * ch.ginv22 - 1,
    ]
    return {
        "flow": ch.flow_residual,
        "cross": max(c.max_abs() for c in cross),
        "metric_inverse": max(float(g.max_abs()) for g in gg),
    }


def test_base_point_flat():
    bp = base_point(ex.parse("1+x3"), None, (0, 0, 0), frame="rotated")
    assert bp.level == 1.0
    assert np.allclose(bp.rotation, np.eye(3))


def test_base_point_axis_swap():
    bp = base_point(ex.parse("1+x1"), None, (0, 0, 0), frame="rotated")
    R = np.array(bp.rotation)
    assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 0, 1.0], atol=1e-12)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_base_point_critical():
    with pytest.raises(CriticalPointError):
        base_point(ex.parse("1+x1^2+x2^2+x3^2"), None, (0, 0, 0))
    with pytest.raises(CriticalPointError):
        base_point(ex.parse("2"), None, (0.3, 0.1, 0.2))  # constants have no chart


def test_base_point_antiparallel_gradient():
    bp = base_point(ex.parse("1-x3"), None, (0, 0, 0), frame="rotated")
    R = np.array(bp.rotation)
    assert np.allclose(R @ np.array([0, 0, -1.0]), [0, 0, 1.0])
    assert np.allclose(np.linalg.det(R), 1.0)


@pytest.mark.parametrize("g", [(1.0, 0.0, 0.0), (0.0, 0.0, -2.0), (0.3, -0.4, 0.5),
                               (2.0, 3e200, 1.0), (1e-200, -2e-200, 3e-200)])
def test_minimal_rotation_takes_the_direction_to_e3(g):
    R = _minimal_rotation(g)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    u = np.array(g) / np.max(np.abs(g))  # same direction, no overflow
    assert np.allclose(R @ u, [0.0, 0.0, np.linalg.norm(u)], atol=1e-12)


def test_every_entry_point_defaults_to_auto():
    # the rational rotated frame does not exist here; auto builds the graph one
    assert build_chart(ex.parse("1+x1+x3"), None, (0, 0, 0), t_order=2, xi_order=2,
                       mode="rational").bp.frame == "graph"
    assert base_point(ex.parse("1+x1+x3"), None, (0, 0, 0)).frame == "graph"


def test_graph_frame_gate():
    with pytest.raises(FrameError):
        base_point(ex.parse("1+x1"), None, (0, 0, 0), frame="graph")
    bp = base_point(ex.parse("1+x1"), None, (0, 0, 0), frame="auto")
    assert bp.frame == "rotated"


def test_graph_solve_cubic_family():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    bindings = {"a": Fraction(2), "b": Fraction(-3)}
    h = build_chart(f, bindings, (0, 0, 0), t_order=3, xi_order=3, frame="graph",
                    mode="rational").h
    assert h.coeff((1, 0)) == Fraction(-2)
    assert h.coeff((3, 0)) == Fraction(3)
    assert sum(1 for _, c in h.nonzero_terms()) == 2


def test_graph_solve_quadratic_family():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    h = build_chart(f, {"a": Fraction(5)}, (0, 0, 0), t_order=3, xi_order=3,
                    frame="graph", mode="rational").h
    assert h.coeff((2, 0)) == Fraction(-1)
    assert h.coeff((0, 2)) == Fraction(-5)
    assert sum(1 for _, c in h.nonzero_terms()) == 2


def test_graph_solve_flat():
    f = ex.parse("1+x3")
    h = build_chart(f, None, (0, 0, 0), t_order=2, xi_order=3, frame="rotated").h
    assert h.max_abs() == 0.0


_QUARTIC = "1+x3-x2*x3-x1^2*x2^2+2*x1^4-2*x3^3+2*x3^2"


@pytest.mark.parametrize("f, bindings, p, mode, composes", [
    ("1+x3", None, (0, 0, 0), "double", 1),
    ("1+a*x1+b*x1^3+x3", {"a": Fraction(2), "b": Fraction(-3)}, (0, 0, 0), "rational", 2),
    (_QUARTIC, None, (0.1, 0.2, 0.05), "double", 4),
    (_QUARTIC, None, (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)), "rational", 4),
])
def test_graph_solve_composes(monkeypatch, f, bindings, p, mode, composes):
    # h is solved at xi-order 7: Newton from h = 0 takes 3 steps, then one
    # compose checks the last, unless a residual is exactly zero first; the
    # flat f has one at h = 0, the cubic member after one step
    solve, compose, calls = chart._graph_solve_from_jet, ex.compose, []

    def counting(*args):
        calls[-1] += 1
        return compose(*args)

    def flagged(*args):
        calls.append(0)
        monkeypatch.setattr(ex, "compose", counting)
        try:
            return solve(*args)
        finally:
            monkeypatch.setattr(ex, "compose", compose)

    monkeypatch.setattr(chart, "_graph_solve_from_jet", flagged)
    build_chart(ex.parse(f), bindings, p, 6, 6, mode=mode)
    assert calls == [composes]


def test_flow_flat():
    f = ex.parse("1+x3")
    x = build_chart(f, None, (0, 0, 0), t_order=3, xi_order=3, frame="rotated").x
    assert x[0].equals(TruncatedSeries.variable(CHART_VARS, (4, 4), "xi1"))
    assert x[1].equals(TruncatedSeries.variable(CHART_VARS, (4, 4), "xi2"))
    assert x[2].equals(TruncatedSeries.variable(CHART_VARS, (4, 4), "t"))


def test_flow_affine_closed_form():
    # dx/dt has the constant value e/|e|^2 with e = (a, 0, 1); starting from
    # (xi, -a xi1) this integrates to an affine map
    a = Fraction(3)
    f = ex.parse("1+a*x1+x3")
    x = build_chart(f, {"a": a}, (0, 0, 0), t_order=3, xi_order=3, frame="graph",
                    mode="rational").x
    scale = Fraction(1, 10)  # 1/(1+a^2)
    assert x[0].coeff((1, 0, 0)) == a * scale
    assert x[0].coeff((0, 1, 0)) == 1
    assert x[1].equals(TruncatedSeries.variable(CHART_VARS, (4, 4), "xi2", kind=RATIONAL))
    assert x[2].coeff((1, 0, 0)) == scale
    assert x[2].coeff((0, 1, 0)) == -a
    for s in x:
        assert sum(1 for _ in s.nonzero_terms()) <= 2


def test_initial_slice_exact():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    ch = build_chart(f, {"a": 2.0}, (0, 0, 0), t_order=3, xi_order=3, frame="rotated")
    slice0 = [s.slice_at_zero("t") for s in ch.x]
    assert slice0[0].equals(TruncatedSeries.variable(("xi1", "xi2"), 4, "xi1"))
    assert slice0[1].equals(TruncatedSeries.variable(("xi1", "xi2"), 4, "xi2"))
    assert slice0[2].equals(ch.h)


def test_metric_flat():
    ch = build_chart(ex.parse("1+x3"), None, (0, 0, 0), t_order=3, xi_order=3,
                     frame="rotated")
    one = TruncatedSeries.constant(CHART_VARS, ch.chi2.order, 1.0)
    for s in (ch.chi2, ch.g11, ch.g22, ch.detg, ch.chi_sqrt_detg):
        assert s.equals(one)
    assert ch.g12.max_abs() == 0.0


def test_metric_affine_constant_chi():
    for a in (0.5, 2.0):
        ch = build_chart(ex.parse("1+a*x1+x3"), {"a": a}, (0, 0, 0),
                         t_order=3, xi_order=3, frame="graph")
        assert abs(ch.chi2.constant_term() - 1.0 / (1.0 + a * a)) < 1e-14
        nonconst = ch.chi2.coeffs[1:]
        assert np.max(np.abs(nonconst)) == 0.0


def test_rotated_frame_normalizations():
    # in the rotated frame h has a critical point at 0 and g(0) = identity
    f = ex.parse("1+2*x1+x2+x1^2*x2+x3")
    ch = build_chart(f, None, (0.1, -0.2, 0.05), t_order=3, xi_order=3, frame="rotated")
    assert abs(ch.h.coeff((0, 0))) < 1e-12
    assert abs(ch.h.coeff((1, 0))) < 1e-10
    assert abs(ch.h.coeff((0, 1))) < 1e-10
    assert abs(ch.g11.constant_term() - 1.0) < 1e-12
    assert abs(ch.g22.constant_term() - 1.0) < 1e-12
    assert abs(ch.g12.constant_term()) < 1e-12
    assert abs(ch.detg.constant_term() - 1.0) < 1e-12


def test_chart_identities_random_polynomials():
    rng = np.random.default_rng(11)
    for trial in range(4):
        coeffs = rng.integers(-2, 3, size=6)
        text = (
            f"1 + x3 + ({coeffs[0]})*x1 + ({coeffs[1]})*x2 + ({coeffs[2]})*x1^2"
            f" + ({coeffs[3]})*x1*x2 + ({coeffs[4]})*x2^2 + ({coeffs[5]})*x1^3"
        )
        f = ex.parse(text)
        for frame in ("graph", "rotated"):
            ch = build_chart(f, None, (0, 0, 0), t_order=4, xi_order=4, frame=frame)
            res = chart_residuals(ch)
            assert res["flow"] < 1e-9, (text, frame, res)
            assert res["cross"] < 1e-9, (text, frame, res)
            assert res["metric_inverse"] < 1e-9, (text, frame, res)
            unit = ch.detg * ch.detg.reciprocal() - 1.0
            assert unit.max_abs() < 1e-9, (text, frame)


def test_chart_identities_exact():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    ch = build_chart(f, {"a": Fraction(2)}, (0, 0, 0), t_order=4, xi_order=4,
                     frame="graph", mode="rational")
    res = chart_residuals(ch)
    assert res["flow"] == 0
    assert res["cross"] == 0
    assert res["metric_inverse"] == 0
    # volume factor squared equals chi^2 * det g, exactly
    lhs = ch.chi_sqrt_detg * ch.chi_sqrt_detg
    rhs = ch.chi2 * ch.detg
    assert lhs.equals(rhs)


def test_nonunit_level_value():
    # f(p) != 1: the flow still increments the level linearly
    f = ex.parse("3+x1+x3^2")
    ch = build_chart(f, None, (0.0, 0.0, 1.0), t_order=4, xi_order=4, frame="rotated")
    assert abs(ch.level - 4.0) < 1e-14
    assert ch.flow_residual < 1e-9


def test_rational_chart_holds_its_flow_exactly(monkeypatch):
    # in rational mode f(x(t, xi)) = c0 + t holds exactly, so a flow off by
    # t^3/1000 is an error and not a flow_residual of 0.001
    flow = chart._flow_from_jet

    def off_by_t3(*args):
        x = flow(*args)
        t = TruncatedSeries.variable(CHART_VARS, x[2].order, "t", kind=RATIONAL)
        return (x[0], x[1], x[2] + t * t * t * Fraction(1, 1000))

    monkeypatch.setattr(chart, "_flow_from_jet", off_by_t3)
    with pytest.raises(DomainError, match="flow"):
        build_chart(ex.parse("1+x1^2+x3"), None, (0, 0, 0), t_order=3, xi_order=3,
                    frame="graph", mode="rational")


def _flow_call(monkeypatch, text, bindings, point, frame, mode, orders=(6, 6)):
    """The arguments and the result of the flow inside one build_chart."""
    flow, calls = chart._flow_from_jet, []

    def spy(*args):
        calls.append((args, flow(*args)))
        return calls[-1][1]

    monkeypatch.setattr(chart, "_flow_from_jet", spy)
    build_chart(ex.parse(text), bindings, point, *orders, frame=frame, mode=mode)
    return calls[0]


def _full_order_picard(grad, bindings, bp, x0):
    """Plain Picard at x0's full order (T, X): T sweeps fix t-degrees 1..T."""
    x = x0
    for _ in range(x0[0].order[0]):
        g = ex.compose(grad, bindings, chart._world(bp, x))
        w = [chart._combine(bp.rotation[i], g) for i in range(3)]
        inv = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).reciprocal()
        x = tuple(x0[i] + (w[i] * inv).integrate("t") for i in range(3))
    return x


@pytest.mark.parametrize("text, bindings, point, frame, mode", [
    ("1+a*x1+b*x1^3+x3", {"a": Fraction(3, 2), "b": Fraction(-2)}, (0, 0, 0), "graph",
     "rational"),
    ("1+x1^2+a*x2^2+x3", {"a": Fraction(2)}, (0, 0, 0), "graph", "rational"),
    ("x1^2+x2^2+x3^2", None, (Fraction(1, 3), Fraction(1, 5), Fraction(3, 4)), "graph",
     "rational"),
    ("1+sin(x1)+exp(x2)*x3+x3", None, (0.1, 0.2, 0.0), "rotated", "double"),
    # x3 = t - t^3 + 3 t^5 - ...: each even t-degree adds nothing, and the
    # full-order sweep that follows must find x not yet fixed
    ("1+x3+x3^3", None, (0, 0, 0), "graph", "rational"),
])
def test_graded_flow_equals_full_order_picard(monkeypatch, text, bindings, point, frame, mode):
    # the fixed point is unique: graded sweeps and a warm-started inverse
    # reach the same series as full-order sweeps, exactly in rational mode
    args, x = _flow_call(monkeypatch, text, bindings, point, frame, mode)
    ref = _full_order_picard(*args)
    for a, b in zip(x, ref, strict=True):
        assert a.order == b.order == (7, 7)
        if mode == "rational":
            assert a.equals(b)
        else:
            assert np.max(np.abs(a.num - b.num)) <= 1e-12 * b.max_abs()


def _count_flow_products(monkeypatch):
    """A Counter of the orders of the series products made inside the flow,
    and under "pairs" the entries of the pair tables they fetched; a product
    with a constant factor is a scaling and fetches none."""
    flow, mul, orders, inside = chart._flow_from_jet, TruncatedSeries.__mul__, Counter(), []
    pairs = _Space.pairs

    def counting(a, b):
        if inside and isinstance(b, TruncatedSeries):
            orders[a.order] += 1
        return mul(a, b)

    def fetching(space):
        if inside:
            orders["pairs"] += space.npairs
        return pairs(space)

    def flagged(*args):
        inside.append(True)
        try:
            return flow(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    monkeypatch.setattr(_Space, "pairs", fetching)
    monkeypatch.setattr(chart, "_flow_from_jet", flagged)
    return orders


def test_rational_quadratic_flow_budget(monkeypatch):
    # full-order sweeps made 112 products over 1,330,560 pair entries here,
    # summed over every product (223,080 for these sweeps, summed the same way)
    orders = _count_flow_products(monkeypatch)
    build_chart(ex.parse("1+x1^2+a*x2^2+x3"), {"a": Fraction(2)}, (0, 0, 0), 6, 6,
                frame="graph", mode="rational")
    assert sum(v for k, v in orders.items() if k != "pairs") == 60
    assert orders["pairs"] == 166_650


def test_odd_flow_stops_checking_after_a_failed_check(monkeypatch):
    # x3 = t - t^3 + ...: the sweep to t-degree 2 adds nothing, the full-order
    # check at (7, 7) fails, and t-degrees 4 and 6, which add nothing either,
    # are not checked again: one (7, 7) sweep, not three
    orders = _count_flow_products(monkeypatch)
    build_chart(ex.parse("1+x3+x3^3"), None, (0, 0, 0), 6, 6, frame="graph", mode="rational")
    assert orders[7, 7] == 11
    assert sum(v for k, v in orders.items() if k != "pairs") == 69
    assert orders["pairs"] == 172_260


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_affine_flow_runs_one_full_order_sweep(monkeypatch, mode):
    # x = x0 + t w / |w|^2: sweeps at (0, 7) and (1, 7) find no t^2 term, and
    # one sweep at the full order (7, 7) confirms the fixed point
    orders = _count_flow_products(monkeypatch)
    ch = build_chart(ex.parse("1+x1+2*x2+x3"), None, (0, 0, 0), 6, 6, frame="graph", mode=mode)
    del orders["pairs"]
    assert set(orders) == {(0, 7), (1, 7), (7, 7)}
    # |w|^2: three products, two Newton steps from t-degree 1 to 7, w / |w|^2: three
    assert orders[7, 7] == 3 + 2 * 2 + 3
    t = ch.x[2].coeff((1, 0, 0))
    assert t == (Fraction(1, 6) if mode == "rational" else 1 / 6)


@pytest.mark.parametrize("f, mode, products, tables", [
    ("1+x3", "rational", 64, 0), ("1+x3", "double", 64, 20),
    ("1+x3+x3^2", "rational", 97, 25), ("1+x3+x3^2", "double", 97, 48),
])
def test_constant_factors_skip_the_pair_table(monkeypatch, f, mode, products, tables):
    # f = g(x3) makes mostly constant series (grad f = (0, 0, g'), ...); every
    # product fetched the pair table before a constant factor became a
    # scaling.  Double mode looks for one only above CONSTANT_CHECK_PAIRS pairs,
    # and every product of 1 + x3 it still takes to the table is below that
    mul, pairs, made, fetched = TruncatedSeries.__mul__, _Space.pairs, [], []

    def counting_mul(a, b):
        if isinstance(b, TruncatedSeries):
            made.append(b)
        return mul(a, b)

    def counting_pairs(space):
        fetched.append(space.npairs)
        return pairs(space)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    monkeypatch.setattr(_Space, "pairs", counting_pairs)
    build_chart(ex.parse(f), None, (0, 0, 0), 6, 6, mode=mode)
    assert (len(made), len(fetched)) == (products, tables)
    if f == "1+x3":
        assert max(fetched, default=0) <= CONSTANT_CHECK_PAIRS


def _linear_substitution(f, M):
    """f(M x) as an expression tree."""
    nodes = []
    for i in range(3):
        node = ex.Num(Fraction(0))
        for j in range(3):
            if M[i][j] != 0:
                node = ex.Add(node, ex.Mul(ex.Num(float(M[i][j])), ex.Var(j)))
        nodes.append(node)

    def sub(n):
        if isinstance(n, ex.Var):
            return nodes[n.index]
        if isinstance(n, (ex.Num, ex.Param)):
            return n
        if isinstance(n, ex.Neg):
            return ex.Neg(sub(n.arg))
        if isinstance(n, ex.Func):
            return ex.Func(n.name, sub(n.arg))
        if isinstance(n, ex.Pow):
            return ex.Pow(sub(n.base), n.exp)
        return type(n)(sub(n.lhs), sub(n.rhs))

    return sub(f)


def test_chart_covariance_under_base_rotation():
    # building the chart for f(R^T y) at R p reproduces the same series
    f = ex.parse("1 + 2*x1 + x2 + x1^2 - x2*x3 + x3")
    p = (0.05, -0.1, 0.0)
    ch = build_chart(f, None, p, t_order=3, xi_order=3, frame="rotated")
    R = np.array(ch.bp.rotation)
    f2 = _linear_substitution(f, R.T)  # f2(y) = f(R^T y)
    p2 = tuple(R @ np.array(p))
    ch2 = build_chart(f2, None, p2, t_order=3, xi_order=3, frame="rotated")
    for name in ("h", "chi2", "g11", "g12", "g22", "detg", "chi_sqrt_detg"):
        a, b = getattr(ch, name), getattr(ch2, name)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10, name
    for i in range(3):
        assert np.max(np.abs(ch.x[i].coeffs - ch2.x[i].coeffs)) < 1e-10


def test_chart_json_dump():
    ch = build_chart(ex.parse("1+x1^2+x3"), None, (0, 0, 0), t_order=3, xi_order=3,
                     frame="rotated")
    data = ch.to_json()
    assert data["orders"] == {"t": 3, "xi": 3}
    assert data["chi2"]["order"] == [3, 3]
    assert data["x"][0]["order"] == [4, 4]
    assert data["h"]["order"] == 4
    assert data["frame"] in ("graph", "rotated")
    assert "coeffs" in data["h"]


@pytest.mark.parametrize("frame", ["auto", "graph", "rotated"])
def test_a_nan_gradient_decides_no_frame(frame):
    # inf - inf leaves NaN in d3 f; no frame exists or is refused on a NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError) as err:
        base_point(ex.parse("x1+(1e200*1e200-1e200*1e200)*x3"), None, (0, 0, 0), frame=frame)
    assert str(err.value) == "grad f is not a number at (0.0, 0.0, 0.0)"


def test_the_residual_bound_is_included():
    # scale max(1, |level|, max |solution|) = 1: a residual of 1e-9 passes,
    # one a double above it does not
    zero = TruncatedSeries.zeros(XI_VARS, 2)
    at = TruncatedSeries.constant(XI_VARS, 2, 1e-9)
    assert _check_residual(at, zero, 0.0, "solve") == 1e-9
    beyond = TruncatedSeries.constant(XI_VARS, 2, math.nextafter(1e-9, 1.0))
    with pytest.raises(DomainError, match="solve: residual 1.000e-09"):
        _check_residual(beyond, zero, 0.0, "solve")


def test_a_nan_residual_fails_closed():
    # 1e200 * x1^2 squared in the flow overflows, and inf - inf leaves NaN in
    # the flow residual; a NaN is no evidence the residual is small
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError) as err:
        build_chart(ex.parse("1+x3+1e200*x1^2"), None, (0, 0, 0), 4, 4, frame="graph")
    assert str(err.value) == ("flow series inconsistent: f(x) != c0 + t: residual nan "
                              "(coefficient scale 1.000e+00)")
