import functools
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beltrami import expr as ex
from beltrami.errors import DomainError
from beltrami.fd_oracle import (
    P_point_fd,
    _first_stencil,
    _flow_batch,
    deriv_weights,
    numeric_flow,
)
from beltrami.reference import cubic_family_coeffs


def test_deriv_weights_polynomial_exactness():
    # k-th derivative weights are exact on polynomials of degree <= 2*radius
    w = deriv_weights(2, 3, 0.1)
    xs = np.arange(-3, 4) * 0.1
    for deg in range(7):
        got = np.sum(w * xs**deg)
        expect = 0.0 if deg != 2 else 2.0
        if deg == 2:
            assert got == pytest.approx(2.0, abs=1e-9)
        else:
            assert abs(got) < 1e-8 * max(1.0, np.max(np.abs(xs**deg)))


def test_numeric_flow_flat():
    out = numeric_flow(ex.parse("1+x3"), None, (0.3, -0.2, 0.1), 0.25)
    assert np.allclose(out, [0.3, -0.2, 0.35], atol=1e-12)


def test_numeric_flow_affine():
    a = 2.0
    out = numeric_flow(ex.parse("1+a*x1+x3"), {"a": a}, (0.0, 0.0, 0.0), 0.5)
    expect = 0.5 * np.array([a, 0.0, 1.0]) / (1.0 + a * a)
    assert np.allclose(out, expect, atol=1e-10)


def test_numeric_flow_level_increment():
    rng = np.random.default_rng(9)
    f = ex.parse("1 + x3 + x1^2 - x2^2 + x1*x2*x3")
    for _ in range(20):
        x0 = rng.uniform(-0.3, 0.3, 3)
        t = float(rng.uniform(-0.2, 0.2))
        out = numeric_flow(f, None, x0, t, dt=abs(t) / 1024 if t else 1e-3)
        lhs = ex.evaluate(f, None, out)
        rhs = ex.evaluate(f, None, x0) + t
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("t, dt", [
    (0.1, 0.0), (0.1, float("nan")), (0.1, -0.01), (0.1, float("inf")),
    (float("nan"), 0.01), (float("inf"), 0.01),
])
def test_numeric_flow_rejects_bad_steps_and_times(t, dt):
    # a zero, negative or non-finite step, or a non-finite time, is refused
    # before the flow starts: a negative or infinite dt would take one RK4 step
    with pytest.raises(DomainError) as err:
        numeric_flow(ex.parse("1+x3"), None, (0, 0, 0), t, dt=dt)
    assert str(err.value) == f"need a finite dt > 0 and a finite t, got dt = {dt}, t = {t}"


def test_numeric_flow_gradient_collapse():
    f = ex.parse("1+x3^2")
    with pytest.raises(DomainError):
        # the flow crosses the critical plane x3 = 0
        numeric_flow(f, None, (0.0, 0.0, 0.05), -0.25, dt=1e-3)


def test_marched_flow_records_affine_trajectory():
    # an affine f has a constant field w / |w|^2, on which RK4 is exact: every
    # record j of the march lies at x0 + (j / records) t w / |w|^2, forward and
    # backward, after ceil(0.05 / 0.02) = 3 steps per record
    w = np.array([2.0, -0.5, 1.0])
    f = ex.parse("1+2*x1-x2/2+x3")
    calls = []

    def F(pts):
        calls.append(1)
        return ex.evaluate(f, None, pts)

    x0 = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 3))
    starts, times = np.tile(x0, (2, 1)), np.repeat([0.3, -0.3], 4)
    records = 6
    out = _flow_batch(F, starts, times, 0.02, records=records)
    s = np.arange(1, records + 1)[:, None, None] / records
    expect = starts + s * times[:, None] * w / (w @ w)
    assert out.shape == (records, 8, 3)
    assert np.max(np.abs(out - expect)) < 1e-13
    assert len(calls) == 4 * 3 * records + 2


def test_marched_flow_gradient_collapse():
    F = functools.partial(ex.evaluate, ex.parse("1+x3^2"), None)
    with pytest.raises(DomainError):
        # the trajectory reaches the critical plane x3 = 0 before its last record
        _flow_batch(F, [(0.0, 0.0, 0.05)], [-0.25], 1e-3, records=5)


def test_P_point_fd_affine_zero():
    val = P_point_fd(ex.parse("1+a*x1+x3"), {"a": 1.0}, (0, 0, 0))
    assert abs(val) < 1e-6


def test_P_point_fd_cubic_family_value():
    val = P_point_fd(ex.parse("1+a*x1+b*x1^3+x3"), {"a": 1.0, "b": 1.0}, (0, 0, 0))
    ref = float(cubic_family_coeffs(1, 1)[0])
    assert abs(val - ref) / abs(ref) < 1e-3


def test_P_point_fd_quadratic_family_zero():
    val = P_point_fd(ex.parse("1+x1^2+a*x2^2+x3"), {"a": 0.0}, (0, 0, 0))
    assert abs(val) < 1e-6


def test_P_point_fd_both_frames_match_series():
    # off-battery function with a tilted gradient: exercises the rotation
    # plumbing of both pipelines
    from beltrami.obstruction import obstruction_P

    f = ex.parse("1 + x1 + x3 + x1^2 + x2^2")
    for frame in ("graph", "rotated"):
        series = obstruction_P(f, None, (0, 0, 0), degree=0, frame=frame).coeff((0, 0))
        fd = P_point_fd(f, None, (0, 0, 0), frame=frame)
        assert abs(fd - series) / abs(series) < 1e-3, frame


def test_P_point_fd_reads_trajectories_in_time_order():
    # the flow of this f is not symmetric in t: reading the backward records
    # at the forward t nodes misses the series value 11520 by a third
    f = ex.parse("1+x3+x1*x3+x2^2")
    fd = P_point_fd(f, None, (0, 0, 0))
    assert abs(fd - 11520) / 11520 < 1e-3


SMALL_RATIONALS = tuple(Fraction(v) for v in
                        ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2", "2/3", "-2/3"))


def test_P_point_fd_same_sign_cubic_pool():
    # every a*b > 0 member of 1 + a x1 + b x1^3 + x3 over the pool, in both
    # frames: 100 cases, the worst at 2.6e-5
    from beltrami.obstruction import obstruction_P

    f = ex.parse("1+a*x1+b*x1^3+x3")
    pairs = [(a, b) for a, b in product(SMALL_RATIONALS, repeat=2) if a * b > 0]
    assert len(pairs) == 50
    worst = 0.0
    for a, b in pairs:
        bindings = {"a": float(a), "b": float(b)}
        for frame in ("graph", "rotated"):
            series = obstruction_P(f, bindings, (0, 0, 0), degree=0, frame=frame).coeff((0, 0))
            fd = P_point_fd(f, bindings, (0, 0, 0), frame=frame)
            worst = max(worst, abs(fd - series) / abs(series))
    assert worst < 1e-4


@pytest.mark.parametrize("k, radius", [(k, r) for k in (1, 2, 3) for r in (1, 2, 3) if k <= 2 * r])
def test_deriv_weights_exact_symmetry(k, radius):
    w = deriv_weights(k, radius, 8e-3)
    if k % 2:
        assert np.array_equal(w, -w[::-1])
        assert w[radius] == 0.0
    else:
        assert np.array_equal(w, w[::-1])


def _count_evaluations(monkeypatch):
    """The number of rows of each ``expr.evaluate`` call, one entry per call."""
    rows = []
    evaluate = ex.evaluate

    def counting(f, bindings, pts):
        rows.append(np.asarray(pts).reshape(-1, 3).shape[0])
        return evaluate(f, bindings, pts)

    monkeypatch.setattr(ex, "evaluate", counting)
    return rows


def test_numeric_flow_evaluation_count(monkeypatch):
    # one batched gradient per RK4 stage, plus the two level-increment values
    calls = _count_evaluations(monkeypatch)
    steps = 8
    numeric_flow(ex.parse("1 + x3 + x1^2 - x2^2"), None, (0.1, 0.2, 0.0), 0.25, dt=0.25 / steps)
    assert len(calls) == 4 * steps + 2


@pytest.mark.parametrize("frame, count", [("graph", 136), ("rotated", 139)])
def test_P_point_fd_evaluation_count(monkeypatch, frame, count):
    # the flow marches 33 starts each way (66 rows) and checks the level
    # increment at all 8 x 66 records
    calls = _count_evaluations(monkeypatch)
    P_point_fd(ex.parse("1+a*x1+b*x1^3+x3"), {"a": 1.0, "b": 1.0}, (0, 0, 0), frame=frame)
    assert len(calls) == count
    assert sum(calls) == {"graph": 104_137, "rotated": 104_314}[frame]


def _nodes(tree):
    """The distinct nodes of an expression tree."""
    out, stack = {}, [tree]
    while stack:
        n = stack.pop()
        out[id(n)] = n
        stack += [getattr(n, name) for name in ("arg", "lhs", "rhs", "base") if hasattr(n, name)]
    return list(out.values())


def test_numeric_flow_compiles_each_tree_once(monkeypatch):
    # the first evaluation compiles one closure per node of the tree; the
    # other 4 * steps + 1 evaluations of the flow, and a second flow, reuse it
    compiled = []
    compile_ = ex._compile

    def counting(n):
        compiled.append(n)
        return compile_(n)

    monkeypatch.setattr(ex, "_compile", counting)
    calls = _count_evaluations(monkeypatch)
    f = ex.parse("1 + x3 + a*x1^3 - x2^2/(2 + x3)")
    steps = 8
    numeric_flow(f, {"a": 0.5}, (0.1, 0.2, 0.0), 0.25, dt=0.25 / steps)
    assert len(calls) == 4 * steps + 2
    assert sorted(map(id, compiled)) == sorted(map(id, _nodes(f)))
    numeric_flow(f, {"a": -0.5}, (0.1, 0.2, 0.0), -0.25, dt=0.25 / steps)
    assert len(calls) == 2 * (4 * steps + 2) and len(compiled) == len(_nodes(f))


@pytest.mark.parametrize("frame", ["graph", "rotated"])
def test_P_point_fd_builds_each_stencil_once(frame):
    # one first-derivative stencil along all three axes (the 32 RK4 steps,
    # the gradient, the rotation) and one along the vertical axis (the graph
    # Newton steps), each built once for the 131 (graph) or 133 (rotated)
    # stencil derivatives of the call
    _first_stencil.cache_clear()
    P_point_fd(ex.parse("1+a*x1+b*x1^3+x3"), {"a": 1.0, "b": 1.0}, (0, 0, 0), frame=frame)
    info = _first_stencil.cache_info()
    assert info.misses == info.currsize == 2
    assert info.hits == {"graph": 129, "rotated": 131}[frame]


@pytest.mark.parametrize("indices, series", [
    ((2, 3, 4, 6), -78.46875), ((2, 3, 5, 6), -856.828125), ((3, 4, 5, 6), -6075.0)])
def test_P_point_fd_other_hierarchy_members(indices, series):
    # the oracle is the one independent check of the members that
    # p-eval --indices reports; at a = b = 1 it misses the series (exact in
    # rational mode) by 3.1e-5, 1.4e-5 and 2.8e-5, held to cross-check's 1e-3
    from beltrami.obstruction import obstruction_P

    f = ex.parse("1+a*x1+b*x1^3+x3")
    bindings = {"a": 1.0, "b": 1.0}
    got = obstruction_P(f, bindings, (0, 0, 0), degree=0, frame="graph",
                        indices=indices).coeff((0, 0))
    assert got == pytest.approx(series, rel=1e-12)
    fd = P_point_fd(f, bindings, (0, 0, 0), frame="graph", indices=indices)
    assert abs(fd - got) / abs(got) < 1e-3
