"""Cartesian and Riemannian vector calculus on expression fields.

Residual checks for curl u = f u, the explicit solution for affine factors,
the second-order elliptic identity, curl with respect to an arbitrary metric,
and the pullback of a field to the adapted chart coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import expr as ex
from .chart import ChartData
from .errors import DomainError
from .expr import Add, Div, Func, Mul, Num, Pow, Var, VectorExpr


def _component_jets(u: VectorExpr, bindings, p, order, mode="double"):
    return [ex.jet(c, bindings, p, order, mode=mode) for c in u.components]


def gradient(f, bindings, p):
    j = ex.jet(f, bindings, p, 1)
    return np.array([j.coeff((1, 0, 0)), j.coeff((0, 1, 0)), j.coeff((0, 0, 1))])


def curl_div(u: VectorExpr, bindings, p, mode="double"):
    """(curl u, div u) at a point from first-order jets of the components."""
    jets = _component_jets(u, bindings, p, 1, mode=mode)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    d = [[jets[i].coeff(e[j]) for j in range(3)] for i in range(3)]  # d[i][j] = dj u_i
    curl = np.array(
        [d[2][1] - d[1][2], d[0][2] - d[2][0], d[1][0] - d[0][1]], dtype=jets[0].kind.dtype)
    div = d[0][0] + d[1][1] + d[2][2]
    return curl, div


def beltrami_residual(u: VectorExpr, f, bindings, p) -> float:
    """|curl u - f u| + |div u| at p, relative when the field is large."""
    curl, div = curl_div(u, bindings, p)
    fu = ex.evaluate(f, bindings, p) * np.array(
        [ex.evaluate(c, bindings, p) for c in u.components]
    )
    res = float(np.linalg.norm(curl - fu)) + abs(float(div))
    scale = max(1.0, float(np.linalg.norm(fu)))
    return res / scale


def affine_field(const, direction, u0) -> VectorExpr:
    """Explicit solution for an affine factor f = const + direction . x.

    ``u0`` must be orthogonal to ``direction``; the field rotates u0 in the
    plane orthogonal to the gradient with phase f^2 / (2 |direction|), which
    gives curl u = f u and div u = 0 identically.
    """
    e = np.asarray(direction, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    norm_e = float(np.linalg.norm(e))
    if norm_e == 0:
        raise DomainError("direction vector must be nonzero")
    if abs(float(np.dot(u0, e))) > 1e-12 * max(1.0, float(np.linalg.norm(u0))) * norm_e:
        raise DomainError(f"u0 = {tuple(u0)} is not orthogonal to {tuple(e)}")
    w = np.cross(u0, e) / norm_e
    body = Num(float(const))
    for i in range(3):
        if e[i] != 0:
            body = Add(body, Mul(Num(float(e[i])), Var(i)))
    phase = Div(Pow(body, 2), Num(2.0 * norm_e))
    comps = []
    for i in range(3):
        comps.append(
            Add(
                Mul(Num(float(u0[i])), Func("cos", phase)),
                Mul(Num(float(w[i])), Func("sin", phase)),
            )
        )
    return VectorExpr(tuple(comps))


def orthogonal_unit(direction) -> tuple:
    """A unit vector orthogonal to a nonzero ``direction``, as ``affine_field``
    takes for ``u0``: direction x e2 normalised, or direction x e1 when the
    direction is (nearly) parallel to e2."""
    e = np.asarray(direction, dtype=np.float64)
    u0 = np.cross(e, [0.0, 1.0, 0.0])
    if np.linalg.norm(u0) < 1e-8:
        u0 = np.cross(e, [1.0, 0.0, 0.0])
    norm = np.linalg.norm(u0)
    if norm == 0:
        raise DomainError("direction vector must be nonzero")
    return tuple(u0 / norm)


def affine_solution(a: float, u0, p):
    """Value at p of the explicit solution for f = 1 + a*x1 + x3."""
    field = affine_field(1.0, (float(a), 0.0, 1.0), u0)
    return np.array([ex.evaluate(c, None, p) for c in field.components])


def elliptic_residual(u: VectorExpr, f, bindings, p) -> float:
    """|Lap u + grad f x u + f^2 u| at p (relative for large fields)."""
    jets = _component_jets(u, bindings, p, 2)
    lap = np.array(
        [
            2.0 * (j.coeff((2, 0, 0)) + j.coeff((0, 2, 0)) + j.coeff((0, 0, 2)))
            for j in jets
        ]
    )
    gf = gradient(f, bindings, p)
    uval = np.array([float(j.constant_term()) for j in jets])
    fval = ex.evaluate(f, bindings, p)
    res = lap + np.cross(gf.astype(np.float64), uval) + fval * fval * uval
    scale = max(1.0, float(np.linalg.norm(uval)) * max(1.0, fval * fval))
    return float(np.linalg.norm(res)) / scale


def conformal_metric(f) -> tuple:
    """The metric f^2 * (Euclidean) as a 3x3 grid of expressions."""
    zero = Num(Fraction(0))
    fsq = Pow(f, 2)
    return tuple(
        tuple(fsq if i == j else zero for j in range(3)) for i in range(3)
    )


def riemannian_curl(metric, v: VectorExpr, bindings, p):
    """curl of v for an arbitrary metric, via d(v-flat) = (curl v) contracted
    into the metric volume form.

    Needs first-order jets of the metric entries and of v; the metric must be
    symmetric positive definite at p.
    """
    gj = [[ex.jet(metric[i][j], bindings, p, 1) for j in range(3)] for i in range(3)]
    g0 = np.array([[float(gj[i][j].constant_term()) for j in range(3)] for i in range(3)])
    if not np.allclose(g0, g0.T, atol=1e-12):
        raise DomainError("metric is not symmetric at the point")
    eig = np.linalg.eigvalsh(g0)
    if eig.min() <= 0:
        raise DomainError(f"metric is not positive definite at the point (eigs {eig})")
    vj = _component_jets(v, bindings, p, 1)
    # alpha_i = g_ij v^j as order-1 jets
    alpha = []
    for i in range(3):
        s = gj[i][0] * vj[0] + gj[i][1] * vj[1] + gj[i][2] * vj[2]
        alpha.append(s)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    d = [[float(alpha[j].coeff(e[i])) for j in range(3)] for i in range(3)]  # d[i][j] = di alpha_j
    sqrt_det = math.sqrt(float(np.linalg.det(g0)))
    return (
        np.array(
            [d[1][2] - d[2][1], d[2][0] - d[0][2], d[0][1] - d[1][0]],
            dtype=np.float64,
        )
        / sqrt_det
    )


def chart_pullback(u: VectorExpr, x, bindings=None) -> tuple:
    """Components of the Euclidean dual form of u in the coordinates of the
    world map ``x`` (three series): u(x) . d_v x for each variable v of x, in
    x's order.  On ``chart.x_world()`` that is (beta_t, beta_1, beta_2); on
    its t = 0 slice, (beta_1, beta_2) on the level surface."""
    pulled = ex.compose(u.components, bindings, x)

    def dot_with(v):
        dx = [s.derive(v) for s in x]
        out = None
        for k in range(3):
            term = pulled[k].truncate(dx[k].order) * dx[k]
            out = term if out is None else out + term
        return out

    return tuple(dot_with(v) for v in x[0].vars)


def pullback_system_residuals(u: VectorExpr, chart: ChartData, T, bindings=None) -> dict:
    """Max coefficient residuals of the chart-coordinate system for a field:
    the two evolution rows, the closedness constraint, and the dt-component."""
    beta_t, beta1, beta2 = chart_pullback(u, chart.x_world(), bindings)
    order = T[0][0].order
    b1, b2 = beta1.truncate(order), beta2.truncate(order)
    row1 = beta1.derive("t").truncate(order) - (T[0][0] * b1 + T[0][1] * b2)
    row2 = beta2.derive("t").truncate(order) - (T[1][0] * b1 + T[1][1] * b2)
    closed = b2.derive("xi1") - b1.derive("xi2")
    return {
        "evolution_row1": row1.max_abs(),
        "evolution_row2": row2.max_abs(),
        "closedness": closed.max_abs(),
        "beta_t": beta_t.max_abs(),
    }
