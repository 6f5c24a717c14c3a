"""Adapted coordinates (t, xi1, xi2) at a base point with nonvanishing gradient.

Construction: a level surface of f through the base point is written as a
graph x3 = h(xi) over the first two frame coordinates; the remaining
coordinate t flows along X = grad f / |grad f|^2, so that f = c0 + t along
the flow and the ambient metric splits into chi^2 dt^2 + g_ij dxi_i dxi_j
with no cross terms.

The graph function h is solved by series Newton from h = 0: step k leaves h
right through degree 2^k - 1, so xi-order n takes n.bit_length() steps,
fewer when a residual is exactly zero, and one more compose checks the last.

The flow is solved by graded Picard sweeps: sweep k fixes t-degree k and
composes at t-order k - 1 only, below the order of the whole flow.
1/|w|^2 is carried from sweep to sweep and refined by one Newton step, and a
sweep that adds nothing at its t-degree is followed by one full-order sweep
that checks for the fixed point (an affine f ends there).

Two frames are supported at the base point:

* ``rotated``  — the frame axes are rotated so the gradient points along the
  third axis; then h has a critical point at the origin and g(0) = identity.
* ``graph``    — the ambient axes are kept; valid whenever the third gradient
  component clears the floor.  This is the frame in which the benchmark
  coefficient families are quoted.

Every entry point defaults to ``auto``, which picks ``graph`` where it exists
and either |d3 f| >= 1e-2 |grad f| at the base point (``AUTO_GRAPH_RATIO``) or
``rotated`` does not exist, and ``rotated`` otherwise (:func:`base_point`).

f enters through its expression: the graph solve puts p + R^T (xi1, xi2, h)
into f and into the frame-x3 row of R grad f, and the flow puts p + R^T x
into R grad f, where grad f is taken symbolically once (``expr.diff``) and
every evaluation is ``expr.compose``.  No Taylor jet of f is formed.

The chart's coefficient kind is that of the jet of f at the base point
(``series.kind``).  Rational coefficients take f built from ``+ - * / ^``
with every divisor nonzero at the point, and a frame whose rotation is
trivial; the combination chi * sqrt(det g) is computed as the Jacobian
determinant of the flow map, which keeps the whole tensor pipeline
square-root free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import CriticalPointError, DomainError, FrameError
from .series import RATIONAL, TruncatedSeries, as_double

CHART_VARS = ("t", "xi1", "xi2")
XI_VARS = ("xi1", "xi2")
GRAD_FLOOR = 1e-8
AUTO_GRAPH_RATIO = 1e-2  # |d3 f| / |grad f| needed before "auto" picks the graph frame
_FRAME_NEEDS = {
    "graph": "graph frame needs the third gradient component above the floor",
    "rotated": "rational mode supports the rotated frame only when grad f "
               "is parallel to the third axis",
}


@dataclass(frozen=True)
class BasePoint:
    """Base point data: location, level value, frame rotation, coefficient kind.

    ``rotation`` maps world displacements into frame displacements
    (y = R (x - p)); its rows are the frame axes in world coordinates.
    """

    point: tuple
    level: object
    rotation: tuple
    frame: str
    kind: object  # series.DOUBLE or series.RATIONAL


def _minimal_rotation(direction):
    """Rotation matrix (rows = new axes) mapping `direction` to +e3; for an
    axis-aligned direction, eye(3) or diag(1, -1, -1) in exact ints."""
    r = np.asarray(direction, dtype=np.float64)
    # scaled by a power of two first, which is exact: the norm of a huge
    # vector would overflow to inf and turn the direction into 0
    r = np.ldexp(r, -np.frexp(np.max(np.abs(r)))[1])
    r = r / np.linalg.norm(r)
    c = r[2]
    if c > 1.0 - 1e-14:
        return np.eye(3, dtype=int)
    if c < -1.0 + 1e-14:
        return np.diag([1, -1, -1])
    v = np.cross(r, [0.0, 0.0, 1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def base_point(f, bindings, p, frame: str = "auto", mode: str = "double") -> BasePoint:
    """Validate the base point and fix the chart frame.

    The frames that exist at p are worked out once, by the kind's zero test
    (``negligible``): ``graph`` where d3 f is not negligible against the floor
    GRAD_FLOOR * max(1, |f(p)|), and ``rotated`` in double mode or where
    grad f is parallel to the third axis, as an exact rotation must be eye(3)
    or diag(1, -1, -1).  ``auto`` chooses between them (module docstring).
    Raises DomainError when a component of grad f is NaN, CriticalPointError
    when grad f is negligible against the floor, and FrameError, naming a
    remedy that works at p, when the frame asked for does not exist there.
    """
    j1 = ex.jet(f, bindings, p, 1, mode=mode)
    kind = j1.kind
    c0 = j1.constant_term()
    grad = (j1.coeff((1, 0, 0)), j1.coeff((0, 1, 0)), j1.coeff((0, 0, 1)))
    point = tuple(map(kind.coerce, p))
    # magnitudes are compared, never squared, so huge values cannot overflow;
    # the components keep the test exact where the norm's doubles underflow
    floor = GRAD_FLOOR * max(1.0, abs(as_double(c0)))
    dgrad = tuple(map(as_double, grad))
    gnorm = math.hypot(*dgrad)
    where = "(" + ", ".join(str(kind.json(c)) for c in point) + ")"
    if any(map(math.isnan, dgrad)):  # no frame is decided on a NaN
        raise DomainError(f"grad f is not a number at {where}")
    if all(kind.negligible(v, floor) for v in (gnorm, *grad)):
        raise CriticalPointError(f"grad f vanishes at {where}" if gnorm == 0 else
                                 f"|grad f| = {gnorm:.3e} below floor {floor:.3e} at {where}")

    exists = {"graph": not kind.negligible(grad[2], floor),
              "rotated": kind is not RATIONAL or grad[0] == grad[1] == 0}
    if frame == "auto":
        steep = not kind.negligible(grad[2], AUTO_GRAPH_RATIO * gnorm)
        frame = "graph" if exists["graph"] and (steep or not exists["rotated"]) else "rotated"
    if frame not in exists:
        raise FrameError(f"unknown frame {frame!r}")
    if not exists[frame]:
        # double mode builds the rotated frame wherever grad f clears the floor
        other = "rotated" if frame == "graph" else "graph"
        remedy = (f"frame={other!r}" if exists[other] else
                  "mode='double'" + (" with frame='rotated'" if frame == "graph" else ""))
        raise FrameError(_FRAME_NEEDS[frame] + "; use " + remedy)
    R = np.eye(3, dtype=int) if frame == "graph" else _minimal_rotation(dgrad)
    return BasePoint(point=point, level=c0, rotation=tuple(map(tuple, R.tolist())),
                     frame=frame, kind=kind)


def _combine(weights, series):
    """sum_j weights[j] * series[j] over the nonzero weights."""
    out = None
    for w, s in zip(weights, series):
        if w != 0:
            term = s if w == 1 else s * w
            out = term if out is None else out + term
    return out


def _world(bp: BasePoint, y):
    """World coordinates p + R^T y of the frame series y."""
    R = bp.rotation
    return tuple(_combine([R[j][i] for j in range(3)], y) + bp.point[i] for i in range(3))


def _check_residual(residual: TruncatedSeries, solution: TruncatedSeries, level,
                    what: str) -> float:
    """The largest coefficient of a residual series, as a double: at most 1e-9
    times the scale max(1, |level|, max |solution|), exactly 0 in rational
    mode, and not NaN.  High orders carry large coefficients (finite
    convergence radius), and rounding grows with them."""
    size = residual.max_abs()
    scale = max(1.0, abs(as_double(level)), as_double(solution.max_abs()))
    if not residual.kind.negligible(size, math.nextafter(1e-9 * scale, math.inf)):
        raise DomainError(f"{what}: residual {as_double(size):.3e} "
                          f"(coefficient scale {scale:.3e})")
    return as_double(size)


def _graph_solve_from_jet(f, grad, bindings, bp: BasePoint, order: int) -> TruncatedSeries:
    """Solve f(p + R^T (xi1, xi2, h(xi))) = c0 for the graph function h by
    series Newton (module docstring); the slope is the frame-x3 row of R grad f."""
    c0 = bp.level
    normal = bp.rotation[2]
    rows = [f] + [g for g, w in zip(grad, normal) if w != 0]
    weights = [w for w in normal if w != 0]
    xi1 = TruncatedSeries.variable(XI_VARS, order, "xi1", bp.kind)
    xi2 = TruncatedSeries.variable(XI_VARS, order, "xi2", bp.kind)
    h = TruncatedSeries.zeros(XI_VARS, order, bp.kind)
    for _ in range(order.bit_length()):
        value, *partials = ex.compose(rows, bindings, _world(bp, (xi1, xi2, h)))
        residual = value - c0
        if residual.max_abs() == 0:
            return h
        h = h - residual * _combine(weights, partials).reciprocal()
    final = ex.compose(f, bindings, _world(bp, (xi1, xi2, h))) - c0
    _check_residual(final, h, c0, "graph solve did not converge")
    return h


def _sweep(grad, bindings, bp: BasePoint, x0, x, inv):
    """One Picard sweep x0 + int_0^t w / |w|^2 along x, one t-degree above x's
    order (capped at x0's), and 1/|w|^2 at x's order.

    ``inv`` is None, or 1/|w|^2 of an earlier sweep at a lower t-order a,
    where it agrees with this one: it is correct modulo t^(a + 1), and each
    Newton step inv (2 - |w|^2 inv) doubles that power.
    """
    R = bp.rotation
    g = ex.compose(grad, bindings, _world(bp, x))
    w = [_combine(R[i], g) for i in range(3)]
    norm2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    k, X = x[0].order
    if inv is None:
        inv = norm2.reciprocal()
    else:
        correct = inv.order[0] + 1
        inv = inv.embed(CHART_VARS, (k, X))
        while correct <= k:
            inv = inv * (2 - norm2 * inv)
            correct *= 2
    up = (min(k + 1, x0[0].order[0]), X)
    xn = tuple(x0[i].truncate(up) + (w[i] * inv).embed(CHART_VARS, up).integrate("t")
               for i in range(3))
    return xn, inv


def _flow_from_jet(grad, bindings, bp: BasePoint, x0):
    """Power-series solution of dx/dt = w / |w|^2 with w = R grad f(p + R^T x)
    and x(0, xi) = x0 = (xi1, xi2, h), through the order pair (T, X) of x0.

    Graded Picard sweeps: an iterate exact through t-degree k - 1 makes the
    integrand exact through t-degree k - 1, so sweep k composes at (k - 1, X)
    only and its antiderivative fixes t-degree k at (k, X).  1/|w|^2 is
    carried from sweep to sweep: the first sweep inverts at (0, X), and each
    later one takes a single Newton step from the last inverse, which is
    correct modulo t^(k - 1) and so becomes correct modulo t^(2k - 2), past
    t^k.  When a sweep adds nothing at its new t-degree, x may already be the
    solution (an affine f gives x0 + t w / |w|^2): x is embedded at (T, X)
    and one full-order sweep decides it.  If that sweep returns x unchanged,
    x is the fixed point; otherwise its result, exact one t-degree further,
    continues the graded sweeps, and no later sweep is checked: a flow odd
    in t adds nothing at every even t-degree and would fail each check.
    """
    T, X = x0[0].order
    x, inv = tuple(s.truncate((0, X)) for s in x0), None
    checking = True
    while x[0].order[0] < T:
        x, inv = _sweep(grad, bindings, bp, x0, x, inv)
        k = x[0].order[0]
        if checking and k < T and not any(
                np.any(s.num[s.space.grades[:, 0] == k] != 0) for s in x):
            full = tuple(s.embed(CHART_VARS, x0[0].order) for s in x)
            x, inv = _sweep(grad, bindings, bp, x0, full, inv)
            if all(a.equals(b) for a, b in zip(full, x)):
                return x
            x = tuple(s.truncate((k + 1, X)) for s in x)
            inv = inv.truncate((k, X))
            checking = False
    return x


@dataclass(frozen=True, eq=False)
class ChartData:
    """All metric data of the adapted chart, as series in (t, xi1, xi2).

    The metric series and ``chi_sqrt_detg`` are truncated at the order pair
    ``(t_order, xi_order)``: t-degree <= t_order and xi-degree <= xi_order.
    The flow map ``x`` carries ``(t_order + 1, xi_order + 1)``, since the
    metric takes one derivative of it, and the graph function ``h`` carries
    xi-order ``xi_order + 1``.

    ``chi`` and ``sqrt(det g)`` are not stored: the tensor pipeline needs only
    their product ``chi_sqrt_detg`` (the flow-map Jacobian determinant), which
    is square-root free.  Take ``chi2.sqrt()`` or ``detg.sqrt()`` where a
    factor on its own is wanted.
    """

    bp: BasePoint
    t_order: int
    xi_order: int
    h: TruncatedSeries
    x: tuple
    chi2: TruncatedSeries
    g11: TruncatedSeries
    g12: TruncatedSeries
    g22: TruncatedSeries
    ginv11: TruncatedSeries
    ginv12: TruncatedSeries
    ginv22: TruncatedSeries
    detg: TruncatedSeries
    chi_sqrt_detg: TruncatedSeries
    flow_residual: float

    @property
    def level(self):
        return self.bp.level

    def x_world(self):
        """Flow map in world coordinates: p + R^T x_frame."""
        return _world(self.bp, self.x)

    def to_json(self) -> dict:
        return {
            "point": [self.bp.kind.json(c) for c in self.bp.point],
            "level": self.bp.kind.json(self.level),
            "frame": self.bp.frame,
            "mode": self.bp.kind.name,
            "orders": {"t": self.t_order, "xi": self.xi_order},
            "rotation": [[as_double(e) for e in row] for row in self.bp.rotation],
            "h": self.h.to_json(),
            "x": [s.to_json() for s in self.x],
            "chi2": self.chi2.to_json(),
            "g": {
                "g11": self.g11.to_json(),
                "g12": self.g12.to_json(),
                "g22": self.g22.to_json(),
            },
            "g_inv": {
                "g11": self.ginv11.to_json(),
                "g12": self.ginv12.to_json(),
                "g22": self.ginv22.to_json(),
            },
            "detg": self.detg.to_json(),
            "chi_sqrt_detg": self.chi_sqrt_detg.to_json(),
            "flow_residual": self.flow_residual,
        }


def metric_data(f, bindings, bp: BasePoint, x, t_order: int, xi_order: int) -> ChartData:
    """Assemble chi^2, g_ij, their inverses, and the volume factor from the flow."""
    order = (t_order, xi_order)

    dxt = [s.derive("t").truncate(order) for s in x]
    dx1 = [s.derive("xi1").truncate(order) for s in x]
    dx2 = [s.derive("xi2").truncate(order) for s in x]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    chi2 = dot(dxt, dxt)
    g11 = dot(dx1, dx1)
    g12 = dot(dx1, dx2)
    g22 = dot(dx2, dx2)
    detg = g11 * g22 - g12 * g12
    inv_det = detg.reciprocal()
    ginv11 = g22 * inv_det
    ginv12 = -(g12 * inv_det)
    ginv22 = g11 * inv_det

    # volume factor chi * sqrt(det g) as the Jacobian det of (t, xi) -> x;
    # orthogonality of the flow makes (det J)^2 = chi^2 det g, and the sign
    # is fixed by the constant term.
    jac = (
        dxt[0] * (dx1[1] * dx2[2] - dx1[2] * dx2[1])
        - dxt[1] * (dx1[0] * dx2[2] - dx1[2] * dx2[0])
        + dxt[2] * (dx1[0] * dx2[1] - dx1[1] * dx2[0])
    )
    if jac.constant_term() == 0:
        raise DomainError("degenerate chart: flow Jacobian vanishes at the base point")
    chi_sqrt_detg = jac if jac.constant_term() > 0 else -jac

    composed = ex.compose(f, bindings, _world(bp, x))
    tvar = TruncatedSeries.variable(CHART_VARS, x[0].order, "t", bp.kind)
    flow_residual = _check_residual(composed - (tvar + bp.level), x[2], bp.level,
                                    "flow series inconsistent: f(x) != c0 + t")

    return ChartData(
        bp=bp,
        t_order=t_order,
        xi_order=xi_order,
        h=x[2].slice_at_zero("t"),
        x=x,
        chi2=chi2,
        g11=g11,
        g12=g12,
        g22=g22,
        ginv11=ginv11,
        ginv12=ginv12,
        ginv22=ginv22,
        detg=detg,
        chi_sqrt_detg=chi_sqrt_detg,
        flow_residual=flow_residual,
    )


def build_chart(f, bindings, p, t_order: int = 6, xi_order: int = 6,
                frame: str = "auto", mode: str = "double") -> ChartData:
    """End-to-end chart construction at a base point."""
    bp = base_point(f, bindings, p, frame=frame, mode=mode)
    # the flow's coordinates come first: their space refuses an order whose
    # pair table is too large before the graph solve runs
    xi = [TruncatedSeries.variable(CHART_VARS, (t_order + 1, xi_order + 1), v, bp.kind)
          for v in XI_VARS]
    grad = [ex.diff(f, i) for i in range(3)]
    h = _graph_solve_from_jet(f, grad, bindings, bp, xi_order + 1)
    x = _flow_from_jet(grad, bindings, bp, (*xi, h.embed(CHART_VARS, xi[0].order)))
    return metric_data(f, bindings, bp, x, t_order, xi_order)
