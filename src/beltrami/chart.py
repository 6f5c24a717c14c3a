"""Adapted coordinates (t, xi1, xi2) at a base point with nonvanishing gradient.

Construction: a level surface of f through the base point is written as a
graph x3 = h(xi) over the first two frame coordinates; the remaining
coordinate t flows along X = grad f / |grad f|^2, so that f = c0 + t along
the flow and the ambient metric splits into chi^2 dt^2 + g_ij dxi_i dxi_j
with no cross terms.

Two frames are supported at the base point:

* ``rotated``  — the frame axes are rotated so the gradient points along the
  third axis; then h has a critical point at the origin and g(0) = identity.
* ``graph``    — the ambient axes are kept; valid whenever the third gradient
  component clears the floor.  This is the frame in which the benchmark
  coefficient families are quoted, so obstruction evaluation defaults to it.

All series are truncated at total degree K = t_order + xi_order, which
guarantees every mixed coefficient with t-degree <= t_order and xi-degree
<= xi_order is exact.  Exact (rational) coefficients are available for
polynomial f when the frame rotation is trivial; the combination
chi * sqrt(det g) is then computed as the Jacobian determinant of the flow
map, which keeps the whole tensor pipeline square-root free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import CriticalPointError, DomainError, FrameError
from .series import TruncatedSeries, compose3

CHART_VARS = ("t", "xi1", "xi2")
XI_VARS = ("xi1", "xi2")
GRAD_FLOOR = 1e-8
AUTO_GRAPH_RATIO = 1e-2  # |d3 f| / |grad f| needed before "auto" picks the graph frame


@dataclass(frozen=True)
class BasePoint:
    """Base point data: location, level value, gradient, frame rotation.

    ``rotation`` maps world displacements into frame displacements
    (y = R (x - p)); its rows are the frame axes in world coordinates.
    """

    point: tuple
    level: object
    grad: tuple
    rotation: tuple
    frame: str
    mode: str

    @property
    def exact(self) -> bool:
        return self.mode == "rational"


def _norm_sq(v):
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


def _minimal_rotation(direction):
    """Rotation matrix (rows = new axes) mapping `direction` to +e3."""
    r = np.asarray(direction, dtype=np.float64)
    r = r / np.linalg.norm(r)
    c = r[2]
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(r, [0.0, 0.0, 1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def base_point(f, bindings, p, frame: str = "rotated", mode: str = "double",
               grad_floor: float = GRAD_FLOOR) -> BasePoint:
    """Validate the base point and fix the chart frame.

    Raises CriticalPointError when |grad f(p)| is below the floor (relative to
    max(1, |f(p)|)), and FrameError when the requested frame cannot be built.
    """
    exact = mode == "rational"
    j1 = ex.jet(f, bindings, p, 1, mode=mode)
    c0 = j1.constant_term()
    grad = (j1.coeff((1, 0, 0)), j1.coeff((0, 1, 0)), j1.coeff((0, 0, 1)))
    scale = max(1.0, abs(float(c0)))
    floor_sq = (grad_floor * scale) ** 2
    gsq = float(_norm_sq(tuple(map(float, grad))))
    if gsq < floor_sq:
        raise CriticalPointError(
            f"|grad f| = {math.sqrt(gsq):.3e} below floor {grad_floor * scale:.3e} at {p}"
        )

    if frame == "auto":
        frame = "graph" if abs(float(grad[2])) >= AUTO_GRAPH_RATIO * math.sqrt(gsq) else "rotated"

    if frame == "graph":
        if abs(float(grad[2])) ** 2 < floor_sq:
            raise FrameError(
                "graph frame needs the third gradient component above the floor; "
                "use frame='rotated'"
            )
        if exact:
            one, zero = Fraction(1), Fraction(0)
            rot = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        else:
            rot = tuple(tuple(row) for row in np.eye(3))
    elif frame == "rotated":
        gf = tuple(map(float, grad))
        if exact:
            # exact rotations exist only when the gradient is already axis aligned
            if grad[0] == 0 and grad[1] == 0:
                sign = 1 if grad[2] > 0 else -1
                one, zero = Fraction(1), Fraction(0)
                rot = (
                    (one, zero, zero),
                    (zero, Fraction(sign), zero),
                    (zero, zero, Fraction(sign)),
                )
            else:
                raise FrameError(
                    "rational mode supports the rotated frame only when grad f "
                    "is parallel to the third axis; use frame='graph'"
                )
        else:
            rot = tuple(tuple(row) for row in _minimal_rotation(gf))
    else:
        raise FrameError(f"unknown frame {frame!r}")

    if exact:
        pt = tuple(ex.as_fraction(c) for c in p)
    else:
        pt = tuple(float(c) for c in p)
    return BasePoint(point=pt, level=c0, grad=grad, rotation=rot, frame=frame, mode=mode)


def frame_jet(f, bindings, bp: BasePoint, order: int) -> TruncatedSeries:
    """Jet of f in frame coordinates: F(y) = f(p + R^T y), based at y = 0."""
    world = ex.jet(f, bindings, bp.point, order, mode=bp.mode, max_order=max(order, 12))
    exact = bp.exact
    R = bp.rotation
    identity = all(
        R[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3)
    )
    if identity:
        out = world.copy()
        out.base_point = (Fraction(0),) * 3 if exact else (0.0, 0.0, 0.0)
        return out
    axes = [TruncatedSeries.variable(ex.VAR_NAMES, order, v, exact=exact)
            for v in ex.VAR_NAMES]
    inner = []
    for i in range(3):
        s = TruncatedSeries.constant(ex.VAR_NAMES, order, bp.point[i], exact=exact)
        for j in range(3):
            if R[j][i] != 0:
                s = s + axes[j] * R[j][i]
        inner.append(s)
    out = compose3(world, tuple(inner))
    out.base_point = (Fraction(0),) * 3 if exact else (0.0, 0.0, 0.0)
    return out


def graph_solve(f, bindings, bp: BasePoint, order: int) -> TruncatedSeries:
    """Solve F(xi1, xi2, h(xi)) = c0 for the graph function h by series Newton."""
    F = frame_jet(f, bindings, bp, order + 1)
    return _graph_solve_from_jet(F, bp, order)


def _graph_solve_from_jet(F: TruncatedSeries, bp: BasePoint, order: int) -> TruncatedSeries:
    exact = bp.exact
    c0 = bp.level
    Ft = F.truncate(order)
    F3 = F.derive("x3").truncate(order)
    xi1 = TruncatedSeries.variable(XI_VARS, order, "xi1", exact=exact)
    xi2 = TruncatedSeries.variable(XI_VARS, order, "xi2", exact=exact)
    h = TruncatedSeries.zeros(XI_VARS, order, exact=exact)
    steps = max(3, order.bit_length() + 2)
    for _ in range(steps):
        inner = (xi1, xi2, h)
        residual = compose3(Ft, inner) - c0
        slope = compose3(F3, inner)
        h = h - residual * slope.reciprocal()
        if residual.max_abs() == 0.0:
            break
    final = compose3(Ft, (xi1, xi2, h)) - c0
    if not exact and final.max_abs() > 1e-9 * max(1.0, abs(float(c0))):
        raise DomainError(f"graph solve did not converge: residual {final.max_abs():.3e}")
    return h


def flow_series(f, bindings, bp: BasePoint, h: TruncatedSeries,
                t_order: int, xi_order: int):
    """Power-series solution of dx/dt = grad F / |grad F|^2, x(0, xi) = (xi, h).

    Solved by Picard iteration on jets; each sweep fixes one more t-degree, so
    the triple is exact through total degree K = t_order + xi_order.
    """
    order = t_order + xi_order
    F = frame_jet(f, bindings, bp, order + 1)
    return _flow_from_jet(F, bp, h, order), F


def _flow_from_jet(F: TruncatedSeries, bp: BasePoint, h: TruncatedSeries, order: int):
    exact = bp.exact
    partials = [F.derive(v).truncate(order) for v in ex.VAR_NAMES]
    xi1 = TruncatedSeries.variable(CHART_VARS, order, "xi1", exact=exact)
    xi2 = TruncatedSeries.variable(CHART_VARS, order, "xi2", exact=exact)
    x0 = (xi1, xi2, h.truncate(order).embed(CHART_VARS))
    x = tuple(s.copy() for s in x0)
    for _ in range(order + 1):
        w = [compose3(g, x) for g in partials]
        speed_sq = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
        inv = speed_sq.reciprocal()
        xn = tuple(x0[i] + (w[i] * inv).integrate("t") for i in range(3))
        if all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(x, xn)):
            x = xn
            break
        x = xn
    return x


@dataclass(frozen=True, eq=False)
class ChartData:
    """All metric data of the adapted chart, as series in (t, xi1, xi2).

    ``chi`` and ``sqrt(det g)`` are not stored: the tensor pipeline needs only
    their product ``chi_sqrt_detg`` (the flow-map Jacobian determinant), which
    is square-root free.  Take ``chi2.sqrt()`` or ``detg.sqrt()`` where a
    factor on its own is wanted.
    """

    bp: BasePoint
    t_order: int
    xi_order: int
    order: int  # total truncation order K of the flow map; metric series carry K - 1
    h: TruncatedSeries
    x: tuple
    f_jet: TruncatedSeries
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

    @property
    def exact(self) -> bool:
        return self.bp.exact

    def metric(self):
        return ((self.g11, self.g12), (self.g12, self.g22))

    def metric_inv(self):
        return ((self.ginv11, self.ginv12), (self.ginv12, self.ginv22))

    def x_world(self):
        """Flow map in world coordinates: p + R^T x_frame."""
        R = self.bp.rotation
        out = []
        for i in range(3):
            s = TruncatedSeries.constant(CHART_VARS, self.order, self.bp.point[i],
                                         exact=self.exact)
            for j in range(3):
                if R[j][i] != 0:
                    s = s + self.x[j] * R[j][i]
            out.append(s)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "point": [str(c) if self.exact else float(c) for c in self.bp.point],
            "level": str(self.level) if self.exact else float(self.level),
            "frame": self.bp.frame,
            "mode": self.bp.mode,
            "orders": {"t": self.t_order, "xi": self.xi_order, "total": self.order},
            "rotation": [[float(e) for e in row] for row in self.bp.rotation],
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


def metric_data(f, bindings, bp: BasePoint, x, t_order: int, xi_order: int,
                f_jet: TruncatedSeries | None = None) -> ChartData:
    """Assemble chi^2, g_ij, their inverses, and the volume factor from the flow."""
    order = t_order + xi_order
    if f_jet is None:
        f_jet = frame_jet(f, bindings, bp, order + 1)
    exact = bp.exact

    dxt = [s.derive("t") for s in x]
    dx1 = [s.derive("xi1") for s in x]
    dx2 = [s.derive("xi2") for s in x]

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

    composed = compose3(f_jet.truncate(order), x)
    target = TruncatedSeries.constant(CHART_VARS, order, bp.level, exact=exact)
    tvar = TruncatedSeries.variable(CHART_VARS, order, "t", exact=exact)
    residual = composed - (target + tvar)
    flow_residual = float(residual.max_abs())
    # scale by the series magnitude: high orders legitimately carry large
    # coefficients (finite convergence radius), and rounding grows with them
    scale = max(1.0, abs(float(bp.level)), max(abs(float(c)) for c in x[2].coeffs))
    if not exact and flow_residual > 1e-9 * scale:
        raise DomainError(
            f"flow series inconsistent: |f(x) - (c0 + t)| = {flow_residual:.3e} "
            f"(coefficient scale {scale:.3e})"
        )

    return ChartData(
        bp=bp,
        t_order=t_order,
        xi_order=xi_order,
        order=order,
        h=x[2].slice_at_zero("t"),
        x=x,
        f_jet=f_jet,
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
                frame: str = "rotated", mode: str = "double",
                grad_floor: float = GRAD_FLOOR) -> ChartData:
    """End-to-end chart construction at a base point."""
    bp = base_point(f, bindings, p, frame=frame, mode=mode, grad_floor=grad_floor)
    order = t_order + xi_order
    F = frame_jet(f, bindings, bp, order + 1)
    h = _graph_solve_from_jet(F, bp, order)
    x = _flow_from_jet(F, bp, h, order)
    return metric_data(f, bindings, bp, x, t_order, xi_order, f_jet=F)
