"""Constrained-evolution demonstrator on a xi-grid.

The evolution d/dt beta = T(t) beta is pointwise in xi (no spatial coupling),
so every grid node integrates an independent 2x2 linear ODE; the closedness
constraint d1 beta_2 - d2 beta_1 = 0 is monitored by central differences and
its drift is the signal of interest.  T comes from the chart series built
once at the central base point, which confines grids and times to a validity
patch around the origin.  A series in xi is sampled on the tensor grid one
axis at a time, as V1 C V2^T with V1 and V2 the power tables of the two axes
and C[p, q] the coefficient of xi1^p xi2^q; no node-by-monomial matrix is
built.  T's t-coefficients are sampled this way once per grid, and T(t) is
then the power row (1, t, ..., t^K) times that sample matrix.
A classical RK4 step evaluates T three times, its two midpoint stages
sharing one, and multiplies each node's 2x2 matrix into beta entry by entry.
Consecutive steps of a run share T at their common endpoint, so S steps make
2S + 1 evaluations of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .beltrami_ops import chart_pullback
from .chart import ChartData, build_chart
from .errors import BudgetError, DomainError
from .obstruction import tensor_T
from .series import _powers

PATCH_RADIUS = 0.2  # grids and times stay within this distance of the base point
# Largest grid a run may allocate: 501x501.  At the default orders (6, 6) a
# node holds 28 sampled T coefficients, 56 MB over the grid, and the RK4
# stages about as much again; a 20-step 501x501 run peaks at about 140 MB
# resident with either init, of which the interpreter and numpy hold about
# 30 MB before it starts.
MAX_GRID_NODES = 251_001
# Most RK4 steps a run may take.  With the drift recorded after each, a step
# costs about 80 us on 21x21 nodes, 2.2 ms on 201x201 and 25 ms on 501x501
# (2 CPUs, Python 3.11), so the longest run the grid budget admits ends in
# about 100 s.  It crosses the whole patch at dt = 5e-5.
MAX_STEPS = 4_000
# drift divides by one spacing per axis, so the steps of an axis may differ by
# this much relative to its first; GridField.centered rounds them apart by at
# most 4.2e-12 relative on a 50,200-node axis, the longest the budget admits
SPACING_RTOL = 1e-9


def _check_extent(r: float):
    if not r <= PATCH_RADIUS + 1e-12:  # a NaN extent fails too
        raise DomainError(f"grid extent {r:.3g} exceeds the chart validity patch "
                          f"{PATCH_RADIUS:.3g}")


def _check_nodes(n1: int, n2: int):
    if n1 * n2 > MAX_GRID_NODES:
        raise BudgetError(f"a {n1}x{n2} grid has {n1 * n2} nodes, above the limit "
                          f"{MAX_GRID_NODES}")


@dataclass
class GridField:
    """Rectangular, evenly spaced xi-grid centered at the origin with per-node
    (beta1, beta2)."""

    xi1: np.ndarray
    xi2: np.ndarray
    beta: np.ndarray  # (n1, n2, 2)
    time: float

    def __post_init__(self):
        if self.xi1.size < 5 or self.xi2.size < 5:
            raise DomainError("grids need at least 5 nodes per axis for central stencils")
        for xi in (self.xi1, self.xi2):
            d = np.diff(xi)
            if not np.all((0 < d) & (d < math.inf)):  # a NaN difference fails too
                raise DomainError("grid coordinates must be finite and strictly increasing")
            if np.any(np.abs(d - d[0]) > SPACING_RTOL * d[0]):
                raise DomainError("grid coordinates must be evenly spaced")

    @classmethod
    def centered(cls, n1: int, n2: int, h1: float, h2: float):
        if not (0 < h1 < math.inf and 0 < h2 < math.inf):  # a NaN fails too
            raise DomainError(f"grid spacings must be finite and positive, got {h1}, {h2}")
        xi1 = (np.arange(n1) - (n1 - 1) / 2.0) * h1
        xi2 = (np.arange(n2) - (n2 - 1) / 2.0) * h2
        return cls(xi1=xi1, xi2=xi2, beta=np.zeros((n1, n2, 2)), time=0.0)

    @property
    def spacing(self):
        return (float(self.xi1[1] - self.xi1[0]), float(self.xi2[1] - self.xi2[0]))

    def nodes(self) -> np.ndarray:
        X1, X2 = np.meshgrid(self.xi1, self.xi2, indexing="ij")
        return np.column_stack([X1.ravel(), X2.ravel()])


def _on_axes(C: np.ndarray, grid: GridField) -> np.ndarray:
    """The polynomials sum_pq C[..., p, q] xi1^p xi2^q on the grid's nodes,
    one axis at a time: V1 C V2^T, with V1 and V2 the power tables of the two
    axes.  Returns (..., n1, n2), the nodes in the order of ``grid.nodes()``."""
    V1 = _powers(grid.xi1, C.shape[-2] - 1)
    V2 = _powers(grid.xi2, C.shape[-1] - 1)
    return V1 @ C @ V2.T


class TEvaluator:
    """The 2x2 evolution tensor T of a chart on the nodes of one grid.

    Its t-coefficients are sampled on the nodes once, axis by axis (every
    t-degree and all four entries in one batched V1 C V2^T), into ``coeffs``
    of shape (t_order + 1, 4N): row k holds the t^k coefficients of T00 on
    every node, then those of T01, T10 and T11.  A call multiplies the power row
    (1, t, ..., t^K) into that matrix, one matrix-vector product, and returns
    T(t) as its (2, 2, N) reshape: ``T[i][j]`` is entry [i][j] on every node,
    contiguous, in the index order of the series T (``obstruction``).
    """

    def __init__(self, chart: ChartData, grid: GridField):
        _check_extent(float(max(np.max(np.abs(grid.xi1)), np.max(np.abs(grid.xi2)))))
        self.xi1, self.xi2 = grid.xi1, grid.xi2
        entries = [e for row in tensor_T(chart) for e in row]
        t, p, q = entries[0].space.expo.T
        # C[k, e, p, q]: the coefficient of t^k xi1^p xi2^q in entry e
        C = np.zeros((chart.t_order + 1, 4, chart.xi_order + 1, chart.xi_order + 1))
        C[t, :, p, q] = np.stack([e.coeffs for e in entries], axis=1)
        self.coeffs = _on_axes(C, grid).reshape(len(C), -1)
        self._degrees = np.arange(len(C))

    def __call__(self, t: float) -> np.ndarray:
        """T at time t on every node of the grid; returns (2, 2, N)."""
        if abs(t) > PATCH_RADIUS + 1e-12:
            raise DomainError(f"time {t} outside the chart validity patch")
        return (np.power(t, self._degrees) @ self.coeffs).reshape(2, 2, -1)


def _apply(T, u):
    """T u on every node: column j of T, (T0j, T1j), times the row u[j]."""
    return T[:, 0] * u[0] + T[:, 1] * u[1]


def _rk4(tev: TEvaluator, v: np.ndarray, t: float, dt: float, T_t: np.ndarray):
    """One classical 4th-order step of v (rows: beta1 and beta2 on every node)
    from time t, given T_t = T(t); returns v and T at t + dt.

    Both midpoint stages share one evaluation of T(t + dt/2), and each 2x2
    product is four elementwise products on the columns of entries.
    """
    h = dt / 2.0
    k1 = _apply(T_t, v)
    mid = tev(t + h)
    k2 = _apply(mid, v + h * k1)
    k3 = _apply(mid, v + h * k2)
    T_end = tev(t + dt)
    k4 = _apply(T_end, v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), T_end


def step(grid: GridField, tev: TEvaluator, dt: float) -> GridField:
    """One classical 4th-order step of the pointwise linear evolution; it
    evaluates T at t, t + dt/2 and t + dt."""
    if not (np.array_equal(grid.xi1, tev.xi1) and np.array_equal(grid.xi2, tev.xi2)):
        raise DomainError("the evaluator was sampled on the nodes of another grid")
    v = grid.beta.reshape(-1, 2).T.copy()
    nv, _ = _rk4(tev, v, grid.time, dt, tev(grid.time))
    return GridField(xi1=grid.xi1, xi2=grid.xi2, beta=nv.T.reshape(grid.beta.shape),
                     time=grid.time + dt)


def drift(grid: GridField):
    """(max, L2) of the discrete closedness defect on interior nodes."""
    h1, h2 = grid.spacing
    b1 = grid.beta[:, :, 0]
    b2 = grid.beta[:, :, 1]
    d1b2 = (b2[2:, 1:-1] - b2[:-2, 1:-1]) / (2.0 * h1)
    d2b1 = (b1[1:-1, 2:] - b1[1:-1, :-2]) / (2.0 * h2)
    defect = d1b2 - d2b1
    max_d = float(np.max(np.abs(defect))) if defect.size else 0.0
    l2_d = float(math.sqrt(np.sum(defect**2) * h1 * h2))
    return max_d, l2_d


@dataclass
class DriftReport:
    """Time series of constraint drift along a run."""

    times: list = field(default_factory=list)
    max_drift: list = field(default_factory=list)
    l2_drift: list = field(default_factory=list)
    max_beta: list = field(default_factory=list)
    max_drift_normalized: list = field(default_factory=list)

    def record(self, grid: GridField):
        md, l2 = drift(grid)
        mb = float(np.max(np.abs(grid.beta)))
        self.times.append(grid.time)
        self.max_drift.append(md)
        self.l2_drift.append(l2)
        self.max_beta.append(mb)
        self.max_drift_normalized.append(md / mb if mb > 0 else 0.0)

    def final(self) -> dict:
        return {
            "t": self.times[-1],
            "max_drift": self.max_drift[-1],
            "l2_drift": self.l2_drift[-1],
            "max_beta": self.max_beta[-1],
            "max_drift_normalized": self.max_drift_normalized[-1],
        }

    def to_csv(self) -> str:
        lines = ["t,max_drift,l2_drift,max_beta,max_drift_normalized"]
        for row in zip(
            self.times, self.max_drift, self.l2_drift, self.max_beta,
            self.max_drift_normalized,
        ):
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"


def init_from_potential(grid: GridField, psi, bindings=None) -> GridField:
    """beta = d psi with psi an expression in x1, x2 (read as xi1, xi2);
    closed by construction and sampled from the symbolic partials of psi,
    each evaluated once on the node batch."""
    nodes = grid.nodes()
    pts = np.column_stack([nodes, np.zeros(nodes.shape[0])])
    beta = np.column_stack([ex.evaluate(ex.diff(psi, i), bindings, pts) for i in range(2)])
    return GridField(grid.xi1, grid.xi2, beta.reshape(grid.beta.shape), 0.0)


def init_from_field(grid: GridField, u, chart: ChartData, bindings=None) -> GridField:
    """beta from the pullback of a vector field to the chart's level surface
    t = 0, both components sampled on the grid's nodes axis by axis."""
    x0 = tuple(s.slice_at_zero("t") for s in chart.x_world())
    beta = chart_pullback(u, x0, bindings)
    C = np.zeros((2,) + (beta[0].space.top + 1,) * 2)
    for c, b in zip(C, beta):
        p, q = b.space.expo.T
        c[p, q] = b.coeffs
    return GridField(grid.xi1, grid.xi2, np.moveaxis(_on_axes(C, grid), 0, -1), 0.0)


def run(f, bindings, p, init, t_max: float, dt: float, n1: int, n2: int,
        h1: float, h2: float, t_order: int = 6, xi_order: int = 6,
        frame: str = "auto") -> DriftReport:
    """Integrate the evolution and sample the drift after every step.

    ``init`` is either ``("psi", expr)`` for beta = d psi, or
    ``("field", vector_expr)`` for the pullback of an explicit field.  The
    step, the final time and the grid spacings (each finite), the step count,
    the grid's extent and its node count are checked before the grid is
    allocated or the chart built.
    """
    # a NaN fails both comparisons; an inf dt would make 0 * inf = nan below
    if not (0 < dt < math.inf and 0 <= t_max < math.inf):
        raise DomainError(f"need a finite dt > 0 and a finite t_max >= 0, got dt = {dt}, "
                          f"t_max = {t_max}")
    # checked before rounding, as the quotient may overflow to inf
    if t_max / dt > MAX_STEPS + 0.5:
        raise BudgetError(f"t_max / dt asks for {t_max / dt:.6g} steps, above the limit "
                          f"{MAX_STEPS}")
    steps = int(round(t_max / dt))
    if abs(steps * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise DomainError("t_max must be an integer multiple of dt")
    if t_max > PATCH_RADIUS + 1e-12:
        raise DomainError(f"t_max {t_max} exceeds the chart validity patch {PATCH_RADIUS}")
    # the extent of GridField.centered, in the same floating-point operations
    _check_extent(max((n1 - 1) / 2.0 * h1, (n2 - 1) / 2.0 * h2))
    _check_nodes(n1, n2)
    grid = GridField.centered(n1, n2, h1, h2)
    chart = build_chart(f, bindings, p, t_order=t_order, xi_order=xi_order, frame=frame)
    kind, payload = init
    if kind == "psi":
        grid = init_from_potential(grid, payload, bindings)
    elif kind == "field":
        grid = init_from_field(grid, payload, chart, bindings)
    else:
        raise DomainError(f"unknown init kind {kind!r}")
    tev = TEvaluator(chart, grid)
    report = DriftReport()
    report.record(grid)
    # the run owns this grid: each step sets its beta to a view of the new
    # RK4 rows and advances its time, and hands T at its end on as the next
    # step's T(t)
    v, T = grid.beta.reshape(-1, 2).T.copy(), tev(grid.time)
    for _ in range(steps):
        v, T = _rk4(tev, v, grid.time, dt, T)
        grid.beta, grid.time = v.T.reshape(grid.beta.shape), grid.time + dt
        report.record(grid)
    return report
