"""Independent numerical pipeline used to cross-validate the series pipeline.

Nothing here touches jet arithmetic: Taylor coefficients come from central
finite differences, the flow map from Runge-Kutta integration, and the
obstruction determinant from stencil derivatives of pointwise-assembled
tensors.  Its agreement with the series pipeline is measured, not
guaranteed: the ``cross-check`` battery holds 1e-3 relative, and cubic-family
members ``1 + a x1 + b x1^3 + x3`` with ``a * b > 0`` agree within 1e-4 in
both frames, but members with ``a * b < 0`` reach 4e-3 (``a = 3/2, b = -2``,
rotated frame), and random polynomials of degree <= 4 miss by up to 65%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .chart import _minimal_rotation
from .errors import DomainError

_E3 = np.eye(3)


@dataclass(frozen=True)
class StencilSpec:
    """Step sizes and stencil geometry for the oracle.

    ``radius`` is the half-width of 1-D stencils (2*radius + 1 nodes); the
    jet stencil auto-widens so every requested derivative order fits.  The
    8e-3 defaults sit at the measured optimum between stencil truncation and
    noise amplified through the recursion's repeated time derivatives.
    """

    step_space: float = 8e-3
    step_time: float = 8e-3
    step_cross: float = 8e-3
    radius: int = 2
    richardson: int = 1
    flow_dt: float = 2e-3

    def __post_init__(self):
        if self.step_space <= 0 or self.step_time <= 0 or self.step_cross <= 0:
            raise DomainError("stencil steps must be positive")
        if self.radius < 1:
            raise DomainError("stencil radius must be >= 1")


def deriv_weights(k: int, radius: int, step: float) -> np.ndarray:
    """Weights w with sum_j w[j] f(x + j*step) = f^(k)(x), j = -radius..radius.

    Exact for polynomials of degree <= 2*radius (Vandermonde moment match).
    """
    n = 2 * radius + 1
    if k >= n:
        raise DomainError(f"derivative order {k} needs more than {n} nodes")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64) * step
    M = offsets[None, :] ** np.arange(n)[:, None]
    rhs = np.zeros(n)
    rhs[k] = math.factorial(k)
    return np.linalg.solve(M, rhs)


def _jet_once(f, bindings, p, order, radius, step):
    offsets = np.arange(-radius, radius + 1, dtype=np.float64) * step
    grid = np.stack(
        np.meshgrid(offsets, offsets, offsets, indexing="ij"), axis=-1
    ).reshape(-1, 3) + np.asarray(p, dtype=np.float64)
    vals = ex.evaluate(f, bindings, grid).reshape(
        2 * radius + 1, 2 * radius + 1, 2 * radius + 1
    )
    W = np.stack([deriv_weights(k, radius, step) for k in range(order + 1)])
    return np.einsum("ai,bj,ck,ijk->abc", W, W, W, vals)


def fd_jet(f, bindings, p, order: int, spec: StencilSpec | None = None):
    """Taylor coefficients of f at p through total degree `order`, by central
    differences on a tensor grid (optionally Richardson-extrapolated)."""
    from .series import TruncatedSeries

    spec = spec or StencilSpec()
    if order < 0:
        raise DomainError("jet order must be >= 0")
    if spec.step_space < 1e-3 and order >= 4:
        raise DomainError(
            "step below 1e-3 with order >= 4 would be dominated by cancellation"
        )
    radius = max(spec.radius, order // 2 + 2)
    tables = [
        _jet_once(f, bindings, p, order, radius, spec.step_space / 2**lvl)
        for lvl in range(spec.richardson)
    ]
    # Neville ladder assuming even error orders starting at h^2 (conservative)
    for col in range(1, len(tables)):
        factor = 4.0**col
        tables = [
            (factor * tables[i + 1] - tables[i]) / (factor - 1.0)
            for i in range(len(tables) - 1)
        ]
    D = tables[0]
    terms = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            for c in range(order + 1 - a - b):
                terms[(a, b, c)] = D[a, b, c] / (
                    math.factorial(a) * math.factorial(b) * math.factorial(c)
                )
    return TruncatedSeries.from_terms(ex.VAR_NAMES, order, terms)


def _grad_batch(F, pts, step, radius):
    """Gradient of an R^3 scalar evaluator on an (N, 3) batch, by central FD."""
    w = deriv_weights(1, radius, step)
    out = np.zeros_like(pts)
    for axis in range(3):
        for j in range(-radius, radius + 1):
            if w[j + radius] == 0.0:
                continue
            out[:, axis] += w[j + radius] * F(pts + (j * step) * _E3[axis])
    return out


def _flow_batch(F, starts, times, spec: StencilSpec, grad_floor=1e-8):
    """Integrate dx/dt = grad F / |grad F|^2 from each start to its own time.

    Reparametrized to s in [0, 1] with per-row speed, advanced by the
    classical 4th-order scheme.
    """
    pts = np.array(starts, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64).reshape(-1, 1)
    tmax = float(np.max(np.abs(times)))
    steps = max(1, int(math.ceil(tmax / spec.flow_dt)))
    ds = 1.0 / steps

    def rhs(x):
        g = _grad_batch(F, x, spec.step_space, spec.radius)
        nsq = np.sum(g * g, axis=1, keepdims=True)
        if np.any(nsq < grad_floor**2):
            raise DomainError("gradient collapsed along a flow trajectory")
        return times * g / nsq

    before = F(pts)
    for _ in range(steps):
        k1 = rhs(pts)
        k2 = rhs(pts + 0.5 * ds * k1)
        k3 = rhs(pts + 0.5 * ds * k2)
        k4 = rhs(pts + ds * k3)
        pts = pts + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    # the defining property of the flow doubles as a blow-up detector: a
    # trajectory that grazed a critical point cannot meet the increment
    defect = np.abs(F(pts) - before - times[:, 0])
    tol = 1e-6 * np.maximum(1.0, np.abs(times[:, 0]))
    if not np.all(np.isfinite(pts)) or np.any(defect > tol):
        raise DomainError(
            f"flow integration failed the level-increment check "
            f"(max defect {np.max(defect):.3e}); gradient collapse en route?"
        )
    return pts


def numeric_flow(f, bindings, x0, t, dt: float = 1e-2, spec: StencilSpec | None = None):
    """Flow x0 along grad f / |grad f|^2 for time t (4th-order, fixed step)."""
    spec = replace(spec or StencilSpec(), flow_dt=dt)

    def F(pts):
        return ex.evaluate(f, bindings, pts)

    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    starts = x0[None, :] if single else x0
    times = np.full(starts.shape[0], float(t))
    out = _flow_batch(F, starts, times, spec)
    return out[0] if single else out


def _newton_graph(F, xi, c0, step, radius, tol=1e-13, max_iter=60):
    """Solve F(xi1, xi2, z) = c0 for z on an (N, 2) batch of xi values."""
    z = np.zeros(xi.shape[0])
    w = deriv_weights(1, radius, step)
    for _ in range(max_iter):
        pts = np.column_stack([xi, z])
        val = F(pts) - c0
        slope = np.zeros_like(z)
        for j in range(-radius, radius + 1):
            if w[j + radius] == 0.0:
                continue
            q = pts.copy()
            q[:, 2] += j * step
            slope += w[j + radius] * F(q)
        if np.any(np.abs(slope) < 1e-10):
            raise DomainError("graph Newton: vertical derivative collapsed")
        z = z - val / slope
        if np.max(np.abs(val)) < tol * max(1.0, abs(c0)):
            break
    return z


def _cross_offsets(radius, step):
    """xi offsets of a stencil cross, shape (1 + 4*radius, 2): the center, then
    j*step along axis 0 and along axis 1 for j = -radius..radius, j != 0."""
    offsets = [np.zeros(2)]
    for axis in range(2):
        for j in range(-radius, radius + 1):
            if j:
                off = np.zeros(2)
                off[axis] = j * step
                offsets.append(off)
    return np.array(offsets)


def P_point_fd(f, bindings, p, spec: StencilSpec | None = None,
               frame: str = "graph", indices=(2, 3, 4, 5)) -> float:
    """Degree-0 obstruction coefficient at p, entirely by numerics.

    Builds the evolution tensor on a (t, xi) sample lattice via Newton graph
    solves and flow integration, runs the recursion with stencil t-derivatives
    (the usable t-window shrinks by one stencil radius per level), forms the
    constraint vectors with stencil xi-derivatives, and takes the 4x4
    determinant at the origin.
    """
    spec = spec or StencilSpec()
    indices = tuple(indices)
    max_n = max(indices)
    p = np.asarray(p, dtype=np.float64)

    def F_world(pts):
        return ex.evaluate(f, bindings, pts)

    if frame == "graph":
        R = np.eye(3)
    elif frame == "rotated":
        g = _grad_batch(F_world, p[None, :], spec.step_space, spec.radius)[0]
        R = _minimal_rotation(g)
    else:
        raise DomainError(f"oracle supports frames 'graph' and 'rotated', not {frame!r}")

    def F(pts):
        return F_world(pts @ R + p)

    c0 = float(F(np.zeros((1, 3)))[0])

    rt = spec.radius
    levels = max_n - 1
    t_half = rt * levels
    t_nodes = np.arange(-t_half, t_half + 1, dtype=np.float64) * spec.step_time
    n_t = t_nodes.size

    dc = spec.step_cross
    cross = _cross_offsets(rt, dc)
    n_cross = cross.shape[0]

    dm = spec.step_space
    moffsets = _cross_offsets(rt, dm)
    n_m = moffsets.shape[0]

    # unique xi start points (cross position + metric offset), then one batched flow
    xi_all = (cross[:, None, :] + moffsets[None, :, :]).reshape(-1, 2)
    key = np.round(xi_all / min(dc, dm) * 4).astype(np.int64)
    _, first_idx, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    xi_uniq = xi_all[first_idx]

    h_uniq = _newton_graph(F, xi_uniq, c0, spec.step_space, rt)
    starts_u = np.column_stack([xi_uniq, h_uniq])

    n_u = starts_u.shape[0]
    starts = np.repeat(starts_u, n_t, axis=0)
    times = np.tile(t_nodes, n_u)
    flowed = _flow_batch(F, starts, times, spec).reshape(n_u, n_t, 3)

    # evolution tensor at every (cross position, t node)
    w1 = deriv_weights(1, rt, dm)
    T_vals = np.zeros((n_cross, n_t, 2, 2))
    for ci in range(n_cross):
        pos_idx = inverse[ci * n_m : (ci + 1) * n_m]
        x_here = flowed[pos_idx]  # (n_m, n_t, 3): center then per-axis offsets
        grad = _grad_batch(
            F, x_here[0].reshape(-1, 3), spec.step_space, rt
        ).reshape(n_t, 3)
        nsq = np.sum(grad * grad, axis=1, keepdims=True)
        dxt = grad / nsq
        dxi = np.zeros((2, n_t, 3))
        for axis in range(2):
            block = x_here[1 + axis * 2 * rt : 1 + (axis + 1) * 2 * rt]
            col = 0
            for j in range(-rt, rt + 1):
                if j == 0:
                    continue
                dxi[axis] += w1[j + rt] * block[col]
                col += 1
        g11 = np.sum(dxi[0] * dxi[0], axis=1)
        g12 = np.sum(dxi[0] * dxi[1], axis=1)
        g22 = np.sum(dxi[1] * dxi[1], axis=1)
        det_g = g11 * g22 - g12 * g12
        jac = np.einsum("ti,ti->t", dxt, np.cross(dxi[0], dxi[1]))
        csg = np.abs(jac)
        pref = (c0 + t_nodes) * csg / det_g
        T_vals[ci, :, 0, 0] = -pref * g12
        T_vals[ci, :, 0, 1] = pref * g11
        T_vals[ci, :, 1, 0] = -pref * g22
        T_vals[ci, :, 1, 1] = pref * g12

    # recursion with stencil t-derivatives; valid window shrinks by rt per level
    wt = deriv_weights(1, rt, spec.step_time)

    def ddt(arr):
        n = arr.shape[1]
        out = np.zeros((arr.shape[0], n - 2 * rt, 2, 2))
        for j in range(2 * rt + 1):
            out += wt[j] * arr[:, j : n - 2 * rt + j]
        return out

    Tn = T_vals
    lo = 0
    Tn_at = {}
    for n in range(2, max_n + 1):
        dTn = ddt(Tn)
        width = dTn.shape[1]
        trim = (Tn.shape[1] - width) // 2
        core_Tn = Tn[:, trim : trim + width]
        lo += rt
        core_T = T_vals[:, lo : lo + width]
        Tn = dTn + np.einsum("ctij,ctjk->ctik", core_Tn, core_T)
        if n in indices:
            Tn_at[n] = Tn[:, width // 2]  # value at t = 0 per cross position

    T_at0 = T_vals[:, t_half]  # (n_cross, 2, 2)

    wc = deriv_weights(1, rt, dc)

    def xi_derivs(vals):
        """(d1, d2) of per-position 2x2 values at the center, via the cross."""
        out = []
        for axis in range(2):
            acc = np.zeros((2, 2))
            block = vals[1 + axis * 2 * rt : 1 + (axis + 1) * 2 * rt]
            col = 0
            for j in range(-rt, rt + 1):
                if j == 0:
                    acc += wc[j + rt] * vals[0]
                    continue
                acc += wc[j + rt] * block[col]
                col += 1
            out.append(acc)
        return out

    d1T, d2T = xi_derivs(T_at0)
    T0 = T_at0[0]

    def constraint_vector(Tn_vals):
        d1, d2 = xi_derivs(Tn_vals)
        A = Tn_vals[0]
        ratio = A[0, 1] / T0[0, 1]
        return np.array(
            [
                d1[1, 0] - d2[0, 0] - ratio * (d1T[1, 0] - d2T[0, 0]),
                d1[1, 1] - d2[0, 1] - ratio * (d1T[1, 1] - d2T[0, 1]),
                A[1, 0] - ratio * T0[1, 0],
                A[1, 1] - A[0, 0] - ratio * (T0[1, 1] - T0[0, 0]),
            ]
        )

    cols = [constraint_vector(Tn_at[n]) for n in indices]
    return float(np.linalg.det(np.column_stack(cols)))
