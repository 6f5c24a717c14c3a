"""Independent numerical pipeline used to cross-validate the series pipeline.

It shares with the series pipeline the rules on what may be asked: the
request rule of ``obstruction_P`` and the base-point rule (``chart``'s
``finite_point`` and ``resolve_frame``, given the stencil gradient), so it
refuses what the series refuses, with the same error.  It owns its numerics
and no jet arithmetic: derivatives come from central finite differences, the
flow map from Runge-Kutta integration, and the obstruction determinant from
the stencil recursion on pointwise-assembled tensors.  Each stencil
derivative is one batched evaluation or slice and one contraction with the
weights of :func:`deriv_weights`.  The numerics are fixed: every stencil has
the step ``STEP`` and the radius ``RADIUS``, and the flow's RK4 step is at
most ``FLOW_DT``.

Its agreement with the series pipeline is measured, not guaranteed.  The
``cross-check`` battery holds 2e-5 relative and its zeros 1e-10 absolute;
cubic-family members ``1 + a x1 + b x1^3 + x3`` with ``a b > 0`` agree within
3e-5 in both frames, while opposite signs reach 1.3e-3 in the graph frame
(``a = 3/2, b = -2``) and 2.2e-4 rotated; random polynomials of degree <= 4
miss by up to 65% (``1 + x3 - x2 x3 - x1^2 x2^2 + 2 x1^4 - 2 x3^3 + 2 x3^2``,
graph frame).  Rounding noise alone is of the order of 1e-3 on small values:
the eight one-ulp antisymmetric changes to the first-derivative weights move
the error for ``1 + x1 + x3 + x1^2 + x2^2`` (P = -1/8) between 5.7e-4 and
1.3e-3 in the graph frame and between 7.2e-4 and 1.4e-3 rotated.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import expr as ex
from .chart import finite_point, resolve_frame
from .errors import DomainError
from .obstruction import DEFAULT_INDICES, _validate_request
from .series import as_double

_E3 = np.eye(3)

# The step of every stencil, in t, along the xi cross, and for the metric and
# every gradient.  It sits at the measured optimum between stencil truncation
# and noise amplified through the recursion's repeated time derivatives.
STEP = 8e-3
# The half-width of every 1-D stencil, which has 2 * RADIUS + 1 nodes.
RADIUS = 2
# The largest RK4 step in t: the flow splits the interval between two records
# (two t nodes, in P_point_fd) into ceil(interval / FLOW_DT) equal steps.
FLOW_DT = 2e-3


@functools.lru_cache(maxsize=None)
def _unit_weights(k: int, radius: int) -> tuple:
    """Exact k-th derivative weights on the nodes -radius..radius, rounded
    once: k! times the x^k coefficient of each Lagrange basis polynomial."""
    nodes = range(-radius, radius + 1)
    out = []
    for j in nodes:
        basis = np.array([Fraction(1)], dtype=object)
        for m in nodes:
            if m != j:
                basis = np.convolve(basis, [Fraction(-m, j - m), Fraction(1, j - m)])
        out.append(as_double(basis[k] * math.factorial(k)))
    return tuple(out)


def deriv_weights(k: int, radius: int, step: float) -> np.ndarray:
    """Weights w with sum_j w[j] f(x + j*step) = f^(k)(x), j = -radius..radius.

    Exact for polynomials of degree <= 2*radius.  The weights are the exact
    rational ones, correctly rounded, so odd orders are exactly antisymmetric
    with a centre weight of 0 and even orders exactly symmetric.
    """
    n = 2 * radius + 1
    if k >= n:
        raise DomainError(f"derivative order {k} needs more than {n} nodes")
    return np.array(_unit_weights(k, radius)) / step**k


@functools.lru_cache(maxsize=None)
def _first_stencil(axes: tuple):
    """The central first-derivative stencil along `axes` without its zero
    centre: the nonzero weights, shape (node,), and the node offsets, shape
    (axis, node, 3).  Built once per axes; read-only, as shared."""
    w = deriv_weights(1, RADIUS, STEP)
    nz = np.flatnonzero(w)
    offsets = ((nz - RADIUS) * STEP)[None, :, None] * _E3[list(axes)][:, None, :]
    weights = w[nz]
    weights.flags.writeable = offsets.flags.writeable = False
    return weights, offsets


def _partials(F, pts, axes=(0, 1, 2)):
    """First partials along `axes` of an R^3 scalar evaluator on an (N, 3)
    batch, shape (N, len(axes)): every stencil node of the batch in one F
    call, contracted once with the central weights (the zero centre skipped)."""
    w, offsets = _first_stencil(tuple(axes))
    vals = F((pts[None, None] + offsets[:, :, None]).reshape(-1, 3))
    return np.einsum("j,ajn->na", w, vals.reshape(len(axes), w.size, -1))


def _flow_batch(F, starts, times, flow_dt: float, records: int = 1):
    """Integrate dx/dt = grad F / |grad F|^2 from each start to its own time,
    recording every trajectory at s = j / records, j = 1..records.

    Reparametrized to s in [0, 1] with per-row speed, advanced by the
    classical 4th-order scheme in ``records * per`` equal steps, where
    ``per = ceil(tmax / records / flow_dt)`` steps lie between records.  The
    gradient is the first-derivative stencil of ``STEP`` and ``RADIUS``.
    Returns the recorded positions, shape (records, N, 3).
    """
    pts = np.array(starts, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64).reshape(-1, 1)
    tmax = float(np.max(np.abs(times)))
    per = max(1, int(math.ceil(tmax / records / flow_dt)))
    ds = 1.0 / (per * records)

    def rhs(x):
        g = _partials(F, x)
        nsq = (g * g).sum(axis=1, keepdims=True)
        if (nsq < 1e-8**2).any():
            raise DomainError("gradient collapsed along a flow trajectory")
        return times * g / nsq

    before = F(pts)
    out = np.empty((records,) + pts.shape)
    for j in range(records):
        for _ in range(per):
            k1 = rhs(pts)
            k2 = rhs(pts + 0.5 * ds * k1)
            k3 = rhs(pts + 0.5 * ds * k2)
            k4 = rhs(pts + ds * k3)
            pts = pts + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[j] = pts
    # the defining property of the flow doubles as a blow-up detector: a
    # trajectory that grazed a critical point cannot meet the increment at
    # the record after it
    elapsed = np.arange(1, records + 1)[:, None] / records * times[:, 0]
    defect = np.abs(F(out.reshape(-1, 3)).reshape(records, -1) - before - elapsed)
    tol = 1e-6 * np.maximum(1.0, np.abs(elapsed))
    if not np.all(np.isfinite(out)) or np.any(defect > tol):
        raise DomainError(
            f"flow integration failed the level-increment check "
            f"(max defect {np.max(defect):.3e}); gradient collapse en route?"
        )
    return out


def numeric_flow(f, bindings, x0, t, dt: float = 1e-2):
    """Flow x0 along grad f / |grad f|^2 for time t (4th-order, fixed step);
    ``dt`` must be finite and positive, and ``t`` finite."""
    if not (0 < dt < math.inf and math.isfinite(t)):
        raise DomainError(f"need a finite dt > 0 and a finite t, got dt = {dt}, t = {t}")

    def F(pts):
        return ex.evaluate(f, bindings, pts)

    x0 = np.asarray(x0, dtype=np.float64)
    single = x0.ndim == 1
    starts = x0[None, :] if single else x0
    times = np.full(starts.shape[0], float(t))
    out = _flow_batch(F, starts, times, dt)[0]
    return out[0] if single else out


def _newton_graph(F, xi, c0):
    """Solve F(xi1, xi2, z) = c0 for z on an (N, 2) batch of xi values, to
    1e-13 relative to max(1, |c0|) in at most 60 Newton steps."""
    z = np.zeros(xi.shape[0])
    for _ in range(60):
        pts = np.column_stack([xi, z])
        val = F(pts) - c0
        slope = _partials(F, pts, axes=(2,))[:, 0]
        if np.any(np.abs(slope) < 1e-10):
            raise DomainError("graph Newton: vertical derivative collapsed")
        z = z - val / slope
        if np.max(np.abs(val)) < 1e-13 * max(1.0, abs(c0)):
            break
    return z


def _cross_offsets():
    """xi offsets of a stencil cross, shape (1 + 4 RADIUS, 2): the center, then
    j STEP along axis 0 and along axis 1 for j = -RADIUS..RADIUS, j != 0."""
    arm = np.delete(np.arange(-RADIUS, RADIUS + 1), RADIUS) * STEP
    out = np.zeros((1 + 4 * RADIUS, 2))
    out[1 : 1 + 2 * RADIUS, 0] = arm
    out[1 + 2 * RADIUS :, 1] = arm
    return out


def _cross_derivs(w, vals):
    """(d1, d2) at the centre of a cross from values at its 1 + 4r positions
    (leading axis, ordered as ``_cross_offsets``), by first-derivative weights
    w whose centre weight is 0."""
    r = w.size // 2
    arms = vals[1:].reshape((2, 2 * r) + vals.shape[1:])
    d1, d2 = np.einsum("j,aj...->a...", np.delete(w, r), arms)
    return d1, d2


def P_point_fd(f, bindings, p, frame: str = "auto", indices=DEFAULT_INDICES) -> float:
    """Degree-0 obstruction coefficient at p, entirely by numerics.

    Builds the evolution tensor on a (t, xi) sample lattice via Newton graph
    solves and flow integration (one trajectory per xi start and direction,
    recorded at every t node), runs the recursion with stencil t-derivatives
    (the usable t-window shrinks by one stencil radius per level), forms the
    constraint vectors with stencil xi-derivatives, and takes the 4x4
    determinant at the origin.  Refusals are the series pipeline's (module
    docstring)."""
    indices, _, _ = _validate_request(0, indices)
    point = finite_point(p)
    p = np.array(point)

    def F_world(pts):
        return ex.evaluate(f, bindings, pts)

    c0 = float(F_world(p[None, :])[0])
    # the stencil gradient stands in for the jet's in the base-point rule
    _, R = resolve_frame(frame, _partials(F_world, p[None, :])[0], c0, point)

    def F(pts):
        return F_world(pts @ R + p)

    t_half = RADIUS * (indices[-1] - 1)  # indices[-1] is the largest
    t_nodes = np.arange(-t_half, t_half + 1, dtype=np.float64) * STEP

    cross = _cross_offsets()
    n_cross = cross.shape[0]

    # unique xi start points (cross position + metric offset), then one batched flow
    xi_all = (cross[:, None, :] + cross[None, :, :]).reshape(-1, 2)
    key = np.round(xi_all / STEP * 4).astype(np.int64)
    _, first_idx, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    xi_uniq = xi_all[first_idx]

    h_uniq = _newton_graph(F, xi_uniq, c0)
    starts_u = np.column_stack([xi_uniq, h_uniq])

    # one trajectory per start and direction, recorded at every t node
    ends = np.repeat([t_nodes[-1], t_nodes[0]], len(starts_u))
    marched = _flow_batch(F, np.tile(starts_u, (2, 1)), ends, FLOW_DT, records=t_half)
    forward, backward = np.split(marched, 2, axis=1)
    flowed = np.concatenate([backward[::-1], starts_u[None], forward]).swapaxes(0, 1)

    # evolution tensor at every (cross position, t node); the metric cross
    # around each position leads, its center first
    x = np.moveaxis(flowed[inverse.reshape(n_cross, n_cross)], 1, 0)
    grad = _partials(F, x[0].reshape(-1, 3)).reshape(n_cross, t_nodes.size, 3)
    dxt = grad / np.sum(grad * grad, axis=-1, keepdims=True)
    w = deriv_weights(1, RADIUS, STEP)
    dxi1, dxi2 = _cross_derivs(w, x)
    g11 = np.sum(dxi1 * dxi1, axis=-1)
    g12 = np.sum(dxi1 * dxi2, axis=-1)
    g22 = np.sum(dxi2 * dxi2, axis=-1)
    det_g = g11 * g22 - g12 * g12
    csg = np.abs(np.sum(dxt * np.cross(dxi1, dxi2), axis=-1))
    pref = (c0 + t_nodes) * csg / det_g
    T_vals = pref[..., None, None] * np.stack(
        [np.stack([-g12, g11], axis=-1), np.stack([-g22, g12], axis=-1)], axis=-2
    )

    # recursion with stencil t-derivatives; valid window shrinks by RADIUS per level
    def ddt(arr):
        windows = np.lib.stride_tricks.sliding_window_view(arr, w.size, axis=1)
        return np.einsum("ctijw,w->ctij", windows, w)

    Tn = T_vals
    lo = 0
    Tn_at = {}
    for n in range(2, indices[-1] + 1):
        dTn = ddt(Tn)
        width = dTn.shape[1]
        trim = (Tn.shape[1] - width) // 2
        core_Tn = Tn[:, trim : trim + width]
        lo += RADIUS
        core_T = T_vals[:, lo : lo + width]
        Tn = dTn + np.einsum("ctij,ctjk->ctik", core_Tn, core_T)
        if n in indices:
            Tn_at[n] = Tn[:, width // 2]  # value at t = 0 per cross position

    T_at0 = T_vals[:, t_half]  # (n_cross, 2, 2)

    d1T, d2T = _cross_derivs(w, T_at0)
    T0 = T_at0[0]

    def constraint_vector(Tn_vals):
        d1, d2 = _cross_derivs(w, Tn_vals)
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
