"""The evolution tensor T, its recursion, and the determinant obstructions.

For a solution dual 1-form beta on the adapted chart, the evolution is
``d/dt beta = T(t) beta`` with

    T = (c0 + t) * chi * sqrt(det g) * [[g^12, g^22], [-g^11, -g^12]]

acting on the component column (beta_1, beta_2).  T and every T_n are plain
2x2 tuples ``((M00, M01), (M10, M11))`` of series, read as ``M[row][col]``:
entry ``[i][j]`` is the tensor component with lower index i+1 and upper index
j+1, so ``T[0][1]`` has upper index 2 and lower index 1.
The recursion ``T_{n+1} = dT_n/dt + T_n T`` generates the coefficients of the
higher time derivatives of beta, and each one yields a linear constraint
``script_T(n) . (beta_1, beta_2, d1 beta_1, d2 beta_1) = 0`` on closed data.
Four of those constraint vectors can only admit a nonzero solution if their
4x4 determinant vanishes: that determinant, restricted to t = 0, is the
obstruction polynomial evaluated here.  The obstruction reads the vectors at
t = 0 only, so they are built as series in (xi1, xi2) on the t = 0 slices of
T and T_n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .chart import ChartData, build_chart
from .errors import BudgetError, DomainError
from .series import TruncatedSeries, as_double

DEFAULT_INDICES = (2, 3, 4, 5)


@dataclass(frozen=True, eq=False)
class ObstructionPoly:
    """Obstruction determinant restricted to t = 0, as a polynomial in xi.

    Values are chart-dependent; only the vanishing locus is geometric.  The
    metadata records the conventions (frame, indices, orders) under which the
    coefficients were produced.
    """

    coeffs: dict
    degree: int
    base_point: tuple
    level: object
    indices: tuple
    t_order: int
    xi_order: int
    frame: str
    kind: object  # series.DOUBLE or series.RATIONAL

    def coeff(self, mono):
        return self.coeffs.get(tuple(mono), self.kind.zero)

    def max_abs(self) -> float | Fraction:
        """The largest coefficient magnitude: a float, or a Fraction in rational mode."""
        return max(map(abs, self.coeffs.values()), default=self.kind.zero)

    def to_json(self) -> dict:
        json = self.kind.json
        monos = sorted(self.coeffs, key=lambda m: (sum(m), m))
        return {
            "base_point": [json(c) for c in self.base_point],
            "level": json(self.level),
            "indices": list(self.indices),
            "degree": self.degree,
            "coeffs": [{"mi": list(m), "c": json(self.coeffs[m])} for m in monos],
            "orders": {"t": self.t_order, "xi": self.xi_order},
            "frame": self.frame,
            "mode": self.kind.name,
        }


def _entrywise(M: tuple, fn) -> tuple:
    """The 2x2 tuple of ``fn`` applied to each entry of M."""
    return tuple(tuple(map(fn, row)) for row in M)


def _matmul(A: tuple, B: tuple) -> tuple:
    """The 2x2 product A B: entry [i][j] is A[i][0] B[0][j] + A[i][1] B[1][j]."""
    return tuple(tuple(a0 * b0 + a1 * b1 for b0, b1 in zip(*B)) for a0, a1 in A)


def tensor_T(chart: ChartData) -> tuple:
    """The evolution tensor of the chart, at the metric truncation order."""
    order = chart.chi_sqrt_detg.order
    tvar = TruncatedSeries.variable(chart.x[0].vars, order, "t", chart.bp.kind)
    prefactor = (tvar + chart.level) * chart.chi_sqrt_detg
    t01 = prefactor * chart.ginv12
    T = ((t01, prefactor * chart.ginv22), (-(prefactor * chart.ginv11), -t01))
    if as_double(chart.level) > 0 and as_double(T[0][1].constant_term()) <= 0:
        raise DomainError("evolution tensor entry (0,1) lost positivity")
    return T


def _recursion_step(T: tuple, Tn: tuple, n: int) -> tuple:
    """T_{n+1} = dT_n/dt + T_n T, one t-order below T_n."""
    a, b = Tn[0][0].order
    if a < 1:
        raise BudgetError(f"recursion to n={n + 1} needs t_order >= {n}, "
                          f"have {T[0][0].order[0]}", required={"t_order": n})

    def cut(e):
        return e.truncate((a - 1, b))

    product = _matmul(_entrywise(Tn, cut), _entrywise(T, cut))
    return tuple(tuple(e.derive("t") + p for e, p in zip(row, prow))
                 for row, prow in zip(Tn, product))


def tensor_Tn(T: tuple, n: int) -> tuple:
    """n-th tensor of the recursion; consumes one t-order per step."""
    if n < 1:
        raise DomainError("recursion index must be >= 1")
    Tn = T
    for k in range(1, n):
        Tn = _recursion_step(T, Tn, k)
    return Tn


def script_Tn(T: tuple, Tn: tuple) -> tuple:
    """Constraint 4-vector of T_n against T: four series multiplying
    (beta1, beta2, d1 beta1, d2 beta1); costs one xi-order.

    Works on the (t, xi) series and on their t = 0 slices alike.  Division is
    by the [0][1] entry of T, whose constant term is guaranteed nonzero away
    from the zero level set.
    """
    return _constraint(_pivot_terms(T, Tn[0][0].order), Tn)


def _bracket(M: tuple, low):
    """(d1 M10 - d2 M00, d1 M11 - d2 M01, M10, M11 - M00), cut to ``low``."""
    (m00, m01), (m10, m11) = M
    return (m10.derive("xi1") - m00.derive("xi2"),
            m11.derive("xi1") - m01.derive("xi2"),
            m10.truncate(low),
            m11.truncate(low) - m00.truncate(low))


def _pivot_terms(T: tuple, order) -> tuple:
    """What every constraint vector against T at ``order`` shares: the order
    one xi-order down, the reciprocal of T's pivot entry [0][1] there, and
    the bracket of T."""
    pivot = T[0][1]
    if pivot.kind.negligible(pivot.constant_term(), 1e-12):
        raise DomainError("pivot entry of T has (near-)zero constant term")
    Tl = _entrywise(T, lambda e: e.truncate(order))
    low = Tl[0][0].derive("xi1").order
    return low, Tl[0][1].truncate(low).reciprocal(), _bracket(Tl, low)


def _constraint(shared: tuple, Tn: tuple) -> tuple:
    low, inverse_pivot, bracket_T = shared
    ratio = Tn[0][1].truncate(low) * inverse_pivot
    return tuple(a - ratio * b for a, b in zip(_bracket(Tn, low), bracket_T))


def hierarchy_vectors(chart: ChartData, indices) -> dict:
    """Constraint 4-vectors ``{n: (c1, c2, c3, c4)}``, sharing work, as series
    in (xi1, xi2) at t = 0: T is cut to the t-degrees the recursion to the
    largest index reads, each T_n is sliced before its constraint is built,
    and the pivot's reciprocal and the bracket of T are built once."""
    indices = tuple(indices)
    if min(indices) < 2:
        raise DomainError(f"recursion indices must be >= 2, got {indices}")
    T = tensor_T(chart)
    a, b = T[0][0].order
    T = _entrywise(T, lambda e: e.truncate((min(a, max(indices) - 1), b)))

    def at_zero(e):
        return e.slice_at_zero("t")

    T0 = _entrywise(T, at_zero)
    shared = _pivot_terms(T0, T0[0][0].order)  # every T_n slice has the order of T0
    out = {}
    Tn = T
    for n in range(2, max(indices) + 1):
        Tn = _recursion_step(T, Tn, n - 1)
        if n in indices:
            out[n] = _constraint(shared, _entrywise(Tn, at_zero))
    return out


def det4(columns) -> TruncatedSeries:
    """Determinant of four 4-component series columns (Laplace by 2x2 blocks)."""
    M = [[columns[c][r] for c in range(4)] for r in range(4)]
    result = None
    cols = (0, 1, 2, 3)
    for c1, c2 in itertools.combinations(cols, 2):
        c3, c4 = [c for c in cols if c not in (c1, c2)]
        sign = (-1) ** (c1 + c2 + 1)
        top = M[0][c1] * M[1][c2] - M[0][c2] * M[1][c1]
        bot = M[2][c3] * M[3][c4] - M[2][c4] * M[3][c3]
        term = top * bot
        if sign < 0:
            term = -term
        result = term if result is None else result + term
    return result


def minimum_orders(degree: int, max_index: int) -> dict:
    """Smallest order pair that leaves the requested polynomial exact: the
    recursion to T_n reads t-degrees up to n - 1, and the constraint vectors
    take one xi-derivative of the polynomial's degree."""
    return {"t_order": max_index - 1, "xi_order": degree + 1}


# The largest recursion index a request may name.  The pair budget (MAX_PAIRS)
# bounds one product, not a run, and a large l still gets through it.  Single
# runs on 2 CPUs: rational ``1+x1^2+x2^2+x3+x1^4*x2`` at degree 1 took 1.6 s
# with l = 20 and 35.7 s with l = 40; double ``1+x1^2+x3`` at degree 0 with
# l = 200 ran 60.3 s and then overflowed; double runs at the pair limit took
# 2.2-3.8 s for each l in 8, 12, 16, 20 and 24.
MAX_INDEX = 24


def _validate_request(degree, indices, t_order=None, xi_order=None) -> tuple:
    """``(indices, t_order, xi_order)`` after the one rule on what may be
    asked: four integer indices MAX_INDEX >= l > k > j > i >= 2, degree >= 0,
    and t_order and xi_order each reaching the bound of ``minimum_orders``.
    An order left as None is resolved to that bound."""
    try:
        indices = tuple(indices)
        whole = tuple(map(int, indices))
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole != indices:  # 5.5 is not rounded to 5, nor "5" read as 5
        raise DomainError(f"indices must be integers, got {indices!r}")
    indices = whole
    if len(indices) != 4 or any(b <= a for a, b in zip(indices, indices[1:])) or indices[0] < 2:
        raise DomainError(f"indices must satisfy l > k > j > i >= 2, got {indices}")
    if indices[-1] > MAX_INDEX:
        raise BudgetError(f"recursion index l={indices[-1]} exceeds the limit {MAX_INDEX}")
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    need = minimum_orders(degree, max(indices))
    t_order = need["t_order"] if t_order is None else t_order
    xi_order = need["xi_order"] if xi_order is None else xi_order
    if t_order < need["t_order"] or xi_order < need["xi_order"]:
        raise BudgetError(
            f"orders (t={t_order}, xi={xi_order}) insufficient for degree {degree} "
            f"with indices {indices}; need t_order >= {need['t_order']} and "
            f"xi_order >= {need['xi_order']}",
            required=need,
        )
    return indices, t_order, xi_order


def obstruction_from_chart(chart: ChartData, degree: int,
                           indices=DEFAULT_INDICES) -> ObstructionPoly:
    indices, _, _ = _validate_request(degree, indices, chart.t_order, chart.xi_order)
    vectors = hierarchy_vectors(chart, indices)
    # every constraint vector is a t = 0 series in xi at xi-order
    # xi_order - 1 >= degree; the determinant reads it through degree
    det = det4([tuple(c.truncate(degree) for c in vectors[n]) for n in indices])
    coeffs = dict(det.nonzero_terms())
    return ObstructionPoly(
        coeffs=coeffs,
        degree=degree,
        base_point=chart.bp.point,
        level=chart.level,
        indices=indices,
        t_order=chart.t_order,
        xi_order=chart.xi_order,
        frame=chart.bp.frame,
        kind=chart.bp.kind,
    )


def obstruction_P(f, bindings, p, degree: int = 4, t_order: int | None = None,
                  xi_order: int | None = None, frame: str = "auto",
                  mode: str = "double", indices=DEFAULT_INDICES) -> ObstructionPoly:
    """Hierarchy member at t = 0: the determinant of the constraint vectors
    (i, j, k, l) = ``indices``; the default (2, 3, 4, 5) gives P.

    The chart is built at the orders the polynomial reads: an order left as
    None is the bound of ``minimum_orders(degree, max(indices))``, which is
    ``(4, degree + 1)`` for P.  A given order must reach that bound; larger
    ones give the same coefficients at more cost.  Either way the result's
    orders are those of the chart built.
    """
    indices, t_order, xi_order = _validate_request(degree, indices, t_order, xi_order)
    chart = build_chart(f, bindings, p, t_order=t_order, xi_order=xi_order,
                        frame=frame, mode=mode)
    return obstruction_from_chart(chart, degree, indices)


# -- closed-form checks on potentials ----------------------------------------

def dT_beta(chart: ChartData, Tn: tuple, psi: TruncatedSeries,
            T: tuple | None = None) -> TruncatedSeries:
    """Coefficient of d(T_n beta) w.r.t. dxi1 ^ dxi2, for beta = d psi.

    Given the base tensor ``T``, the d2 beta_2 occurrence is replaced by its
    value isolated from d(T beta) = 0, which turns the result into the dot
    product of the constraint vector with (beta1, beta2, d1 beta1, d2 beta1).
    """
    beta1 = psi.derive("xi1")
    beta2 = psi.derive("xi2")
    top = tuple(map(min, beta1.order, Tn[0][0].order))
    b1 = beta1.truncate(top)
    b2 = beta2.truncate(top)
    A = _entrywise(Tn, lambda e: e.truncate(top))
    if T is None:
        row2 = A[1][0] * b1 + A[1][1] * b2
        row1 = A[0][0] * b1 + A[0][1] * b2
        return row2.derive("xi1") - row1.derive("xi2")
    B = _entrywise(T, lambda e: e.truncate(top))

    def low(s):
        return s.truncate((top[0], top[1] - 1))

    d1b1 = b1.derive("xi1")
    d2b1 = b1.derive("xi2")
    # d2 beta2 isolated from the n = 1 constraint
    pivot = low(B[0][1]).reciprocal()
    d2b2 = pivot * (
        (B[1][0].derive("xi1") - B[0][0].derive("xi2")) * low(b1)
        + (B[1][1].derive("xi1") - B[0][1].derive("xi2")) * low(b2)
        + low(B[1][0]) * d1b1
        + (low(B[1][1]) - low(B[0][0])) * d2b1
    )
    return (
        (A[1][0].derive("xi1") - A[0][0].derive("xi2")) * low(b1)
        + (A[1][1].derive("xi1") - A[0][1].derive("xi2")) * low(b2)
        + low(A[1][0]) * d1b1
        + (low(A[1][1]) - low(A[0][0])) * d2b1
        - low(A[0][1]) * d2b2
    )


def divergence_form_rhs(chart: ChartData, psi: TruncatedSeries) -> TruncatedSeries:
    """-(c0 + t) * d_i(chi sqrt(g) g^{ij} d_j psi): the surface Laplacian plus
    the log-chi advection term of d(T d psi), assembled in divergence form so
    it stays rational for rational charts."""
    top = tuple(map(min, psi.derive("xi1").order, chart.ginv11.order))
    b1 = psi.derive("xi1").truncate(top)
    b2 = psi.derive("xi2").truncate(top)
    csg = chart.chi_sqrt_detg.truncate(top)
    G1 = chart.ginv11.truncate(top) * b1 + chart.ginv12.truncate(top) * b2
    G2 = chart.ginv12.truncate(top) * b1 + chart.ginv22.truncate(top) * b2
    div = (csg * G1).derive("xi1") + (csg * G2).derive("xi2")
    tvar = TruncatedSeries.variable(div.vars, div.order, "t", chart.bp.kind)
    return -((tvar + chart.level) * div)
