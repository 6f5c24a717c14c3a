import itertools

import numpy as np
import pytest
from fractions import Fraction

from beltrami import expr as ex
from beltrami.chart import CHART_VARS, build_chart
from beltrami.errors import BudgetError, DomainError
from beltrami.obstruction import (
    _validate_request,
    det4,
    divergence_form_rhs,
    dT_beta,
    hierarchy_vectors,
    minimum_orders,
    obstruction_P,
    script_Tn,
    tensor_T,
    tensor_Tn,
)
from beltrami.reference import (
    cubic_family_c4_pure,
    cubic_family_coeffs,
    quadratic_family_form,
)
from beltrami.series import DOUBLE, RATIONAL, TruncatedSeries, _Space

ORIGIN = (0, 0, 0)


def flat_chart(orders=(4, 4)):
    return build_chart(ex.parse("1+x3"), None, ORIGIN, t_order=orders[0], xi_order=orders[1],
                       frame="rotated")


def test_tensor_T_flat():
    T = tensor_T(flat_chart())
    order = T.order
    t = TruncatedSeries.variable(CHART_VARS, order, "t")
    assert T.entry(0, 1).equals(t + 1.0)
    assert T.entry(1, 0).equals(-(t + 1.0))
    assert T.entry(0, 0).max_abs() == 0.0
    assert T.entry(1, 1).max_abs() == 0.0


def test_tensor_T_affine_rotated():
    a = 1.0
    ch = build_chart(ex.parse("1+a*x1+x3"), {"a": a}, ORIGIN, t_order=3, xi_order=3,
                     frame="rotated")
    T = tensor_T(ch)
    scale = 1.0 / np.sqrt(1.0 + a * a)
    t = TruncatedSeries.variable(CHART_VARS, T.order, "t")
    expect = (t + 1.0) * scale
    assert np.max(np.abs(T.entry(0, 1).coeffs - expect.coeffs)) < 1e-12
    assert np.max(np.abs(T.entry(1, 0).coeffs + expect.coeffs)) < 1e-12
    assert T.entry(0, 0).max_abs() < 1e-14
    assert T.entry(1, 1).max_abs() < 1e-14


def test_tensor_T_trace_free():
    rng = np.random.default_rng(5)
    for _ in range(3):
        c = rng.integers(-2, 3, size=4)
        f = ex.parse(
            f"1 + x3 + ({c[0]})*x1 + ({c[1]})*x2^2 + ({c[2]})*x1*x2 + ({c[3]})*x1^3"
        )
        T = tensor_T(build_chart(f, None, ORIGIN, t_order=3, xi_order=3, frame="rotated"))
        trace = T.entry(0, 0) + T.entry(1, 1)
        assert trace.max_abs() < 1e-12


def test_tensor_Tn_base_case_and_flat_T2():
    T = tensor_T(flat_chart())
    assert tensor_Tn(T, 1) is T
    T2 = tensor_Tn(T, 2)
    # T2 = J - (1+t)^2 I in the rotation algebra
    order = T2.order
    t = TruncatedSeries.variable(CHART_VARS, order, "t")
    sq = -((t + 1.0) * (t + 1.0))
    assert np.max(np.abs(T2.entry(0, 0).coeffs - sq.coeffs)) < 1e-14
    assert np.max(np.abs(T2.entry(1, 1).coeffs - sq.coeffs)) < 1e-14
    assert T2.entry(0, 1).equals(TruncatedSeries.constant(CHART_VARS, order, 1.0))
    assert T2.entry(1, 0).equals(TruncatedSeries.constant(CHART_VARS, order, -1.0))


def test_tensor_Tn_budget():
    T = tensor_T(flat_chart((2, 2)))
    with pytest.raises(BudgetError):
        tensor_Tn(T, T.order[0] + 2)


def test_script_Tn_vanishes_flat_and_affine():
    for text, bindings in (("1+x3", None), ("1+a*x1+x3", {"a": 2.0})):
        ch = build_chart(ex.parse(text), bindings, ORIGIN, t_order=5, xi_order=3,
                         frame="auto")
        T = tensor_T(ch)
        for n in (1, 2, 3, 4):
            cv = script_Tn(T, tensor_Tn(T, n))
            assert max(c.max_abs() for c in cv) < 1e-12, (text, n)


def test_script_T1_vanishes_generic():
    rng = np.random.default_rng(17)
    for _ in range(4):
        c = rng.integers(-2, 3, size=5)
        f = ex.parse(
            f"1 + x3 + ({c[0]})*x1 + ({c[1]})*x2 + ({c[2]})*x1^2 + ({c[3]})*x2^3"
            f" + ({c[4]})*x1*x2*x3"
        )
        ch = build_chart(f, None, ORIGIN, t_order=4, xi_order=4, frame="rotated")
        T = tensor_T(ch)
        cv = script_Tn(T, T)
        assert max(c.max_abs() for c in cv) < 1e-10


def test_cubic_family_double():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
        P = obstruction_P(f, {"a": a, "b": b}, ORIGIN, degree=3, frame="graph")
        refs = cubic_family_coeffs(a, b)
        for j in range(4):
            ref = float(refs[j])
            assert abs(P.coeff((j, 0)) - ref) <= 1e-9 * max(1.0, abs(ref)), (a, b, j)
        assert max((abs(v) for m, v in P.coeffs.items() if m[1] != 0), default=0.0) < 1e-9


def test_cubic_family_exact():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    a, b = Fraction(1), Fraction(-1)
    P = obstruction_P(f, {"a": a, "b": b}, ORIGIN, degree=3, frame="graph",
                      mode="rational")
    refs = cubic_family_coeffs(a, b)
    for j in range(4):
        assert P.coeff((j, 0)) == refs[j]
    assert P.coeff((0, 0)) == Fraction(81, 32)  # spot: -5184*(15+14-36-1)/2^14


def test_cubic_family_c4_pure_term():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    P = obstruction_P(f, {"a": Fraction(0), "b": Fraction(2)}, ORIGIN, degree=4,
                      frame="graph", mode="rational")
    assert P.coeff((4, 0)) == cubic_family_c4_pure(2)
    for j in range(4):
        assert P.coeff((j, 0)) == 0


def test_quadratic_family_exact_and_degenerate():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    for a in (Fraction(0), Fraction(2)):
        P = obstruction_P(f, {"a": a}, ORIGIN, degree=2, frame="graph", mode="rational")
        q20, q11, q02 = quadratic_family_form(a)
        assert P.coeff((2, 0)) == q20
        assert P.coeff((1, 1)) == q11
        assert P.coeff((0, 2)) == q02
        assert all(v == 0 for m, v in P.coeffs.items() if sum(m) < 2)
    P1 = obstruction_P(f, {"a": Fraction(1)}, ORIGIN, degree=2, frame="graph",
                       mode="rational")
    assert P1.max_abs() == 0


def test_quadratic_family_spot_value():
    # at a = 0 the only surviving quadratic coefficient is 1024 * 33
    assert quadratic_family_form(0) == (Fraction(33792), Fraction(0), Fraction(0))


def test_affine_vanishing_all_indices():
    f = ex.parse("1+a*x1+x3")
    for a in (0.0, 1.0, 3.0):
        P = obstruction_P(f, {"a": a}, ORIGIN, degree=4, frame="graph")
        assert P.max_abs() < 1e-12
        H = obstruction_P(f, {"a": a}, ORIGIN, degree=4, frame="graph", indices=(2, 3, 4, 6))
        assert H.max_abs() < 1e-12


def test_rational_zero_P_has_a_fraction_max_abs():
    # the affine family's P is identically 0: its size is the mode's own zero
    f = ex.parse("1+a*x1+x3")
    P = obstruction_P(f, {"a": Fraction(1)}, ORIGIN, degree=2, frame="graph", mode="rational")
    assert P.coeffs == {}
    assert type(P.max_abs()) is Fraction and P.max_abs() == 0
    P = obstruction_P(f, {"a": 1.0}, ORIGIN, degree=2, frame="graph")
    assert type(P.max_abs()) is float and P.max_abs() == 0.0


def test_rational_mode_rejects_a_float_point():
    # a float coordinate is refused like a float binding, not expanded into
    # the hundreds of digits of its binary value
    f = ex.parse("1+a*x1+x3+x1^2")
    bindings = {"a": Fraction(1, 2)}
    for point in ((0.1, 0, 0), (0, 0, 0.5)):
        with pytest.raises(DomainError):
            ex.jet(f, bindings, point, 1, mode="rational")
        with pytest.raises(DomainError):
            obstruction_P(f, bindings, point, degree=0, frame="graph", mode="rational")
    P = obstruction_P(f, bindings, (Fraction(1, 10), 0, 0), degree=0, frame="graph",
                      mode="rational")
    assert P.base_point == (Fraction(1, 10), Fraction(0), Fraction(0))


def test_general_affine_family_vanishes():
    # lambda + a . x with a general direction, offset base point, both frames
    f = ex.parse("2 + x1 - x2 + 3*x3")
    for frame in ("graph", "rotated"):
        P = obstruction_P(f, None, (0.1, 0.2, -0.1), degree=4, frame=frame)
        assert P.max_abs() < 1e-10, frame


def test_pijkl_default_indices_coincide_with_P():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    P = obstruction_P(f, {"a": 2.0}, ORIGIN, degree=2, frame="graph")
    H = obstruction_P(f, {"a": 2.0}, ORIGIN, degree=2, frame="graph", indices=(2, 3, 4, 5))
    for m in set(P.coeffs) | set(H.coeffs):
        assert P.coeff(m) == H.coeff(m)


def test_pijkl_index_validation():
    f = ex.parse("1+x1^2+x3")
    with pytest.raises(DomainError):
        obstruction_P(f, None, ORIGIN, indices=(1, 2, 3, 4))
    with pytest.raises(DomainError):
        obstruction_P(f, None, ORIGIN, indices=(2, 2, 3, 4))


def test_hierarchy_vectors_are_t0_slices():
    # the vectors are built on the t = 0 slices of T and T_n, and equal the
    # t = 0 slice of the vectors of the full (t, xi) series
    f = ex.parse("1+a*x1+b*x1^3+x3")
    chart = build_chart(f, {"a": Fraction(3, 2), "b": Fraction(-2)}, ORIGIN,
                        t_order=6, xi_order=6, frame="graph", mode="rational")
    T = tensor_T(chart)
    vectors = hierarchy_vectors(chart, (2, 3, 4, 5))
    for n in (2, 3, 4, 5):
        full = script_Tn(T, tensor_Tn(T, n))
        for got, want in zip(vectors[n], full):
            assert got.vars == ("xi1", "xi2")
            assert got.equals(want.slice_at_zero("t")), n


def test_hierarchy_vectors_input_errors():
    with pytest.raises(DomainError):
        hierarchy_vectors(flat_chart(), (1, 2, 3, 4))
    # t_order 3 reaches T_4 at most
    with pytest.raises(BudgetError):
        hierarchy_vectors(flat_chart((3, 4)), (2, 3, 4, 5))


def test_determinant_antisymmetry():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    chart = build_chart(f, {"a": Fraction(1), "b": Fraction(1)}, ORIGIN,
                        t_order=6, xi_order=6, frame="graph", mode="rational")
    vectors = hierarchy_vectors(chart, (2, 3, 4, 5))
    cols = [vectors[n] for n in (2, 3, 4, 5)]
    common = min(c[0].order for c in cols)
    cols = [tuple(s.truncate(common) for s in col) for col in cols]
    base = det4(cols)
    swapped = det4([cols[1], cols[0], cols[2], cols[3]])
    assert (base + swapped).max_abs() == 0
    # odd permutation of three columns: two transpositions, sign +1
    cycled = det4([cols[1], cols[2], cols[0], cols[3]])
    assert (base - cycled).max_abs() == 0


def test_det4_against_numpy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = rng.normal(size=(4, 4))
        cols = [
            tuple(
                TruncatedSeries.constant(("xi1", "xi2"), 1, M[r, c]) for r in range(4)
            )
            for c in range(4)
        ]
        val = det4(cols).constant_term()
        assert abs(val - np.linalg.det(M)) < 1e-10 * max(1.0, abs(np.linalg.det(M)))


def test_budget_validation():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    with pytest.raises(BudgetError) as err:
        obstruction_P(f, {"a": 1.0, "b": 1.0}, ORIGIN, degree=4, t_order=3,
                      xi_order=3, frame="graph")
    assert err.value.required["t_order"] == 4
    assert minimum_orders(4, 5) == {"t_order": 4, "xi_order": 5}


def test_budget_rule_runs_before_the_chart(monkeypatch):
    # both bounds bind before any series is built, and the message names both
    def no_chart(*args, **kwargs):
        raise AssertionError("chart built before the budget check")

    monkeypatch.setattr("beltrami.obstruction.build_chart", no_chart)
    f = ex.parse("1+x1^2+x3")
    with pytest.raises(BudgetError) as err:
        obstruction_P(f, None, ORIGIN, degree=4, t_order=3, xi_order=5)
    assert "t_order >= 4 and xi_order >= 5" in str(err.value)
    for t_order, xi_order in ((3, 7), (5, 4)):
        with pytest.raises(BudgetError):
            obstruction_P(f, None, ORIGIN, degree=4, t_order=t_order, xi_order=xi_order,
                          indices=(2, 3, 4, 5))
    with pytest.raises(DomainError):
        obstruction_P(f, None, ORIGIN, degree=-1)
    # so does the bound on the recursion index, which admits l = 24
    with pytest.raises(BudgetError):
        obstruction_P(f, None, ORIGIN, degree=0, indices=(2, 3, 4, 25))
    assert _validate_request(0, (2, 3, 4, 24)) == ((2, 3, 4, 24), 23, 1)


def test_order_stability():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    P = obstruction_P(f, {"a": 2.0}, ORIGIN, degree=2, t_order=6, xi_order=6,
                      frame="graph")
    Q = obstruction_P(f, {"a": 2.0}, ORIGIN, degree=2, t_order=8, xi_order=8,
                      frame="graph")
    for m in set(P.coeffs) | set(Q.coeffs):
        ref = max(1.0, abs(float(Q.coeff(m))))
        assert abs(float(P.coeff(m)) - float(Q.coeff(m))) < 1e-9 * ref


def test_obstruction_json_schema():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    P = obstruction_P(f, {"a": 2.0}, ORIGIN, degree=2, frame="graph")
    data = P.to_json()
    assert data["indices"] == [2, 3, 4, 5]
    assert data["degree"] == 2
    # the orders the chart was built at: minimum_orders(2, 5)
    assert data["orders"] == {"t": 4, "xi": 3}
    assert all(len(entry["mi"]) == 2 for entry in data["coeffs"])


# -- potential-based closed-form checks ---------------------------------------


def _psi_series(order=(9, 9), exact=False, seed=None):
    if seed is None:
        terms = {(0, 2, 0): 1, (0, 0, 2): 1}
    else:
        rng = np.random.default_rng(seed)
        terms = {}
        space_monos = [(i, j, k) for i in range(3) for j in range(4) for k in range(4)]
        for m in space_monos:
            c = int(rng.integers(-2, 3))
            if c:
                terms[m] = c
    return TruncatedSeries.from_terms(CHART_VARS, order, terms, kind=RATIONAL if exact else DOUBLE)


def test_dT_beta_flat_laplacian():
    ch = flat_chart()
    T = tensor_T(ch)
    psi = _psi_series(order=(6, 6))
    out = dT_beta(ch, T, psi)
    # -(1+t) * (Lap psi) with Lap psi = 4
    t = TruncatedSeries.variable(CHART_VARS, out.order, "t")
    expect = (t + 1.0) * (-4.0)
    assert np.max(np.abs(out.coeffs - expect.coeffs)) < 1e-12


def test_dT_beta_constant_potential():
    ch = flat_chart()
    T = tensor_T(ch)
    psi = TruncatedSeries.constant(CHART_VARS, (6, 6), 3.5)
    assert dT_beta(ch, T, psi).max_abs() == 0.0


def _gamma_dot(cv, psi, order):
    beta1 = psi.derive("xi1")
    beta2 = psi.derive("xi2")
    parts = [
        beta1.truncate(order),
        beta2.truncate(order),
        beta1.derive("xi1").truncate(order),
        beta1.derive("xi2").truncate(order),
    ]
    total = TruncatedSeries.zeros(CHART_VARS, order, kind=psi.kind)
    for comp, gamma in zip(cv, parts):
        total = total + comp.truncate(order) * gamma
    return total


@pytest.mark.parametrize("n", [2, 3])
def test_two_path_identity(n):
    f = ex.parse("1 + x3 + x1^2 - x2^2 + x1*x2*x3")
    ch = build_chart(f, None, ORIGIN, t_order=5, xi_order=5, frame="rotated")
    T = tensor_T(ch)
    Tn = tensor_Tn(T, n)
    psi = _psi_series(seed=23 + n)
    direct = dT_beta(ch, Tn, psi, T=T)
    cv = script_Tn(T, Tn)
    order = tuple(map(min, direct.order, cv[0].order))
    dotted = _gamma_dot(cv, psi, order)
    scale = max(1.0, dotted.max_abs())
    assert np.max(np.abs(direct.truncate(order).coeffs - dotted.coeffs)) < 1e-9 * scale


@pytest.mark.parametrize("n", [2, 3])
def test_raw_vs_eliminated_decomposition(n):
    # d(T_n beta) = Gamma . script_T(n) + (T_n)的pivot/T pivot * d(T beta)
    f = ex.parse("1 + x3 + x1^2 + 2*x2^2 + x1^3")
    ch = build_chart(f, None, ORIGIN, t_order=5, xi_order=5, frame="graph")
    T = tensor_T(ch)
    Tn = tensor_Tn(T, n)
    psi = _psi_series(seed=5)
    raw_n = dT_beta(ch, Tn, psi)
    raw_1 = dT_beta(ch, T, psi)
    cv = script_Tn(T, Tn)
    order = tuple(map(min, raw_n.order, cv[0].order, raw_1.order))
    ratio = Tn.entry(0, 1).truncate(order) * T.entry(0, 1).truncate(order).reciprocal()
    recomposed = _gamma_dot(cv, psi, order) + ratio * raw_1.truncate(order)
    scale = max(1.0, recomposed.max_abs())
    assert np.max(np.abs(raw_n.truncate(order).coeffs - recomposed.coeffs)) < 1e-9 * scale


def test_divergence_form_identity_exact():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    ch = build_chart(f, {"a": Fraction(3)}, ORIGIN, t_order=4, xi_order=4,
                     frame="graph", mode="rational")
    T = tensor_T(ch)
    psi = _psi_series(order=(7, 7), exact=True)
    raw = dT_beta(ch, T, psi)
    rhs = divergence_form_rhs(ch, psi)
    order = tuple(map(min, raw.order, rhs.order))
    assert raw.truncate(order).equals(rhs.truncate(order))


def test_divergence_form_vs_explicit_laplacian():
    # double mode: assemble the Laplacian and the log-chi advection explicitly
    # through sqrt/log series and compare against the divergence form
    from beltrami.series import apply_univariate
    import math

    f = ex.parse("1 + x3 + x1^2 - x2^3 + x1*x2")
    ch = build_chart(f, None, ORIGIN, t_order=4, xi_order=4, frame="rotated")
    T = tensor_T(ch)
    psi = _psi_series(seed=41)
    raw = dT_beta(ch, T, psi)

    order = ch.chi2.order
    chi = ch.chi2.sqrt()
    sqrt_g = ch.detg.sqrt()
    c = float(chi.constant_term())
    log_table = [math.log(c)] + [
        (-1.0) ** (k + 1) / (k * c**k) for k in range(1, sum(order) + 1)
    ]
    log_chi = apply_univariate(chi, log_table)
    b1 = psi.derive("xi1").truncate(order)
    b2 = psi.derive("xi2").truncate(order)
    G1 = ch.ginv11 * b1 + ch.ginv12 * b2
    G2 = ch.ginv12 * b1 + ch.ginv22 * b2
    low = (order[0], order[1] - 1)  # after one xi-derivative
    lap = (
        (sqrt_g * G1).derive("xi1") + (sqrt_g * G2).derive("xi2")
    ) * sqrt_g.truncate(low).reciprocal()
    dlog1, dlog2 = log_chi.derive("xi1"), log_chi.derive("xi2")
    advect = (
        ch.ginv11.truncate(low) * dlog1 + ch.ginv12.truncate(low) * dlog2
    ) * b1.truncate(low) + (
        ch.ginv12.truncate(low) * dlog1 + ch.ginv22.truncate(low) * dlog2
    ) * b2.truncate(low)
    t = TruncatedSeries.variable(CHART_VARS, low, "t")
    explicit = -(
        (t + float(ch.level)) * chi.truncate(low) * (lap + advect) * sqrt_g.truncate(low)
    )
    order2 = tuple(map(min, raw.order, explicit.order))
    scale = max(1.0, explicit.max_abs())
    assert (
        np.max(np.abs(raw.truncate(order2).coeffs - explicit.truncate(order2).coeffs))
        < 1e-9 * scale
    )


def test_rational_quadratic_product_budget(monkeypatch):
    # operation counts are deterministic, so a budget on them catches a
    # performance regression without timing
    products = 0
    mul = TruncatedSeries.__mul__

    def counting(a, b):
        nonlocal products
        products += isinstance(b, TruncatedSeries)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    f = ex.parse("1+x1^2+a*x2^2+x3")
    obstruction_P(f, {"a": Fraction(2)}, ORIGIN, degree=2, t_order=6, xi_order=6,
                  frame="graph", mode="rational")
    # 281 when every Picard sweep ran at the flow's full order, 229 when each
    # constraint vector inverted the pivot again and tensor_T formed T01 twice
    assert products <= 210


def test_rational_quadratic_default_order_budget(monkeypatch):
    # the default call builds at minimum_orders(2, 5) = (4, 3): fewer products
    # than at (6, 6), and each over a much smaller pair table
    products, tables = 0, []
    mul, fetch = TruncatedSeries.__mul__, _Space.pairs

    def counting(a, b):
        nonlocal products
        products += isinstance(b, TruncatedSeries)
        return mul(a, b)

    def fetching(space):
        tables.append(space.npairs)
        return fetch(space)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    monkeypatch.setattr(_Space, "pairs", fetching)
    f = ex.parse("1+x1^2+a*x2^2+x3")
    P = obstruction_P(f, {"a": Fraction(2)}, ORIGIN, degree=2, frame="graph", mode="rational")
    assert (P.t_order, P.xi_order) == (4, 3)
    # 243 products when every Picard sweep ran at the flow's full order, and
    # 203 when each constraint vector inverted the pivot again and tensor_T
    # formed T01 twice.  The products with a constant factor are scalings;
    # only the others fetch a pair table
    assert products <= 190
    assert len(tables) <= 158
    assert sum(tables) <= 42_359


def test_rational_quadratic_fraction_budget(monkeypatch):
    # exact series hold integer numerators over one denominator; Fractions are
    # made only at the boundary (13,137 at the default orders when every
    # coefficient was a Fraction)
    made = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    f = ex.parse("1+x1^2+a*x2^2+x3")
    bindings = {"a": Fraction(2)}
    monkeypatch.setattr(Fraction, "__new__", counting)
    obstruction_P(f, bindings, ORIGIN, degree=2, frame="graph", mode="rational")
    assert made <= 96


@pytest.mark.parametrize("text, bindings, point, degree, frame, mode", [
    ("1+a*x1+b*x1^3+x3", {"a": Fraction(3, 2), "b": Fraction(-2)}, ORIGIN, 3, "graph",
     "rational"),
    ("1+x1^2+a*x2^2+x3", {"a": Fraction(2)}, ORIGIN, 2, "graph", "rational"),
    ("1+x1^2+a*x2^2+x3", {"a": Fraction(2)}, ORIGIN, 4, "graph", "rational"),
    ("1+sin(x1)+exp(x2)*x3+x3", None, (0.1, 0.2, 0.0), 3, "rotated", "double"),
])
def test_minimum_orders_are_enough(text, bindings, point, degree, frame, mode):
    # P at t_order = max(indices) - 1 and xi_order = degree + 1 equals P at
    # larger orders; at degree 4 that is (4, 5), below t_order + xi_order = 10
    f = ex.parse(text)
    low = obstruction_P(f, bindings, point, degree=degree, frame=frame, mode=mode,
                        **minimum_orders(degree, 5))
    for t_order, xi_order in ((6, 6), (8, 8)):
        high = obstruction_P(f, bindings, point, degree=degree, t_order=t_order,
                             xi_order=xi_order, frame=frame, mode=mode)
        if mode == "rational":
            assert low.coeffs == high.coeffs
        else:
            monos = set(low.coeffs) | set(high.coeffs)
            err = max(abs(low.coeff(m) - high.coeff(m)) for m in monos)
            assert err <= 1e-12 * high.max_abs()


def test_orders_accepted_before_stay_accepted():
    # the rule once also required t_order + xi_order >= degree + max(indices) + 1
    for t_order, xi_order, degree in itertools.product(range(9), range(9), range(6)):
        if t_order >= 4 and xi_order >= degree + 1 and t_order + xi_order >= degree + 6:
            assert _validate_request(degree, (2, 3, 4, 5), t_order, xi_order) == (
                (2, 3, 4, 5), t_order, xi_order)


def test_bigraded_series_sizes():
    # at (6, 6): the flow at (7, 7) holds 8 * 36 coefficients, T at (6, 6)
    # 7 * 28 and h at xi-order 7 36; total-degree truncation at 12 held 455,
    # 364 (order 11) and 91
    ch = build_chart(ex.parse("1+x1^2+a*x2^2+x3"), {"a": 2.0}, ORIGIN, t_order=6,
                     xi_order=6, frame="graph")
    assert [s.coeffs.size for s in ch.x] == [288] * 3
    assert [e.coeffs.size for row in tensor_T(ch).m for e in row] == [196] * 4
    assert ch.h.coeffs.size == 36


def test_unknown_mode_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown mode 'exact'"):
        obstruction_P(ex.parse("1+x3"), None, ORIGIN, degree=0, mode="exact")
