import inspect
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beltrami import expr as ex
from beltrami.chart import resolve_frame
from beltrami.errors import BudgetError, DomainError, SeriesMismatchError
from beltrami.obstruction import _matmul
from beltrami.series import (
    DOUBLE,
    MAX_PAIRS,
    RATIONAL,
    TruncatedSeries,
    _lowered,
    _space,
    apply_univariate,
    kind,
)

VARS = ("t", "xi1", "xi2")


def _series_from_list(values, vars=("t", "xi1"), order=4, exact=False):
    # values[i] is the coefficient of the i-th monomial in graded order
    monos = TruncatedSeries.zeros(vars, order).space.monos
    terms = {m: Fraction(v) if exact else float(v) for m, v in zip(monos, values)}
    return TruncatedSeries.from_terms(vars, order, terms, kind=RATIONAL if exact else DOUBLE)


small_coeffs = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=15
)


@st.composite
def series(draw, order=4):
    return _series_from_list(draw(small_coeffs), order=order)


# an int order bounds the total degree; a pair bounds t and xi1 separately
ORDERS = [4, (2, 3)]


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from(ORDERS), data=st.data())
def test_ring_axioms(order, data):
    a, b, c = (data.draw(series(order)) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)
    assert np.allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs, atol=1e-10)
    assert np.allclose((a * b).coeffs, (b * a).coeffs)
    assert np.allclose((a + b).coeffs, (b + a).coeffs)


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from(ORDERS), data=st.data())
def test_leibniz(order, data):
    a, b = (data.draw(series(order)) for _ in range(2))
    lhs = (a * b).derive("t")
    low = lhs.order
    rhs = a.derive("t") * b.truncate(low) + a.truncate(low) * b.derive("t")
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(order=st.sampled_from(ORDERS), data=st.data())
def test_reciprocal_postcondition(order, data):
    s = data.draw(series(order))
    s = s + 1.0 - float(s.constant_term())  # force unit constant term
    r = s.reciprocal()
    prod = s * r
    assert abs(prod.coeffs[0] - 1.0) < 1e-12
    assert np.max(np.abs(prod.coeffs[1:])) < 1e-10


@settings(max_examples=40, deadline=None)
@given(order=st.sampled_from(ORDERS), data=st.data())
def test_sqrt_postcondition(order, data):
    s = data.draw(series(order))
    s = s + 1.0 - float(s.constant_term())
    r = s.sqrt()
    prod = r * r
    assert np.max(np.abs(prod.coeffs - s.coeffs)) < 1e-10


def test_difference_of_squares():
    t = TruncatedSeries.variable(("t",), 2, "t")
    prod = (t + 1.0) * (1.0 - t + 0.0 * t)
    assert prod.coeff((0,)) == 1.0
    assert prod.coeff((1,)) == 0.0
    assert prod.coeff((2,)) == -1.0


def test_mul_annihilation():
    s = _series_from_list([3, 1, -2, 5])
    zero = TruncatedSeries.zeros(s.vars, s.order)
    assert (s * zero).max_abs() == 0.0


def test_truncation_semantics():
    xi1 = TruncatedSeries.variable(("xi1", "xi2"), 1, "xi1")
    xi2 = TruncatedSeries.variable(("xi1", "xi2"), 1, "xi2")
    prod = (xi1 + 1.0) * (xi2 + 1.0)
    assert prod.coeff((0, 0)) == 1.0
    assert prod.coeff((1, 0)) == 1.0
    assert prod.coeff((0, 1)) == 1.0  # cross term xi1*xi2 truncated away at order 1


def test_geometric_series_reciprocal():
    t = TruncatedSeries.variable(("t",), 3, "t")
    r = (t + 1.0).reciprocal()
    assert np.allclose([r.coeff((k,)) for k in range(4)], [1, -1, 1, -1])


def test_sqrt_examples():
    one = TruncatedSeries.constant(("t",), 3, 1.0)
    assert np.allclose(one.sqrt().coeffs, one.coeffs)
    t = TruncatedSeries.variable(("t",), 2, "t")
    square = t * t + 2.0 * t + 1.0
    root = square.sqrt()
    assert abs(root.coeff((0,)) - 1.0) < 1e-14
    assert abs(root.coeff((1,)) - 1.0) < 1e-14
    assert abs(root.coeff((2,))) < 1e-14


def test_exact_sqrt_and_reciprocal():
    t = TruncatedSeries.variable(("t",), 4, "t", kind=RATIONAL)
    s = t * Fraction(2) + 1
    r = s.reciprocal()
    assert r.coeff((3,)) == Fraction(-8)
    sq = (s * s).sqrt()
    assert sq.equals(s)
    with pytest.raises(DomainError):
        (t + 2).sqrt()  # 2 is not a perfect square of a rational


def test_sqrt_needs_a_positive_constant_term_in_both_kinds():
    for k in (DOUBLE, RATIONAL):
        t = TruncatedSeries.variable(("t",), 3, "t", kind=k)
        for c in (0, -4):
            with pytest.raises(DomainError, match="non-positive constant term"):
                (t + c).sqrt()
        assert (t + Fraction(9, 4)).sqrt().constant_term() == Fraction(3, 2)


def test_each_series_holds_its_kind():
    # a series stores its kind and every operation passes it on, so a kind
    # that shares a dtype with another (a ball kind on float64) stays itself.
    # The benchmark's tracer tells the kinds apart by TruncatedSeries.exact
    ball = type("_Ball", (type(DOUBLE),), {"name": "ball"})()
    for k in (DOUBLE, RATIONAL, ball):
        s = TruncatedSeries.constant(VARS, 2, 1, k)
        assert s.kind is k and s.den == 1
        assert s.exact == (k is RATIONAL)
        results = [s + s, s - s, s + 1, 2 - s, -s, s * s, s * 3, s.derive("t"),
                   s.integrate("t"), s.truncate(1), s.slice_at_zero("t"),
                   s.embed(EMBED_VARS, 2), apply_univariate(s, [1, 1]), s.reciprocal()]
        assert all(r.kind is k for r in results)
    for k in (DOUBLE, RATIONAL):
        assert kind(k.name) is k
        with pytest.raises(SeriesMismatchError, match="cannot mix"):
            TruncatedSeries.constant(VARS, 2, 1, k) + TruncatedSeries.constant(VARS, 2, 1, ball)
    with pytest.raises(DomainError, match="unknown mode 'exact'"):
        kind("exact")


def test_only_series_names_the_coefficient_kind():
    # every other module reads the kind of a series, a base point or a
    # polynomial; none re-decides it from a mode string or a flag
    pattern = re.compile(r'exact=|\.exact\b|exact = |if exact|if not exact|== "rational"'
                         r"|json_number\(|_coerce\(")
    src = Path(ex.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "series.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert hits == []


def test_truncated_series_does_not_branch_on_its_kind():
    # every rule that differs between kinds sits on the kind object; the class
    # names a kind once, in the exact property that the benchmark's tracer reads
    pattern = re.compile(r"den is (not )?None|kind is (not )?(DOUBLE|RATIONAL)|\.exact\b")
    hits = [line.strip() for line in inspect.getsource(TruncatedSeries).splitlines()
            if pattern.search(line)]
    assert hits in ([], ["return self.kind is RATIONAL"])


def test_only_exactness_rules_outside_series_name_the_exact_kind():
    # each kind owns its zero test (negligible), so outside series the exact
    # kind is named only where exactness is the rule itself: resolve_frame's
    # exact rotations and expr's refusal of transcendental functions
    pattern = re.compile(r"is (not )?RATIONAL\b")
    rotation = inspect.getsource(resolve_frame)
    hits = []
    for path in sorted(Path(ex.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        hits += [(path.name, line.strip(), "\n".join(lines[n:n + 3]))
                 for n, line in enumerate(lines) if path.name != "series.py"
                 and pattern.search(line)]
    assert len(hits) <= 3
    for name, line, context in hits:
        assert (name == "chart.py" and line in rotation) or (
            name == "expr.py" and "rational mode requires a polynomial expression" in context)
    assert not any(hasattr(k, "tiny") for k in (DOUBLE, RATIONAL))


def test_negligible_is_each_kinds_zero_test():
    assert DOUBLE.negligible(1e-13, 1e-12) and not DOUBLE.negligible(1e-12, 1e-12)
    assert not DOUBLE.negligible(math.nan, 1.0)  # a NaN is never negligible
    assert RATIONAL.negligible(Fraction(0), 1.0)
    assert not RATIONAL.negligible(Fraction(1, 10**400), 1.0)  # exact: tol plays no part


def test_derive_examples():
    s = TruncatedSeries.from_terms(VARS, 3, {(2, 1, 0): 1.0})
    d = s.derive("t")
    assert d.order == 2
    assert d.coeff((1, 1, 0)) == 2.0
    const = TruncatedSeries.constant(VARS, 2, 5.0)
    assert const.derive("xi1").max_abs() == 0.0
    with pytest.raises(SeriesMismatchError):
        TruncatedSeries.constant(VARS, 0, 1.0).derive("t")


def test_integrate_then_derive_round_trip():
    s = _series_from_list([1, 2, 3, 4, 5, 6], vars=VARS, order=3)
    back = s.integrate("t").derive("t")
    trunc = s.truncate(2)
    assert np.allclose(back.coeffs, trunc.coeffs)


def test_truncate_only_lowers_an_order():
    s = TruncatedSeries.zeros(VARS, 3)
    pair = TruncatedSeries.zeros(VARS, (2, 3))
    assert s.truncate(3) is s and s.truncate(1).order == 1
    assert pair.truncate((2, 1)).order == (2, 1) and pair.truncate((0, 3)).order == (0, 3)
    for series, order in ((s, 4), (s, (1, 1)), (pair, 2), (pair, (3, 1)), (pair, (1, 4))):
        with pytest.raises(SeriesMismatchError, match="cannot truncate"):
            series.truncate(order)


def test_strict_order_and_vars_mismatch():
    a = TruncatedSeries.zeros(("t", "xi1"), 3)
    b = TruncatedSeries.zeros(("t", "xi1"), 2)
    with pytest.raises(SeriesMismatchError):
        _ = a + b
    c = TruncatedSeries.zeros(("t", "xi2"), 3)
    with pytest.raises(SeriesMismatchError):
        _ = a * c


# composing an expression with three inner series (expr.compose)
def test_compose3_coordinate_projection():
    t, xi1, xi2 = (TruncatedSeries.variable(VARS, 3, v) for v in VARS)
    out = ex.compose(ex.parse("x3"), None, (xi1, xi2, t))
    assert out.equals(t)


def test_compose3_square():
    t = TruncatedSeries.variable(VARS, 2, "t")
    zero = TruncatedSeries.zeros(VARS, 2)
    out = ex.compose(ex.parse("x1^2"), None, (t + 1.0, zero, TruncatedSeries.zeros(VARS, 2)))
    assert np.allclose([out.coeff((k, 0, 0)) for k in range(3)], [1.0, 2.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(series(), st.floats(min_value=-0.02, max_value=0.02))
def test_compose3_matches_pointwise_eval(inner, t):
    # composed series evaluated at a small argument matches direct evaluation
    # up to the truncation error O(|argument|^(K+1))
    zero = TruncatedSeries.constant(inner.vars, inner.order, 0.0)
    comp = ex.compose(ex.parse("x1^2 + x1"), None,
                      (inner, zero, TruncatedSeries.zeros(inner.vars, inner.order)))
    pt = (t, 0.01)
    x = inner.eval(pt)
    direct = x * x + x
    assert abs(comp.eval(pt) - direct) < 1e-6 * max(1.0, abs(direct))


def test_compose3_error_shrinks_at_truncation_order():
    # |composed(arg) - f(x(arg))| = O(|arg|^(K+1)): halving the argument must
    # shrink the defect by about 2^(K+1) (allowing generous slack)
    K = 4
    f = ex.parse("exp(x1 + x3)")
    t = TruncatedSeries.variable(VARS, K, "t")
    xi1 = TruncatedSeries.variable(VARS, K, "xi1")
    inner = (t + xi1 * t, xi1, t * t + xi1)
    comp = ex.compose(f, None, inner)

    def defect(lam):
        pt = (0.3 * lam, 0.2 * lam, 0.0)
        args = [s.eval(pt) for s in inner]
        return abs(comp.eval(pt) - ex.evaluate(f, None, args))

    errs = [defect(lam) for lam in (0.5, 0.25, 0.125)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a / 2 ** (K - 1) + 1e-14


def test_space_pair_budget():
    # a space counts its pair table, C(order + 2 n, 2 n) for n variables,
    # before it enumerates anything, and refuses one above MAX_PAIRS
    assert math.comb(24 + 6, 6) <= MAX_PAIRS < math.comb(25 + 6, 6)
    TruncatedSeries.zeros(VARS, 24)
    with pytest.raises(BudgetError):
        TruncatedSeries.zeros(VARS, 25)
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        TruncatedSeries.zeros(("xi1", "xi2"), 80)
    assert time.perf_counter() - start < 1.0
    # the largest order the tests use, K = 16, still multiplies
    t = TruncatedSeries.variable(VARS, 16, "t")
    assert (t * t).coeff((2, 0, 0)) == 1.0


def test_apply_univariate_exp():
    t = TruncatedSeries.variable(("t",), 4, "t")
    table = [1.0 / math.factorial(k) for k in range(5)]
    e = apply_univariate(t, table)
    assert np.allclose([e.coeff((k,)) for k in range(5)], table)


def test_slice_and_embed():
    s = TruncatedSeries.from_terms(VARS, 3, {(0, 1, 1): 2.0, (1, 1, 0): 7.0})
    sl = s.slice_at_zero("t")
    assert sl.vars == ("xi1", "xi2")
    assert sl.coeff((1, 1)) == 2.0
    back = sl.embed(VARS, 3)
    assert back.coeff((0, 1, 1)) == 2.0
    assert back.coeff((1, 1, 0)) == 0.0


def _monomial_tables(sp):
    """The monomials of a space in graded order and its pair table, built
    monomial by monomial."""
    if isinstance(sp.order, int):
        bounds, held = (sp.order,), lambda m: sum(m) <= sp.order
    else:
        bounds, held = sp.order, lambda m: m[0] <= sp.order[0] and sum(m[1:]) <= sp.order[1]
    grid = itertools.product(range(sum(bounds) + 1), repeat=sp.nvars)
    monos = sorted(filter(held, grid), key=lambda m: (sum(m), m))
    index = {m: i for i, m in enumerate(monos)}
    sums = [(i, j, tuple(map(sum, zip(a, b)))) for i, a in enumerate(monos)
            for j, b in enumerate(monos)]
    pairs = [(i, j, index[m]) for i, j, m in sums if m in index]
    return monos, tuple(map(list, zip(*pairs)))


def _monomial_maps(sp):
    """The index maps of a space, built monomial by monomial from dicts."""

    def shift(m, pos, step):
        return m[:pos] + (m[pos] + step,) + m[pos + 1:]

    maps = {}
    for pos in range(sp.nvars):
        low = _lowered(sp.order, pos)
        if min(np.atleast_1d(low)) >= 0:
            lower = _space(sp.names, low)
            src = [i for i, m in enumerate(sp.monos) if m[pos]]
            maps["diff", pos] = (src, [lower.index[shift(sp.monos[i], pos, -1)] for i in src],
                                 [sp.monos[i][pos] for i in src])
        src = [i for i, m in enumerate(sp.monos) if shift(m, pos, 1) in sp.index]
        maps["integ", pos] = (src, [sp.index[shift(sp.monos[i], pos, 1)] for i in src],
                              [sp.monos[i][pos] + 1 for i in src])
    return maps


def _monomial_onto(sp, names, order):
    target, src, dst = _space(names, order), [], []
    for i, m in enumerate(sp.monos):
        key = tuple(dict(zip(sp.names, m)).get(v, 0) for v in names)
        if sum(key) == sum(m) and key in target.index:
            src.append(i)
            dst.append(target.index[key])
    return src, dst


@pytest.mark.parametrize("names, order, targets", [
    (("t", "xi1", "xi2"), (3, 4), [(("t", "xi1", "xi2"), (4, 4)), (("t", "xi1", "xi2"), (2, 4)),
                                   (("t", "xi1", "xi2"), (3, 2)), (("xi1", "xi2"), 4)]),
    (("t", "xi1", "xi2"), (0, 5), [(("t", "xi1", "xi2"), (7, 7)), (("xi1", "xi2"), 5)]),
    (("t", "xi1", "xi2"), (7, 7), [(("t", "xi1", "xi2"), (1, 7)), (("xi1", "xi2"), 3)]),
    (("xi1", "xi2"), 5, [(("t", "xi1", "xi2"), (2, 5)), (("xi1", "xi2"), 6)]),
    (("x1", "x2", "x3"), 6, [(("x1", "x2", "x3"), 3), (("x1", "x2", "x3", "s"), 6)]),
])
def test_index_tables_match_a_monomial_by_monomial_build(names, order, targets):
    # the tables are built with numpy over additive exponent keys; they must
    # equal the per-monomial dict lookup they replaced, entry for entry
    sp = TruncatedSeries.zeros(names, order).space
    monos, pairs = _monomial_tables(sp)
    assert sp.monos == monos
    assert sp.npairs == len(pairs[0])
    for a, b in zip(sp.pairs(), pairs, strict=True):
        assert a.dtype == np.int64 and np.array_equal(a, b)
    for (kind, pos), ref in _monomial_maps(sp).items():
        built = sp.diff_map(pos) if kind == "diff" else sp.integ_map(pos)
        for a, b in zip(built, ref, strict=True):
            assert a.dtype == np.int64 and np.array_equal(a, b), (kind, pos)
    for target in targets:
        for a, b in zip(sp.onto_map(*target), _monomial_onto(sp, *target), strict=True):
            assert a.dtype == np.int64 and np.array_equal(a, b), target


EMBED_VARS = ("s", "t", "xi1", "xi2")
three_var_coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=35)


def _canonical(s):
    # integer numerators over one positive denominator that shares no factor
    # with all of them; the zero series sits over 1
    assert all(type(n) is int for n in s.num) and type(s.den) is int
    assert s.den >= 1 and math.gcd(s.den, *s.num) == 1


def _same_coefficients(exact, double):
    assert (exact.vars, exact.order) == (double.vars, double.order)
    _canonical(exact)
    assert all(type(c) is Fraction for c in exact.coeffs)
    assert [float(c) for c in exact.coeffs] == double.coeffs.tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), three_var_coeffs, three_var_coeffs, st.integers(-4, 4))
def test_exact_and_double_modes_agree(order, av, bv, k):
    # small integers keep every double result exact, so the modes must agree
    # coefficient for coefficient
    a, b = (_series_from_list(v, VARS, order, exact=True) for v in (av, bv))
    ad, bd = (_series_from_list(v, VARS, order) for v in (av, bv))
    _same_coefficients(a * b, ad * bd)
    _same_coefficients(a + b, ad + bd)
    _same_coefficients(a - b, ad - bd)
    _same_coefficients(a * k, ad * k)
    _same_coefficients(a * Fraction(k, 2), ad * (k / 2))
    _same_coefficients(a + k, ad + k)
    _same_coefficients(k - a, k - ad)
    _same_coefficients(a - Fraction(k, 2), ad - k / 2)
    monos = a.space.monos
    _same_coefficients(
        TruncatedSeries.from_terms(VARS, order, {m: Fraction(v, 2) for m, v in zip(monos, av)},
                                   kind=RATIONAL),
        TruncatedSeries.from_terms(VARS, order, {m: v / 2 for m, v in zip(monos, av)}))
    for name in VARS:
        _same_coefficients(a.derive(name), ad.derive(name))
        _same_coefficients(a.integrate(name), ad.integrate(name))
        _same_coefficients(a.slice_at_zero(name), ad.slice_at_zero(name))
    top = a.space.top  # the largest total degree
    _same_coefficients(a.embed(EMBED_VARS, top), ad.embed(EMBED_VARS, top))
    _same_coefficients(a.slice_at_zero("t").embed(VARS, order),
                       ad.slice_at_zero("t").embed(VARS, order))


def test_exact_product_with_mixed_denominators():
    a_terms = {
        (0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(-2, 3), (0, 1, 1): Fraction(5, 6),
        (2, 1, 0): Fraction(7, 3), (0, 0, 3): Fraction(-1, 6)}
    b_terms = {
        (0, 0, 0): Fraction(-3, 2), (0, 1, 0): Fraction(1, 3), (1, 0, 1): Fraction(1, 6),
        (0, 2, 2): Fraction(5, 2), (1, 1, 1): Fraction(-4, 3)}
    for order in ORDERS:
        def fits(m):
            return sum(m) <= order if order == 4 else m[0] <= order[0] and sum(m[1:]) <= order[1]

        a, b = (TruncatedSeries.from_terms(
            VARS, order, {m: c for m, c in terms.items() if fits(m)}, kind=RATIONAL)
            for terms in (a_terms, b_terms))
        expected = {}
        for ma, ca in a.nonzero_terms():
            for mb, cb in b.nonzero_terms():
                m = tuple(x + y for x, y in zip(ma, mb))
                if fits(m):
                    expected[m] = expected.get(m, 0) + ca * cb
        prod = a * b
        assert all(type(c) is Fraction for c in prod.coeffs)
        assert prod.coeff((1, 1, 0)) == Fraction(-2, 9)  # (-2/3) * (1/3)
        assert prod.coeff((0, 1, 1)) == Fraction(-5, 4)  # (5/6) * (-3/2)
        with pytest.raises(ValueError):  # the exact view is read-only
            prod.coeffs[0] = Fraction(1)
        # every other exact operation against a per-coefficient Fraction reference
        q = Fraction(-9, 4)
        checks = [(prod, expected), (a * q, {m: c * q for m, c in a.nonzero_terms()})]
        for sign, got in ((1, a + b), (-1, a - b)):
            want = dict(a.nonzero_terms())
            for m, c in b.nonzero_terms():
                want[m] = want.get(m, 0) + sign * c
            checks.append((got, want))
        for pos, name in enumerate(VARS):
            def moved(m, step):
                return m[:pos] + (m[pos] + step,) + m[pos + 1:]

            checks.append((a.derive(name),
                           {moved(m, -1): c * m[pos] for m, c in a.nonzero_terms() if m[pos]}))
            checks.append((a.integrate(name), {moved(m, 1): c / (m[pos] + 1)
                                               for m, c in a.nonzero_terms() if fits(moved(m, 1))}))
        for got, want in checks:
            _canonical(got)
            assert dict(got.nonzero_terms()) == {m: c for m, c in want.items() if c != 0}


def _table_product(a, b):
    """a * b summed over the whole pair table, the way every product was made
    before a constant factor became a scaling."""
    I, J, K = a.space.pairs()
    out = np.zeros(a.num.size, dtype=a.num.dtype)
    np.add.at(out, K, a.num[I] * b.num[J])
    return TruncatedSeries(a.vars, a.order, out, a.den * b.den, a.kind)


@pytest.mark.parametrize("order", [(7, 7), (4, 5), 6, (0, 6)])
@pytest.mark.parametrize("exact", [False, True])
def test_constant_factor_product_equals_the_pair_table(order, exact):
    # a constant or zero factor scales the other operand; on doubles the
    # result must be the table's bit for bit: -0.0 summed onto +0.0, and an
    # inf or nan spreading nan through the table's products with zeros
    rng = np.random.default_rng(7)
    size = _space(VARS, order).size
    others = [rng.integers(-3, 4, size).astype(float)]  # about one in seven is 0
    if not exact:
        for bad in (np.inf, -np.inf, np.nan):
            spoilt = others[0].copy()
            spoilt[min(3, size - 1)] = bad
            others.append(spoilt)
    for value in (Fraction(5, 2), -3, 0):
        const = TruncatedSeries.constant(VARS, order, value, kind=RATIONAL if exact else DOUBLE)
        for values in others:
            other = (TruncatedSeries(VARS, order, values, 1, DOUBLE) if not exact else
                     TruncatedSeries(VARS, order, values.astype(int).astype(object), 1, RATIONAL))
            for a, b in ((const, other), (other, const)):
                with np.errstate(invalid="ignore"):  # 0 * inf
                    got, want = a * b, _table_product(a, b)
                if exact:
                    _canonical(got)
                    assert got.equals(want)
                    continue
                nan = np.isnan(want.num)
                assert np.array_equal(np.isnan(got.num), nan)
                assert np.array_equal(got.num[~nan], want.num[~nan])
                assert np.array_equal(np.signbit(got.num[~nan]), np.signbit(want.num[~nan]))


def test_exact_ring_operations_build_no_fractions(monkeypatch):
    # exact series compute on integer numerators: a Fraction is made only where
    # a coefficient enters or leaves a series, never inside these operations
    a, b = (TruncatedSeries.from_terms(VARS, (2, 3), terms, kind=RATIONAL) for terms in (
        {(0, 0, 0): Fraction(1, 2), (1, 1, 0): Fraction(-2, 3), (0, 1, 2): Fraction(5, 6)},
        {(0, 0, 0): Fraction(-3, 2), (0, 0, 1): Fraction(1, 3), (2, 0, 1): Fraction(7)}))
    q = Fraction(-9, 4)
    made = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [a * b, a + b, a - b, -a, a * q, a * 3, a + q, a - 2,
               a.truncate((1, 2)), a.slice_at_zero("t"), a.slice_at_zero("t").embed(VARS, (2, 3))]
    for name in VARS:
        results += [a.derive(name), a.integrate(name)]
    assert made == 0
    monkeypatch.undo()
    for s in results:
        _canonical(s)


def test_json_round_trip():
    s = _series_from_list([1, 0, -3, 2], vars=VARS, order=2)
    assert s.to_json() == {
        "vars": list(VARS),
        "order": 2,
        "coeffs": [{"mi": [0, 0, 0], "c": 1.0}, {"mi": [0, 1, 0], "c": -3.0},
                   {"mi": [1, 0, 0], "c": 2.0}],
    }
    e = _series_from_list([1, 2], exact=True)
    assert e.to_json()["coeffs"] == [{"mi": [0, 0], "c": "1"}, {"mi": [0, 1], "c": "2"}]


def test_matrix_rotation_algebra():
    # T and T_n are plain 2x2 tuples of series (obstruction._matmul)
    one = TruncatedSeries.constant(("t",), 3, 1)
    zero = TruncatedSeries.zeros(("t",), 3)
    J = ((zero, one), (-one, zero))
    JJ = _matmul(J, J)
    assert JJ[0][0].coeff((0,)) == -1.0
    assert JJ[0][1].max_abs() == 0.0
    I = ((one, zero), (zero, one))
    A = (
        (_series_from_list([1, 2], vars=("t",), order=3),
         _series_from_list([0, 1], vars=("t",), order=3)),
        (_series_from_list([3], vars=("t",), order=3),
         _series_from_list([1, 1, 1], vars=("t",), order=3)),
    )
    AI = _matmul(A, I)
    for i in range(2):
        for j in range(2):
            assert AI[i][j].equals(A[i][j])


def test_series_eval_batch():
    s = TruncatedSeries.from_terms(("t", "xi1"), 2, {(1, 0): 2.0, (0, 2): 1.0})
    pts = np.array([[0.5, 1.0], [1.0, 2.0]])
    vals = s.eval(pts)
    assert np.allclose(vals, [2.0, 6.0])
