"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 8 has two baselines.  8a compares against the pullback of
the explicit affine solution ``affine_field``; that field is constant on every
level surface, so its sampled beta has no xi-variation and its discrete drift
is identically zero at every spacing.  That is the right floor for an ordering
test but carries no grid-convergence signal, so 8b instead uses an exact
Beltrami field built from a harmonic potential, which does vary along the
level surface and whose drift is pure stencil error.
"""

import time
from fractions import Fraction

import numpy as np

from beltrami import expr as ex
from beltrami.beltrami_ops import (
    affine_field,
    beltrami_residual,
    elliptic_residual,
    pullback_system_residuals,
)
from beltrami.chart import build_chart
from beltrami.cli import cross_check_battery
from beltrami.evolution import run as evolution_run
from beltrami.obstruction import (
    det4,
    hierarchy_vectors,
    obstruction_P,
    script_Tn,
    tensor_T,
)
from beltrami.reference import cubic_family_coeffs, quadratic_family_form


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: cubic-family coefficients ------------------------------------

CUBIC_PAIRS = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1)),
    (Fraction(1), Fraction(-1)),
    (Fraction(1, 2), Fraction(3)),
)


def test_criterion_1_cubic_family_coefficients():
    f = ex.parse("1+a*x1+b*x1^3+x3")
    worst_time = 0.0
    for a, b in CUBIC_PAIRS:
        t0 = time.perf_counter()
        exact = obstruction_P(f, {"a": a, "b": b}, (0, 0, 0), degree=3,
                              frame="graph", mode="rational")
        refs = cubic_family_coeffs(a, b)
        assert all(exact.coeff((j, 0)) == refs[j] for j in range(4)), (a, b)
        dbl = obstruction_P(f, {"a": float(a), "b": float(b)}, (0, 0, 0), degree=3,
                            frame="graph", mode="double")
        for j in range(4):
            ref = float(refs[j])
            assert abs(dbl.coeff((j, 0)) - ref) <= 1e-9 * max(1.0, abs(ref)), (a, b, j)
        worst_time = max(worst_time, time.perf_counter() - t0)
    assert worst_time <= 60.0, f"per-pair runtime {worst_time:.1f}s exceeds 60s"
    report("1 (cubic-family coefficients)", True,
           f"4 pairs exact + double, worst pair {worst_time:.2f}s")


# -- criterion 2: quadratic-family form ----------------------------------------


def test_criterion_2_quadratic_family_form():
    f = ex.parse("1+x1^2+a*x2^2+x3")
    for a in (Fraction(0), Fraction(2), Fraction(-1)):
        exact = obstruction_P(f, {"a": a}, (0, 0, 0), degree=2, frame="graph",
                              mode="rational")
        q20, q11, q02 = quadratic_family_form(a)
        assert exact.coeff((2, 0)) == q20, a
        assert exact.coeff((1, 1)) == q11, a
        assert exact.coeff((0, 2)) == q02, a
        dbl = obstruction_P(f, {"a": float(a)}, (0, 0, 0), degree=2, frame="graph")
        for mono, ref in (((2, 0), q20), ((1, 1), q11), ((0, 2), q02)):
            ref = float(ref)
            assert abs(dbl.coeff(mono) - ref) <= 1e-9 * max(1.0, abs(ref)), (a, mono)
    degenerate = obstruction_P(f, {"a": 1.0}, (0, 0, 0), degree=2, frame="graph")
    quad_max = max(
        (abs(v) for m, v in degenerate.coeffs.items() if sum(m) == 2), default=0.0
    )
    assert quad_max < 1e-10
    report("2 (quadratic-family form)", True,
           "a in {0, 2, -1} exact + double; degenerate at a = 1")


# -- criterion 3: affine optimality --------------------------------------------


def test_criterion_3_affine_optimality():
    f = ex.parse("1+a*x1+x3")
    for a in (0.0, 1.0, 3.0):
        P = obstruction_P(f, {"a": a}, (0, 0, 0), degree=4, frame="graph")
        assert P.max_abs() < 1e-8, a
        H = obstruction_P(f, {"a": a}, (0, 0, 0), degree=4, frame="graph",
                          indices=(2, 3, 4, 6))
        assert H.max_abs() < 1e-8, a
    report("3 (affine optimality)", True,
           "P and P_{2,3,4,6} vanish through degree 4 for a in {0, 1, 3}")


# -- criterion 4: explicit solution --------------------------------------------


def test_criterion_4_explicit_solution():
    rng = np.random.default_rng(2024)
    worst = {"beltrami": 0.0, "elliptic": 0.0}
    for a in (0.0, 1.0):
        e = np.array([a, 0.0, 1.0])
        u0 = np.cross(e, [0.0, 1.0, 0.0])
        u0 = tuple(u0 / np.linalg.norm(u0))
        u = affine_field(1.0, tuple(e), u0)
        f = ex.parse("1+a*x1+x3")
        for _ in range(100):
            p = rng.uniform(-1.0, 1.0, 3)
            worst["beltrami"] = max(worst["beltrami"], beltrami_residual(u, f, {"a": a}, p))
            worst["elliptic"] = max(worst["elliptic"], elliptic_residual(u, f, {"a": a}, p))
        chart = build_chart(f, {"a": a}, (0, 0, 0), frame="graph")
        res = pullback_system_residuals(u, chart, tensor_T(chart), {"a": a})
        assert res["evolution_row1"] < 1e-8, a
        assert res["evolution_row2"] < 1e-8, a
        assert res["closedness"] < 1e-8, a
        assert res["beta_t"] < 1e-10, a
    assert worst["beltrami"] < 1e-9
    assert worst["elliptic"] < 1e-8
    report("4 (explicit solution)", True,
           f"100 seeded points per a; residuals {worst['beltrami']:.1e} / {worst['elliptic']:.1e}")


# -- criterion 5: chart property suite ------------------------------------------


def _seeded_polynomials(count=5, seed=77):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.integers(-2, 3, size=7)
        text = (
            f"1 + x3 + ({c[0]})*x1 + ({c[1]})*x2 + ({c[2]})*x1^2 + ({c[3]})*x1*x2"
            f" + ({c[4]})*x2^2 + ({c[5]})*x1^3 + ({c[6]})*x2*x3"
        )
        p = tuple(rng.uniform(-0.05, 0.05, 3))
        out.append((ex.parse(text), p))
    return out


def test_criterion_5_chart_property_suite():
    t0 = time.perf_counter()
    for f, p in _seeded_polynomials():
        ch = build_chart(f, None, p, frame="rotated")
        scale = max(1.0, max(abs(float(c)) for c in ch.x[2].coeffs))
        assert ch.flow_residual < 1e-9 * scale
        order = (ch.t_order, ch.xi_order)  # the metric's order pair
        dxt = [s.derive("t").truncate(order) for s in ch.x]
        for var in ("xi1", "xi2"):
            dxi = [s.derive(var).truncate(order) for s in ch.x]
            cross = dxt[0] * dxi[0] + dxt[1] * dxi[1] + dxt[2] * dxi[2]
            assert cross.max_abs() < 1e-9 * scale
        gg_offdiag = ch.g11 * ch.ginv12 + ch.g12 * ch.ginv22
        gg_diag = ch.g11 * ch.ginv11 + ch.g12 * ch.ginv12 - 1.0
        assert gg_offdiag.max_abs() < 1e-9 * scale
        assert gg_diag.max_abs() < 1e-9 * scale
        T = tensor_T(ch)
        t1_vec = script_Tn(T, T)
        t1_scale = max(1.0, T.max_abs())
        assert max(c.max_abs() for c in t1_vec) < 1e-9 * t1_scale
        vectors = hierarchy_vectors(ch, (2, 3, 4, 5))
        cols = [vectors[n] for n in (2, 3, 4, 5)]
        common = min(c[0].order for c in cols)
        cols = [tuple(s.truncate(common) for s in col) for col in cols]
        base = det4(cols)
        swapped = det4([cols[2], cols[1], cols[0], cols[3]])
        det_scale = max(1.0, base.max_abs())
        assert (base + swapped).max_abs() < 1e-9 * det_scale
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"property suite took {elapsed:.1f}s > 2 min"
    report("5 (chart property suite)", True, f"5 charts in {elapsed:.1f}s")


# -- criterion 6: oracle equivalence --------------------------------------------


def test_criterion_6_oracle_equivalence():
    result = cross_check_battery()
    for row in result["battery"]:
        assert row["pass"], row
    report("6 (oracle equivalence)", True,
           "; ".join(f"{r['name']}: {r['error']:.1e} {r['error_kind']}" for r in result["battery"]))


# -- criterion 7: conformal identity ---------------------------------------------


def test_criterion_7_conformal_identity():
    from beltrami.beltrami_ops import conformal_metric, curl_div, riemannian_curl
    from beltrami.expr import Mul, Pow, VectorExpr

    f = ex.parse("1+x1^2+x2^2+x3^2")
    metric = conformal_metric(f)
    rng = np.random.default_rng(31415)
    coeffs = rng.integers(-3, 4, size=(3, 10))
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0),
             (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    comps = []
    for i in range(3):
        node = ex.Num(Fraction(0))
        for c, m in zip(coeffs[i], monos):
            if c == 0:
                continue
            term = ex.Num(float(c))
            for axis, p in enumerate(m):
                if p:
                    term = Mul(term, Pow(ex.Var(axis), p))
            node = ex.Add(node, term)
        comps.append(node)
    v = VectorExpr(tuple(comps))
    u = VectorExpr(tuple(Mul(Pow(f, 2), c) for c in v.components))
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(-0.8, 0.8, 3)
        lhs, _ = curl_div(u, None, p)
        rhs = ex.evaluate(f, None, p) ** 3 * riemannian_curl(metric, v, None, p)
        denom = max(1.0, float(np.linalg.norm(rhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    assert worst < 1e-8
    report("7 (conformal identity)", True, f"50 seeded points, worst {worst:.1e}")


# -- criterion 8: evolution demonstrator -----------------------------------------


def _affine_exact_run(h: float, n: int):
    a = 1.0
    e = np.array([a, 0.0, 1.0])
    u0 = np.cross(e, [0.0, 1.0, 0.0])
    u = affine_field(1.0, tuple(e), tuple(u0 / np.linalg.norm(u0)))
    return evolution_run(
        ex.parse("1+a*x1+x3"), {"a": a}, (0, 0, 0), ("field", u),
        t_max=0.1, dt=0.005, n1=n, n2=n, h1=h, h2=h,
    )


def test_criterion_8a_generic_versus_affine_ordering():
    generic = evolution_run(
        ex.parse("1+x1^2+x3"), None, (0, 0, 0), ("psi", ex.parse("x1+x2")),
        t_max=0.1, dt=0.005, n1=21, n2=21, h1=0.01, h2=0.01,
    )
    baseline = _affine_exact_run(0.01, 21)
    g = generic.max_drift_normalized[-1]
    b = baseline.max_drift_normalized[-1]
    assert g > 10.0 * b, (g, b)
    assert g > 1e-3  # the violation is a genuine signal, not rounding noise
    report("8a (generic >> affine ordering)", True,
           f"generic {g:.3e} vs affine baseline {b:.3e}")


# Exact Beltrami field for f = 1 + x3 that varies along the level surfaces.
# With psi = Re((x1 + i x2)^5) harmonic and theta(x3) = -(x3 + x3^2/2), so that
# theta' = -f, the field u = (cos th psi_1 - sin th psi_2, sin th psi_1 +
# cos th psi_2, 0) has curl u = -theta' u = f u and div u = cos th Lap psi = 0.
_THETA = "(-(x3+x3^2/2))"
_PSI_1 = "(5*x1^4-30*x1^2*x2^2+5*x2^4)"
_PSI_2 = "(20*x1*x2^3-20*x1^3*x2)"
HARMONIC_AFFINE_F = ex.parse("1+x3")
HARMONIC_AFFINE_FIELD = ex.parse_vector((
    f"cos{_THETA}*{_PSI_1}-sin{_THETA}*{_PSI_2}",
    f"sin{_THETA}*{_PSI_1}+cos{_THETA}*{_PSI_2}",
    "0",
))


def _harmonic_affine_run(h: float, n: int):
    return evolution_run(
        HARMONIC_AFFINE_F, None, (0, 0, 0), ("field", HARMONIC_AFFINE_FIELD),
        t_max=0.1, dt=0.005, n1=n, n2=n, h1=h, h2=h,
    )


def test_criterion_8b_affine_baseline_grid_convergence():
    # Halving the spacing should shrink the affine-exact drift by about 4x
    # (second-order stencil).  The 8a baseline cannot show this: its drift is
    # identically zero (see the module docstring).  The harmonic-potential
    # field above is an exact solution whose beta varies in xi, so for this
    # affine f the evolution keeps beta closed and the only drift left is the
    # stencil's truncation error.  Check exactness first, at the criterion-4
    # bounds, so the baseline is a proven solution and not just closed data.
    rng = np.random.default_rng(2024)
    worst_b = worst_e = 0.0
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, 3)
        worst_b = max(worst_b, beltrami_residual(HARMONIC_AFFINE_FIELD, HARMONIC_AFFINE_F, None, p))
        worst_e = max(worst_e, elliptic_residual(HARMONIC_AFFINE_FIELD, HARMONIC_AFFINE_F, None, p))
    assert worst_b < 1e-9, worst_b
    assert worst_e < 1e-8, worst_e
    coarse = _harmonic_affine_run(0.01, 21).max_drift[-1]
    fine = _harmonic_affine_run(0.005, 41).max_drift[-1]
    if fine == 0.0:
        report(
            "8b (affine baseline 4x grid convergence)",
            False,
            f"degenerate: drift is identically zero at both spacings "
            f"(coarse {coarse:.3e}, fine {fine:.3e}); no ratio exists",
        )
    ratio = coarse / fine
    report("8b (affine baseline 4x grid convergence)", 2.5 <= ratio <= 6.0,
           f"ratio {ratio:.2f} (coarse {coarse:.3e}, fine {fine:.3e}); "
           f"exactness {worst_b:.1e} / {worst_e:.1e}")
