import math

import numpy as np
import pytest

from beltrami import evolution, series
from beltrami import expr as ex
from beltrami.beltrami_ops import affine_field, chart_pullback, orthogonal_unit
from beltrami.chart import build_chart
from beltrami.errors import BudgetError, DomainError
from beltrami.evolution import (
    DriftReport,
    GridField,
    TEvaluator,
    drift,
    init_from_field,
    init_from_potential,
    run,
    step,
)
from beltrami.obstruction import tensor_T


def flat_chart(orders=(4, 4)):
    return build_chart(ex.parse("1+x3"), None, (0, 0, 0), t_order=orders[0],
                       xi_order=orders[1], frame="rotated")


class ZeroEvaluator:
    def __init__(self, grid):
        self.xi1, self.xi2 = grid.xi1, grid.xi2

    def __call__(self, t):
        return np.zeros((2, 2, self.xi1.size * self.xi2.size))


@pytest.mark.parametrize("text", ["x1 + x2", "x1^3*x2 - 3*x2^2 + x1",
                                  "sin(x1)*exp(x2) + log(2 + x1)"])
def test_init_from_potential_matches_jets(text):
    psi = ex.parse(text)
    grid = init_from_potential(GridField.centered(7, 5, 0.03, 0.04), psi)
    for (u, v), beta in zip(grid.nodes(), grid.beta.reshape(-1, 2)):
        j = ex.jet(psi, None, (u, v, 0.0), 1)
        expect = np.array([j.coeff((1, 0, 0)), j.coeff((0, 1, 0))])
        assert np.all(np.abs(beta - expect) <= 1e-14 * np.maximum(1.0, np.abs(expect)))


@pytest.mark.parametrize("text, u", [
    ("1+a*x1+x3", affine_field(1.0, (1.0, 0.0, 1.0), orthogonal_unit((1.0, 0.0, 1.0)))),
    # not a Beltrami field, but its pullback varies over the grid
    ("1+x1^2+x3", ex.parse_vector(["x2", "sin(x1)", "x1*x3"])),
])
def test_init_from_field_matches_full_pullback_at_t0(text, u):
    # init_from_field pulls back along the t = 0 slice of the flow; the full
    # (t, xi) pullback evaluated at t = 0 gives the same data
    ch = build_chart(ex.parse(text), {"a": 1.0}, (0, 0, 0), frame="rotated")
    grid = GridField.centered(41, 41, 0.005, 0.005)
    got = init_from_field(grid, u, ch).beta.reshape(-1, 2)
    _, beta1, beta2 = chart_pullback(u, ch.x_world())
    nodes = grid.nodes()
    pts = np.column_stack([np.zeros(nodes.shape[0]), nodes])
    want = np.column_stack([beta1.eval(pts), beta2.eval(pts)])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_step_frozen_field():
    grid = GridField.centered(7, 7, 0.02, 0.02)
    grid.beta[:] = np.random.default_rng(0).normal(size=grid.beta.shape)
    out = step(grid, ZeroEvaluator(grid), 0.01)
    assert np.array_equal(out.beta, grid.beta)
    assert out.time == pytest.approx(0.01)


def test_step_matches_rotation_closed_form():
    # for the flat chart T = (1+t) J, a node solves beta' = (1+t) J beta:
    # rotation by the angle t + t^2/2
    grid = GridField.centered(5, 5, 0.01, 0.01)
    grid.beta[:, :, 0] = 1.0
    dt = 0.05
    out = step(grid, TEvaluator(flat_chart(), grid), dt)
    phi = dt + dt * dt / 2.0
    expect = np.array([np.cos(phi), -np.sin(phi)])
    err = np.max(np.abs(out.beta - expect[None, None, :]))
    assert err < 10 * dt**5


def test_step_linearity():
    rng = np.random.default_rng(5)
    grid = GridField.centered(5, 5, 0.01, 0.01)
    grid.beta[:] = rng.normal(size=grid.beta.shape)
    tev = TEvaluator(flat_chart(), grid)
    scaled = GridField(grid.xi1, grid.xi2, 3.0 * grid.beta, grid.time)
    a = step(grid, tev, 0.02)
    b = step(scaled, tev, 0.02)
    assert np.allclose(b.beta, 3.0 * a.beta, rtol=1e-14, atol=1e-15)


def test_drift_exact_on_quadratic_potential():
    grid = GridField.centered(9, 9, 0.05, 0.05)
    grid = init_from_potential(grid, ex.parse("x1^2 + x1*x2 - x2^2"))
    md, l2 = drift(grid)
    assert md < 1e-12
    assert l2 < 1e-12


def test_drift_unit_defect():
    grid = GridField.centered(9, 9, 0.05, 0.05)
    X1, _ = np.meshgrid(grid.xi1, grid.xi2, indexing="ij")
    grid.beta[:, :, 1] = X1  # beta = (0, xi1): d1 beta2 = 1
    md, _ = drift(grid)
    assert md == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridField.centered(3, 9, 0.05, 0.05)
    with pytest.raises(DomainError):
        GridField.centered(9, 9, -0.05, 0.05)
    # a NaN fails every comparison, and "h <= 0" let it through
    for h1, h2 in [(math.nan, 0.01), (0.01, math.nan), (math.inf, 0.01)]:
        with pytest.raises(DomainError, match="finite and positive"):
            GridField.centered(9, 9, h1, h2)
    xi = GridField.centered(7, 7, 0.01, 0.01).xi1
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite and strictly increasing"):
            GridField(np.append(xi[:-1], bad), xi, np.zeros((7, 7, 2)), 0.0)
    big = GridField.centered(9, 9, 0.2, 0.2)
    with pytest.raises(DomainError):
        TEvaluator(flat_chart(), big)


def test_grid_rejects_uneven_spacing():
    # drift divides by xi[1] - xi[0]: on this xi1 axis it reported a max drift
    # of 0.0725 for the closed grad(x1^2*x2), where the uniform grid gives 7e-18
    xi1 = np.array([-0.02, -0.015, -0.005, 0.0, 0.01, 0.02, 0.035])
    xi2 = GridField.centered(7, 7, 0.01, 0.01).xi2
    with pytest.raises(DomainError, match="evenly spaced"):
        GridField(xi1, xi2, np.zeros((7, 7, 2)), 0.0)
    with pytest.raises(DomainError, match="evenly spaced"):
        GridField(xi2, xi1, np.zeros((7, 7, 2)), 0.0)
    # the rounding of centered passes, on the longest axis the node budget admits
    n = evolution.MAX_GRID_NODES // 5
    GridField.centered(n, 5, 2 * evolution.PATCH_RADIUS / (n - 1), 0.01)


def test_initial_drift_refines_at_second_order():
    # smooth closed data with unequal third derivatives: the stencil defect
    # scales like h^2
    psi = ex.parse("x1^3*x2 + x2^4")
    defects = []
    for n, h in ((11, 0.02), (21, 0.01)):
        grid = GridField.centered(n, n, h, h)
        grid = init_from_potential(grid, psi)
        defects.append(drift(grid)[0])
    ratio = defects[0] / defects[1]
    assert 3.0 < ratio < 5.0


def test_t_evaluator_matches_series_eval():
    # the power-row sum over the sampled t-coefficients against each entry of T
    # evaluated at (t, xi) as a whole series; only the order of the sums differs
    ch = build_chart(ex.parse("1+x1+x1^3+x2*x3+x3"), None, (0, 0, 0), t_order=5, xi_order=4,
                     frame="rotated")
    grid = GridField.centered(7, 5, 0.03, 0.04)
    tev = TEvaluator(ch, grid)
    entries = tensor_T(ch)
    for t in (0.0, 0.07, -0.2):
        pts = np.column_stack([np.full(35, t), grid.nodes()])
        expect = np.stack([[entries[i][j].eval(pts) for j in range(2)] for i in range(2)])
        err = np.max(np.abs(tev(t) - expect))
        assert err <= 1e-14 * np.max(np.abs(expect))


def t_parts(chart, grid):
    """The t^k part of each entry of tensor_T, as a series in xi, evaluated
    on the grid's nodes; shape (t_order + 1, 2, 2, N)."""
    nodes = grid.nodes()
    coeffs = np.zeros((chart.t_order + 1, 2, 2, len(nodes)))
    for i, row in enumerate(tensor_T(chart)):
        for j, entry in enumerate(row):
            for k in range(chart.t_order + 1):
                part = {m[1:]: c for m, c in entry.nonzero_terms() if m[0] == k}
                coeffs[k, i, j] = series.TruncatedSeries.from_terms(
                    entry.vars[1:], chart.xi_order, part).eval(nodes)
    return coeffs


def horner_T(chart, grid):
    """T(t) on the grid's nodes by Horner in t over :func:`t_parts`."""
    coeffs = t_parts(chart, grid)

    def T(t):
        out = coeffs[-1]
        for c in coeffs[-2::-1]:
            out = out * t + c
        return out
    return T


def einsum_step(beta, T, t, dt):
    """The classical RK4 step with an einsum per stage and T evaluated at
    every stage."""
    b = beta.reshape(-1, 2)

    def apply(tval, vec):
        return np.einsum("ijn,nj->ni", T(tval), vec)

    k1 = apply(t, b)
    k2 = apply(t + dt / 2.0, b + (dt / 2.0) * k1)
    k3 = apply(t + dt / 2.0, b + (dt / 2.0) * k2)
    k4 = apply(t + dt, b + dt * k3)
    return (b + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(beta.shape)


class CountingEvaluator:
    def __init__(self, tev):
        self.inner, self.times = tev, []
        self.xi1, self.xi2 = tev.xi1, tev.xi2

    def __call__(self, t):
        self.times.append(t)
        return self.inner(t)


def test_step_evaluates_T_once_per_distinct_time():
    # the two midpoint stages share T(t + dt/2): 3 evaluations per step, not 4
    grid = init_from_potential(GridField.centered(7, 7, 0.01, 0.01), ex.parse("x1+x2^2"))
    tev = CountingEvaluator(TEvaluator(flat_chart(), grid))
    dt = 0.005
    for n in range(4):
        t = grid.time
        grid = step(grid, tev, dt)
        assert tev.times[3 * n:] == [t, t + dt / 2.0, t + dt]


def test_step_matches_einsum_reference():
    ch = build_chart(ex.parse("1+x1^2+x3"), None, (0, 0, 0), t_order=5, xi_order=5,
                     frame="rotated")
    grid = GridField.centered(9, 7, 0.01, 0.02)
    grid.beta[:] = np.random.default_rng(3).normal(size=grid.beta.shape)
    grid.time = 0.03
    tev = TEvaluator(ch, grid)
    got = step(grid, tev, 0.01).beta
    want = einsum_step(grid.beta, tev, grid.time, 0.01)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_run_matches_horner_einsum_reference():
    # 20 steps at the run's default orders (6, 6)
    f, psi = ex.parse("1+x1^2+x3"), ex.parse("x1+x2^2-x1*x2")
    rep = run(f, None, (0, 0, 0), ("psi", psi), t_max=0.1, dt=0.005,
              n1=11, n2=9, h1=0.01, h2=0.01)
    ch = build_chart(f, None, (0, 0, 0), t_order=6, xi_order=6, frame="auto")
    got = init_from_potential(GridField.centered(11, 9, 0.01, 0.01), psi)
    T, tev, ref = horner_T(ch, got), TEvaluator(ch, got), got.beta
    for n in range(20):
        ref = einsum_step(ref, T, got.time, 0.005)
        got = step(got, tev, 0.005)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got.beta - ref)) <= 1e-13 * scale
        assert abs(rep.max_beta[n + 1] - scale) <= 1e-13 * scale


def test_run_carries_T_from_step_to_step(monkeypatch):
    # consecutive steps share T at their common endpoint: 2S + 1 evaluations
    # for S steps (3S = 60 when each step evaluated T at its start), and the
    # report is bit for bit that of a chain of step calls
    times, real = [], TEvaluator.__call__

    def counting(self, t):
        times.append(t)
        return real(self, t)

    monkeypatch.setattr(TEvaluator, "__call__", counting)
    f, psi = ex.parse("1+x1^2+x3"), ex.parse("x1+x2^2-x1*x2")
    rep = run(f, None, (0, 0, 0), ("psi", psi), t_max=0.1, dt=0.005,
              n1=11, n2=9, h1=0.01, h2=0.01)
    assert len(times) == 41
    ch = build_chart(f, None, (0, 0, 0), t_order=6, xi_order=6, frame="auto")
    grid = init_from_potential(GridField.centered(11, 9, 0.01, 0.01), psi)
    tev, ref = TEvaluator(ch, grid), DriftReport()
    ref.record(grid)
    for _ in range(20):
        grid = step(grid, tev, 0.005)
        ref.record(grid)
    assert rep.to_csv() == ref.to_csv()


def test_nodes_evolve_independently():
    # evolving a subgrid reproduces the matching nodes of the full grid
    f = ex.parse("1+x1^2+x3")
    ch = build_chart(f, None, (0, 0, 0), t_order=4, xi_order=4, frame="rotated")
    full = GridField.centered(9, 9, 0.01, 0.01)
    full = init_from_potential(full, ex.parse("x1+x2^2"))
    sub = GridField(full.xi1[2:7], full.xi2[2:7], full.beta[2:7, 2:7].copy(), 0.0)
    full_tev = TEvaluator(ch, full)
    full_out = step(full, full_tev, 0.01)
    sub_out = step(sub, TEvaluator(ch, sub), 0.01)
    assert np.array_equal(sub_out.beta, full_out.beta[2:7, 2:7])
    # an evaluator belongs to the grid it was sampled on
    with pytest.raises(DomainError):
        step(sub, full_tev, 0.01)


def test_energy_bound():
    f = ex.parse("1+x1^2+x3")
    ch = build_chart(f, None, (0, 0, 0), t_order=5, xi_order=5, frame="rotated")
    grid = GridField.centered(9, 9, 0.01, 0.01)
    grid = init_from_potential(grid, ex.parse("x1+x2"))
    tev = TEvaluator(ch, grid)
    dt, steps = 0.005, 20
    norm0 = np.linalg.norm(grid.beta, axis=2)
    integral = np.zeros(norm0.shape).ravel()
    g = grid
    for _ in range(steps):
        Ts = tev(g.time)
        integral += np.linalg.norm(Ts, ord=2, axis=(0, 1)) * dt
        g = step(g, tev, dt)
    norm_t = np.linalg.norm(g.beta, axis=2)
    bound = norm0 * np.exp(integral.reshape(norm0.shape)) * (1.0 + 1e-6)
    assert np.all(norm_t <= bound + 1e-12)


def test_timestep_convergence_order():
    # halving dt changes the node values at 4th order once spatial sampling
    # is fixed (pure time integration error)
    f = ex.parse("1+x1^2+x3")
    bindings = None

    def final_beta(dt):
        rep_grid = GridField.centered(5, 5, 0.01, 0.01)
        ch = build_chart(f, bindings, (0, 0, 0), t_order=5, xi_order=5, frame="rotated")
        tev = TEvaluator(ch, rep_grid)
        g = init_from_potential(rep_grid, ex.parse("x1+x2"))
        nsteps = int(round(0.2 / dt))
        for _ in range(nsteps):
            g = step(g, tev, dt)
        return g.beta

    ref = final_beta(0.0025)
    e1 = np.max(np.abs(final_beta(0.02) - ref))
    e2 = np.max(np.abs(final_beta(0.01) - ref))
    assert e1 / e2 > 10.0  # 4th order would give ~16x up to the reference bias


def test_run_affine_exact_baseline_is_flat_in_xi():
    a = 1.0
    e = np.array([a, 0.0, 1.0])
    u0 = np.cross(e, [0.0, 1.0, 0.0])
    u = affine_field(1.0, tuple(e), tuple(u0 / np.linalg.norm(u0)))
    rep = run(ex.parse("1+a*x1+x3"), {"a": a}, (0, 0, 0), ("field", u),
              t_max=0.05, dt=0.005, n1=11, n2=11, h1=0.01, h2=0.01)
    # the exact solution is constant on every level surface, so the sampled
    # data has no xi-variation at all and the discrete drift is identically 0
    assert max(rep.max_drift) == 0.0
    assert rep.max_beta[-1] > 0.5


def test_run_generic_drift_grows():
    rep = run(ex.parse("1+x1^2+x3"), None, (0, 0, 0), ("psi", ex.parse("x1+x2")),
              t_max=0.05, dt=0.005, n1=11, n2=11, h1=0.01, h2=0.01)
    assert rep.max_drift[0] < 1e-14  # constant initial data is exactly closed
    assert rep.max_drift[-1] > 1e-3
    assert rep.times == sorted(rep.times)


@pytest.mark.parametrize("t_max,dt", [
    (0.1, 0.0),
    (0.1, -0.005),
    (-0.1, 0.005),
    (0.1, 0.03),  # not a multiple of dt
    (0.3, 0.005),  # beyond the patch
])
def test_run_rejects_time_inputs_before_building_a_chart(monkeypatch, t_max, dt):
    def no_chart(*args, **kwargs):
        raise AssertionError("a chart was built before the time inputs were checked")

    monkeypatch.setattr(evolution, "build_chart", no_chart)
    with pytest.raises(DomainError):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=t_max, dt=dt, n1=9, n2=9, h1=0.01, h2=0.01)


@pytest.mark.parametrize("t_max, dt", [
    (0.01, 0.0), (0.01, math.inf), (0.01, math.nan), (math.nan, 0.005), (math.inf, 0.005),
])
def test_run_rejects_non_finite_steps_and_times(monkeypatch, t_max, dt):
    # an inf dt plans 0 steps, as 0 * inf = nan slips past the multiple-of-dt
    # check; a NaN would reach int(round(nan))
    def no_chart(*args, **kwargs):
        raise AssertionError("a chart was built before the time inputs were checked")

    monkeypatch.setattr(evolution, "build_chart", no_chart)
    with pytest.raises(DomainError) as err:
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=t_max, dt=dt, n1=9, n2=9, h1=0.01, h2=0.01)
    assert str(err.value) == (f"need a finite dt > 0 and a finite t_max >= 0, got dt = {dt}, "
                              f"t_max = {t_max}")


@pytest.mark.parametrize("h1, h2", [
    (math.nan, 0.01), (0.01, math.nan), (math.nan, math.nan), (math.inf, 0.01), (0.01, math.inf),
])
def test_run_rejects_non_finite_spacings_before_building_a_chart(monkeypatch, h1, h2):
    # a NaN fails every comparison: "h <= 0" let it through, and the run
    # reported a NaN max drift with a normalized drift of 0
    def no_chart(*args, **kwargs):
        raise AssertionError("a chart was built before the spacings were checked")

    monkeypatch.setattr(evolution, "build_chart", no_chart)
    with pytest.raises(DomainError):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1+x2")),
            t_max=0.01, dt=0.005, n1=9, n2=9, h1=h1, h2=h2)


def test_run_rejects_a_grid_beyond_the_patch_before_allocating(monkeypatch):
    # 41 nodes at spacing 0.1 reach 2.0 from the base point; the grid is not
    # built, nor the chart, nor the initial data evaluated
    def no_call(*args, **kwargs):
        raise AssertionError("the run went past its grid-extent check")

    monkeypatch.setattr(GridField, "centered", no_call)
    monkeypatch.setattr(evolution, "build_chart", no_call)
    with pytest.raises(DomainError, match="grid extent 2 exceeds"):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=0.01, dt=0.005, n1=41, n2=41, h1=0.1, h2=0.1)
    with pytest.raises(DomainError, match="grid extent 0.25 exceeds"):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=0.01, dt=0.005, n1=9, n2=51, h1=0.01, h2=0.01)


def test_run_rejects_a_grid_above_the_node_budget_before_allocating(monkeypatch):
    # 20001x20001 nodes at spacing 1e-5 stay inside the patch, and the grid
    # alone would take 6.4 GB; the run refuses it before anything is built
    def no_call(*args, **kwargs):
        raise AssertionError("the run went past its node-count check")

    monkeypatch.setattr(GridField, "centered", no_call)
    monkeypatch.setattr(evolution, "build_chart", no_call)
    with pytest.raises(BudgetError, match="20001x20001 grid has 400040001 nodes"):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=0.01, dt=0.005, n1=20001, n2=20001, h1=1e-5, h2=1e-5)
    n = math.isqrt(evolution.MAX_GRID_NODES)
    with pytest.raises(BudgetError, match="above the limit"):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=0.01, dt=0.005, n1=n + 1, n2=n, h1=1e-5, h2=1e-5)
    # at the limit the check passes and the grid is built
    with pytest.raises(AssertionError, match="node-count"):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=0.01, dt=0.005, n1=n, n2=n, h1=1e-5, h2=1e-5)


def test_run_rejects_a_step_count_above_the_budget_before_allocating(monkeypatch):
    # dt = 1e-300 plans 10^298 steps, and at dt = 1e-320 the quotient
    # t_max / dt overflows to inf; the run refuses both, and one step above
    # the limit, before anything is built
    def no_call(*args, **kwargs):
        raise AssertionError("the run went past its step-count check")

    monkeypatch.setattr(GridField, "centered", no_call)
    monkeypatch.setattr(evolution, "build_chart", no_call)
    limit = evolution.MAX_STEPS
    for t_max, dt in ((0.01, 1e-300), (0.01, 1e-320), (0.2, 0.2 / (limit + 1))):
        with pytest.raises(BudgetError, match=f"above the limit {limit}"):
            run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
                t_max=t_max, dt=dt, n1=5, n2=5, h1=0.01, h2=0.01)
    # at the limit the check passes and the grid is built
    with pytest.raises(AssertionError, match="step-count"):
        run(ex.parse("1+x3"), None, (0, 0, 0), ("psi", ex.parse("x1")),
            t_max=0.2, dt=0.2 / limit, n1=5, n2=5, h1=0.01, h2=0.01)


def test_run_samples_T_on_the_grid_once(monkeypatch):
    # sampling per RK4 stage would make the count grow with the steps: T is
    # sampled once per run, the field init once more, and no node-by-monomial
    # design matrix is built
    real, calls = evolution._on_axes, []

    def counting(C, grid):
        calls.append(C.shape)
        return real(C, grid)

    def no_design_matrix(space, pts):
        raise AssertionError("a run built a node-by-monomial design matrix")

    monkeypatch.setattr(evolution, "_on_axes", counting)
    monkeypatch.setattr(series, "_design_matrix", no_design_matrix)
    u = ex.parse_vector(["x2", "sin(x1)", "x1*x3"])
    counts = []
    for init in (("psi", ex.parse("x1+x2")), ("field", u)):
        for steps in (2, 8):
            calls.clear()
            run(ex.parse("1+x1^2+x3"), None, (0, 0, 0), init, t_max=steps * 0.005,
                dt=0.005, n1=9, n2=9, h1=0.01, h2=0.01, t_order=4, xi_order=3)
            counts.append(list(calls))
    T = (5, 4, 4, 4)  # t-degrees, entries, xi1-degrees, xi2-degrees
    assert counts == [[T], [T], [(2, 4, 4), T], [(2, 4, 4), T]]


@pytest.mark.parametrize("orders", [(5, 3), (2, 6)])
def test_axis_sampling_matches_series_eval(orders):
    # a grid with different node counts and spacings on its axes, and orders
    # with t_order != xi_order: V1 C V2^T against the design-matrix eval of
    # each series, which differ only in the order of the sums
    ch = build_chart(ex.parse("1+x1+x1^2*x2+x2^3+x3"), None, (0, 0, 0),
                     t_order=orders[0], xi_order=orders[1], frame="rotated")
    grid = GridField.centered(9, 13, 0.01, 0.007)
    got = TEvaluator(ch, grid).coeffs.reshape(orders[0] + 1, 2, 2, -1)
    want = t_parts(ch, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    u = ex.parse_vector(["x2 + x1*x2^2", "sin(x1) + x3*x2", "x1*x3"])
    got = init_from_field(grid, u, ch).beta.reshape(-1, 2)
    x0 = tuple(s.slice_at_zero("t") for s in ch.x_world())
    want = np.column_stack([b.eval(grid.nodes()) for b in chart_pullback(u, x0)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_field_pullback_composes_shared_subtrees_once(op_counts):
    # the workload's field: each component reads cos(theta), sin(theta) and
    # both partials of psi, which the parser makes one node each; 94 series
    # products and 4 univariate compositions when each component built its own
    th = "(-(x3+x3^2/2))"
    r1, r2 = "(5*x1^4-30*x1^2*x2^2+5*x2^4)", "(20*x1*x2^3-20*x1^3*x2)"
    p1, p2 = f"(0.8*{r1}+(0.6)*{r2})", f"(0.8*{r2}-(0.6)*{r1})"
    u = ex.parse_vector([f"cos{th}*{p1}-sin{th}*{p2}", f"sin{th}*{p1}+cos{th}*{p2}", "0"])
    ch = build_chart(ex.parse("1+x3"), None, (0, 0, 0), frame="auto")
    x0 = tuple(s.slice_at_zero("t") for s in ch.x_world())
    op_counts.reset()
    chart_pullback(u, x0)
    assert (op_counts.products.total(), op_counts.univariate) == (38, 2)


def test_csv_format():
    rep = DriftReport()
    grid = GridField.centered(5, 5, 0.01, 0.01)
    grid.beta[:, :, 0] = 1.0
    rep.record(grid)
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,max_drift,l2_drift,max_beta,max_drift_normalized"
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 5
