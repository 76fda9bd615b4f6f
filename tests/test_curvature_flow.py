import numpy as np
import pytest
from conftest import counting

from centroflow import curvature_flow, curve_flow, spectral, trajectory
from centroflow.curvature_flow import CurvatureFlowState, cfl_limit, evolve, rhs, step
from centroflow.curve import ClosedCurve, origin_ellipse, perturbed_ellipse, random_star_convex
from centroflow.errors import (BlowUp, DegenerateMetric, NonConstantSign,
                               StabilityViolation)
from centroflow.invariants import xi_derivative
from centroflow.spectral import derivative, grid, periodic_integral
from centroflow.trajectory import COLUMNS, plan_steps


def flat_state(phi, g=None, t=0.0):
    n = len(phi)
    return CurvatureFlowState(t=t, g=np.ones(n) if g is None else g, phi=phi)


def test_xi_derivative_examples():
    n = 256
    p = grid(n)
    got = xi_derivative(np.sin(p), np.ones(n), 1)
    assert np.abs(got - np.cos(p)).max() <= 1e-12
    got = xi_derivative(np.sin(p), 2.0 * np.ones(n), 1)
    assert np.abs(got - 0.5 * np.cos(p)).max() <= 1e-12
    # pointwise-division oracle for a varying metric
    g = 1.0 + 0.5 * np.cos(p)
    got = xi_derivative(np.sin(p), g, 1)
    assert np.abs(got - np.cos(p) / g).max() <= 1e-12


def test_state_validation():
    with pytest.raises(DegenerateMetric):
        CurvatureFlowState(0.0, np.zeros(32), np.zeros(32))
    with pytest.raises(ValueError):
        CurvatureFlowState(0.0, np.ones(32), np.zeros(16))


def test_rhs_fixed_point():
    n = 128
    state = flat_state(np.zeros(n), 1.3 * np.ones(n))
    g_dot, phi_dot = rhs(state)
    assert np.abs(g_dot).max() == 0.0
    assert np.abs(phi_dot).max() == 0.0


def test_rhs_cubic_root():
    # +-2 are roots of -phi^3/2 + 2 phi, so a constant 2 has no phi tendency
    n = 128
    state = flat_state(2.0 * np.ones(n))
    g_dot, phi_dot = rhs(state)
    assert np.abs(phi_dot).max() <= 1e-12
    assert np.abs(g_dot - 2.0).max() <= 1e-12  # (1/2) * 4 * 1


def test_rhs_hand_example():
    # phi = 0.1 sin(xi), g = 1: phi_dot = 0.15 sin - 0.0005 sin^3
    n = 256
    p = grid(n)
    state = flat_state(0.1 * np.sin(p))
    _, phi_dot = rhs(state)
    want = 0.15 * np.sin(p) - 0.0005 * np.sin(p) ** 3
    assert np.abs(phi_dot - want).max() <= 1e-12


def test_cfl_guard():
    n = 256
    state = flat_state(0.1 * np.sin(grid(n)))
    assert state.g_min == state.g.min()
    limit = cfl_limit(state.g_min, n)
    assert limit == pytest.approx(0.5 * (2 * np.pi / n) ** 2)
    with pytest.raises(StabilityViolation):
        step(state, 2 * limit)


def test_step_fixed_point_only_time_moves():
    n = 128
    state = flat_state(np.zeros(n), 0.7 * np.ones(n))
    out = step(state, 1e-4)
    assert out.t == pytest.approx(1e-4)
    assert np.abs(out.phi).max() <= 1e-14
    assert np.abs(out.g - 0.7).max() <= 1e-14


def test_step_self_convergence():
    # one coarse step vs 16 fine substeps: local error is O(dt^5)
    n = 64
    p = grid(n)
    state = flat_state(0.1 * np.sin(p))
    dt = 5e-4
    coarse = step(state, dt)
    fine = state
    for _ in range(16):
        fine = step(fine, dt / 16)
    gap = np.abs(coarse.phi - fine.phi).max()
    assert gap <= 10.0 * dt**5


def test_step_blowup_ceiling(monkeypatch):
    n = 64
    state = flat_state(3.0 * np.sin(grid(n)))
    monkeypatch.setattr(curvature_flow, "PHI_CEILING", 2.0)
    with pytest.raises(BlowUp):
        step(state, 1e-4)


def test_evolve_record_count_and_fixed_point():
    state = CurvatureFlowState.from_curve(origin_ellipse(1.5, 1 / 1.5, n=64))
    traj = evolve(state, 0.1, 1e-3, record_stride=10)
    # rows: 1 + floor(steps/stride)
    assert len(traj) == 1 + 100 // 10
    assert np.abs(traj.column("E")).max() <= 1e-20
    L = traj.column("L")
    assert np.abs(L - L[0]).max() <= 1e-12
    assert traj.final.t == pytest.approx(0.1)


def test_evolve_requires_integer_steps():
    state = flat_state(np.zeros(64))
    with pytest.raises(ValueError):
        evolve(state, 0.1, 3e-4)


def test_plan_steps_needs_a_clock_that_resolves_dt(monkeypatch):
    # at t = 1e300 one float step is 1.5e284: the clock would never reach the horizon
    with pytest.raises(ValueError, match="float clock near t = 1e\\+300 cannot resolve"):
        plan_steps(0.0, 1e300, 1e-4)
    # the bound is the spacing at the horizon: 2**-12 at 2**40
    with pytest.raises(ValueError, match="cannot resolve steps of dt"):
        plan_steps(0.0, 2.0**40, 2.0**-12)
    # a horizon the clock resolves but no run can finish
    with pytest.raises(ValueError, match="horizon 1e\\+11 takes 1000000000000000 steps of "
                                         "dt = 0.0001, more than MAX_STEPS = 100000000"):
        plan_steps(0.0, 1e11, 1e-4)
    monkeypatch.setattr(trajectory, "MAX_STEPS", 2**51)   # read at call time
    assert plan_steps(0.0, 2.0**40, 2.0**-11) == 2**51


@pytest.mark.parametrize("dt", [0.0, -1e-4, float("nan")], ids=["zero", "negative", "nan"])
def test_both_evolves_reject_a_dt_that_is_not_positive(dt):
    # the plan rejects it before it divides by it, or reads it as a clock or horizon fault
    curve = perturbed_ellipse(1, 1, 0.05, 3, n=64)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        plan_steps(0.0, 1e-3, dt)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        evolve(CurvatureFlowState.from_curve(curve), 1e-3, dt)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        curve_flow.evolve(curve_flow.CurveFlowState(0.0, curve), 1e-3, dt)
    # each step rejects it before anything else, the curve state's stage included
    with pytest.raises(ValueError, match="^dt must be positive$"):
        step(CurvatureFlowState.from_curve(curve), dt)
    start = curve_flow.CurveFlowState(0.0, curve)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        curve_flow.step(start, dt)
    assert "stage" not in vars(start)


def test_plan_steps_needs_a_horizon_past_the_start():
    for t_end in (0.5, 1.0):
        with pytest.raises(ValueError, match="^t_end must exceed the state's time$"):
            plan_steps(1.0, t_end, 0.1)


def test_plan_steps_caps_the_steps_at_max_steps():
    dt = 2.0**-10   # every horizon below is a float multiple of dt
    assert trajectory.MAX_STEPS == 10**8
    assert plan_steps(0.0, 10**8 * dt, dt) == 10**8
    assert plan_steps(1.0, 1.0 + 10**8 * dt, dt) == 10**8
    with pytest.raises(ValueError, match="takes 100000001 steps"):
        plan_steps(0.0, (10**8 + 1) * dt, dt)


def test_evolve_annotates_failure_time(monkeypatch):
    n = 64
    state = flat_state(1.9 * np.sin(grid(n)))
    monkeypatch.setattr(curvature_flow, "PHI_CEILING", 1.95)
    with pytest.raises(BlowUp) as info:
        evolve(state, 1.0, 1e-3)
    assert info.value.time is not None and 0 < info.value.time <= 1.0


def test_observer_called_each_record():
    # the observer gets each step and its state, in order, the record steps included
    seen = []
    state = flat_state(0.05 * np.sin(grid(64)))
    traj = evolve(state, 0.01, 1e-3, record_stride=2,
                  observer=lambda i, s: seen.append((i, s)))
    assert [i for i, _ in seen] == list(range(11))
    assert all(isinstance(s, CurvatureFlowState) for _, s in seen)
    assert [s.t for i, s in seen if i % 2 == 0] == traj.column("t").tolist()


def test_mean_zero_conserved_and_extrema_signs():
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3))
    traj = evolve(state, 0.5, 1e-4, record_stride=50)
    L = traj.column("L")
    mean = traj.column("mean_phi")
    assert np.abs(mean).max() <= 1e-6
    assert np.all(traj.column("phi_min") <= 1e-12)
    assert np.all(traj.column("phi_max") >= -1e-12)
    assert abs(periodic_integral(traj.final.phi * traj.final.g)) <= 1e-6 * L[-1]


def test_snapshots_recorded():
    # an observer keeps the state every 5 steps: the given one, then the stepped ones
    state, kept = flat_state(0.05 * np.sin(grid(64))), []
    traj = evolve(state, 0.01, 1e-3, observer=lambda i, s: kept.append(s) if i % 5 == 0 else None)
    assert [s.t for s in kept] == pytest.approx([0.0, 0.005, 0.01])
    assert kept[0] is state and kept[-1] is traj.final


# ---------------------------------------------------------------- reference path
# The scalar march as it was written before its stage kernel: a validated
# state per RK4 stage, the xi-derivatives by spectral.derivative, and every
# record recomputing its xi-derivatives. A stage's phi_xixi is the chain rule
# (phi_pp - phi_xi g_p) / g / g; a record's xi-derivatives are each
# derivative(previous) / g. The lean path must reproduce it bit for bit. The
# cube and the quartic are IEEE products, phi * phi * phi and (phi^2)^2
# (numpy's **2 is np.square); with power=True they are numpy's power, and with
# chain_rule=False a stage's phi_xixi is derivative(phi_xi) / g, four transforms
# a stage: the arithmetic the march had before, each of which agrees with the
# lean path to roundoff only.

def _reference_xi_derivatives(phi, g):
    """[phi_xi, phi_xixi, phi_xixixi, phi_xixixixi], each derivative(previous) / g."""
    out = [phi]
    for _ in range(4):
        out.append(derivative(out[-1]) / g)
    return out[1:]


def _reference_rhs(state, power=False, chain_rule=True):
    g, phi = state.g, state.phi
    if chain_rule:
        phi_xi = derivative(phi) / g
        phi_xx = (derivative(phi, 2) - phi_xi * derivative(g)) / g / g
    else:
        phi_xx = _reference_xi_derivatives(phi, g)[1]
    cubed = phi**3 if power else phi * phi * phi
    return 0.5 * phi**2 * g, 0.5 * phi_xx - 0.5 * cubed + 2.0 * phi


def _reference_step(state, dt, power=False, chain_rule=True):
    def f(g, phi):
        return _reference_rhs(CurvatureFlowState(state.t, g, phi), power, chain_rule)

    g, phi = state.g, state.phi
    k1g, k1p = f(g, phi)
    k2g, k2p = f(g + 0.5 * dt * k1g, phi + 0.5 * dt * k1p)
    k3g, k3p = f(g + 0.5 * dt * k2g, phi + 0.5 * dt * k2p)
    k4g, k4p = f(g + dt * k3g, phi + dt * k3p)
    return CurvatureFlowState(t=state.t + dt,
                              g=g + dt / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g),
                              phi=phi + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _reference_record(t, g, phi, power=False):
    derivatives = _reference_xi_derivatives(phi, g)
    norms = [periodic_integral(f**2 * g) for f in derivatives]
    phi_xi = derivatives[0]
    L = periodic_integral(g)
    row = dict(t=t, L=L, E=periodic_integral(phi**2 * g), phi_min=float(phi.min()),
               phi_max=float(phi.max()), mean_phi=periodic_integral(phi * g) / L,
               H1=norms[0], H2=norms[1], H3=norms[2], H4=norms[3],
               energy_residual=np.nan, h1_residual=np.nan, area=np.nan,
               quartic=periodic_integral((phi**4 if power else (phi**2)**2) * g),
               mixed=periodic_integral(phi**2 * phi_xi**2 * g))
    return np.array([row[name] for name in COLUMNS])


def _reference_residuals(rows):
    # finalize_residuals as a per-record loop, one Simpson stencil at a time
    t, E, h1, h2, quartic, mixed, res_e, res_h = (COLUMNS.index(name) for name in (
        "t", "E", "H1", "H2", "quartic", "mixed", "energy_residual", "h1_residual"))

    def energy_rate(row):
        return -row[h1] - 0.5 * row[quartic] + 4.0 * row[E]

    def h1_rate(row):
        return -row[h2] + 4.0 * row[h1] - 3.5 * row[mixed]

    for prev, row, nxt in zip(rows, rows[1:], rows[2:]):
        span = nxt[t] - prev[t]
        for res, x, rate, norm in ((res_e, E, energy_rate, row[h1] + row[E] + 1.0),
                                   (res_h, h1, h1_rate, row[h2] + row[h1] + 1.0)):
            simpson = (rate(prev) + 4.0 * rate(row) + rate(nxt)) / 6.0
            row[res] = abs((nxt[x] - prev[x]) / span - simpson) / norm


def _rough_state():
    # a non-uniform metric, and curvature whose upper modes start at roundoff,
    # so that the derivative's noise trim acts
    p = grid(64)
    return CurvatureFlowState(0.0, 1.0 + 0.3 * np.cos(p),
                              0.2 * np.sin(2 * p) + 0.1 * np.cos(3 * p))


def _m3_image_state():
    # the benchmark's grid: (g, phi) of a GL(2) image of m3 at N 256
    mat = np.array([[1.3, 0.4], [-0.2, 0.8]])
    return CurvatureFlowState.from_curve(
        ClosedCurve(perturbed_ellipse(1, 1, 0.05, 3, n=256).points @ mat.T))


# chain_rule=True: the reference stage takes phi_xixi by the chain rule, as the lean
# stage does
@pytest.mark.parametrize("chain_rule,start", [(True, _rough_state), (True, _m3_image_state)],
                         ids=["True", "m3 image N 256"])
def test_step_bit_identical_to_reference(chain_rule, start):
    state = want = start()
    for _ in range(50):
        state = step(state, 1e-4)
        want = _reference_step(want, 1e-4, chain_rule=chain_rule)
        assert state.t == want.t
        assert np.array_equal(state.g, want.g) and np.array_equal(state.phi, want.phi)
    g_dot, phi_dot = rhs(state)
    want_g_dot, want_phi_dot = _reference_rhs(state, chain_rule=chain_rule)
    assert np.array_equal(g_dot, want_g_dot) and np.array_equal(phi_dot, want_phi_dot)


@pytest.mark.parametrize("chain_rule,record_stride,start,residual_rows", [
    (True, 1, _rough_state, None), (True, 3, _rough_state, None),
    (True, 1, _m3_image_state, None), (True, 3, _m3_image_state, None),
    (True, 1, _m3_image_state, 2), (True, 3, _m3_image_state, 3)],
    ids=["True-1", "True-3", "m3 image N 256-1", "m3 image N 256-3",
         "m3 image N 256-1 residual blocks of 2", "m3 image N 256-3 residual blocks of 3"])
def test_evolve_records_bit_identical_to_reference(monkeypatch, chain_rule, record_stride,
                                                   start, residual_rows):
    if residual_rows is not None:
        # finalize_residuals then takes its stencils in 15 and 3 blocks
        monkeypatch.setattr(trajectory, "_RESIDUAL_ROWS", residual_rows)
    state = start()
    traj = evolve(state, 30e-4, 1e-4, record_stride=record_stride)
    want = []
    current = state
    for i in range(31):
        if i:
            current = _reference_step(current, 1e-4, chain_rule=chain_rule)
        if i % record_stride == 0:
            want.append(_reference_record(current.t, current.g, current.phi))
    _reference_residuals(want)
    assert len(traj.records) == len(want) == 1 + 30 // record_stride
    for got, ref in zip(traj.records, want):
        assert np.array_equal(got, ref, equal_nan=True), (got, ref)
    assert np.array_equal(traj.final.g, current.g)
    assert np.array_equal(traj.final.phi, current.phi)


def test_stage_cubes_phi_by_products():
    # a mixed-sign phi of amplitude 2.5, where the cubic dominates phi_dot, so a
    # last-bit change in the cube shows in the stage's phi_dot
    p = grid(64)
    g = 1.0 + 0.3 * np.cos(p)
    phi = 2.5 * (np.sin(p) + 0.4 * np.cos(2 * p) - 0.3 * np.sin(5 * p))
    _, phi_dot = curvature_flow._stage(np.array((g, phi)))
    phi_xi = derivative(phi) / g
    phi_xixi = (derivative(phi, 2) - phi_xi * derivative(g)) / g / g
    assert np.array_equal(phi_dot, 0.5 * phi_xixi - 0.5 * (phi * phi * phi) + 2.0 * phi)


def test_products_agree_with_the_power_march_to_roundoff():
    # the march as it was with numpy's power for the cube and the quartic: the
    # products move the records by roundoff only
    state = _m3_image_state()
    got = np.array(evolve(state, 30e-4, 1e-4, record_stride=1).records)
    want, current = [], state
    for i in range(31):
        if i:
            current = _reference_step(current, 1e-4, power=True)
        want.append(_reference_record(current.t, current.g, current.phi, power=True))
    _reference_residuals(want)
    want = np.array(want)
    for name in ("L", "E", "phi_min", "phi_max", "H1", "H2", "H3", "H4", "quartic", "mixed"):
        i = COLUMNS.index(name)
        assert np.all(np.abs(got[:, i] - want[:, i]) <= 1e-13 * np.abs(want[:, i])), name
    for name in ("mean_phi", "energy_residual", "h1_residual"):
        i = COLUMNS.index(name)
        # the residuals are NaN at both ends, on both sides
        assert np.array_equal(np.isnan(got[:, i]), np.isnan(want[:, i])), name
        assert np.nanmax(np.abs(got[:, i] - want[:, i])) <= 1e-12, name


def test_the_chain_rule_agrees_with_the_repeated_derivative_to_roundoff():
    # the march as it was with the stage's phi_xixi = derivative(phi_xi) / g, four
    # transforms a stage: over 500 steps of the benchmark's grid the chain rule moves
    # the records by roundoff only
    state = _m3_image_state()
    got = evolve(state, 500e-4, 1e-4, record_stride=10).records
    want, current = [], state
    for i in range(501):
        if i:
            current = _reference_step(current, 1e-4, chain_rule=False)
        if i % 10 == 0:
            want.append(_reference_record(current.t, current.g, current.phi))
    want = np.array(want)
    assert got.shape == want.shape == (51, len(COLUMNS))
    for name in ("L", "E", "H1", "H2", "H3", "H4"):
        i = COLUMNS.index(name)
        assert np.all(np.abs(got[:, i] - want[:, i]) <= 1e-13 * np.abs(want[:, i])), name
    for name in ("phi_min", "phi_max"):
        i = COLUMNS.index(name)
        assert np.all(np.abs(got[:, i] - want[:, i]) <= 1e-13), name


@pytest.mark.parametrize("start,bound", [
    (_m3_image_state, 1e-11),
    (lambda: CurvatureFlowState.from_curve(random_star_convex(3, n=128)), 1e-9),
    (lambda: CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.08, 3, n=64)), 1e-5),
], ids=["m3 image N 256", "star 3 N 128", "m3 0.08 N 64"])
def test_a_march_at_the_cfl_bound_keeps_its_top_modes_small(start, bound):
    # the chain rule diffuses the Nyquist mode too: at dt = cfl_limit, dt times its rate
    # is at most (pi^2 / 4) (g_min / g)^2, about 2.47, inside RK4's real-axis interval
    # of about 2.78. The star's top third ends near 3e-11 (4e-8 with phi_xixi taken as
    # derivative(phi_xi) / g); the other two end near 2e-13 and 6e-7 either way
    state = start()
    n, dt = state.n, 0.99 * cfl_limit(state.g_min, state.n)
    for _ in range(3000):
        state = step(state, dt)
    assert np.abs(np.fft.rfft(state.phi)[n // 3:]).max() <= bound


def test_non_finite_stage_ends_as_blowup_with_time(monkeypatch):
    # phi^3 overflows in the first stage; later stages and the step result go non-finite.
    # The ceiling is lifted so the start state (max|phi| 1e110) is not judged above it
    monkeypatch.setattr(curvature_flow, "PHI_CEILING", np.inf)
    state = flat_state(1e110 * np.sin(grid(64)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUp, match="non-finite") as info:
            evolve(state, 1e-3, 1e-4)
    assert info.value.time == pytest.approx(1e-4)


def test_stage_kernel_checks_the_metric():
    with pytest.raises(DegenerateMetric):
        curvature_flow._stage(np.array((np.r_[np.ones(31), 0.0], np.zeros(32))))


def test_one_state_build_per_step(monkeypatch):
    built = []
    original = CurvatureFlowState.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    state = _rough_state()
    monkeypatch.setattr(CurvatureFlowState, "__post_init__", counting)
    traj = evolve(state, 10e-4, 1e-4)
    assert len(built) == 10
    assert len(traj.records) == 11


def test_geometry_error_mid_march_carries_step_time(monkeypatch):
    # stage calls: 4 per step and none per record; call 4k - 2 is the second stage
    # of step k, which starts at (k - 1) dt
    calls = []
    original = curvature_flow._stage

    def failing(y):
        calls.append(None)
        if len(calls) == 4 * 3 - 2:
            raise NonConstantSign("injected at step 3")
        return original(y)

    monkeypatch.setattr(curvature_flow, "_stage", failing)
    with pytest.raises(NonConstantSign) as info:
        evolve(_rough_state(), 10e-4, 1e-4)
    assert info.value.time == pytest.approx(2e-4)


# ---------------------------------------------------------------- lean guards
# The guards read an array's extremes with one reduction each; they must reject
# what the elementwise scans (np.isfinite(...).all(), np.any(g <= 0)) rejected,
# with the same error, in the same order.

@pytest.mark.parametrize("field", ["g", "phi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_state_rejects_a_non_finite_field(field, bad):
    fields = {"g": np.ones(32), "phi": np.zeros(32)}
    fields[field][5] = bad
    with pytest.raises(ValueError, match="^state fields must be finite$"):
        CurvatureFlowState(0.0, **fields)
    # finiteness is judged before the sign of g
    fields["g"][9] = 0.0
    with pytest.raises(ValueError, match="^state fields must be finite$"):
        CurvatureFlowState(0.0, **fields)


def test_a_state_stacks_its_fields_as_the_rows_of_one_array():
    p = grid(32)
    y = np.array((1.0 + 0.3 * np.cos(p), 0.1 * np.sin(p)))
    # the rows of one array, fields given apart, and one row given twice
    for g, phi in ((y[0], y[1]), (y[0].copy(), y[1].copy()), (y[0], y[0])):
        state = CurvatureFlowState(0.0, g, phi)
        assert state.y.shape == (2, 32)
        assert np.array_equal(state.y[0], g) and np.array_equal(state.y[1], phi)
        assert np.shares_memory(state.g, state.y) and np.shares_memory(state.phi, state.y)
    # and so does a step's result
    new = step(CurvatureFlowState(0.0, *y), 1e-4)
    assert new.y.shape == (2, 32)
    assert np.shares_memory(new.g, new.y) and np.shares_memory(new.phi, new.y)


def test_state_of_empty_fields_builds():
    assert CurvatureFlowState(0.0, np.zeros(0), np.zeros(0)).n == 0


@pytest.mark.parametrize("value", [0.0, -0.0, -1e-300, -2.0])
def test_a_metric_sample_at_or_below_zero_is_degenerate(value):
    g = np.ones(32)
    g[7] = value
    with pytest.raises(DegenerateMetric, match="^metric g must be positive$"):
        CurvatureFlowState(0.0, g, np.zeros(32))
    # a NaN elsewhere does not hide it from the stage's or xi_derivative's guard
    for beside in (1.0, np.nan):
        g[20] = beside
        for call in (lambda: curvature_flow._stage(np.array((g, np.zeros(32)))),
                     lambda: xi_derivative(np.zeros(32), g)):
            with pytest.raises(DegenerateMetric, match="^metric g must be positive for xi-"):
                call()


def test_xi_derivative_passes_a_nan_metric_through():
    p = grid(32)
    g = np.ones(32)
    g[3] = np.nan
    got = xi_derivative(np.sin(p), g)
    assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()
    assert np.isnan(xi_derivative(np.sin(p), np.full(32, np.nan))).all()


@pytest.mark.parametrize("g_end,phi_end,error,message,at_end", [
    (-1.0, 0.5, DegenerateMetric, "^metric g must be positive$", False),
    (-1.0, 20.0, BlowUp, "^max\\|phi\\| exceeded ceiling 10$", True),
    (-1.0, np.inf, BlowUp, "^non-finite state after step$", True),
    (np.nan, 20.0, BlowUp, "^non-finite state after step$", True),
], ids=["metric", "ceiling before metric", "non-finite phi first", "non-finite g first"])
def test_a_produced_state_is_judged_in_order(monkeypatch, g_end, phi_end, error, message,
                                             at_end):
    # every stage returns the same rates, which carry sample 5 to about (g_end, phi_end)
    # in one step: finiteness, then the ceiling, then the metric
    dt = 1e-3
    g_dot, phi_dot = np.zeros(32), np.zeros(32)
    g_dot[5], phi_dot[5] = (g_end - 1.0) / dt, phi_end / dt
    velocity = np.array((g_dot, phi_dot))
    monkeypatch.setattr(curvature_flow, "_stage", lambda y: velocity)
    with pytest.raises(error, match=message) as info:
        step(flat_state(np.zeros(32)), dt)
    assert info.value.time == (dt if at_end else None)


def test_a_step_reads_the_peak_its_states_keep(monkeypatch):
    # a state's build takes max|phi| once; the ceiling judgements of the step that
    # makes it and of the next read it, and no step scans phi again
    peaks = counting(monkeypatch, curvature_flow, "_peak")
    traj = evolve(_rough_state(), 10e-4, 1e-4)
    assert peaks == []
    assert traj.final.peak == np.abs(traj.final.phi).max()


# ---------------------------------------------------------------- transform counts

def test_transform_counts_of_a_stage_and_a_march(monkeypatch):
    state = _m3_image_state()
    forward = counting(monkeypatch, spectral, "_rfft")
    inverse = counting(monkeypatch, spectral, "_irfft")
    curvature_flow._stage(state.y)
    # one forward of (g, phi); one inverse for g_p, phi_p and phi_pp
    assert (len(forward), len(inverse)) == (1, 1)
    for k, block, blocks in ((1, 16, 1), (3, 16, 1), (3, 2, 2)):
        monkeypatch.setattr(trajectory, "RECORD_BLOCK", block)
        start = _m3_image_state()
        del forward[:], inverse[:]
        evolve(start, k * 1e-4, 1e-4, record_stride=1)
        # 4k stages of 1 and 1; each block of the k + 1 records takes H1-H4 by 4 and 4
        assert len(forward) == len(inverse) == 4 * k + 4 * blocks
    # a step is 8 transforms, and the records' blocks 8 each
    assert len(forward) + len(inverse) == 8 * k + 8 * blocks
