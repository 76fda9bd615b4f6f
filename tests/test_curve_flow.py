import functools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import counting

from centroflow.curvature_flow import CurvatureFlowState
from centroflow.curvature_flow import rhs as scalar_rhs
from centroflow import curvature_flow, curve_flow, spectral
from centroflow.curve import (ClosedCurve, bracket, enclosed_area_of, origin_ellipse,
                              perturbed_ellipse, random_star_convex, shifted_ellipse,
                              star_convex)
from centroflow.curve_flow import CurveFlowState, consistency_check, evolve, step
from centroflow.diagnostics import check_energy_identities, check_flow_equivalence
from centroflow.errors import (BlowUp, DegenerateMetric, FlowError, NotStarShaped,
                               StabilityViolation)
from centroflow.invariants import centro_affine, xi_derivative
from centroflow.spectral import antiderivative, derivative, periodic_integral
from centroflow.trajectory import COLUMNS, FlowTrajectory, record_from_fields


def test_stage_velocity_vanishes_on_ellipse():
    # phi = 0 on an origin-centred ellipse: the gauge-invariant velocity is zero
    state = CurveFlowState(0.0, origin_ellipse(2, 0.5), lam=0.0)
    assert np.abs(state.stage[-1]).max() <= 1e-9


def test_rhs_matches_scalar_tendency():
    # the scalar rhs holds p fixed in the paper's gauge, where the samples move along the
    # curve at xi-rate phi/2; the ray gauge's samples do not, so at a fixed node
    # phi_t = phi_dot - phi phi_xi / 2 and, g being a density, g_t = g_dot - phi_p / 2.
    # Residuals measured at dt 1e-6 on m3 and the random star: phi 1.1e-4 and 1.2e-4 of
    # max|phi_dot|, g 1.2e-4 and 6.4e-5; with the correction's sign flipped, 9.1e-2 and
    # 7.8e-2, 5.7 and 3.7
    dt = 1e-6
    for curve in (perturbed_ellipse(1, 1, 0.05, 3), random_star_convex(3)):
        sstate = CurvatureFlowState.from_curve(curve)
        g_dot, phi_dot = scalar_rhs(sstate)
        field = centro_affine(step(CurveFlowState(0.0, curve, normalization="none"), dt).curve)
        phi_t = phi_dot - 0.5 * sstate.phi * xi_derivative(sstate.phi, sstate.g, 1)
        g_t = g_dot - 0.5 * derivative(sstate.phi)
        fd_phi, fd_g = (field.phi - sstate.phi) / dt, (field.g - sstate.g) / dt
        assert np.abs(fd_phi - phi_t).max() <= 1e-3 * np.abs(phi_dot).max()
        assert np.abs(fd_g - g_t).max() <= 1e-3


def test_a_state_names_a_known_normalization():
    with pytest.raises(ValueError, match=r"^normalization must be one of \('none', "
                                         r"'unit_area_scale'\)$"):
        CurveFlowState(0.0, origin_ellipse(1, 1, n=64), normalization="sideways")


def test_step_circle_fixed_point():
    state = CurveFlowState(0.0, origin_ellipse(1, 1), lam=0.0)
    ref = state.curve.points
    for _ in range(200):
        state = step(state, 1e-4)
    assert np.abs(state.curve.points - ref).max() <= 1e-9


def test_exponential_scaling_closed_form():
    # phi = 0 and lambda = 0.5 gives C(t) = e^(0.5 t) C0 exactly
    state = CurveFlowState(0.0, origin_ellipse(1, 1), lam=0.5, normalization="none")
    for _ in range(4000):
        state = step(state, 2.5e-4)
    want = math.e**0.5 * origin_ellipse(1, 1).points
    assert np.abs(state.physical_curve.points - want).max() <= 1e-8


def test_unit_area_renormalization():
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=0.3)
    for _ in range(50):
        state = step(state, 1e-4)
        assert state.curve.enclosed_area() == pytest.approx(np.pi, abs=1e-9)


def test_lambda_gauge_bit_identical_under_renormalization():
    a = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=0.0)
    b = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=1.0)
    for _ in range(300):
        a = step(a, 1e-4)
        b = step(b, 1e-4)
    assert np.array_equal(a.curve.points, b.curve.points)


def test_lambda_gauge_phi_without_renormalization():
    a = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=0.0, normalization="none")
    b = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=1.0, normalization="none")
    for _ in range(300):
        a = step(a, 1e-4)
        b = step(b, 1e-4)
    # the gauge-invariant representatives agree bit for bit
    assert np.array_equal(a.curve.points, b.curve.points)
    pa = centro_affine(a.physical_curve).phi
    pb = centro_affine(b.physical_curve).phi
    assert np.abs(pa - pb).max() <= 1e-8
    # physical coordinates differ by the exact gauge factor
    scale = math.exp(1.0 * 300 * 1e-4)
    gap = np.abs(b.physical_curve.points - scale * a.physical_curve.points).max()
    assert gap <= 1e-8 * scale


def _reference_potential(pts):
    # reference: int_0^xi phi dxi in closed form, ln(r / r(0)) with r = [C, C_p]/g, from
    # one spectral.derivative per order and the bracket helper
    cp, cpp = (derivative(pts, order) for order in (1, 2))
    den = bracket(pts, cp)
    ratio = bracket(cp, cpp) / den
    g = np.sqrt(int(np.sign(ratio)[0]) * ratio)
    ray = den / g
    return np.log(ray / ray[0])


def _reference_velocity(pts):
    return _reference_potential(pts)[:, None] * pts


def _reference_step(state, dt, potential=None):
    # reference: RK4 from k1 = potential C, then the raw result's area from its own
    # derivative and a rescaled copy; under "none" the gauge and the scale taken out go
    # to log_scale. Returns the produced state, the raw result and the factor squared.
    # Without a potential, k1 is the stage of the stored, rescaled curve: the definition
    # the step is bounded against up to roundoff
    pts = state.curve.points
    k1 = _reference_velocity(pts) if potential is None else potential[:, None] * pts
    k2 = _reference_velocity(pts + 0.5 * dt * k1)
    k3 = _reference_velocity(pts + 0.5 * dt * k2)
    k4 = _reference_velocity(pts + dt * k3)
    raw = ClosedCurve(pts + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), name=state.curve.name)
    area = 0.5 * periodic_integral(bracket(raw.points, derivative(raw.points, 1)))
    log_scale = state.log_scale
    if state.normalization == "none":
        log_scale += state.lam * dt + 0.5 * math.log(area / math.pi)
    produced = replace(state, t=state.t + dt, curve=raw.scaled(math.sqrt(math.pi / area)),
                       log_scale=log_scale)
    return produced, raw, math.pi / area


def _reference_march(state, dt, steps):
    # the reference steps from state, each produced state's k1 the potential of the raw
    # result it was rescaled from
    potential = _reference_potential(state.curve.points)
    for _ in range(steps):
        state, raw, squared = _reference_step(state, dt, potential)
        potential = _reference_potential(raw.points)
        yield state, raw, squared


def _unscaled_step(state, dt):
    # reference: a "none" step without the unit-area rescale, the gauge alone in log_scale
    new = curvature_flow._rk4(state, dt, curve_flow._start, curve_flow._velocity)
    return replace(state, t=state.t + dt, curve=ClosedCurve(new, name=state.curve.name),
                   log_scale=state.log_scale + state.lam * dt)


@pytest.mark.parametrize("curve,lam", [
    (perturbed_ellipse(1, 1, 0.05, 3, n=128), 0.7),
    (random_star_convex(3, n=128), -0.4),
    (ClosedCurve(1.7 * perturbed_ellipse(1, 1, 0.05, 3, n=128).points), 0.0),
], ids=["m3 0.7", "random star -0.4", "1.7 m3 0"])
def test_a_none_march_is_the_unscaled_march_up_to_roundoff(curve, lam):
    # the velocity is homogeneous of degree 1 in C, so the unit-area march times e^sigma
    # is the unscaled march; 1.1e-12 relative was the largest gap measured over 2000 steps
    state = unscaled = CurveFlowState(0.0, curve, lam=lam, normalization="none")
    for _ in range(2000):
        state = step(state, 1e-4)
        unscaled = _unscaled_step(unscaled, 1e-4)
    assert state.curve.enclosed_area() == pytest.approx(math.pi, rel=1e-12)
    want = unscaled.physical_curve.points
    assert np.abs(state.physical_curve.points - want).max() <= 1e-10 * np.abs(want).max()


def _m3_image():
    # the benchmark's grid and dt: a GL(2) image of m3 (cond 1.6) at N 256, stepped at 1e-4
    mat = np.array([[1.3, 0.4], [-0.2, 0.8]])
    return ClosedCurve(perturbed_ellipse(1, 1, 0.05, 3, n=256).points @ mat.T, name="image"), 1e-4


def _converge_curve():
    # the bench's converge run: the m3 curve itself at N 256, stepped at 1e-4 with lambda 0
    return perturbed_ellipse(1, 1, 0.05, 3, n=256), 1e-4


@pytest.mark.parametrize("normalization,start,lam,steps", [
    ("unit_area_scale", None, 0.7, 50), ("none", None, 0.7, 50),
    ("unit_area_scale", _m3_image, 0.7, 50), ("unit_area_scale", _converge_curve, 0.0, 100)],
    ids=["unit_area_scale", "none", "m3 image N 256", "m3 N 256 converge"])
def test_step_bit_identical_to_reference(normalization, start, lam, steps):
    curve, dt = start() if start else (perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64), 1e-3)
    state = CurveFlowState(0.0, curve, lam=lam, normalization=normalization)
    for want, _, _ in _reference_march(state, dt, steps):
        state = step(state, dt)
        assert state.t == want.t and state.log_scale == want.log_scale
        assert np.array_equal(state.curve.points, want.curve.points)
    assert (state.log_scale != 0.0) == (normalization == "none")


@pytest.mark.parametrize("start", [_m3_image, _converge_curve], ids=["m3 image", "m3"])
def test_a_step_is_the_rescaled_curves_stage_step_up_to_roundoff(start):
    # a produced state's g, phi and potential come from the raw RK4 result's batch, not
    # from the rescaled curve's; both are exact, scale-invariant formulas, so the march
    # stays within roundoff of the one that takes the stage of the rescaled curve
    # (2.7e-14 on m3 and 1.7e-14 on its image, relative, after 2000 steps at N 256)
    curve, dt = start()
    state = want = CurveFlowState(0.0, curve)
    for _ in range(2000):
        state = step(state, dt)
        want = _reference_step(want, dt)[0]
    gap = np.abs(state.curve.points - want.curve.points).max()
    assert gap <= 1e-12 * np.abs(want.curve.points).max()


@pytest.mark.parametrize("make", [
    lambda: _converge_curve()[0], lambda: random_star_convex(3), lambda: _m3_image()[0],
    lambda: _converge_curve()[0].scaled(1e100), lambda: _converge_curve()[0].scaled(1e-100),
], ids=["m3", "random star", "m3 image", "m3 1e100", "m3 1e-100"])
def test_a_velocity_stage_is_the_stages_velocity_bit_for_bit(make):
    # k2-k4 take the rows [C, C_p] and [C_p, C_pp] and the metric half of the kernel
    # only, with no second bracket pair and no phi, and give the full stage's velocity
    points = make().points
    assert np.array_equal(curve_flow._velocity(points), curve_flow._geometry_velocity(points)[-1])


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_a_step_leaves_its_start_state_alone(flow):
    # the RK4 sum reads k1, a curve state's kept stage, and writes into no array of the
    # state: after a step its samples, and a curve state's every stage array, equal a
    # fresh recomputation (a scalar state keeps no stage)
    curve, dt = _m3_image()
    if flow is curve_flow:
        state = CurveFlowState(0.0, curve, lam=0.7)
        samples = lambda s: s.curve.points
        state.stage   # k1, kept on the state before its step
    else:
        state = CurvatureFlowState.from_curve(curve)
        samples = lambda s: s.y
    start = samples(state).copy(order="K")
    for _ in range(2):
        flow.step(state, dt)
        assert np.array_equal(samples(state), start)
        if flow is curve_flow:
            fresh = curve_flow._geometry_velocity(start.copy(order="K"))
            for got, want in zip(state.stage, fresh, strict=True):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_cfl_bound_is_the_least_metrics_bit_for_bit(flow):
    # each flow keeps min(g) from a scan it already makes; the bound stays
    # CFL * (min(g) * 2 pi / N)^2 bit for bit: a step of exactly the bound passes, and
    # one a float beyond it fails with the bound in its message, at the state's time
    curve = shifted_ellipse(1.2, 0.7, 0.2, -0.1, n=64)
    g = centro_affine(curve).g
    bound = curvature_flow.CFL * float((np.minimum.reduce(g) * 2.0 * np.pi / 64) ** 2)
    state = (CurveFlowState(0.25, curve) if flow is curve_flow
             else CurvatureFlowState.from_curve(curve, t=0.25))
    flow.step(state, bound)
    beyond = float(np.nextafter(bound, 1.0))
    with pytest.raises(StabilityViolation) as info:
        flow.step(state, beyond)
    assert str(info.value) == f"dt = {beyond:g} exceeds stability bound {bound:g}"
    assert info.value.time == 0.25


def test_cfl_guard_and_failure_time():
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=0.0)
    with pytest.raises(StabilityViolation):
        step(state, 1e-2)
    with pytest.raises(FlowError) as info:
        evolve(state, 1.0, 1e-2)
    assert info.value.time is not None


def test_blowup_on_coordinate_overflow():
    # on the circle log_scale is lambda t; the guard trips at the first step whose
    # e^(2 lambda t) pi is not a normal float, above it or below it
    for lam, bound in ((1e4, sys.float_info.max), (-1e4, sys.float_info.min)):
        state = CurveFlowState(0.0, origin_ellipse(1, 1, n=64), lam=lam, normalization="none")
        with pytest.raises(BlowUp,
                           match=r"^gauge factor e\^\S+ left the float range$") as info:
            evolve(state, 1.0, 1e-3)
        steps = math.ceil(0.5 * math.log(bound / math.pi) / (lam * 1e-3))
        assert info.value.time == pytest.approx(steps * 1e-3, abs=1e-12)


def test_a_produced_states_geometry_error_carries_the_produced_time(monkeypatch):
    # calls 1, 2 and 3 are the stages of the states at t = 0, dt and 2 dt: the first
    # record makes the start's, then each step makes its produced state's (k2-k4 make
    # only their velocities). Call 3 raises: step stamps it with that state's time, 2 dt,
    # where march alone would stamp the time of the state stepped from, dt
    original = curve_flow._geometry_velocity
    calls = []

    def failing(points, *args):
        calls.append(points)
        if len(calls) == 3:
            raise NotStarShaped("injected")
        return original(points, *args)

    monkeypatch.setattr(curve_flow, "_geometry_velocity", failing)
    dt = 1e-4
    with pytest.raises(NotStarShaped, match="^injected$") as info:
        evolve(CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=64)), 5 * dt, dt)
    assert info.value.time == 2 * dt


@pytest.mark.parametrize("normalization", ["unit_area_scale", "none"])
def test_a_non_finite_stage_velocity_is_a_blowup_at_the_new_time(monkeypatch, normalization):
    # k4, the third velocity stage (k2-k4), is infinite: the stepped coordinates are not
    # finite, which step judges before its normalization
    original = curve_flow._velocity
    calls = []

    def infinite_k4(points):
        velocity = original(points)
        calls.append(points)
        if len(calls) == 3:
            return np.full_like(velocity, math.inf)
        return velocity

    monkeypatch.setattr(curve_flow, "_velocity", infinite_k4)
    state = CurveFlowState(0.25, perturbed_ellipse(1, 1, 0.05, 3, n=64),
                           normalization=normalization)
    with pytest.raises(BlowUp, match="^non-finite coordinates after step$") as info:
        step(state, 1e-3)
    assert info.value.time == 0.25 + 1e-3


def test_clockwise_curve_marches_as_the_mirror_image():
    base = perturbed_ellipse(1, 1, 0.05, 3, n=64)
    mirror = np.array([1.0, -1.0])
    ccw, cw = (evolve(CurveFlowState(0.0, curve), 0.05, 1e-3, record_stride=10)
               for curve in (base, ClosedCurve(base.points * mirror)))
    assert ccw.final.curve.enclosed_area() > 0 > cw.final.curve.enclosed_area()
    # unit-area renormalisation keeps the orientation: area -pi, not a collapse
    assert np.array_equal(cw.final.curve.points, ccw.final.curve.points * mirror)
    assert np.array_equal(cw.column("area"), -ccw.column("area"))
    assert np.array_equal(cw.column("L"), ccw.column("L"))
    assert cw.column("area")[-1] == pytest.approx(-math.pi, rel=1e-12)


def test_evolve_records_area():
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=64), lam=0.0)
    traj = evolve(state, 0.01, 1e-3, record_stride=2)
    areas = traj.column("area")
    assert np.all(np.isfinite(areas))
    # after each renormalization the area is pinned to pi; the t = 0 record
    # still carries the preset's own area
    assert np.abs(areas[1:] - np.pi).max() <= 1e-9
    assert areas[0] == pytest.approx(np.pi * (1 + 0.05**2 / 2), rel=1e-10)
    assert len(traj) == 1 + 10 // 2


def test_evolve_snapshots_are_curves():
    state, snapshots = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=64), lam=0.0), []

    def keep(i, current):   # the physical curve every 5 steps
        if i % 5 == 0:
            snapshots.append(current.physical_curve)

    traj = evolve(state, 0.01, 1e-3, observer=keep)
    assert len(snapshots) == 3
    # the t = 0 snapshot is the caller's own curve; the stepped curves are the states'
    assert snapshots[0] is state.curve
    assert snapshots[-1] is traj.final.curve
    for snap in snapshots[1:]:
        assert snap.points.shape == (64, 2)
        assert "_derivatives" not in vars(snap)  # no stage keeps a batch on its curve


def test_consistency_check_trivial_on_ellipse():
    gap = consistency_check(origin_ellipse(2, 0.5, n=64), 0.05, 1e-3)
    assert gap <= 1e-10


def test_consistency_check_perturbed_short():
    gap = consistency_check(perturbed_ellipse(1, 1, 0.05, 3, n=128), 0.2, 2e-4)
    assert gap <= 1e-6


def _sl2_image(curve):
    # A = R(0.3) diag(1.8, 1/1.8) R(1.1), det 1
    return ClosedCurve(curve.points @ (_rotation(0.3) @ np.diag([1.8, 1 / 1.8])
                                       @ _rotation(1.1)).T)


def test_an_sl2_image_of_m3_marches_as_m3():
    # a linear map takes rays to rays, so the image's records are m3's. The paper gauge's
    # tangential term read h1_identity 2.5e-4 here and a flow-equivalence gap of 4.0e-3
    m3 = perturbed_ellipse(1, 1, 0.05, 3, n=256)
    base, image = (evolve(CurveFlowState(0.0, curve), 0.5, 1e-4)
                   for curve in (m3, _sl2_image(m3)))
    assert all(v.passed for v in check_energy_identities(image))
    assert check_flow_equivalence(image, base).passed


def test_the_amplitude_008_curve_keeps_the_scalar_flows_integrals():
    # the paper gauge's tangential term blew this curve up: H2 843 at t = 0.2 against the
    # scalar flow's 36.67, and the identities at 1.6e-2 and 0.95. At N 128 phi is not
    # resolved (its mode-48 coefficient is 7.6e-4 of its largest), so phi_xixi by the
    # chain rule and by a repeated derivative differ; both flows' records take it by the
    # repeated derivative, so their t = 0 records, of one g and one phi, are equal bit
    # for bit (5.5e-4 apart on H4 when the scalar record took the chain rule), and the
    # gap on criterion 7's schedule is within its tolerance. Recorded every step, the
    # two differ by 6.4e-5 after the first step, a time-stepping transient in the
    # unresolved top modes that decays to 8.8e-11 by t = 0.005 and 4e-12 by t = 0.02
    curve = perturbed_ellipse(1, 1, 0.08, 3, n=128)
    traj = evolve(CurveFlowState(0.0, curve), 0.2, 5e-5)
    scalar = curvature_flow.evolve(CurvatureFlowState.from_curve(curve), 0.2, 5e-5)
    assert all(v.passed for v in check_energy_identities(traj))
    for name in ("H1", "H2"):
        assert traj.column(name)[-1] == pytest.approx(scalar.column(name)[-1], rel=1e-6)
    area = COLUMNS.index("area")   # NaN in the scalar record, no curve existing there
    assert np.array_equal(np.delete(traj.records[0], area), np.delete(scalar.records[0], area),
                          equal_nan=True)
    assert consistency_check(curve, 0.2, 5e-5, record_stride=100) <= 1e-6


@pytest.mark.parametrize("make", [
    lambda: _converge_curve()[0],
    lambda: _sl2_image(_converge_curve()[0]),
    lambda: ClosedCurve(_converge_curve()[0].points * np.array([1.0, -1.0])),
    lambda: shifted_ellipse(1, 1, 0.3, 0, n=64),
], ids=["m3 N 256", "SL(2) image of m3", "clockwise m3", "shifted ellipse N 64"])
def test_the_stages_potential_is_the_antiderivative_of_phi_dxi(make):
    # phi = d/dxi ln[C, C_xi], so the stage's potential ln(r / r(0)) with r = [C, C_p]/g
    # is antiderivative(phi g) up to roundoff on a resolved curve (at most 1.1e-15 seen
    # here). On an under-resolved curve the two differ by truncation error, 2.6e-7 on
    # random stars at N 64, so no tolerance is set there
    points = make().points
    _, g, phi, _, velocity = curve_flow._geometry_velocity(points)
    potential = np.vecdot(velocity, points) / np.vecdot(points, points)
    assert np.abs(potential - antiderivative(phi * g)).max() <= 1e-14
    assert np.all(velocity[0] == 0.0)   # the potential is exactly 0 at p = 0


def test_the_amplitude_008_curve_at_n_64_keeps_h1_of_n_128():
    # at N 64 phi is not resolved; the closed-form potential reads no spectrum of phi g,
    # and H1 at t = 0.2 agrees with N 128's to 9.2e-12 relative. The potential taken as
    # antiderivative(phi g) carried phi's truncation error into the march: 2.8e-9
    h1 = [evolve(CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.08, 3, n=n)), 0.2, 5e-5,
                 record_stride=4000).column("H1")[-1] for n in (64, 128)]
    assert abs(h1[0] - h1[1]) <= 1e-10 * abs(h1[1])


# relative gap allowed between a scaled record's area and its scaled copy's area,
# about 45 ulp; at most 5.6e-16 was seen over 156 records at N 64 and 256, and 5.7e-16
# over 600 unit-area records of m3 and a random star at N 64 to 256 (364 not bit-equal)
AREA_RTOL = 1e-14


def _reference_record(state, raw):
    # reference: the invariants of a fresh curve of the raw samples the state's curve was
    # rescaled from, and the physical curve's own area
    field = centro_affine(ClosedCurve(raw.points))
    return record_from_fields(state.t, field.g, field.phi,
                              enclosed_area_of(state.physical_curve.points))


@pytest.mark.parametrize("normalization,lam,stride", [
    ("unit_area_scale", 0.0, 1), ("unit_area_scale", 0.7, 3), ("none", 0.7, 2)])
def test_evolve_records_bit_identical_to_reference(normalization, lam, stride):
    state = CurveFlowState(0.0, perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64), lam=lam,
                           normalization=normalization)
    traj = evolve(state, 0.012, 1e-3, record_stride=stride)
    rows = [_reference_record(state, state.curve)]
    for i, (current, raw, _) in enumerate(_reference_march(state, 1e-3, 12), 1):
        if i % stride == 0:
            rows.append(_reference_record(current, raw))
    want = FlowTrajectory(records=rows)
    want.finalize_residuals()
    assert (current.log_scale != 0.0) == (normalization == "none")
    assert len(traj.records) == len(want.records)
    area = COLUMNS.index("area")
    for got, ref in zip(traj.records, want.records):
        # a stepped record's area is the raw result's [C, C_p] times the factor squared
        # (and the gauge factor squared), against the scaled copy's own
        assert abs(got[area] - ref[area]) <= AREA_RTOL * abs(ref[area])
        assert np.array_equal(np.delete(got, area), np.delete(ref, area), equal_nan=True)


def test_a_states_stage_makes_its_own_batch(monkeypatch):
    forward = counting(monkeypatch, spectral, "_rfft")
    inverse = counting(monkeypatch, spectral, "_irfft")
    points = perturbed_ellipse(1, 1, 0.05, 3, n=64).points
    states, counts = [], []
    for keep in (False, True):
        curve = ClosedCurve(points)
        if keep:
            curve.derivative(1)  # as an earlier reader leaves the curve
        states.append(CurveFlowState(0.0, curve))
        del forward[:], inverse[:]
        states[-1].stage
        counts.append((len(forward), len(inverse)))
    # whether or not the curve's batch was made, the stage makes its own pass, and the
    # potential, read from its brackets in closed form, takes no transform
    assert counts[0] == counts[1] == (1, 1)
    for got, want in zip(states[0].stage, states[1].stage):
        assert np.array_equal(got, want)
    stages = counting(monkeypatch, curve_flow, "_geometry_velocity")
    velocities = counting(monkeypatch, curve_flow, "_velocity")
    results = [step(state, 1e-3) for state in states]
    # k1 is the state's stage: each step computes the velocities k2-k4 and the produced
    # state's stage
    assert (len(velocities), len(stages)) == (6, 2)
    assert np.array_equal(velocities[0][0], points + 0.5e-3 * states[0].stage[-1])
    assert np.array_equal(results[0].curve.points, results[1].curve.points)


@pytest.mark.parametrize("normalization", ["unit_area_scale", "none"])
def test_a_step_makes_its_transforms_on_contiguous_coordinates(monkeypatch, normalization):
    state = CurveFlowState(0.0, _m3_image()[0], lam=0.7, normalization=normalization)
    state.stage   # k1, made before the step
    forward = counting(monkeypatch, spectral, "_rfft")
    inverse = counting(monkeypatch, spectral, "_irfft")
    produced = step(state, 1e-4)
    # k2-k4 take 1 and 1 each, and the stepped points one batch more, which gives both
    # the area of the unit-area rescaling, made under either normalization, and the
    # produced state's stage
    assert (len(forward), len(inverse)) == (4, 4)
    # every transform of the points or of a velocity reads component-major coordinates
    curves = [args[0] for args in forward if args[0].ndim == 2]
    assert len(curves) == 4
    assert all(pts.flags.f_contiguous for pts in curves)
    assert produced.stage[-1].flags.f_contiguous


@pytest.mark.parametrize("normalization,lam,transforms", [
    ("unit_area_scale", 0.7, 4), ("none", 0.0, 4), ("none", 0.7, 4)])
def test_record_reads_the_area_from_the_stage(monkeypatch, normalization, lam, transforms):
    state = step(CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=256), lam=lam,
                                normalization=normalization), 1e-4)   # its stage is made
    # evolve hands its gather to march; take it from there
    monkeypatch.setattr(curve_flow, "march", lambda state, t_end, dt, advance, gather, **_: gather)
    gather = evolve(state, 1.0, 1e-4)
    forward = counting(monkeypatch, spectral, "_rfft")
    inverse = counting(monkeypatch, spectral, "_irfft")
    # a block of one, its columns as march builds them, recorded as march records it
    (row,) = record_from_fields(*(np.array([column]).T for column in gather(state)))
    # the four xi-derivatives of phi take one rfft and one irfft each; the area takes
    # none, scaled or not
    assert (len(forward), len(inverse)) == (transforms, transforms)
    assert (state.log_scale != 0.0) == (normalization == "none")
    # the raw step result's [C, C_p] times the factor squared (and the gauge factor
    # squared), against the scaled copy's own area
    area, want = row[COLUMNS.index("area")], enclosed_area_of(state.physical_curve.points)
    assert abs(area - want) <= AREA_RTOL * abs(want)


def test_march_computes_each_state_velocity_once(monkeypatch):
    stages = counting(monkeypatch, curve_flow, "_geometry_velocity")
    kernels = counting(monkeypatch, curve_flow, "_metric_curvature")
    brackets = counting(monkeypatch, curve_flow, "_brackets_of")
    velocities = counting(monkeypatch, curve_flow, "_velocity")
    metrics = counting(monkeypatch, curve_flow, "_metric")
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=64), lam=0.7)
    evolve(state, 0.005, 1e-3, record_stride=1)
    # the initial stage, then per step one produced state's stage, its one phi: each
    # record and the next k1 read the stage, and no other kernel call is made
    assert len(stages) == 1 + 5
    assert len(kernels) == len(brackets) == len(stages)
    # k2-k4 make their velocities from the metric half alone
    assert len(velocities) == len(metrics) == 3 * 5


@pytest.mark.parametrize("normalization", ["unit_area_scale", "none"])
def test_a_curve_march_keeps_no_batch_and_steps_in_4_transform_pairs(monkeypatch,
                                                                     normalization):
    state = CurveFlowState(0.0, ClosedCurve(perturbed_ellipse(1, 1, 0.05, 3, n=64).points),
                           lam=0.7, normalization=normalization)
    made = []
    batch = ClosedCurve._derivatives.func
    monkeypatch.setattr(ClosedCurve, "_derivatives",
                        property(lambda curve: made.append(curve) or batch(curve)))
    forward = counting(monkeypatch, spectral, "_rfft")
    inverse = counting(monkeypatch, spectral, "_irfft")
    per_step, original = [], curve_flow.step

    def counted(state, dt):
        before = len(forward), len(inverse)
        produced = original(state, dt)
        per_step.append((len(forward) - before[0], len(inverse) - before[1]))
        return produced

    monkeypatch.setattr(curve_flow, "step", counted)
    snapshots = []
    evolve(state, 0.005, 1e-3, observer=lambda i, s: snapshots.append(s.physical_curve))
    # every stage, the first record's included, makes its own batch, so no curve, the
    # caller's fresh one and the snapshots included, makes its own; a step keeps its 4
    # transforms each way
    assert made == []
    assert len(snapshots) == 6
    assert per_step == [(4, 4)] * 5


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_a_march_failing_at_its_start_carries_the_start_time(monkeypatch, flow):
    # march makes the first record and the first step in the loop that attaches failure
    # times, so an error of either carries the start time as a later step's does
    if flow is curve_flow:
        # the origin is outside this ellipse, so the first record's stage is not
        # star-shaped
        state = CurveFlowState(0.25, shifted_ellipse(1, 1, 1.5, 0, n=64))
        with pytest.raises(NotStarShaped) as info:
            step(state, 1e-3)
        assert info.value.time == 0.25
        error = NotStarShaped
    else:
        # a scalar record makes no stage: the first stage is the first step's k1
        original, calls = curvature_flow._stage, []

        def failing_first(y):
            calls.append(y)
            if len(calls) == 1:
                raise DegenerateMetric("injected")
            return original(y)

        monkeypatch.setattr(curvature_flow, "_stage", failing_first)
        state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3, n=64), t=0.25)
        error = DegenerateMetric
    with pytest.raises(error) as info:
        flow.evolve(state, 0.26, 1e-3)
    assert info.value.time == 0.25


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_phi_ceiling_judges_the_final_state(monkeypatch, flow):
    # max|phi| first exceeds 0.457 at t = 4e-3 (see test_curve_flow_phi_ceiling_exits_three);
    # a march that ends there raises at that time in both flows
    monkeypatch.setattr(curvature_flow, "PHI_CEILING", 0.457)
    curve = shifted_ellipse(1, 1, 0.3, 0, n=64)
    state = (CurveFlowState(0.0, curve) if flow is curve_flow
             else CurvatureFlowState.from_curve(curve))
    with pytest.raises(BlowUp, match=r"max\|phi\| exceeded ceiling 0.457") as info:
        flow.evolve(state, 4e-3, 1e-3)
    assert info.value.time == pytest.approx(4e-3, abs=1e-12)


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_phi_ceiling_judges_the_start_state(flow):
    # a convex mode-6 star whose initial max|phi| (13.56) is above the ceiling of 10:
    # both flows raise before the first step, so a "both" run and a "curve" run of
    # the curve report the same failure time
    curve = star_convex([0, 0, 0, 0, 0, 0.024], [0] * 6, n=128)
    state = (CurveFlowState(0.0, curve) if flow is curve_flow
             else CurvatureFlowState.from_curve(curve))
    with pytest.raises(BlowUp, match=r"max\|phi\| exceeded ceiling 10") as info:
        flow.evolve(state, 1e-4, 5e-5)
    assert info.value.time == 0.0


_EQUIV_BASE = perturbed_ellipse(1, 1, 0.05, 3, n=64)
_EQUIV_STEPS, _EQUIV_DT = 30, 1e-3


@functools.lru_cache(maxsize=1)
def _equivariance_reference():
    return evolve(CurveFlowState(0.0, _EQUIV_BASE), _EQUIV_STEPS * _EQUIV_DT, _EQUIV_DT,
                  record_stride=10)


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


@settings(derandomize=True, deadline=None, max_examples=8)
@given(a=st.floats(0.0, 2 * math.pi), b=st.floats(0.0, 2 * math.pi),
       stretch2=st.floats(1.0, 4.0), scale=st.floats(0.5, 2.0), lam=st.floats(-1.0, 1.0),
       reflect=st.booleans())
def test_flow_commutes_with_gl2_up_to_the_scale_gauge(a, b, stretch2, scale, lam, reflect):
    # A = scale R(a) diag(s, +-1/s) R(b) with s^2 = stretch2: either sign of det A,
    # cond A = stretch2 <= 4
    s = math.sqrt(stretch2)
    mat = scale * _rotation(a) @ np.diag([s, (-1.0 if reflect else 1.0) / s]) @ _rotation(b)
    ref = _equivariance_reference()
    image = evolve(CurveFlowState(0.0, ClosedCurve(_EQUIV_BASE.points @ mat.T), lam=lam),
                   _EQUIV_STEPS * _EQUIV_DT, _EQUIV_DT, record_stride=10)
    # unit-area renormalisation divides A C by sqrt(|det A|), keeping its orientation;
    # lambda is pure gauge
    want = ref.final.curve.points @ mat.T / math.sqrt(abs(np.linalg.det(mat)))
    # tolerance fixed before measuring: the image's samples carry about cond(A)
    # eps relative roundoff, and each step may add that much again
    tol = 10 * _EQUIV_STEPS * stretch2 * np.finfo(float).eps
    assert np.abs(image.final.curve.points - want).max() <= tol * np.abs(want).max()
    assert np.abs(image.column("L") - ref.column("L")).max() <= tol * 2 * math.pi
