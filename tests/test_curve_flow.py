import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroflow.curvature_flow import CurvatureFlowState
from centroflow.curvature_flow import rhs as scalar_rhs
from centroflow.curvature_flow import step as scalar_step
from centroflow import curvature_flow, curve_flow
from centroflow.curve import (ClosedCurve, bracket, enclosed_area_of, origin_ellipse,
                              perturbed_ellipse, shifted_ellipse)
from centroflow.curve_flow import CurveFlowState, consistency_check, evolve, step
from centroflow.errors import BlowUp, FlowError, StabilityViolation
from centroflow.invariants import centro_affine, xi_derivative
from centroflow.spectral import antiderivative, dealias, derivative, periodic_integral
from centroflow.trajectory import FlowTrajectory, record_from_fields


def test_stage_velocity_vanishes_on_ellipse():
    # phi = 0 on an origin-centred ellipse: the gauge-invariant velocity is zero
    state = CurveFlowState(0.0, origin_ellipse(2, 0.5), lam=0.0)
    assert np.abs(state.stage[-1]).max() <= 1e-9


def test_rhs_matches_scalar_tendency():
    # the curvature response of the curve flow equals the scalar rhs at t = 0
    curve = perturbed_ellipse(1, 1, 0.05, 3)
    sstate = CurvatureFlowState.from_curve(curve)
    _, phi_dot = scalar_rhs(sstate)
    dt = 1e-5
    cstate = step(CurveFlowState(0.0, curve, lam=0.0, normalization="none"), dt)
    sstate2 = scalar_step(sstate, dt)
    phi_curve = centro_affine(cstate.curve).phi
    fd = (phi_curve - centro_affine(curve).phi) / dt
    assert np.abs(fd - phi_dot).max() <= 1e-6 * max(1.0, np.abs(phi_dot).max() / 1e-6)
    # and the two flows agree after the step
    assert np.abs(phi_curve - sstate2.phi).max() <= 1e-8


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


def _reference_velocity(pts):
    # reference: one spectral.derivative per order and the bracket helper
    cp, cpp, cppp = (derivative(pts, order) for order in (1, 2, 3))
    den, num = bracket(pts, cp), bracket(cp, cpp)
    ratio = num / den
    g = np.sqrt(int(np.sign(ratio)[0]) * ratio)
    phi = dealias((1.0 / g) * (1.5 * bracket(pts, cpp) / den - 0.5 * bracket(cp, cppp) / num))
    return antiderivative(phi * g)[:, None] * pts + (0.5 * phi / g)[:, None] * cp


def _reference_step(state, dt):
    # reference: a validated curve for the raw RK4 result, then its area and a rescaled copy
    pts = state.curve.points
    k1 = _reference_velocity(pts)
    k2 = _reference_velocity(pts + 0.5 * dt * k1)
    k3 = _reference_velocity(pts + 0.5 * dt * k2)
    k4 = _reference_velocity(pts + dt * k3)
    curve = ClosedCurve(pts + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), name=state.curve.name)
    log_scale = state.log_scale
    if state.normalization == "unit_area_scale":
        area = 0.5 * periodic_integral(bracket(curve.points, derivative(curve.points, 1)))
        curve = curve.scaled(math.sqrt(math.pi / area))
    else:
        log_scale += state.lam * dt
    return replace(state, t=state.t + dt, curve=curve, log_scale=log_scale)


@pytest.mark.parametrize("normalization", ["unit_area_scale", "none"])
def test_step_bit_identical_to_reference(normalization):
    state = CurveFlowState(0.0, perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64), lam=0.7,
                           normalization=normalization)
    want = state
    for _ in range(50):
        state = step(state, 1e-3)
        want = _reference_step(want, 1e-3)
        assert state.t == want.t and state.log_scale == want.log_scale
        assert np.array_equal(state.curve.points, want.curve.points)
    assert (state.log_scale != 0.0) == (normalization == "none")


def test_cfl_guard_and_failure_time():
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3), lam=0.0)
    with pytest.raises(StabilityViolation):
        step(state, 1e-2)
    with pytest.raises(FlowError) as info:
        evolve(state, 1.0, 1e-2)
    assert info.value.time is not None


def test_blowup_on_coordinate_overflow(monkeypatch):
    state = CurveFlowState(0.0, origin_ellipse(1, 1), lam=5.0, normalization="none")
    monkeypatch.setattr(curve_flow, "COORD_CEILING", 10.0)
    with pytest.raises(BlowUp) as info:
        evolve(state, 1.0, 2.5e-4)
    # e^(5t) crosses 10 near t = 0.46
    assert info.value.time == pytest.approx(math.log(10.0) / 5.0, abs=0.01)


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
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=64), lam=0.0)
    traj = evolve(state, 0.01, 1e-3, snapshot_stride=5)
    assert len(traj.snapshots) == 3
    for _, snap in traj.snapshots:
        assert snap.points.shape == (64, 2)
        assert snap._memo == {}  # snapshots do not keep the stepped curves' spectra


def test_consistency_check_trivial_on_ellipse():
    gap = consistency_check(origin_ellipse(2, 0.5, n=64), 0.05, 1e-3)
    assert gap <= 1e-10


def test_consistency_check_perturbed_short():
    gap = consistency_check(perturbed_ellipse(1, 1, 0.05, 3, n=128), 0.2, 2e-4)
    assert gap <= 1e-4


def _reference_record(state):
    # reference: the invariants of a fresh curve and the physical curve's own area
    field = centro_affine(ClosedCurve(state.curve.points))
    phi_xi = xi_derivative(field.phi, field.g, 1)
    return record_from_fields(state.t, field.g, field.phi, phi_xi,
                              xi_derivative(phi_xi, field.g, 1),
                              area=enclosed_area_of(state.physical_curve.points))


@pytest.mark.parametrize("normalization,lam,stride", [
    ("unit_area_scale", 0.0, 1), ("unit_area_scale", 0.7, 3), ("none", 0.7, 2)])
def test_evolve_records_bit_identical_to_reference(normalization, lam, stride):
    state = CurveFlowState(0.0, perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64), lam=lam,
                           normalization=normalization)
    traj = evolve(state, 0.012, 1e-3, record_stride=stride)
    want = FlowTrajectory(records=[_reference_record(state)])
    current = state
    for i in range(1, 13):
        current = step(current, 1e-3)
        if i % stride == 0:
            want.records.append(_reference_record(current))
    want.finalize_residuals()
    assert (current.log_scale != 0.0) == (normalization == "none")
    assert len(traj.records) == len(want.records)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(traj.records, want.records))


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls


def test_step_k1_reads_the_kept_spectrum(monkeypatch):
    forward = _counting(monkeypatch, np.fft, "rfft")
    points = perturbed_ellipse(1, 1, 0.05, 3, n=64).points
    states, counts = [], []
    for keep in (False, True):
        curve = ClosedCurve(points)
        if keep:
            curve.derivative(1)  # as an earlier reader leaves the curve
        states.append(CurveFlowState(0.0, curve))
        del forward[:]
        states[-1].stage
        counts.append(len(forward))
    # with the spectrum kept, the stage makes no forward transform of the points
    assert counts[1] == counts[0] - 1
    assert np.array_equal(states[0].stage[-1], states[1].stage[-1])
    stages = _counting(monkeypatch, curve_flow, "_geometry_velocity")
    results = [step(state, 1e-3) for state in states]
    # k1 is the state's stage: each step computes k2-k4 and the produced state's stage
    assert len(stages) == 8
    assert np.array_equal(stages[0][0], points + 0.5e-3 * states[0].stage[-1])
    assert np.array_equal(results[0].curve.points, results[1].curve.points)


def test_march_computes_each_state_velocity_once(monkeypatch):
    stages = _counting(monkeypatch, curve_flow, "_geometry_velocity")
    kernels = _counting(monkeypatch, curve_flow, "_metric_curvature")
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=64), lam=0.7)
    evolve(state, 0.005, 1e-3, record_stride=1)
    # the initial stage, then per step k2-k4 and the produced state's stage: each
    # record and the next k1 read the stage, and no other kernel call is made
    assert len(stages) == 1 + 4 * 5
    assert len(kernels) == len(stages)


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
