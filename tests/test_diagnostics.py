import math

import numpy as np
import pytest

from centroflow import curvature_flow
from centroflow.curvature_flow import CurvatureFlowState, evolve
from centroflow.curve import origin_ellipse, perturbed_ellipse, shifted_ellipse
from centroflow.curve_flow import CurveFlowState
from centroflow.curve_flow import evolve as curve_evolve
from centroflow.diagnostics import (Verdict, check_backward_limit_on_family,
                                    check_convergence_to_ellipse,
                                    check_curvature_bounds,
                                    check_energy_identities,
                                    check_flow_equivalence,
                                    check_isoperimetric, check_mean_zero,
                                    check_monotone_L_and_integralE,
                                    check_sobolev_bounded,
                                    explicit_ellipse_family, family_area,
                                    fit_origin_ellipse, verdict_line)
from centroflow.invariants import centro_affine
from centroflow.trajectory import COLUMNS, FlowTrajectory

TWO_PI = 2 * math.pi

# mode-6 radial amplitude tuned (bisection against the invariant pipeline)
# so the initial curvature maximum sits at 3.0 while the curve stays convex
PHIMAX3_AMPLITUDE = 0.0167971394
PHIMAX3_MODE = 6


def test_mean_zero_verdicts():
    for curve in (origin_ellipse(2, 0.5), shifted_ellipse(1, 1, 0.3, 0),
                  perturbed_ellipse(1, 1, 0.05, 3)):
        v = check_mean_zero(centro_affine(curve))
        assert v.passed
    v0 = check_mean_zero(centro_affine(origin_ellipse(2, 0.5)))
    assert v0.measured <= 1e-14


def test_isoperimetric_verdicts():
    v = check_isoperimetric(centro_affine(origin_ellipse(3, 1 / 3)))
    assert v.passed and v.context == "equality"
    v = check_isoperimetric(centro_affine(perturbed_ellipse(1, 1, 0.05, 3)))
    assert v.passed and v.context == "strict"
    assert v.measured < TWO_PI
    # measured geometry: a shifted ellipse exceeds the bound (its mode-1
    # radius content raises the centro-affine perimeter), so the verdict
    # reports the violation rather than the hoped-for deficit
    v = check_isoperimetric(centro_affine(shifted_ellipse(1, 1, 0.5, 0)))
    assert not v.passed and v.context == "exceeded"
    assert v.measured == pytest.approx(6.626552680946378, abs=1e-8)


def test_curvature_bounds_trivial_and_perturbed():
    state = CurvatureFlowState.from_curve(origin_ellipse(1, 1, n=64))
    traj = evolve(state, 0.05, 1e-3)
    assert check_curvature_bounds(traj, 0.0, 0.0).passed

    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3))
    traj = evolve(state, 0.2, 1e-4, record_stride=10)
    f0 = centro_affine(perturbed_ellipse(1, 1, 0.05, 3))
    v = check_curvature_bounds(traj, float(f0.phi.min()), float(f0.phi.max()))
    assert v.passed


def test_curvature_bounds_synthetic_phimax_three():
    # initial data beyond the absorbing band [-2, 2]: the bound becomes the
    # initial extremum itself and the flow must never re-cross it
    curve = perturbed_ellipse(1, 1, PHIMAX3_AMPLITUDE, PHIMAX3_MODE, n=512,
                              require_convex=True)
    field = centro_affine(curve)
    assert field.phi.max() == pytest.approx(3.0, abs=1e-3)
    state = CurvatureFlowState.from_field(field)
    traj = evolve(state, 0.2, 2e-5, record_stride=100)
    v = check_curvature_bounds(traj, float(field.phi.min()), float(field.phi.max()))
    assert v.passed
    # and the flow actually dips back under 2 rather than hugging 3
    assert traj.column("phi_max")[-1] < 2.0


def test_energy_identity_verdicts_and_stride_guard():
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3))
    traj = evolve(state, 0.2, 1e-4, record_stride=1)
    v1, v2 = check_energy_identities(traj)
    assert v1.passed and v2.passed
    short = FlowTrajectory(records=traj.records[:3])
    for v, name in zip(check_energy_identities(short), ("energy_identity", "h1_identity")):
        assert (v.name, v.passed, v.measured, v.bound, v.tolerance) == (name, False, 3, 5, 0)
        assert v.context == "need at least 5 records for Simpson stencils, have 3"


@pytest.mark.parametrize("stride", [1, 10])
def test_identity_residuals_judge_sparse_records_and_catch_a_wrong_law(monkeypatch, stride):
    # Simpson's rule passes a correct run recorded every 10th step; with a linear
    # coefficient of 2.1 in place of 2 the energy law fails at either stride
    curve = perturbed_ellipse(1, 1, 0.05, 3, n=128)

    def march():
        return evolve(CurvatureFlowState.from_curve(curve), 0.05, 1e-4, record_stride=stride)

    v1, v2 = check_energy_identities(march())
    assert v1.passed and v2.passed
    original = curvature_flow._stage

    def altered(y):
        velocity = original(y)
        velocity[1] += 0.1 * y[1]
        return velocity

    monkeypatch.setattr(curvature_flow, "_stage", altered)
    v1, _ = check_energy_identities(march())
    assert not v1.passed and v1.measured > 1e-3


def test_flow_equivalence_is_the_worst_integral_columns_gap():
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3, n=64))
    traj = evolve(state, 0.01, 1e-3, record_stride=2)
    same = check_flow_equivalence(traj, traj)
    assert (same.name, same.passed, same.measured, same.tolerance) == (
        "flow_equivalence", True, 0.0, 1e-6)
    # a column off by 2e-6 (1 + max|H2|) at one record fails; phi's nodal columns and the
    # residuals are not compared
    records = traj.records.copy()
    h2 = records[:, COLUMNS.index("H2")]
    h2[3] += 2e-6 * (1.0 + np.abs(h2).max())
    records[:, COLUMNS.index("phi_max")] += 1.0
    moved = check_flow_equivalence(traj, FlowTrajectory(records=records))
    assert not moved.passed and moved.measured == pytest.approx(2e-6, rel=1e-9)
    assert moved.context.startswith("worst column H2 ")
    records[:, COLUMNS.index("H3")] = math.nan
    broken = check_flow_equivalence(traj, FlowTrajectory(records=records))
    assert not broken.passed and broken.context.startswith("worst column H3 ")
    records = traj.records.copy()
    records[:, COLUMNS.index("t")] *= 2.0
    shifted = check_flow_equivalence(traj, FlowTrajectory(records=records))
    assert not shifted.passed and shifted.context == "the record times differ"


def test_monotone_and_integral_bounds():
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3))
    traj = evolve(state, 0.5, 1e-4, record_stride=1)
    v1, v2 = check_monotone_L_and_integralE(traj)
    assert v1.passed and v2.passed
    assert v2.measured <= 4 * math.pi
    # nested horizons: the accumulated integral over a prefix cannot exceed
    # the integral over the whole record set (nonnegative integrand)
    half = FlowTrajectory(records=traj.records[: len(traj.records) // 2])
    _, v_half = check_monotone_L_and_integralE(half)
    assert v_half.measured <= v2.measured


def test_sobolev_bounded_on_decaying_run():
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3))
    traj = evolve(state, 0.3, 1e-4, record_stride=10)
    assert check_sobolev_bounded(traj).passed


def test_fit_origin_ellipse_exact_and_noisy():
    q, res = fit_origin_ellipse(origin_ellipse(2, 0.5).points)
    assert res <= 1e-12
    assert np.allclose(q, np.diag([0.25, 4.0]), atol=1e-12)
    rng = np.random.default_rng(5)
    noisy = origin_ellipse(1, 1).points + 1e-6 * rng.standard_normal((256, 2))
    _, res = fit_origin_ellipse(noisy)
    assert 1e-9 < res < 1e-4


def test_fit_residual_gl2_invariant(rng):
    pts = perturbed_ellipse(1, 1, 0.02, 3).points
    q0, res0 = fit_origin_ellipse(pts)
    for _ in range(6):
        mat = rng.uniform(-1.5, 1.5, (2, 2))
        if abs(np.linalg.det(mat)) < 0.4:
            continue
        q1, res1 = fit_origin_ellipse(pts @ mat.T)
        assert res1 == pytest.approx(res0, abs=1e-8)
        # the fitted form transforms congruently: Q -> A^-T Q A^-1
        inv = np.linalg.inv(mat)
        assert np.allclose(q1, inv.T @ q0 @ inv, atol=1e-8)


def test_convergence_check_trivial_on_ellipse():
    state = CurveFlowState(0.0, origin_ellipse(1.2, 1 / 1.2, n=64), lam=0.0)
    traj = curve_evolve(state, 0.05, 1e-3, record_stride=10)
    v = check_convergence_to_ellipse(traj.final.curve)
    assert v.passed


def test_explicit_family_members():
    # static member: a0 b0 = 1 is time independent
    for t in (0.0, -1.0, 2.0):
        member = explicit_ellipse_family(1.0, 1.0, t)
        assert np.allclose(member.points, origin_ellipse(1, 1).points)
    # zero exponent at t = 0
    member = explicit_ellipse_family(2.0, 1.0, 0.0)
    assert np.allclose(member.points, origin_ellipse(2, 1).points)
    # closed-form area at t = -2 against sampled quadrature
    member = explicit_ellipse_family(2.0, 1.0, -2.0)
    want = math.pi * 2.0 ** math.exp(-4.0)
    assert member.enclosed_area() == pytest.approx(want, abs=1e-12)
    assert family_area(2.0, 1.0, -2.0) == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        explicit_ellipse_family(-1.0, 1.0, 0.0)


@pytest.mark.parametrize("a0,b0,direction", [(2.0, 1.0, -1), (1.0, 1.0, 0), (0.5, 1.0, +1)])
def test_backward_limit_on_family(a0, b0, direction):
    times = [0.0, -1.0, -2.0, -4.0]
    v = check_backward_limit_on_family(a0, b0, times)
    assert v.passed
    areas = [family_area(a0, b0, t) for t in times]
    if direction < 0:
        assert all(x > y for x, y in zip(areas, areas[1:]))          # decreasing to pi
        assert all(a > math.pi for a in areas)
    elif direction > 0:
        assert all(x < y for x, y in zip(areas, areas[1:]))          # increasing to pi
        assert all(a < math.pi for a in areas)
    else:
        assert all(a == pytest.approx(math.pi, rel=1e-15) for a in areas)


def test_backward_limit_requires_decreasing_times():
    with pytest.raises(ValueError):
        check_backward_limit_on_family(2.0, 1.0, [0.0, -1.0, -0.5])


def test_verdict_suite_over_preset_sweep():
    # origin ellipses, sub-critical perturbed ellipses (the convexity limit
    # for mode m is amplitude 1/(1+m^2); sweep at 80% of it), and random
    # convex stars. Mean-zero holds across the board; the 2*pi perimeter
    # bound holds for every member except the mode-1 (origin-offset) one,
    # which measurably exceeds it.
    from centroflow.curve import random_star_convex
    curves = [origin_ellipse(1, 1), origin_ellipse(2, 0.5)]
    curves += [perturbed_ellipse(1, 1, 0.8 / (1 + m * m), m, require_convex=True)
               for m in range(2, 6)]
    curves += [random_star_convex(seed) for seed in range(10)]
    for curve in curves:
        field = centro_affine(curve)
        assert check_mean_zero(field).passed
        assert check_isoperimetric(field).passed
    mode1 = perturbed_ellipse(1, 1, 0.8 / 2, 1, require_convex=True)
    field = centro_affine(mode1)
    assert check_mean_zero(field).passed
    assert not check_isoperimetric(field).passed


def test_shifted_center_data_documented_nonconvergence():
    # Origin-shifted data has perimeter above 2*pi; under the flow L is
    # nondecreasing, so such curves cannot approach an origin-centered
    # ellipse (L = 2*pi). Measured: the energy grows instead of decaying.
    field0 = centro_affine(shifted_ellipse(1, 1, 0.3, 0))
    state = CurvatureFlowState.from_field(field0)
    traj = evolve(state, 1.0, 1e-4, record_stride=100)
    E = traj.column("E")
    L = traj.column("L")
    assert L[0] > TWO_PI
    assert np.all(np.diff(L) >= -1e-12 * L[:-1])  # monotone as ever
    assert E[-1] > 2.0 * E[0]                     # mode-1 content amplifies


def test_verdict_line():
    v = Verdict("mean_zero", True, 1e-17, 0.0, 6.3e-8, context="L=6.28")
    assert verdict_line(v) == "PASS mean_zero: measured=1e-17 bound=0.0 tol=6.3e-08 L=6.28"
    failed = Verdict("isoperimetric", False, 6.4, 2 * math.pi, 1e-8, context="exceeded")
    assert verdict_line(failed).startswith("FAIL isoperimetric: measured=6.4 bound=6.28318")
