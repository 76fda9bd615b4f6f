"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 2's isoperimetric clause is checked under the hypothesis of the
inequality it restates: the centro-affine perimeter L = Int g dp is the L2
affine perimeter Omega_2 = Int (rho/h)^(1/2) dtheta, and Omega_2 <= 2*pi, with
equality only for origin-centred ellipses, holds for curves whose area
centroid is the origin (Lutwak, The Brunn-Minkowski-Firey theory II,
Adv. Math. 118 (1996), case p = n = 2). Off-centroid curves may exceed 2*pi:
the unit circle shifted by x0 has L = 4 K(m) / sqrt(1 + x0) with
m = 2 x0 / (1 + x0), which is 6.3947794396854... > 2*pi at x0 = 0.3.
"""

import json
import math

import numpy as np
import pytest

from centroflow import curvature_flow
from centroflow.curvature_flow import CurvatureFlowState
from centroflow.curvature_flow import evolve as scalar_evolve
from centroflow.curvature_flow import step as scalar_step
from centroflow.curve import (ClosedCurve, bracket, origin_ellipse,
                              perturbed_ellipse, random_star_convex,
                              shifted_ellipse, star_convex)
from centroflow.curve_flow import CurveFlowState, consistency_check
from centroflow.curve_flow import evolve as curve_evolve
from centroflow.curve_flow import step as curve_step
from centroflow.diagnostics import (check_backward_limit_on_family,
                                    check_convergence_to_ellipse,
                                    check_curvature_bounds,
                                    check_energy_identities,
                                    check_monotone_L_and_integralE,
                                    explicit_ellipse_family, family_area,
                                    fit_origin_ellipse)
from centroflow.invariants import (centro_affine, centro_equiaffine,
                                   perimeter, phi_from_mu)
from centroflow.scenario import ScenarioConfig, run_scenario
from centroflow.spectral import derivative, periodic_integral

TWO_PI = 2.0 * math.pi

# centro-affine perimeter of the unit circle shifted by x0 = 0.3: the closed
# integral of g = (1 + x0 cos p)^(-1/2), i.e. 4 K(m) / sqrt(1 + x0) with
# m = 2 x0 / (1 + x0) (scipy.special.ellipk agrees to 1 ulp); adaptive
# quadrature and the N = 4096 trapezoid agree to below 1e-14
L_SHIFTED_03_ORACLE = 6.394779439685456


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPT {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------- 1

def test_criterion_1_exact_invariants_on_ellipses():
    worst_phi = worst_l = worst_mu = worst_rel = 0.0
    for (a, b) in ((1.0, 1.0), (2.0, 0.5), (3.0, 1.0 / 3.0)):
        curve = origin_ellipse(a, b, n=256)
        field = centro_affine(curve)
        worst_phi = max(worst_phi, float(np.abs(field.phi).max()))
        worst_l = max(worst_l, abs(perimeter(field) - TWO_PI))
        worst_mu = max(worst_mu, float(np.abs(field.mu - (a * b) ** -2).max()))
        s, mu = centro_equiaffine(curve)
        cp, cpp = curve.derivative(1), curve.derivative(2)
        s_p = derivative(s)
        c_ss = (cpp - (s_p / s)[:, None] * cp) / (s**2)[:, None]
        resid = float(np.abs(mu[:, None] * curve.points + c_ss).max())
        worst_rel = max(worst_rel, resid / np.abs(curve.points).max())
    ok = worst_phi <= 1e-10 and worst_l <= 1e-10 and worst_mu <= 1e-10 and worst_rel <= 1e-8
    report("1 exact ellipse invariants", ok,
           f"max|phi|={worst_phi:.2e} |L-2pi|={worst_l:.2e} "
           f"|mu-(ab)^-2|={worst_mu:.2e} defining-rel={worst_rel:.2e}")
    assert worst_phi <= 1e-10
    assert worst_l <= 1e-10
    assert worst_mu <= 1e-10
    assert worst_rel <= 1e-8


# ---------------------------------------------------------------------- 2

def test_criterion_2_oracle_match_and_star_sweep():
    field = centro_affine(shifted_ellipse(1, 1, 0.3, 0))
    L = perimeter(field)
    oracle_ok = abs(L - L_SHIFTED_03_ORACLE) <= 1e-8

    sweep_ok = True
    mean_ok = True
    for seed in range(100):
        f = centro_affine(random_star_convex(seed))
        Ls = perimeter(f)
        sweep_ok &= Ls <= TWO_PI + 1e-8
        mean_ok &= abs(periodic_integral(f.phi * f.g)) <= 1e-8 * Ls
    ok = oracle_ok and sweep_ok and mean_ok
    report("2 oracle match + star sweep", ok,
           f"L(shifted)={L:.12f} vs oracle {L_SHIFTED_03_ORACLE:.12f}; "
           f"100 star seeds L<=2pi: {sweep_ok}, mean-zero: {mean_ok}")
    assert oracle_ok
    assert sweep_ok
    assert mean_ok


def _recentred(curve: ClosedCurve) -> ClosedCurve:
    """The curve translated so that its area centroid sits at the origin.

    Area centroid = Int C [C, C_p] dp / (3 A), A the enclosed area
    (divergence theorem applied to x (x, y) and y (x, y)).
    """
    w = bracket(curve.points, curve.derivative(1))
    moment = np.array([periodic_integral(curve.points[:, i] * w) for i in range(2)])
    centroid = moment / (3.0 * curve.enclosed_area())
    return ClosedCurve(curve.points - centroid, name=curve.name)


def test_criterion_2_shifted_isoperimetric_deficit():
    # L <= 2*pi, with equality only for origin-centred ellipses, on curves
    # whose area centroid is the origin. Each input starts off-centroid and
    # above 2*pi, so the bound is only met after recentring: the ellipse
    # must then land on 2*pi, the non-ellipses strictly below it.
    curves = [shifted_ellipse(1, 1, 0.3, 0),
              perturbed_ellipse(1, 1, 0.4, 1, require_convex=True),
              star_convex([0.15], [0.0])]
    before = [perimeter(centro_affine(c)) for c in curves]
    after = [perimeter(centro_affine(_recentred(c))) for c in curves]
    oracle_ok = abs(before[0] - L_SHIFTED_03_ORACLE) <= 1e-8
    outside_ok = all(L > TWO_PI for L in before)
    equality_gap = abs(after[0] - TWO_PI)
    deficits = [TWO_PI - L for L in after[1:]]
    ok = (oracle_ok and outside_ok and equality_gap <= 1e-10
          and min(deficits) >= 1e-8)
    report("2 shifted isoperimetric deficit", ok,
           f"off-centroid L-2pi=({', '.join(f'{L - TWO_PI:+.3e}' for L in before)}); "
           f"recentred ellipse |L-2pi|={equality_gap:.2e}, "
           f"recentred non-ellipse 2pi-L=({', '.join(f'{d:.3e}' for d in deficits)})")
    assert oracle_ok
    assert outside_ok
    assert equality_gap <= 1e-10
    assert all(d >= 1e-8 for d in deficits)


# ---------------------------------------------------------------------- 3

def test_criterion_3_cross_formula_consistency():
    makers = [lambda n: origin_ellipse(1, 1, n),
              lambda n: origin_ellipse(2, 0.5, n),
              lambda n: origin_ellipse(3, 1 / 3, n),
              lambda n: shifted_ellipse(1, 1, 0.3, 0, n)]
    makers += [lambda n, s=s: random_star_convex(s, n=n) for s in range(100)]
    worst = 0.0
    for make in makers:
        curve = make(512)
        gap = float(np.abs(centro_affine(curve).phi - phi_from_mu(curve)).max())
        worst = max(worst, gap)
    report("3 cross-formula consistency", worst <= 1e-8, f"sup gap={worst:.2e} at N=512")
    assert worst <= 1e-8


# ------------------------------------------------------------------- 4, 5

@pytest.fixture(scope="module")
def identity_runs():
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3, n=256))
    coarse = scalar_evolve(state, 2.0, 1e-4, record_stride=1)
    fine = scalar_evolve(state, 2.0, 5e-5, record_stride=1)
    return state, coarse, fine


def test_criterion_4_flow_identities(identity_runs):
    _, coarse, fine = identity_runs
    v1, v2 = check_energy_identities(coarse)
    w1, w2 = check_energy_identities(fine)
    # the reduction factor compares the runs over a common window away from
    # t = 0: records whose Simpson stencil touches the initial transient carry
    # a window-placement effect rather than pure dt-scaling. The residual is
    # fourth order in the record spacing, so halving dt divides it by about 16
    def tail_max(traj, name):
        t, residual = traj.column("t")[1:-1], traj.column(name)[1:-1]
        return residual[t >= 1e-3].max()
    ratio_e = tail_max(coarse, "energy_residual") / tail_max(fine, "energy_residual")
    ratio_h = tail_max(coarse, "h1_residual") / tail_max(fine, "h1_residual")
    ok = (v1.passed and v2.passed and ratio_e >= 4.0 and ratio_h >= 4.0)
    report("4 flow identities", ok,
           f"E-res={v1.measured:.2e} H1-res={v2.measured:.2e} "
           f"halving ratios=({ratio_e:.3f},{ratio_h:.3f})")
    assert v1.passed and v1.measured <= 1e-4
    assert v2.passed and v2.measured <= 1e-4
    assert ratio_e >= 4.0
    assert ratio_h >= 4.0


def test_criterion_5_maximum_principle(identity_runs):
    state, coarse, _ = identity_runs
    v = check_curvature_bounds(coarse, float(state.phi.min()), float(state.phi.max()))
    report("5 maximum principle", bool(v.passed),
           f"worst excursion={v.measured:.2e} within slack 1e-6, {v.context}")
    assert v.passed


# ---------------------------------------------------------------------- 6

def test_criterion_6_convergence_to_ellipse():
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=256), lam=0.0)
    traj = curve_evolve(state, 8.0, 1e-4, record_stride=10)
    final_curve = traj.final.curve
    field = centro_affine(final_curve)
    sup_phi = float(np.abs(field.phi).max())
    l_gap = abs(perimeter(field) - TWO_PI)
    _, fit_residual = fit_origin_ellipse(final_curve.points)
    conv = check_convergence_to_ellipse(final_curve)
    L = traj.column("L")
    monotone = bool(np.all(np.diff(L) >= -1e-12 * L[:-1]))
    _, integral = check_monotone_L_and_integralE(traj)
    int_e = integral.measured
    ok = (conv.passed and monotone and integral.passed)
    report("6 convergence to an ellipse", ok,
           f"max|phi|={sup_phi:.2e} |L-2pi|={l_gap:.2e} fit={fit_residual:.2e} "
           f"L monotone={monotone} intE={int_e:.4f}<=4pi")
    assert sup_phi <= 1e-4
    assert l_gap <= 1e-3
    assert fit_residual <= 1e-6
    assert conv.passed
    assert monotone
    assert int_e <= 4.0 * math.pi + 1e-6
    # regularity persisted to the end of the horizon
    from centroflow.curve import check_convex, check_star_shaped
    assert check_star_shaped(final_curve) and check_convex(final_curve)


# ---------------------------------------------------------------------- 7

CRITERION_7_CURVES = ((0.05, 3), (0.02, 2))  # (amplitude, mode) of perturbed ellipses


def test_criterion_7_flow_equivalence_and_gauge():
    # the lambda gauge is asserted bit for bit by the two tests named in the report line:
    # under unit-area normalisation a step never reads lambda, so a lockstep march at
    # another lambda here would only repeat the first one
    worst = max(consistency_check(perturbed_ellipse(1, 1, amplitude, mode, n=256), 1.0, 1e-4,
                                  record_stride=100)
                for amplitude, mode in CRITERION_7_CURVES)
    ok = worst <= 1e-6
    report("7 flow equivalence + lambda gauge", ok,
           f"sup integral gap={worst:.2e}; lambda gauge: tests/test_curve_flow.py::"
           f"test_lambda_gauge_bit_identical_under_renormalization and "
           f"::test_lambda_gauge_phi_without_renormalization")
    assert worst <= 1e-6


@pytest.mark.parametrize("amplitude,mode", CRITERION_7_CURVES)
def test_criterion_7_fails_a_wrong_curvature_law(monkeypatch, amplitude, mode):
    # the scalar flow's linear coefficient 2.1 in place of 2: the integrals part by
    # 3.4e-3 and 4.2e-3, so the verdict tells the laws apart
    original = curvature_flow._stage

    def wrong_law(y):
        velocity = original(y)
        velocity[1] += 0.1 * y[1]
        return velocity

    monkeypatch.setattr(curvature_flow, "_stage", wrong_law)
    gap = consistency_check(perturbed_ellipse(1, 1, amplitude, mode, n=256), 1.0, 1e-4,
                            record_stride=100)
    assert gap > 1e-6


# ---------------------------------------------------------------------- 8

def test_criterion_8_explicit_family():
    worst_phi = 0.0
    worst_area = 0.0
    monotone = True
    for (a0, b0) in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0)):
        verdict = check_backward_limit_on_family(a0, b0, [0.0, -1.0, -2.0, -4.0])
        worst_phi = max(worst_phi, verdict.measured)
        monotone &= verdict.passed
        for t in (0.0, -1.0, -2.0, -4.0):
            member = explicit_ellipse_family(a0, b0, t)
            worst_area = max(worst_area,
                             abs(member.enclosed_area() - family_area(a0, b0, t)))
    static = explicit_ellipse_family(1.0, 1.0, -3.0)
    static_ok = np.array_equal(static.points, explicit_ellipse_family(1.0, 1.0, 0.0).points)
    ok = worst_phi <= 1e-10 and worst_area <= 1e-10 and monotone and static_ok
    report("8 explicit family", ok,
           f"sup phi-derivs={worst_phi:.2e} area err={worst_area:.2e} "
           f"monotone-to-pi={monotone} static={static_ok}")
    assert worst_phi <= 1e-10
    assert worst_area <= 1e-10
    assert monotone and static_ok


# ---------------------------------------------------------------------- 9

def test_criterion_9_temporal_order():
    curve0 = perturbed_ellipse(1, 1, 0.08, 3, n=64, require_convex=True)
    field0 = centro_affine(curve0)
    t_end = 0.2
    dts = (1e-3, 5e-4, 2.5e-4)

    def scalar_run(dt):
        s = CurvatureFlowState.from_field(field0)
        for _ in range(round(t_end / dt)):
            s = scalar_step(s, dt)
        return s.phi

    def curve_run(dt):
        s = CurveFlowState(0.0, curve0, lam=0.0)
        for _ in range(round(t_end / dt)):
            s = curve_step(s, dt)
        return s.curve.points

    ref_s, ref_c = scalar_run(dts[-1] / 8), curve_run(dts[-1] / 8)
    err_s = [float(np.abs(scalar_run(dt) - ref_s).max()) for dt in dts]
    err_c = [float(np.abs(curve_run(dt) - ref_c).max()) for dt in dts]
    logs = np.log(np.asarray(dts))
    slope_s = float(np.polyfit(logs, np.log(err_s), 1)[0])
    slope_c = float(np.polyfit(logs, np.log(err_c), 1)[0])
    ok = slope_s >= 3.5 and slope_c >= 3.5
    report("9 temporal order", ok, f"scalar slope={slope_s:.2f} curve slope={slope_c:.2f}")
    assert slope_s >= 3.5
    assert slope_c >= 3.5


# --------------------------------------------------------------------- 10

def test_criterion_10_determinism(tmp_path):
    spec = {
        "name": "determinism",
        "curve": {"kind": "perturbed_ellipse", "a": 1.0, "b": 1.0,
                  "amplitude": 0.05, "mode": 3},
        "N": 128, "dt": 1e-4, "t_end": 0.05, "flow": "both",
        "record_stride": 1,
        "outputs": {"csv": "determinism.csv", "report": "determinism.report.json"},
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(spec))
    config = ScenarioConfig.from_json(cfg_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = run_scenario(config, out_dir=out_a)
    code_b = run_scenario(config, out_dir=out_b)
    csv_same = (out_a / "determinism.csv").read_bytes() == (out_b / "determinism.csv").read_bytes()
    rep_same = ((out_a / "determinism.report.json").read_bytes()
                == (out_b / "determinism.report.json").read_bytes())
    seeds_same = np.array_equal(random_star_convex(12345).points,
                                random_star_convex(12345).points)
    ok = code_a == code_b == 0 and csv_same and rep_same and seeds_same
    report("10 determinism", ok,
           f"exit codes=({code_a},{code_b}) csv identical={csv_same} "
           f"report identical={rep_same} seeded preset identical={seeds_same}")
    assert code_a == 0 and code_b == 0
    assert csv_same and rep_same and seeds_same
