"""The benchmark's checks fail on wrong answers and pass on right ones.

    python3 -m pytest -q bench/test_checks.py

Each check in checks.py is fed a right answer, then the same answer with
one thing wrong: a perimeter off by 1e-6, a final curve that is not an
ellipse, a CSV with one L value lowered, and so on.
"""

import csv
import dataclasses
import json
import math
import time

import numpy as np
import pytest

import checks as c
import lab
import run
from hostclock import HostClock

CF = lab.load_centroflow()


def ellipse(a, b, x0=0.0, y0=0.0, n=256):
    p = lab.grid(n)
    return np.stack([x0 + a * np.cos(p), y0 + b * np.sin(p)], axis=1)


def fails(check, *args, **kwargs):
    with pytest.raises(c.CheckFailed):
        check(*args, **kwargs)


# ------------------------------------------------------------------- reports

def good_report():
    return {"scenario": "s", "verdicts": [
        {"name": n, "passed": True} for n in c.MARCH_VERDICTS]}


def test_report_passes_when_every_verdict_passes():
    c.check_report(good_report())


def test_report_with_a_failing_verdict_fails():
    report = good_report()
    report["verdicts"][3]["passed"] = False
    fails(c.check_report, report)


def test_report_missing_a_verdict_fails():
    report = good_report()
    del report["verdicts"][3]
    fails(c.check_report, report)


def test_report_failing_only_known_verdicts_passes_and_no_other():
    known = ("h1_identity",)
    report = good_report()
    report["verdicts"][4]["passed"] = False      # h1_identity
    c.check_report(report, known_failures=known)
    report["verdicts"][3]["passed"] = False      # energy_identity
    fails(c.check_report, report, known_failures=known)


def test_report_with_a_flow_error_fails():
    fails(c.check_report, {**good_report(), "error": {"type": "BlowUp"}})


# ----------------------------------------------------------------------- CSV

def write_rows(path, columns):
    keys = list(columns)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(keys)
        for row in zip(*(columns[k] for k in keys)):
            writer.writerow([repr(float(v)) for v in row])


def march_columns(steps=200, dt=1e-3):
    """L0 + (1 - e^-t)/4 with E = e^-t / 2: the identity 2 dL/dt = E holds exactly."""
    t = dt * np.arange(steps + 1)
    return {"t": t, "L": 6.0 + 0.25 * (1.0 - np.exp(-t)), "E": 0.5 * np.exp(-t),
            "phi_min": np.full_like(t, -0.5), "phi_max": np.full_like(t, 0.5)}


def test_csv_round_trip_passes(tmp_path):
    write_rows(tmp_path / "m.csv", march_columns())
    cols = c.read_csv_columns(tmp_path / "m.csv")
    c.check_row_count(cols, 201)
    c.check_perimeter_column(cols["L"])
    c.check_energy_rate(cols["t"], cols["L"], cols["E"], rtol=1e-5)
    c.check_maximum_principle(cols["phi_min"], cols["phi_max"], -0.75, 0.75)


def test_csv_with_one_L_lowered_fails(tmp_path):
    columns = march_columns()
    columns["L"][100] = columns["L"][99] - 1e-9
    write_rows(tmp_path / "m.csv", columns)
    fails(c.check_perimeter_column, c.read_csv_columns(tmp_path / "m.csv")["L"])


def test_last_L_lowered_breaks_the_energy_rate():
    columns = march_columns()
    columns["L"][-1] -= 1e-5
    fails(c.check_energy_rate, columns["t"], columns["L"], columns["E"], rtol=1e-5)


def test_L_above_two_pi_fails():
    fails(c.check_perimeter_column, np.array([6.28, 6.2831853, 2 * math.pi + 1e-7]))


def test_missing_row_fails():
    fails(c.check_row_count, march_columns(steps=199), 201)


def test_phi_beyond_the_maximum_principle_fails():
    columns = march_columns()
    columns["phi_max"][50] = 2.001
    fails(c.check_maximum_principle, columns["phi_min"], columns["phi_max"], -0.75, 0.75)
    columns = march_columns()
    columns["phi_min"][50] = -2.001
    fails(c.check_maximum_principle, columns["phi_min"], columns["phi_max"], -0.75, 0.75)


def test_m3_closed_form_matches_the_lab_at_t0():
    field = CF.centro_affine(CF.ClosedCurve(lab.m3_points(256)))
    expected = c.m3_invariants(256, lab.M3_AMPLITUDE, lab.M3_MODE)
    assert abs(2 * math.pi * field.g.mean() - expected["L"]) <= 1e-12
    assert abs(field.phi.min() - expected["phi_min"]) <= 1e-10
    assert abs(field.phi.max() - expected["phi_max"]) <= 1e-10
    circle = c.m3_invariants(64, 0.0, 3)
    assert circle["L"] == pytest.approx(2 * math.pi, abs=1e-14) and circle["E"] == 0.0


def test_initial_row_off_by_1e_8_fails():
    expected = c.m3_invariants(256, lab.M3_AMPLITUDE, lab.M3_MODE)
    columns = {k: np.array([v]) for k, v in expected.items()}
    c.check_initial_row(columns, expected)
    columns["L"][0] += 1e-8
    fails(c.check_initial_row, columns, expected)


# ------------------------------------------------------------ final ellipse

def test_area_pi_origin_ellipse_passes():
    a = lab.draw_sl2(np.random.default_rng(5))
    c.check_origin_ellipse(ellipse(1.0, 1.0) @ a.T)


def test_final_curve_that_is_not_an_ellipse_fails():
    fails(c.check_origin_ellipse, lab.m3_points(256))


def test_ellipse_of_the_wrong_area_fails():
    fails(c.check_origin_ellipse, ellipse(1.0, 1.0 + 1e-4))


def test_off_centre_ellipse_fails():
    fails(c.check_origin_ellipse, ellipse(1.0, 1.0, x0=1e-3))


# --------------------------------------------------------------------- sweep

def test_shifted_ellipse_oracle_matches_quadrature():
    # unit circle centred at (d, 0): g = (1 + d cos p)^(-1/2), trapezoid is spectral
    d = 0.37
    p = lab.grid(4096)
    quadrature = 2 * math.pi * float(np.mean((1 + d * np.cos(p)) ** -0.5))
    assert c.shifted_ellipse_perimeter(1.0, 1.0, d, 0.0) == pytest.approx(quadrature, abs=1e-13)
    # GL(2) invariance of the oracle itself
    assert c.shifted_ellipse_perimeter(2.0, 0.5, 2 * d * 0.6, 0.5 * d * 0.8) == pytest.approx(
        quadrature, abs=1e-13)
    assert c.shifted_ellipse_perimeter(1.7, 0.3, 0.0, 0.0) == 2 * math.pi


def test_perimeter_off_by_1e_6_fails():
    want = c.shifted_ellipse_perimeter(1.0, 1.0, 0.3, 0.0)
    c.require_close("L", want + 1e-13, want, run.SWEEP_L_TOL)
    fails(c.require_close, "L", want + 1e-6, want, run.SWEEP_L_TOL)


def test_area_centroid_of_a_shifted_ellipse():
    assert c.area_centroid(ellipse(2.0, 0.5, 0.3, -0.1)) == pytest.approx([0.3, -0.1], abs=1e-14)


def test_L_above_two_pi_about_the_centroid_fails():
    c.check_isoperimetric_about_centroid(2 * math.pi)
    fails(c.check_isoperimetric_about_centroid, 2 * math.pi + 1e-7)


def test_phi_disagreement_fails():
    phi = np.linspace(-1, 1, 64)
    c.check_phi_agrees(phi, phi + 1e-12, "phi", run.SWEEP_PHI_TOL)
    fails(c.check_phi_agrees, phi, phi + 1e-6, "phi", run.SWEEP_PHI_TOL)


@pytest.fixture(scope="module")
def sweep_round():
    items = lab.setup("invariant-sweep", 0, None, CF)
    sweep = run.Sweep(CF, items, run.Run(), HostClock())
    return sweep, [lab.sweep_op(CF, item) for item in items]


def tampered(outs, index, **changes):
    curve, field, phi_mu, verdicts = outs[index]
    outs = list(outs)
    outs[index] = (curve, dataclasses.replace(field, **changes), phi_mu, verdicts)
    return outs


def test_sweep_round_passes(sweep_round):
    sweep, outs = sweep_round
    sweep.check(outs)


@pytest.mark.parametrize("kind", ["shifted_ellipse", "origin_ellipse", "image"])
def test_sweep_perimeter_off_by_1e_6_fails(sweep_round, kind):
    sweep, outs = sweep_round
    i = next(i for i, item in enumerate(sweep.items) if item.kind == kind)
    g = outs[i][1].g
    fails(sweep.check, tampered(outs, i, g=g * (1 + 1e-6 / (2 * math.pi))))


def test_sweep_phi_off_fails(sweep_round):
    sweep, outs = sweep_round
    i = next(i for i, item in enumerate(sweep.items) if item.kind == "random_star_convex")
    fails(sweep.check, tampered(outs, i, phi=outs[i][1].phi + 1e-6))


# -------------------------------------------------------------- the clock

def test_host_clock_takes_its_samples_out_of_timings():
    clock = HostClock()
    clock.start()
    t0, c0 = time.perf_counter(), clock.now()
    while time.perf_counter() - t0 < 0.6:
        pass
    wall, timed = time.perf_counter() - t0, clock.now() - c0
    clock.stop()
    assert len(clock.samples) >= 2
    assert abs(wall - timed - clock.stolen) < 1e-3


# -------------------------------------------------------------- the contract

def test_benchmark_json_names_what_run_prints():
    spec = json.loads((lab.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(lab.WORKLOADS)
