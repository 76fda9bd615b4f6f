import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from centroflow import curvature_flow, curve_flow, diagnostics, scenario
from centroflow.cli import main
from centroflow.curve import (ClosedCurve, origin_ellipse, perturbed_ellipse,
                              shifted_ellipse, star_convex)
from centroflow.io import write_curve_json
from centroflow.scenario import ScenarioConfig, run_scenario, run_sweep
from centroflow.errors import BlowUp, ConfigError, NonConstantSign, NotStarShaped
from centroflow.invariants import centro_affine
from centroflow.trajectory import CSV_COLUMNS

REPO = Path(__file__).resolve().parents[1]


def small_scenario(tmp_path, name="small", **overrides):
    # record every step, so that the identity residuals, fourth order in the
    # record spacing, sit far inside their tolerance
    spec = {
        "name": name,
        "curve": {"kind": "perturbed_ellipse", "a": 1.0, "b": 1.0,
                  "amplitude": 0.05, "mode": 3},
        "N": 128,
        "dt": 1e-4,
        "t_end": 0.02,
        "flow": "both",
        "record_stride": 1,
        "outputs": {"csv": f"{name}.csv", "report": f"{name}.report.json"},
    }
    spec.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return path


def test_invariants_command(tmp_path, capsys):
    curve_path = tmp_path / "ellipse.json"
    write_curve_json(origin_ellipse(2, 0.5), curve_path)
    assert main(["invariants", str(curve_path)]) == 0
    out = capsys.readouterr().out
    assert "epsilon   = 1" in out
    assert "PASS mean_zero" in out
    assert "PASS isoperimetric" in out


def test_invariants_command_failing_curve(tmp_path, capsys):
    curve_path = tmp_path / "shifted.json"
    write_curve_json(shifted_ellipse(1, 1, 0.5, 0), curve_path)
    assert main(["invariants", str(curve_path)]) == 2
    assert "FAIL isoperimetric" in capsys.readouterr().out


def test_evolve_scenario_exit_zero(tmp_path, capsys):
    cfg = small_scenario(tmp_path)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "small.csv").exists()
    report = json.loads((tmp_path / "small.report.json").read_text())
    assert all(v["passed"] for v in report["verdicts"])
    assert any(v["name"] == "flow_equivalence" for v in report["verdicts"])


def test_static_circle_bundled_scenario(tmp_path):
    config = ScenarioConfig.from_json(REPO / "scenarios" / "static-circle.json")
    config.t_end = 0.05  # trimmed horizon: the fixed point does not evolve
    assert run_scenario(config, out_dir=tmp_path) == 0
    rows = (tmp_path / "static-circle.csv").read_text().strip().split("\n")[1:]
    energy_column = [float(r.split(",")[2]) for r in rows]
    assert max(energy_column) <= 1e-25  # machine zero


def test_perturbed_m3_bundled_scenario_wiring(tmp_path):
    # the full 8-unit headline run lives in the acceptance suite; this
    # exercises the bundled config end to end on a trimmed horizon
    config = ScenarioConfig.from_json(REPO / "scenarios" / "perturbed-m3.json")
    config.t_end = 0.2
    config.check_convergence = False  # convergence needs the full horizon
    assert run_scenario(config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "perturbed-m3.report.json").read_text())
    assert all(v["passed"] for v in report["verdicts"])


def test_cfl_violation_exits_three(tmp_path):
    cfg = small_scenario(tmp_path, name="unstable", dt=0.5, t_end=1.0, record_stride=1)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "unstable.report.json").read_text())
    assert report["error"]["type"] == "StabilityViolation"
    assert report["error"]["time"] is not None


def test_curve_flow_phi_ceiling_exits_three(tmp_path, monkeypatch):
    # max|phi| of this curve grows by about 6.5e-4 a step from 0.4549 at dt 1e-3, so the
    # state at t = 4e-3 is the first above 0.457; the step from it raises at its time
    monkeypatch.setattr(curvature_flow, "PHI_CEILING", 0.457)
    state = curve_flow.CurveFlowState(0.0, shifted_ellipse(1, 1, 0.3, 0, n=64))
    with pytest.raises(BlowUp, match=r"max\|phi\| exceeded ceiling 0.457") as info:
        curve_flow.evolve(state, 0.02, 1e-3)
    assert info.value.time == pytest.approx(4e-3, abs=1e-12)
    cfg = small_scenario(tmp_path, name="phiceiling", flow="curve", N=64, dt=1e-3,
                         t_end=0.02, curve={"kind": "shifted_ellipse", "a": 1.0, "b": 1.0,
                                            "x0": 0.3, "y0": 0.0})
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "phiceiling.report.json").read_text())
    assert report["error"] == {"type": "BlowUp", "message": str(info.value),
                               "time": info.value.time}


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["evolve", str(bad)]) == 1
    assert "line" in capsys.readouterr().err

    bad.write_text(json.dumps({"name": "x", "curve": {"kind": "origin_ellipse"},
                               "flow": "sideways"}))
    assert main(["evolve", str(bad)]) == 1

    bad.write_text(json.dumps({"name": "x"}))
    assert main(["evolve", str(bad)]) == 1

    bad.write_text(json.dumps({"name": "x", "curve": {"kind": "origin_ellipse", "a": 1, "b": 1},
                               "mystery_field": 3}))
    assert main(["evolve", str(bad)]) == 1


def test_horizon_not_a_multiple_of_dt_exits_one(tmp_path, capsys):
    cfg = small_scenario(tmp_path, name="ragged", dt=3e-4, t_end=0.01)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert "not an integer multiple of dt" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json(cfg)


def test_inadmissible_initial_curve_reports_and_exits_one(tmp_path):
    cfg = small_scenario(tmp_path, name="nonconvex", N=64, flow="curve",
                         curve={"kind": "star_convex", "cos_coeffs": [0, 0, 0.2],
                                "sin_coeffs": [0, 0, 0], "require_convex": False})
    assert main(["verify", str(cfg), "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "nonconvex.report.json").read_text())
    assert report["error"]["type"] == "NonConstantSign"
    assert "sign" in report["error"]["message"]
    assert report["verdicts"] == []


def test_sweep_runs_in_name_order_on_the_calling_thread(tmp_path, monkeypatch):
    sweep_dir = tmp_path / "many"
    sweep_dir.mkdir()
    for name in ("s3", "s1", "s4", "s0", "s2"):
        small_scenario(sweep_dir, name=name)
    calls = []

    def recording_run(config, out_dir=None, *, verdicts_only=False, printer=None):
        calls.append((config.name, threading.current_thread()))
        return 0

    monkeypatch.setattr(scenario, "run_scenario", recording_run)
    assert run_sweep(sweep_dir, out_dir=tmp_path) == 0
    assert [name for name, _ in calls] == ["s0", "s1", "s2", "s3", "s4"]
    assert all(thread is threading.current_thread() for _, thread in calls)


def test_verify_writes_report_only(tmp_path):
    cfg = small_scenario(tmp_path, name="verify-only")
    assert main(["verify", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "verify-only.report.json").exists()
    assert not (tmp_path / "verify-only.csv").exists()


def test_verify_creates_no_directory_for_the_csv(tmp_path):
    cfg = small_scenario(tmp_path, name="nested", t_end=0.002,
                         outputs={"csv": "deep/nested/v.csv", "report": "nested.report.json"})
    out = tmp_path / "out"
    assert main(["verify", str(cfg), "--out-dir", str(out)]) == 0
    # every path under the output directory, directories included
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["nested.report.json"]
    assert main(["evolve", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "deep" / "nested" / "v.csv").is_file()


def test_verify_sweep_writes_reports_only(tmp_path, capsys):
    sweep_dir = tmp_path / "batch"
    sweep_dir.mkdir()
    for name in ("a", "b"):
        small_scenario(sweep_dir, name=name, t_end=0.002, snapshot_stride=10,
                       outputs={"csv": f"{name}.csv", "report": f"{name}.report.json",
                                "svg_dir": "svg"})
    out = tmp_path / "out"
    assert main(["verify", "--sweep", str(sweep_dir), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a: exit 0", "b: exit 0"]
    assert sorted(p.name for p in out.rglob("*")) == ["a.report.json", "b.report.json"]


def _written(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_each_sweep_file_ends_as_its_run_alone(tmp_path, capsys):
    sweep_dir = tmp_path / "mixed"
    sweep_dir.mkdir()
    quick = {"t_end": 0.002}
    paths = [small_scenario(sweep_dir, name="good", **quick),
             small_scenario(sweep_dir, name="good-curve", flow="curve", **quick),
             small_scenario(sweep_dir, name="ragged", N=64, dt=3e-4, t_end=0.01),
             small_scenario(sweep_dir, name="unknown", curve={"kind": "triangle"}, **quick),
             small_scenario(sweep_dir, name="missing", curve="missing-curve.json", **quick),
             small_scenario(sweep_dir, name="endless", N=64, t_end=math.inf),
             # the CSV path is the output directory itself: an OSError, exit 3
             small_scenario(sweep_dir, name="unwritable", outputs={"csv": "."}, **quick)]
    alone_codes, alone_files, alone_errors = {}, {}, []
    for path in sorted(paths):
        out = tmp_path / "alone" / path.stem
        alone_codes[path.stem] = main(["evolve", str(path), "--out-dir", str(out)])
        alone_files.update(_written(out) if out.exists() else {})
        alone_errors += [line for line in capsys.readouterr().err.splitlines()
                         if line.startswith("config error:")]
    assert alone_codes == {"good": 0, "good-curve": 0, "ragged": 1, "unknown": 1,
                           "missing": 1, "endless": 1, "unwritable": 3}
    assert len(alone_errors) == 4
    worst = main(["evolve", "--sweep", str(sweep_dir), "--out-dir", str(tmp_path / "swept")])
    lines = capsys.readouterr().out.splitlines()
    exits = [line for line in lines if ": exit " in line]
    assert exits == [f"{path.stem}: exit {alone_codes[path.stem]}" for path in sorted(paths)]
    # each file prints the config error line it prints alone
    assert [line for line in lines if line.startswith("config error:")] == alone_errors
    assert _written(tmp_path / "swept") == alone_files
    assert worst == max(alone_codes.values())


def test_family_command(capsys):
    assert main(["family", "--a0", "2", "--b0", "1", "--times", "0,-1,-2,-4"]) == 0
    out = capsys.readouterr().out
    assert "PASS backward_limit_family" in out


@pytest.mark.parametrize("argv,message", [
    (["--a0", "2", "--b0", "1", "--times", "0,1"], "strictly decreasing"),
    (["--a0", "-2", "--b0", "1", "--times", "0,-1"], "axes must be positive"),
    (["--a0", "2", "--b0", "1", "--times", "0,abc"], "could not convert"),
    (["--a0", "2", "--b0", "0.5", "--times", "nan,0"], "t_list must be finite"),
    (["--a0", "2", "--b0", "0.5", "--times", "0,nan"], "t_list must be finite"),
    (["--a0", "2", "--b0", "0.5", "--times", "inf,0"], "t_list must be finite"),
    (["--a0", "2", "--b0", "1", "--times", "0,-inf"], "t_list must be finite"),
], ids=["increasing times", "negative axis", "not a number", "nan first", "nan last",
        "inf first", "-inf last"])
def test_family_argument_errors_exit_one(capsys, argv, message):
    assert main(["family", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: family: ") and message in err


def test_sweep_runs_all(tmp_path):
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    small_scenario(sweep_dir, name="one")
    small_scenario(sweep_dir, name="two", t_end=0.01)
    code = run_sweep(sweep_dir, out_dir=tmp_path)
    assert code == 0
    assert (tmp_path / "one.report.json").exists()
    assert (tmp_path / "two.report.json").exists()
    with pytest.raises(ConfigError):
        run_sweep(tmp_path / "missing")


def test_env_var_default_outdir(tmp_path, monkeypatch):
    cfg = small_scenario(tmp_path, name="envdir")
    out = tmp_path / "fromenv"
    monkeypatch.setenv("CENTROFLOW_OUTDIR", str(out))
    assert main(["evolve", str(cfg)]) == 0
    assert (out / "envdir.csv").exists()


def test_determinism_byte_identical(tmp_path):
    cfg_path = small_scenario(tmp_path, name="det")
    config = ScenarioConfig.from_json(cfg_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_scenario(config, out_dir=out_a) == 0
    assert run_scenario(config, out_dir=out_b) == 0
    assert (out_a / "det.csv").read_bytes() == (out_b / "det.csv").read_bytes()
    assert (out_a / "det.report.json").read_bytes() == (out_b / "det.report.json").read_bytes()


def test_svg_outputs(tmp_path):
    cfg = small_scenario(tmp_path, name="withsvg",
                         outputs={"csv": "withsvg.csv", "report": "withsvg.report.json",
                                  "svg_dir": "svgs"}, snapshot_stride=25)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 0
    svgs = sorted((tmp_path / "svgs").glob("*.svg"))
    names = [s.name for s in svgs]
    assert "withsvg.initial.svg" in names
    assert "withsvg.final.svg" in names


@pytest.mark.parametrize("command,svg_dir,strides,normalization", [
    pytest.param("verify", "svgs", (100, 1), "unit_area_scale", id="verify-svgs-0"),
    pytest.param("evolve", None, (100, 1), "unit_area_scale", id="evolve-None-0"),
    pytest.param("evolve", "svgs", (100, 1), "unit_area_scale", id="evolve-svgs-3"),
    # a snapshot stride that is no multiple of the record stride
    pytest.param("evolve", "svgs", (7, 5), "unit_area_scale", id="evolve-svgs-7-5-unit_area_scale"),
    pytest.param("evolve", "svgs", (7, 5), "none", id="evolve-svgs-7-5-none")])
def test_snapshots_are_taken_only_for_svgs(tmp_path, monkeypatch, command, svg_dir, strides,
                                           normalization):
    observers, original = [], curve_flow.evolve

    def recorder(*args, **kwargs):
        observers.append(kwargs["observer"])
        return original(*args, **kwargs)

    monkeypatch.setattr(curve_flow, "evolve", recorder)
    outputs = {"csv": "snap.csv", "report": "snap.report.json"}
    if svg_dir:
        outputs["svg_dir"] = svg_dir
    snapshot_stride, record_stride = strides
    cfg = small_scenario(tmp_path, name="snap", outputs=outputs, normalization=normalization,
                         snapshot_stride=snapshot_stride, record_stride=record_stride)
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out-dir", str(out)]) == 0
    svgs = command == "evolve" and svg_dir is not None
    assert len(observers) == 1 and (observers[0] is not None) == svgs
    # 200 steps of 1e-4: a snapshot every snapshot_stride of them, the initial and the final
    times = [f"snap.t{i * 1e-4:.6f}.svg" for i in range(0, 201, snapshot_stride)]
    assert sorted(path.name for path in out.glob("svgs/*.svg")) == (
        sorted(["snap.final.svg", "snap.initial.svg"] + times) if svgs else [])


def test_evolve_sweep_flag(tmp_path, capsys):
    sweep_dir = tmp_path / "batch"
    sweep_dir.mkdir()
    small_scenario(sweep_dir, name="alpha")
    small_scenario(sweep_dir, name="beta")
    assert main(["evolve", "--sweep", str(sweep_dir), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "alpha: exit 0" in out and "beta: exit 0" in out


def test_evolve_without_config_or_sweep(capsys):
    assert main(["evolve"]) == 1
    assert "required" in capsys.readouterr().err


def _unreadable_scenario(tmp_path, kind):
    path = tmp_path / "unreadable.json"
    if kind == "not utf-8":
        path.write_bytes(b'{"name": "\xff"}')
    elif kind == "directory":
        path.mkdir()
    return path


@pytest.mark.parametrize("kind", ["missing", "not utf-8", "directory"])
@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_an_unreadable_scenario_file_exits_one(tmp_path, capsys, command, kind):
    path = _unreadable_scenario(tmp_path, kind)
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err and "Error:" not in err


@pytest.mark.parametrize("kind", ["not utf-8", "directory"])
def test_sweep_reports_an_unreadable_scenario_file_and_runs_the_rest(tmp_path, kind):
    sweep_dir = tmp_path / "mixed"
    sweep_dir.mkdir()
    small_scenario(sweep_dir, name="good", t_end=0.005)
    path = _unreadable_scenario(sweep_dir, kind)
    lines = []
    assert run_sweep(sweep_dir, out_dir=tmp_path, printer=lines.append) == 1
    assert (tmp_path / "good.csv").exists()
    assert {"good: exit 0", "unreadable: exit 1"} <= set(lines)
    assert [line for line in lines if line.startswith("config error:")] == [
        line for line in lines if line.startswith(f"config error: {path}: ")]
    assert not any(line.startswith("error:") for line in lines)


def test_too_few_records_fail_the_identity_verdicts(tmp_path):
    cfg = small_scenario(tmp_path, name="short", flow="curvature", N=64, t_end=3e-4)
    assert main(["verify", str(cfg), "--out-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "short.report.json").read_text())
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert len(verdicts) == 8
    for name in ("energy_identity", "h1_identity"):
        v = verdicts[name]
        assert not v["passed"]
        assert (v["measured"], v["bound"]) == (4.0, 5.0)
        assert "at least 5 records" in v["context"] and "have 4" in v["context"]
    assert all(v["passed"] for name, v in verdicts.items() if "identity" not in name)


def test_sweep_reports_a_bad_file_and_runs_the_rest(tmp_path):
    sweep_dir = tmp_path / "mixed"
    sweep_dir.mkdir()
    small_scenario(sweep_dir, name="good", t_end=0.005)
    ragged = small_scenario(sweep_dir, name="ragged", dt=3e-4, t_end=0.01)
    unknown = small_scenario(sweep_dir, name="unknown", curve={"kind": "triangle"})
    lines = []
    assert run_sweep(sweep_dir, out_dir=tmp_path, printer=lines.append) == 1
    assert (tmp_path / "good.csv").exists() and (tmp_path / "good.report.json").exists()
    assert not (tmp_path / "ragged.report.json").exists()
    assert {"good: exit 0", "ragged: exit 1", "unknown: exit 1"} <= set(lines)
    errors = [line for line in lines if line.startswith("config error:")]
    assert len(errors) == 2
    assert str(ragged) in errors[0] and "not an integer multiple of dt" in errors[0]
    assert str(unknown) in errors[1] and "unknown preset kind 'triangle'" in errors[1]


@pytest.mark.parametrize("overrides,message", [
    ({"t_end": math.inf}, "field 't_end' must be finite"),
    ({"t_end": 1e308, "dt": 1e-10}, "horizon 1e+308 is too long to plan in steps of dt = 1e-10"),
    ({"dt": math.nan}, "field 'dt' must be finite"),
    ({"lambda": math.nan, "normalization": "none"}, "field 'lambda' must be finite"),
    ({"t_end": 1e300}, "the float clock near t = 1e+300 cannot resolve steps of dt = 0.0001"),
    ({"t_end": 1e11}, "horizon 1e+11 takes 1000000000000000 steps of dt = 0.0001, "
                      "more than MAX_STEPS = 100000000"),
    ({"dt": 0}, "dt and t_end must be positive"),
    ({"N": 15}, "N must be even and >= 16"),
    ({"record_stride": 0}, "record_stride must be >= 1"),
    ({"normalization": "sideways"}, "normalization must be one of ('none', 'unit_area_scale')"),
    ({"check_convergence": True, "flow": "curvature"},
     "check_convergence needs curve samples: use flow 'curve' or 'both'"),
], ids=["t_end Infinity", "t_end 1e308", "dt NaN", "lambda NaN", "t_end 1e300", "t_end 1e11",
        "dt 0", "N 15", "record_stride 0", "normalization sideways",
        "check_convergence curvature"])
def test_numbers_that_cannot_run_are_config_errors(tmp_path, capsys, overrides, message):
    cfg = small_scenario(tmp_path, name="numeric", **{"N": 64, "t_end": 3e-4, **overrides})
    out = tmp_path / "out"
    assert main(["verify", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
    assert not out.exists()


def test_a_document_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "array.json"
    cfg.write_text(json.dumps([{"name": "array"}]))
    out = tmp_path / "out"
    assert main(["verify", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: top level must be an object\n"
    assert not out.exists()


def _check_curve_spec_error(tmp_path, capsys, curve, message):
    # the spec is read when the curve is built, so the report, which names the error,
    # is written; the printed error names the file, as a sweep's does, and the report's
    # message the field
    cfg = small_scenario(tmp_path, name="kindless", N=64, t_end=3e-4, curve=curve)
    out = tmp_path / "out"
    assert main(["verify", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
    report = json.loads((out / "kindless.report.json").read_text())
    assert report["error"] == {"type": "ConfigError", "message": message, "time": 0.0}
    assert report["verdicts"] == []
    assert sorted(p.name for p in out.iterdir()) == ["kindless.report.json"]


def test_a_curve_spec_without_a_kind_is_a_config_error_with_a_report(tmp_path, capsys):
    _check_curve_spec_error(tmp_path, capsys, {"a": 1.0, "b": 1.0},
                            "curve spec needs a 'kind' field")


def test_an_unknown_preset_kind_is_a_config_error_with_a_report(tmp_path, capsys):
    _check_curve_spec_error(tmp_path, capsys, {"kind": "triangle"},
                            "curve spec invalid: unknown preset kind 'triangle'; known: "
                            "['origin_ellipse', 'perturbed_ellipse', 'random_star_convex', "
                            "'shifted_ellipse', 'star_convex']")


def test_a_random_star_without_modes_is_a_config_error_with_a_report(tmp_path, capsys):
    _check_curve_spec_error(tmp_path, capsys, {"kind": "random_star_convex", "seed": 3,
                                               "modes": 0},
                            "curve spec invalid: random_star_convex needs at least 1 mode, "
                            "got 0")


@pytest.mark.parametrize("overrides,message", [
    ({"normalization": "none", "lambda": 1e308},
     "gauge factor e^1e+304 left the float range"),
    ({"curve": {"kind": "perturbed_ellipse", "a": 1e-160, "b": 1e-160,
                "amplitude": 0.05, "mode": 3}}, "enclosed area collapsed"),
    # e^(2 sigma) pi underflows at the first step; the final curve's verdicts are not reached
    ({"normalization": "none", "lambda": -1e7, "check_convergence": True},
     "gauge factor e^-999.999 left the float range"),
], ids=["lambda 1e308", "area 1e-320", "lambda -1e7"])
def test_an_overflowing_scale_factor_is_a_blowup(tmp_path, overrides, message):
    cfg = small_scenario(tmp_path, name="scale", flow="curve", N=64, t_end=3e-4, **overrides)
    with np.errstate(all="ignore"):  # the 1e-160 curve's invariants divide by zero
        assert main(["verify", str(cfg), "--out-dir", str(tmp_path)]) == 3
    error = json.loads((tmp_path / "scale.report.json").read_text())["error"]
    assert error == {"type": "BlowUp", "message": message, "time": 1e-4}


def test_a_none_run_differs_from_its_unit_area_twin_only_in_the_area(tmp_path):
    # both march the one unit-area curve; "none" only reports the area e^(2 sigma) pi
    curve = {"kind": "perturbed_ellipse", "a": 1.2, "b": 0.9, "amplitude": 0.05, "mode": 3}
    reports, tables = [], []
    for normalization in ("unit_area_scale", "none"):
        out = tmp_path / normalization
        out.mkdir()
        cfg = small_scenario(out, name="twin", curve=curve, N=64, t_end=0.05, record_stride=5,
                             check_convergence=True, normalization=normalization,
                             **{"lambda": 0.7})
        assert main(["evolve", str(cfg), "--out-dir", str(out)]) == 2
        reports.append((out / "twin.report.json").read_bytes())
        tables.append([line.split(",") for line in (out / "twin.csv").read_text().splitlines()])
    assert reports[0] == reports[1]
    area = CSV_COLUMNS.index("area")
    unit, scaled = (np.array(table) for table in tables)
    assert unit.shape == scaled.shape == (2 + 500 // 5, len(CSV_COLUMNS))
    assert np.array_equal(np.delete(unit, area, axis=1), np.delete(scaled, area, axis=1))
    # the start is reported unscaled; every later area differs
    assert unit[1, area] == scaled[1, area]
    assert np.all(unit[2:, area] != scaled[2:, area])


@pytest.mark.parametrize("name", ["g/../../escaped", "a/b", "", ".", ".."])
def test_a_name_must_be_a_plain_file_stem(tmp_path, capsys, name):
    (tmp_path / "scenarios" / "deep").mkdir(parents=True)
    cfg = small_scenario(tmp_path / "scenarios" / "deep", name="stem", N=64, t_end=3e-4,
                         outputs={})
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "name": name}))
    assert main(["verify", str(cfg), "--out-dir", str(tmp_path / "out" / "inner")]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {cfg}: field 'name' must be a plain file stem, got {name!r}\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]


_PROCESS_BASE = {"name": "proc", "curve": {"kind": "perturbed_ellipse", "a": 1.0, "b": 1.0,
                                           "amplitude": 0.05, "mode": 3},
                 "N": 64, "dt": 1e-4, "t_end": 3e-4, "flow": "curve"}


@pytest.mark.parametrize("overrides,code", [
    ({"t_end": math.inf}, 1),
    ({"t_end": 1e308, "dt": 1e-10}, 1),
    ({"dt": math.nan}, 1),
    ({"lambda": math.nan, "normalization": "none"}, 1),
    ({"lambda": 1e308, "normalization": "none"}, 3),
    ({"name": "g/../../escaped"}, 1),
    ({"t_end": 1e300}, 1),
    ({"t_end": 1e11}, 1),
], ids=["t_end Infinity", "t_end 1e308", "dt NaN", "lambda NaN", "lambda 1e308",
        "escaping name", "t_end 1e300", "t_end 1e11"])
def test_the_process_exits_with_the_readme_code_and_no_traceback(tmp_path, overrides, code):
    # what a user sees: the interpreter's own exit status and stderr, not main()'s return
    cfg = tmp_path / "scenarios" / "proc.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({**_PROCESS_BASE, **overrides}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "centroflow.cli", "verify", str(cfg), "--out-dir", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != cfg]
    if code == 1:
        assert proc.stderr.startswith(f"config error: {cfg}: ")
        assert written == []
    else:
        assert written == [out / "proc.report.json"]
        assert json.loads(written[0].read_text())["error"]["type"] == "BlowUp"


def test_invariants_process_names_an_overflowing_spectrum(tmp_path):
    curve_path = tmp_path / "huge.json"
    write_curve_json(ClosedCurve(origin_ellipse(1.0, 0.5, n=64).points * 1e160, "huge"),
                     curve_path)
    proc = subprocess.run(
        [sys.executable, "-m", "centroflow.cli", "invariants", str(curve_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.startswith(
        "INADMISSIBLE CURVE DegenerateMetric: curve spectrum norm overflows")


@pytest.mark.parametrize("command", ["invariants", "evolve", "verify"])
def test_an_overflowing_spectrum_is_reported_without_a_warning(tmp_path, command):
    # the spectrum norm of a curve near 1e160 overflows; the curve's own check reports it,
    # and numpy's overflow warning does not reach stderr
    curve_path = tmp_path / "huge.json"
    write_curve_json(ClosedCurve(perturbed_ellipse(1, 1, 0.05, 3, n=64).points * 1e160,
                                 "huge"), curve_path)
    cfg = small_scenario(tmp_path, name="run", curve=str(curve_path), flow="curve", N=64,
                         t_end=3e-4)
    args = ([str(curve_path)] if command == "invariants"
            else [str(cfg), "--out-dir", str(tmp_path / "out")])
    proc = subprocess.run(
        [sys.executable, "-m", "centroflow.cli", command, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.startswith(
        "INADMISSIBLE CURVE DegenerateMetric: curve spectrum norm overflows: coordinates "
        "up to 1.05e+160 are beyond the float range")


@pytest.mark.parametrize("flow,module,kernel,error", [
    ("curvature", curvature_flow, "_stage", NonConstantSign),
    ("curve", curve_flow, "_geometry_velocity", NotStarShaped),
])
def test_geometry_error_mid_march_reports_and_exits_three(tmp_path, monkeypatch, flow,
                                                          module, kernel, error):
    calls = []
    original = getattr(module, kernel)

    def failing(*args):
        calls.append(None)
        if len(calls) == 10:
            raise error("injected mid-march")
        return original(*args)

    monkeypatch.setattr(module, kernel, failing)
    cfg = small_scenario(tmp_path, name="midmarch", flow=flow, N=64)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "midmarch.report.json").read_text())
    assert report["error"]["type"] == error.__name__
    assert report["error"]["message"] == "injected mid-march"
    # the tenth kernel call falls in the third step, which starts at t = 2 dt
    assert report["error"]["time"] == pytest.approx(2e-4)
    assert [v["name"] for v in report["verdicts"]] == ["mean_zero", "isoperimetric"]


def test_curve_file_is_found_beside_the_scenario(tmp_path, monkeypatch):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    write_curve_json(origin_ellipse(1.0, 1.0, n=32), scenario_dir / "circle.json")
    cfg = small_scenario(scenario_dir, name="fromfile", curve="circle.json", N=32,
                         t_end=0.001, flow="curve")
    monkeypatch.chdir(tmp_path)   # the scenario's directory, not the working one, decides
    assert main(["verify", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0


def test_curve_file_sample_count_must_match_n(tmp_path, capsys):
    curve_path = tmp_path / "curve.json"
    write_curve_json(origin_ellipse(1.0, 1.0, n=128), curve_path)
    cfg = small_scenario(tmp_path, name="wrongn", curve="curve.json", N=256)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: curve file") and str(curve_path) in err
    assert "128 samples, but N is 256" in err
    report = json.loads((tmp_path / "wrongn.report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert str(curve_path) in report["error"]["message"]
    assert not (tmp_path / "wrongn.csv").exists()


@pytest.mark.parametrize("content", [None, "{broken", '{"points": [[1, 0], [0, 1, 2]]}'])
def test_unreadable_curve_file_reports_and_exits_one(tmp_path, capsys, content):
    curve_path = tmp_path / "curve.json"
    if content is not None:
        curve_path.write_text(content)
    cfg = small_scenario(tmp_path, name="nocurve", curve="curve.json")
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: curve file") and str(curve_path) in err
    report = json.loads((tmp_path / "nocurve.report.json").read_text())
    assert report["error"]["type"] == "ConfigError"
    assert str(curve_path) in report["error"]["message"]
    assert report["verdicts"] == []


def test_sweep_with_a_missing_curve_file_runs_the_rest(tmp_path):
    sweep_dir = tmp_path / "mixed"
    sweep_dir.mkdir()
    small_scenario(sweep_dir, name="good", t_end=0.005)
    missing = small_scenario(sweep_dir, name="missing", curve="missing-curve.json")
    lines = []
    assert run_sweep(sweep_dir, out_dir=tmp_path, printer=lines.append) == 1
    assert (tmp_path / "good.csv").exists() and (tmp_path / "missing.report.json").exists()
    assert {"good: exit 0", "missing: exit 1"} <= set(lines)
    errors = [line for line in lines if line.startswith("config error:")]
    # the curve file's error names that file, as the scenario run alone prints it
    assert len(errors) == 1 and str(missing) not in errors[0]
    assert errors[0].startswith(f"config error: curve file {sweep_dir / 'missing-curve.json'}: ")


def test_every_command_prints_the_one_verdict_line(tmp_path, capsys):
    curve_path = tmp_path / "ellipse.json"
    write_curve_json(origin_ellipse(2, 0.5), curve_path)
    main(["invariants", str(curve_path)])
    main(["family", "--a0", "2", "--b0", "1", "--times", "0,-1"])
    main(["verify", str(small_scenario(tmp_path, t_end=0.005)), "--out-dir", str(tmp_path)])
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("PASS ", "FAIL "))]
    report = json.loads((tmp_path / "small.report.json").read_text())
    verdicts = [diagnostics.check_mean_zero(centro_affine(origin_ellipse(2, 0.5))),
                diagnostics.check_isoperimetric(centro_affine(origin_ellipse(2, 0.5))),
                diagnostics.check_backward_limit_on_family(2, 1, [0, -1])]
    verdicts += [diagnostics.Verdict(**v) for v in report["verdicts"]]
    assert lines == [diagnostics.verdict_line(v) for v in verdicts]
    assert all(" bound=" in line and " tol=" in line for line in lines)


@pytest.mark.parametrize("content", [None, json.dumps({"points": [[1, 0], [0, 1]]}).encode(),
                                     b'{"points": "\xff"}'],
                         ids=["missing", "two points", "not utf-8"])
def test_invariants_on_an_unreadable_curve_file_exits_one(tmp_path, capsys, content):
    curve_path = tmp_path / "curve.json"
    if content is not None:
        curve_path.write_bytes(content)
    assert main(["invariants", str(curve_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: curve file") and str(curve_path) in err


@pytest.mark.parametrize("overrides,field", [
    ({"outputs": {"snapshot_stride": 5}}, "outputs.snapshot_stride"),
    ({"outputs": {"snapshot_stride": "5"}}, "outputs.snapshot_stride"),
    ({"outputs": {"csv": 5}}, "outputs.csv"),
    ({"outputs": {"report": ["r.json"]}}, "outputs.report"),
    ({"outputs": {"svg_dir": True}}, "outputs.svg_dir"),
    ({"outputs": {"cvs": "run.csv"}}, "outputs.cvs"),
    ({"snapshot_stride": -1}, "snapshot_stride"),
], ids=["moved stride", "string stride", "csv type", "report type", "svg_dir type",
        "typo", "negative stride"])
def test_bad_outputs_and_snapshot_stride_exit_one(tmp_path, capsys, overrides, field):
    cfg = small_scenario(tmp_path, name="badout", **overrides)
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err and field in err
    assert not (tmp_path / "badout.report.json").exists()


@pytest.mark.parametrize("curve,error", [
    (lambda: shifted_ellipse(1, 1, 2.0, 0), "NotStarShaped"),
    (lambda: star_convex([0, 0, 0.2], [0, 0, 0], require_convex=False), "NonConstantSign"),
], ids=["origin outside", "not convex"])
def test_invariants_on_an_inadmissible_curve_exits_one(tmp_path, capsys, curve, error):
    curve_path = tmp_path / "curve.json"
    write_curve_json(curve(), curve_path)
    assert main(["invariants", str(curve_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"INADMISSIBLE CURVE {error}: ")
    # the line a scenario with the same curve file prints
    lines = []
    config = ScenarioConfig(name="inadmissible", curve=str(curve_path)).validate()
    assert run_scenario(config, out_dir=tmp_path, printer=lines.append) == 1
    assert out.splitlines() == lines


@pytest.mark.parametrize("field,value", [("dealias", False), ("sobolev_max_n", 4), ("seed", 0)])
def test_removed_scalar_march_fields_exit_one(tmp_path, capsys, field, value):
    cfg = small_scenario(tmp_path, name="removed", **{field: value})
    assert main(["evolve", str(cfg), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err
    assert f"unknown field {field!r}" in err
    assert not (tmp_path / "removed.report.json").exists()


def test_scenario_defaults_come_from_the_dataclass(tmp_path):
    curve = {"kind": "origin_ellipse", "a": 1.0, "b": 1.0}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"name": "minimal", "curve": curve}))
    assert ScenarioConfig.from_json(path) == ScenarioConfig("minimal", curve)
    path.write_text(json.dumps({"name": "ints", "curve": curve, "t_end": 1, "lambda": 2,
                                "dt": 1e-4, "N": 64,
                                "outputs": {"csv": "a.csv", "report": "a.json"}}))
    config = ScenarioConfig.from_json(path)
    assert (config.t_end, config.lam, config.n) == (1.0, 2.0, 64)
    assert type(config.t_end) is float and type(config.lam) is float
    assert (config.csv_path, config.report_path, config.svg_dir) == ("a.csv", "a.json", None)


def test_readme_example_scenario_parses(tmp_path):
    readme = (REPO / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    config = ScenarioConfig.from_json(path)
    assert config.name == "perturbed-m3" and config.record_stride == 1


def test_readme_csv_columns_are_the_trajectory_columns():
    readme = (REPO / "README.md").read_text()
    listed = readme.split("CSV columns, in order", 1)[1].split("`", 2)[1]
    assert tuple(name.strip() for name in listed.split(",")) == CSV_COLUMNS
