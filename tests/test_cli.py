import json
from pathlib import Path

import pytest

from centroflow import curvature_flow, curve_flow, diagnostics, scenario
from centroflow.cli import main
from centroflow.curve import origin_ellipse, shifted_ellipse, star_convex
from centroflow.io import write_curve_json
from centroflow.scenario import ScenarioConfig, run_scenario, run_sweep
from centroflow.errors import BlowUp, ConfigError, NonConstantSign, NotStarShaped
from centroflow.invariants import centro_affine
from centroflow.trajectory import CSV_COLUMNS

REPO = Path(__file__).resolve().parents[1]


def small_scenario(tmp_path, name="small", **overrides):
    # record every step: the identity residuals scale with the square of the
    # record spacing, so coarse sampling would fail them spuriously
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


def test_sweep_pool_bounded_by_cores(tmp_path, monkeypatch):
    sweep_dir = tmp_path / "many"
    sweep_dir.mkdir()
    for i in range(5):
        small_scenario(sweep_dir, name=f"s{i}")
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(scenario, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenario, "run_scenario", lambda config, out_dir=None: 0)
    for cores, want in ((2, 2), (None, 1), (64, 5)):
        monkeypatch.setattr(scenario.os, "cpu_count", lambda: cores)
        assert run_sweep(sweep_dir, out_dir=tmp_path) == 0
        assert sizes[-1] == want


def test_verify_writes_report_only(tmp_path):
    cfg = small_scenario(tmp_path, name="verify-only")
    assert main(["verify", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "verify-only.report.json").exists()
    assert not (tmp_path / "verify-only.csv").exists()


def test_family_command(capsys):
    assert main(["family", "--a0", "2", "--b0", "1", "--times", "0,-1,-2,-4"]) == 0
    out = capsys.readouterr().out
    assert "PASS backward_limit_family" in out


@pytest.mark.parametrize("argv,message", [
    (["--a0", "2", "--b0", "1", "--times", "0,1"], "strictly decreasing"),
    (["--a0", "-2", "--b0", "1", "--times", "0,-1"], "axes must be positive"),
    (["--a0", "2", "--b0", "1", "--times", "0,abc"], "could not convert"),
], ids=["increasing times", "negative axis", "not a number"])
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
    assert len(errors) == 1
    assert str(missing) in errors[0] and str(sweep_dir / "missing-curve.json") in errors[0]


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


@pytest.mark.parametrize("content", [None, json.dumps({"points": [[1, 0], [0, 1]]})],
                         ids=["missing", "two points"])
def test_invariants_on_an_unreadable_curve_file_exits_one(tmp_path, capsys, content):
    curve_path = tmp_path / "curve.json"
    if content is not None:
        curve_path.write_text(content)
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
