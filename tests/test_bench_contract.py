"""What bench/ relies on in the package, checked without changing bench/.

bench/spans.py wraps every name in its TRACED table and counts transforms
inside each flow's `step`; bench/lab.py writes the scenario files of its
marches and rebinds each flow module's `evolve` to keep the trajectory that
run_scenario gets back. These tests fail when a traced name disappears, when
ScenarioConfig stops accepting a scenario the benchmark writes, when
run_scenario stops calling `evolve` through the flow modules, or when an
`evolve` stops looking up its module's `step` at call time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import centroflow
from centroflow import curvature_flow, curve_flow
from centroflow.curve import perturbed_ellipse
from centroflow.scenario import ScenarioConfig, run_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"
LAB = BENCH / "lab.py"


def _resolves(layer, name) -> bool:
    target = importlib.import_module(f"centroflow.{layer}")
    for part in name.split("."):
        target = getattr(target, part, None)
    return callable(target)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(layer, name) for layer, names in spans.TRACED.items() for name in names]
    assert len(names) > 40
    assert [f"{layer}.{name}" for layer, name in names if not _resolves(layer, name)] == []


def test_run_scenario_reaches_both_module_level_evolves(tmp_path, monkeypatch):
    calls = []
    for module in (curvature_flow, curve_flow):
        original = module.evolve

        def recorder(*args, _module=module, _original=original, **kwargs):
            traj = _original(*args, **kwargs)
            calls.append((_module.__name__, traj.final.t))
            return traj

        monkeypatch.setattr(module, "evolve", recorder)
    config = ScenarioConfig(name="contract", curve={"kind": "perturbed_ellipse", "a": 1.0,
                                                    "b": 1.0, "amplitude": 0.05, "mode": 3},
                            n=32, dt=1e-4, t_end=5e-4, flow="both").validate()
    run_scenario(config, out_dir=tmp_path, verdicts_only=True)
    assert sorted(name for name, _ in calls) == ["centroflow.curvature_flow",
                                                 "centroflow.curve_flow"]
    assert all(t == pytest.approx(5e-4) for _, t in calls)


@pytest.mark.parametrize("module,make_state", [
    (curvature_flow, lambda c: curvature_flow.CurvatureFlowState.from_curve(c)),
    (curve_flow, lambda c: curve_flow.CurveFlowState(0.0, c)),
], ids=["curvature_flow", "curve_flow"])
def test_evolve_calls_its_module_step_once_per_step(monkeypatch, module, make_state):
    steps = []
    original = module.step

    def counting(*args, **kwargs):
        steps.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "step", counting)
    state = make_state(perturbed_ellipse(1, 1, 0.05, 3, n=32))
    traj = module.evolve(state, 7e-4, 1e-4, record_stride=3)
    assert len(steps) == 7
    assert len(traj) == 1 + 7 // 3


@pytest.mark.parametrize("workload", ["curve-converge", "scalar-records"])
def test_bench_scenarios_parse_and_build(tmp_path, workload):
    # lab.setup writes each march's scenario file, parses it and builds its curve
    spec = importlib.util.spec_from_file_location("bench_lab", LAB)
    lab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lab)
    ops = lab.setup(workload, 0, tmp_path, cf=centroflow)
    assert [op.spec["name"] for op in ops] == [s["name"] for s in lab.MARCHES[workload]]
    assert all(op.scenario_path.is_file() for op in ops)


def test_a_unit_area_march_reports_its_stored_curve():
    # bench/run.py checks the origin ellipse on trajectory.final.physical_curve
    state = curve_flow.CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n=32), lam=0.7)
    final = curve_flow.evolve(state, 5e-4, 1e-4).final
    assert final.physical_curve is final.curve
