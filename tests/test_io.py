import json
import math
import tracemalloc

import numpy as np
import pytest

from centroflow.curvature_flow import CurvatureFlowState, evolve
from centroflow.curve import origin_ellipse, perturbed_ellipse
from centroflow.diagnostics import Verdict, fit_origin_ellipse
from centroflow.io import (read_curve_json, write_csv, write_curve_json, write_report,
                           write_svg)
from centroflow.trajectory import COLUMNS, CSV_COLUMNS, FlowTrajectory


def test_curve_json_roundtrip_bit_exact(tmp_path):
    curve = perturbed_ellipse(1, 1, 0.05, 3)
    path = tmp_path / "curve.json"
    write_curve_json(curve, path)
    back = read_curve_json(path)
    assert back.name == curve.name
    assert np.array_equal(back.points, curve.points)


def test_curve_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="line"):
        read_curve_json(bad)
    bad.write_text('{"name": "x"}')
    with pytest.raises(ValueError, match="points"):
        read_curve_json(bad)


def test_csv_header_only_for_empty_trajectory(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(FlowTrajectory(), path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def _joined_csv(traj):
    # the file as one joined string of every row's repr line
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(map(repr, row[:len(CSV_COLUMNS)].tolist())) for row in traj.records]
    return ("\n".join(lines) + "\n").encode()


def test_csv_streams_its_rows_and_writes_the_joined_bytes(tmp_path):
    # 20 001 records, a record per step of a march of 2 time units at dt 1e-4: the
    # whole file is about 6 MB as one string, and its lines take several times that
    rng = np.random.default_rng(22)
    scales = 10.0 ** rng.integers(-300, 300, (20001, 1))
    table = rng.standard_normal((20001, len(COLUMNS))) * scales
    residuals = slice(COLUMNS.index("energy_residual"), COLUMNS.index("area"))
    table[[0, -1], residuals] = math.nan           # the end rows have no Simpson stencil
    table[:, COLUMNS.index("area")] = math.nan     # a scalar-flow run has no curve
    table[1, :3] = (0.0, -0.0, math.inf)
    traj = FlowTrajectory(records=table)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(traj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert path.read_bytes() == _joined_csv(traj)
    # the end rows' two residuals, and every area
    assert path.read_text().count("nan") == 2 * 2 + len(table)
    empty = FlowTrajectory()
    write_csv(empty, path)
    assert path.read_bytes() == _joined_csv(empty) == (",".join(CSV_COLUMNS) + "\n").encode()


def test_csv_columns_and_row_count(tmp_path):
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3, n=64))
    traj = evolve(state, 0.02, 1e-3, record_stride=4)
    path = tmp_path / "run.csv"
    write_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,L,E,phi_min,phi_max,mean_phi,H1,H2,H3,H4,energy_residual,h1_residual,area"
    assert len(lines) == 1 + (1 + 20 // 4)
    first = lines[1].split(",")
    assert len(first) == 13
    assert float(first[0]) == 0.0
    # full double precision round-trips
    assert float(first[1]) == traj.column("L")[0]


def test_csv_full_precision_roundtrip(tmp_path):
    state = CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3, n=64))
    traj = evolve(state, 0.01, 1e-3, record_stride=5)
    path = tmp_path / "run.csv"
    write_csv(traj, path)
    rows = path.read_text().strip().split("\n")[1:]
    for row, L, E in zip(rows, traj.column("L"), traj.column("E")):
        vals = [float(x) for x in row.split(",")]
        assert vals[1] == L and vals[2] == E


def test_report_schema(tmp_path):
    verdicts = [Verdict("demo", True, 1.0, 2.0, 0.5, context="ctx")]
    path = tmp_path / "report.json"
    write_report("scene", verdicts, path, extra={"seed": 1})
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "scene"
    assert payload["seed"] == 1
    assert payload["verdicts"][0] == {"name": "demo", "passed": True, "measured": 1.0,
                                      "bound": 2.0, "tolerance": 0.5, "context": "ctx"}


def test_report_error_block(tmp_path):
    path = tmp_path / "report.json"
    write_report("scene", [], path, error={"type": "BlowUp", "time": 0.5})
    payload = json.loads(path.read_text())
    assert payload["error"]["type"] == "BlowUp"


def test_svg_contents(tmp_path):
    path = tmp_path / "curve.svg"
    write_svg(origin_ellipse(1, 1), path)
    text = path.read_text()
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
                           'viewBox="0 0 480 480">\n<rect width="480" height="480" ')
    assert text.count("<path") == 1
    assert text.count("Z\"") == 1
    assert "<line" in text  # origin marker
    q, _ = fit_origin_ellipse(origin_ellipse(1, 1).points)
    write_svg(origin_ellipse(1, 1), path, fitted_form=q)
    assert path.read_text().count("<path") == 2


def test_svg_skips_indefinite_fit(tmp_path):
    path = tmp_path / "curve.svg"
    write_svg(origin_ellipse(1, 1), path, fitted_form=np.diag([1.0, -1.0]))
    assert path.read_text().count("<path") == 1
