"""File formats: curve JSON, trajectory CSV, SVG snapshots, verdict reports.

The curve file is a JSON object {"name": str, "points": [[x, y], ...]}
interpreted as uniform periodic samples. The CSV columns are
trajectory.CSV_COLUMNS, written at full double precision (shortest
round-trip repr), so identical runs produce byte-identical files.
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .curve import ClosedCurve
from .trajectory import CSV_COLUMNS, FlowTrajectory


def read_curve_json(path) -> ClosedCurve:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or "points" not in payload:
        raise ValueError(f"{path}: expected an object with a 'points' array")
    try:
        return ClosedCurve(np.asarray(payload["points"], dtype=float),
                           name=str(payload.get("name", path.stem)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_curve_json(curve: ClosedCurve, path) -> None:
    path = Path(path)
    payload = {"name": curve.name, "points": [[float(x), float(y)] for x, y in curve.points]}
    path.write_text(json.dumps(payload))


def write_csv(traj: FlowTrajectory, path) -> None:
    """One line per record, its CSV_COLUMNS prefix; header always present, so an
    empty trajectory yields a header-only file. The lines are streamed to the
    file one row at a time, so the whole file is never held in memory."""
    width = len(CSV_COLUMNS)
    with Path(path).open("w") as out:
        out.write(",".join(CSV_COLUMNS) + "\n")
        out.writelines(",".join(map(repr, row[:width].tolist())) + "\n"
                       for row in traj.records)


def write_report(scenario_name: str, verdicts, path, *, error: dict | None = None,
                 extra: dict | None = None) -> None:
    """JSON report: {"scenario": ..., "verdicts": [...]} plus optional error/extras."""
    payload = {"scenario": scenario_name,
               "verdicts": [asdict(v) for v in verdicts]}
    if extra:
        payload.update(extra)
    if error is not None:
        payload["error"] = error
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_svg(curve: ClosedCurve, path, *, fitted_form: np.ndarray | None = None) -> None:
    """Closed polyline with the origin marked; optional fitted-ellipse overlay.

    The fitted form is the SPD matrix Q of the locus C^T Q C = 1. The y axis
    is flipped so the geometry appears in the usual orientation.
    """
    size = 480  # the picture's width and height
    pts = curve.points
    span = float(np.abs(pts).max()) * 1.15
    span = max(span, 1e-12)

    def sx(x):
        return (x / span * 0.5 + 0.5) * size

    def sy(y):
        return (-y / span * 0.5 + 0.5) * size

    def path_of(samples):
        coords = " L ".join(f"{sx(x):.3f} {sy(y):.3f}" for x, y in samples)
        return f"M {coords} Z"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<path d="{path_of(pts)}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    if fitted_form is not None:
        # map the unit circle through Q^(-1/2) to draw the locus C^T Q C = 1
        vals, vecs = np.linalg.eigh(np.asarray(fitted_form, dtype=float))
        if np.all(vals > 0):
            root_inv = vecs @ np.diag(vals**-0.5) @ vecs.T
            theta = np.linspace(0.0, 2.0 * np.pi, 181)
            ring = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ root_inv.T
            parts.append(f'<path d="{path_of(ring)}" fill="none" stroke="red" '
                         f'stroke-width="1" stroke-dasharray="6 4"/>')
    ox, oy = sx(0.0), sy(0.0)
    parts.append(f'<line x1="{ox - 6:.3f}" y1="{oy:.3f}" x2="{ox + 6:.3f}" y2="{oy:.3f}" '
                 f'stroke="blue" stroke-width="1"/>')
    parts.append(f'<line x1="{ox:.3f}" y1="{oy - 6:.3f}" x2="{ox:.3f}" y2="{oy + 6:.3f}" '
                 f'stroke="blue" stroke-width="1"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
