"""Scenario configuration, execution and batch sweeps.

A scenario is one JSON document; _FIELD_TYPES is its exact field set and
ScenarioConfig holds every default. run_scenario executes the configured flow(s), the verdict suite
and all emissions. Exit codes: 0 all verdicts passed, 1 configuration error
or inadmissible initial curve (reported), 2 verdict failure, 3 flow failure
(failure time lands in the report).
"""

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from . import curvature_flow, curve_flow, diagnostics
from .curve import ClosedCurve, preset
from .errors import GEOMETRY_ERRORS, MARCH_ERRORS, CentroflowError, ConfigError
from .invariants import centro_affine
from .io import read_curve_json, write_csv, write_report, write_svg
from .trajectory import plan_steps

ENV_OUTDIR = "CENTROFLOW_OUTDIR"
FLOWS = ("curvature", "curve", "both")

_FIELD_TYPES = {
    "name": str,
    "curve": (dict, str),
    "N": int,
    "dt": (int, float),
    "t_end": (int, float),
    "lambda": (int, float),
    "flow": str,
    "normalization": str,
    "record_stride": int,
    "check_convergence": bool,
    "snapshot_stride": int,
    "outputs": dict,
}
_OUTPUT_TYPES = {"csv": str, "report": str, "svg_dir": str}
# JSON names that differ from the ScenarioConfig attribute they set
_RENAMED = {"N": "n", "lambda": "lam", "csv": "csv_path", "report": "report_path"}
_FLOATS = ("dt", "t_end", "lam")  # echoed in the report, so 1 is read as 1.0


def _check_fields(path, raw: dict, types: dict, prefix: str = "") -> None:
    """ConfigError naming the file and the field for an unknown, mistyped or non-finite field."""
    for key, value in raw.items():
        expected = types.get(key)
        if expected is None:
            raise ConfigError(f"{path}: unknown field {prefix + key!r}")
        if (isinstance(value, bool) and expected is not bool) or not isinstance(value, expected):
            raise ConfigError(f"{path}: field {prefix + key!r} has wrong type")
        if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
            raise ConfigError(f"{path}: field {prefix + key!r} must be finite")


def read_curve_file(path) -> ClosedCurve:
    """read_curve_json, with a missing or malformed file a ConfigError naming the file."""
    try:
        return read_curve_json(path)
    except OSError as exc:
        raise ConfigError(f"curve file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # read_curve_json names the file
        raise ConfigError(f"curve file {exc}") from exc


@dataclass
class ScenarioConfig:
    name: str
    curve: dict | str           # preset spec {"kind": ..., params} or path to curve JSON
    n: int = 256
    dt: float = 1e-4
    t_end: float = 1.0
    lam: float = 0.0
    flow: str = "curvature"
    normalization: str = "unit_area_scale"
    record_stride: int = 1
    check_convergence: bool = False
    csv_path: str | None = None
    report_path: str | None = None
    svg_dir: str | None = None
    snapshot_stride: int = 0

    def validate(self) -> "ScenarioConfig":
        if self.name in ("", ".", "..") or Path(self.name).name != self.name:
            raise ConfigError(f"field 'name' must be a plain file stem, got {self.name!r}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        try:
            plan_steps(0.0, self.t_end, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.n < 16 or self.n % 2:
            raise ConfigError("N must be even and >= 16")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride must be >= 0")
        if self.flow not in FLOWS:
            raise ConfigError(f"flow must be one of {FLOWS}")
        if self.normalization not in curve_flow.NORMALIZATIONS:
            raise ConfigError(f"normalization must be one of {curve_flow.NORMALIZATIONS}")
        if self.check_convergence and self.flow == "curvature":
            raise ConfigError("check_convergence needs curve samples: use flow 'curve' or 'both'")
        return self

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
            raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _check_fields(path, raw, _FIELD_TYPES)
        outputs = raw.get("outputs", {})
        _check_fields(path, outputs, _OUTPUT_TYPES, prefix="outputs.")
        for required in ("name", "curve"):
            if required not in raw:
                raise ConfigError(f"{path}: missing required field {required!r}")
        given = {_RENAMED.get(key, key): value
                 for key, value in (*raw.items(), *outputs.items()) if key != "outputs"}
        given.update({key: float(given[key]) for key in _FLOATS if key in given})
        if isinstance(given["curve"], str):  # a curve file path is relative to the scenario file
            given["curve"] = str(path.parent / given["curve"])
        cfg = cls(**given)
        try:
            return cfg.validate()
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def build_curve(self) -> ClosedCurve:
        if isinstance(self.curve, str):
            curve = read_curve_file(self.curve)
            if curve.n != self.n:
                raise ConfigError(f"curve file {self.curve}: {curve.n} samples, but N is {self.n}")
            return curve
        spec = dict(self.curve)
        kind = spec.pop("kind", None)
        if kind is None:
            raise ConfigError("curve spec needs a 'kind' field")
        try:
            return preset(kind, n=self.n, **spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"curve spec invalid: {exc}") from exc


def _resolve(configured, default_dir: Path, fallback: str) -> Path:
    p = Path(configured) if configured else Path(fallback)
    if not p.is_absolute():
        p = default_dir / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def run_scenario(config: ScenarioConfig, out_dir=None, *, verdicts_only: bool = False,
                 printer=None) -> int:
    """Execute one scenario end to end; returns the process exit status.

    verdicts_only suppresses CSV/SVG emission (the report is always written).
    printer, when given, receives one line per verdict.
    """
    default_dir = Path(out_dir or os.environ.get(ENV_OUTDIR, "."))
    report_path = _resolve(config.report_path, default_dir, f"{config.name}.report.json")
    extra = {"flow": config.flow, "dt": config.dt, "t_end": config.t_end, "lambda": config.lam}

    try:
        curve0 = config.build_curve()
        field0 = centro_affine(curve0)
    except (ConfigError,) + GEOMETRY_ERRORS as exc:
        write_report(config.name, [], report_path,
                     error={"type": type(exc).__name__, "message": str(exc), "time": 0.0},
                     extra=extra)
        if isinstance(exc, ConfigError):
            raise  # the caller prints it and exits 1
        if printer:
            printer(f"INADMISSIBLE CURVE {type(exc).__name__}: {exc}")
        return 1
    verdicts = [diagnostics.check_mean_zero(field0),
                diagnostics.check_isoperimetric(field0)]

    svgs = bool(config.svg_dir) and not verdicts_only
    snapshots = []  # (t, physical_curve) every snapshot_stride curve steps, for the SVGs

    def keep_snapshot(i, current):
        if i % config.snapshot_stride == 0:
            snapshots.append((current.t, current.physical_curve))

    scalar_traj = curve_traj = None
    try:
        if config.flow in ("curvature", "both"):
            state = curvature_flow.CurvatureFlowState.from_field(field0)
            scalar_traj = curvature_flow.evolve(
                state, config.t_end, config.dt, record_stride=config.record_stride)
        if config.flow in ("curve", "both"):
            state = curve_flow.CurveFlowState(
                t=0.0, curve=curve0, lam=config.lam, normalization=config.normalization)
            curve_traj = curve_flow.evolve(
                state, config.t_end, config.dt, record_stride=config.record_stride,
                observer=keep_snapshot if svgs and config.snapshot_stride > 0 else None)
    except MARCH_ERRORS as exc:
        write_report(config.name, verdicts, report_path,
                     error={"type": type(exc).__name__, "message": str(exc),
                            "time": exc.time}, extra=extra)
        if printer:
            printer(f"FLOW ERROR {type(exc).__name__} at t={exc.time}")
        return 3

    primary = curve_traj if curve_traj is not None else scalar_traj
    verdicts.append(diagnostics.check_curvature_bounds(
        primary, float(field0.phi.min()), float(field0.phi.max())))
    verdicts.extend(diagnostics.check_energy_identities(primary))
    verdicts.extend(diagnostics.check_monotone_L_and_integralE(primary))
    verdicts.append(diagnostics.check_sobolev_bounded(primary))

    # the verdicts are scale-free, so they read the stored curve, not the reported scale
    final_curve = curve_traj.final.curve if curve_traj is not None else None
    if config.check_convergence and final_curve is not None:
        verdicts.append(diagnostics.check_convergence_to_ellipse(final_curve))
    if config.flow == "both":
        verdicts.append(diagnostics.check_flow_equivalence(curve_traj, scalar_traj))

    if not verdicts_only:
        write_csv(primary, _resolve(config.csv_path, default_dir, f"{config.name}.csv"))
        if svgs:
            _emit_svgs(_resolve(None, default_dir, config.svg_dir), config, curve0, curve_traj,
                       snapshots)
    write_report(config.name, verdicts, report_path, extra=extra)
    if printer:
        for v in verdicts:
            printer(diagnostics.verdict_line(v))
    return 0 if all(v.passed for v in verdicts) else 2


def _emit_svgs(svg_dir: Path, config, curve0, curve_traj, snapshots) -> None:
    svg_dir.mkdir(parents=True, exist_ok=True)
    write_svg(curve0, svg_dir / f"{config.name}.initial.svg")
    if curve_traj is not None:
        for t, snap in snapshots:
            write_svg(snap, svg_dir / f"{config.name}.t{t:.6f}.svg")
        final_curve = curve_traj.final.physical_curve
        form, residual = diagnostics.fit_origin_ellipse(final_curve.points)
        fitted = form if residual < 1e-3 else None
        write_svg(final_curve, svg_dir / f"{config.name}.final.svg", fitted_form=fitted)


def run_scenario_file(path, config: ScenarioConfig, out_dir=None, *,
                      verdicts_only: bool = False, printer=None) -> int:
    """run_scenario on config, read from the scenario file at path, as a single run and
    a sweep run it. A preset spec's ConfigError is prefixed with path; a curve file's,
    which names the curve file, is raised as it is.
    """
    try:
        return run_scenario(config, out_dir, verdicts_only=verdicts_only, printer=printer)
    except ConfigError as exc:
        if isinstance(config.curve, str):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def run_sweep(directory, out_dir=None, *, verdicts_only: bool = False, printer=None) -> int:
    """Run every *.json scenario in the directory, one file after another in name order.

    Each file is parsed and run as `centroflow evolve|verify <file>` would run
    it, so a malformed file gets exit 1 (its error, which names the file, goes
    to the printer) while the others still run. The printer gets one
    "name: exit k" line per file as it ends. Returns the worst exit status.
    """
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario files in {directory}")
    worst = 0
    for path in paths:
        config, error = None, None
        try:
            config = ScenarioConfig.from_json(path)
            code = run_scenario_file(path, config, out_dir, verdicts_only=verdicts_only)
        except ConfigError as exc:  # each names its file
            code, error = 1, f"config error: {exc}"
        except (CentroflowError, ValueError, OSError) as exc:  # exit 3, as cli.main has it
            code, error = 3, f"error: {type(exc).__name__}: {exc}"
        if printer:
            if error:
                printer(error)
            printer(f"{path.stem if config is None else config.name}: exit {code}")
        worst = max(worst, code)
    return worst
