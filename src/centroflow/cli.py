"""Command-line interface.

Subcommands:
    invariants <curve.json>        print L, E, epsilon, phi extrema and the
                                   closed-curve verdicts for a stored curve
    evolve <config.json>           run one scenario with all outputs
    evolve --sweep <dir>           run every scenario in a directory, in name order
    verify <config.json>           run a scenario, verdicts/report only
    family --a0 A --b0 B --times T run the explicit-family backward-limit checks

CENTROFLOW_OUTDIR sets the default output directory.
"""

import argparse
import sys

from . import diagnostics
from .errors import GEOMETRY_ERRORS, CentroflowError, ConfigError
from .invariants import centro_affine, energy, perimeter
from .scenario import ScenarioConfig, read_curve_file, run_scenario_file, run_sweep


def _cmd_invariants(args) -> int:
    curve = read_curve_file(args.curve)
    try:
        field = centro_affine(curve)
    except GEOMETRY_ERRORS as exc:  # reported as run_scenario reports an inadmissible curve
        print(f"INADMISSIBLE CURVE {type(exc).__name__}: {exc}")
        return 1
    print(f"curve: {curve.name}  (N = {curve.n})")
    print(f"epsilon   = {field.epsilon}")
    print(f"L         = {perimeter(field)!r}")
    print(f"E         = {energy(field)!r}")
    print(f"phi_min   = {float(field.phi.min())!r}")
    print(f"phi_max   = {float(field.phi.max())!r}")
    verdicts = [diagnostics.check_mean_zero(field), diagnostics.check_isoperimetric(field)]
    for v in verdicts:
        print(diagnostics.verdict_line(v))
    return 0 if all(v.passed for v in verdicts) else 2


def _cmd_evolve(args, verdicts_only: bool = False) -> int:
    if getattr(args, "sweep", None):
        return run_sweep(args.sweep, out_dir=args.out_dir, verdicts_only=verdicts_only,
                         printer=print)
    if not args.config:
        print("error: a config file (or --sweep DIR) is required", file=sys.stderr)
        return 1
    config = ScenarioConfig.from_json(args.config)  # its errors name the file
    return run_scenario_file(args.config, config, args.out_dir, verdicts_only=verdicts_only,
                             printer=print)


def _cmd_verify(args) -> int:
    return _cmd_evolve(args, verdicts_only=True)


def _cmd_family(args) -> int:
    try:
        times = [float(x) for x in args.times.split(",")]
        verdict = diagnostics.check_backward_limit_on_family(args.a0, args.b0, times, n=args.n)
    except ValueError as exc:  # the family is closed-form: only its arguments can be wrong
        raise ConfigError(f"family: {exc}") from None
    print(diagnostics.verdict_line(verdict))
    for t in times:
        member = diagnostics.explicit_ellipse_family(args.a0, args.b0, t, n=args.n)
        area = member.enclosed_area()
        print(f"  t={t:g}: area={area!r} closed_form={diagnostics.family_area(args.a0, args.b0, t)!r}")
    return 0 if verdict.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="centroflow",
                                     description="centro-affine curve flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariants and closed-curve verdicts of a stored curve")
    p.add_argument("curve", help="path to a curve JSON file")
    p.set_defaults(func=_cmd_invariants)

    for name, helptext in (("evolve", "run a scenario (all outputs)"),
                           ("verify", "run a scenario, verdicts only")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", nargs="?", help="path to a scenario JSON file")
        p.add_argument("--sweep", metavar="DIR", help="run every *.json scenario in DIR")
        p.add_argument("--out-dir", default=None, help="output directory (default: $CENTROFLOW_OUTDIR or .)")
        p.set_defaults(func=_cmd_evolve if name == "evolve" else _cmd_verify)

    p = sub.add_parser("family", help="explicit ellipse-family checks")
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--b0", type=float, required=True)
    p.add_argument("--times", required=True, help="comma-separated decreasing times, e.g. 0,-1,-2,-4")
    p.add_argument("--n", type=int, default=256)
    p.set_defaults(func=_cmd_family)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CentroflowError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
