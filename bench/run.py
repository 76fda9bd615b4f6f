"""Benchmark of the centroflow lab, end to end (untraced) or layer by layer (traced).

    python3 bench/run.py --workload curve-converge --seed 1 --seconds 5 --trace 0

Workloads (see README.md): curve-converge, scalar-records, invariant-sweep.
A run sets up its seeded inputs, repeats whole rounds of operations until
--seconds have passed (at least one round), checks every output against
checks.py, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 runs traced rounds and reports the per-layer metrics.
Every round runs with the host clock of hostclock.py, whose calibration
time is taken out of every timing and is the unit of wall_cal. Run
records, with the spans of a traced run and the clock's samples, go to
bench/.runs/.
"""

import os

# The lab is single-threaded numpy. BLAS is held to one thread, before numpy
# loads, so that a run uses one core; the setup probes inherit the limit.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import lab  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
RUNS = BENCH / ".runs"
SETUP_PROBES = 11

END_TO_END = {
    "setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spectral.transforms_per_step": "count", "spectral.transforms_per_curve": "count",
    "spectral.self_s": "s",
    "curve.validations_per_step": "count", "curve.validations_per_curve": "count",
    "curve.self_s": "s",
    "invariants.metric_curvature_us": "us", "invariants.metric_curvature_calls": "count",
    "invariants.centro_affine_us": "us", "invariants.phi_from_mu_us": "us",
    "invariants.self_s": "s",
    "curve_flow.step_us": "us", "curve_flow.stage_us": "us",
    "curve_flow.stage_calls_per_step": "count", "curve_flow.self_s": "s",
    "curvature_flow.step_us": "us", "curvature_flow.rhs_us": "us",
    "curvature_flow.state_builds_per_step": "count", "curvature_flow.self_s": "s",
    "trajectory.record_us": "us", "trajectory.records": "count",
    "trajectory.finalize_s": "s",
    "io.write_s": "s", "io.bytes_written": "B",
    "diagnostics.verdicts_s": "s", "diagnostics.verdicts": "count",
    "scenario.build_s": "s", "scenario.self_s": "s",
    "trace.overhead_s": "s",
    "host.cal_us": "us",
}
# relative tolerance of 2 (L(T) - L(0)) against the trapezoid of the recorded E;
# records one step apart miss it by 3.5e-7, the error of the trapezoid rule
ENERGY_RATE_RTOL = 1e-5
# sweep tolerances, absolute on L (about 2 pi) and sup-norm on phi; the worst
# gaps seen over six seeds were 1.8e-15 and 5.6e-11 (cross formula at N = 64)
SWEEP_L_TOL = 1e-11
SWEEP_PHI_TOL = 1e-9


class Run:
    """Counts and problems of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(f"FAILED {what}")
        print(f"FAILED {what}", file=sys.stderr)

    def wrong(self, what: str) -> None:
        self.correct = False
        self.problems.append(f"WRONG {what}")
        print(f"WRONG {what}", file=sys.stderr)


def rounds_for(seconds: float, do_round) -> list:
    """Whole rounds until `seconds` have passed, at least one; returns their results."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(do_round())
        if time.perf_counter() - start >= seconds:
            return results


# ------------------------------------------------------------------- march

class March:
    def __init__(self, cf, ops, run, clock):
        self.cf, self.ops, self.run, self.clock = cf, ops, run, clock
        self.capture = lab.Capture(cf)
        self.capture.install()
        self.expected = checks.m3_invariants(lab.MARCH_N, lab.M3_AMPLITUDE, lab.M3_MODE)
        self.ops_per_round = len(ops)

    def round(self, tracer=None):
        """Each scenario run once: (wall time of each, bytes written), or None if one raised."""
        walls, written, raised = [], 0, False
        for op in self.ops:
            name = op.spec["name"]
            shutil.rmtree(op.out_dir, ignore_errors=True)
            self.run.attempted += 1
            if tracer:
                tracer.install()
            t0 = self.clock.now()
            try:
                code = lab.march_op(self.cf, op)
            except Exception as exc:  # a failing operation is counted; the run goes on
                self.run.fail(f"{name}: {type(exc).__name__}: {exc}")
                raised = True
                continue
            finally:
                walls.append(self.clock.now() - t0)
                if tracer:
                    tracer.uninstall()
            if code != 0:
                report = json.loads((op.out_dir / f"{name}.report.json").read_text())
                self.run.fail(f"{name}: run_scenario returned {code}; failed verdicts "
                              f"{[v['name'] for v in report['verdicts'] if not v['passed']]}")
            try:
                self.check(op)
            except checks.CheckFailed as exc:
                self.run.wrong(f"{name}: {exc}")
            written += sum(f.stat().st_size for f in op.out_dir.rglob("*") if f.is_file())
            print(f"{name}: exit {code}, {walls[-1]:.4f} s, march {self.capture.march_s:.4f} s")
        return None if raised else (walls, written)

    def check(self, op):
        c, spec, out = checks, op.spec, op.out_dir
        report = json.loads((out / f"{spec['name']}.report.json").read_text())
        required = c.MARCH_VERDICTS + (("convergence_to_ellipse",)
                                       if spec["check_convergence"] else ())
        c.check_report(report, required, spec.get("known_failures", ()))
        cols = c.read_csv_columns(out / f"{spec['name']}.csv")
        c.check_row_count(cols, op.steps // spec["record_stride"] + 1)
        c.check_initial_row(cols, self.expected)
        c.check_perimeter_column(cols["L"])
        # the trapezoid's error grows with the square of the record spacing
        c.check_energy_rate(cols["t"], cols["L"], cols["E"],
                            ENERGY_RATE_RTOL * spec["record_stride"] ** 2)
        c.check_maximum_principle(cols["phi_min"], cols["phi_max"],
                                  self.expected["phi_min"], self.expected["phi_max"])
        if spec["check_convergence"]:
            c.check_origin_ellipse(self.capture.trajectory.final.physical_curve.points)


# ------------------------------------------------------------------- sweep

class Sweep:
    def __init__(self, cf, items, run, clock):
        self.cf, self.items, self.run, self.clock = cf, items, run, clock
        self.ops_per_round = len(items)
        self._recentred_L = {}

    def round(self, tracer=None):
        """One pass over the seeded curves: (wall time of each, 0), or None if one raised."""
        cf, op, now = self.cf, lab.sweep_op, self.clock.now
        outs, walls = [], []
        self.run.attempted += len(self.items)
        if tracer:
            tracer.install()
        for item in self.items:
            t0 = now()
            try:
                outs.append(op(cf, item))
            except Exception as exc:  # a failing operation is counted; the run goes on
                outs.append(exc)
            walls.append(now() - t0)
        if tracer:
            tracer.uninstall()
        failures = [(i, o) for i, o in enumerate(outs) if isinstance(o, Exception)]
        for i, exc in failures:
            self.run.fail(f"sweep curve {i} ({self.items[i].kind}, N={self.items[i].n}): "
                          f"{type(exc).__name__}: {exc}")
        try:
            self.check(outs)
        except checks.CheckFailed as exc:
            self.run.wrong(f"sweep: {exc}")
        return None if failures else (walls, 0)

    def check(self, outs):
        c = checks
        for i, (item, out) in enumerate(zip(self.items, outs)):
            if isinstance(out, Exception):
                continue
            curve, field, phi_mu, (mean_zero, iso) = out
            where = f"curve {i} ({item.kind}, N={item.n})"
            L = c.TWO_PI * float(field.g.mean())
            c.require(mean_zero.passed, f"{where}: mean_zero verdict failed")
            c.require(iso.passed == (L <= c.TWO_PI + c.ISOPERIMETRIC_SLACK),
                      f"{where}: isoperimetric verdict {iso.passed} at L = {L!r}")
            c.check_phi_agrees(field.phi, phi_mu, f"{where}: centro_affine vs phi_from_mu",
                               SWEEP_PHI_TOL)
            if item.kind == "shifted_ellipse":
                c.require_close(f"{where}: L", L, c.shifted_ellipse_perimeter(**item.params),
                                SWEEP_L_TOL)
            elif item.kind == "origin_ellipse":
                c.require_close(f"{where}: L", L, c.TWO_PI, SWEEP_L_TOL)
                c.check_phi_agrees(field.phi, 0.0 * field.phi, f"{where}: phi", SWEEP_PHI_TOL)
            elif item.kind == "image" and not isinstance(outs[item.base], Exception):
                base_field = outs[item.base][1]
                c.require_close(f"{where}: L under A", L,
                                c.TWO_PI * float(base_field.g.mean()), SWEEP_L_TOL)
                c.check_phi_agrees(field.phi, base_field.phi, f"{where}: phi under A",
                                   SWEEP_PHI_TOL)
            if i not in self._recentred_L:
                points = curve.points - c.area_centroid(curve.points)
                g = self.cf.centro_affine(self.cf.ClosedCurve(points)).g
                self._recentred_L[i] = c.TWO_PI * float(g.mean())
            c.check_isoperimetric_about_centroid(self._recentred_L[i])


# ------------------------------------------------------------------- setup

def setup_seconds(workload: str, seed: int) -> list:
    """Wall times of SETUP_PROBES fresh-process set-ups of this workload."""
    times = []
    for i in range(SETUP_PROBES):
        workdir = RUNS / f"probe-{os.getpid()}-{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
                        str(workdir)], check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
    return times


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(lab.ROOT),
        "thread_limits": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads": threading.active_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in lab.WORKLOADS:
        parser.error(f"--workload must be one of {lab.WORKLOADS}")
    try:
        cf = lab.load_centroflow()
    except lab.LabMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{tag}-{os.getpid()}"
    run = Run()
    clock = HostClock()
    try:
        setup_s = [] if args.trace else setup_seconds(args.workload, args.seed)
        inputs = lab.setup(args.workload, args.seed, workdir, cf)
        if args.workload in lab.MARCHES:
            bench = March(cf, inputs, run, clock)
        else:
            bench = Sweep(cf, inputs, run, clock)
            bench.round()  # warm-up: first calls, caches; checked, not timed
        env = environment()
        print(json.dumps({"environment": env}))

        # a traced run's spans read the clock's time too, so no sample lands in a span
        tracer = Tracer(clock=clock.now) if args.trace else None
        clock.start()
        rounds = rounds_for(args.seconds, lambda: bench.round(tracer))
        clock.stop()
        rounds = [r for r in rounds if r is not None]
        if not rounds:
            print("no round completed", file=sys.stderr)
            return 1
        round_s = [sum(w) for w, _ in rounds]
        if tracer:
            metrics = layer_metrics(tracer, rounds, bench.ops_per_round)
            metrics["host.cal_us"] = 1e6 * clock.mean_s()
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "wall_cal": statistics.fmean(round_s) / clock.mean_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"environment": env, **result, "problems": run.problems,
              "setup_probes_s": setup_s, "round_s": round_s, "cal_s": clock.samples}
    if tracer is not None:
        record["spans"] = tracer.dump()
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"attempted {run.attempted} operations, {run.failed} failed, "
          f"outputs {'correct' if run.correct else 'WRONG'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
