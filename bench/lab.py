"""The lab under test, its seeded inputs and one operation of each workload.

centroflow is imported from the `src/` directory of the checkout this file
sits in, never from an installed copy. The seed reaches the program only
through the inputs made here: the curve and scenario files of a march, and
the curves of the sweep.
"""

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("curve-converge", "scalar-records", "invariant-sweep")

# The m3 curve: radius 1 + 0.05 cos 3p, centroid at the origin.
M3_AMPLITUDE = 0.05
M3_MODE = 3
# Condition-number bound of the seeded maps A: the flow commutes with A, so
# the work per run does not depend on the seed.
MAX_COND = 4.0

# Operations of the march workloads, run in this order in every round.
#
# curve-converge pairs two scenario runs of the curve flow. "march" starts
# from the seeded image A m3 and keeps a record every step to t = 0.2. There
# every verdict holds for every map: the h1_identity residual after t = 0.01
# is 1.6e-5 for all of 60 seeds. Later the roundoff that the march leaves in
# the sampled image reaches H2, and h1_identity fails from t = 0.38 for some
# maps (2 of the first 17 seeds), though the m3 curve itself passes to t = 8.
# "converge" is the limit run: the m3 curve itself, a record every 10 steps,
# t_end = 4.8 and check_convergence. Its convergence verdict first passes
# near t = 4.65 (fit residual 9.8e-7 against 1e-6), but the run exits 2
# every time: with records 1e-3 apart, the centred differences behind
# energy_identity, h1_identity and L_monotone_energy_rate miss 1e-4 (1.7e-3,
# 5.8e-3 and 1.4e-4 by t = 0.1). A record every step would pass them, at
# about 1.5 times the cost, which would push a traced run (one untraced and
# one traced round) to three minutes. The inputs do not depend on the seed,
# so the run fails in every round and run alike; it is counted in `failed`,
# and its outputs are still checked.
MARCHES = {
    "curve-converge": (
        {"name": "march", "seeded": True, "flow": "curve", "t_end": 0.2,
         "record_stride": 1, "check_convergence": False, "svg": True},
        {"name": "converge", "seeded": False, "flow": "curve", "t_end": 4.8,
         "record_stride": 10, "check_convergence": True, "svg": True,
         "known_failures": ("energy_identity", "h1_identity", "L_monotone_energy_rate")},
    ),
    "scalar-records": (
        {"name": "records", "seeded": True, "flow": "curvature", "t_end": 0.05,
         "record_stride": 1, "check_convergence": False, "svg": False},
    ),
}
MARCH_N = 256
MARCH_DT = 1e-4

SWEEP_NS = (64, 256, 1024)
# The mix per N follows criterion 3 of tests/test_acceptance.py (100
# random_star_convex stars, 3 origin and 1 shifted ellipse, all at N = 512)
# and the star sweep of criterion 2 (100 stars and 1 shifted ellipse): almost
# all stars, and enough ellipses to keep their closed-form oracles.
SWEEP_STARS = 24      # random_star_convex per N
SWEEP_SHIFTED = 1     # shifted ellipses per N, origin at most half-way to the rim
SWEEP_ORIGIN = 1      # origin-centred ellipses per N
# GL+(2) images per N, each of the first base curve of its kind: one star and
# the shifted ellipse, so that the invariance check covers both
SWEEP_IMAGES_OF = ("random_star_convex", "shifted_ellipse")


class LabMissing(RuntimeError):
    """The checkout holds no importable centroflow under src/."""


def load_centroflow():
    """Import centroflow from this checkout's src/ and return the package."""
    if not (SRC / "centroflow" / "__init__.py").is_file():
        raise LabMissing(f"no centroflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import centroflow
    origin = Path(centroflow.__file__).resolve()
    if SRC not in origin.parents:
        raise LabMissing(f"centroflow was imported from {origin}, not from {SRC}")
    return centroflow


# ---------------------------------------------------------------- inputs

def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def draw_sl2(rng: np.random.Generator, max_cond: float = MAX_COND) -> np.ndarray:
    """R(a) diag(s, 1/s) R(b) with s^2 uniform in [1, max_cond]: det 1, cond <= max_cond."""
    s = math.sqrt(rng.uniform(1.0, max_cond))
    return rotation(rng.uniform(0.0, 2 * math.pi)) @ np.diag([s, 1.0 / s]) @ rotation(
        rng.uniform(0.0, 2 * math.pi))


def draw_glplus(rng: np.random.Generator) -> np.ndarray:
    """A seeded SL(2) map times a scale in [0.5, 2]: det > 0."""
    return rng.uniform(0.5, 2.0) * draw_sl2(rng)


def grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def m3_points(n: int) -> np.ndarray:
    p = grid(n)
    r = 1.0 + M3_AMPLITUDE * np.cos(M3_MODE * p)
    return np.stack([r * np.cos(p), r * np.sin(p)], axis=1)


@dataclass
class MarchOp:
    """One scenario run of a march workload: its spec and its files."""

    spec: dict
    scenario_path: Path
    out_dir: Path

    @property
    def steps(self) -> int:
        return round(self.spec["t_end"] / MARCH_DT)


@dataclass
class SweepItem:
    """One curve of the sweep: a preset call, or the points of a GL+(2) image."""

    n: int
    kind: str
    params: dict = field(default_factory=dict)
    points: np.ndarray | None = None     # images only
    base: int | None = None              # index of the curve it is an image of


def setup(workload: str, seed: int, workdir: Path, cf=None):
    """Make a workload's inputs from its seed; what a run does before its first operation."""
    if cf is None:
        cf = load_centroflow()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload in MARCHES:
        return _setup_march(cf, workload, rng, Path(workdir))
    if workload == "invariant-sweep":
        return _setup_sweep(cf, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _setup_march(cf, workload, rng, workdir):
    ops = []
    for spec in MARCHES[workload]:
        opdir = workdir / spec["name"]
        opdir.mkdir(parents=True, exist_ok=True)
        if spec["seeded"]:
            points = m3_points(MARCH_N) @ draw_sl2(rng).T
            curve = opdir / "curve.json"
            curve.write_text(json.dumps(
                {"name": "m3", "points": [[float(x), float(y)] for x, y in points]}))
            curve = str(curve)
        else:
            curve = {"kind": "perturbed_ellipse", "a": 1.0, "b": 1.0,
                     "amplitude": M3_AMPLITUDE, "mode": M3_MODE}
        scenario = {
            "name": spec["name"],
            "curve": curve,
            "N": MARCH_N,
            "dt": MARCH_DT,
            "t_end": spec["t_end"],
            "lambda": 0.0,
            "flow": spec["flow"],
            "normalization": "unit_area_scale",
            "record_stride": spec["record_stride"],
            "check_convergence": spec["check_convergence"],
            "outputs": {"csv": f"{spec['name']}.csv", "report": f"{spec['name']}.report.json",
                        **({"svg_dir": "svg"} if spec["svg"] else {})},
        }
        path = opdir / "scenario.json"
        path.write_text(json.dumps(scenario, indent=2))
        # the config must parse and its curve must build before the first round
        cf.ScenarioConfig.from_json(path).build_curve()
        ops.append(MarchOp(spec, path, opdir / "out"))
    return ops


def _setup_sweep(cf, rng):
    items = []
    for n in SWEEP_NS:
        bases = []
        for _ in range(SWEEP_STARS):
            bases.append(SweepItem(n, "random_star_convex",
                                   {"seed": int(rng.integers(2**31))}))
        for _ in range(SWEEP_SHIFTED):
            a, b = rng.uniform(0.5, 2.0, 2)
            d, theta = rng.uniform(0.05, 0.5), rng.uniform(0.0, 2 * math.pi)
            bases.append(SweepItem(n, "shifted_ellipse", {
                "a": float(a), "b": float(b),
                "x0": float(a * d * math.cos(theta)), "y0": float(b * d * math.sin(theta))}))
        for _ in range(SWEEP_ORIGIN):
            a, b = rng.uniform(0.5, 2.0, 2)
            bases.append(SweepItem(n, "origin_ellipse", {"a": float(a), "b": float(b)}))
        first = len(items)
        items += bases
        for kind in SWEEP_IMAGES_OF:
            base = next(i for i in range(first, len(items)) if items[i].kind == kind)
            points = cf.preset(kind, n=n, **items[base].params).points @ draw_glplus(rng).T
            items.append(SweepItem(n, "image", points=points, base=base))
    return items


# ------------------------------------------------------------ operations

class Capture:
    """Keeps the trajectory and march time of the latest call to either flow's evolve.

    Installed by rebinding `evolve` on the flow modules, which is where
    scenario.run_scenario looks it up; one extra Python call per scenario.
    """

    def __init__(self, cf):
        import centroflow.curvature_flow as scalar
        import centroflow.curve_flow as curve
        self._modules = (curve, scalar)
        self._saved = [(m, m.evolve) for m in self._modules]
        self.trajectory = None
        self.march_s = math.nan

    def install(self):
        for module, original in self._saved:
            module.evolve = self._wrap(original)

    def _wrap(self, evolve):
        def captured(*args, **kwargs):
            t0 = time.perf_counter()
            traj = evolve(*args, **kwargs)
            self.march_s = time.perf_counter() - t0
            self.trajectory = traj
            return traj
        return captured


def march_op(cf, op: MarchOp) -> int:
    """One scenario run, as `centroflow evolve` does it: parse, then run."""
    config = cf.ScenarioConfig.from_json(op.scenario_path)
    return cf.run_scenario(config, out_dir=op.out_dir)


def sweep_op(cf, item: SweepItem):
    """Build one curve, extract its invariants both ways, and take its two verdicts."""
    if item.kind == "image":
        curve = cf.ClosedCurve(item.points, name="image")
    else:
        curve = cf.preset(item.kind, n=item.n, **item.params)
    field_ = cf.centro_affine(curve)
    phi_mu = cf.phi_from_mu(curve)
    verdicts = (cf.diagnostics.check_mean_zero(field_),
                cf.diagnostics.check_isoperimetric(field_))
    return curve, field_, phi_mu, verdicts
