"""Span and count wrappers around the lab's layers, installed from outside src/.

A wrapper is installed wherever its name is looked up: every module-level
binding of the function in the centroflow package (the `from ... import`
copies in curve_flow, scenario and the package namespace included), every
module-level dict that holds it (curve._PRESETS), the class attribute for
methods, and numpy.fft for the two transforms the lab calls. Spans are kept
in memory, aggregated per (parent span, span) pair, and written out by the
caller when the run ends.

A span's self time is its duration minus the durations of its child spans;
a layer's self time is the sum of the self times of its spans.
"""

import functools
import math
import sys
import time

import numpy as np

# layer -> names traced in centroflow.<layer>; "Class.method" names a method
TRACED = {
    "spectral": ("derivative", "antiderivative", "dealias", "periodic_integral",
                 "_trimmed_spectrum"),
    "curve": ("bracket", "check_star_shaped", "check_convex", "preset", "origin_ellipse",
              "shifted_ellipse", "perturbed_ellipse", "star_convex", "random_star_convex",
              "ClosedCurve.__post_init__", "ClosedCurve.derivative",
              "ClosedCurve.enclosed_area", "ClosedCurve.scaled"),
    "invariants": ("_metric_curvature", "centro_affine", "centro_equiaffine", "phi_from_mu",
                   "xi_derivative", "perimeter", "energy"),
    "curve_flow": ("evolve", "step", "_geometry_velocity"),
    "curvature_flow": ("evolve", "step", "rhs", "CurvatureFlowState.__post_init__"),
    "trajectory": ("record_from_fields", "FlowTrajectory.finalize_residuals"),
    "io": ("read_curve_json", "write_csv", "write_report", "write_svg"),
    "diagnostics": ("check_mean_zero", "check_isoperimetric", "check_curvature_bounds",
                    "check_energy_identities", "check_monotone_L_and_integralE",
                    "check_sobolev_bounded", "check_convergence_to_ellipse",
                    "fit_origin_ellipse", "Verdict.__post_init__"),
    "scenario": ("run_scenario", "ScenarioConfig.from_json", "ScenarioConfig.build_curve",
                 "_emit_svgs"),
}
TRANSFORMS = ("numpy.fft.rfft", "numpy.fft.irfft")
# spans whose descendants are also counted per enclosing call
SCOPES = ("curve_flow.step", "curvature_flow.step")


def layer_of(span: str) -> str:
    return "spectral" if span.startswith("numpy.fft.") else span.split(".", 1)[0]


class Tracer:
    """Aggregated spans: (parent, name) -> [calls, total_s, self_s], plus scope counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock       # what spans are timed with
        self.edges = {}
        self.in_scope = {}       # (scope span, span) -> calls made inside the scope
        self._stack = []         # frames [name, child_s, scope for children]
        self._saved = []         # (namespace, attribute, original) to restore

    # ------------------------------------------------------------ install
    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "centroflow" or name.startswith("centroflow.")}
        for layer, names in TRACED.items():
            module = modules[f"centroflow.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    self._wrap_method(getattr(module, cls_name), attr, f"{layer}.{name}")
                else:
                    original = getattr(module, name)
                    self._rebind(modules.values(), original,
                                 self._wrap(f"{layer}.{name}", original))
        for span in TRANSFORMS:
            attr = span.rsplit(".", 1)[1]
            self._set(np.fft, attr, self._wrap(span, getattr(np.fft, attr)))

    def uninstall(self):
        for namespace, attr, original in reversed(self._saved):
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)
        self._saved.clear()

    def _set(self, namespace, attr, value):
        if isinstance(namespace, dict):
            self._saved.append((namespace, attr, namespace[attr]))
            namespace[attr] = value
        else:
            self._saved.append((namespace, attr, namespace.__dict__[attr]))
            setattr(namespace, attr, value)

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper)

    def _wrap_method(self, cls, attr, span):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(span, raw.__func__)))
        else:
            self._set(cls, attr, self._wrap(span, raw))

    # -------------------------------------------------------------- spans
    def _wrap(self, name, fn):
        stack, edges, in_scope = self._stack, self.edges, self.in_scope
        clock = self.clock
        is_scope = name in SCOPES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            scope = parent[2] if parent else None
            frame = [name, 0.0, name if is_scope else scope]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (parent[0] if parent else None, name)
                entry = edges.get(key)
                if entry is None:
                    entry = edges[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if scope is not None:
                    in_scope[(scope, name)] = in_scope.get((scope, name), 0) + 1
        return traced

    # ------------------------------------------------------------ summary
    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total_s(self, name: str) -> float:
        """Inclusive time of the outermost calls of `name` (recursion not double counted)."""
        return sum(e[1] for (p, n), e in self.edges.items() if n == name and p != name)

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return 1e6 * sum(e[1] for (_, n), e in self.edges.items() if n == name) / calls \
            if calls else 0.0

    def self_s(self, layer: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if layer_of(n) == layer)

    def scoped(self, scope: str, names) -> int:
        return sum(self.in_scope.get((scope, n), 0) for n in names)

    def dump(self) -> list:
        return [{"parent": p, "span": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (p, n), e in sorted(self.edges.items(), key=lambda kv: -kv[1][1])]


def call_overhead_s(calls: int = 20000, repeats: int = 5) -> float:
    """What a span wrapper adds to one call: traced minus plain, on a function that returns.

    The fastest of `repeats` timings of `calls` calls each way, from a
    Tracer of its own.
    """
    def plain(x):
        return x
    traced = Tracer()._wrap("probe", plain)
    best = {}
    for fn in (plain, traced) * repeats:
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        best[fn] = min(best.get(fn, math.inf), time.perf_counter() - t0)
    return (best[traced] - best[plain]) / calls


def layer_metrics(tracer, traced, ops_per_round) -> dict:
    """Per-layer figures of the traced rounds, per round unless the name says otherwise."""
    rounds = len(traced)
    ops = rounds * ops_per_round
    steps = {f: tracer.calls(f"{f}.step") for f in ("curve_flow", "curvature_flow")}
    all_steps = sum(steps.values())

    def per(count, base):
        return count / base if base else 0.0

    def scoped(name, flow):
        return tracer.scoped(f"{flow}.step", name if isinstance(name, tuple) else (name,))

    writes = ("io.write_csv", "io.write_report", "io.write_svg")
    verdicts = [f"diagnostics.{n}" for n in (
        "check_mean_zero", "check_isoperimetric", "check_curvature_bounds",
        "check_energy_identities", "check_monotone_L_and_integralE",
        "check_sobolev_bounded", "check_convergence_to_ellipse")]
    m = {
        "spectral.transforms_per_step": per(sum(scoped(TRANSFORMS, f) for f in steps),
                                            all_steps),
        "spectral.transforms_per_curve": per(sum(tracer.calls(t) for t in TRANSFORMS), ops),
        "curve.validations_per_step": per(
            sum(scoped("curve.ClosedCurve.__post_init__", f) for f in steps), all_steps),
        "curve.validations_per_curve": per(tracer.calls("curve.ClosedCurve.__post_init__"),
                                           ops),
        "invariants.metric_curvature_us": tracer.mean_us("invariants._metric_curvature"),
        "invariants.metric_curvature_calls": per(tracer.calls("invariants._metric_curvature"),
                                                 rounds),
        "invariants.centro_affine_us": tracer.mean_us("invariants.centro_affine"),
        "invariants.phi_from_mu_us": tracer.mean_us("invariants.phi_from_mu"),
        "curve_flow.step_us": tracer.mean_us("curve_flow.step"),
        "curve_flow.stage_us": tracer.mean_us("curve_flow._geometry_velocity"),
        "curve_flow.stage_calls_per_step": per(
            scoped("curve_flow._geometry_velocity", "curve_flow"), steps["curve_flow"]),
        "curvature_flow.step_us": tracer.mean_us("curvature_flow.step"),
        "curvature_flow.rhs_us": tracer.mean_us("curvature_flow.rhs"),
        "curvature_flow.state_builds_per_step": per(
            scoped("curvature_flow.CurvatureFlowState.__post_init__", "curvature_flow"),
            steps["curvature_flow"]),
        "trajectory.record_us": tracer.mean_us("trajectory.record_from_fields"),
        "trajectory.records": per(tracer.calls("trajectory.record_from_fields"), rounds),
        "trajectory.finalize_s": per(
            tracer.total_s("trajectory.FlowTrajectory.finalize_residuals"), rounds),
        "io.write_s": per(sum(tracer.total_s(n) for n in writes), rounds),
        "io.bytes_written": per(sum(b for _, b in traced), rounds),
        "diagnostics.verdicts_s": per(sum(tracer.total_s(n) for n in verdicts), rounds),
        "diagnostics.verdicts": per(tracer.calls("diagnostics.Verdict.__post_init__"), rounds),
        "scenario.build_s": per(tracer.total_s("scenario.ScenarioConfig.from_json")
                                + tracer.total_s("scenario.ScenarioConfig.build_curve"), rounds),
        # every traced call, times what a wrapper adds to one call
        "trace.overhead_s": per(sum(e[0] for e in tracer.edges.values()), rounds)
        * call_overhead_s(),
    }
    for layer in ("spectral", "curve", "invariants", "curve_flow", "curvature_flow",
                  "scenario"):
        m[f"{layer}.self_s"] = per(tracer.self_s(layer), rounds)
    return m
