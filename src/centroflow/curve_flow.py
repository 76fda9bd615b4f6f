"""The nonlocal curve flow, marched in its ray gauge C_t = (lambda + int_0^xi phi dxi) C.

The paper's flow adds (phi/2) C_xi. On a star-shaped curve that term only slides the
samples along the curve; without it each sample moves along its own ray, the curve at
every time is the same, and the gauge still commutes with GL(2), the mirror map and
lambda. The velocity holds no derivative of phi, so phi enters it raw. The samples
are not the scalar flow's nodes, so the two flows agree on the records' integrals
(diagnostics.check_flow_equivalence), not node by node.

The potential has a closed form: with s = [C, C_p] and m = [C_p, C_pp], s_p = [C, C_pp]
and m_p = [C_p, C_ppp], so phi g = 1.5 s_p/s - 0.5 m_p/m = d/dp ln(s/g) as g = sqrt(|m/s|).
So phi = d/dxi ln[C, C_xi], and int_0^xi phi dxi = ln(r / r(0)) with r = [C, C_p]/g,
exactly 0 at p = 0 and exactly periodic.

A step computes only what something reads. The velocity needs [C, C_p] and g alone, so
the RK4 stages k2-k4 make no phi; a state's stage, phi included, is made once. The
stepped points make one derivative batch: its [C, C_p] gives the area of the rescale,
and its brackets the produced state's stage, [C, C_p] times the factor squared and g
and phi as they come.

Every term except lambda*C is invariant under scalings of C, and the rest of
the velocity is homogeneous of degree 1 in C. So the stepper marches every curve
one way: RK4 on the gauge-invariant velocity, then a rescale to area pi. The
stored `curve` and its invariants are independent of lambda and of the
normalization bit for bit; the normalization chooses only the reported scale.
Under "none", log_scale keeps the gauge and the scales taken out, and
`physical_curve` is e^(log_scale) times `curve`; otherwise the two coincide.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import curvature_flow, diagnostics
from .curve import ClosedCurve, _brackets_of, bracket
from .errors import MARCH_ERRORS, BlowUp
from .invariants import _metric, _metric_curvature
from .spectral import _derivative_batch, _trimmed_spectrum, periodic_integral
from .trajectory import FlowTrajectory, march

NORMALIZATIONS = ("none", "unit_area_scale")


@dataclass(frozen=True)
class CurveFlowState:
    """Flow time, the evolving curve, the gauge constant and the scaling policy.

    `curve` holds the unit-area representative once a step is made; all
    differential invariants (phi, g, L, E, ...) can be read from it directly.
    The reported curve is `physical_curve`, e^(log_scale) times it; log_scale
    stays zero under "unit_area_scale", so there the two are one object.
    """

    t: float
    curve: ClosedCurve
    lam: float = 0.0
    normalization: str = "unit_area_scale"
    log_scale: float = 0.0

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")

    @property
    def physical_curve(self) -> ClosedCurve:
        if self.log_scale == 0.0:
            return self.curve
        return self.curve.scaled(math.exp(self.log_scale))

    @cached_property
    def stage(self):
        """_geometry_velocity at the state's own curve points, computed once: its step's
        k1, the guards and its record ([C, C_p] for the area included) share it. A state
        that step produces is handed its stage, made from the stepped points' batch."""
        return _geometry_velocity(self.curve.points)

    @cached_property
    def peak(self) -> float:
        """max|phi| of the stage, taken once: the step that makes the state and the step
        from it judge it."""
        return curvature_flow._peak(self.stage[2])


def _batch(points: np.ndarray) -> np.ndarray:
    """The points' own derivative batch (orders 1-3), one forward and one inverse
    transform, kept on no curve."""
    return _derivative_batch(_trimmed_spectrum(points), len(points))


def _along_rays(points: np.ndarray, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gauge-invariant velocity (int_0^xi phi dxi) C, every stage's one velocity
    arithmetic, from [C, C_p] and g of the points or of any multiple of them.

    The potential is phi = d/dxi ln[C, C_xi] integrated in closed form, with no transform:
    phi g = 1.5 s_p/s - 0.5 m_p/m = d/dp ln(s/g) for s = [C, C_p] and m = [C_p, C_pp], so
    int_0^xi phi dxi = ln(r / r(0)) with r = s/g, which is one-signed.

    The points are component-major, so their transposed view (2, N) has contiguous rows:
    the velocity is their product with the potential, and its transpose is
    component-major too."""
    ray = s / g
    return (points.T * np.log(ray / ray[0])).T


def _geometry_velocity(points: np.ndarray, brackets=None, squared: float = 1.0):
    """([C, C_p], g, phi, min(g), velocity): the velocity and what the guards and the
    record read; the one function that builds a stage tuple.

    A state's stage makes its own brackets of the points. step hands it the brackets of
    the stepped points and the square of the factor that rescales them to `points`:
    [C, C_p] scales by it, g and phi are invariant under scalings, and the velocity is
    the product of `points` with the scale-invariant potential."""
    first, second = _brackets_of(points, _batch(points)) if brackets is None else brackets
    _, g, phi, least = _metric_curvature(first, second)
    return first[0] * squared, g, phi, math.sqrt(least), _along_rays(points, first[0], g)


def _velocity(points: np.ndarray) -> np.ndarray:
    """The velocity alone, for RK4 stages k2-k4, which read nothing else: from the rows
    [C, C_p] and [C_p, C_pp] and the metric half of the kernel, with every guard, with no
    second bracket pair and no phi. It is _geometry_velocity(points)[-1] bit for bit."""
    derivs = _batch(points)
    cp = derivs[:, 0]
    s = bracket(points, cp)
    _, g, _ = _metric((s, bracket(cp, derivs[:, 1])))
    return _along_rays(points, s, g)


def _start(state: CurveFlowState):
    """(points, k1, least metric, max|phi|) of a state for curvature_flow._rk4; a
    geometry error of its curve carries the state's time."""
    try:
        _, _, _, g_min, k1 = state.stage
    except MARCH_ERRORS as exc:
        exc.time = state.t
        raise
    return state.curve.points, k1, g_min, state.peak


def step(state: CurveFlowState, dt: float) -> CurveFlowState:
    """One guarded RK4 step (curvature_flow._rk4), rescaled to area pi; under "none"
    the gauge and the scale the rescale takes out accumulate in log_scale."""
    new = curvature_flow._rk4(state, dt, _start, _velocity)
    t_new = state.t + dt
    if not curvature_flow._peak(new) < math.inf:
        raise BlowUp("non-finite coordinates after step", time=t_new)
    brackets = _brackets_of(new, _batch(new))
    # the area is oriented by the sign of [C, C_p] at the state stepped from (its first
    # sample's), and one too small for its factor sqrt(pi/area) to be a float has collapsed
    area = math.copysign(1.0, state.stage[0][0]) * (0.5 * periodic_integral(brackets[0][0]))
    if area <= 0 or math.pi / area == math.inf:
        raise BlowUp("enclosed area collapsed", time=t_new)
    log_scale = state.log_scale
    if state.normalization == "none":
        log_scale += state.lam * dt + 0.5 * math.log(area / math.pi)
        try:  # the area a record reports, e^(2 log_scale) pi, must be a normal float
            reported = math.exp(2.0 * log_scale) * math.pi
        except OverflowError:
            reported = math.inf
        if not sys.float_info.min <= reported < math.inf:
            raise BlowUp(f"gauge factor e^{log_scale:g} left the float range", time=t_new)
    squared = math.pi / area
    curve = ClosedCurve(new * math.sqrt(squared), name=state.curve.name)
    produced = CurveFlowState(t_new, curve, state.lam, state.normalization, log_scale)
    # the produced state's stage, kept where its cached `stage` keeps it; its geometry
    # errors, then the ceiling, carry the produced state's time
    try:
        vars(produced)["stage"] = _geometry_velocity(curve.points, brackets, squared)
    except MARCH_ERRORS as exc:
        exc.time = t_new
        raise
    curvature_flow._judge(produced.peak, t_new)
    return produced


def evolve(state: CurveFlowState, t_end: float, dt: float, *,
           record_stride: int = 1, observer=None) -> FlowTrajectory:
    """March the curve to t_end on trajectory.march, recording invariant diagnostics.

    A record step gathers t, the stage's g and phi and the curve's area; each block's
    record_from_fields takes phi's xi-derivatives."""
    def gather(current):
        s, g, phi, _, _ = current.stage
        # the stored curve's area, half the integral of the stage's [C, C_p], times the
        # reported scale on each side (step keeps e^(2 log_scale) pi a normal float)
        scale = math.exp(current.log_scale)
        return current.t, g, phi, scale * (0.5 * periodic_integral(s)) * scale

    return march(state, t_end, dt, step, gather, record_stride=record_stride,
                 observer=observer)


def consistency_check(curve0: ClosedCurve, t_end: float, dt: float, *,
                      record_stride: int = 100) -> float:
    """The measured gap of diagnostics.check_flow_equivalence between the records of the
    curve flow and of the scalar flow, both marched from curve0 on the same schedule."""
    curve_traj = evolve(CurveFlowState(t=0.0, curve=curve0), t_end, dt,
                        record_stride=record_stride)
    scalar_traj = curvature_flow.evolve(curvature_flow.CurvatureFlowState.from_curve(curve0),
                                        t_end, dt, record_stride=record_stride)
    return diagnostics.check_flow_equivalence(curve_traj, scalar_traj).measured
