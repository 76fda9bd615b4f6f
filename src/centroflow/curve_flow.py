"""The nonlocal curve flow, marched in its ray gauge C_t = (lambda + int_0^xi phi dxi) C.

The paper's flow adds (phi/2) C_xi. On a star-shaped curve that term only slides the
samples along the curve; without it each sample moves along its own ray, the curve at
every time is the same, and the gauge still commutes with GL(2), the mirror map and
lambda. The velocity holds no derivative of phi, so phi enters it raw. The samples
are not the scalar flow's nodes, so the two flows agree on the records' integrals
(diagnostics.check_flow_equivalence), not node by node.

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
from .curve import ClosedCurve, _brackets_of, enclosed_area_of
from .errors import MARCH_ERRORS, BlowUp
from .invariants import _metric_curvature
from .spectral import _derivative_batch, _trimmed_spectrum, antiderivative, periodic_integral
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
        k1, the guards and its record ([C, C_p] for the area included) share it."""
        return _geometry_velocity(self.curve.points)

    @cached_property
    def peak(self) -> float:
        """max|phi| of the stage, taken once: the step that makes the state and the step
        from it judge it."""
        return curvature_flow._peak(self.stage[2])


def _geometry_velocity(points: np.ndarray):
    """([C, C_p], g, phi, min(g), velocity): the gauge-invariant velocity
    (int_0^xi phi dxi) C and what the step and the record read. Every RK4 stage makes its
    own derivative batch of the points, one forward and one inverse transform, and its
    own brackets from it, and keeps them on no curve.

    The points are component-major, so their transposed view (2, N) has contiguous rows:
    the velocity is their product with the potential, and its transpose is
    component-major too."""
    derivs = _derivative_batch(_trimmed_spectrum(points), len(points))
    first, second = _brackets_of(points, derivs)
    _, g, phi, least = _metric_curvature(first, second)
    velocity = points.T * antiderivative(phi * g)
    return first[0], g, phi, math.sqrt(least), velocity.T


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
    new = curvature_flow._rk4(state, dt, _start, lambda y: _geometry_velocity(y)[-1])
    t_new = state.t + dt
    if not curvature_flow._peak(new) < math.inf:
        raise BlowUp("non-finite coordinates after step", time=t_new)
    # the area is oriented by the sign of [C, C_p] at the state stepped from (its first
    # sample's), and one too small for its factor sqrt(pi/area) to be a float has collapsed
    area = float(math.copysign(1.0, state.stage[0][0]) * enclosed_area_of(new))
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
    curve = ClosedCurve(new * math.sqrt(math.pi / area), name=state.curve.name)
    produced = CurveFlowState(t_new, curve, state.lam, state.normalization, log_scale)
    curvature_flow._judge(_start(produced)[3], t_new)  # geometry errors, then the ceiling
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
