"""The nonlocal curve flow C_t = (lambda + int_0^xi phi dxi) C + (phi/2) C_xi.

Every term except lambda*C is invariant under scalings of C, and the rest of
the velocity is homogeneous of degree 1 in C. So the stepper marches every curve
one way: RK4 on the gauge-invariant velocity, then a rescale to area pi. The
stored `curve` and its invariants are independent of lambda and of the
normalization bit for bit; the normalization chooses only the reported scale.
Under "none", log_scale keeps the gauge and the scales taken out, and
`physical_curve` is e^(log_scale) times `curve`; otherwise the two coincide.

The centro-affine curvature extracted from the samples is projected by the
2/3 rule before entering the velocity: the bracket ratios amplify roundoff
in the top spectral modes by O(k^3), and without the projection an aliasing
feedback loop among those modes destabilizes the march at any usable dt.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import curvature_flow
from .curve import ClosedCurve, enclosed_area_of
from .errors import MARCH_ERRORS, BlowUp
from .invariants import _metric_curvature
from .spectral import _derivative_batch, _trimmed_spectrum, antiderivative, dealias, derivative
from .trajectory import FlowTrajectory, march, record_from_fields

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
        k1, the guards and its record (C_p for the area included) share it."""
        return _geometry_velocity(self.curve.points)


def _geometry_velocity(points: np.ndarray):
    """(sign, g, raw phi, projected phi, C_p, min(g), velocity): the gauge-invariant
    velocity, the sign of [C, C_p] (one strict sign, as the metric requires) and what
    the step and the record read. Every RK4 stage makes its own derivative batch of the
    points, one forward and one inverse transform, and keeps it on no curve.

    The points and derivatives are component-major, so their transposed views (2, N)
    have contiguous rows: the velocity is combined on them, no field is broadcast along
    a new axis, and the transposed result is component-major too."""
    derivs = _derivative_batch(_trimmed_spectrum(points), points.shape[0])
    cp, _, den, _, g, raw, least = _metric_curvature(points, derivs)
    phi = dealias(raw)  # see module docstring: required for top-mode stability
    potential = antiderivative(phi * g)
    return (math.copysign(1.0, den[0]), g, raw, phi, cp, math.sqrt(least),
            (potential * points.T + 0.5 * phi / g * cp.T).T)


def _start(state: CurveFlowState):
    """(points, k1, least metric, projected max|phi|) of a state for curvature_flow._rk4;
    a geometry error of its curve carries the state's time."""
    try:
        _, _, _, phi, _, g_min, k1 = state.stage
    except MARCH_ERRORS as exc:
        exc.time = state.t
        raise
    return state.curve.points, k1, g_min, curvature_flow._peak(phi)


def step(state: CurveFlowState, dt: float) -> CurveFlowState:
    """One guarded RK4 step (curvature_flow._rk4), rescaled to area pi; under "none"
    the gauge and the scale the rescale takes out accumulate in log_scale."""
    new = curvature_flow._rk4(state, dt, _start, lambda y: _geometry_velocity(y)[-1])
    t_new = state.t + dt
    if not curvature_flow._peak(new) < math.inf:
        raise BlowUp("non-finite coordinates after step", time=t_new)
    # the area is oriented by the sign of [C, C_p] at the state stepped from, and one too
    # small for its factor sqrt(pi/area) to be a float has collapsed as well
    area = float(state.stage[0] * enclosed_area_of(new))
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
           record_stride: int = 1, observer=None, snapshot_stride: int = 0) -> FlowTrajectory:
    """March the curve to t_end on trajectory.march, recording invariant diagnostics.

    A record step gathers t, the stage's g and raw phi and the curve's area; each
    block takes phi's two xi-derivatives by one derivative call per order. A snapshot
    is the state's physical_curve."""
    def gather(current):
        _, g, phi, _, cp, _, _ = current.stage
        # the stored curve's area from the stage's C_p, times the reported scale on each
        # side (step keeps e^(2 log_scale) pi a normal float)
        scale = math.exp(current.log_scale)
        return current.t, g, phi, scale * enclosed_area_of(current.curve.points, cp) * scale

    def record(t, g, phi, area):
        phi_xi = derivative(phi) / g
        return record_from_fields(t, g, phi, phi_xi, derivative(phi_xi) / g, area=area)

    return march(state, t_end, dt, step, gather, record, record_stride=record_stride,
                 observer=observer, snapshot=lambda current: current.physical_curve,
                 snapshot_stride=snapshot_stride)


def consistency_check(curve0: ClosedCurve, t_end: float, dt: float, *,
                      record_stride: int = 100) -> float:
    """Sup-norm gap between curvature extracted from the curve flow and the scalar flow.

    Both flows start from the same invariant field and march on the same
    schedule; the returned number is the worst nodewise difference over all
    record times and the final time.
    """
    curve_phis, scalar_phis = [], []
    final = evolve(CurveFlowState(t=0.0, curve=curve0), t_end, dt, record_stride=record_stride,
                   observer=lambda state: curve_phis.append(state.stage[2])).final
    curve_phis.append(final.stage[2])
    final = curvature_flow.evolve(
        curvature_flow.CurvatureFlowState.from_curve(curve0), t_end, dt,
        record_stride=record_stride, observer=lambda state: scalar_phis.append(state.phi)).final
    scalar_phis.append(final.phi)
    return max(float(np.abs(a - b).max()) for a, b in zip(curve_phis, scalar_phis))
