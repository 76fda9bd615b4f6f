"""The nonlocal curve flow C_t = (lambda + int_0^xi phi dxi) C + (phi/2) C_xi.

Every term except lambda*C is invariant under scalings of C, so the lambda
part is a pure gauge that commutes exactly with the rest of the flow. The
stepper therefore advances only the gauge-invariant velocity with RK4 and
accumulates the gauge analytically in log_scale: the stored `curve` is the
gauge-invariant representative and `physical_curve` carries the exact factor
e^(log_scale). Under unit-area normalization the gauge factor is cancelled
by the rescaling, so log_scale stays zero and the two coincide. Either way,
the invariant content of a trajectory is independent of lambda bit for bit.

The centro-affine curvature extracted from the samples is projected by the
2/3 rule before entering the velocity: the bracket ratios amplify roundoff
in the top spectral modes by O(k^3), and without the projection an aliasing
feedback loop among those modes destabilizes the march at any usable dt.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import curvature_flow
from .curve import ClosedCurve, enclosed_area_of
from .errors import MARCH_ERRORS, BlowUp, StabilityViolation
from .invariants import _metric_curvature, xi_derivative
from .spectral import antiderivative, dealias
from .curvature_flow import cfl_limit
from .trajectory import FlowTrajectory, march, record_from_fields

NORMALIZATIONS = ("none", "unit_area_scale")
COORD_CEILING = 1e8  # physical max|coordinate| under "none"; read at call time


@dataclass(frozen=True)
class CurveFlowState:
    """Flow time, the evolving curve, the gauge constant and the scaling policy.

    `curve` holds the gauge-invariant representative; all differential
    invariants (phi, g, L, E, ...) can be read from it directly. The
    physically scaled curve is `physical_curve`; log_scale differs from zero
    only for normalization "none" with lambda != 0.
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
        """_geometry_velocity at the state's own curve, computed once: its step's k1,
        the guards and its record share it."""
        return _geometry_velocity(self.curve.points, self.curve._derivatives())


def _geometry_velocity(points: np.ndarray, derivs=None):
    """(sign, g, raw phi, projected phi, velocity): the gauge-invariant velocity, the
    sign of [C, C_p] (one strict sign, as the metric requires) and the fields the step
    and the record read; derivs as in _metric_curvature."""
    cp, _, den, _, g, raw = _metric_curvature(points, derivs)
    phi = dealias(raw)  # see module docstring: required for top-mode stability
    potential = antiderivative(phi * g)
    return (np.sign(den[0]), g, raw, phi,
            potential[:, None] * points + (0.5 * phi / g)[:, None] * cp)


def _judge(state: CurveFlowState) -> None:
    """BlowUp when the state's projected max|phi| exceeds PHI_CEILING; this and any
    geometry error of its curve carry the state's time."""
    try:
        if np.abs(state.stage[3]).max() > curvature_flow.PHI_CEILING:
            raise BlowUp(f"max|phi| exceeded ceiling {curvature_flow.PHI_CEILING:g}")
    except MARCH_ERRORS as exc:
        exc.time = state.t
        raise


def step(state: CurveFlowState, dt: float) -> CurveFlowState:
    """One RK4 step of the gauge-invariant flow; the gauge accumulates in log_scale."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pts = state.curve.points
    sign, g, _, _, k1 = state.stage
    dt_max = cfl_limit(g)
    if dt > dt_max:
        raise StabilityViolation(
            f"dt = {dt:g} exceeds stability bound {dt_max:g}", time=state.t)
    _judge(state)

    k2 = _geometry_velocity(pts + 0.5 * dt * k1)[-1]
    k3 = _geometry_velocity(pts + 0.5 * dt * k2)[-1]
    k4 = _geometry_velocity(pts + dt * k3)[-1]
    new = pts + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    t_new = state.t + dt
    if not np.isfinite(new).all():
        raise BlowUp("non-finite coordinates after step", time=t_new)
    log_scale = state.log_scale
    if state.normalization == "unit_area_scale":
        # the gauge factor e^(lam dt) is cancelled exactly by this rescaling; the area is
        # oriented by the sign of [C, C_p] at the state stepped from
        area = sign * enclosed_area_of(new)
        if area <= 0:
            raise BlowUp("enclosed area collapsed", time=t_new)
        new = new * math.sqrt(math.pi / area)
    else:
        log_scale += state.lam * dt
        physical_max = np.abs(new).max() * math.exp(log_scale)
        if physical_max > COORD_CEILING:
            raise BlowUp(f"coordinates exceeded ceiling {COORD_CEILING:g}", time=t_new)
    produced = replace(state, t=t_new, curve=ClosedCurve(new, name=state.curve.name),
                       log_scale=log_scale)
    _judge(produced)
    return produced


def evolve(state: CurveFlowState, t_end: float, dt: float, *,
           record_stride: int = 1, observer=None, snapshot_stride: int = 0) -> FlowTrajectory:
    """March the curve to t_end on trajectory.march, recording invariant diagnostics."""
    def record(current):
        _, g, phi, _, _ = current.stage
        phi_xi = xi_derivative(phi, g, 1)
        return record_from_fields(current.t, g, phi, phi_xi, xi_derivative(phi_xi, g, 1),
                                  area=current.physical_curve.enclosed_area())

    def snapshot(current):
        # a bare copy, so the trajectory does not hold the stepped curve's kept spectrum
        curve = current.physical_curve
        return ClosedCurve(curve.points, curve.name)

    return march(state, t_end, dt, step, record, record_stride=record_stride,
                 observer=observer, snapshot=snapshot, snapshot_stride=snapshot_stride)


def consistency_check(curve0: ClosedCurve, t_end: float, dt: float, *,
                      record_stride: int = 100) -> float:
    """Sup-norm gap between curvature extracted from the curve flow and the scalar flow.

    Both flows start from the same invariant field and march on the same
    schedule; the returned number is the worst nodewise difference over all
    record times and the final time.
    """
    curve_phis, scalar_phis = [], []
    final = evolve(CurveFlowState(t=0.0, curve=curve0), t_end, dt, record_stride=record_stride,
                   observer=lambda state, _: curve_phis.append(state.stage[2])).final
    curve_phis.append(final.stage[2])
    final = curvature_flow.evolve(
        curvature_flow.CurvatureFlowState.from_curve(curve0), t_end, dt,
        record_stride=record_stride, observer=lambda state, _: scalar_phis.append(state.phi)).final
    scalar_phis.append(final.phi)
    return max(float(np.abs(a - b).max()) for a, b in zip(curve_phis, scalar_phis))
