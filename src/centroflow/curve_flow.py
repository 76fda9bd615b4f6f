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

import numpy as np

from . import curvature_flow
from .curve import ClosedCurve, bracket, enclosed_area_of
from .errors import BlowUp, StabilityViolation
from .invariants import InvariantField, _metric_curvature, centro_affine, xi_derivative
from .spectral import antiderivative, dealias
from .curvature_flow import cfl_limit
from .trajectory import FlowTrajectory, march, plan_steps, record_from_fields

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


def nonlocal_potential(field: InvariantField, lam: float, base_index: int = 0) -> np.ndarray:
    """lambda + cumulative integral of phi d(xi) anchored at grid node base_index.

    Periodic because the closed-curve curvature has zero mean; changing the
    base node shifts the whole field by a constant, which the flow absorbs
    into lambda.
    """
    integrand = field.phi * field.g
    if base_index == 0:
        return lam + antiderivative(integrand)
    rolled = antiderivative(np.roll(integrand, -base_index))
    return lam + np.roll(rolled, base_index)


def rhs(state: CurveFlowState) -> np.ndarray:
    """Velocity field of the full nonlocal flow at the physical curve."""
    pts = state.physical_curve.points
    _, _, vel = _geometry_velocity(pts)
    return vel + state.lam * pts


def _geometry_velocity(points: np.ndarray, derivs=None):
    """(g, phi, velocity): the gauge-invariant velocity plus the metric and the projected
    curvature it used (for the step guards); derivs as in _metric_curvature."""
    cp, _, _, _, g, phi = _metric_curvature(points, derivs)
    phi = dealias(phi)  # see module docstring: required for top-mode stability
    potential = antiderivative(phi * g)
    return g, phi, potential[:, None] * points + (0.5 * phi / g)[:, None] * cp


def step(state: CurveFlowState, dt: float) -> CurveFlowState:
    """One RK4 step of the gauge-invariant flow; the gauge accumulates in log_scale."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pts = state.curve.points
    derivs = state.curve._derivatives()
    g, phi, k1 = _geometry_velocity(pts, derivs)
    dt_max = cfl_limit(g)
    if dt > dt_max:
        raise StabilityViolation(
            f"dt = {dt:g} exceeds stability bound {dt_max:g}", time=state.t)
    if np.abs(phi).max() > curvature_flow.PHI_CEILING:
        raise BlowUp(f"max|phi| exceeded ceiling {curvature_flow.PHI_CEILING:g}", time=state.t)

    _, _, k2 = _geometry_velocity(pts + 0.5 * dt * k1)
    _, _, k3 = _geometry_velocity(pts + 0.5 * dt * k2)
    _, _, k4 = _geometry_velocity(pts + dt * k3)
    new = pts + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    t_new = state.t + dt
    if not np.isfinite(new).all():
        raise BlowUp("non-finite coordinates after step", time=t_new)
    log_scale = state.log_scale
    if state.normalization == "unit_area_scale":
        # the gauge factor e^(lam dt) is cancelled exactly by this rescaling; the area is
        # oriented by the sign of [C, C_p], which k1's metric requires to be one strict sign
        area = np.sign(bracket(pts[0], derivs[0, 0])) * enclosed_area_of(new)
        if area <= 0:
            raise BlowUp("enclosed area collapsed", time=t_new)
        new = new * math.sqrt(math.pi / area)
    else:
        log_scale += state.lam * dt
        physical_max = np.abs(new).max() * math.exp(log_scale)
        if physical_max > COORD_CEILING:
            raise BlowUp(f"coordinates exceeded ceiling {COORD_CEILING:g}", time=t_new)
    curve = ClosedCurve(new, name=state.curve.name)
    return replace(state, t=t_new, curve=curve, log_scale=log_scale)


def evolve(state: CurveFlowState, t_end: float, dt: float, *,
           record_stride: int = 1, observer=None, snapshot_stride: int = 0) -> FlowTrajectory:
    """March the curve to t_end on trajectory.march, recording invariant diagnostics."""
    def record(current):
        # the curve's kept spectrum serves this record and the next step's k1
        curve = current.curve
        _, _, _, _, g, phi = _metric_curvature(curve.points, curve._derivatives())
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

    Both flows start from the same invariant field and march in lockstep on
    the same schedule; the returned number is the worst nodewise difference
    over all record times.
    """
    n_steps = plan_steps(0.0, t_end, dt)
    cstate = CurveFlowState(t=0.0, curve=curve0)
    sstate = curvature_flow.CurvatureFlowState.from_curve(curve0)
    worst = 0.0
    for i in range(1, n_steps + 1):
        cstate = step(cstate, dt)
        sstate = curvature_flow.step(sstate, dt)
        if i % record_stride == 0 or i == n_steps:
            phi_curve = centro_affine(cstate.curve).phi
            gap = float(np.abs(phi_curve - sstate.phi).max())
            if not math.isfinite(gap):
                raise BlowUp("consistency comparison became non-finite", time=i * dt)
            worst = max(worst, gap)
    return worst
