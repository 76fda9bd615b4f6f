"""The curvature system on the fixed parameter grid.

The pair (g, phi) evolves by

    g_t / g = phi^2 / 2,
    phi_t   = phi_xixi / 2 - phi^3 / 2 + 2 phi,

with d/d(xi) = (1/g) d/dp, so the whole system closes on the grid without
remeshing. Explicit RK4 with a diffusion CFL guard; the cubic term is the raw
phi cubed, with no projection.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import ClosedCurve
from .errors import BlowUp, DegenerateMetric, StabilityViolation
from .invariants import InvariantField, _check_metric, centro_affine
from .spectral import _fused_pass
from .trajectory import FlowTrajectory, march

# step guards, read at call time (tests monkeypatch them)
CFL = 0.5           # diffusion CFL number of cfl_limit
PHI_CEILING = 10.0  # bound on max|phi| of the state a step starts from and of its result


@dataclass(frozen=True)
class CurvatureFlowState:
    """Flow time plus the (g, phi) samples, the rows of one (2, N) array y that the
    build stacks them into. peak is max|phi| and g_min is min(g), both taken once, with
    the finiteness check, by one min and one max reduction of y along its rows when the
    state is built: peak for the PHI_CEILING judgements of the step that makes it and
    the next, g_min for the next step's CFL bound."""

    t: float
    g: np.ndarray
    phi: np.ndarray
    peak: float = field(init=False, repr=False, compare=False)
    g_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if g.shape != phi.shape or g.ndim != 1:
            raise ValueError("g and phi must be 1-d arrays of equal length")
        y = np.array((g, phi))
        # a NaN makes a reduction NaN, which fails every comparison; with the initial
        # values an empty state builds
        g_lo, phi_lo = np.minimum.reduce(y, axis=1, initial=math.inf).tolist()
        g_hi, phi_hi = np.maximum.reduce(y, axis=1, initial=-math.inf).tolist()
        if not (-math.inf < g_lo and g_hi < math.inf and -math.inf < phi_lo
                and phi_hi < math.inf):
            raise ValueError("state fields must be finite")
        if g_lo <= 0:
            raise DegenerateMetric("metric g must be positive")
        object.__setattr__(self, "g", y[0])
        object.__setattr__(self, "phi", y[1])
        object.__setattr__(self, "peak", max(phi_hi, -phi_lo, 0.0))  # 0 with no samples
        object.__setattr__(self, "g_min", g_lo)

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def y(self) -> np.ndarray:
        """The (2, N) array whose rows are g and phi, the array g is a view of."""
        return self.g.base

    @classmethod
    def from_field(cls, field: InvariantField, t: float = 0.0) -> "CurvatureFlowState":
        return cls(t=t, g=field.g, phi=field.phi)

    @classmethod
    def from_curve(cls, curve: ClosedCurve, t: float = 0.0) -> "CurvatureFlowState":
        return cls.from_field(centro_affine(curve), t=t)


def _stage(y: np.ndarray) -> np.ndarray:
    """One RK4 stage on a bare (2, N) array, the rows g and phi: the velocity
    (g_dot, phi_dot) as one (2, N) array.

    One fused pass of y (spectral._fused_pass, one rfft and one irfft) gives the
    p-derivatives g_p, phi_p and phi_pp. Then phi_xi = phi_p / g, bit for bit
    xi_derivative(phi, g), and by the chain rule phi_xixi = (phi_pp - phi_xi g_p) / g / g.
    """
    g, phi = y
    _check_metric(g)
    g_p, phi_p, phi_pp = _fused_pass(y)
    phi_xi = phi_p / g
    phi_xixi = (phi_pp - phi_xi * g_p) / g / g
    velocity = np.empty(y.shape)
    velocity[0] = 0.5 * phi**2 * g
    velocity[1] = 0.5 * phi_xixi - 0.5 * (phi * phi * phi) + 2.0 * phi
    return velocity


def rhs(state: CurvatureFlowState):
    """Right-hand sides of the curvature system: the (2, N) rows g_dot and phi_dot."""
    return _stage(state.y)


def cfl_limit(g_min: float, n: int) -> float:
    """Largest admissible dt on n nodes whose least metric is g_min:
    CFL * (g_min * 2*pi/n)^2 (diffusion coefficient 1/2)."""
    return CFL * float((g_min * 2.0 * np.pi / n) ** 2)


def _peak(values: np.ndarray) -> float:
    """max|values|: inf or NaN unless every value is finite."""
    return np.maximum.reduce(np.abs(values), axis=None)


def _judge(peak: float, t: float) -> None:
    """BlowUp at time t when peak, a state's max|phi|, exceeds PHI_CEILING."""
    if peak > PHI_CEILING:
        raise BlowUp(f"max|phi| exceeded ceiling {PHI_CEILING:g}", time=t)


def _rk4(state, dt: float, start, velocity) -> np.ndarray:
    """y after one classical RK4 step of y' = velocity(y), y being 2 N numbers in either
    flow. Guards, as both flows have them: dt > 0 (not NaN), then start(state) = (y, k1,
    least metric, max|phi|), then cfl_limit and PHI_CEILING, both at state.t."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    y, k1, g_min, peak = start(state)
    dt_max = cfl_limit(g_min, y.size // 2)
    if dt > dt_max:
        raise StabilityViolation(
            f"dt = {dt:g} exceeds stability bound {dt_max:g}", time=state.t)
    _judge(peak, state.t)
    k2 = velocity(y + 0.5 * dt * k1)
    k3 = velocity(y + 0.5 * dt * k2)
    k4 = velocity(y + dt * k3)
    # y + dt/6 (((k1 + 2 k2) + 2 k3) + k4) in one accumulator, with the association
    # written out (IEEE sums and products are commutative); no k is written into, a
    # curve state's k1 being its kept stage
    total = k2 * 2
    total += k1
    total += k3 * 2
    total += k4
    total *= dt / 6.0
    total += y
    return total


def _start(state: CurvatureFlowState):
    return state.y, _stage(state.y), state.g_min, state.peak


def step(state: CurvatureFlowState, dt: float) -> CurvatureFlowState:
    """One guarded RK4 step (_rk4) of the rows g and phi; it also judges its result."""
    y = _rk4(state, dt, _start, _stage)
    t_new = state.t + dt
    # the result's one scan judges it: not finite, then the ceiling, then the metric
    try:
        new = CurvatureFlowState(t=t_new, g=y[0], phi=y[1])
    except DegenerateMetric:
        _judge(_peak(y[1]), t_new)
        raise
    except ValueError:
        raise BlowUp("non-finite state after step", time=t_new) from None
    _judge(new.peak, t_new)
    return new


def evolve(state: CurvatureFlowState, t_end: float, dt: float, *,
           record_stride: int = 1, observer=None) -> FlowTrajectory:
    """March to t_end on trajectory.march.

    A record step gathers t, g, phi and a NaN area (no curve exists here); each block's
    record_from_fields takes phi's xi-derivatives, as it does for the curve flow.
    """
    return march(state, t_end, dt, step, lambda s: (s.t, s.g, s.phi, math.nan),
                 record_stride=record_stride, observer=observer)
