"""Diagnostics records, trajectories, and the one march driver of both flows."""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MARCH_ERRORS
from .invariants import xi_derivative
from .spectral import periodic_integral


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled diagnostics row.

    sobolev[i-1] holds the integral of (d^i phi/d xi^i)^2 d(xi), i = 1..4. The identity
    residuals are centered-difference residuals of the energy law and its
    first-derivative analogue, normalized by their own scale; they are NaN at
    the trajectory endpoints (no centered difference there) and on records
    where they have not been finalized. quartic and mixed are the auxiliary
    integrals of phi^4 and phi^2 phi_xi^2 the residuals need. area is the
    Euclidean enclosed area of the evolving curve, NaN for scalar-flow
    trajectories (no curve exists there).
    """

    t: float
    L: float
    E: float
    phi_min: float
    phi_max: float
    mean_phi: float
    sobolev: tuple
    energy_residual: float = math.nan
    h1_residual: float = math.nan
    area: float = math.nan
    quartic: float = 0.0
    mixed: float = 0.0


def record_from_fields(t: float, g: np.ndarray, phi: np.ndarray, phi_xi: np.ndarray,
                       phi_xixi: np.ndarray, area: float = math.nan) -> DiagnosticsRecord:
    """Assemble a record from metric and curvature samples.

    phi_xi and phi_xixi are xi_derivative(phi, g, 1) and xi_derivative(phi_xi,
    g, 1), which the caller has at hand; H3 and H4 continue from them.
    """
    L = periodic_integral(g)
    E = periodic_integral(phi**2 * g)
    phi_3 = xi_derivative(phi_xixi, g, 1)
    phi_4 = xi_derivative(phi_3, g, 1)
    return DiagnosticsRecord(
        t=t,
        L=L,
        E=E,
        phi_min=float(phi.min()),
        phi_max=float(phi.max()),
        mean_phi=periodic_integral(phi * g) / L,
        sobolev=tuple(periodic_integral(f**2 * g) for f in (phi_xi, phi_xixi, phi_3, phi_4)),
        quartic=periodic_integral(phi**4 * g),
        mixed=periodic_integral(phi**2 * phi_xi**2 * g),
        area=area,
    )


@dataclass
class FlowTrajectory:
    """Time-ordered diagnostics records plus optional state snapshots.

    `final` holds the last evolved state (a CurvatureFlowState or a
    CurveFlowState, depending on which flow produced the trajectory).
    """

    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (t, object) pairs
    final: object = None

    def __len__(self):
        return len(self.records)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def finalize_residuals(self) -> None:
        """Fill identity residuals on interior records by centered differencing.

        Energy law:  dE/dt = -H1 - quartic/2 + 4E, normalized by (H1 + E + 1).
        H1 law:      dH1/dt = -H2 + 4 H1 - 3.5 mixed, normalized by (H2 + H1 + 1).
        The time derivatives are estimated from the recorded values only, so
        the checks stay two-sided.
        """
        rs = self.records
        if len(rs) < 3:
            return
        for i in range(1, len(rs) - 1):
            dt2 = rs[i + 1].t - rs[i - 1].t
            dE = (rs[i + 1].E - rs[i - 1].E) / dt2
            h1, h2 = rs[i].sobolev[0], rs[i].sobolev[1]
            res_e = abs(dE - (-h1 - 0.5 * rs[i].quartic + 4.0 * rs[i].E))
            res_e /= h1 + rs[i].E + 1.0
            dh1 = (rs[i + 1].sobolev[0] - rs[i - 1].sobolev[0]) / dt2
            res_h = abs(dh1 - (-h2 + 4.0 * h1 - 3.5 * rs[i].mixed))
            res_h /= h2 + h1 + 1.0
            rs[i] = replace(rs[i], energy_residual=res_e, h1_residual=res_h)


def plan_steps(t0: float, t_end: float, dt: float) -> int:
    """Number of dt steps from t0 to t_end; ValueError unless it is a positive whole number."""
    if t_end <= t0:
        raise ValueError("t_end must exceed the state's time")
    n_steps = round((t_end - t0) / dt)
    if n_steps < 1 or abs(t0 + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"horizon {t_end - t0:g} is not an integer multiple of dt = {dt:g}")
    return n_steps


def march(state, t_end: float, dt: float, advance, record, *, record_stride: int,
          observer, snapshot, snapshot_stride: int) -> FlowTrajectory:
    """March state to t_end by advance(state, dt); the one loop of both flows' evolve.

    Every record_stride steps, record(state) is kept and handed to the
    observer with its state; every snapshot_stride steps (0: never),
    snapshot(state). Flow and geometry errors from a step or a record are
    re-raised with the failure time attached.
    """
    n_steps = plan_steps(state.t, t_end, dt)
    traj = FlowTrajectory()

    def emit(current):
        rec = record(current)
        traj.records.append(rec)
        if observer is not None:
            observer(current, rec)

    emit(state)
    if snapshot_stride:
        traj.snapshots.append((state.t, snapshot(state)))
    current = state
    for i in range(1, n_steps + 1):
        try:
            current = advance(current, dt)
            if i % record_stride == 0:
                emit(current)
        except MARCH_ERRORS as exc:
            if exc.time is None:
                exc.time = current.t
            raise
        if snapshot_stride and i % snapshot_stride == 0:
            traj.snapshots.append((current.t, snapshot(current)))
    traj.final = current
    traj.finalize_residuals()
    return traj
