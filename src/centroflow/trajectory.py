"""Diagnostics records, trajectories, and the one march driver of both flows."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MARCH_ERRORS
from .spectral import derivative


# A record is one row of these columns: the CSV columns, then the integrals of
# phi^4 and phi^2 phi_xi^2 that only the identity residuals read
CSV_COLUMNS = ("t", "L", "E", "phi_min", "phi_max", "mean_phi",
               "H1", "H2", "H3", "H4", "energy_residual", "h1_residual", "area")
COLUMNS = CSV_COLUMNS + ("quartic", "mixed")


def record_from_fields(t, g: np.ndarray, phi: np.ndarray, phi_xi: np.ndarray,
                       phi_xixi: np.ndarray, area=math.nan) -> np.ndarray:
    """Records, rows in COLUMNS order, from metric and curvature samples.

    The fields are a block's column-major (N, B) samples, one column per record,
    and give B rows; t and area are a number or B of them. A 1-D field is a block
    of one and gives its one row. phi_xi and phi_xixi are xi_derivative(phi, g, 1)
    and xi_derivative(phi_xi, g, 1), which the caller has at hand; H3 and H4
    continue from them, one derivative call per order for the whole block. Hn is
    the integral of (d^n phi/d xi^n)^2 d(xi). The residuals are NaN until
    FlowTrajectory.finalize_residuals fills them; area is the Euclidean enclosed
    area of the evolving curve, NaN for scalar-flow trajectories (no curve exists
    there).

    The nine integrals are periodic_integral's arithmetic on the rows of one
    (B, 9, N) stack of integrands, each the product of its factors with g last, so
    one reduction along the contiguous grid axis gives them bit for bit. The
    derivative's trim takes a pairwise column norm too, so a C-ordered block is
    copied column-major first: summed across its columns, the norm can differ in
    its last bits.
    """
    n, single = len(g), np.ndim(g) == 1
    g, phi, phi_xi, phi_xixi = (np.asfortranarray(np.reshape(f, (n, -1)))
                                for f in (g, phi, phi_xi, phi_xixi))
    phi_3 = derivative(phi_xixi) / g
    phi_4 = derivative(phi_3) / g
    rows = np.empty((phi.shape[1], 9, n))
    rows[:, 0] = 1.0                                     # L
    np.square(phi.T, out=rows[:, 1])                     # E
    rows[:, 2] = phi.T                                   # mean_phi, times L
    for row, f in enumerate((phi_xi, phi_xixi, phi_3, phi_4), 3):
        np.square(f.T, out=rows[:, row])                 # H1..H4
    np.square(rows[:, 1], out=rows[:, 7])                # quartic, (phi^2)^2
    np.multiply(rows[:, 1], rows[:, 3], out=rows[:, 8])  # mixed
    rows *= g.T[:, None]
    integrals = np.add.reduce(rows, axis=2)
    integrals /= n
    integrals *= 2.0 * np.pi
    table = np.empty((len(integrals), len(COLUMNS)))
    table[:, 0] = t
    table[:, 1:3] = integrals[:, :2]                      # L, E
    np.minimum.reduce(phi, out=table[:, 3])               # phi_min
    np.maximum.reduce(phi, out=table[:, 4])               # phi_max
    np.divide(integrals[:, 2], integrals[:, 0], out=table[:, 5])   # mean_phi
    table[:, 6:10] = integrals[:, 3:7]                    # H1..H4
    table[:, 10:12] = math.nan                            # the residuals
    table[:, 12] = area
    table[:, 13:] = integrals[:, 7:]                      # quartic, mixed
    return table[0] if single else table


# the most middle records whose identity residuals finalize_residuals takes at once
_RESIDUAL_ROWS = 1024


@dataclass
class FlowTrajectory:
    """Time-ordered records plus optional state snapshots.

    `records` is one float64 (R, len(COLUMNS)) table, a record per row in COLUMNS
    order; a list of rows given to the constructor is converted once. `final`
    holds the last evolved state (a CurvatureFlowState or a CurveFlowState,
    depending on which flow produced the trajectory).
    """

    records: np.ndarray = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (t, object) pairs
    final: object = None

    def __post_init__(self):
        table = np.array(self.records, dtype=float)
        self.records = table.reshape(len(table), len(COLUMNS))

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        """A view of one column of the table."""
        return self.records[:, COLUMNS.index(name)]

    def finalize_residuals(self) -> None:
        """Fill the identity residuals of interior records by Simpson's rule, in place.

        Energy law:  dE/dt = -H1 - quartic/2 + 4E, normalized by (H1 + E + 1).
        H1 law:      dH1/dt = -H2 + 4 H1 - 3.5 mixed, normalized by (H2 + H1 + 1).
        Over each pair of record intervals, X(t+) - X(t-) is compared with
        (t+ - t-)/6 (R- + 4 R0 + R+), R the law's right side, per unit of t+ - t-
        and normalized at the middle record: fourth order in the record spacing.
        The endpoints keep NaN (no stencil). The stencils are taken _RESIDUAL_ROWS
        middle records at a time, so the temporaries stay that size however long the
        march; every operation is elementwise, so the residuals are those of one pass.
        """
        columns = [self.column(name) for name in ("t", "E", "H1", "H2", "quartic", "mixed")]
        energy, h1_law = self.column("energy_residual"), self.column("h1_residual")
        for start in range(0, len(self) - 2, _RESIDUAL_ROWS):
            t, E, h1, h2, quartic, mixed = (c[start:start + _RESIDUAL_ROWS + 2] for c in columns)
            span = t[2:] - t[:-2]
            for residual, x, rate, norm in (
                    (energy, E, -h1 - 0.5 * quartic + 4.0 * E, h1 + E + 1.0),
                    (h1_law, h1, -h2 + 4.0 * h1 - 3.5 * mixed, h2 + h1 + 1.0)):
                simpson = (rate[:-2] + 4.0 * rate[1:-1] + rate[2:]) / 6.0
                residual[start + 1:start + 1 + len(span)] = (
                    np.abs((x[2:] - x[:-2]) / span - simpson) / norm[1:-1])


# the most steps one plan may take; read at call time. 1250 times the 80 000 steps of
# the longest bundled plan, and about half a day of curve steps at N 256
MAX_STEPS = 10**8


def plan_steps(t0: float, t_end: float, dt: float) -> int:
    """Number of dt steps from t0 to t_end; ValueError unless dt is positive, and the
    number is a whole number from 1 to MAX_STEPS and the float clock resolves one step of
    dt all the way to the horizon."""
    if not dt > 0:  # NaN included
        raise ValueError("dt must be positive")
    if t_end <= t0:
        raise ValueError("t_end must exceed the state's time")
    steps = (t_end - t0) / dt
    if not math.isfinite(steps):
        raise ValueError(f"horizon {t_end - t0:g} is too long to plan in steps of dt = {dt:g}")
    clock = max(abs(t0), abs(t_end))
    if math.ulp(clock) >= dt:
        raise ValueError(f"the float clock near t = {clock:g} cannot resolve steps of "
                         f"dt = {dt:g}")
    n_steps = round(steps)
    if n_steps > MAX_STEPS:
        raise ValueError(f"horizon {t_end - t0:g} takes {n_steps} steps of dt = {dt:g}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    if n_steps < 1 or abs(t0 + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"horizon {t_end - t0:g} is not an integer multiple of dt = {dt:g}")
    return n_steps


# the most record steps whose inputs march holds before it turns them into rows; read
# at call time. Measured on 2 cores at N 256 (the scalar-records bench): 16 was the
# fastest of 8, 16 and 32, and 32 raised the run's peak memory by 2 %
RECORD_BLOCK = 16


def march(state, t_end: float, dt: float, advance, gather, record, *, record_stride: int,
          observer, snapshot, snapshot_stride: int) -> FlowTrajectory:
    """March state to t_end by advance(state, dt); the one loop of both flows' evolve.

    Every record_stride steps, gather(state) takes the record inputs of the state
    (a tuple of a time, (N,) fields and numbers) and the observer, if any, is
    called with the state. The inputs of at most RECORD_BLOCK record steps are
    held, by reference; when the block fills and after the last step,
    record(*columns) turns them into rows, each column the block's column-major
    (N, B) field or its B numbers (record_from_fields' arguments). Every
    snapshot_stride steps (0: never), snapshot(state) is kept; step 0, the given
    state, is recorded and kept in the same loop as every later step. Flow and
    geometry errors from a step or a record are re-raised with the failure time
    attached, the start time for step 0's record; the inputs still held are dropped
    with the trajectory. Each block's rows go to their own rows of the one table,
    the trajectory's records, sized from the plan.
    """
    n_steps = plan_steps(state.t, t_end, dt)
    block = RECORD_BLOCK
    traj = FlowTrajectory()
    traj.records = np.empty((1 + n_steps // record_stride, len(COLUMNS)))
    pending = []

    def flush(end):
        traj.records[end - len(pending):end] = record(
            *(np.array(column).T for column in zip(*pending)))
        pending.clear()

    current = state
    for i in range(n_steps + 1):
        try:
            if i > 0:
                current = advance(current, dt)
            if i % record_stride == 0:
                pending.append(gather(current))
                if observer is not None:
                    observer(current)
                if len(pending) >= block:
                    flush(i // record_stride + 1)
        except MARCH_ERRORS as exc:
            if exc.time is None:
                exc.time = current.t
            raise
        if snapshot_stride and i % snapshot_stride == 0:
            traj.snapshots.append((current.t, snapshot(current)))
    if pending:
        flush(len(traj))
    traj.final = current
    traj.finalize_residuals()
    return traj
