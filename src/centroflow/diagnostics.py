"""Machine-checkable verdicts for the geometric identities, bounds and limits.

Each check returns a Verdict whose `passed` flag restates a quantitative
relation between `measured`, `bound` and `tolerance`; the context string
records what was compared. Verdicts are deterministic given identical inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curve import ClosedCurve
from .invariants import InvariantField, centro_affine, perimeter, xi_derivative
from .spectral import _harmonic_stack, periodic_integral
from .trajectory import FlowTrajectory

TWO_PI = 2.0 * math.pi
MIN_IDENTITY_RECORDS = 5  # fewest records check_energy_identities judges
# the record columns that do not depend on where a march's samples sit on the curve
INTEGRALS = ("L", "E", "H1", "H2", "H3", "H4", "quartic", "mixed")


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    measured: float
    bound: float
    tolerance: float
    context: str = ""

    def __post_init__(self):
        # normalize numpy scalars so reprs and JSON stay plain
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def verdict_line(v: Verdict) -> str:
    """The one-line PASS/FAIL form every command prints."""
    return (f"{'PASS' if v.passed else 'FAIL'} {v.name}: measured={v.measured!r} "
            f"bound={v.bound!r} tol={v.tolerance!r} {v.context}")


def check_mean_zero(field: InvariantField) -> Verdict:
    """Closed-curve curvature has zero mean: |closed integral of phi dxi| <= 1e-8 L."""
    L = perimeter(field)
    measured = abs(periodic_integral(field.phi * field.g))
    tol = 1e-8 * L
    return Verdict("mean_zero", measured <= tol, measured, 0.0, tol,
                   context=f"L={L!r}")


def check_isoperimetric(field: InvariantField) -> Verdict:
    """Perimeter against the 2*pi bound; equality flagged at 1e-10.

    The 2*pi bound is promised for curves whose area centroid is the origin
    (the L2 affine isoperimetric inequality). Other curves may lie above it,
    e.g. an origin-shifted ellipse; "exceeded" on such a curve is the
    measured geometry, not a numerical fault.
    """
    L = perimeter(field)
    passed = L <= TWO_PI + 1e-8
    if abs(L - TWO_PI) <= 1e-10:
        context = "equality"
    elif passed:
        context = "strict"
    else:
        context = "exceeded"
    return Verdict("isoperimetric", passed, L, TWO_PI, 1e-8, context=context)


def check_curvature_bounds(traj: FlowTrajectory, phi0_min: float, phi0_max: float) -> Verdict:
    """Extrema confinement: min(-2, phi_min(0)) <= phi <= max(2, phi_max(0))."""
    lo = min(-2.0, phi0_min)
    hi = max(2.0, phi0_max)
    worst = max(0.0, (traj.column("phi_max") - hi).max(), (lo - traj.column("phi_min")).max())
    return Verdict("curvature_bounds", worst <= 1e-6, worst, 0.0, 1e-6,
                   context=f"bounds=[{lo!r},{hi!r}]")


def check_energy_identities(traj: FlowTrajectory) -> tuple:
    """Residuals of the energy law and its first-derivative analogue.

    Uses the scale-normalized Simpson residuals already finalized on the
    trajectory; the worst interior value must stay within 1e-4 for each
    identity. A run with fewer than MIN_IDENTITY_RECORDS records fails both:
    too short to check them is not a pass.
    """
    names = ("energy_identity", "h1_identity")
    count = len(traj)
    if count < MIN_IDENTITY_RECORDS:
        context = (f"need at least {MIN_IDENTITY_RECORDS} records for Simpson stencils, "
                   f"have {count}")
        return tuple(Verdict(name, False, count, MIN_IDENTITY_RECORDS, 0.0, context=context)
                     for name in names)
    res_e = traj.column("energy_residual")[1:-1].max()
    res_h = traj.column("h1_residual")[1:-1].max()
    v1 = Verdict(names[0], res_e <= 1e-4, res_e, 0.0, 1e-4,
                 context="dE/dt = -H1 - quartic/2 + 4E, scale-normalized")
    v2 = Verdict(names[1], res_h <= 1e-4, res_h, 0.0, 1e-4,
                 context="dH1/dt = -H2 + 4*H1 - 3.5*mixed, scale-normalized")
    return v1, v2


def check_flow_equivalence(a: FlowTrajectory, b: FlowTrajectory) -> Verdict:
    """Two marches of one curve, record by record, on the parametrisation-free integrals:
    each column's gap max|a - b| / (1 + max|a|) within 1e-6, at the same record times."""
    if not np.array_equal(a.column("t"), b.column("t")):
        return Verdict("flow_equivalence", False, math.inf, 0.0, 1e-6,
                       context="the record times differ")
    gaps = {}
    for name in INTEGRALS:
        x = a.column(name)
        gaps[name] = np.abs(x - b.column(name)).max() / (1.0 + np.abs(x).max())
    worst = max(gaps, key=lambda name: (math.isnan(gaps[name]), gaps[name]))  # NaN fails
    return Verdict("flow_equivalence", gaps[worst] <= 1e-6, gaps[worst], 0.0, 1e-6,
                   context=f"worst column {worst} of {', '.join(INTEGRALS)}")


def check_monotone_L_and_integralE(traj: FlowTrajectory) -> tuple:
    """(a) L nondecreasing with E = 2 dL/dt (Simpson consistency);
    (b) accumulated integral of E bounded by 4*pi.

    Simpson form of the rate identity over each pair of record intervals:
    L(t+) - L(t-) is the integral of E/2, so 4 (L+ - L-) / (t+ - t-) matches
    (E- + 4 E0 + E+) / 3, normalized by 2 E0 + 1.
    """
    t, L, E = (traj.column(name) for name in ("t", "L", "E"))
    monotone = bool(np.all(np.diff(L) >= -1e-12 * L[:-1]))
    simpson = (E[:-2] + 4.0 * E[1:-1] + E[2:]) / 3.0
    resid = np.abs(4.0 * (L[2:] - L[:-2]) / (t[2:] - t[:-2]) - simpson) / (2.0 * E[1:-1] + 1.0)
    worst = resid.max(initial=0.0)
    v1 = Verdict("L_monotone_energy_rate", monotone and worst <= 1e-4, worst, 0.0, 1e-4,
                 context=f"monotone={monotone}, residual of E = 2 dL/dt")
    integral_e = float(np.trapezoid(E, t)) if len(t) > 1 else 0.0
    v2 = Verdict("integral_E_bound", integral_e <= 4.0 * math.pi + 1e-6,
                 integral_e, 4.0 * math.pi, 1e-6, context="trapezoid over records")
    return v1, v2


def check_sobolev_bounded(traj: FlowTrajectory) -> Verdict:
    """Each recorded Sobolev integral stays within 10x its maximum over the first
    time unit (absolute floor 1e-20 guards identically-zero trajectories)."""
    t = traj.column("t")
    t_head = t[0] + 1.0
    worst = 0.0
    orders = ("H1", "H2", "H3", "H4")
    for name in orders:
        h = traj.column(name)
        head_max = max(float(h[t <= t_head].max()), 1e-20)
        worst = max(worst, float(h.max()) / head_max)
    return Verdict("sobolev_bounded", worst <= 10.0, worst, 10.0, 0.0,
                   context=f"orders 1..{len(orders)}, first-unit reference")


def fit_origin_ellipse(points: np.ndarray):
    """Least-squares symmetric quadratic form Q with C^T Q C = 1 over the samples.

    Returns (Q, residual) with residual the worst nodewise |C^T Q C - 1|.
    Q is the fitted form whether or not it is positive definite; callers
    decide what residual/definiteness to require.
    """
    x, y = points[:, 0], points[:, 1]
    design = np.stack([x * x, 2.0 * x * y, y * y], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.ones(len(x)), rcond=None)
    q = np.array([[coef[0], coef[1]], [coef[1], coef[2]]])
    residual = float(np.abs(design @ coef - 1.0).max())
    return q, residual


def check_convergence_to_ellipse(final_curve: ClosedCurve) -> Verdict:
    """Forward-limit proxies: sup|phi| <= 1e-4, |L - 2pi| <= 1e-3, and an
    origin-centered positive-definite quadratic-form fit residual <= 1e-6."""
    field = centro_affine(final_curve)
    sup_phi = float(np.abs(field.phi).max())
    L_gap = abs(perimeter(field) - TWO_PI)
    q, residual = fit_origin_ellipse(final_curve.points)
    definite = bool(np.all(np.linalg.eigvalsh(q) > 0))
    passed = sup_phi <= 1e-4 and L_gap <= 1e-3 and residual <= 1e-6 and definite
    return Verdict("convergence_to_ellipse", passed, residual, 0.0, 1e-6,
                   context=f"sup_phi={sup_phi!r}, L_gap={L_gap!r}, definite={definite}")


def explicit_ellipse_family(a0: float, b0: float, t: float, n: int = 256) -> ClosedCurve:
    """The closed-form solution family: scale factor (a0 b0)^((e^(2t) - 1)/2)
    applied to the ellipse (a0 cos, b0 sin). a0 b0 = 1 is the static member;
    the enclosed area is pi (a0 b0)^(e^(2t)) and tends to pi as t -> -infinity."""
    if a0 <= 0 or b0 <= 0:
        raise ValueError("family axes must be positive")
    scale = (a0 * b0) ** ((math.exp(2.0 * t) - 1.0) / 2.0)
    (cos,), (sin,) = _harmonic_stack(n, 1)
    pts = scale * np.stack([a0 * cos, b0 * sin], axis=1)
    return ClosedCurve(pts, name=f"family({a0},{b0},t={t})")


def family_area(a0: float, b0: float, t: float) -> float:
    """Closed-form enclosed area of the family member."""
    return math.pi * (a0 * b0) ** math.exp(2.0 * t)


def check_backward_limit_on_family(a0: float, b0: float, t_list, n: int = 256) -> Verdict:
    """Backward-limit witness on the explicit family only.

    For each time in the finite, strictly decreasing t_list: sup norms of phi and its
    first two xi-derivatives stay below 1e-10, the sampled area matches the
    closed form to 1e-10, and |area - pi| is nonincreasing as t decreases.
    """
    t_list = list(t_list)
    if not all(map(math.isfinite, t_list)):
        raise ValueError("t_list must be finite")
    if len(t_list) < 2 or any(b >= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly decreasing with at least two entries")
    worst_phi = 0.0
    worst_area = 0.0
    deviations = []
    for t in t_list:
        curve = explicit_ellipse_family(a0, b0, t, n)
        field = centro_affine(curve)
        sup = float(np.abs(field.phi).max())
        for order in (1, 2):
            sup = max(sup, float(np.abs(xi_derivative(field.phi, field.g, order)).max()))
        worst_phi = max(worst_phi, sup)
        area = curve.enclosed_area()
        worst_area = max(worst_area, abs(area - family_area(a0, b0, t)))
        deviations.append(abs(area - math.pi))
    toward_pi = all(b <= a + 1e-12 for a, b in zip(deviations, deviations[1:]))
    passed = worst_phi <= 1e-10 and worst_area <= 1e-10 and toward_pi
    return Verdict("backward_limit_family", passed, worst_phi, 0.0, 1e-10,
                   context=f"area_err={worst_area!r}, monotone_to_pi={toward_pi}")
