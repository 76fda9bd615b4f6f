"""Checks of the lab's outputs, made apart from the program.

Nothing here imports centroflow. Each check raises CheckFailed with what
it compared; test_checks.py feeds every check a wrong answer. The oracles
are closed forms (the m3 curve's invariants, the shifted ellipse's
perimeter through scipy's complete elliptic integral) or properties the
method must have (monotone L, E = 2 dL/dt, the maximum principle, GL+(2)
invariance, the isoperimetric bound about the area centroid).
"""

import csv
import math

import numpy as np
from scipy.special import ellipk

TWO_PI = 2.0 * math.pi

# L is a trapezoid sum of positive samples: a decrease below 1e-12 of it is
# the roundoff of that sum, not a decrease of the flow's L.
L_MONOTONE_SLACK = 1e-12
ISOPERIMETRIC_SLACK = 1e-8

MARCH_VERDICTS = ("mean_zero", "isoperimetric", "curvature_bounds", "energy_identity",
                  "h1_identity", "L_monotone_energy_rate", "integral_E_bound",
                  "sobolev_bounded")


class CheckFailed(AssertionError):
    """A lab output disagreed with its independent reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(what: str, got: float, want: float, tol: float) -> None:
    require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol:g}")


# ------------------------------------------------------------------ marches

def check_report(report: dict, required=MARCH_VERDICTS, known_failures=()) -> None:
    """No flow error, none of the required verdicts missing, and every verdict
    passed but those of a known fault of the program."""
    require("error" not in report, f"report carries a flow error: {report.get('error')}")
    names = [v["name"] for v in report["verdicts"]]
    missing = sorted(set(required) - set(names))
    require(not missing, f"report lacks verdicts {missing}")
    failed = [v["name"] for v in report["verdicts"]
              if not v["passed"] and v["name"] not in known_failures]
    require(not failed, f"verdicts failed: {failed}")


def read_csv_columns(path) -> dict:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    require(rows, f"{path}: no rows")
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def check_row_count(columns: dict, expected: int) -> None:
    rows = len(columns["t"])
    require(rows == expected, f"CSV has {rows} rows, want {expected}")


def check_perimeter_column(L: np.ndarray) -> None:
    """L nondecreasing and at most 2 pi: the curve is centroid-centred."""
    drops = np.diff(L) < -L_MONOTONE_SLACK * L[:-1]
    require(not drops.any(), f"L decreases at row {int(np.argmax(drops)) + 1}")
    require(L.max() <= TWO_PI + ISOPERIMETRIC_SLACK,
            f"L reaches {L.max()!r} > 2 pi + {ISOPERIMETRIC_SLACK:g}")


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def check_energy_rate(t: np.ndarray, L: np.ndarray, E: np.ndarray, rtol: float) -> None:
    """dL/dt = E/2, integrated: 2 (L(T) - L(0)) equals the trapezoid of E."""
    gain = 2.0 * (L[-1] - L[0])
    integral = trapezoid(E, t)
    require(abs(gain - integral) <= rtol * abs(integral),
            f"2 (L(T) - L(0)) = {gain!r} but the trapezoid of E is {integral!r}"
            f" (rtol {rtol:g})")


def check_maximum_principle(phi_min: np.ndarray, phi_max: np.ndarray,
                            phi0_min: float, phi0_max: float, slack: float = 1e-6) -> None:
    """min(-2, phi0_min) <= phi <= max(2, phi0_max) at every record."""
    lo, hi = min(-2.0, phi0_min), max(2.0, phi0_max)
    require(phi_min.min() >= lo - slack, f"phi_min reaches {phi_min.min()!r} < {lo!r}")
    require(phi_max.max() <= hi + slack, f"phi_max reaches {phi_max.max()!r} > {hi!r}")


def m3_invariants(n: int, amplitude: float, mode: int) -> dict:
    """Closed-form L, E and phi extremes of r = 1 + amplitude cos(mode p) on n nodes.

    With C = r (cos p, sin p) every bracket is a polynomial in r and its
    p-derivatives: [C,C_p] = r^2, [C_p,C_pp] = r^2 + 2 r'^2 - r r'',
    [C,C_pp] = 2 r r', [C_p,C_ppp] = 3 r' r'' + 2 r r' - r r'''. These are
    GL(2) invariants of the sampled curve, so they hold for every map A.
    """
    p = 2.0 * np.pi * np.arange(n) / n
    k = float(mode)
    r = 1.0 + amplitude * np.cos(k * p)
    r1 = -amplitude * k * np.sin(k * p)
    r2 = -amplitude * k**2 * np.cos(k * p)
    r3 = amplitude * k**3 * np.sin(k * p)
    den = r**2
    num = r**2 + 2 * r1**2 - r * r2
    g = np.sqrt(num / den)
    phi = (1.5 * 2 * r * r1 / den - 0.5 * (3 * r1 * r2 + 2 * r * r1 - r * r3) / num) / g
    quad = TWO_PI / n
    return {"L": quad * float(g.sum()), "E": quad * float((phi**2 * g).sum()),
            "phi_min": float(phi.min()), "phi_max": float(phi.max())}


def check_initial_row(columns: dict, expected: dict, tol: float = 1e-9) -> None:
    for key in ("L", "E", "phi_min", "phi_max"):
        require_close(f"initial {key}", float(columns[key][0]), expected[key], tol)


def fit_conic(points: np.ndarray):
    """Least squares for x^T Q x = 1 over the nodes: (Q, worst |x^T Q x - 1|)."""
    x, y = points[:, 0], points[:, 1]
    design = np.column_stack([x * x, x * y, y * y])
    (qa, qb, qc), *_ = np.linalg.lstsq(design, np.ones(len(x)), rcond=None)
    q = np.array([[qa, qb / 2], [qb / 2, qc]])
    return q, float(np.abs(design @ np.array([qa, qb, qc]) - 1.0).max())


def check_origin_ellipse(points: np.ndarray, area: float = math.pi,
                         residual_tol: float = 1e-6, det_tol: float = 1e-5) -> None:
    """The points lie on an origin-centred ellipse x^T Q x = 1 of the given area.

    The ellipse's area is pi / sqrt(det Q), so area pi means det Q = 1.
    """
    q, residual = fit_conic(points)
    require(residual <= residual_tol, f"ellipse fit residual {residual:.3e} > {residual_tol:g}")
    det = float(q[0, 0] * q[1, 1] - q[0, 1] ** 2)
    require(q[0, 0] > 0 and det > 0, f"fitted form {q.tolist()} is not positive definite")
    require_close("det Q (area pi / sqrt(det Q))", det, (math.pi / area) ** 2, det_tol)


# -------------------------------------------------------------------- sweep

def shifted_ellipse_perimeter(a: float, b: float, x0: float, y0: float) -> float:
    """Centro-affine perimeter of the ellipse centred at (x0, y0) with axes a, b.

    diag(1/a, 1/b) and a rotation carry it to the unit circle centred at
    (d, 0), d = |(x0/a, y0/b)| < 1, whose metric is (1 + d cos p)^(-1/2):
    L = 4 K(m) / sqrt(1 + d) with m = 2 d / (1 + d).
    """
    d = math.hypot(x0 / a, y0 / b)
    require(d < 1.0, f"origin outside the ellipse (d = {d!r})")
    return 4.0 * float(ellipk(2.0 * d / (1.0 + d))) / math.sqrt(1.0 + d)


def spectral_derivative(points: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    k = np.fft.rfftfreq(n, 1.0 / n)
    k[-1] = 0.0  # n is even: the Nyquist mode has no odd derivative on the grid
    return np.fft.irfft(1j * k[:, None] * np.fft.rfft(points, axis=0), n=n, axis=0)


def area_centroid(points: np.ndarray) -> np.ndarray:
    """Centroid of the enclosed region: int C [C, C_p] dp / (3 A), 2 A = int [C, C_p] dp."""
    cp = spectral_derivative(points)
    s = points[:, 0] * cp[:, 1] - points[:, 1] * cp[:, 0]
    return (points * s[:, None]).sum(axis=0) / (1.5 * s.sum())


def check_isoperimetric_about_centroid(L_recentred: float) -> None:
    require(L_recentred <= TWO_PI + ISOPERIMETRIC_SLACK,
            f"L = {L_recentred!r} > 2 pi about the area centroid")


def check_phi_agrees(phi_a: np.ndarray, phi_b: np.ndarray, what: str, tol: float) -> None:
    gap = float(np.abs(phi_a - phi_b).max())
    require(gap <= tol, f"{what}: sup |phi gap| = {gap:.3e} > {tol:g}")
