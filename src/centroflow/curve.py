"""Closed plane curves on the uniform periodic grid, with presets and shape checks."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMetric, NotStarShaped
from .spectral import (_derivative_batch, _harmonic, _trimmed_spectrum, derivative, grid,
                       periodic_integral)

# relative tolerance for "one strict sign" in the bracket sign scans
SIGN_TOL = 1e-12


def bracket(a, b):
    """Determinant [a, b] = a_x b_y - a_y b_x, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def enclosed_area_of(points: np.ndarray, cp=None) -> float:
    """Signed Euclidean area 1/2 * integral of [C, C_p] of samples C; positive for CCW curves."""
    cp = derivative(points, 1) if cp is None else cp
    return 0.5 * periodic_integral(bracket(points, cp))


@dataclass(frozen=True)
class ClosedCurve:
    """Uniformly sampled closed curve: points[k] = C(2*pi*k/N).

    Immutable value; derived curves are new instances. The (N, 2) points are
    stored component-major (Fortran order), so each coordinate, its spectrum
    and the arrays computed from them are contiguous along the grid.
    Star-shapedness is *not* enforced here (the checks below and the invariant
    pipeline decide admissibility), only grid size and finiteness. It keeps one
    derived array, _derivatives.
    """

    points: np.ndarray
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"curve samples must have shape (N, 2), got {pts.shape}")
        n = pts.shape[0]
        if n < 16:
            raise ValueError(f"grid size must be >= 16, got {n}")
        if n % 2 != 0:
            raise ValueError(f"grid size must be even, got {n}")
        if not np.isfinite(pts).all():
            raise ValueError("curve samples must be finite")
        pts = np.array(pts, order="F")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> np.ndarray:
        return grid(self.n)

    @cached_property
    def _derivatives(self) -> np.ndarray:
        """(N, 3, 2): C_p, C_pp, C_ppp from one forward and one inverse transform, made on
        first read and kept, read-only: its derivatives of orders 1-3, its area, its
        shape checks and its invariants all read it."""
        spec = _trimmed_spectrum(self.points)
        # the trim zeroes every coefficient of a nonzero curve only when the spectrum
        # norm it is relative to overflows
        if not spec.any() and self.points.any():
            raise DegenerateMetric("curve spectrum norm overflows: coordinates up to "
                                   f"{np.abs(self.points).max():g} are beyond the float range")
        derivs = _derivative_batch(spec, self.n)
        derivs.setflags(write=False)
        return derivs

    def derivative(self, order: int = 1) -> np.ndarray:
        """Componentwise spectral derivative d^order C / dp^order; orders 1-3 are
        read-only views of the kept derivative batch."""
        if not 1 <= order <= 3:
            return derivative(self.points, order)
        return self._derivatives[:, order - 1]

    def enclosed_area(self) -> float:
        """Signed Euclidean area 1/2 * integral of [C, C_p]; positive for CCW curves."""
        return enclosed_area_of(self.points, self.derivative(1))

    def scaled(self, factor: float) -> "ClosedCurve":
        return ClosedCurve(self.points * factor, name=self.name)


def _one_strict_sign(values: np.ndarray) -> bool:
    """The one sign scan: every value beyond SIGN_TOL times the largest, on one side of 0.

    It reads only the extremes; a NaN makes both NaN, and every comparison then fails."""
    lo, hi = np.minimum.reduce(values), np.maximum.reduce(values)
    tol = SIGN_TOL * max(-lo, hi)
    return bool(lo > tol or hi < -tol)


def _shape(curve: ClosedCurve):
    """(star-shaped, convex): sign scans of [C, C_p] and [C_p, C_pp] from one derivative batch."""
    derivs = curve._derivatives
    return (_one_strict_sign(bracket(curve.points, derivs[:, 0])),
            _one_strict_sign(bracket(derivs[:, 0], derivs[:, 1])))


def check_star_shaped(curve: ClosedCurve) -> bool:
    """True iff [C, C_p] keeps one strict sign at every node."""
    return _shape(curve)[0]


def check_convex(curve: ClosedCurve) -> bool:
    """True iff [C_p, C_pp] keeps one strict sign at every node."""
    return _shape(curve)[1]


# ---------------------------------------------------------------------------
# presets

DEFAULT_N = 256


def origin_ellipse(a: float, b: float, n: int = DEFAULT_N) -> ClosedCurve:
    """Ellipse (a cos p, b sin p) centered at the origin."""
    if a <= 0 or b <= 0:
        raise ValueError("ellipse axes must be positive")
    cos, sin = _harmonic(n, 1)
    return ClosedCurve(np.stack([a * cos, b * sin], axis=1), name=f"origin_ellipse({a},{b})")


def shifted_ellipse(a: float, b: float, x0: float, y0: float, n: int = DEFAULT_N) -> ClosedCurve:
    """Ellipse with center displaced to (x0, y0). Not validated: the origin may be exterior."""
    if a <= 0 or b <= 0:
        raise ValueError("ellipse axes must be positive")
    cos, sin = _harmonic(n, 1)
    return ClosedCurve(np.stack([x0 + a * cos, y0 + b * sin], axis=1),
                       name=f"shifted_ellipse({a},{b},{x0},{y0})")


def perturbed_ellipse(a: float, b: float, amplitude: float, mode: int,
                      n: int = DEFAULT_N, require_convex: bool = False) -> ClosedCurve:
    """Radially perturbed ellipse (1 + amplitude*cos(mode*p)) * (a cos p, b sin p).

    Validated star-shaped; convexity additionally when requested. The
    perturbation mode must stay below N/8 to keep the sampling aliasing-free.
    """
    if a <= 0 or b <= 0:
        raise ValueError("ellipse axes must be positive")
    if mode < 1 or mode > n // 8:
        raise ValueError(f"perturbation mode must be in [1, N/8] = [1, {n // 8}], got {mode}")
    r = 1.0 + amplitude * _harmonic(n, mode)[0]
    if r.min() <= 0:
        raise NotStarShaped("perturbation amplitude drives the radius through zero")
    cos, sin = _harmonic(n, 1)
    curve = ClosedCurve(np.stack([r * a * cos, r * b * sin], axis=1),
                        name=f"perturbed_ellipse({a},{b},{amplitude},{mode})")
    _validate_preset(curve, require_convex)
    return curve


def star_convex(cos_coeffs, sin_coeffs, r0: float = 1.0,
                n: int = DEFAULT_N, require_convex: bool = True) -> ClosedCurve:
    """Star-shaped curve r(p)(cos p, sin p) with r = r0 + sum_k (a_k cos kp + b_k sin kp).

    cos_coeffs[k-1], sin_coeffs[k-1] are the mode-k coefficients. Validated
    star-shaped, and convex by default (this preset exists to feed the
    convex-curve property sweeps).
    """
    return _star(cos_coeffs, sin_coeffs, r0, n, require_convex, "star_convex")


def _star(cos_coeffs, sin_coeffs, r0: float, n: int, require_convex: bool,
          name: str) -> ClosedCurve:
    """The body of star_convex and random_star_convex; name is the validated curve's own."""
    cos_coeffs = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
    sin_coeffs = np.atleast_1d(np.asarray(sin_coeffs, dtype=float))
    if len(cos_coeffs) != len(sin_coeffs):
        raise ValueError("cos and sin coefficient lists must have equal length")
    if len(cos_coeffs) > n // 8:
        raise ValueError("radius modes must stay below N/8")
    r = np.full(n, float(r0))
    for k, (a, b) in enumerate(zip(cos_coeffs, sin_coeffs), start=1):
        cos, sin = _harmonic(n, k)
        r += a * cos + b * sin
    if r.min() <= 0:
        raise NotStarShaped("radius function is not positive")
    cos, sin = _harmonic(n, 1)
    curve = ClosedCurve(np.stack([r * cos, r * sin], axis=1), name=name)
    _validate_preset(curve, require_convex)
    return curve


def random_star_convex(seed: int, n: int = DEFAULT_N, modes: int = 5,
                       margin: float = 0.4) -> ClosedCurve:
    """Deterministic random convex star preset for property sweeps.

    Coefficients are drawn uniformly then rescaled so that
    sum_k (1 + k^2)(|a_k| + |b_k|) = margin (< 1), which bounds
    [C_p, C_pp] = r^2 + 2 r'^2 - r r'' away from zero.
    """
    if modes < 1:
        raise ValueError(f"random_star_convex needs at least 1 mode, got {modes}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, modes)
    b = rng.uniform(-1.0, 1.0, modes)
    k = np.arange(1, modes + 1)
    weight = np.sum((1.0 + k**2) * (np.abs(a) + np.abs(b)))
    a *= margin / weight
    b *= margin / weight
    return _star(a, b, 1.0, n, True, f"random_star_convex(seed={seed})")


def _validate_preset(curve: ClosedCurve, require_convex: bool) -> None:
    star_shaped, convex = _shape(curve)
    if not star_shaped:
        raise NotStarShaped(f"preset {curve.name or 'curve'} is not star-shaped")
    if require_convex and not convex:
        raise DegenerateMetric(f"preset {curve.name or 'curve'} is not convex")


_PRESETS = {
    "origin_ellipse": origin_ellipse,
    "shifted_ellipse": shifted_ellipse,
    "perturbed_ellipse": perturbed_ellipse,
    "star_convex": star_convex,
    "random_star_convex": random_star_convex,
}


def preset(kind: str, n: int = DEFAULT_N, **params) -> ClosedCurve:
    """Construct a preset curve by name; see the individual constructors."""
    try:
        maker = _PRESETS[kind]
    except KeyError:
        raise ValueError(f"unknown preset kind {kind!r}; known: {sorted(_PRESETS)}") from None
    return maker(n=n, **params)
