"""Centro-equiaffine and centro-affine differential invariants of closed curves.

The centro-equiaffine arc-length density is s = [C, C_p] and the curvature
mu = [C_sigma, C_sigmasigma] satisfies mu*C + C_sigmasigma = 0. The
centro-affine metric is g = sqrt(eps*[C_p, C_pp]/[C, C_p]) with eps the
common sign of the ratio, and the centro-affine curvature is

    phi = sqrt(eps*[C, C_p]/[C_p, C_pp])
          * (1.5*[C, C_pp]/[C, C_p] - 0.5*[C_p, C_ppp]/[C_p, C_pp]).

phi_from_mu provides an independent route, phi = -(eps/2)(eps*mu)^(-3/2) mu_sigma.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curve import SIGN_TOL, ClosedCurve, _one_strict_sign, bracket
from .errors import DegenerateMetric, NonConstantSign, NotStarShaped
from .spectral import antiderivative, derivative, periodic_integral


@dataclass(frozen=True)
class InvariantField:
    """All differential invariants of one curve, sampled on its grid.

    epsilon: common sign of [C_p,C_pp]/[C,C_p] (+1 for every valid closed curve);
    g: centro-affine metric d(xi)/dp; phi: centro-affine curvature; curve: the
    curve they were taken from. xi is made on its first read. sigma_density
    (d(sigma)/dp) and mu (the centro-equiaffine curvature) are computed from the
    curve on each read, through centro_equiaffine: mu scales as the inverse
    fourth power of the curve's size and can overflow where g and phi, which
    are scale-invariant, do not, so only reading it raises.
    """

    epsilon: int
    g: np.ndarray
    phi: np.ndarray
    curve: ClosedCurve = field(repr=False, compare=False)

    @cached_property
    def xi(self) -> np.ndarray:
        """Arc length anchored at p = 0, antiderivative(g): made on first read, read-only."""
        xi = antiderivative(self.g)
        xi.setflags(write=False)
        return xi

    @property
    def sigma_density(self) -> np.ndarray:
        return centro_equiaffine(self.curve)[0]

    @property
    def mu(self) -> np.ndarray:
        return centro_equiaffine(self.curve)[1]


def _star_density(points: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """s = [C, C_p], componentwise; NotStarShaped unless it keeps one strict sign."""
    s = points[:, 0] * cp[:, 1] - points[:, 1] * cp[:, 0]
    if not _one_strict_sign(s):
        raise NotStarShaped("[C, C_p] changes sign: curve is not star-shaped")
    return s


def _equiaffine(curve: ClosedCurve):
    """(s, mu, max|mu|) of a star-shaped curve from its derivative batch; DegenerateMetric
    when mu is not finite, as on a curve near 1e-80 in size.

    mu is evaluated by the chain rule through the free parameter: C_sigma = C_p/s,
    C_sigmasigma = (C_pp - (s_p/s) C_p)/s^2 with s = [C, C_p].
    """
    derivs = curve._derivatives
    cp, cpp = derivs[:, 0], derivs[:, 1]
    s = _star_density(curve.points, cp)
    s_p = derivative(s)
    c_sigma = cp / s[:, None]
    c_sigma2 = (cpp - (s_p / s)[:, None] * cp) / (s**2)[:, None]
    mu = bracket(c_sigma, c_sigma2)
    peak = np.maximum.reduce(np.abs(mu))
    if not peak < math.inf:
        raise DegenerateMetric("centro-equiaffine curvature mu is not finite on the grid")
    return s, mu, peak


def centro_equiaffine(curve: ClosedCurve):
    """Return (sigma_density, mu) for a star-shaped curve; see _equiaffine."""
    return _equiaffine(curve)[:2]


def _metric_curvature(points: np.ndarray, derivs: np.ndarray):
    """Lean core shared with the curve flow: (cp, cpp, den, eps, g, phi, least), where
    least is the radicand's minimum, so sqrt(least) is min(g) bit for bit (sqrt is
    monotone and correctly rounded).

    derivs is the (N, 3, 2) batch of C_p, C_pp and C_ppp: the curve's own
    (ClosedCurve._derivatives), or the one a curve-flow stage makes. The brackets
    are written out componentwise.
    """
    cp, cpp = derivs[:, 0], derivs[:, 1]
    x, y = points[:, 0], points[:, 1]
    xp, yp = cp[:, 0], cp[:, 1]
    xpp, ypp = cpp[:, 0], cpp[:, 1]
    xppp, yppp = derivs[:, 2, 0], derivs[:, 2, 1]

    den = _star_density(points, cp)      # [C, C_p]
    num = xp * ypp - yp * xpp            # [C_p, C_pp]

    # the guards read the ratio's extremes only: eps is the sign np.sign gives every
    # node (a NaN has none), and the extremes of the radicand eps * ratio are eps times them
    ratio = num / den
    lo, hi = np.minimum.reduce(ratio), np.maximum.reduce(ratio)
    if lo > 0:
        eps, least, most = 1, lo, hi
    elif hi < 0:
        eps, least, most = -1, -hi, -lo
    elif lo == hi == 0:
        eps, least, most = 0, 0.0, 0.0
    else:
        raise NonConstantSign("sign of [C_p, C_pp]/[C, C_p] varies over the grid")
    if least <= SIGN_TOL * most:
        raise DegenerateMetric("metric radicand [C_p, C_pp]/[C, C_p] vanishes on the grid")
    g = np.sqrt(ratio if eps == 1 else -ratio)

    # sqrt(eps*den/num) is 1/g; no extra radicand to guard
    phi = (1.0 / g) * (1.5 * (x * ypp - y * xpp) / den          # [C, C_pp]
                       - 0.5 * (xp * yppp - yp * xppp) / num)   # [C_p, C_ppp]
    return cp, cpp, den, eps, g, phi, least


def centro_affine(curve: ClosedCurve) -> InvariantField:
    """Full invariant field of a star-shaped curve with one-signed [C_p, C_pp], from
    the curve's derivative batch."""
    _, _, _, eps, g, phi, _ = _metric_curvature(curve.points, curve._derivatives)
    return InvariantField(epsilon=eps, g=g, phi=phi, curve=curve)


def phi_from_mu(curve: ClosedCurve) -> np.ndarray:
    """Centro-affine curvature via the centro-equiaffine relation.

    Independent cross-check of centro_affine: phi = -(1/2) mu^(-3/2) mu_sigma
    with mu_sigma = mu_p / sigma_density (the eps = +1 branch; mu must be
    positive everywhere).
    """
    s, mu, peak = _equiaffine(curve)
    # mu is finite here, so its minimum decides as a scan of every sample would
    if np.minimum.reduce(mu) <= SIGN_TOL * peak:
        raise DegenerateMetric("mu is not positive: eps = +1 relation not applicable")
    mu_sigma = derivative(mu) / s
    # mu^(-3/2) as 1/(mu sqrt(mu)): exact IEEE operations, where numpy's power gives
    # bits that depend on the loop the CPU dispatches
    return -0.5 * mu_sigma / (mu * np.sqrt(mu))


def perimeter(field: InvariantField) -> float:
    """Centro-affine perimeter L = closed integral of d(xi)."""
    return periodic_integral(field.g)


def energy(field: InvariantField) -> float:
    """E = closed integral of phi^2 d(xi)."""
    return periodic_integral(field.phi**2 * field.g)


def _check_metric(g: np.ndarray) -> None:
    """DegenerateMetric when a sample of g is zero or negative; a NaN is passed over,
    as np.any(g <= 0) passes it (np.fmin skips NaN)."""
    if np.fmin.reduce(g, axis=None) <= 0:
        raise DegenerateMetric("metric g must be positive for xi-derivatives")


def xi_derivative(values: np.ndarray, g: np.ndarray, order: int = 1) -> np.ndarray:
    """Apply d/d(xi) = (1/g) d/dp `order` times."""
    if order < 1:
        raise ValueError(f"xi-derivative order must be >= 1, got {order}")
    g = np.asarray(g, dtype=float)
    _check_metric(g)
    out = np.asarray(values, dtype=float)
    for _ in range(order):
        out = derivative(out) / g
    return out


def sobolev_norm(field: InvariantField, n: int) -> float:
    """Closed integral of (d^n phi / d xi^n)^2 d(xi); n = 0 reproduces the energy."""
    if n < 0:
        raise ValueError(f"sobolev order must be >= 0, got {n}")
    if n == 0:
        return energy(field)
    f = xi_derivative(field.phi, field.g, n)
    return periodic_integral(f**2 * field.g)
