"""Centro-equiaffine and centro-affine differential invariants of closed curves.

The centro-equiaffine arc-length density is s = [C, C_p] and the curvature
mu = [C_sigma, C_sigmasigma] satisfies mu*C + C_sigmasigma = 0. The
centro-affine metric is g = sqrt(eps*[C_p, C_pp]/[C, C_p]) with eps the
common sign of the ratio, and the centro-affine curvature is

    phi = sqrt(eps*[C, C_p]/[C_p, C_pp])
          * (1.5*[C, C_pp]/[C, C_p] - 0.5*[C_p, C_ppp]/[C_p, C_pp]).

phi_from_mu provides an independent route, phi = -(eps/2)(eps*mu)^(-3/2) mu_sigma.
centro_affine, centro_equiaffine and phi_from_mu read the curve's kept bracket pair
(ClosedCurve._brackets).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curve import SIGN_TOL, ClosedCurve, _one_strict_sign
from .errors import DegenerateMetric, NonConstantSign, NotStarShaped
from .spectral import antiderivative, derivative, periodic_integral


@dataclass(frozen=True)
class InvariantField:
    """All differential invariants of one curve, sampled on its grid.

    epsilon: common sign of [C_p,C_pp]/[C,C_p] (+1 for every valid closed curve);
    g: centro-affine metric d(xi)/dp; phi: centro-affine curvature; curve: the
    curve they were taken from. xi is made on its first read. sigma_density
    (d(sigma)/dp) and mu (the centro-equiaffine curvature) are computed from the
    curve's kept brackets on each read, through centro_equiaffine, with no
    transform: mu scales as the inverse fourth power of the curve's size and can
    overflow where g and phi, which are scale-invariant, do not, so only reading
    it raises.
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


def _require_star(s: np.ndarray) -> np.ndarray:
    """s = [C, C_p] itself; NotStarShaped unless it keeps one strict sign."""
    if not _one_strict_sign(s):
        raise NotStarShaped("[C, C_p] changes sign: curve is not star-shaped")
    return s


def _equiaffine(curve: ClosedCurve):
    """(s, mu, max|mu|) of a star-shaped curve from its kept brackets, with no
    transform; DegenerateMetric when mu is not finite, as on a curve near 1e-80 in size.

    mu is in closed form: with s = [C, C_p], C_sigma = C_p/s and
    C_sigmasigma = (C_pp - (s_p/s) C_p)/s^2, whose C_p term brackets C_p with itself,
    so mu = [C_sigma, C_sigmasigma] = [C_p, C_pp]/s^3. It is divided by s three times,
    never by s**3: s scales as size^2 and mu as size^-4, so on the m3 curve mu keeps its
    digits for sizes 1e-77 to 1e77, where s**3 overflows or underflows beyond 1e51
    and 1e-51.
    """
    first, _ = curve._brackets
    s = _require_star(first[0])
    mu = first[1] / s / s / s   # [C_p, C_pp]/s^3
    peak = np.maximum.reduce(np.abs(mu))
    if not peak < math.inf:
        raise DegenerateMetric("centro-equiaffine curvature mu is not finite on the grid")
    return s, mu, peak


def centro_equiaffine(curve: ClosedCurve):
    """Return (sigma_density, mu) for a star-shaped curve; see _equiaffine. sigma_density
    is a copy: the curve keeps its bracket read-only."""
    s, mu, _ = _equiaffine(curve)
    return s.copy(), mu


# phi's weights of [C, C_pp]/[C, C_p] and of [C_p, C_ppp]/[C_p, C_pp]
_WEIGHTS = np.array([[1.5], [0.5]])
_WEIGHTS.setflags(write=False)


def _metric(first):
    """The metric half of _metric_curvature, with every guard: (eps, g, least) from the
    rows [C, C_p] and [C_p, C_pp], where least is the radicand's minimum, so sqrt(least)
    is min(g) bit for bit (sqrt is monotone and correctly rounded)."""
    den = _require_star(first[0])
    num = first[1]

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
    return eps, np.sqrt(ratio if eps == 1 else -ratio), least


def _metric_curvature(first: np.ndarray, second: np.ndarray):
    """Lean core shared with the curve flow: (eps, g, phi, least) from a pair of
    curve._brackets_of, its metric half (_metric) and then its curvature half. phi's two
    weighted ratios are one (2, N) product and one (2, N) division, written into no row
    of the pair."""
    eps, g, least = _metric(first)

    # phi = (1/g) (1.5 [C, C_pp]/[C, C_p] - 0.5 [C_p, C_ppp]/[C_p, C_pp]), where
    # sqrt(eps*den/num) is 1/g; no extra radicand to guard
    weighted = second * _WEIGHTS
    weighted /= first
    phi = weighted[0] - weighted[1]
    phi *= np.reciprocal(g)
    return eps, g, phi, least


def centro_affine(curve: ClosedCurve) -> InvariantField:
    """Full invariant field of a star-shaped curve with one-signed [C_p, C_pp], from
    the curve's kept brackets."""
    eps, g, phi, _ = _metric_curvature(*curve._brackets)
    return InvariantField(epsilon=eps, g=g, phi=phi, curve=curve)


def phi_from_mu(curve: ClosedCurve) -> np.ndarray:
    """Centro-affine curvature via the centro-equiaffine relation.

    Independent cross-check of centro_affine: phi = -(1/2) mu^(-3/2) mu_sigma
    with mu_sigma = mu_p / sigma_density (the eps = +1 branch; mu must be
    positive everywhere). mu_p is spectral, the one forward and one inverse
    transform of the call, so the route never reads the C_ppp of centro_affine.
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
