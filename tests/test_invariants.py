import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroflow import curve_flow, invariants, spectral
from centroflow.curve import (SIGN_TOL, ClosedCurve, _brackets_of, bracket, origin_ellipse,
                              perturbed_ellipse, random_star_convex, shifted_ellipse,
                              star_convex)
from centroflow.curve_flow import _geometry_velocity
from centroflow.errors import (DegenerateMetric, NonConstantSign,
                               NotStarShaped)
from centroflow.invariants import (_metric_curvature, centro_affine,
                                   centro_equiaffine, energy, perimeter,
                                   phi_from_mu, sobolev_norm, xi_derivative)
from centroflow.spectral import antiderivative, derivative, periodic_integral
from conftest import counting, overflowing_m3_image

TWO_PI = 2 * np.pi

# frozen pre-build oracle values: adaptive quadrature of the closed-form
# metric g = (1 + x0 cos p)^(-1/2) for the unit circle shifted by x0
#   (agrees with the N = 4096 trapezoid oracle to < 1e-14)
L_SHIFTED_03 = 6.394779439685456
L_SHIFTED_05 = 6.626552680946378


def circle(r, n=256):
    return origin_ellipse(r, r, n)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_circle_centro_equiaffine(r):
    # symbolic: C_sigmasigma = -C/r^4, so mu = r^(-4); sigma density = r^2
    s, mu = centro_equiaffine(circle(r))
    assert np.abs(s - r**2).max() <= 1e-12 * r**2
    assert np.abs(mu - r**-4).max() <= 1e-10 * r**-4


def test_unit_circle_mu_and_density_one():
    s, mu = centro_equiaffine(circle(1.0))
    assert np.abs(s - 1.0).max() <= 1e-12
    assert np.abs(mu - 1.0).max() <= 1e-12


@pytest.mark.parametrize("a,b", [(1, 1), (2, 0.5), (3, 1 / 3), (1.7, 0.9)])
def test_origin_ellipse_invariants(a, b):
    # symbolic: [C,C_p] = [C_p,C_pp] = ab, [C,C_pp] = [C_p,C_ppp] = 0
    field = centro_affine(origin_ellipse(a, b))
    assert field.epsilon == 1
    assert np.abs(field.mu - (a * b) ** -2).max() <= 1e-10
    assert np.abs(field.g - 1.0).max() <= 1e-12
    assert np.abs(field.xi - origin_ellipse(a, b).p).max() <= 1e-10
    assert np.abs(field.phi).max() <= 1e-10
    assert perimeter(field) == pytest.approx(TWO_PI, abs=1e-10)
    assert energy(field) <= 1e-20
    for n in range(5):
        # derivative orders amplify the machine-level phi noise by k^n
        assert sobolev_norm(field, n) <= 1e-12


def test_defining_relation_mu_c():
    # mu*C + C_sigmasigma = 0 pointwise
    for curve in (origin_ellipse(2, 0.5), shifted_ellipse(1, 1, 0.3, 0),
                  perturbed_ellipse(1, 1, 0.05, 3)):
        s, mu = centro_equiaffine(curve)
        cp, cpp = curve.derivative(1), curve.derivative(2)
        s_p = derivative(s)
        c_ss = (cpp - (s_p / s)[:, None] * cp) / (s**2)[:, None]
        resid = np.abs(mu[:, None] * curve.points + c_ss).max()
        assert resid <= 1e-8 * np.abs(curve.points).max()


def test_shifted_ellipse_perimeter_matches_quadrature_oracle():
    f3 = centro_affine(shifted_ellipse(1, 1, 0.3, 0))
    assert perimeter(f3) == pytest.approx(L_SHIFTED_03, abs=1e-8)
    f5 = centro_affine(shifted_ellipse(1, 1, 0.5, 0))
    assert perimeter(f5) == pytest.approx(L_SHIFTED_05, abs=1e-8)
    # the perimeter is strictly different from 2*pi off the origin-centered family
    assert abs(perimeter(f3) - TWO_PI) > 0.1


def test_shifted_ellipse_phi_closed_form():
    # derived by hand from the mu-relation: phi = -(3 x0/2) sin p (1 + x0 cos p)^(-1/2)
    x0 = 0.3
    curve = shifted_ellipse(1, 1, x0, 0)
    field = centro_affine(curve)
    p = curve.p
    want = -1.5 * x0 * np.sin(p) / np.sqrt(1 + x0 * np.cos(p))
    assert np.abs(field.phi - want).max() <= 1e-10
    assert field.phi.max() > 0.1  # genuinely non-constant
    assert abs(periodic_integral(field.phi * field.g)) <= 1e-12


def test_mean_zero_for_closed_curves():
    for seed in range(20):
        field = centro_affine(random_star_convex(seed))
        L = perimeter(field)
        assert abs(periodic_integral(field.phi * field.g)) <= 1e-8 * L


def test_xi_increasing_anchored():
    field = centro_affine(perturbed_ellipse(1, 1, 0.05, 3))
    assert field.xi[0] == 0.0
    assert np.all(np.diff(field.xi) > 0)


@pytest.mark.parametrize("curve_maker", [
    lambda: origin_ellipse(1.3, 0.8, n=512),
    lambda: shifted_ellipse(1, 1, 0.3, 0, n=512),
    lambda: perturbed_ellipse(1, 1, 0.05, 3, n=512),
    lambda: random_star_convex(3, n=512),
])
def test_phi_cross_formula_agreement(curve_maker):
    curve = curve_maker()
    direct = centro_affine(curve).phi
    via_mu = phi_from_mu(curve)
    assert np.abs(direct - via_mu).max() <= 1e-8


def test_xi_sigma_relation():
    # (d xi / d sigma)^2 = eps * mu pointwise
    for curve in (shifted_ellipse(1, 1, 0.3, 0), perturbed_ellipse(1, 1, 0.05, 3)):
        field = centro_affine(curve)
        lhs = (field.g / field.sigma_density) ** 2
        assert np.abs(lhs - field.epsilon * field.mu).max() <= 1e-8


def test_gl2_invariance(rng):
    base = perturbed_ellipse(1, 1, 0.05, 3)
    f0 = centro_affine(base)
    for _ in range(12):
        mat = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(mat)) < 0.3:
            continue
        mapped = ClosedCurve(base.points @ mat.T)
        f1 = centro_affine(mapped)
        assert f1.epsilon == 1
        assert np.abs(f1.phi - f0.phi).max() <= 1e-8
        assert perimeter(f1) == pytest.approx(perimeter(f0), abs=1e-8)
        assert energy(f1) == pytest.approx(energy(f0), abs=1e-8)


def test_gl2_invariance_orientation_reversing():
    base = perturbed_ellipse(1, 1, 0.05, 3)
    f0 = centro_affine(base)
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])  # det = -1
    f1 = centro_affine(ClosedCurve(base.points @ flip.T))
    assert f1.epsilon == 1
    assert perimeter(f1) == pytest.approx(perimeter(f0), abs=1e-8)


def test_resampling_agreement():
    # invariant quantities agree between N and 2N sampling
    for maker in (lambda n: origin_ellipse(2, 0.5, n),
                  lambda n: shifted_ellipse(1, 1, 0.3, 0, n),
                  lambda n: perturbed_ellipse(1, 1, 0.05, 3, n)):
        fa, fb = centro_affine(maker(256)), centro_affine(maker(512))
        assert perimeter(fa) == pytest.approx(perimeter(fb), abs=1e-10)
        assert energy(fa) == pytest.approx(energy(fb), abs=1e-10)


def test_sobolev_zero_is_energy():
    field = centro_affine(perturbed_ellipse(1, 1, 0.05, 3))
    assert sobolev_norm(field, 0) == energy(field)


def test_sobolev_circle_scaling():
    # phi = -(3x0/2) sin(xi)-like field: H1 roughly k^2 * E for near-circle data
    field = centro_affine(shifted_ellipse(1, 1, 0.1, 0))
    assert sobolev_norm(field, 1) == pytest.approx(energy(field), rel=0.05)


def test_errors():
    with pytest.raises(NotStarShaped):
        centro_affine(shifted_ellipse(1, 1, 2.0, 0.0))
    with pytest.raises(NotStarShaped):
        centro_equiaffine(shifted_ellipse(1, 1, 2.0, 0.0))
    with pytest.raises((NonConstantSign, DegenerateMetric)):
        centro_affine(perturbed_ellipse(1, 1, 0.5, 8))  # star-shaped, not convex
    with pytest.raises(DegenerateMetric):
        phi_from_mu(perturbed_ellipse(1, 1, 0.5, 8))
    with pytest.raises(DegenerateMetric):
        xi_derivative(np.ones(32), np.zeros(32), 1)


def test_isoperimetric_holds_on_margin_family():
    # empirical: the bounded-coefficient convex family stays under 2*pi
    for seed in range(40):
        L = perimeter(centro_affine(random_star_convex(seed)))
        assert L <= TWO_PI + 1e-8


def test_mode_one_star_curve_exceeds_two_pi():
    # documents the measured geometry: a convex star curve dominated by a
    # mode-1 (origin offset) radius term has centro-affine perimeter above
    # 2*pi, so the 2*pi bound holds only away from that direction
    curve = star_convex([0.15], [0.0], require_convex=True)
    L = perimeter(centro_affine(curve))
    assert L > TWO_PI + 1e-4


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_metric_curvature_derivatives_bit_identical(n, monkeypatch):
    # the one batched inverse transform must give spectral.derivative's bits
    points = random_star_convex(7, n=n).points
    inverses = []
    irfft = spectral._irfft

    def recording_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        inverses.append(out)
        return out

    monkeypatch.setattr(spectral, "_irfft", recording_irfft)
    derivs = ClosedCurve(points)._derivatives
    monkeypatch.undo()
    assert len(inverses) == 1
    assert np.array_equal(derivs[:, 0], derivative(points, 1))
    assert np.array_equal(derivs[:, 1], derivative(points, 2))
    assert np.array_equal(inverses[0][:, 2], derivative(points, 3))


# ---------------------------------------------------------------------------
# one transform per curve: the kept spectrum and centro-equiaffine parts

def _old_centro_equiaffine(curve):
    # reference: a fresh spectral.derivative per order, as before the curve kept its
    # spectrum, and mu in closed form, [C_p, C_pp]/s^3 divided by s three times
    cp, cpp = derivative(curve.points, 1), derivative(curve.points, 2)
    s = bracket(curve.points, cp)
    tol = 1e-12 * np.abs(s).max()
    if not (np.all(s > tol) or np.all(s < -tol)):
        raise NotStarShaped("reference")
    return s, bracket(cp, cpp) / s / s / s


def _chain_rule_mu(curve):
    # mu as the chain rule through p gives it, C_sigma = C_p/s and
    # C_sigmasigma = (C_pp - (s_p/s) C_p)/s^2, at one more transform pair (of s)
    cp, cpp = derivative(curve.points, 1), derivative(curve.points, 2)
    s = bracket(curve.points, cp)
    c_sigma = cp / s[:, None]
    c_sigma2 = (cpp - (derivative(s) / s)[:, None] * cp) / (s**2)[:, None]
    return bracket(c_sigma, c_sigma2)


def _old_centro_affine(curve):
    pts = curve.points
    cp, cpp, cppp = (derivative(pts, order) for order in (1, 2, 3))
    den, num = bracket(pts, cp), bracket(cp, cpp)
    s, mu = _old_centro_equiaffine(curve)
    ratio = num / den
    signs = np.sign(ratio)
    if signs.max() != signs.min():
        raise NonConstantSign("reference")
    eps = int(signs[0])
    g = np.sqrt(eps * ratio)
    phi = (1.0 / g) * (1.5 * bracket(pts, cpp) / den - 0.5 * bracket(cp, cppp) / num)
    return eps, s, mu, g, antiderivative(g), phi


def _old_phi_from_mu(curve):
    s, mu = _old_centro_equiaffine(curve)
    return -0.5 * (derivative(mu) / s) / (mu * np.sqrt(mu))


def _sweep_curves(n):
    rng = np.random.default_rng(n)
    curves = [random_star_convex(seed, n=n) for seed in range(4)]
    curves += [shifted_ellipse(1.3, 0.7, 0.25, -0.1, n=n), perturbed_ellipse(1, 1, 0.05, 3, n=n)]
    for base in (curves[0], curves[4]):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        mat = rng.uniform(0.5, 2.0) * rot @ np.diag([1.7, 1 / 1.7])   # GL+(2), cond 2.89
        curves.append(ClosedCurve(base.points @ mat.T, name="image"))
    return curves


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("mu_first", [False, True])
def test_invariants_bit_identical_to_reference(n, mu_first):
    for curve in _sweep_curves(n):
        curve = ClosedCurve(curve.points, name=curve.name)   # nothing kept yet
        eps, s, mu, g, xi, phi = _old_centro_affine(curve)
        if mu_first:
            via_mu = phi_from_mu(curve)
            field = centro_affine(curve)
        else:
            field = centro_affine(curve)
            via_mu = phi_from_mu(curve)
        assert field.epsilon == eps
        for got, want in ((field.sigma_density, s), (field.mu, mu), (field.g, g),
                          (field.xi, xi), (field.phi, phi), (via_mu, _old_phi_from_mu(curve))):
            assert np.array_equal(got, want)
        s2, mu2 = centro_equiaffine(curve)
        assert np.array_equal(s2, s) and np.array_equal(mu2, mu)
        # the closed form drops the chain rule's (s_p/s) [C_p, C_p] term, which is
        # zero, so mu and phi_from_mu move by roundoff only (at most 9.2e-16 relative
        # and 6.0e-15 absolute over these curves; the bounds are twice that)
        chain_mu = _chain_rule_mu(curve)
        assert np.all(np.abs(mu - chain_mu) <= 2e-15 * np.abs(chain_mu))
        chain_phi = -0.5 * (derivative(chain_mu) / s) / (chain_mu * np.sqrt(chain_mu))
        assert np.abs(via_mu - chain_phi).max() <= 1.2e-14


def test_equiaffine_parts_match_the_fields_and_the_batch_is_read_only():
    curve = ClosedCurve(random_star_convex(5, n=64).points)
    field = centro_affine(curve)
    s, mu = centro_equiaffine(curve)
    assert np.array_equal(s, field.sigma_density) and np.array_equal(mu, field.mu)
    with pytest.raises(ValueError):
        curve._derivatives[0, 0, 0] = 0.0
    # the arrays a caller owns stay writable; (s, mu) are made afresh on each read
    for array in (s, mu, field.g, field.phi):
        array[0] = array[0]


def test_mu_beyond_the_float_range_raises_where_it_is_read():
    # mu scales as size^-4 and overflows at 1e-160, where g and phi, scale-invariant,
    # stay finite: the field builds, and every reader of mu raises naming it
    curve = perturbed_ellipse(1e-160, 1e-160, 0.05, 3, n=64)
    with np.errstate(all="ignore"):
        field = centro_affine(curve)
        assert np.isfinite(field.g).all() and np.isfinite(field.phi).all()
        readers = (lambda: field.mu, lambda: field.sigma_density,
                   lambda: centro_equiaffine(curve), lambda: phi_from_mu(curve))
        for read in readers:
            with pytest.raises(DegenerateMetric, match="mu is not finite"):
                read()


def test_mu_keeps_its_digits_far_beyond_unit_size():
    # mu = [C_p, C_pp]/s^3 scales as size^-4. Divided by s three times it keeps its
    # digits at sizes 1e-70 and 1e70; divided by s**3 it would not, as s**3 (about
    # size^6) overflows to inf at 1e70 and underflows to 0 at 1e-70.
    m3 = perturbed_ellipse(1, 1, 0.05, 3, n=64)
    unscaled = centro_equiaffine(m3)[1]
    for size in (1e-70, 1e70):
        mu = centro_equiaffine(m3.scaled(size))[1]
        assert np.all(np.abs(mu * size**4 - unscaled) <= 1e-12 * np.abs(unscaled))


def _counting_transforms(monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(spectral, f"_{name}")

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, f"_{name}", counted)
    return calls


def test_centro_affine_and_phi_from_mu_share_the_curve_transforms(monkeypatch):
    curve = ClosedCurve(random_star_convex(2, n=64).points)
    calls = _counting_transforms(monkeypatch)
    # on a fresh curve: one spectrum and one derivative batch of the points, kept on it
    field = centro_affine(curve)
    assert calls.count("rfft") == 1 and calls.count("irfft") == 1
    # (s, mu) are not kept, and take no transform: mu is in closed form from the batch,
    # so phi_from_mu makes one forward and one inverse transform, for mu_p
    phi_from_mu(curve)
    assert calls.count("rfft") == 2 and calls.count("irfft") == 2
    centro_equiaffine(curve)
    field.sigma_density, field.mu
    assert calls.count("rfft") == 2 and calls.count("irfft") == 2
    # xi is made on its first read only: one forward and one inverse transform of g
    field.xi
    field.xi
    assert calls.count("rfft") == 3 and calls.count("irfft") == 3


def test_xi_is_made_once_on_first_read_and_read_only(monkeypatch):
    field = centro_affine(random_star_convex(3, n=64))
    assert "xi" not in vars(field)
    anti = counting(monkeypatch, invariants, "antiderivative")
    xi = field.xi
    assert field.xi is xi and len(anti) == 1
    assert np.array_equal(xi, antiderivative(field.g))
    with pytest.raises(ValueError):
        xi[0] = 1.0
    with pytest.raises(AttributeError):
        field.xi = xi


@pytest.mark.parametrize("affine_first", [True, False])
def test_error_types_in_either_call_order(affine_first):
    # star-shaped, not convex: the metric fails with NonConstantSign, mu with DegenerateMetric
    curve = perturbed_ellipse(1, 1, 0.5, 8, require_convex=False)
    checks = [(centro_affine, NonConstantSign), (phi_from_mu, DegenerateMetric)]
    for fn, error in (checks if affine_first else checks[::-1]):
        with pytest.raises(error):
            fn(curve)
    # the guard's verdict is the scan's: mu has a sample at or below the tolerance
    _, mu = centro_equiaffine(curve)
    assert np.any(mu <= SIGN_TOL * np.abs(mu).max())
    with pytest.raises(DegenerateMetric, match="mu is not positive"):
        phi_from_mu(curve)
    # not star-shaped: every route says so, and the curve keeps its derivative batch only
    outside = shifted_ellipse(1, 1, 2.0, 0.0)
    for fn in (centro_equiaffine, phi_from_mu, centro_affine, phi_from_mu):
        with pytest.raises(NotStarShaped):
            fn(outside)
    assert set(vars(outside)) == {"points", "name", "_derivatives", "_brackets"}


# ---------------------------------------------------------------------------
# the metric's guards read the ratio's extremes: the same verdicts as the scans


def _reference_guards(points, derivs):
    # reference: the guards as np.all, np.sign and .max() scans, in the kernel's order
    cp, cpp = derivs[:, 0], derivs[:, 1]
    den = bracket(points, cp)
    tol = SIGN_TOL * np.abs(den).max()
    if not (np.all(den > tol) or np.all(den < -tol)):
        return NotStarShaped, "[C, C_p] changes sign: curve is not star-shaped"
    ratio = bracket(cp, cpp) / den
    signs = np.sign(ratio)
    if signs.max() != signs.min():
        return NonConstantSign, "sign of [C_p, C_pp]/[C, C_p] varies over the grid"
    eps = int(signs[0])
    radicand = eps * ratio
    if np.any(radicand <= SIGN_TOL * radicand.max()):
        return DegenerateMetric, "metric radicand [C_p, C_pp]/[C, C_p] vanishes on the grid"
    return np.sign(den[0]), eps, np.sqrt(radicand)


def _assert_same_guards(points, derivs):
    want = _reference_guards(points, derivs)
    kernels = {"_metric_curvature": lambda: _metric_curvature(*_brackets_of(points, derivs)),
               "_geometry_velocity": lambda: _geometry_velocity(points),
               "_velocity": lambda: curve_flow._velocity(points)}
    # the curve-flow stages make their own batch: they are handed the crafted one in its
    # place. The velocity stage of k2-k4 keeps every guard of the metric half
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curve_flow, "_derivative_batch", lambda spec, n: derivs)
        for name, kernel in kernels.items():
            try:
                got = kernel()
            except (NotStarShaped, NonConstantSign, DegenerateMetric) as exc:
                assert (type(exc), str(exc)) == want
                continue
            assert not isinstance(want[0], type), f"{name} passed, the reference raised {want}"
            if name == "_metric_curvature":
                assert got[0] == want[1] and np.array_equal(got[1], want[2])
            elif name == "_velocity":
                assert np.array_equal(got, _geometry_velocity(points)[-1])
            else:
                assert np.sign(got[0][0]) == want[0] and np.array_equal(got[1], want[2])


def _circle_arrays(n=16):
    # exact samples and derivatives of the unit circle, built without transforms
    p = 2 * np.pi * np.arange(n) / n
    c, s = np.cos(p), np.sin(p)
    points = np.stack([c, s], axis=1)
    derivs = np.stack([np.stack(pair, axis=1) for pair in ((-s, c), (-c, -s), (s, -c))], axis=1)
    return points, derivs


def _scale_cpp(points, derivs, factor, node=slice(None)):
    # C_pp times factor at the nodes: -1 everywhere flips eps, 1e-13 at one node makes its
    # radicand vanish against the largest, 0 makes every ratio 0
    derivs = derivs.copy()
    derivs[node, 1] *= factor
    return points, derivs


def _arrays_of(curve):
    return curve.points, curve._derivatives


# case -> (arrays, the reference's verdict: its exception type, or eps when it passes)
_GUARD_CASES = {
    "origin outside": (lambda: _arrays_of(shifted_ellipse(1, 1, 2.0, 0.0)), NotStarShaped),
    "not convex": (lambda: _arrays_of(perturbed_ellipse(1, 1, 0.5, 8, require_convex=False)),
                   NonConstantSign),
    "vanishing radicand": (lambda: _scale_cpp(*_circle_arrays(), 1e-13, 3), DegenerateMetric),
    "vanishing radicand, eps -1": (
        lambda: _scale_cpp(*_scale_cpp(*_circle_arrays(), -1.0), 1e-13, 3), DegenerateMetric),
    "zero ratio": (lambda: _scale_cpp(*_circle_arrays(), 0.0), DegenerateMetric),
    "eps -1": (lambda: _scale_cpp(*_circle_arrays(), -1.0), -1),
    "overflow to NaN": (overflowing_m3_image, NonConstantSign),
}


@pytest.mark.parametrize("case", list(_GUARD_CASES))
def test_metric_guards_match_the_scans(case):
    make, verdict = _GUARD_CASES[case]
    arrays = make()
    with np.errstate(all="ignore"):
        want = _reference_guards(*arrays)
        assert (want[0] if isinstance(want[0], type) else want[1]) == verdict
        _assert_same_guards(*arrays)


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                            1e-300, 1e300, -1e300])


# ---------------------------------------------------------------------------
# the kernel's stacked (2, N) brackets and weights: the componentwise formulas' bits


def _componentwise_metric_curvature(points, derivs):
    # reference: one bracket() per bracket and phi's two weighted ratios one at a time,
    # as _reference_velocity in tests/test_curve_flow.py builds them
    cp, cpp, cppp = derivs[:, 0], derivs[:, 1], derivs[:, 2]
    den, num = bracket(points, cp), bracket(cp, cpp)
    ratio = num / den
    eps = int(np.sign(ratio)[0])
    radicand = eps * ratio
    g = np.sqrt(radicand)
    phi = (1.0 / g) * (1.5 * bracket(points, cpp) / den - 0.5 * bracket(cp, cppp) / num)
    return (den, num, bracket(points, cpp), bracket(cp, cppp)), (eps, g, phi, radicand.min())


def _kernel_arrays(n):
    # presets, GL+(2) images of two of them and the mirror images of those (det < 0, so
    # [C, C_p] < 0), then two batches with C_pp negated, whose ratio is negative: eps -1,
    # which no closed curve has, reached by the kernel all the same
    rng = np.random.default_rng(n)
    curves = [origin_ellipse(2, 0.5, n), shifted_ellipse(1.3, 0.7, 0.25, -0.1, n),
              perturbed_ellipse(1.2, 0.9, 0.05, 3, n),
              star_convex([0.02, -0.01], [0.01, 0.005], 1.1, n), random_star_convex(5, n=n)]
    for base in (curves[2], curves[4]):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        mat = rng.uniform(0.5, 2.0) * rot @ np.diag([1.7, 1 / 1.7])
        for det_sign in (1.0, -1.0):
            curves.append(ClosedCurve(base.points @ (mat @ np.diag([1.0, det_sign])).T))
    arrays = [_arrays_of(curve) for curve in curves]
    return arrays + [_scale_cpp(*arrays[k], -1.0) for k in (5, 6)]


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_kernel_bit_identical_to_componentwise_brackets(n, order):
    seen = set()
    for points, derivs in _kernel_arrays(n):
        points, derivs = np.array(points, order=order), np.array(derivs, order=order)
        first, second = _brackets_of(points, derivs)
        kept = first.copy(), second.copy()
        got = _metric_curvature(first, second)
        brackets, want = _componentwise_metric_curvature(points, derivs)
        for a, b in zip((*first, *second), brackets, strict=True):
            assert np.array_equal(a, b)
        # the kernel writes into no row of the pair
        assert np.array_equal(first, kept[0]) and np.array_equal(second, kept[1])
        assert got[0] == want[0] and got[3] == want[3]
        for a, b in zip(got[1:3], want[1:3]):
            assert np.array_equal(a, b)
        seen.add((got[0], np.sign(first[0][0])))
    # both signs of eps, each under both orientations
    assert seen == {(1, 1.0), (1, -1.0), (-1, 1.0), (-1, -1.0)}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(scale=st.sampled_from([1.0, -1.0, 1e-160, 1e154, 5e-324]),
       flip=st.booleans(),
       edits=st.lists(st.tuples(st.integers(0, 16 * 8 - 1), _SPECIAL | st.floats()),
                      max_size=4))
def test_metric_guards_match_the_scans_on_drawn_arrays(scale, flip, edits):
    # a circle's arrays, scaled, with a few entries replaced by NaN, infinities, zeros,
    # subnormals or any float
    points, derivs = _circle_arrays()
    if flip:
        points, derivs = _scale_cpp(points, derivs, -1.0)
    points, derivs = points * scale, derivs * scale
    flat = np.concatenate([points.ravel(), derivs.ravel()])
    for index, value in edits:
        flat[index] = value
    points, derivs = flat[:32].reshape(16, 2), flat[32:].reshape(16, 3, 2)
    with np.errstate(all="ignore"):
        _assert_same_guards(points, derivs)


def test_xi_derivative_and_sobolev_orders_must_be_admissible():
    field = centro_affine(perturbed_ellipse(1, 1, 0.05, 3, n=64))
    with pytest.raises(ValueError, match="^xi-derivative order must be >= 1, got 0$"):
        xi_derivative(field.phi, field.g, order=0)
    with pytest.raises(ValueError, match="^sobolev order must be >= 0, got -1$"):
        sobolev_norm(field, n=-1)
