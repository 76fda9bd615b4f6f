import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroflow.curve import (SIGN_TOL, ClosedCurve, _brackets_of, _one_strict_sign, bracket,
                              check_convex, check_star_shaped, enclosed_area_of, origin_ellipse,
                              perturbed_ellipse, preset, random_star_convex,
                              shifted_ellipse, star_convex)
from centroflow import curve as curve_module, spectral
from centroflow.curve_flow import CurveFlowState, _geometry_velocity, evolve, step
from centroflow.diagnostics import explicit_ellipse_family
from centroflow.errors import DegenerateMetric, NotStarShaped
from centroflow.invariants import _metric_curvature, centro_affine, centro_equiaffine, phi_from_mu
from centroflow.io import read_curve_json, write_curve_json
from centroflow.spectral import derivative
from conftest import counting, fd_bracket_signs, overflowing_m3_image

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_bracket_examples():
    assert bracket((1, 0), (0, 1)) == 1.0
    assert bracket((1, 0), (1, 0)) == 0.0
    # by hand: 2*3 - 1*(-1) = 7
    assert bracket((2, 1), (-1, 3)) == 7.0


@given(ax=finite, ay=finite, bx=finite, by=finite)
def test_bracket_antisymmetric(ax, ay, bx, by):
    a, b = np.array([ax, ay]), np.array([bx, by])
    assert bracket(a, b) == -bracket(b, a)


@given(ax=small, ay=small, bx=small, by=small, cx=small, cy=small,
       s=st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_bracket_bilinear(ax, ay, bx, by, cx, cy, s):
    a, b, c = np.array([ax, ay]), np.array([bx, by]), np.array([cx, cy])
    left = bracket(a + s * c, b)
    right = bracket(a, b) + s * bracket(c, b)
    # absolute slack covers rounding of a + s*c scaled by |b|
    assert left == pytest.approx(right, rel=1e-9, abs=1e-6)


def test_curve_validation():
    with pytest.raises(ValueError):
        ClosedCurve(np.zeros((8, 2)))          # too few samples
    with pytest.raises(ValueError):
        ClosedCurve(np.zeros((17, 2)))         # odd
    with pytest.raises(ValueError):
        ClosedCurve(np.full((32, 2), np.nan))  # non-finite
    with pytest.raises(ValueError):
        ClosedCurve(np.zeros((32, 3)))         # wrong shape


def test_curve_samples_immutable():
    c = origin_ellipse(1, 1, n=32)
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_circle_derivatives_exact():
    c = origin_ellipse(1, 1)
    p = c.p
    d1 = c.derivative(1)
    assert np.abs(d1 - np.stack([-np.sin(p), np.cos(p)], axis=1)).max() <= 1e-12
    d2 = c.derivative(2)
    assert np.abs(d2 + c.points).max() <= 1e-12


def test_ellipse_third_derivative():
    # symbolic: d^3/dp^3 (2cos, sin/2) = (2sin, -cos/2)
    c = origin_ellipse(2.0, 0.5)
    p = c.p
    want = np.stack([2 * np.sin(p), -0.5 * np.cos(p)], axis=1)
    assert np.abs(c.derivative(3) - want).max() <= 1e-12


def test_preset_sampling_matches_formulas():
    n = 256
    p = origin_ellipse(2, 0.5, n).p
    assert np.allclose(origin_ellipse(2, 0.5, n).points,
                       np.stack([2 * np.cos(p), 0.5 * np.sin(p)], axis=1))
    assert np.allclose(shifted_ellipse(1, 1, 0.5, 0, n).points,
                       np.stack([0.5 + np.cos(p), np.sin(p)], axis=1))
    r = 1 + 0.05 * np.cos(3 * p)
    assert np.allclose(perturbed_ellipse(1, 1, 0.05, 3, n).points,
                       np.stack([r * np.cos(p), r * np.sin(p)], axis=1))


def _star_points(n, cos_coeffs, sin_coeffs, r0=1.0):
    # the star presets as they were sampled before the per-grid harmonics
    p = spectral.grid(n)
    r = np.full(n, float(r0))
    for k, (a, b) in enumerate(zip(cos_coeffs, sin_coeffs), start=1):
        r += a * np.cos(k * p) + b * np.sin(k * p)
    return np.stack([r * np.cos(p), r * np.sin(p)], axis=1)


def _random_star_points(seed, n, modes=5, margin=0.4):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, modes), rng.uniform(-1.0, 1.0, modes)
    k = np.arange(1, modes + 1)
    weight = np.sum((1.0 + k**2) * (np.abs(a) + np.abs(b)))
    return _star_points(n, a * (margin / weight), b * (margin / weight))


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_presets_bit_identical_to_their_formulas(n):
    p = spectral.grid(n)
    cos, sin = np.cos(p), np.sin(p)
    r = 1.0 + 0.05 * np.cos(3 * p)
    scale = (2.0 * 0.7) ** ((math.exp(2.0 * -1.5) - 1.0) / 2.0)
    pairs = [
        (origin_ellipse(2, 0.5, n), np.stack([2 * cos, 0.5 * sin], axis=1)),
        (shifted_ellipse(1.3, 0.7, 0.25, -0.1, n), np.stack([0.25 + 1.3 * cos, -0.1 + 0.7 * sin],
                                                           axis=1)),
        (perturbed_ellipse(1.2, 0.9, 0.05, 3, n), np.stack([r * 1.2 * cos, r * 0.9 * sin], axis=1)),
        (star_convex([0.02, -0.01], [0.01, 0.005], 1.1, n),
         _star_points(n, [0.02, -0.01], [0.01, 0.005], 1.1)),
        (explicit_ellipse_family(2.0, 0.7, -1.5, n),
         scale * np.stack([2.0 * cos, 0.7 * sin], axis=1)),
    ]
    pairs += [(random_star_convex(seed, n=n), _random_star_points(seed, n)) for seed in range(4)]
    # the radius sums one stack of harmonics, row by row: the same bits as the per-mode
    # loop of _star_points, from no mode (the circle r0) to the N/8 modes allowed
    k = np.arange(1, n // 8 + 1)
    for cos_coeffs, sin_coeffs, r0 in (([], [], 1.3), ([0.1], [-0.05], 1.0),
                                       (0.1 / k**2, -0.05 / k**2, 0.9)):
        pairs.append((star_convex(cos_coeffs, sin_coeffs, r0, n, require_convex=False),
                      _star_points(n, cos_coeffs, sin_coeffs, r0)))
    pairs += [(random_star_convex(seed, n=n, modes=modes), _random_star_points(seed, n, modes))
              for modes in (1, 8) for seed in range(3)]
    assert np.array_equal(star_convex([], [], 1.3, n, require_convex=False).points,
                          np.stack([1.3 * cos, 1.3 * sin], axis=1))
    for curve, want in pairs:
        assert np.array_equal(curve.points, want), curve.name


def test_star_and_convex_checks_on_ellipse():
    c = origin_ellipse(2, 0.5)
    assert check_star_shaped(c)
    assert check_convex(c)


def test_origin_outside_is_not_star_shaped():
    c = shifted_ellipse(1, 1, 2.0, 0.0)
    # oracle: dense finite-difference sign scan of [C, C_p]
    d, _ = fd_bracket_signs(shifted_ellipse(1, 1, 2.0, 0.0, n=2048).points)
    assert d.min() < 0 < d.max()
    assert not check_star_shaped(c)


def test_large_high_mode_perturbation_is_not_convex():
    c = perturbed_ellipse(1, 1, 0.5, 8, require_convex=False)
    _, m = fd_bracket_signs(perturbed_ellipse(1, 1, 0.5, 8, n=4096).points)
    assert m.min() < 0 < m.max()
    assert not check_convex(c)
    assert check_star_shaped(c)  # radius stays positive


def test_perturbed_preset_validation():
    with pytest.raises(NotStarShaped):
        perturbed_ellipse(1, 1, 1.5, 3)        # radius crosses zero
    with pytest.raises(DegenerateMetric):
        perturbed_ellipse(1, 1, 0.5, 8, require_convex=True)
    with pytest.raises(ValueError):
        perturbed_ellipse(1, 1, 0.05, 33)      # mode above N/8


def test_star_convex_preset_and_errors():
    c = star_convex([0.05, 0.02], [0.0, -0.03])
    assert check_convex(c)
    with pytest.raises(NotStarShaped):
        star_convex([1.2], [0.0])              # radius not positive
    with pytest.raises(ValueError):
        star_convex([0.1], [0.0, 0.0])         # mismatched lengths


@pytest.mark.parametrize("make", [origin_ellipse, lambda a, b: shifted_ellipse(a, b, 0.1, 0.0),
                                  lambda a, b: perturbed_ellipse(a, b, 0.05, 3)],
                         ids=["origin", "shifted", "perturbed"])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -1.0)])
def test_ellipse_presets_need_positive_axes(make, a, b):
    with pytest.raises(ValueError, match="^ellipse axes must be positive$"):
        make(a, b)


def test_star_convex_takes_at_most_n_over_8_modes():
    assert check_convex(star_convex([0.0] * 8, [0.0] * 8, n=64))
    with pytest.raises(ValueError, match="^radius modes must stay below N/8$"):
        star_convex([0.0] * 9, [0.0] * 9, n=64)


def test_a_positive_radius_can_still_fail_the_star_check():
    # the radius keeps a minimum of 1e-6, so it passes the radius check; [C, C_p]
    # then falls inside SIGN_TOL of zero, which the preset's own validation rejects
    with pytest.raises(NotStarShaped,
                       match=r"^preset perturbed_ellipse\(1,1,0\.999999,4\) is not star-shaped$"):
        perturbed_ellipse(1, 1, 1 - 1e-6, 4)


def test_random_star_convex_deterministic_and_convex():
    a = random_star_convex(7)
    b = random_star_convex(7)
    assert np.array_equal(a.points, b.points)
    for seed in range(25):
        c = random_star_convex(seed)
        assert check_star_shaped(c) and check_convex(c)


@pytest.mark.parametrize("modes", [0, -1])
def test_random_star_convex_needs_a_mode(modes):
    # with no modes the coefficients' weight is 0, and the margin / weight rescale would
    # turn the preset into the unit circle
    with pytest.raises(ValueError,
                       match=rf"^random_star_convex needs at least 1 mode, got {modes}$"):
        random_star_convex(3, modes=modes)


def test_preset_dispatcher():
    c = preset("origin_ellipse", a=1.0, b=2.0)
    assert c.n == 256
    with pytest.raises(ValueError):
        preset("klein_bottle")


def test_enclosed_area_of_ellipse():
    assert origin_ellipse(2, 0.5).enclosed_area() == pytest.approx(np.pi, abs=1e-12)
    assert shifted_ellipse(1, 1, 0.4, 0.2).enclosed_area() == pytest.approx(np.pi, abs=1e-12)


# ---------------------------------------------------------------------------
# the kept derivative batch

def _gl_image(n):
    # a GL+(2) image of a star: spectra with coefficients at the noise floor
    mat = np.array([[1.3, 0.4], [-0.2, 0.8]])
    return ClosedCurve(random_star_convex(11, n=n).points @ mat.T)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_curve_derivatives_and_area_bit_identical(n):
    for curve in (_gl_image(n), shifted_ellipse(1.2, 0.6, 0.3, 0.1, n)):
        for order in (1, 2, 3, 4):
            assert np.array_equal(curve.derivative(order), derivative(curve.points, order))
        assert curve.enclosed_area() == enclosed_area_of(curve.points)
    with pytest.raises(ValueError):
        curve.derivative(0)


def _presets(n):
    # every preset kind, and GL(2) images of two of them, one with a reflection
    curves = [origin_ellipse(2, 0.5, n), shifted_ellipse(1.3, 0.7, 0.25, -0.1, n),
              perturbed_ellipse(1.2, 0.9, 0.05, 3, n),
              star_convex([0.02, -0.01], [0.01, 0.005], 1.1, n), random_star_convex(3, n=n),
              explicit_ellipse_family(2.0, 0.7, -1.5, n)]
    flip = np.array([[0.9, 0.5], [0.6, -1.1]])
    return curves + [_gl_image(n), ClosedCurve(perturbed_ellipse(1, 1, 0.05, 3, n).points @ flip)]


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_every_curve_holds_component_major_read_only_points(tmp_path, n):
    curves = _presets(n)
    write_curve_json(curves[2], tmp_path / "c.json")
    curves.append(read_curve_json(tmp_path / "c.json"))
    state = CurveFlowState(0.0, perturbed_ellipse(1, 1, 0.05, 3, n), lam=0.7)
    curves.append(step(state, 4e-6).curve)   # within the CFL bound at N 1024
    evolve(CurveFlowState(0.0, state.curve, lam=0.7, normalization="none"), 8e-6, 4e-6,
           observer=lambda i, s: curves.append(s.physical_curve))
    curves.append(curves[0].scaled(2.5))
    for curve in curves:
        assert curve.points.flags.f_contiguous and not curve.points.flags.writeable, curve.name
        x, y = curve.points.T
        assert x.flags.c_contiguous and y.flags.c_contiguous
        assert curve._derivatives.flags.f_contiguous


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_c_and_f_ordered_points_give_the_same_bits(n):
    # each coordinate's transform is the same whatever the layout, and no trim decision
    # turns on the last bits of the column norms
    for curve in _presets(n):
        c_pts = np.ascontiguousarray(curve.points)
        f_pts = np.asfortranarray(c_pts)
        assert c_pts.flags.c_contiguous and f_pts.flags.f_contiguous
        specs = [spectral._trimmed_spectrum(pts) for pts in (c_pts, f_pts)]
        assert np.array_equal(*specs)
        batches = [spectral._derivative_batch(spec, n) for spec in specs]
        assert np.array_equal(*batches)
        pairs = []
        for pts, derivs in zip((c_pts, f_pts), batches):
            # the kernel, on either layout of the batch too, and the pair a curve keeps
            cp, cpp, cppp = derivs[:, 0], derivs[:, 1], derivs[:, 2]
            want = ((bracket(pts, cp), bracket(cp, cpp)), (bracket(pts, cpp), bracket(cp, cppp)))
            kept = ClosedCurve(pts)._brackets
            assert not any(array.flags.writeable for array in kept)
            for pair in (_brackets_of(pts, derivs), _brackets_of(pts, np.ascontiguousarray(derivs)),
                         kept):
                for got, row in zip(pair, want, strict=True):
                    assert got.shape == (2, n) and np.array_equal(got, row)
            pairs.append(kept)
        for got, want in zip(*(_metric_curvature(*pair) for pair in pairs)):
            assert np.array_equal(got, want)
        for got, want in zip(*(_geometry_velocity(pts) for pts in (c_pts, f_pts))):
            assert np.array_equal(got, want)
        fields = [centro_affine(ClosedCurve(pts)) for pts in (c_pts, f_pts)]
        for name in ("g", "phi", "xi", "mu"):
            assert np.array_equal(getattr(fields[0], name), getattr(fields[1], name))


def test_curve_transforms_itself_once(monkeypatch):
    curve = _gl_image(64)
    forward = counting(monkeypatch, spectral, "_rfft")
    for order in (1, 2, 3):
        curve.derivative(order)
    curve.enclosed_area()
    assert check_star_shaped(curve) and check_convex(curve)
    assert len(forward) == 1


def test_a_validated_preset_runs_the_bracket_kernel_once(monkeypatch):
    # its validation makes the kept pair; the shape checks, the area and every invariant
    # read it
    kernels = counting(monkeypatch, curve_module, "_brackets_of")
    for make in (lambda: random_star_convex(4, n=64),
                 lambda: perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64)):
        del kernels[:]
        curve = make()
        assert check_star_shaped(curve) and check_convex(curve)
        curve.enclosed_area()
        centro_affine(curve)
        centro_equiaffine(curve)
        phi_from_mu(curve)
        assert len(kernels) == 1
        assert kernels[0][0] is curve.points and kernels[0][1] is curve._derivatives


def test_new_and_scaled_curves_start_with_an_empty_cache():
    curve = _gl_image(64)
    assert "_derivatives" not in vars(curve)
    curve.derivative(1)
    assert set(vars(curve)) == {"points", "name", "_derivatives"}
    assert curve._derivatives.flags.writeable is False
    for fresh in (curve.scaled(2.5), ClosedCurve(curve.points), replace(curve, name="x")):
        assert "_derivatives" not in vars(fresh)
        assert np.array_equal(fresh.derivative(1), derivative(fresh.points, 1))
    # the batch is no field: it is not an argument, nor in the repr, nor compared
    assert [f.name for f in fields(ClosedCurve)] == ["points", "name"]


def test_the_derivative_batch_is_kept_and_read_only():
    curve = _gl_image(64)
    derivs = curve._derivatives
    assert curve._derivatives is derivs and derivs.shape == (64, 3, 2)
    for order in (1, 2, 3):
        view = curve.derivative(order)
        assert view.base is derivs and np.array_equal(view, derivative(curve.points, order))
        with pytest.raises(ValueError):
            view[0, 0] = 0.0
    with pytest.raises(ValueError):
        derivs[0, 0, 0] = 0.0
    with pytest.raises(AttributeError):
        curve._derivatives = derivs.copy()
    with pytest.raises(AttributeError):
        del curve._derivatives
    assert curve._derivatives is derivs


def test_a_preset_and_everything_read_from_it_make_one_inverse_transform(monkeypatch):
    inverse = counting(monkeypatch, spectral, "_irfft")
    curve = random_star_convex(4, n=64)
    assert check_star_shaped(curve) and check_convex(curve)
    centro_affine(curve)
    curve.enclosed_area()
    for order in (1, 2, 3):
        curve.derivative(order)
    assert len(inverse) == 1


def test_a_spectrum_norm_that_overflows_is_named():
    # at 1e160 the trim's norm overflows and zeroes every coefficient, which would read
    # as a curve that is not star-shaped
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateMetric, match="curve spectrum norm overflows"):
            perturbed_ellipse(1e160, 1e160, 0.05, 3, n=64)
        curve = ClosedCurve(origin_ellipse(1.0, 0.5, n=64).points * 1e160)
        with pytest.raises(DegenerateMetric, match="coordinates up to 1e\\+160"):
            curve.derivative(1)
    assert "_derivatives" not in vars(curve)
    # the zero curve's spectrum is zero without an overflow
    assert not check_star_shaped(ClosedCurve(np.zeros((64, 2))))


def test_preset_builds_and_validates_one_curve(monkeypatch):
    built = []
    original = ClosedCurve.__post_init__

    def recording(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ClosedCurve, "__post_init__", recording)
    inverse = counting(monkeypatch, spectral, "_irfft")
    curve = random_star_convex(4, n=64)
    assert built == [curve]
    assert curve.name == "random_star_convex(seed=4)"
    # both sign scans come from one derivative batch, which stays for later
    assert len(inverse) == 1
    assert "_derivatives" in vars(curve)
    assert check_star_shaped(curve) and check_convex(curve)


def _reference_one_strict_sign(values):
    # reference: the scan as np.all over every node, against SIGN_TOL times np.abs(...).max()
    tol = SIGN_TOL * np.abs(values).max()
    return bool(np.all(values > tol) or np.all(values < -tol))


def _brackets(curve):
    derivs = curve._derivatives
    return bracket(curve.points, derivs[:, 0]), bracket(derivs[:, 0], derivs[:, 1])


def test_one_strict_sign_matches_the_scan_on_curves():
    base = perturbed_ellipse(1, 1, 0.05, 3, n=64)
    points, derivs = overflowing_m3_image()
    with np.errstate(all="ignore"):
        overflowed = bracket(derivs[:, 0], derivs[:, 1])
        assert np.isnan(overflowed).any()
        arrays = [*_brackets(shifted_ellipse(1, 1, 2.0, 0.0)),                       # origin outside
                  *_brackets(perturbed_ellipse(1, 1, 0.5, 8, require_convex=False)),  # not convex
                  *_brackets(base), *_brackets(ClosedCurve(base.points * [1, -1])),
                  bracket(points, derivs[:, 0]), overflowed]
        for values in arrays:
            assert _one_strict_sign(values) == _reference_one_strict_sign(values)
    assert [_one_strict_sign(values) for values in arrays] == [False, True, True, False, True,
                                                               True, True, True, True, False]


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                            1e-300, 1e300, -1e300])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(base=st.sampled_from([1.0, -1.0, 1e-310, -1e300]),
       values=st.lists(_SPECIAL | st.floats(), min_size=1, max_size=12),
       keep=st.integers(0, 12))
def test_one_strict_sign_matches_the_scan_on_drawn_arrays(base, values, keep):
    # one-signed runs of base with NaN, infinities, zeros, subnormals or any float mixed in
    values = np.array([base] * keep + values)
    with np.errstate(all="ignore"):
        assert _one_strict_sign(values) == _reference_one_strict_sign(values)
