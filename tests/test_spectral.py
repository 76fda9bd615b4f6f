import numpy as np
import pytest

from centroflow import spectral
from centroflow.spectral import (antiderivative, dealias, derivative, grid,
                                 periodic_integral)


def test_grid_endpoints():
    p = grid(8)
    assert p[0] == 0.0
    assert np.allclose(np.diff(p), np.pi / 4)


@pytest.mark.parametrize("m", [1, 3, 7, 20])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_pure_mode_derivative_exact(m, order):
    n = 128
    p = grid(n)
    f = np.cos(m * p)
    got = derivative(f, order)
    # d^k cos(mp) cycles through +-m^k sin/cos
    table = [np.cos(m * p), -m * np.sin(m * p), -m**2 * np.cos(m * p), m**3 * np.sin(m * p)]
    want = table[order % 4] * m ** (4 * (order // 4))
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, m**order)


def test_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        derivative(np.zeros(32), 0)


def test_derivative_matches_finite_differences():
    # independent FD oracle on a matching dense grid
    from conftest import fd_derivative
    dense, coarse = 4096, 64
    f_dense = np.exp(np.sin(grid(dense)))
    fd = fd_derivative(f_dense, 1, 2 * np.pi / dense)[:: dense // coarse]
    spec = derivative(np.exp(np.sin(grid(coarse))))
    assert np.abs(spec - fd).max() <= 1e-5


def test_periodic_integral_examples():
    n = 256
    p = grid(n)
    assert periodic_integral(np.ones(n)) == pytest.approx(2 * np.pi, abs=1e-14)
    assert abs(periodic_integral(np.sin(p))) <= 1e-14
    # closed form: integral of sin^2 over a period is pi
    assert periodic_integral(np.sin(p) ** 2) == pytest.approx(np.pi, abs=1e-12)


def test_periodic_integral_is_two_pi_times_mean_bit_for_bit(rng):
    for shape in ((16,), (64,), (256,), (1024,), (96,), (257,), (1000,), (128, 2)) * 8:
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        assert periodic_integral(values) == 2.0 * np.pi * float(np.mean(values))
    strided = rng.standard_normal((256, 2))[:, 1]
    assert periodic_integral(strided) == 2.0 * np.pi * float(np.mean(strided))


def test_integral_of_derivative_vanishes():
    n = 256
    p = grid(n)
    f = np.exp(np.cos(2 * p)) + 0.3 * np.sin(5 * p)
    for order in (1, 2, 3):
        assert abs(periodic_integral(derivative(f, order))) <= 1e-12


def test_antiderivative_anchor_and_exact_form():
    n = 256
    p = grid(n)
    f = 1.5 + np.cos(3 * p)
    F = antiderivative(f)
    assert F[0] == 0.0
    exact = 1.5 * p + np.sin(3 * p) / 3
    assert np.abs(F - exact).max() <= 1e-12


def test_antiderivative_of_mean_zero_is_periodic():
    n = 128
    p = grid(n)
    f = np.cos(4 * p) - 0.2 * np.sin(p)
    F = antiderivative(f)
    exact = np.sin(4 * p) / 4 + 0.2 * (np.cos(p) - 1.0)
    assert np.abs(F - exact).max() <= 1e-13


def test_dealias_zeroes_top_third():
    n = 96
    p = grid(n)
    f = np.cos(2 * p) + np.cos((n // 3) * p) + np.cos((n // 2 - 1) * p)
    g = dealias(f)
    spec = np.fft.rfft(g)
    assert np.abs(spec[n // 3:]).max() <= 1e-12
    assert np.abs(g - np.cos(2 * p)).max() <= 1e-12


def test_dealias_keeps_constants():
    f = np.full(64, 2.0)
    assert np.abs(dealias(f) - 2.0).max() <= 1e-14


@pytest.mark.parametrize("n", [64, 256, 1024, 255])
def test_transform_kernels_are_numpys_bit_for_bit(n, rng):
    # every layout the package hands the kernel pair, against np.fft's own wrapper
    line, curve = rng.standard_normal(n), rng.standard_normal((n, 2))
    # the scalar stage's (2, n) rows, handed over as their column-major transpose
    pair = rng.standard_normal((2, n)).T
    for values in (line, curve, pair):
        assert np.array_equal(spectral._rfft(values), np.fft.rfft(values, axis=0))
    spec, curve_spec = np.fft.rfft(line), np.fft.rfft(curve, axis=0)
    # the derivative batch: a column-major (n/2+1, 3, 2) product
    batch = np.multiply(curve_spec[:, None], spectral._tables(n).mults, order="F")
    truncated = spec.copy()
    truncated[n // 3:] = 0.0
    # the scalar stage's three columns, column-major
    columns = np.asfortranarray(np.stack([spec, 1j * spec, -spec], axis=1))
    cases = [(spec, spec), (curve_spec, curve_spec), (batch, batch), (columns, columns),
             (spec[:n // 3], truncated)]    # dealias: the modes past its slice are zero
    for given, full in cases:
        got, want = spectral._irfft(given, n), np.fft.irfft(full, n=n, axis=0)
        assert np.array_equal(got, want)
        assert got.strides == want.strides


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_the_fused_pass_is_derivative_bit_for_bit(n, rng):
    # a smooth field whose top coefficients sit at the noise floor, so the trim acts;
    # and noise, with none there. Each row of the pair is trimmed by its own norm: a
    # metric row a thousand times the curvature row's size leaves the curvature's trim
    # as it is alone
    p = grid(n)
    smooth = np.exp(np.sin(p) + 0.3 * np.cos(2 * p))
    assert not spectral._trim(np.fft.rfft(smooth)).all()
    noise = rng.standard_normal(n)
    for g, phi in ((1.0 + 0.3 * np.cos(p), smooth), (1e3 * smooth, noise), (noise, smooth)):
        rows = spectral._fused_pass(np.array((g, phi)))
        assert rows.shape == (3, n) and all(row.flags.c_contiguous for row in rows)
        for got, want in zip(rows, (derivative(g), derivative(phi), derivative(phi, 2))):
            assert np.array_equal(got, want)


def test_harmonics_are_kept_read_only_and_bounded():
    for n, k in ((64, 1), (256, 3), (1024, 5)):
        cos, sin = (stack[k - 1] for stack in spectral._harmonic_stack(n, k))
        assert np.array_equal(cos, np.cos(k * grid(n))) and np.array_equal(sin, np.sin(k * grid(n)))
        assert spectral._harmonic_stack(n, k)[0][k - 1].base is cos.base
        for array in (cos, sin):
            with pytest.raises(ValueError):
                array[0] = 0.0
    assert spectral._harmonic_stack.cache_info().maxsize is not None


def test_harmonic_stacks_are_the_harmonics_kept_read_only_and_bounded():
    for n, modes in ((64, 0), (64, 8), (256, 5), (1024, 128)):
        cos, sin = spectral._harmonic_stack(n, modes)
        assert cos.shape == sin.shape == (modes, n)
        for k in range(1, modes + 1):
            assert np.array_equal(cos[k - 1], np.cos(k * grid(n)))
            assert np.array_equal(sin[k - 1], np.sin(k * grid(n)))
        assert spectral._harmonic_stack(n, modes)[0] is cos
        for array in (cos, sin):
            with pytest.raises(ValueError):
                array[..., 0] = 0.0
    assert spectral._harmonic_stack.cache_info().maxsize is not None
