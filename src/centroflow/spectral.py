"""Trigonometric-interpolation calculus on the uniform periodic grid.

All fields live on p_k = 2*pi*k/N, k = 0..N-1, and are interpreted as
2*pi-periodic. Derivatives, antiderivatives and quadrature act along the
first axis so that scalar fields (N,), curve samples (N, 2) and the
records' column-major (N, B) blocks share one code path.

Every transform of the package goes through one kernel pair along axis 0,
_rfft and _irfft: numpy's pocketfft gufuncs, called as np.fft.rfft and
np.fft.irfft call them, so they give its bits without its per-call dispatch.
The gufuncs are numpy's private module, so a numpy without them fails at
import. Coefficients at the FFT noise floor are trimmed before a derivative
(see TRIM_FACTOR). The per-N constants (wavenumbers, derivative multipliers,
the grid) and the harmonics (cos kp, sin kp) the presets sample are built
once per grid and shared read-only.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

_RFFT_EVEN, _RFFT_ODD, _IRFFT = _pocketfft.rfft_n_even, _pocketfft.rfft_n_odd, _pocketfft.irfft
_AXES = [(0,), (), (0,)]  # the gufuncs' core axes: the input's axis 0, the factor, the output's


def _rfft(values: np.ndarray) -> np.ndarray:
    """np.fft.rfft(values, axis=0) bit for bit, for real float64 samples."""
    n = values.shape[0]
    out = np.empty_like(values, shape=(n // 2 + 1,) + values.shape[1:], dtype=complex)
    return (_RFFT_ODD if n % 2 else _RFFT_EVEN)(values, 1.0, axes=_AXES, out=out)


def _irfft(spec: np.ndarray, n: int) -> np.ndarray:
    """np.fft.irfft(spec, n=n, axis=0) bit for bit: modes beyond spec's length are zero."""
    out = np.empty_like(spec, shape=(n,) + spec.shape[1:], dtype=float)
    return _IRFFT(spec, 1.0 / n, axes=_AXES, out=out)


def grid(n: int) -> np.ndarray:
    """Parameter values p_k = 2*pi*k/n."""
    return 2.0 * np.pi * np.arange(n) / n


# Coefficients below TRIM_FACTOR * eps * ||spectrum|| are FFT roundoff, not
# data; (ik)^order would amplify them by up to (N/2)^order, which alone would
# put an O(1e-10) floor under every third derivative at N = 256. The trim is
# relative to the spectrum norm, so it commutes with rescaling the data.
TRIM_FACTOR = 64.0
_EPS = float(np.finfo(float).eps)
_TRIM = TRIM_FACTOR * _EPS


class _Tables(NamedTuple):
    k: np.ndarray        # wavenumbers 0..n//2
    mults: np.ndarray    # (n//2 + 1, 3, 1): (ik)^order for orders 1, 2, 3
    divisor: np.ndarray  # ik with k[0] = 1, antiderivative's safe divisor
    grid: np.ndarray


def _multiplier(k: np.ndarray, order: int, n: int) -> np.ndarray:
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0  # odd derivatives of the Nyquist mode are not representable
    return mult


@lru_cache(maxsize=32)
def _tables(n: int) -> _Tables:
    """Read-only per-N constants of derivative, antiderivative and _derivative_batch."""
    k = np.arange(n // 2 + 1)
    safe = k.copy()
    safe[0] = 1  # avoid 0/0; mode 0 is antiderivative's linear term
    mults = np.stack([_multiplier(k, order, n) for order in (1, 2, 3)], axis=1)
    tables = _Tables(k=k, mults=mults[:, :, None], divisor=1j * safe, grid=grid(n))
    for array in tables:
        array.setflags(write=False)
    return tables


@lru_cache(maxsize=128)
def _harmonic(n: int, k: int):
    """Read-only (cos kp, sin kp) on the n-grid, np.cos(k * grid(n)) bit for bit."""
    p = grid(n)
    pair = (np.cos(k * p), np.sin(k * p))
    for array in pair:
        array.setflags(write=False)
    return pair


def _trim(spec: np.ndarray) -> np.ndarray:
    """Zero, in place, the coefficients of an rfft spectrum at its noise floor."""
    # the column 2-norm exactly as np.linalg.norm(spec, axis=0) computes it, minus its dispatch
    squares = spec.conj()
    squares *= spec
    norm = np.sqrt(np.add.reduce(squares.real, axis=0))
    spec[np.abs(spec) <= _TRIM * norm] = 0.0
    return spec


def _trimmed_spectrum(values: np.ndarray):
    return _trim(_rfft(values))


def derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral d^order/dp^order along axis 0.

    Exact for band-limited data (coefficients at the FFT noise floor are
    trimmed first; see TRIM_FACTOR). The Nyquist mode is dropped for odd
    orders (its odd derivative is not representable on the grid).
    """
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    tables = _tables(n)
    spec = _trimmed_spectrum(values)
    transposed = spec.T  # axis 0 last, so a multiplier along it broadcasts in any rank
    transposed *= tables.mults[:, order - 1, 0] if order <= 3 else _multiplier(tables.k, order, n)
    return _irfft(spec, n)


def _derivative_batch(spec: np.ndarray, n: int) -> np.ndarray:
    """(n, 3, 2): orders 1-3 of a trimmed curve spectrum from one inverse transform;
    [:, order - 1] equals derivative of that order bit for bit.

    The product is laid out component-major (Fortran order), so the transform and
    every derivative component it gives are contiguous along the grid."""
    return _irfft(np.multiply(spec[:, None], _tables(n).mults, order="F"), n)


def antiderivative(values: np.ndarray) -> np.ndarray:
    """Cumulative integral int_0^p f, anchored to zero at p = 0.

    The mean of f contributes the linear part mean*p; the fluctuating part
    is integrated spectrally, so the result is exact for band-limited
    integrands. Total increase over one period equals the full integral.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    tables = _tables(n)
    spec = _rfft(values)
    mean = spec[0].real / n
    spec /= tables.divisor
    spec[0] = 0.0  # mode 0 is the linear term
    if n % 2 == 0:
        spec[-1] = 0.0
    periodic = _irfft(spec, n)
    periodic -= periodic[0]
    periodic += mean * tables.grid
    return periodic


def periodic_integral(values: np.ndarray) -> float:
    """Trapezoidal quadrature (2*pi/N) * sum, spectrally accurate for smooth periodic data."""
    values = np.asarray(values, dtype=float)
    # np.mean's own arithmetic (one pairwise sum, one division), minus its dispatch
    return 2.0 * np.pi * float(np.add.reduce(values, axis=None) / values.size)


def dealias(values: np.ndarray) -> np.ndarray:
    """Zero the top third of spectral modes (2/3-rule projection)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return _irfft(_rfft(values)[:n // 3], n)


def _fused_pass(y: np.ndarray) -> np.ndarray:
    """(4, N): the rows derivative(g), derivative(phi), derivative(phi, 2) and dealias(phi)
    of a C-contiguous (2, N) array whose rows are g and phi, bit for bit, from one rfft
    and one irfft.

    The forward transform takes the rows as the two columns of y.T, and one trim takes
    each column's own norm. The inverse transform takes four columns: the trimmed
    spectra times ik, the trimmed phi spectrum times (ik)^2, and the untrimmed phi
    spectrum with its top third zeroed. Both products are column-major, so each row of
    the transposed result is one contiguous field."""
    n = y.shape[1]
    mults = _tables(n).mults
    spec = _rfft(y.T)
    columns = np.empty((len(spec), 4), dtype=complex, order="F")
    columns[:, 3] = spec[:, 1]
    columns[n // 3:, 3] = 0.0
    _trim(spec)
    np.multiply(spec, mults[:, 0], out=columns[:, :2])
    np.multiply(spec[:, 1], mults[:, 1, 0], out=columns[:, 2])
    return _irfft(columns, n).T
