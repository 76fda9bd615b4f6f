"""Shared oracles for the test suite.

The finite-difference helpers are deliberately independent of the package's
spectral machinery so they can serve as cross-checks for it.
"""

import numpy as np
import pytest


def fd_derivative(values: np.ndarray, order: int, h: float) -> np.ndarray:
    """Periodic centered finite differences, iterated; O(h^2) accurate."""
    out = np.asarray(values, dtype=float)
    for _ in range(order):
        out = (np.roll(out, -1, axis=0) - np.roll(out, 1, axis=0)) / (2.0 * h)
    return out


def fd_bracket_signs(points: np.ndarray):
    """Sign pattern of [C, C_p] and [C_p, C_pp] from dense finite differences."""
    n = len(points)
    h = 2.0 * np.pi / n
    cp = fd_derivative(points, 1, h)
    cpp = fd_derivative(points, 2, h)
    d = points[:, 0] * cp[:, 1] - points[:, 1] * cp[:, 0]
    m = cp[:, 0] * cpp[:, 1] - cp[:, 1] * cpp[:, 0]
    return d, m


def overflowing_m3_image():
    """(points, derivatives) of a rotated, sheared m3 scaled near 1e154: [C, C_p] stays
    finite and one-signed, while [C_p, C_pp] overflows to inf - inf = NaN at some nodes."""
    from centroflow.curve import ClosedCurve, perturbed_ellipse

    rot, shear = 0.7, 4.0
    mat = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]]) @ [[1, shear], [0, 1]]
    curve = ClosedCurve(perturbed_ellipse(1, 1, 0.05, 3, n=64).points @ mat.T)
    scale = 10.0**153.75
    return curve.points * scale, curve._derivatives * scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends each call's arguments to the list
    it returns, then calls the original."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls
