"""Tests for initial-condition presets."""

import math

import numpy as np
import pytest

from sqglab import (
    ConfigError,
    Grid,
    ParameterError,
    band_limited_random,
    inverse_transform,
    make_initial,
    sobolev_norm,
)

TWO_PI = 2.0 * math.pi


def test_single_mode_two_coefficients():
    g = Grid(64, TWO_PI)
    F = make_initial("single_mode", g)
    mags = np.abs(F.coeffs)
    nonzero = np.argwhere(mags > 1e-14)
    assert len(nonzero) == 2
    assert np.allclose(mags[mags > 1e-14], 0.5)


def test_cmt_field_values():
    g = Grid(32, TWO_PI)
    x1, x2 = g.points()
    f = inverse_transform(make_initial("cmt", g))
    assert np.max(np.abs(f.values - (np.sin(x1) * np.sin(x2) + np.cos(x2)))) < 1e-13


def test_random_h1_seed_determinism():
    g = Grid(32, TWO_PI)
    a = make_initial("random_h1", g, seed=42)
    b = make_initial("random_h1", g, seed=42)
    c = make_initial("random_h1", g, seed=43)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_h1_normalization_and_mean():
    g = Grid(64, TWO_PI)
    F = make_initial("random_h1", g, seed=7)
    assert abs(sobolev_norm(F, 1.0) - 1.0) < 1e-12
    assert F.coeffs[0, 0] == 0.0
    inverse_transform(F)  # real-valuedness


@pytest.mark.parametrize("amplitude", [1.0, 2.5, -0.5])
def test_random_h1_h1_norm_is_the_amplitude(amplitude):
    g = Grid(32, TWO_PI)
    unit = make_initial("random_h1", g, seed=3)
    theta = make_initial("random_h1", g, seed=3, amplitude=amplitude)
    assert math.isclose(sobolev_norm(theta, 1.0), abs(amplitude), rel_tol=1e-12)
    assert np.array_equal(theta.coeffs, amplitude * unit.coeffs)


def test_random_h1_amplitude_profile():
    g = Grid(32, TWO_PI)
    F = make_initial("random_h1", g, seed=3)
    mags = np.abs(F.coeffs)
    # |coeff| follows |m|^{-2-delta} exactly (up to the global normalization)
    ref = mags[1, 0]
    m = np.fft.fftfreq(32, d=1 / 32)
    m1, m2 = m[:, None], np.abs(m[None, :17])  # the stored half lattice
    mm = np.hypot(m1, m2)
    inside = (np.abs(m1) <= 32 / 3) & (m2 <= 32 / 3)
    sel = (mm > 0) & inside
    assert np.allclose(mags[sel], ref * mm[sel] ** -2.05, rtol=1e-12)


def test_gaussian_bump_mean_free_and_centered():
    g = Grid(64, TWO_PI)
    F = make_initial("gaussian_bump", g)
    assert abs(F.coeffs[0, 0]) < 1e-15
    values = inverse_transform(F).values
    peak = np.unravel_index(np.argmax(values), values.shape)
    assert peak == (32, 32)


@pytest.mark.parametrize("sigma", [1e-170, -0.5, math.nan])
def test_gaussian_bump_width_without_a_square_rejected(sigma):
    # below ~1.6e-162 sigma**2 is 0, and the bump's centre would be 0 / 0
    with pytest.raises(ParameterError, match="sigma"):
        make_initial("gaussian_bump", Grid(16, TWO_PI), sigma=sigma)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        make_initial("vortex", Grid(16, TWO_PI))


def test_band_limited_random():
    g = Grid(64, TWO_PI)
    F = band_limited_random(g, seed=1, max_mode=10, amplitude=0.5)
    m = np.fft.fftfreq(64, d=1 / 64)
    outside = (np.abs(m[:, None]) > 10) | (np.abs(m[None, :33]) > 10)
    assert np.max(np.abs(F.coeffs[outside])) == 0.0
    assert abs(np.max(np.abs(inverse_transform(F).values)) - 0.5) < 1e-13
