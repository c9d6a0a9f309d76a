"""Initial-condition presets."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ParameterError
from .spectral import Grid, RealField, SpectralField, forward_transform, sobolev_norm

PRESETS = ("single_mode", "cmt", "random_h1", "gaussian_bump")
# the bump width's rule, which initial.sigma reuses; sigma < ~1.6e-162 squares to 0
_SIGMA = (lambda s: s == 0.0 or min(s, s * s) > 0.0, "be 0 or > 0 with sigma**2 > 0")


def make_initial(preset: str, grid: Grid, seed: int = 0, amplitude: float = 1.0,
                 sigma: float | None = None) -> SpectralField:
    """Build a preset initial condition as a spectral field.

    single_mode    sin(x1); its induced velocity is orthogonal to the
                   gradient, so it evolves by pure dissipation.
    cmt            sin(x1) sin(x2) + cos(x2), the classical smooth test field.
    random_h1      random-phase field with coefficient modulus |m|^{-2-delta}
                   (delta = 0.05), mean-free, with homogeneous H^1 norm
                   |amplitude|: H^1 data whose higher norms diverge as the
                   resolution grows.
    gaussian_bump  exp(-|x - center|^2 / sigma^2), mean removed, concentrated
                   at the box center (sigma None or 0 is L/10).
    """
    if preset == "single_mode":
        x1, _ = grid.points()
        return forward_transform(RealField(grid, amplitude * np.sin(x1)))
    if preset == "cmt":
        x1, x2 = grid.points()
        return forward_transform(
            RealField(grid, amplitude * (np.sin(x1) * np.sin(x2) + np.cos(x2))))
    if preset == "random_h1":
        return SpectralField(grid, amplitude * _random_h1(grid, seed).coeffs)
    if preset == "gaussian_bump":
        x1, x2 = grid.points()
        if sigma is not None and not _SIGMA[0](sigma):
            raise ParameterError(f"sigma must {_SIGMA[1]}, got {sigma!r}")
        sigma = sigma or grid.length / 10.0
        center = grid.length / 2.0
        d1 = np.minimum(np.abs(x1 - center), grid.length - np.abs(x1 - center))
        d2 = np.minimum(np.abs(x2 - center), grid.length - np.abs(x2 - center))
        bump = amplitude * np.exp(-(d1 ** 2 + d2 ** 2) / sigma ** 2)
        bump -= np.mean(bump)
        return forward_transform(RealField(grid, bump))
    raise ConfigError(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")


def band_limited_random(grid: Grid, seed: int, max_mode: int,
                        amplitude: float = 1.0) -> SpectralField:
    """Random-phase field truncated to max|m| <= max_mode, scaled to the
    requested grid sup norm.  Used by the scaling and convolution oracles,
    which need data exactly representable on coarser grids."""
    from .spectral import inverse_transform

    base = _random_h1(grid, seed)
    mask = (np.abs(grid.m1) <= max_mode) & (np.abs(grid.m2) <= max_mode)
    coeffs = base.coeffs * mask
    values = inverse_transform(SpectralField(grid, coeffs)).values
    sup = float(np.max(np.abs(values)))
    if sup > 0.0:
        coeffs = coeffs * (amplitude / sup)
    return SpectralField(grid, coeffs)


def _random_h1(grid: Grid, seed: int) -> SpectralField:
    delta = 0.05
    n = grid.n
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))

    # One phase per conjugate pair: the half plane m1 > 0 or (m1 = 0, m2 > 0)
    # draws from the full-lattice table, the other half takes the negated
    # phase of its partner -m.  The phase is odd, so the coefficients are
    # Hermitian and |coeff| is exactly the prescribed profile.
    mirror = (-np.arange(n)) % n
    upper = (grid.m1 > 0) | ((grid.m1 == 0) & (grid.m2 > 0))
    cols = slice(0, n // 2 + 1)
    phase = np.where(upper, phases[:, cols], -phases[np.ix_(mirror, mirror[cols])])

    mmag = np.hypot(grid.m1, grid.m2)
    amp = np.zeros(grid.spectral_shape)
    nonzero = mmag > 0.0
    amp[nonzero] = mmag[nonzero] ** (-2.0 - delta)
    amp[~grid.dealias_mask] = 0.0  # keep the data alias-free under the dynamics

    field = SpectralField(grid, amp * np.exp(1j * phase))
    return SpectralField(grid, field.coeffs / sobolev_norm(field, 1.0))
