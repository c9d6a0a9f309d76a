"""Discrete Fourier representation of real scalar fields on a periodic box.

Grid points are x_j = (L/n) * j, j = 0..n-1 per axis, stored row-major.
Coefficients follow F(m) = (1/n^2) * sum_j f(x_j) exp(-i k(m) . x_j) with
k(m) = (2 pi / L) m.  Fields are real, so a ``SpectralField`` holds only the
(n, n/2+1) half spectrum of ``numpy.fft.rfft2``: rows m1 = 0, 1, .., n/2-1,
-n/2, .., -1 and columns m2 = 0, 1, .., n/2.  A mode of columns 1 .. n/2-1
stands for its conjugate partner too, so full-lattice sums are half-lattice
sums weighted by ``Grid.weights`` (2 there, 1 on columns 0 and n/2), and
Parseval reads ||f||_{L^2}^2 = L^2 * sum_m w(m) |F(m)|^2.

Transforms run the 1-D passes of ``irfftn`` and ``rfft2`` in their order, so
results match them bit for bit; the column passes work in place on scratch
in a per-thread workspace, so threads never share buffers and a step
allocates nothing large.  Under the 2/3 rule the right-hand side reads and
writes only the modes |m1|, |m2| <= ``Grid.cutoff``, so its column passes
run on the first cutoff + 1 columns alone (Patterson and Orszag, 1971).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check


# Grid's rules, (test, what the value must do), which the grid.* keys reuse;
# the largest |k|, at m = (n/2, n/2), can overflow where 2 pi / L does not.
# L is a Python float in the arithmetic, so a numpy scalar overflows to inf
# without a RuntimeWarning
_SIZE = (lambda n: isinstance(n, numbers.Integral) and n % 2 == 0 and n >= 8,
         "be even and >= 8")
_LENGTH = (lambda length: 0.0 < length < math.inf
           and math.isfinite(2.0 * math.pi / float(length)),
           "be > 0 with 2 pi / L finite")
_SPAN = (lambda n, length: math.isfinite(2.0 * math.pi / float(length) * (n // 2)
                                         * 2 ** 0.5),
         "give a finite largest wavenumber (2 pi / L) n / sqrt 2")


class Grid:
    """Uniform n x n periodic grid on [0, L)^2 and its half wavenumber lattice.

    Holds every Fourier multiplier, on the (n, n/2+1) half lattice: the
    integer frequencies ``m1``/``m2`` and physical wavenumbers ``k1``/``k2``
    (a column and a row that broadcast), the modulus ``kmag`` and its cached
    powers, the Parseval ``weights``, the 2/3-rule ``cutoff`` n//3 and
    ``dealias_mask``, and the ``multipliers`` stack (4, n, n/2+1) whose rows
    give, from theta, the Riesz velocity u1 = -i k2/|k|, u2 = i k1/|k| and the
    gradient i k1, i k2.  The velocity rows vanish at k = 0 and on both
    Nyquist lines; the gradient rows vanish on their own axis' Nyquist line,
    so derivatives of real fields stay real.
    """

    def __init__(self, n: int, length: float):
        _check(_SIZE, "grid size", n, got=repr(n))
        n = int(n)
        _check(_LENGTH, "box length", length, got=repr(length))
        _check(_SPAN, "grid size and box length", n, length,
               got=f"n = {n}, L = {length!r}")
        self.n = n
        self.length = float(length)
        self.dx = self.length / n
        self.spectral_shape = (n, n // 2 + 1)
        # the first (n, n/2+1) array before any n-long one: a grid too large
        # to hold fails here, having touched no memory
        self.kmag = np.empty(self.spectral_shape)

        self.m1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]  # Nyquist at -n/2
        self.m2 = np.fft.rfftfreq(n, d=1.0 / n)[None, :]  # Nyquist at +n/2
        scale = 2.0 * np.pi / self.length
        self.k1 = scale * self.m1
        self.k2 = scale * self.m2
        np.hypot(self.k1, self.k2, out=self.kmag)

        self.weights = np.full((1, n // 2 + 1), 2.0)
        self.weights[0, [0, -1]] = 1.0

        self.cutoff = n // 3
        self.dealias_mask = (abs(self.m1) <= self.cutoff) & (abs(self.m2) <= self.cutoff)

        off1, off2 = np.abs(self.m1) < n // 2, np.abs(self.m2) < n // 2  # not Nyquist
        inv_k = np.zeros_like(self.kmag)
        np.divide(1.0, self.kmag, out=inv_k, where=(self.kmag > 0.0) & off1 & off2)
        self.multipliers = 1j * np.stack(np.broadcast_arrays(
            -self.k2 * inv_k, self.k1 * inv_k, self.k1 * off1, self.k2 * off2))

        self._pow_cache: dict[float, np.ndarray] = {}

    def points(self):
        """Coordinate arrays (x1, x2), each of shape (n, n)."""
        x = self.dx * np.arange(self.n)
        return np.meshgrid(x, x, indexing="ij")

    def kmag_pow(self, s: float) -> np.ndarray:
        """|k|^s with 0^s = 0 for s > 0 and 0^0 = 1, cached per exponent."""
        s = float(s)
        out = self._pow_cache.get(s)
        if out is None:
            with np.errstate(divide="ignore"):
                out = self.kmag ** s
            self._pow_cache[s] = out
        return out

    def __eq__(self, other):
        return (isinstance(other, Grid) and other.n == self.n
                and other.length == self.length)

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"


@dataclass(frozen=True)
class RealField:
    """Real grid samples of a scalar field."""

    grid: Grid
    values: np.ndarray


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum Fourier coefficients of a real scalar field, shape
    ``grid.spectral_shape``."""

    grid: Grid
    coeffs: np.ndarray


class _Workspace(threading.local):
    """This thread's scratch buffers, one set per ``Grid.spectral_shape``."""

    def __init__(self):
        self.buffers = {}

    def get(self, grid):
        """(half-spectrum stack, grid stack, stage input) for this grid."""
        buffers = self.buffers.get(grid.spectral_shape)
        if buffers is None:
            buffers = self.buffers[grid.spectral_shape] = (
                np.empty((4,) + grid.spectral_shape, dtype=complex),
                np.empty((4, grid.n, grid.n)),
                np.empty(grid.spectral_shape, dtype=complex))
        return buffers


_workspace = _Workspace()


def _live(grid: Grid, dealiased: bool) -> tuple[int, slice]:
    """The count of leading columns the column passes transform and the dead
    rows within them: the columns m2 <= cutoff and the rows |m1| > cutoff
    under the 2/3 rule, else all n/2 + 1 columns and no rows."""
    live = grid.cutoff + 1 if dealiased else grid.n // 2 + 1
    return live, slice(live, grid.n - live + 1)


def _inverse(grid: Grid, spec: np.ndarray, out: np.ndarray,
             dealiased: bool = False) -> np.ndarray:
    """Grid values of one or a stack of half spectra, written into ``out``.
    ``spec`` is scratch: the column pass overwrites it.  With ``dealiased``
    only the modes in ``dealias_mask`` are read: the others are zeroed and
    the column pass skips their columns.  The row pass reads zeroed columns,
    not ``irfft``'s zero-padding, which costs more than filling them."""
    live, dead = _live(grid, dealiased)
    spec[..., dead, :live] = 0.0
    cols = spec[..., :live]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    spec[..., live:] = 0.0
    return np.fft.irfft(spec, n=grid.n, axis=-1, norm="forward", out=out)


def _forward(grid: Grid, values: np.ndarray, out: np.ndarray,
             dealiased: bool = False) -> np.ndarray:
    """Half spectrum of one or a stack of grid values, written into ``out``.
    With ``dealiased`` it is truncated by the 2/3 rule: the column pass
    skips the dead columns, and the modes outside ``dealias_mask`` are 0."""
    live, dead = _live(grid, dealiased)
    np.fft.rfft(values, axis=-1, norm="forward", out=out)
    cols = out[..., :live]
    np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    out[..., dead, :live] = 0.0
    out[..., live:] = 0.0
    return out


def forward_transform(f: RealField) -> SpectralField:
    """Transform grid values to Fourier coefficients."""
    values = np.asarray(f.values, dtype=np.float64)
    if values.shape != (f.grid.n, f.grid.n):
        raise ParameterError(
            f"expected shape {(f.grid.n, f.grid.n)}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ParameterError("field values contain non-finite entries")
    out = np.empty(f.grid.spectral_shape, dtype=complex)
    return SpectralField(f.grid, _forward(f.grid, values, out))


def inverse_transform(F: SpectralField) -> RealField:
    """Transform coefficients back to real grid values."""
    grid = F.grid
    spec = _workspace.get(grid)[0][0]
    np.copyto(spec, F.coeffs)
    return RealField(grid, _inverse(grid, spec, np.empty((grid.n, grid.n))))


def dealias(F: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero coefficients with max(|m1|, |m2|) > n/3."""
    return SpectralField(F.grid, F.coeffs * F.grid.dealias_mask)


def sobolev_norms(F: SpectralField, orders) -> list[float]:
    """Homogeneous Sobolev norms (L^2 sum_m |k|^{2s} |F(m)|^2)^{1/2}, one per
    order s, from one weighted |F|^2 array and one sum per distinct order.

    For s = 0 the zero mode is included (|k|^0 = 1 there), so the value is
    the full L^2 norm; for s > 0 the zero mode contributes nothing.
    """
    orders = [float(s) for s in orders]
    if not all(0.0 <= s < math.inf for s in orders):
        raise ParameterError(f"Sobolev orders must be finite and >= 0, got {orders}")
    grid = F.grid
    energy = grid.weights * (F.coeffs.real ** 2 + F.coeffs.imag ** 2)
    norms = {s: grid.length * float(np.sqrt(np.sum(grid.kmag_pow(2.0 * s) * energy)))
             for s in set(orders)}
    return [norms[s] for s in orders]


def sobolev_norm(F: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm of order s; see ``sobolev_norms``."""
    return sobolev_norms(F, (s,))[0]


def _sample(F: SpectralField):
    """(f, max f, min f, max |f|, max |grad f|) on the grid, for f the field
    of F, from one batched inverse transform of (F, i k1 F, i k2 F) in this
    thread's workspace, reduced in place: the gradient is spectral.

    The values are bit for bit those of ``inverse_transform(F)``, in a view
    into the workspace valid until this thread's next transform."""
    grid = F.grid
    spec, stack, _ = _workspace.get(grid)
    spec, stack = spec[:3], stack[:3]
    np.copyto(spec[0], F.coeffs)
    np.multiply(grid.multipliers[2:], F.coeffs, out=spec[1:])
    f, d1, d2 = _inverse(grid, spec, stack)
    hi, lo = float(f.max()), float(f.min())
    return f, hi, lo, max(abs(hi), abs(lo)), _sup_norm(d1, d2)


def _sup_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Grid maximum of |(a, b)|; a and b are scratch, squared in place."""
    a *= a
    b *= b
    a += b
    return float(np.sqrt(a.max()))


def sup_and_gradient_sup(F: SpectralField) -> tuple[float, float]:
    """Grid maxima of |f| and of |grad f|; see ``_sample``."""
    return _sample(F)[3:]
