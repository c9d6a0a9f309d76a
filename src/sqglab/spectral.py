"""Discrete Fourier representation of real scalar fields on a periodic box,
and the advection kernel the stepper integrates.

Grid points are x_j = (L/n) * j, j = 0..n-1 per axis, stored row-major.
Coefficients follow F(m) = (1/n^2) * sum_j f(x_j) exp(-i k(m) . x_j) with
k(m) = (2 pi / L) m.  Fields are real, so a ``SpectralField`` holds only the
(n, n/2+1) half spectrum of ``numpy.fft.rfft2``: rows m1 = 0, 1, .., n/2-1,
-n/2, .., -1 and columns m2 = 0, 1, .., n/2.  A mode of columns 1 .. n/2-1
stands for its conjugate partner too, so full-lattice sums are half-lattice
sums weighted by ``Grid.weights`` (2 there, 1 on columns 0 and n/2), and
Parseval reads ||f||_{L^2}^2 = L^2 * sum_m w(m) |F(m)|^2.

The public transforms are ``irfft2`` and ``rfft2``.  The stepper's and the
sample's run the same 1-D passes in the same order, so on the 2/3-rule
block results match them bit for bit; their column passes work in place on
scratch in a per-thread workspace, so threads never share buffers and a
right-hand side allocates nothing large.

One function, ``_advection``, forms u . grad(theta) under the 2/3 rule,
and one, ``_sample``, the norm sample's grid values and gradient.  Both
read only the modes |m1|, |m2| <= ``Grid.cutoff``, so their column passes
run on the first cutoff + 1 columns alone (Patterson and Orszag, 1971).
``_advection`` takes and gives those modes packed (``_pack``,
``_unpack``): a contiguous ``Grid.packed_shape`` array, (2 cutoff + 1,
cutoff + 1), of the rows m1 = 0 .. cutoff, then -cutoff .. -1
(``Grid.live_rows``), and the columns m2 = 0 .. cutoff.  The tables they
and the stepper read, ``Grid.multipliers`` and the integrating factors'
powers of |k|, are held on that block only.

A right-hand side is one batched inverse and one forward transform, a
norm sample one batched inverse, on the calling thread.
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

    Holds every Fourier multiplier: on the (n, n/2+1) half lattice the
    integer frequencies ``m1``/``m2`` and physical wavenumbers ``k1``/``k2``
    (a column and a row that broadcast), the modulus ``kmag`` and its cached
    powers, the Parseval ``weights``, the 2/3-rule ``cutoff`` (n-1)//3 and
    ``dealias_mask``, and the ``packed_shape`` and ``live_rows`` of the
    modes that rule keeps, packed (see the module docstring).  On that
    packed block only, the ``multipliers`` stack (4, 2 cutoff + 1,
    cutoff + 1) gives, from theta, the Riesz velocity u1 = -i k2/|k|,
    u2 = i k1/|k| (0 at k = 0) and the gradient i k1, i k2.
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

        # the integers, Nyquist at -n/2 and at +n/2; fftfreq(n, d=1/n) scales
        # them by 1 / (n (1/n)), which is not 1 at n = 98, 196, 206, ...
        self.m1 = np.fft.ifftshift(np.arange(-(n // 2), n // 2, dtype=float))[:, None]
        self.m2 = np.arange(n // 2 + 1, dtype=float)[None, :]
        scale = 2.0 * np.pi / self.length
        self.k1 = scale * self.m1
        self.k2 = scale * self.m2
        np.hypot(self.k1, self.k2, out=self.kmag)

        self.weights = np.full((1, n // 2 + 1), 2.0)
        self.weights[0, [0, -1]] = 1.0

        # the largest cutoff with 3 cutoff < n: at 3 cutoff = n the product of
        # two modes at the cutoff aliases back onto the mode -cutoff
        self.cutoff = (n - 1) // 3
        self.dealias_mask = (abs(self.m1) <= self.cutoff) & (abs(self.m2) <= self.cutoff)
        live = self.cutoff + 1
        self.packed_shape = (2 * self.cutoff + 1, live)
        # (half-spectrum rows, packed rows): m1 = 0 .. cutoff, then -cutoff .. -1
        self.live_rows = ((slice(None, live), slice(None, live)),
                          (slice(-self.cutoff, None), slice(live, None)))

        k1, k2 = _pack(self, self.k1), self.k2[:, :live]
        kmag = _pack(self, self.kmag)
        inv_k = np.zeros_like(kmag)
        np.divide(1.0, kmag, out=inv_k, where=kmag > 0.0)
        self.multipliers = np.empty((4,) + self.packed_shape, dtype=complex)
        for out, symbol in zip(self.multipliers, (-k2 * inv_k, k1 * inv_k, k1, k2)):
            np.multiply(1j, symbol, out=out)

        self._pow_cache: dict[tuple[float, bool], np.ndarray] = {}

    def points(self):
        """Coordinate arrays (x1, x2), each of shape (n, n)."""
        x = self.dx * np.arange(self.n)
        return np.meshgrid(x, x, indexing="ij")

    def kmag_pow(self, s: float) -> np.ndarray:
        """|k|^s with 0^s = 0 for s > 0 and 0^0 = 1, cached per exponent."""
        return self._kmag_pow(s, packed=False)

    def _kmag_pow(self, s: float, packed: bool) -> np.ndarray:
        """``kmag_pow(s)``, or with ``packed`` its packed block, cached per
        exponent and layout."""
        key = (float(s), packed)
        out = self._pow_cache.get(key)
        if out is None:
            with np.errstate(divide="ignore"):
                out = (_pack(self, self.kmag) if packed else self.kmag) ** key[0]
            self._pow_cache[key] = out
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
    """This thread's scratch buffers, one set per ``Grid.spectral_shape``:
    each thread steps and samples in its own, so threads share none."""

    def __init__(self):
        self.buffers = {}

    def get(self, grid):
        """(half-spectrum stack, grid stack) for this grid, four of each:
        a right-hand side's u1, u2, d1 theta and d2 theta, or in the first
        three a norm sample's f, d1 f and d2 f."""
        buffers = self.buffers.get(grid.spectral_shape)
        if buffers is None:
            buffers = self.buffers[grid.spectral_shape] = (
                np.empty((4,) + grid.spectral_shape, dtype=complex),
                np.empty((4, grid.n, grid.n)))
        return buffers


_workspace = _Workspace()


def _pack(grid: Grid, full: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The live block of one or a stack of half spectra, packed into ``out``
    (a new array if None).  ``full`` may hold only the packed columns of
    ``out``: a column range of both is packed alike.  Its rows are read from
    both ends, so a finer grid's half spectrum is restricted to this block."""
    if out is None:
        out = np.empty(full.shape[:-2] + grid.packed_shape, dtype=full.dtype)
    cols = out.shape[-1]
    for rows, packed in grid.live_rows:
        out[..., packed, :] = full[..., rows, :cols]
    return out


def _unpack(grid: Grid, packed: np.ndarray) -> np.ndarray:
    """The half spectra of one or a stack of packed spectra: a new array,
    +0.0 outside ``dealias_mask``."""
    out = np.zeros(packed.shape[:-2] + grid.spectral_shape, dtype=packed.dtype)
    cols = packed.shape[-1]
    for rows, block in grid.live_rows:
        out[..., rows, :cols] = packed[..., block, :]
    return out


def _inverse(grid: Grid, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Grid values of the modes in ``dealias_mask`` of one or a stack of half
    spectra, written into ``out``.  ``spec`` is scratch: the other modes are
    zeroed, and the column pass skips their columns and overwrites the rest.
    The row pass reads zeroed columns, not ``irfft``'s zero-padding, which
    costs more than filling them."""
    live = grid.packed_shape[1]
    spec[..., live:grid.n - live + 1, :live] = 0.0  # rows |m1| > cutoff, if any
    cols = spec[..., :live]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    spec[..., live:] = 0.0
    return np.fft.irfft(spec, n=grid.n, axis=-1, norm="forward", out=out)


def _forward(grid: Grid, values: np.ndarray, spec: np.ndarray, out: np.ndarray):
    """The dealiased forward transform of one or a stack of grid values,
    packed into ``out``.  The ``rfft`` along the rows goes into the scratch
    ``spec``; the column pass runs in place on the packed columns alone."""
    np.fft.rfft(values, axis=-1, norm="forward", out=spec)
    cols = spec[..., :grid.packed_shape[1]]
    np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    _pack(grid, cols, out)


def _advection(grid, coeffs: np.ndarray, out: np.ndarray, nonlinear: bool = True):
    """Write the advection term u . grad(theta) of the packed spectrum
    ``coeffs`` into the packed ``out``, or zeros without ``nonlinear``;
    return the grid velocity (u1, u2), or None.

    One inverse transform of the velocity and gradient spectra, formed on
    the live block only, gives u1, u2, d1 theta and d2 theta on the grid;
    u1 d1 theta + u2 d2 theta is summed there and transformed back.  u1 and
    u2 are views into this thread's workspace, valid until its next call.
    """
    if not nonlinear:
        out.fill(0.0)
        return None
    spec, stack = _workspace.get(grid)
    live = coeffs.shape[-1]
    for rows, packed in grid.live_rows:
        np.multiply(grid.multipliers[:, packed], coeffs[packed], out=spec[:, rows, :live])
    u1, u2, t1, t2 = _inverse(grid, spec, stack)
    stack[2:] *= stack[:2]
    t1 += t2
    _forward(grid, t1, spec[0], out)
    return u1, u2


def forward_transform(f: RealField) -> SpectralField:
    """Transform grid values to Fourier coefficients."""
    values = np.asarray(f.values, dtype=np.float64)
    if values.shape != (f.grid.n, f.grid.n):
        raise ParameterError(
            f"expected shape {(f.grid.n, f.grid.n)}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ParameterError("field values contain non-finite entries")
    return SpectralField(f.grid, np.fft.rfft2(values, norm="forward"))


def inverse_transform(F: SpectralField) -> RealField:
    """Transform coefficients back to real grid values."""
    n = F.grid.n
    return RealField(F.grid, np.fft.irfft2(F.coeffs, s=(n, n), norm="forward"))


def dealias(F: SpectralField) -> SpectralField:
    """2/3-rule truncation: a new field that keeps F's coefficients where
    max(|m1|, |m2|) <= ``Grid.cutoff`` and holds +0.0 where it is
    > ``Grid.cutoff``, as a step's states do, whatever F holds there: a
    non-finite coefficient becomes +0.0 too, not NaN."""
    return SpectralField(F.grid, _unpack(F.grid, _pack(F.grid, F.coeffs)))


def sobolev_norms(F: SpectralField, orders) -> list[float]:
    """Homogeneous Sobolev norms (L^2 sum_m |k|^{2s} |F(m)|^2)^{1/2}, one per
    order s, from one weighted |F|^2 array and one sum per distinct order.

    For s = 0 the weighted |F|^2 is summed as it is, zero mode included, so
    the value is the full L^2 norm; for s > 0 the zero mode contributes
    nothing.
    """
    orders = [float(s) for s in orders]
    if not all(0.0 <= s < math.inf for s in orders):
        raise ParameterError(f"Sobolev orders must be finite and >= 0, got {orders}")
    grid = F.grid
    energy = grid.weights * (F.coeffs.real ** 2 + F.coeffs.imag ** 2)
    norms = {s: grid.length * float(np.sqrt(np.sum(
        grid.kmag_pow(2.0 * s) * energy if s else energy))) for s in set(orders)}
    return [norms[s] for s in orders]


def sobolev_norm(F: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm of order s; see ``sobolev_norms``."""
    return sobolev_norms(F, (s,))[0]


def _sample(F: SpectralField):
    """(f, max f, min f, max |f|, max |grad f|) on the grid, for f the field
    of ``dealias(F)``, from one inverse transform of the 2/3-rule block of
    (F, i k1 F, i k2 F), formed as ``_advection`` forms its four fields, in
    slots 0 to 2 of this thread's workspace.  f is bit for bit
    ``inverse_transform(dealias(F))``, in a view valid until this thread's
    next transform."""
    grid = F.grid
    spec, stack = _workspace.get(grid)
    spec, stack = spec[:3], stack[:3]
    live = grid.packed_shape[1]
    for rows, packed in grid.live_rows:
        block = F.coeffs[rows, :live]
        spec[0, rows, :live] = block
        np.multiply(grid.multipliers[2:, packed], block, out=spec[1:, rows, :live])
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
    """Grid maxima of |f| and |grad f|, f the field of ``dealias(F)``; see ``_sample``."""
    return _sample(F)[3:]
