"""Modulus-of-continuity certificate: construction, monitoring, scaling search.

The certificate function omega is defined through its second derivative

    omega''(r) = -delta3 / (r^{1/2} + r^2 log r),      r > 0,
    omega'(r)  = integral_r^inf  -omega''(s) ds,       omega(0) = 0.

The denominator is strictly positive on (0, inf) (the negative dip of
r^2 log r on (0,1) is at most 1/(2e) ~ 0.184 while r^{1/2} dominates it),
so omega is strictly increasing and concave, omega'(0) is finite because
the integrand ~ delta3 r^{-1/2} near zero, omega'' diverges to -inf at
zero, and omega grows without bound (double-logarithmically) at infinity.

omega' is evaluated by adaptive quadrature on substituted integrands that
remove the endpoint singularities:

    s in (0, 1]:  s = v^2   ->  2 delta3 / (1 + 2 v^3 log v) dv
    s in [1, oo): s = 1/u   ->  delta3 / (u^{3/2} - log u)  du

and omega is accumulated over a log-spaced table by per-interval
Gauss-Legendre quadrature of omega'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    ConstructionError,
    ParameterError,
    RangeError,
)
from .spectral import RealField, Grid, gradient_sup

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def _low_integrand(v: float) -> float:
    # s = v^2 substitution of 1/(sqrt(s) + s^2 log s) on (0, 1]
    if v <= 0.0:
        return 2.0
    return 2.0 / (1.0 + 2.0 * v ** 3 * math.log(v))


def _tail_integrand(u: float) -> float:
    # s = 1/u substitution of 1/(sqrt(s) + s^2 log s) on [1, inf)
    if u <= 0.0:
        return 0.0
    return 1.0 / (u ** 1.5 - math.log(u))


def omega_prime_shape(r: float) -> float:
    """omega'(r) for delta3 = 1; scale by delta3 for the general case."""
    from scipy.integrate import quad  # deferred: scipy is slow to import

    if r < 0.0:
        raise ParameterError(f"separation must be >= 0, got {r}")
    tail_to = 1.0 if r <= 1.0 else 1.0 / r
    tail, tail_err = quad(_tail_integrand, 0.0, tail_to, **_QUAD_OPTS)
    if r > 1.0:
        _check_quad(tail, tail_err)
        return tail
    low, low_err = quad(_low_integrand, math.sqrt(r), 1.0, **_QUAD_OPTS)
    _check_quad(low, low_err)
    _check_quad(tail, tail_err)
    return low + tail


def _check_quad(value: float, err: float):
    if not np.isfinite(value) or err > 1e-9 * max(1.0, abs(value)):
        raise AccuracyError(
            f"quadrature failed to converge (value {value}, error {err})")


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Tabulated certificate (r, omega(r), omega'(r)) plus omega'(0)."""

    delta3: float
    r_table: np.ndarray
    omega: np.ndarray
    omega_prime: np.ndarray
    omega_prime_at_zero: float

    @property
    def r_max(self) -> float:
        return float(self.r_table[-1])

    def omega_at(self, r):
        """Monotone piecewise-linear interpolation of omega, anchored at (0, 0).

        Chords of a concave function lie below it, so interpolation
        underestimates omega and the breach monitor stays conservative.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0) or np.any(r > self.r_table[-1] * (1.0 + 1e-12)):
            raise RangeError(
                f"separation outside tabulated range (0, {self.r_max}]")
        xs = np.concatenate(([0.0], self.r_table))
        ys = np.concatenate(([0.0], self.omega))
        return np.interp(r, xs, ys)


@dataclass(frozen=True)
class BreachReport:
    """Worst difference-to-omega ratio over the checked offsets."""

    breached: bool
    worst_ratio: float
    worst_offset: tuple[int, int]
    time: float


@dataclass(frozen=True)
class GradientBoundReport:
    """Result of the pointwise gradient bound sup|grad f| < omega'(0)."""

    ok: bool
    margin: float
    gradient_sup: float
    omega_prime_at_zero: float


def build_knv_modulus(
    delta3: float,
    r_max: float,
    table_size: int = 256,
    r_min: float | None = None,
) -> ModulusOfContinuity:
    """Construct and certify the modulus table on log-spaced nodes.

    The default span (r_min = 1e-4 * r_max) keeps the spacing ratio small
    enough that the second-difference certificate below resolves omega'' to
    1% even at the minimum table size of 64.
    """
    if not delta3 > 0.0:
        raise ParameterError(f"delta3 must be > 0, got {delta3}")
    if not r_max > 0.0:
        raise ParameterError(f"r_max must be > 0, got {r_max}")
    if table_size < 64:
        raise ParameterError(f"table_size must be >= 64, got {table_size}")
    if r_min is None:
        r_min = 1e-4 * r_max
    if not 0.0 < r_min < r_max:
        raise ParameterError(f"need 0 < r_min < r_max, got {r_min}")

    # The denominator must be positive wherever sampled; certify by sweep.
    sweep = np.geomspace(1e-8, 1e8, 4096)
    denom = np.sqrt(sweep) + sweep ** 2 * np.log(sweep)
    if np.min(denom) <= 0.0:
        raise ConstructionError("omega'' denominator not positive on sweep")

    r = np.geomspace(r_min, r_max, int(table_size))
    op = delta3 * np.array([omega_prime_shape(ri) for ri in r])
    op0 = delta3 * omega_prime_shape(0.0)

    # omega(r_0): integrate omega' over [0, r_0] after s = w^2, which makes
    # the integrand smooth; omega' itself is smooth on each later interval.
    xg8, wg8 = np.polynomial.legendre.leggauss(8)
    b = math.sqrt(r[0])
    nodes = 0.5 * b * (xg8 + 1.0)
    om0 = float(np.sum(wg8 * 0.5 * b
                       * np.array([delta3 * omega_prime_shape(w * w) * 2.0 * w
                                   for w in nodes])))
    xg4, wg4 = np.polynomial.legendre.leggauss(4)
    omega = np.empty_like(r)
    omega[0] = om0
    for i in range(len(r) - 1):
        a, c = r[i], r[i + 1]
        nodes = 0.5 * (c - a) * xg4 + 0.5 * (a + c)
        piece = np.sum(wg4 * 0.5 * (c - a)
                       * np.array([delta3 * omega_prime_shape(x) for x in nodes]))
        omega[i + 1] = omega[i] + piece

    mod = ModulusOfContinuity(
        delta3=float(delta3),
        r_table=r,
        omega=omega,
        omega_prime=op,
        omega_prime_at_zero=op0,
    )
    _certify(mod)
    return mod


def _certify(mod: ModulusOfContinuity):
    """Check the certificate conditions on the freshly built table."""
    r, om, op = mod.r_table, mod.omega, mod.omega_prime
    if not np.isfinite(mod.omega_prime_at_zero):
        raise ConstructionError("omega'(0) is not finite")
    if not (np.all(np.diff(om) > 0.0) and np.all(om > 0.0)):
        raise ConstructionError("omega is not strictly increasing")
    if not np.all(op > 0.0):
        raise ConstructionError("omega' is not positive everywhere")
    if not np.all(np.diff(op) < 0.0):
        raise ConstructionError("omega' is not strictly decreasing")
    if not op[0] < mod.omega_prime_at_zero:
        raise ConstructionError("omega'(0) does not dominate the table")

    # Second differences must reproduce omega'' to 1% at interior nodes ...
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    second = 2.0 * (om[:-2] / (h1 * (h1 + h2))
                    - om[1:-1] / (h1 * h2)
                    + om[2:] / (h2 * (h1 + h2)))
    mid = r[1:-1]
    exact = -mod.delta3 / (np.sqrt(mid) + mid ** 2 * np.log(mid))
    rel = np.abs(second - exact) / np.abs(exact)
    if np.max(rel) > 0.01:
        raise AccuracyError(
            f"second-difference certificate off by {np.max(rel):.2e} > 1%")
    # ... and diverge monotonically to -inf over the first table decade.
    first_decade = mid <= r[0] * 10.0
    d = second[first_decade]
    if d.size >= 3 and not np.all(np.diff(d) > 0.0):
        raise ConstructionError(
            "second differences do not diverge monotonically at 0+")


def default_offsets(grid: Grid, r_max: float) -> list[tuple[int, int]]:
    """Offset recipe for the breach monitor.

    Axis-aligned separations of 1..8 cells plus log-spaced separations up to
    r_max along both axes and both diagonals, filtered to the tabulated range
    and to at most half the box (beyond which the periodic wrap shortens the
    true separation).
    """
    max_cells = grid.n // 2
    cells = set(range(1, min(8, max_cells) + 1))
    top_axis = min(max_cells, int(r_max / grid.dx))
    top_diag = min(max_cells, int(r_max / (grid.dx * math.sqrt(2.0))))
    for top in (top_axis, top_diag):
        if top >= 1:
            cells.update(int(round(c)) for c in np.geomspace(1, top, 12))
    offsets = []
    for c in sorted(cells):
        if c < 1:
            continue
        if c * grid.dx <= r_max and c <= top_axis:
            offsets.append((c, 0))
            offsets.append((0, c))
        if c * grid.dx * math.sqrt(2.0) <= r_max:
            offsets.append((c, c))
            offsets.append((c, -c))
    return offsets


def check_modulus(
    field: RealField,
    mod: ModulusOfContinuity,
    offsets,
    t: float = 0.0,
) -> BreachReport:
    """Compare grid differences against omega over the given lattice offsets.

    For each offset d the maximum of |f(x+d) - f(x)| over the periodic grid
    is divided by omega(|d|); the report carries the worst ratio and the
    offset achieving it.  Cost is O(n^2) per offset.
    """
    offsets = list(offsets)
    if not offsets:
        raise ParameterError("offsets must be nonempty")
    v = field.values
    dx = field.grid.dx
    worst = -1.0
    worst_offset = offsets[0]
    for d1, d2 in offsets:
        if d1 == 0 and d2 == 0:
            raise ParameterError("offsets must be nonzero lattice vectors")
        sep = dx * math.hypot(d1, d2)
        bound = float(mod.omega_at(sep))
        diff = float(np.max(np.abs(np.roll(v, (-d1, -d2), axis=(0, 1)) - v)))
        ratio = diff / bound
        if ratio > worst:
            worst = ratio
            worst_offset = (int(d1), int(d2))
    return BreachReport(
        breached=bool(worst > 1.0),
        worst_ratio=float(worst),
        worst_offset=worst_offset,
        time=float(t),
    )


def gradient_bound_check(field: RealField, mod: ModulusOfContinuity) -> GradientBoundReport:
    """Check sup|grad f| < omega'(0) and report the margin."""
    g = gradient_sup(field)
    margin = mod.omega_prime_at_zero - g
    return GradientBoundReport(
        ok=bool(g < mod.omega_prime_at_zero),
        margin=float(margin),
        gradient_sup=float(g),
        omega_prime_at_zero=float(mod.omega_prime_at_zero),
    )


@dataclass(frozen=True)
class ScalingResult:
    """Outcome of the box-stretch search for an admissible rescaling."""

    c: int
    field: RealField
    report: BreachReport


def find_scaling(
    theta0: RealField,
    mod: ModulusOfContinuity,
    target_ratio: float = 0.9,
    max_doublings: int = 60,
) -> ScalingResult:
    """Find C (a power of two) so that theta0(C x) satisfies the modulus.

    theta0(C x) sampled on a box of length C L carries exactly the original
    grid values, so doubling the box length realizes the rescaling without
    interpolation.  Doubling stops once the monitor reports a worst ratio
    <= target_ratio over the default offsets.
    """
    c = 1
    for _ in range(max_doublings + 1):
        grid = Grid(theta0.grid.n, c * theta0.grid.length)
        field = RealField(grid, theta0.values)
        offsets = default_offsets(grid, mod.r_max)
        if not offsets:
            break
        report = check_modulus(field, mod, offsets)
        if report.worst_ratio <= target_ratio:
            return ScalingResult(c=c, field=field, report=report)
        c *= 2
    raise ConstructionError(
        f"no admissible rescaling found within {max_doublings} doublings")
