"""Modulus-of-continuity certificate: construction, monitoring, scaling search.

The certificate function omega is defined through its second derivative

    omega''(r) = -delta3 / (r^{1/2} + r^2 log r),      r > 0,
    omega'(r)  = integral_r^inf  -omega''(s) ds,       omega(0) = 0.

The denominator is strictly positive on (0, inf) (the negative dip of
r^2 log r on (0,1) is at most 1/(2e) ~ 0.184 while r^{1/2} dominates it),
so omega is strictly increasing and concave, omega'(0) is finite because
the integrand ~ delta3 r^{-1/2} near zero, omega'' diverges to -inf at
zero, and omega grows without bound (double-logarithmically) at infinity.

Both tables come from one quadrature pass in the log variable x = log s.
With h(x) = e^x / (e^{x/2} + x e^{2x}) (delta3 = 1),

    omega'(r) = integral_{log r}^{inf} h(x) dx,

and integrating omega(r) = integral_0^r omega'(s) ds by parts gives

    omega(r)  = r omega'(r) + integral_{-inf}^{log r} e^x h(x) dx.

h ~ e^{x/2} as x -> -inf and h ~ e^{-x} / x as x -> inf, and e^x h ~ e^{3x/2}
at -inf: the log variable has removed the r^{-1/2} endpoint singularity,
and both integrands are analytic and exponentially small at either end.  So
one fixed composite Gauss-Legendre rule, on panels of width <= 1/4 over
[-90, log r_max + 45] with an edge at every table node, is exact to
rounding, and no adaptive quadrature (so no scipy) is needed: omega' is the
reverse cumulative sum of the panel integrals of h, omega the forward one
of e^x h, and omega'(0) their total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import RealField, Grid

# Composite Gauss-Legendre rule in x = log s: panel width and nodes per panel
# (4 already match adaptive quadrature to 3e-13), and the x range beyond
# which the integrals are below 1e-19 of the table values.
_PANEL_WIDTH, _PANEL_NODES = 0.25, 8
_X_LOW, _X_PAD = -90.0, 45.0
# Table nodes, log-spaced on [1e-4 r_max, r_max]: the spacing ratio is small
# enough that _certify's second differences resolve omega'' to 1%.
_TABLE_SIZE, _TABLE_SPAN = 256, 1e-4


def _shape_tables(r: np.ndarray):
    """(omega'(r), omega(r), omega'(0)) for delta3 = 1 at increasing r > 0."""
    log_r = np.log(r)
    top = log_r[-1] + _X_PAD
    fixed = np.linspace(_X_LOW, top, math.ceil((top - _X_LOW) / _PANEL_WIDTH) + 1)
    edges = np.sort(np.concatenate((fixed, log_r)))
    xg, wg = np.polynomial.legendre.leggauss(_PANEL_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg
    # h and e^x h with e^x and e^{2x} divided out, so that nothing overflows
    h_pieces = (half / (np.exp(-0.5 * x) + x * np.exp(x))) @ wg
    eh_pieces = (half / (np.exp(-1.5 * x) + x)) @ wg
    # panel integrals summed small to large: omega' from the tail end
    tail = np.cumsum(h_pieces[::-1])[::-1]
    head = np.concatenate(([0.0], np.cumsum(eh_pieces)))
    k = np.searchsorted(edges, log_r)
    return tail[k], r * tail[k] + head[k], float(tail[0])


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
            raise ParameterError(
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


def build_knv_modulus(delta3: float, r_max: float) -> ModulusOfContinuity:
    """Construct and certify the modulus table on log-spaced nodes."""
    if not delta3 > 0.0:
        raise ParameterError(f"delta3 must be > 0, got {delta3}")
    r_min = _TABLE_SPAN * r_max
    if not 0.0 < r_min < r_max < math.inf:
        raise ParameterError(
            f"r_max must be finite, with 1e-4 r_max > 0, got {r_max}")

    # a huge r_max overflows on the way: _certify rejects the non-finite or
    # non-monotone table that results, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.geomspace(r_min, r_max, _TABLE_SIZE)
        op, omega, op0 = _shape_tables(r)
        mod = ModulusOfContinuity(
            delta3=float(delta3),
            r_table=r,
            omega=delta3 * omega,
            omega_prime=delta3 * op,
            omega_prime_at_zero=delta3 * op0,
        )
        _certify(mod)
    return mod


def _certify(mod: ModulusOfContinuity):
    """Check the certificate conditions on the freshly built table."""
    r, om, op = mod.r_table, mod.omega, mod.omega_prime
    if not np.isfinite(mod.omega_prime_at_zero):
        raise ParameterError("omega'(0) is not finite")
    if not (np.all(np.diff(om) > 0.0) and np.all(om > 0.0)):
        raise ParameterError("omega is not strictly increasing")
    if not np.all(op > 0.0):
        raise ParameterError("omega' is not positive everywhere")
    if not np.all(np.diff(op) < 0.0):
        raise ParameterError("omega' is not strictly decreasing")
    if not op[0] < mod.omega_prime_at_zero:
        raise ParameterError("omega'(0) does not dominate the table")

    # Second differences must reproduce omega'' to 1% at interior nodes ...
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    second = 2.0 * (om[:-2] / (h1 * (h1 + h2))
                    - om[1:-1] / (h1 * h2)
                    + om[2:] / (h2 * (h1 + h2)))
    mid = r[1:-1]
    exact = -mod.delta3 / (np.sqrt(mid) + mid ** 2 * np.log(mid))
    rel = np.abs(second - exact) / np.abs(exact)
    if not np.max(rel) <= 0.01:  # NaN fails too
        raise ParameterError(
            f"second-difference certificate off by {np.max(rel):.2e} > 1%")
    # ... and diverge monotonically to -inf over the first table decade.
    first_decade = mid <= r[0] * 10.0
    d = second[first_decade]
    if d.size >= 3 and not np.all(np.diff(d) > 0.0):
        raise ParameterError(
            "second differences do not diverge monotonically at 0+")


def default_offsets(grid: Grid, r_max: float) -> list[tuple[int, int]]:
    """Offset recipe for the breach monitor.

    Axis-aligned separations of 1..8 cells plus log-spaced separations up to
    r_max along both axes and both diagonals, filtered to the tabulated range
    and to at most half the box (beyond which the periodic wrap shortens the
    true separation).  Each periodic shift is listed once: at n/2 cells the
    two diagonals are the same shift, and only (n/2, n/2) is kept.  An
    r_max below one grid cell leaves no separation to check and raises
    ``ParameterError``.
    """
    if not r_max >= grid.dx:
        raise ParameterError(
            f"r_max = {r_max} is below one grid cell (dx = {grid.dx}); the "
            f"monitor would check no separation")
    max_cells = grid.n // 2
    cells = set(range(1, min(8, max_cells) + 1))
    top_axis = int(min(max_cells, r_max / grid.dx))
    top_diag = int(min(max_cells, r_max / (grid.dx * math.sqrt(2.0))))
    for top in (top_axis, top_diag):
        if top >= 1:
            cells.update(int(round(c)) for c in np.geomspace(1, top, 12))
    offsets = {}  # shift mod n -> the first offset giving it
    for c in sorted(cells):
        candidates = []
        if c * grid.dx <= r_max and c <= top_axis:
            candidates += [(c, 0), (0, c)]
        if c * grid.dx * math.sqrt(2.0) <= r_max:
            candidates += [(c, c), (c, -c)]
        for d1, d2 in candidates:
            offsets.setdefault((d1 % grid.n, d2 % grid.n), (d1, d2))
    return list(offsets.values())


def check_modulus(field: RealField, mod: ModulusOfContinuity, offsets) -> BreachReport:
    """Compare grid differences against omega over the given lattice offsets.

    For each offset d the maximum of |f(x+d) - f(x)| over the periodic grid
    is divided by omega(|d|); the report carries the worst ratio and the
    first offset achieving it.  Every offset is validated, and every bound
    looked up, before any difference is taken.  The shifted fields are views
    into one copy of f tiled 2 x 2, so a call costs one O(n^2) copy plus
    O(n^2) arithmetic per offset.
    """
    offsets = [(int(d1), int(d2)) for d1, d2 in offsets]
    if not offsets:
        raise ParameterError("offsets must be nonempty")
    if (0, 0) in offsets:
        raise ParameterError("offsets must be nonzero lattice vectors")
    dx = field.grid.dx
    bounds = mod.omega_at([dx * math.hypot(d1, d2) for d1, d2 in offsets])
    v, n = field.values, field.grid.n
    tiled = np.tile(v, (2, 2))
    diff = np.empty_like(v)
    worst = -1.0
    worst_offset = offsets[0]
    for (d1, d2), bound in zip(offsets, bounds.tolist()):
        s1, s2 = d1 % n, d2 % n
        np.subtract(tiled[s1:s1 + n, s2:s2 + n], v, out=diff)
        ratio = float(np.abs(diff, out=diff).max()) / bound
        if ratio > worst:
            worst = ratio
            worst_offset = (d1, d2)
    return BreachReport(breached=bool(worst > 1.0), worst_ratio=float(worst),
                        worst_offset=worst_offset)


def _lattice_bound(grid: Grid, mod: ModulusOfContinuity, offsets):
    """A cheap test that ``check_modulus(field, mod, offsets)`` reports no
    breach: ``safe(values, hi, lo)`` for grid values with max hi and min lo.

    Along a lattice path, the triangle inequality bounds |f(x+d) - f(x)| by
    the sups s10, s01, s11, s1-1 of the four unit-shift differences:
    |d1| s10 + |d2| s01 for every d, |d1| s11 if d1 = d2 and |d1| s1-1 if
    d1 = -d2, and by the oscillation hi - lo.  The test passes when the least
    of these, over omega(|d|), is below 1 for every offset.  Each computed
    difference is within a factor 1 +- u of the exact one (u the unit
    roundoff), so a ratio ``check_modulus`` computes is at most (1 + 8u)
    times the bound's; the factor 1 + 1e-12 covers that, and a NaN anywhere
    fails the test.  Path lengths and omega(|d|) are looked up here, once.
    """
    omega = mod.omega_at([grid.dx * math.hypot(d1, d2) for d1, d2 in offsets])
    d = np.array(offsets, dtype=float)
    along1, along2 = np.abs(d[:, 0]), np.abs(d[:, 1])
    # the diagonal path's unit shift, indexing (s10, s01, s11, s1-1, inf), and
    # its length: 1 off the diagonals, where it multiplies inf, not 0
    diagonal = np.where(d[:, 0] == d[:, 1], 2, np.where(d[:, 0] == -d[:, 1], 3, 4))
    diagonal_steps = np.where(diagonal < 4, along1, 1.0)

    def safe(values: np.ndarray, hi: float, lo: float) -> bool:
        n = values.shape[0]
        ring = np.pad(values, ((0, 1), (1, 1)), mode="wrap")  # ring[i, j+1] = f(i, j)
        diff = np.empty((4, n, n))
        # f(x + e) - f(x) for e = (1, 0), (0, 1), (1, 1), (1, -1)
        shifted = (ring[1:, 1:-1], ring[:-1, 2:], ring[1:, 2:], ring[1:, :-2])
        for k, view in enumerate(shifted):
            np.subtract(view, values, out=diff[k])
        sups = np.append(np.abs(diff, out=diff).max(axis=(1, 2)), np.inf)
        path = np.minimum(along1 * sups[0] + along2 * sups[1],
                          diagonal_steps * sups[diagonal])
        ratio = np.max(np.minimum(hi - lo, path) / omega)
        return bool(ratio * (1.0 + 1e-12) < 1.0)

    return safe


@dataclass(frozen=True)
class ScalingResult:
    """Outcome of the box-stretch search for an admissible rescaling."""

    c: int
    field: RealField
    report: BreachReport


def find_scaling(theta0: RealField, mod: ModulusOfContinuity) -> ScalingResult:
    """Find C (a power of two) so that theta0(C x) satisfies the modulus.

    theta0(C x) sampled on a box of length C L carries exactly the original
    grid values, so doubling the box length realizes the rescaling without
    interpolation.  Doubling stops once the monitor reports a worst ratio
    <= 0.9 over the default offsets, and fails with ``ParameterError``
    once the stretched grid cell passes mod.r_max.
    """
    c = 1
    while True:
        grid = Grid(theta0.grid.n, c * theta0.grid.length)
        field = RealField(grid, theta0.values)
        try:
            offsets = default_offsets(grid, mod.r_max)
        except ParameterError:
            raise ParameterError(
                f"no admissible rescaling: at C = {c} the grid cell "
                f"{grid.dx} is past r_max = {mod.r_max}") from None
        report = check_modulus(field, mod, offsets)
        if report.worst_ratio <= 0.9:
            return ScalingResult(c=c, field=field, report=report)
        c *= 2
