"""Modulus-of-continuity certificate: construction and monitoring.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check
from .spectral import RealField, Grid

# Composite Gauss-Legendre rule in x = log s: panel width and nodes per panel
# (4 already match adaptive quadrature to 3e-13), and the x range beyond
# which the integrals are below 1e-19 of the table values.
_PANEL_WIDTH, _PANEL_NODES = 0.25, 8
_X_LOW, _X_PAD = -90.0, 45.0
# Table nodes, log-spaced on [1e-4 r_max, r_max]: the spacing ratio is small
# enough that _certify's second differences resolve omega'' to 1%.
_TABLE_SIZE, _TABLE_SPAN = 256, 1e-4

# The table reaches at least this far: every box up to 10 sqrt 2 long (the
# 2 pi box among them) shares one table, and a tiny box gets one.
_TABLE_FLOOR = 10.0

# value rules, (test, what the value must do); modulus.delta3 reuses them
_RULES = {"delta3": (lambda v: v > 0.0, "be > 0")}


def _unbacked(gamma: float, kappa: float):
    """(name, message) for the first of gamma and kappa for which the
    monitor's modulus is no theorem, else None.  KNV's omega is preserved by
    the critical equation gamma = 1 only.  If theta solves it with kappa,
    theta(x, t / kappa) / kappa solves it with kappa = 1, so the monitor
    compares with kappa omega, which needs kappa > 0."""
    if gamma != 1.0:
        return "gamma", f"gamma must be 1 for the modulus monitor, got {gamma!r}"
    if not kappa > 0.0:
        return "kappa", f"kappa must be > 0 for the modulus monitor, got {kappa!r}"
    return None


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
        if not np.all((r > 0.0) & (r <= self.r_table[-1] * (1.0 + 1e-12))):
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


def build_knv_modulus(delta3: float, grid: Grid) -> ModulusOfContinuity:
    """Construct and certify the modulus table on log-spaced nodes, up to
    the largest periodic separation of ``grid``, (n/2) sqrt 2 cells, or
    ``_TABLE_FLOOR`` if that is further.

    The table for delta3 = 1 is certified first, so a failure there is the
    box's (past about L = 1.4e153 the table overflows); then delta3 must
    keep every value the certificate forms a normal float (see
    ``_normal_range``), else ``ParameterError`` names the range of delta3
    that builds."""
    _check(_RULES["delta3"], "delta3", delta3)
    reach = max(grid.dx * math.hypot(grid.n // 2, grid.n // 2), _TABLE_FLOOR)

    # a huge box overflows on the way (and divides by the overflow): _certify
    # rejects the table that results, so numpy need not warn as well
    with np.errstate(all="ignore"):
        r = np.geomspace(_TABLE_SPAN * reach, reach, _TABLE_SIZE)
        op, omega, op0 = _shape_tables(r)
        shape = ModulusOfContinuity(1.0, r, omega, op, op0)
        _certify(shape)
        low, high = _normal_range(shape)
        if not low <= delta3 <= high:
            raise ParameterError(f"delta3 must lie in [{low:.3g}, {high:.3g}] for "
                                 f"r_max = {shape.r_max:g}, got {delta3!r}")
        mod = ModulusOfContinuity(
            delta3=float(delta3),
            r_table=r,
            omega=delta3 * omega,
            omega_prime=delta3 * op,
            omega_prime_at_zero=delta3 * op0,
        )
        _certify(mod)
    return mod


def _second_differences(mod: ModulusOfContinuity):
    """The three quotients whose sum with signs +, -, +, doubled, is the
    second difference of omega at the interior nodes, and omega'' there."""
    r, om = mod.r_table, mod.omega
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    mid = r[1:-1]
    return ((om[:-2] / (h1 * (h1 + h2)), om[1:-1] / (h1 * h2), om[2:] / (h2 * (h1 + h2))),
            -mod.delta3 / (np.sqrt(mid) + mid ** 2 * np.log(mid)))


def _normal_range(shape: ModulusOfContinuity) -> tuple[float, float]:
    """The delta3 for which delta3 times each value that ``_certify`` forms
    from the delta3 = 1 table ``shape`` is a normal float, within a factor 2
    for the roundings of the scaled quotients: past it the second
    differences overflow to nan, and below it subnormal omega values lose
    the digits the second differences need."""
    (a, b, c), exact = _second_differences(shape)
    values = np.abs(np.concatenate((shape.omega, shape.omega_prime,
                                    [shape.omega_prime_at_zero], a, b, c,
                                    2.0 * (a - b + c), exact)))
    floats = np.finfo(float)
    return 2.0 * floats.tiny / values.min(), floats.max / (2.0 * values.max())


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
    (a, b, c), exact = _second_differences(mod)
    second = 2.0 * (a - b + c)
    mid = r[1:-1]
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


def default_offsets(grid: Grid) -> list[tuple[int, int]]:
    """Offset recipe for the breach monitor.

    Separations of 1..8 cells plus 12 log-spaced ones up to n/2 cells (past
    which the periodic wrap shortens them) along both axes and both
    diagonals, so they reach the box's largest separation at any length.
    Each periodic shift is listed once: at n/2 cells the two diagonals are
    the same shift, and only (n/2, n/2) is kept.
    """
    max_cells = grid.n // 2
    cells = set(range(1, min(8, max_cells) + 1))
    cells.update(int(round(c)) for c in np.geomspace(1, max_cells, 12))
    offsets = {}  # shift mod n -> the first offset giving it
    for c in sorted(cells):
        for d1, d2 in ((c, 0), (0, c), (c, c), (c, -c)):
            offsets.setdefault((d1 % grid.n, d2 % grid.n), (d1, d2))
    return list(offsets.values())


def _monitor(grid: Grid, delta3: float, kappa: float):
    """The breach monitor on ``grid``: its modulus kappa omega (see
    ``_unbacked``), tabulated over the box, offsets, and per-sample check
    ``breach(values, hi, lo)``, which returns the exhaustive check's report
    on a breached sample, else None.  The exhaustive check runs where
    ``_lattice_bound`` cannot rule a breach out."""
    mod = build_knv_modulus(delta3 * kappa, grid)
    offsets = default_offsets(grid)
    safe = _lattice_bound(grid, mod, offsets)

    def breach(values: np.ndarray, hi: float, lo: float):
        if safe(values, hi, lo):
            return None
        report = check_modulus(RealField(grid, values), mod, offsets)
        return report if report.breached else None

    return mod, offsets, breach


def _shift_sups(values: np.ndarray, offsets) -> np.ndarray:
    """max |f(x+d) - f(x)| over the periodic grid for each lattice offset d,
    from views into one copy of f tiled 2 x 2: a call costs one O(n^2) copy
    plus O(n^2) arithmetic per offset."""
    n = values.shape[0]
    tiled = np.empty((2 * n, 2 * n), values.dtype)  # cheaper than np.tile
    tiled[:n, :n] = tiled[:n, n:] = values
    tiled[n:] = tiled[:n]
    diff, sups = np.empty_like(values), np.empty(len(offsets))
    for k, (s1, s2) in enumerate(np.mod(offsets, n).tolist()):
        np.subtract(tiled[s1:s1 + n, s2:s2 + n], values, out=diff)
        sups[k] = np.abs(diff, out=diff).max()
    return sups


def check_modulus(field: RealField, mod: ModulusOfContinuity, offsets) -> BreachReport:
    """Compare grid differences against omega over the given lattice offsets.

    For each offset d the maximum of |f(x+d) - f(x)| over the periodic grid
    is divided by omega(|d|); the report carries the worst ratio and the
    first offset achieving it.  Every offset is validated as a pair of
    integers, and every bound looked up, before any difference is taken;
    non-finite values raise ``ParameterError``, as no ratio can rank them.
    """
    offsets = [tuple(d) if np.iterable(d) else d for d in offsets]
    for d in offsets:
        if not (isinstance(d, tuple) and len(d) == 2
                and all(isinstance(c, numbers.Integral) for c in d)):
            raise ParameterError(f"offset {d} is not a pair of integers")
    offsets = [(int(d1), int(d2)) for d1, d2 in offsets]
    if not offsets or (0, 0) in offsets:
        raise ParameterError("offsets must be one or more nonzero lattice vectors")
    bounds = mod.omega_at([field.grid.dx * math.hypot(d1, d2) for d1, d2 in offsets])
    if not np.isfinite(field.values).all():
        raise ParameterError("field values contain non-finite entries")
    ratios = _shift_sups(field.values, offsets) / bounds
    worst = int(np.argmax(ratios))
    return BreachReport(breached=bool(ratios[worst] > 1.0),
                        worst_ratio=float(ratios[worst]), worst_offset=offsets[worst])


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
        sups = np.append(_shift_sups(values, ((1, 0), (0, 1), (1, 1), (1, -1))), np.inf)
        path = np.minimum(along1 * sups[0] + along2 * sups[1],
                          diagonal_steps * sups[diagonal])
        ratio = np.max(np.minimum(hi - lo, path) / omega)
        return bool(ratio * (1.0 + 1e-12) < 1.0)

    return safe
