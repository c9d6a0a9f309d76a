"""Tests for the modulus-of-continuity certificate and breach monitor."""

import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from sqglab import (
    Grid,
    ParameterError,
    RealField,
    build_knv_modulus,
    check_modulus,
    default_offsets,
    forward_transform,
    inverse_transform,
    make_initial,
    sup_and_gradient_sup,
)
from sqglab.initial import PRESETS
from sqglab.modulus import _lattice_bound, _monitor, _shift_sups

TWO_PI = 2.0 * math.pi
# every box up to 10 sqrt 2 long has the table to the floor, r = 10
BOX = Grid(8, TWO_PI)

# Independent quadrature oracle for omega'(0) at delta3 = 0.1, frozen from a
# brute-force Simpson evaluation (substitutions s = v^2 below s = 1 and
# s = 1/u, u = e^{-w} above), two resolutions agreeing to better than 1e-8.
OMEGA_PRIME0_D3_01 = 0.3146819542141637


def simpson_omega_prime0(nodes: int) -> float:
    v = np.linspace(0.0, 1.0, nodes + 1)
    fv = np.full_like(v, 2.0)
    pos = v > 0
    fv[pos] = 2.0 / (1.0 + 2.0 * v[pos] ** 3 * np.log(v[pos]))
    w = np.linspace(0.0, 60.0, nodes + 1)
    fw = np.exp(-w) / (np.exp(-1.5 * w) + w)
    return float(simpson(fv, x=v) + simpson(fw, x=w))


# Adaptive-quadrature reference for the table: the s = v^2 and s = 1/u
# substitutions, integrated with scipy's quad, and omega accumulated by
# Gauss-Legendre quadrature of omega' over each table interval.
QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def quad_omega_prime_shape(r):
    def low(v):  # 1/(sqrt(s) + s^2 log s) on (0, 1] after s = v^2
        return 2.0 if v <= 0.0 else 2.0 / (1.0 + 2.0 * v ** 3 * math.log(v))

    def tail(u):  # the same on [1, inf) after s = 1/u
        return 0.0 if u <= 0.0 else 1.0 / (u ** 1.5 - math.log(u))

    value = quad(tail, 0.0, 1.0 if r <= 1.0 else 1.0 / r, **QUAD_OPTS)[0]
    if r <= 1.0:
        value += quad(low, math.sqrt(r), 1.0, **QUAD_OPTS)[0]
    return value


def quad_omega_table(r):
    # omega(r_0) after s = w^2, then 4-point rules on [r_i, r_{i+1}]
    xg8, wg8 = np.polynomial.legendre.leggauss(8)
    b = math.sqrt(r[0])
    w = 0.5 * b * (xg8 + 1.0)
    omega = [0.5 * b * sum(wg * quad_omega_prime_shape(x * x) * 2.0 * x
                           for wg, x in zip(wg8, w))]
    xg4, wg4 = np.polynomial.legendre.leggauss(4)
    for a, c in zip(r[:-1], r[1:]):
        nodes = 0.5 * (c - a) * xg4 + 0.5 * (a + c)
        omega.append(omega[-1] + 0.5 * (c - a) * sum(
            wg * quad_omega_prime_shape(x) for wg, x in zip(wg4, nodes)))
    return np.array(omega)


class TestConstruction:
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_knv_modulus(0.0, BOX)
        with pytest.raises(ParameterError):
            build_knv_modulus(-0.1, BOX)
        # boxes too large to tabulate: from 1.4e153 on omega'' overflows, and
        # the table divides by it
        for length in (1.4e153, 1e154, 1e200, 1e308):
            with pytest.raises(ParameterError):
                build_knv_modulus(0.1, Grid(8, length))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta3", [
        1e306,  # the second differences overflow to nan
        1e-320,
    ])
    def test_delta3_that_leaves_the_float_range_is_refused(self, delta3):
        with pytest.raises(ParameterError) as err:
            build_knv_modulus(delta3, BOX)
        message = str(err.value)
        assert message.startswith("delta3 must lie in [")
        assert message.endswith(f"for r_max = 10, got {delta3!r}")
        low, high = (float(v) for v in message[len("delta3 must lie in ["):
                                               message.index("]")].split(", "))
        assert low < 1e-200 and high > 1e200
        # the range it names builds, at both ends
        for inside in (low * 1.01, high / 1.01):
            assert build_knv_modulus(inside, BOX).delta3 == inside

    @pytest.mark.filterwarnings("error")
    def test_the_delta3_range_follows_the_box(self):
        # the table's far values grow with its end, L / sqrt 2 on a box past
        # the floor, and so does the least delta3 that keeps them normal
        grid = Grid(8, 1e100)
        with pytest.raises(ParameterError) as err:
            build_knv_modulus(1e-300, grid)
        message = str(err.value)
        assert message.endswith("for r_max = 7.07107e+99, got 1e-300")
        low, high = (float(v) for v in message[len("delta3 must lie in ["):
                                               message.index("]")].split(", "))
        assert 1e-200 < low < 1e-100 and high > 1e300
        for inside in (low * 1.01, high / 1.01):
            assert build_knv_modulus(inside, grid).r_max == grid.dx * math.hypot(4, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta3", [1e300, 1e-300])
    def test_extreme_delta3_on_the_monitor_floor_still_builds(self, delta3):
        mod = build_knv_modulus(delta3, BOX)
        assert mod.omega_prime_at_zero / delta3 == pytest.approx(
            OMEGA_PRIME0_D3_01 / 0.1, rel=1e-12)

    def test_omega_prime_at_zero_against_independent_oracle(self):
        coarse = simpson_omega_prime0(20000)
        fine = simpson_omega_prime0(40000)
        assert abs(coarse - fine) < 1e-8
        assert abs(0.1 * fine - OMEGA_PRIME0_D3_01) < 1e-8
        mod = build_knv_modulus(0.1, BOX)
        assert abs(mod.omega_prime_at_zero - OMEGA_PRIME0_D3_01) < 1e-10

    def test_linearity_in_delta3(self):
        a = build_knv_modulus(0.1, BOX)
        b = build_knv_modulus(0.2, BOX)
        assert np.allclose(b.omega, 2.0 * a.omega, rtol=1e-13, atol=0.0)
        assert np.allclose(b.omega_prime, 2.0 * a.omega_prime, rtol=1e-13, atol=0.0)
        assert abs(b.omega_prime_at_zero - 2.0 * a.omega_prime_at_zero) < 1e-14

    def test_denominator_positive_on_sweep(self):
        r = np.geomspace(1e-8, 1e8, 200001)
        denom = np.sqrt(r) + r ** 2 * np.log(r)
        assert np.min(denom) > 0.0
        # the dip of r^2 log r on (0, 1) is bounded by 1/(2e)
        dip = r[(r > 0) & (r < 1)]
        assert np.max(-(dip ** 2) * np.log(dip)) <= 1.0 / (2.0 * math.e) + 1e-12

    def test_certificate_properties(self):
        mod = build_knv_modulus(0.1, BOX)
        assert np.all(np.diff(mod.omega) > 0)
        assert np.all(mod.omega_prime > 0)
        assert np.all(np.diff(mod.omega_prime) < 0)  # concavity
        assert np.isfinite(mod.omega_prime_at_zero)
        # second differences reproduce the defining formula to 1%
        r, om = mod.r_table, mod.omega
        h1, h2 = r[1:-1] - r[:-2], r[2:] - r[1:-1]
        second = 2 * (om[:-2] / (h1 * (h1 + h2)) - om[1:-1] / (h1 * h2)
                      + om[2:] / (h2 * (h1 + h2)))
        exact = -mod.delta3 / (np.sqrt(r[1:-1]) + r[1:-1] ** 2 * np.log(r[1:-1]))
        assert np.max(np.abs(second - exact) / np.abs(exact)) < 0.01
        # and diverge monotonically toward 0+
        first = second[r[1:-1] <= r[0] * 10.0]
        assert np.all(np.diff(first) > 0)

    def test_subadditivity(self):
        mod = build_knv_modulus(0.1, BOX)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(1e-3, 5.0, size=2)
            lhs = mod.omega_at(a + b)
            rhs = mod.omega_at(a) + mod.omega_at(b)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_unbounded_growth_trend(self):
        values = [build_knv_modulus(0.1, Grid(8, length)).omega[-1]
                  for length in (1e2, 1e4, 1e6)]
        assert values[0] < values[1] < values[2]
        # no sign of a finite limit at 1% resolution
        assert (values[2] - values[1]) / values[2] > 0.01

    def test_table_matches_adaptive_quadrature(self):
        mod = build_knv_modulus(0.1, BOX)
        r = mod.r_table
        op = 0.1 * np.array([quad_omega_prime_shape(x) for x in r])
        op0 = 0.1 * quad_omega_prime_shape(0.0)
        omega = 0.1 * quad_omega_table(r)
        assert np.max(np.abs(mod.omega_prime / op - 1.0)) <= 1e-12
        assert abs(mod.omega_prime_at_zero / op0 - 1.0) <= 1e-12
        assert np.max(np.abs(mod.omega / omega - 1.0)) <= 1e-12


class TestCheckModulus:
    def setup_method(self):
        self.grid = Grid(64, TWO_PI)
        self.mod = build_knv_modulus(0.1, self.grid)

    def test_zero_field(self):
        field = RealField(self.grid, np.zeros((64, 64)))
        report = check_modulus(field, self.mod, [(1, 0), (0, 1)])
        assert report.worst_ratio == 0.0
        assert not report.breached

    def test_sine_closed_form(self):
        # max over x of |sin(x + d) - sin(x)| = 2 |sin(d/2)|, attained at a
        # grid point whenever the cell offset c is even (d = c * dx)
        x1, _ = self.grid.points()
        eps = 1e-3
        field = RealField(self.grid, eps * np.sin(x1))
        offsets = [(c, 0) for c in (2, 4, 8)]
        report = check_modulus(field, self.mod, offsets)
        expected = max(
            2 * eps * abs(math.sin(0.5 * c * self.grid.dx))
            / self.mod.omega_at(c * self.grid.dx)
            for c, _ in offsets)
        assert abs(report.worst_ratio - expected) < 1e-12
        assert not report.breached

    def test_breach_detected_with_offset(self):
        x1, _ = self.grid.points()
        d = 4
        sep = d * self.grid.dx
        # scale until the difference at offset d exceeds omega there
        amp = 1.2 * self.mod.omega_at(sep) / (2 * math.sin(0.5 * sep))
        field = RealField(self.grid, amp * np.sin(x1))
        report = check_modulus(field, self.mod, [(d, 0)])
        assert report.breached
        assert report.worst_offset == (d, 0)
        assert report.worst_ratio > 1.0

    def test_amplitude_monotonicity(self):
        field = inverse_transform(make_initial("cmt", self.grid))
        offsets = default_offsets(self.grid)
        base = check_modulus(field, self.mod, offsets).worst_ratio
        scaled = check_modulus(RealField(self.grid, 3.0 * field.values),
                               self.mod, offsets).worst_ratio
        assert abs(scaled - 3.0 * base) < 1e-12 * max(1.0, scaled)

    def test_rejects_empty_and_zero_offsets(self):
        field = RealField(self.grid, np.zeros((64, 64)))
        with pytest.raises(ParameterError):
            check_modulus(field, self.mod, [])
        with pytest.raises(ParameterError):
            check_modulus(field, self.mod, [(0, 0)])

    def test_out_of_range_offset(self):
        # 120 cells are 11.8 long, past the table's end at 10
        field = RealField(self.grid, np.zeros((64, 64)))
        with pytest.raises(ParameterError, match="tabulated range"):
            check_modulus(field, self.mod, [(120, 0)])

    @pytest.mark.parametrize("bad, named", [
        ((1.5, 0), r"\(1\.5, 0\)"), ((0.9, 0.2), r"\(0\.9, 0\.2\)"),
        ((2, 1.0), r"\(2, 1\.0\)"), ((np.float64(1.0), 0), r"\(.*1\.0.*, 0\)"),
        ((1, 2, 3), r"\(1, 2, 3\)"), ((1,), r"\(1,\)"), (5, "5")])
    def test_a_non_integer_offset_is_refused_by_name(self, bad, named):
        # int() would truncate (1.5, 0) to (1, 0), and (0.9, 0.2) to (0, 0);
        # a triple, a single and a bare integer are no pair either.  The
        # refusal comes before any lookup, so a null field still gives it
        field = types.SimpleNamespace(grid=self.grid, values=None)
        with pytest.raises(ParameterError, match=f"offset {named} is not a pair"):
            check_modulus(field, self.mod, [(1, 0), bad])

    def test_numpy_integer_offsets_are_accepted(self):
        x1, _ = self.grid.points()
        field = RealField(self.grid, 1e-3 * np.sin(x1))
        ints = [(4, 0), (2, 2)]
        report = check_modulus(field, self.mod, np.array(ints, dtype=np.int32))
        assert report == check_modulus(field, self.mod, ints)
        assert type(report.worst_offset[0]) is int

    @pytest.mark.parametrize("r", [math.nan, [0.5, math.nan], 0.0, -1.0, 11.0])
    def test_omega_at_refuses_what_it_cannot_rank(self, r):
        with pytest.raises(ParameterError, match="tabulated range"):
            self.mod.omega_at(r)


def roll_sup(v, d1, d2):
    return float(np.max(np.abs(np.roll(v, (-d1, -d2), axis=(0, 1)) - v)))


def roll_check(field, mod, offsets):
    """The np.roll loop with one scalar omega_at per offset: the reference
    check_modulus must reproduce bit for bit."""
    v, dx = field.values, field.grid.dx
    worst, worst_offset = -1.0, offsets[0]
    for d1, d2 in offsets:
        bound = float(mod.omega_at(dx * math.hypot(d1, d2)))
        diff = roll_sup(v, d1, d2)
        if diff / bound > worst:
            worst, worst_offset = diff / bound, (d1, d2)
    return worst, worst_offset


@st.composite
def fields_and_offsets(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    # components in [-n, n], with the half-box shifts +-n/2 drawn often
    component = st.integers(-n, n) | st.sampled_from([n // 2, -(n // 2)])
    offsets = draw(st.lists(st.tuples(component, component).filter(any),
                            min_size=1, max_size=12))
    # ties: the quarter-turned offsets have the same lengths, and small
    # integer values give them the same largest differences
    if draw(st.booleans()):
        offsets += [(-d2, d1) for d1, d2 in offsets]
    # the lattice bound's unit shifts
    if draw(st.booleans()):
        offsets += [(1, 0), (0, 1), (1, 1), (1, -1)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, size=(n, n)).astype(float)
    else:
        values = rng.standard_normal((n, n))
    return RealField(Grid(n, TWO_PI), values), offsets


MOD_D3_01 = build_knv_modulus(0.1, BOX)  # covers every separation up to 2 pi sqrt 2


@settings(max_examples=60, deadline=None)
@given(fields_and_offsets())
def test_check_modulus_matches_roll_loop(case):
    field, offsets = case
    sups = _shift_sups(field.values, offsets)
    assert sups.tolist() == [roll_sup(field.values, d1, d2) for d1, d2 in offsets]
    report = check_modulus(field, MOD_D3_01, offsets)
    worst, worst_offset = roll_check(field, MOD_D3_01, offsets)
    assert report.worst_ratio == worst
    assert report.worst_offset == worst_offset
    assert report.breached == (worst > 1.0)


def test_check_modulus_validates_before_differencing():
    # the range error for the last offset comes before any difference is
    # taken, so a field whose values cannot be differenced still reports it
    field = types.SimpleNamespace(grid=Grid(64, TWO_PI), values=None)
    mod = build_knv_modulus(0.1, field.grid)
    with pytest.raises(ParameterError, match="tabulated range"):
        check_modulus(field, mod, [(1, 0), (2, 0), (120, 0)])
    with pytest.raises(ParameterError):
        check_modulus(field, mod, [(1, 0), (0, 0)])


@st.composite
def monitored_samples(draw):
    """Grid values of a preset (or of noise), with the modulus and offsets of
    a monitored run on that grid.  The amplitude is drawn relative to the one
    at which the exhaustive check's worst ratio is 1, so that many samples
    fall near the breach threshold, where a bound too loose would show.  The
    box length moves the separations along omega's table."""
    n = 2 * draw(st.integers(4, 32))
    grid = Grid(n, TWO_PI * 10.0 ** draw(st.floats(-2.0, 2.0)))
    preset = draw(st.sampled_from(PRESETS + ("noise",)))
    seed = draw(st.integers(0, 2 ** 16))
    if preset == "noise":
        values = np.random.default_rng(seed).standard_normal((n, n))
    else:
        values = inverse_transform(make_initial(preset, grid, seed=seed)).values
    mod, offsets, _ = _monitor(grid, 10.0 ** draw(st.floats(-2.0, 0.0)), 1.0)
    threshold = check_modulus(RealField(grid, values), mod, offsets).worst_ratio
    sign = draw(st.sampled_from([-1.0, 1.0]))
    scale = sign * 10.0 ** draw(st.floats(-3.0, 0.5))
    # a grid can sample a preset where it is constant (cmt at n = 10 on a
    # 20 pi box sits at 1 on every point): no amplitude breaches it
    values = values * (scale / threshold if threshold > 0.0 else scale)
    return values, grid, mod, offsets


def lattice_bound_skips(values, grid, mod, offsets):
    return _lattice_bound(grid, mod, offsets)(values, values.max(), values.min())


@settings(max_examples=150, deadline=None)
@given(monitored_samples())
def test_a_sample_the_lattice_bound_skips_has_no_breach(case):
    values, grid, mod, offsets = case
    if lattice_bound_skips(values, grid, mod, offsets):
        report = check_modulus(RealField(grid, values), mod, offsets)
        assert not report.breached
        assert report.worst_ratio < 1.0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 64).map(lambda h: 2 * h), log_length=st.floats(-300.0, 150.0))
def test_the_monitor_covers_every_box(n, log_length):
    # the table reaches the box's largest periodic separation, (n/2) sqrt 2
    # cells, on boxes from near the smallest Grid allows to 1e150
    grid = Grid(n, 10.0 ** log_length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mod, offsets, _ = _monitor(grid, 0.1, 1.0)
    shifts = {(d1 % n, d2 % n) for d1, d2 in offsets}
    assert len(shifts) == len(offsets) and (0, 0) not in shifts
    assert all(max(abs(d1), abs(d2)) <= n // 2 for d1, d2 in offsets)
    assert (n // 2, n // 2) in offsets
    separations = [grid.dx * math.hypot(d1, d2) for d1, d2 in offsets]
    assert np.all(mod.omega_at(separations) > 0.0)


@pytest.mark.parametrize("n, length, r_max", [
    (128, TWO_PI, 10.0),  # the floor: the 2 pi box at any n has BOX's table
    (16, 1e-3, 10.0),
    (128, TWO_PI * 100.0, TWO_PI * 100.0 / math.sqrt(2.0)),
    (8, 1e6, 1e6 / math.sqrt(2.0)),
])
def test_the_monitor_tabulates_to_the_largest_separation(n, length, r_max):
    mod, _, _ = _monitor(Grid(n, length), 0.1, 1.0)
    assert mod.r_max == pytest.approx(r_max, rel=1e-14)
    if r_max == 10.0:
        reference = build_knv_modulus(0.1, BOX)
        assert np.array_equal(mod.r_table, reference.r_table)
        assert np.array_equal(mod.omega, reference.omega)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 64).map(lambda h: 2 * h), log_length=st.floats(-300.0, 150.0),
       delta3=st.floats(1e-2, 1.0), kappa=st.floats(1e-2, 1e2))
def test_the_monitor_tabulates_kappa_omega_over_its_box(n, log_length, delta3, kappa):
    # the boxes of test_the_monitor_covers_every_box: the monitor's table is
    # the builder's on its grid, which ends at the box's largest periodic
    # separation or at the floor, 10
    grid = Grid(n, 10.0 ** log_length)
    mod, _, _ = _monitor(grid, delta3, kappa)
    reference = build_knv_modulus(delta3 * kappa, grid)
    assert mod.delta3 == reference.delta3
    assert mod.r_max == max(grid.dx * math.hypot(n // 2, n // 2), 10.0)
    for name in ("r_table", "omega", "omega_prime"):
        assert np.array_equal(getattr(mod, name), getattr(reference, name))
    assert mod.omega_prime_at_zero == reference.omega_prime_at_zero


class TestLatticeBound:
    def setup_method(self):
        self.grid = Grid(64, TWO_PI)
        self.mod = build_knv_modulus(0.1, self.grid)
        self.offsets = default_offsets(self.grid)

    def skips(self, values):
        return lattice_bound_skips(values, self.grid, self.mod, self.offsets)

    def test_small_smooth_data_is_skipped_and_large_is_not(self):
        cmt = inverse_transform(make_initial("cmt", self.grid)).values
        assert self.skips(1e-2 * cmt)
        assert check_modulus(RealField(self.grid, cmt), self.mod, self.offsets).breached
        assert not self.skips(cmt)

    def test_a_constant_field_is_skipped(self):
        # every difference is 0, and so is the exhaustive check's worst ratio
        values = np.full((64, 64), 3.0)
        assert self.skips(values)
        report = check_modulus(RealField(self.grid, values), self.mod, self.offsets)
        assert report.worst_ratio == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_field_is_never_skipped(self, bad):
        for scale in (0.0, 1e-3):
            values = scale * inverse_transform(make_initial("cmt", self.grid)).values
            values[5, 7] = bad
            with np.errstate(invalid="ignore"):
                assert not self.skips(values)

    def test_each_offset_takes_its_shortest_path(self):
        # a wave constant along one lattice direction: the path along it
        # bounds that offset by (about) 0, while the offsets across it breach
        x1, x2 = self.grid.points()
        offsets = [(3, 0), (0, 3), (3, 3), (3, -3)]
        for wave, along in [(np.sin(x1), (0, 3)), (np.sin(x2), (3, 0)),
                            (np.sin(x1 - x2), (3, 3)), (np.sin(x1 + x2), (3, -3))]:
            assert lattice_bound_skips(10.0 * wave, self.grid, self.mod, [along])
            assert not lattice_bound_skips(10.0 * wave, self.grid, self.mod, offsets)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_field_is_refused(bad):
    # nan > worst is False: unrefused, a NaN would pass as "held" at ratio -1
    g = Grid(16, TWO_PI)
    mod = build_knv_modulus(0.1, g)
    values = inverse_transform(make_initial("cmt", g)).values
    values[3, 5] = bad
    field = RealField(g, values)
    with pytest.raises(ParameterError, match="non-finite"):
        check_modulus(field, mod, default_offsets(g))


def test_cmt_on_the_doubled_box_passes_with_margin():
    # criterion 9's box: at amplitude 0.04 the cmt data, stretched by 2,
    # holds omega with room to spare, and its gradient stays below omega'(0)
    g = Grid(128, TWO_PI)
    theta0 = inverse_transform(make_initial("cmt", g, amplitude=0.04))
    field = RealField(Grid(g.n, 2 * TWO_PI), theta0.values)
    mod = build_knv_modulus(0.05, field.grid)
    report = check_modulus(field, mod, default_offsets(field.grid))
    assert not report.breached and report.worst_ratio <= 0.9
    grad_sup = sup_and_gradient_sup(forward_transform(field))[1]
    assert grad_sup < mod.omega_prime_at_zero


def test_tiny_data_is_admissible_on_its_own_box():
    g = Grid(64, TWO_PI)
    mod = build_knv_modulus(0.1, g)
    tiny = RealField(g, 1e-6 * inverse_transform(make_initial("cmt", g)).values)
    report = check_modulus(tiny, mod, default_offsets(g))
    assert not report.breached and report.worst_ratio <= 0.9


@pytest.mark.parametrize("length", [4 * TWO_PI, 100.0])
def test_a_box_past_r_max_is_refused(length):
    # the largest separation, 17.8 on the 2 pi box stretched by 4 and 70.7
    # on the 100 box, is past the table, however small the data
    g = Grid(8, length)
    tiny = RealField(g, 1e-6 * inverse_transform(make_initial("cmt", g)).values)
    with pytest.raises(ParameterError, match="outside tabulated range"):
        check_modulus(tiny, build_knv_modulus(0.1, BOX), default_offsets(g))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([8, 16, 32]), log_length=st.floats(-2.0, 2.0),
       c=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 32 - 1),
       preset=st.sampled_from(PRESETS + ("noise",)), data=st.data())
def test_stretching_the_box_never_raises_the_worst_ratio(n, log_length, c, seed,
                                                         preset, data):
    # theta(C x) on a box C L long has theta's grid values: every difference
    # stays, every separation grows C-fold, and omega is increasing, so the
    # stretched box passes wherever the unstretched one does
    grid = Grid(n, TWO_PI * 10.0 ** log_length)
    stretched = Grid(n, c * grid.length)
    if preset == "noise":
        values = np.random.default_rng(seed).standard_normal((n, n))
    else:
        values = inverse_transform(make_initial(preset, grid, seed=seed)).values
    half = n // 2
    component = st.integers(-half, half)
    offsets = default_offsets(grid) + data.draw(st.lists(
        st.tuples(component, component).filter(any), max_size=8))
    mod = build_knv_modulus(0.1, stretched)
    base = RealField(grid, values)
    wide = RealField(stretched, values)
    assert np.array_equal(_shift_sups(wide.values, offsets),
                          _shift_sups(base.values, offsets))
    assert (check_modulus(wide, mod, offsets).worst_ratio
            <= check_modulus(base, mod, offsets).worst_ratio)


def test_default_offsets_structure():
    g = Grid(64, TWO_PI)
    offsets = default_offsets(g)
    for c in range(1, 9):
        assert (c, 0) in offsets and (0, c) in offsets
    assert all(0 < max(abs(d1), abs(d2)) <= 32 for d1, d2 in offsets)
    assert (32, 0) in offsets and (0, 32) in offsets and (32, 32) in offsets
    assert any(d1 == d2 for d1, d2 in offsets)      # diagonals present
    assert any(d1 == -d2 and d1 > 0 for d1, d2 in offsets)


def test_default_offsets_do_not_depend_on_the_box_length():
    # a stretched box is checked on the same cells as the 2 pi one: its
    # largest separations are far past 10, and they are still checked
    offsets = default_offsets(Grid(32, TWO_PI))
    for length in (1e-3, 1e3, 1e100):
        assert default_offsets(Grid(32, length)) == offsets


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_default_offsets_are_distinct_shifts(n):
    # (n/2, n/2) and (n/2, -n/2) are one periodic shift: the first is kept
    g = Grid(n, TWO_PI)
    offsets = default_offsets(g)
    shifts = [(d1 % n, d2 % n) for d1, d2 in offsets]
    assert len(set(shifts)) == len(shifts)
    assert (n // 2, n // 2) in offsets and (n // 2, -(n // 2)) not in offsets
    if n == 128:
        assert len(offsets) == 55


def test_import_leaves_scipy_unloaded(tmp_path):
    # neither the import, a table build nor a monitored run loads scipy
    import sqglab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sqglab.__file__)))
    config = "\n".join([
        "grid.n = 16", f"grid.length = {TWO_PI!r}", "dynamics.gamma = 1.0",
        "dynamics.kappa = 1.0", "time.t_end = 0.2", "time.sample_dt = 0.1",
        "initial.preset = cmt", "modulus.enabled = true",
        f"output.directory = {tmp_path / 'out'}", ""])
    code = "\n".join([
        "import sys, sqglab",
        "from sqglab.driver import run_simulation",
        "loaded = ['scipy' in sys.modules]",
        "sqglab.build_knv_modulus(0.1, sqglab.Grid(16, 1.0))",
        "loaded.append('scipy' in sys.modules)",
        f"result = run_simulation(sqglab.parse_config({config!r}))",
        "assert len(result.series) == 3",
        "loaded.append('scipy' in sys.modules)",
        "print(loaded)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[False, False, False]"
    assert (tmp_path / "out" / "norms.csv").exists()
