"""Tests for the modulus-of-continuity certificate and breach monitor."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import simpson

from sqglab import (
    Grid,
    ParameterError,
    RangeError,
    RealField,
    build_knv_modulus,
    check_modulus,
    default_offsets,
    find_scaling,
    gradient_bound_check,
    inverse_transform,
    make_initial,
    omega_prime_shape,
)

TWO_PI = 2.0 * math.pi

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


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_knv_modulus(0.0, 10.0)
        with pytest.raises(ParameterError):
            build_knv_modulus(-0.1, 10.0)
        with pytest.raises(ParameterError):
            build_knv_modulus(0.1, 10.0, table_size=32)
        with pytest.raises(ParameterError):
            build_knv_modulus(0.1, 0.0)

    def test_omega_prime_at_zero_against_independent_oracle(self):
        coarse = simpson_omega_prime0(20000)
        fine = simpson_omega_prime0(40000)
        assert abs(coarse - fine) < 1e-8
        assert abs(0.1 * fine - OMEGA_PRIME0_D3_01) < 1e-8
        mod = build_knv_modulus(0.1, 10.0)
        assert abs(mod.omega_prime_at_zero - OMEGA_PRIME0_D3_01) < 1e-10

    def test_linearity_in_delta3(self):
        a = build_knv_modulus(0.1, 5.0, table_size=128)
        b = build_knv_modulus(0.2, 5.0, table_size=128)
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
        mod = build_knv_modulus(0.1, 10.0)
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

    def test_minimum_table_size_builds(self):
        build_knv_modulus(0.1, 10.0, table_size=64)

    def test_subadditivity(self):
        mod = build_knv_modulus(0.1, 10.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(1e-3, 5.0, size=2)
            lhs = mod.omega_at(a + b)
            rhs = mod.omega_at(a) + mod.omega_at(b)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_unbounded_growth_trend(self):
        values = [build_knv_modulus(0.1, r_max, table_size=128).omega[-1]
                  for r_max in (1e2, 1e4, 1e6)]
        assert values[0] < values[1] < values[2]
        # no sign of a finite limit at 1% resolution
        assert (values[2] - values[1]) / values[2] > 0.01

    def test_quadrature_shape_consistency(self):
        # omega'(r) must agree with a directly integrated tail at a few radii
        for r in (0.01, 0.5, 2.0, 50.0):
            direct = omega_prime_shape(r)
            finer = omega_prime_shape(r * (1 + 1e-9))
            assert direct > 0
            assert abs(direct - finer) < 1e-6 * direct


class TestCheckModulus:
    def setup_method(self):
        self.grid = Grid(64, TWO_PI)
        self.mod = build_knv_modulus(0.1, 10.0)

    def test_zero_field(self):
        field = RealField(self.grid, np.zeros((64, 64)))
        report = check_modulus(field, self.mod, [(1, 0), (0, 1)], t=2.0)
        assert report.worst_ratio == 0.0
        assert not report.breached
        assert report.time == 2.0

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
        offsets = default_offsets(self.grid, self.mod.r_max)
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
        field = RealField(self.grid, np.zeros((64, 64)))
        mod = build_knv_modulus(0.1, 2 * self.grid.dx)
        with pytest.raises(RangeError):
            check_modulus(field, mod, [(30, 0)])


class TestGradientBound:
    def test_zero_field_margin(self):
        g = Grid(32, TWO_PI)
        mod = build_knv_modulus(0.1, 10.0)
        report = gradient_bound_check(RealField(g, np.zeros((32, 32))), mod)
        assert report.ok
        assert abs(report.margin - mod.omega_prime_at_zero) < 1e-15

    def test_known_gradient(self):
        g = Grid(64, TWO_PI)
        mod = build_knv_modulus(0.1, 10.0)
        amp = 0.5 * mod.omega_prime_at_zero
        x1, _ = g.points()
        report = gradient_bound_check(RealField(g, amp * np.sin(x1)), mod)
        assert report.ok
        assert abs(report.gradient_sup - amp) < 1e-13
        over = gradient_bound_check(RealField(g, 3.0 * mod.omega_prime_at_zero
                                              * np.sin(x1)), mod)
        assert not over.ok
        assert over.margin < 0


class TestFindScaling:
    def test_cmt_scaling_passes_with_margin(self):
        g = Grid(128, TWO_PI)
        theta0 = inverse_transform(make_initial("cmt", g))
        mod = build_knv_modulus(0.05, 10.0)
        result = find_scaling(theta0, mod)
        assert result.report.worst_ratio <= 0.9
        assert result.c >= 2 and (result.c & (result.c - 1)) == 0  # power of two
        # the rescaled field carries the original values on a stretched box
        assert np.array_equal(result.field.values, theta0.values)
        assert result.field.grid.length == result.c * g.length
        # consistency with the gradient bound (Lemma-style implication)
        assert gradient_bound_check(result.field, mod).ok

    def test_already_admissible_returns_one(self):
        g = Grid(64, TWO_PI)
        mod = build_knv_modulus(0.1, 10.0)
        tiny = RealField(g, 1e-6 * inverse_transform(make_initial("cmt", g)).values)
        result = find_scaling(tiny, mod)
        assert result.c == 1


def test_default_offsets_structure():
    g = Grid(64, TWO_PI)
    offsets = default_offsets(g, 10.0)
    for c in range(1, 9):
        assert (c, 0) in offsets and (0, c) in offsets
    assert all(
        0 < math.hypot(d1, d2) * g.dx <= 10.0 + 1e-12 for d1, d2 in offsets)
    assert any(d1 == d2 for d1, d2 in offsets)      # diagonals present
    assert any(d1 == -d2 and d1 > 0 for d1, d2 in offsets)


def test_import_leaves_scipy_unloaded():
    # scipy is imported only when a modulus table is built
    import sqglab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sqglab.__file__)))
    code = "import sys, sqglab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
