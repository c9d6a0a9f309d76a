"""Tests for the closed-form and brute-force reference solutions."""

import math

import numpy as np
import pytest

from sqglab import (
    BudgetError,
    ConfigError,
    Grid,
    RealField,
    SolverConfig,
    SpectralField,
    band_limited_random,
    convergence_ratio,
    convolution_nonlinearity,
    forward_transform,
    initial_state,
    inverse_transform,
    linear_heat_exact,
    make_initial,
    run_until,
    scaling_consistency,
    single_mode_exact,
    sobolev_norm,
)
from sqglab.cli import _build_parser
from sqglab.oracles import OracleReport, SUITES, run_oracle_suite

TWO_PI = 2.0 * math.pi


class TestLinearHeatExact:
    def test_t_zero_is_identity(self):
        g = Grid(32, TWO_PI)
        theta0 = make_initial("random_h1", g, seed=0)
        out = linear_heat_exact(theta0, 1.0, 1.0, 0.0)
        assert np.array_equal(out.coeffs, theta0.coeffs)

    def test_single_mode_amplitude(self):
        g = Grid(32, TWO_PI)
        theta0 = make_initial("single_mode", g)
        out = linear_heat_exact(theta0, 1.0, 1.0, 1.0)
        for mode in ((1, 0), (-1, 0)):
            expected = math.exp(-1.0) * theta0.coeffs[mode]
            assert abs(out.coeffs[mode] - expected) < 1e-16
        rest = out.coeffs.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-17

    def test_semigroup_composition(self):
        g = Grid(32, TWO_PI)
        theta0 = make_initial("random_h1", g, seed=1)
        for gamma in (0.5, 1.0, 2.0):
            once = linear_heat_exact(theta0, gamma, 1.0, 0.7)
            twice = linear_heat_exact(linear_heat_exact(theta0, gamma, 1.0, 0.3),
                                      gamma, 1.0, 0.4)
            scale = np.max(np.abs(once.coeffs))
            assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-14 * scale

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    def test_solver_with_nonlinearity_disabled_matches(self, gamma):
        g = Grid(32, TWO_PI)
        theta0 = make_initial("random_h1", g, seed=2)
        config = SolverConfig(gamma=gamma, kappa=1.0, nonlinear_enabled=False)
        state = run_until(initial_state(theta0, config), 1.0)
        exact = linear_heat_exact(theta0, gamma, 1.0, 1.0)
        diff = SpectralField(g, state.theta.coeffs - exact.coeffs)
        assert sobolev_norm(diff, 0.0) <= 1e-12 * sobolev_norm(exact, 0.0)


class TestSingleModeExact:
    def test_times(self):
        g = Grid(64, TWO_PI)
        x1, _ = g.points()
        assert np.max(np.abs(single_mode_exact(g, 0.0).values - np.sin(x1))) == 0.0
        exact1 = single_mode_exact(g, 1.0)
        assert np.max(np.abs(exact1.values - math.exp(-1.0) * np.sin(x1))) == 0.0

    def test_wrong_box_size(self):
        with pytest.raises(ConfigError):
            single_mode_exact(Grid(64, 1.0), 0.5)

    def test_full_solver_matches(self):
        g = Grid(64, TWO_PI)
        config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5)
        state = run_until(initial_state(make_initial("single_mode", g), config), 1.0)
        err = np.max(np.abs(inverse_transform(state.theta).values
                            - single_mode_exact(g, 1.0).values))
        assert err <= 1e-8 * math.exp(-1.0)


class TestConvolutionOracle:
    def test_single_mode_vanishes(self):
        g = Grid(16, TWO_PI)
        out = convolution_nonlinearity(make_initial("single_mode", g))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_two_mode_closed_form(self):
        # theta = sin x1 + cos x2: u = (sin x2, cos x1) and u . grad theta
        # cancels identically
        g = Grid(16, TWO_PI)
        x1, x2 = g.points()
        theta = forward_transform(RealField(g, np.sin(x1) + np.cos(x2)))
        assert np.max(np.abs(convolution_nonlinearity(theta).coeffs)) < 1e-14
        # theta = sin x1 + cos 2x2: u = (sin 2x2, cos x1), grad = (cos x1,
        # -2 sin 2x2), so u . grad theta = -cos x1 sin 2x2
        theta2 = forward_transform(RealField(g, np.sin(x1) + np.cos(2 * x2)))
        out = inverse_transform(convolution_nonlinearity(theta2))
        expected = -np.cos(x1) * np.sin(2 * x2)
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_zero_mean(self):
        g = Grid(16, TWO_PI)
        theta = band_limited_random(g, seed=3, max_mode=5, amplitude=1.0)
        out = convolution_nonlinearity(theta)
        assert abs(out.coeffs[0, 0]) < 1e-13

    def test_budget_guard(self):
        g = Grid(32, TWO_PI)
        with pytest.raises(BudgetError):
            convolution_nonlinearity(make_initial("single_mode", g))


class TestScalingConsistency:
    def test_c1_is_exact(self):
        g = Grid(32, TWO_PI)
        theta0 = band_limited_random(g, seed=0, max_mode=g.n // 3, amplitude=0.5)
        report = scaling_consistency(theta0, 1, 0.25)
        assert report.max_rel_error == 0.0
        assert report.passed

    def test_linear_runs_match_to_roundoff(self):
        g = Grid(64, TWO_PI)
        theta0 = band_limited_random(g, seed=1, max_mode=g.n // 6, amplitude=0.5)
        report = scaling_consistency(theta0, 2, 0.5, nonlinear=False,
                                     tolerance=1e-12)
        assert report.max_rel_error <= 1e-12
        assert report.passed

    def test_nonlinear_c2(self):
        g = Grid(64, TWO_PI)
        theta0 = band_limited_random(g, seed=2, max_mode=g.n // 6, amplitude=0.5)
        report = scaling_consistency(theta0, 2, 0.5)
        assert report.passed

    def test_rejects_bad_c(self):
        g = Grid(64, TWO_PI)
        theta0 = band_limited_random(g, seed=0, max_mode=10, amplitude=0.5)
        with pytest.raises(ConfigError):
            scaling_consistency(theta0, 3, 0.1)  # 3 does not divide 64
        with pytest.raises(ConfigError):
            scaling_consistency(theta0, 16, 0.1)  # coarse grid below minimum

    def test_rejects_wide_band_data(self):
        g = Grid(64, TWO_PI)
        theta0 = band_limited_random(g, seed=0, max_mode=g.n // 3, amplitude=0.5)
        with pytest.raises(ConfigError):
            scaling_consistency(theta0, 2, 0.1)


def test_convergence_ratio_is_fourth_order():
    g = Grid(64, TWO_PI)
    theta0 = make_initial("cmt", g)
    config = SolverConfig(gamma=1.0, kappa=1.0, dt_max=0.05)
    ratio = convergence_ratio(theta0, config, 0.1, 0.01)
    assert 14.0 <= ratio <= 18.0


class TestSuites:
    def test_passed_follows_the_tolerance(self):
        assert OracleReport("x", 1.0, 1e-9, 1e-8).passed
        assert OracleReport("x", 1.0, 1e-8, 1e-8).passed
        assert not OracleReport("x", 1.0, 2e-8, 1e-8).passed
        assert not OracleReport("x", 1.0, math.nan, 1e-8).passed
        assert OracleReport("x", 1.0, 2e-8, 1e-8).csv_row() == (
            "x,1,2e-08,1e-08,false")

    def test_cli_offers_every_suite(self):
        parser = _build_parser()
        for name in ("all", *SUITES):
            assert parser.parse_args(["oracle", "--suite", name]).suite == name
        with pytest.raises(SystemExit):
            parser.parse_args(["oracle", "--suite", "nope"])

    def test_unknown_suite_is_a_config_error(self):
        with pytest.raises(ConfigError, match="choose all, linear"):
            run_oracle_suite("nope")
