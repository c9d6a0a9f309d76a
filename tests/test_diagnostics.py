"""Tests for norm recording, decay fits, and boundedness checks."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sqglab import (
    BlowUpError,
    Grid,
    NormSeries,
    ParameterError,
    SolverConfig,
    SolverState,
    SpectralField,
    check_boundedness,
    fit_decay_exponent,
    initial_state,
    integral_tail_fraction,
    make_initial,
    record_norms,
    run_until,
)

TWO_PI = 2.0 * math.pi


def synthetic_series(ts, ys, column="linf"):
    series = NormSeries()
    for t, y in zip(ts, ys):
        series.append([t, y, y, y, y, y, y])
    return series


class TestNormSeries:
    def test_zero_field_row(self):
        g = Grid(16, TWO_PI)
        zero = SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
        state = initial_state(zero, SolverConfig(gamma=1.0))
        series = NormSeries()
        values, hi, lo = record_norms(state, series)
        assert len(series) == 1
        assert not values.any() and hi == lo == 0.0
        assert all(series.column(c)[0] == 0.0 for c in series.columns[1:])

    def test_single_mode_exact_decay_rows(self):
        g = Grid(64, TWO_PI)
        config = SolverConfig(gamma=1.0, kappa=1.0)
        series = NormSeries(betas=(0.5,))
        state = initial_state(make_initial("single_mode", g), config)
        record_norms(state, series)
        run_until(state, 0.5, callbacks=[lambda s: record_norms(s, series)],
                  callback_times=[0.1, 0.2, 0.3, 0.4, 0.5])
        expected = math.sqrt(2.0 * math.pi ** 2)
        for col in ("l2", "h1", "h3_2", "h2", "h1+0.5"):
            vals = series.column(col)
            for t, v in zip(series.t, vals):
                assert abs(v - math.exp(-t) * expected) < 1e-8 * expected

    def test_rows_strictly_ordered(self):
        series = NormSeries()
        series.append([0.0, 1, 1, 1, 1, 1, 1])
        with pytest.raises(ParameterError):
            series.append([0.0, 1, 1, 1, 1, 1, 1])

    def test_non_finite_row_names_its_column(self):
        series = NormSeries()
        with pytest.raises(ParameterError, match="'l2'"):
            series.append([0.1, 1.0, math.nan, math.inf, 1, 1, 1])
        assert len(series) == 0

    # the sample ignores the overflow of its gradient and norms under
    # record_norms' np.errstate
    @pytest.mark.filterwarnings("error")
    def test_record_norms_blow_up_carries_step_count(self):
        g = Grid(16, TWO_PI)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[1, 2] = math.inf
        state = SolverState(t=0.5, theta=SpectralField(g, coeffs),
                            config=SolverConfig(gamma=1.0), step_count=7)
        with pytest.raises(BlowUpError) as err, np.errstate(invalid="ignore"):
            record_norms(state, NormSeries())
        assert (err.value.t, err.value.step_count) == (0.5, 7)

    def test_beta_columns_in_header(self):
        series = NormSeries(betas=(0.5, 1.0))
        assert series.columns == (
            "t", "linf", "l2", "h1", "h3_2", "h2", "grad_sup", "h1+0.5", "h1+1")

    @pytest.mark.parametrize("betas", [(0.5, 0.5), (1.0, 0.1234567, 0.1234568)])
    def test_betas_naming_one_column_twice_rejected(self, betas):
        with pytest.raises(ParameterError, match="distinct to 6 significant digits"):
            NormSeries(betas=betas)

    @pytest.mark.parametrize("betas", [(math.inf,), (0.5, math.nan), (-math.inf,)])
    def test_non_finite_betas_rejected(self, betas):
        with pytest.raises(ParameterError, match="finite"):
            NormSeries(betas=betas)

    @pytest.mark.parametrize("betas", [(-1.0,), (0.0, 0.5, 2.0)])
    def test_betas_down_to_minus_one_accepted(self, betas):
        assert NormSeries(betas=betas).betas == betas

    def test_beta_below_minus_one_rejected(self):
        # 1 + beta is a Sobolev order, and orders below 0 are refused
        with pytest.raises(ParameterError, match="betas must all be >= -1"):
            NormSeries(betas=(-3.0,))

    def test_csv_round_trip_full_precision(self, tmp_path):
        series = NormSeries()
        series.append([0.1, 1 / 3, 2 / 3, 1 / 7, 1 / 11, 1 / 13, 1 / 17])
        series.append([0.2, 1 / 3, 2 / 3, 1 / 7, 1 / 11, 1 / 13, 1 / 17])
        path = tmp_path / "norms.csv"
        series.write_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "t,linf,l2,h1,h3_2,h2,grad_sup"
        back = NormSeries.read_csv(path)
        assert back.columns == series.columns
        for col in series.columns:
            assert np.array_equal(back.column(col), series.column(col))

    def test_csv_round_trip_reads_betas_from_header(self, tmp_path):
        series = NormSeries(betas=(0.5, 1.0, 0.25))
        series.append([0.1, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        path = tmp_path / "norms.csv"
        series.write_csv(path)
        back = NormSeries.read_csv(path)
        assert back.betas == (0.5, 1.0, 0.25)
        assert back.columns == series.columns
        assert back.column("h1+0.25")[-1] == 9.0

    @pytest.mark.parametrize("text, match", [
        ("", "not a norms header"),
        ("t,linf,l2\n0.1,1,1\n", "not a norms header"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup,extra\n", "not a norms header"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup,h1+0.50\n", "not a norms header"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup,h1+0.5,h1+0.5\n", "not a norms header"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup,h1+inf\n", "not a norms header"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup\n0.1,1,1,x,1,1,1\n", "line 2"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup\n0.1,1,1,1,1,1\n", "line 2"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup\n\n0.1,1,nan,1,1,1,1\n", "line 3.*'l2'"),
        ("t,linf,l2,h1,h3_2,h2,grad_sup\n0.2,1,1,1,1,1,1\n0.1,1,1,1,1,1,1\n",
         "line 3.*increase"),
    ])
    def test_read_csv_rejects_what_write_csv_cannot_write(self, tmp_path, text,
                                                           match):
        path = tmp_path / "norms.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=match):
            NormSeries.read_csv(path)

    def test_unknown_column(self):
        series = synthetic_series([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ParameterError):
            series.column("nope")


class TestFitDecayExponent:
    def test_exact_power_law(self):
        ts = np.geomspace(0.1, 10.0, 40)
        series = synthetic_series(ts, 5.0 * ts ** -2.0)
        fit = fit_decay_exponent(series, "linf", (0.1, 10.0))
        assert abs(fit.alpha + 2.0) < 1e-10
        assert abs(fit.amplitude - 5.0) < 1e-9
        assert fit.residual_rms < 1e-12

    def test_exponential_looks_steeper_than_any_power(self):
        ts = np.geomspace(10.0, 20.0, 50)
        series = synthetic_series(ts, 3.0 * np.exp(-ts))
        fit = fit_decay_exponent(series, "linf", (10.0, 20.0))
        assert fit.alpha <= -10.0

    def test_constant_series(self):
        ts = np.geomspace(1.0, 5.0, 20)
        series = synthetic_series(ts, np.full(20, 2.5))
        fit = fit_decay_exponent(series, "linf", (1.0, 5.0))
        assert abs(fit.alpha) < 1e-12

    def test_needs_ten_samples(self):
        ts = np.geomspace(1.0, 5.0, 8)
        series = synthetic_series(ts, ts)
        with pytest.raises(ParameterError):
            fit_decay_exponent(series, "linf", (1.0, 5.0))

    def test_rejects_non_positive_values(self):
        ts = np.linspace(1.0, 2.0, 12)
        ys = np.linspace(1.0, -0.5, 12)
        series = synthetic_series(ts, ys)
        with pytest.raises(ParameterError):
            fit_decay_exponent(series, "linf", (1.0, 2.0))


class TestCheckBoundedness:
    def test_weight_zero_bounded(self):
        ts = np.geomspace(0.1, 10.0, 60)
        series = synthetic_series(ts, np.exp(-ts))
        res = check_boundedness(series, 0.0, "linf")
        assert abs(res.sup - math.exp(-0.1)) < 1e-14
        assert res.stabilized

    def test_weight_one_on_inverse_time(self):
        ts = np.geomspace(0.01, 100.0, 80)
        series = synthetic_series(ts, 1.0 / ts)
        res = check_boundedness(series, 1.0, "linf")
        assert abs(res.sup - 1.0) < 1e-12
        assert res.stabilized

    def test_growing_tail_not_stabilized(self):
        ts = np.geomspace(0.01, 100.0, 80)
        series = synthetic_series(ts, ts ** 0.5)
        res = check_boundedness(series, 0.0, "linf")
        assert not res.stabilized

    def test_series_with_no_positive_time_raises(self):
        series = synthetic_series([-1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ParameterError, match="no positive times"):
            check_boundedness(series, 1.0, "linf")

    def test_window_selection(self):
        ts = np.geomspace(0.01, 100.0, 80)
        series = synthetic_series(ts, 1.0 / ts)
        res = check_boundedness(series, 1.0, "linf", window=(1.0, 100.0))
        assert abs(res.sup - 1.0) < 1e-12

    def test_reversed_window_is_refused(self):
        # not reported as a window with no samples
        series = synthetic_series(np.geomspace(0.01, 100.0, 80), np.ones(80))
        with pytest.raises(ParameterError, match=r"t_a <= t_b, got window \(1.0, 0.1\)"):
            check_boundedness(series, 1.0, "linf", window=(1.0, 0.1))

    def test_window_of_one_time(self):
        # the default window of a series with one positive time is (t, t)
        series = synthetic_series([0.0, 0.5], [3.0, 2.0])
        for window in (None, (0.5, 0.5)):
            res = check_boundedness(series, 1.0, "linf", window)
            assert (res.sup, res.stabilized) == (1.0, True)


def test_integral_tail_fraction():
    ts = np.linspace(0.0, 10.0, 2001)
    total, frac = integral_tail_fraction(ts, np.exp(-2 * ts))
    assert abs(total - 0.5) < 1e-4
    assert frac < 1e-6
    total2, frac2 = integral_tail_fraction(ts, np.ones_like(ts))
    assert abs(frac2 - 0.1) < 1e-12


def test_integral_tail_fraction_needs_three_samples():
    with pytest.raises(ParameterError, match="at least 3 samples"):
        integral_tail_fraction([0.0, 1.0], [1.0, 1.0])


def test_warm_record_norms_allocates_no_large_temporaries():
    # the batched (theta, d1 theta, d2 theta) inverse and its reductions run in
    # the per-thread workspace; made afresh they peak at about 2.2x the cap,
    # 532,480 bytes (a (4, 128, 65) complex stack), in place at about 0.4x
    g = Grid(128, TWO_PI)
    state = initial_state(make_initial("random_h1", g, seed=5), SolverConfig(gamma=1.0))
    series = NormSeries(betas=(0.5, 1.0))
    record_norms(state, series)  # builds the workspace and the |k| powers
    state = replace(state, t=0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record_norms(state, series)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 532_480
