"""Tests for the time stepper and nonlinear term."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqglab import (
    BlowUpError,
    BudgetError,
    Grid,
    ParameterError,
    RealField,
    SolverConfig,
    SpectralField,
    adapt_dt,
    convolution_nonlinearity,
    dealias,
    forward_transform,
    initial_state,
    inverse_transform,
    make_initial,
    nonlinear_term,
    run_until,
    sobolev_norm,
    step,
)
from sqglab import dynamics, spectral
from sqglab.spectral import _advection, _inverse, _pack, _unpack

from full_width import full_multipliers

TWO_PI = 2.0 * math.pi


def critical_config(**kw):
    defaults = dict(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    defaults.update(kw)
    return SolverConfig(**defaults)


def reference_rhs(grid, c):
    """-u . grad(theta) for the half spectrum c, dealiased, from numpy's 2-D
    transforms on full-width arrays: none of the package's transforms, pair
    split or packing."""
    mask = grid.dealias_mask
    u1, u2, d1, d2 = np.fft.irfftn(full_multipliers(grid) * (c * mask),
                                   s=(grid.n, grid.n), axes=(-2, -1), norm="forward")
    return -(np.fft.rfft2(d1 * u1 + d2 * u2, norm="forward") * mask)


def reference_step(state, dt):
    """The integrating-factor RK4 step as plain expressions on full-width
    arrays: fresh arrays for every stage and operation, nothing written in
    place."""
    grid, config, th = state.theta.grid, state.config, state.theta.coeffs

    def rhs(c):
        if not config.nonlinear_enabled:
            return np.zeros_like(c)
        return reference_rhs(grid, c)

    lam = config.kappa * grid.kmag_pow(config.gamma)
    e_full = np.exp(-lam * dt)
    e_half = np.exp(-lam * (0.5 * dt))
    g1 = rhs(th)
    g2 = rhs(e_half * (th + (0.5 * dt) * g1))
    g3 = rhs(e_half * th + (0.5 * dt) * g2)
    g4 = rhs(e_full * th + dt * (e_half * g3))
    return e_full * th + (dt / 6.0) * (e_full * g1 + 2.0 * e_half * (g2 + g3) + g4)


def trajectory(n, seed, steps=6):
    """Coefficients after a few CFL steps of random_h1 data."""
    state = initial_state(make_initial("random_h1", Grid(n, TWO_PI), seed=seed),
                          critical_config())
    for _ in range(steps):
        state = step(state, adapt_dt(state))
    return state.theta.coeffs


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(gamma=2.5)
        with pytest.raises(ParameterError):
            SolverConfig(gamma=1.0, kappa=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(gamma=1.0, cfl=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(gamma=1.0, dt_max=0.0)


class TestNonlinearTerm:
    def test_single_mode_vanishes(self):
        g = Grid(64, TWO_PI)
        out = nonlinear_term(make_initial("single_mode", g))
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_radial_bump_skew_symmetry(self):
        g = Grid(64, TWO_PI)
        theta = dealias(make_initial("gaussian_bump", g))
        out = nonlinear_term(theta)
        inner = g.length ** 2 * np.sum(g.weights * np.conj(theta.coeffs) * out.coeffs).real
        assert abs(inner) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_convolution_oracle(self, seed):
        from sqglab import band_limited_random

        g = Grid(16, TWO_PI)
        theta = band_limited_random(g, seed=seed, max_mode=5, amplitude=1.0)
        pseudo = nonlinear_term(theta)
        direct = convolution_nonlinearity(theta)
        scale = np.max(np.abs(direct.coeffs))
        assert np.max(np.abs(pseudo.coeffs - direct.coeffs)) < 1e-10 * scale

    def test_matches_convolution_oracle_on_data_that_is_not_band_limited(self):
        # both read only the modes the 2/3 rule keeps, as the stepper does
        g = Grid(16, TWO_PI)
        rng = np.random.default_rng(7)
        theta = forward_transform(RealField(g, rng.standard_normal((16, 16))))
        assert np.any(theta.coeffs[~g.dealias_mask] != 0)
        pseudo = nonlinear_term(theta)
        direct = convolution_nonlinearity(theta)
        scale = np.max(np.abs(direct.coeffs))
        assert np.max(np.abs(pseudo.coeffs - direct.coeffs)) < 1e-10 * scale
        assert np.array_equal(pseudo.coeffs, nonlinear_term(dealias(theta)).coeffs)

    def test_zero_mean_output(self):
        g = Grid(32, TWO_PI)
        theta = dealias(make_initial("random_h1", g, seed=4))
        out = nonlinear_term(theta)
        assert abs(out.coeffs[0, 0]) < 1e-13


class TestStep:
    def test_single_mode_one_step_exact(self):
        g = Grid(64, TWO_PI)
        state = initial_state(make_initial("single_mode", g), critical_config(dt_max=0.1))
        new = step(state, 0.1)
        x1, _ = g.points()
        exact = math.exp(-0.1) * np.sin(x1)
        err = np.max(np.abs(inverse_transform(new.theta).values - exact))
        assert err <= 1e-9 * math.exp(-0.1)

    def test_zero_field_only_time_advances(self):
        g = Grid(16, TWO_PI)
        zero = SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
        state = initial_state(zero, critical_config())
        new = step(state, 0.02)
        assert new.t == 0.02
        assert np.all(new.theta.coeffs == 0)

    def test_inviscid_l2_drift_is_high_order(self):
        # one step with dt and dt/2: conservative advection drift per step
        # shrinks at least like dt^4 under refinement
        g = Grid(32, TWO_PI)
        theta0 = make_initial("cmt", g)
        config = critical_config(kappa=0.0, dt_max=0.1)
        l2_0 = sobolev_norm(theta0, 0.0)

        def drift(dt):
            new = step(initial_state(theta0, config), dt)
            return abs(sobolev_norm(new.theta, 0.0) - l2_0)

        ratio = drift(0.1) / drift(0.05)
        assert ratio > 12.0

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("n", [16, 256])
    def test_blow_up_reports_time_and_mode(self, n):
        g = Grid(n, TWO_PI)
        theta0 = SpectralField(g, 1e8 * make_initial("cmt", g).coeffs)
        config = SolverConfig(gamma=1.0, kappa=0.0, dt_max=0.05)
        state = initial_state(theta0, config)
        with pytest.raises(BlowUpError) as err:
            for _ in range(50):
                last = state
                state = step(state, 0.05)
        assert err.value.t == last.t + 0.05
        assert err.value.step_count == last.step_count + 1 >= 1
        # the mode is the non-finite one of largest |k|, first in row-major
        # order, in the full layout of the same step's plain-expression
        # result within the 2/3 block (outside it the reference multiplies
        # non-finite products by 0, where the stepper holds zeros)
        with np.errstate(all="ignore"):
            new = reference_step(last, 0.05)
        bad = np.where(np.isfinite(new) | ~g.dealias_mask, -1.0, g.kmag)
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        assert not np.isfinite(new[i, j])
        assert err.value.mode == (g.m1[i, 0], g.m2[0, j])
        # a dealiased run keeps every mode outside the 2/3 block at 0, so the
        # reported mode lies inside it
        assert max(map(abs, err.value.mode)) <= g.cutoff

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("modes, reported", [
        ([(1, 1), (-1, 0)], (1, 1)),
        ([(1, 1), ("-c", "c"), ("c", 0)], ("-c", "c")),  # the last packed row
        ([("-c", "c"), ("c", "c")], ("c", "c")),  # a tie: the first row wins
        ([(-1, 0), ("-c", 1)], ("-c", 1)),
    ])
    def test_blow_up_maps_the_packed_mode_to_the_full_layout(self, n, modes, reported):
        # without advection a non-finite mode stays where it is, so each
        # mode of the packed block's two row runs can be placed and found
        g = Grid(n, TWO_PI)

        def full(m):
            return tuple(g.cutoff if v == "c" else -g.cutoff if v == "-c" else v
                         for v in m)

        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        for m1, m2 in map(full, modes):
            coeffs[m1 % n, m2] = np.nan
        state = initial_state(SpectralField(g, coeffs),
                              critical_config(nonlinear_enabled=False))
        with pytest.raises(BlowUpError) as err:
            step(state, 0.01)
        assert err.value.mode == full(reported)

    def test_step_size_validation(self):
        g = Grid(16, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        with pytest.raises(ParameterError):
            step(state, -0.1)
        with pytest.raises(ParameterError):
            step(state, 0.2)  # above dt_max

    def test_first_stage_is_the_cached_rhs(self):
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("random_h1", g, seed=1), critical_config())
        rhs, umax = state.stage1
        assert state.stage1[0] is rhs  # computed once per state
        assert rhs.shape == g.packed_shape  # the live block only
        assert np.array_equal(rhs, _pack(g, nonlinear_term(state.theta).coeffs))
        u1, u2 = (inverse_transform(SpectralField(g, u)).values
                  for u in full_multipliers(g)[:2] * state.theta.coeffs)
        speed = np.hypot(u1, u2)
        assert abs(umax - np.max(speed)) <= 1e-14 * umax

    def test_replace_drops_the_cached_stage(self):
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        adapt_dt(state)
        assert "stage1" in vars(state)
        doubled = replace(state, theta=SpectralField(g, 2.0 * state.theta.coeffs))
        assert "stage1" not in vars(doubled)
        assert np.allclose(doubled.stage1[0], 4.0 * state.stage1[0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, flow", [
        (32, {}),
        (64, {}),
        (32, {"nonlinear_enabled": False}),  # the reference's rhs is 0
        (32, {"kappa": 0.0}),
        (192, {}),
        (208, {}),
        (256, {}),
        (256, {"kappa": 0.0}),
    ], ids=["32", "64", "32-linear", "32-inviscid", "192", "208", "256",
            "256-inviscid"])
    def test_matches_plain_expression_reference(self, n, flow):
        g = Grid(n, TWO_PI)
        state = initial_state(make_initial("random_h1", g, seed=2),
                              critical_config(**flow))
        for _ in range(3):
            dt = 0.7 * adapt_dt(state)
            expected = reference_step(state, dt)
            state = step(state, dt)
            assert np.array_equal(state.theta.coeffs, expected)

    def test_stage1_is_never_written(self):
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("random_h1", g, seed=3), critical_config())
        g1 = state.stage1[0].copy()
        first = step(state, 0.03).theta.coeffs
        assert np.array_equal(state.stage1[0], g1)
        step(state, 0.01)
        assert np.array_equal(state.stage1[0], g1)
        assert np.array_equal(step(state, 0.03).theta.coeffs, first)

    def test_mean_conservation(self):
        g = Grid(32, TWO_PI)
        theta0 = make_initial("cmt", g)
        shifted = SpectralField(g, theta0.coeffs.copy())
        shifted.coeffs[0, 0] = 0.25  # nonzero mean
        state = initial_state(shifted, critical_config())
        for _ in range(40):
            state = step(state, 0.02)
        assert abs(state.theta.coeffs[0, 0] - 0.25) <= 1e-13

    def test_dissipative_l2_monotone(self):
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        prev = sobolev_norm(state.theta, 0.0)
        for _ in range(30):
            state = step(state, 0.02)
            cur = sobolev_norm(state.theta, 0.0)
            assert cur <= prev + 1e-12
            prev = cur


class TestAdaptDt:
    def test_zero_velocity_returns_dt_max(self):
        g = Grid(16, TWO_PI)
        zero = SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
        state = initial_state(zero, critical_config(dt_max=0.7))
        assert adapt_dt(state) == 0.7

    def test_cfl_formula(self):
        # sin(x1) induces u = (0, cos x1) with grid sup exactly 1
        g = Grid(128, TWO_PI)
        state = initial_state(make_initial("single_mode", g),
                              critical_config(dt_max=1.0, cfl=0.5))
        assert abs(adapt_dt(state) - math.pi / 128.0) < 1e-14

    def test_halving_resolution_doubles_dt(self):
        fine = initial_state(make_initial("single_mode", Grid(128, TWO_PI)),
                             critical_config(dt_max=1.0))
        coarse = initial_state(make_initial("single_mode", Grid(64, TWO_PI)),
                               critical_config(dt_max=1.0))
        assert abs(adapt_dt(coarse) - 2.0 * adapt_dt(fine)) < 1e-12

    def test_clamps_to_bounds(self):
        g = Grid(16, TWO_PI)
        state = initial_state(make_initial("cmt", g),
                              critical_config(dt_max=1e-4))
        assert adapt_dt(state) == 1e-4
        state = initial_state(make_initial("cmt", g), critical_config(dt_max=1e-12))
        assert adapt_dt(state) == 1e-12  # a dt_max below the floor is the step

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_overflowing_speed_gets_the_step_floor(self):
        # sup|u|^2 overflows to inf, so the CFL step would be 0: the floor
        # keeps it finite, and the step taken with it reports the blow-up
        g = Grid(16, TWO_PI)
        theta = SpectralField(g, 1e160 * make_initial("cmt", g).coeffs)
        state = initial_state(theta, critical_config())
        assert state.stage1[1] == math.inf
        assert adapt_dt(state) == 1e-10
        with pytest.raises(BlowUpError):
            step(state, adapt_dt(state))

    @pytest.mark.filterwarnings("error")
    def test_the_floor_scales_with_the_box(self):
        # on a box 1e-11 long the CFL step is 8.5e-13: a floor fixed at 1e-10
        # would step 118 times past it, and the inviscid run would blow up
        g = Grid(32, 1e-11)
        theta = make_initial("random_h1", g)
        state = initial_state(theta, critical_config(kappa=0.0))
        assert adapt_dt(state) == 0.5 * g.dx / state.stage1[1]
        assert 8e-13 < adapt_dt(state) < 9e-13
        # an overflowing speed gets the floor at the box's scale
        state = initial_state(SpectralField(g, 1e160 * theta.coeffs), critical_config())
        assert state.stage1[1] == math.inf
        assert adapt_dt(state) == 1e-10 * (1e-11 / TWO_PI)


class TestRunUntil:
    def test_identity_when_already_there(self):
        g = Grid(16, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        out = run_until(state, 0.0)
        assert out is state

    def test_rejects_backwards(self):
        g = Grid(16, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        state = run_until(state, 0.1)
        with pytest.raises(ParameterError):
            run_until(state, 0.05)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_a_non_finite_end(self, t_end):
        # no state may be stamped with a time that is not finite
        g = Grid(16, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        with pytest.raises(ParameterError, match=f"t_end = {t_end} .* t = 0.0"):
            run_until(state, t_end)

    def test_single_mode_exact_to_t1(self):
        g = Grid(64, TWO_PI)
        state = run_until(initial_state(make_initial("single_mode", g),
                                        critical_config()), 1.0)
        x1, _ = g.points()
        err = np.max(np.abs(inverse_transform(state.theta).values
                            - math.exp(-1.0) * np.sin(x1)))
        assert err <= 1e-8 * math.exp(-1.0)
        assert state.t == 1.0

    def test_deterministic(self):
        g = Grid(32, TWO_PI)

        def series():
            norms = []
            st = initial_state(make_initial("random_h1", g, seed=5),
                               critical_config())
            run_until(st, 0.5,
                      callbacks=[lambda s_: norms.append(sobolev_norm(s_.theta, 0.0))],
                      callback_times=[0.1, 0.2, 0.3, 0.4, 0.5])
            return norms

        assert series() == series()

    def test_callbacks_fire_once_at_exact_times(self):
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        seen = []
        run_until(state, 0.3, callbacks=[lambda s_: seen.append(s_.t)],
                  callback_times=[0.1, 0.2, 0.3])
        assert seen == [0.1, 0.2, 0.3]

    def test_near_duplicate_callback_times_fire_once(self):
        # 3 * 0.1 = 0.30000000000000004 is within the snap tolerance of 0.3,
        # and the float below 0.5 within it of t_end: each pair is one event
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        seen = []
        run_until(state, 0.5, callbacks=[lambda s_: seen.append(s_.t)],
                  callback_times=[0.3, 0.1 * 3, np.nextafter(0.5, 0.0), 0.5])
        assert seen == [0.3, 0.5]

    def test_times_below_one_are_not_snapped_together(self):
        # the snap tolerance is relative: 1e-15 is a step away from t = 0, and
        # 2e-15 an event apart from 1e-15
        g = Grid(16, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        out = run_until(state, 1e-15)
        assert (out.t, out.step_count) == (1e-15, 1)
        assert dynamics._event_times([1e-15, 2e-15], 1.0) == {1e-15: 1e-15, 2e-15: 2e-15}

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 3)
        g = Grid(32, TWO_PI)
        state = initial_state(make_initial("cmt", g), critical_config())
        with pytest.raises(BudgetError):
            run_until(state, 1.0)


def test_inviscid_l2_conservation_over_unit_time():
    g = Grid(128, TWO_PI)
    theta0 = make_initial("cmt", g)
    config = critical_config(kappa=0.0)
    state = run_until(initial_state(theta0, config), 1.0)
    l2_0 = sobolev_norm(theta0, 0.0)
    assert abs(sobolev_norm(state.theta, 0.0) - l2_0) <= 1e-6 * l2_0


def test_threads_match_sequential():
    # four threads, each stepping an n=32, an n=64 and an n=128 trajectory
    # while the others do, so a workspace shared across threads would mix
    # their stages
    work = [[(32, 3 * k + 1), (64, 3 * k + 2), (128, 3 * k + 3)] for k in range(4)]
    expected = {job: trajectory(*job) for jobs in work for job in jobs}
    results = {job: [] for job in expected}
    barrier = threading.Barrier(len(work), timeout=60)

    def worker(jobs):
        barrier.wait()
        for _ in range(3):
            for job in jobs:
                results[job].append(trajectory(*job))

    threads = [threading.Thread(target=worker, args=(jobs,)) for jobs in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for job, runs in results.items():
        assert len(runs) == 3
        assert all(np.array_equal(got, expected[job]) for got in runs)


class TestAdvectionBatch:
    """``_advection`` runs its four fields as one batch on the calling
    thread."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32).map(lambda k: 2 * k), seed=st.integers(0, 2 ** 16))
    @example(n=128, seed=1)
    @example(n=208, seed=3)
    @example(n=256, seed=2)
    def test_matches_the_serial_evaluation_bit_for_bit(self, n, seed):
        g = Grid(n, TWO_PI)
        coeffs = _pack(g, make_initial("random_h1", g, seed=seed).coeffs)
        # one batched 4-field inverse transform and the forward transform of
        # the summed products, packed
        spec = full_multipliers(g) * _unpack(g, coeffs)
        u1, u2, t1, t2 = _inverse(g, spec, np.empty((4, n, n)), dealiased=True)
        t1 *= u1
        t2 *= u2
        t1 += t2
        expected = _pack(g, np.fft.rfft2(t1, norm="forward"))
        out = np.full(g.packed_shape, np.nan, dtype=complex)
        velocity = _advection(g, coeffs, out)
        assert np.array_equal(out, expected)
        assert np.array_equal(velocity[0], u1)
        assert np.array_equal(velocity[1], u2)

    # 208 and 256 are the sizes from which the forward transform used to be
    # cut in two; every size now transforms the whole grid at once
    @pytest.mark.parametrize("n", [128, 192, 206, 208, 256])
    def test_one_inverse_and_one_forward_per_evaluation(self, n, monkeypatch):
        g = Grid(n, TWO_PI)
        coeffs = _pack(g, make_initial("random_h1", g, seed=4).coeffs)
        out = np.empty(g.packed_shape, dtype=complex)
        expected = _pack(g, nonlinear_term(SpectralField(g, _unpack(g, coeffs))).coeffs)
        calls = record_transforms(monkeypatch)
        _advection(g, coeffs, out)
        assert np.array_equal(out, expected)
        here = threading.current_thread()
        assert calls == [("_inverse", here, (4, n, n)), ("_forward", here, (n, n))]

    @pytest.mark.parametrize("failing", ["_products", "_inverse", "_forward"])
    def test_an_error_in_the_batch_reaches_the_caller(self, failing, monkeypatch):
        g = Grid(32, TWO_PI)
        coeffs = _pack(g, make_initial("random_h1", g, seed=5).coeffs)
        expected = np.empty(g.packed_shape, dtype=complex)
        _advection(g, coeffs, expected)
        real = getattr(spectral, failing)

        def fail(*args, **kwargs):
            raise Boom(failing)

        monkeypatch.setattr(spectral, failing, fail)
        out = np.full(g.packed_shape, np.nan, dtype=complex)
        with pytest.raises(Boom, match=failing):
            _advection(g, coeffs, out)
        assert np.isnan(out).all()  # a failed evaluation writes nothing out
        # and the next evaluation gives the same bits
        monkeypatch.setattr(spectral, failing, real)
        _advection(g, coeffs, out)
        assert np.array_equal(out, expected)

    def test_the_batch_runs_in_the_callers_errstate(self):
        # products of 1e200-sized fields overflow
        g = Grid(16, TWO_PI)
        coeffs = np.full(g.packed_shape, 1e200, dtype=complex)
        out = np.empty(g.packed_shape, dtype=complex)
        with np.errstate(over="raise", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="overflow"):
            _advection(g, coeffs, out)
        with np.errstate(all="ignore"):
            _advection(g, coeffs, out)
        assert not np.isfinite(out).all()

    def test_the_batch_runs_on_the_calling_thread(self, monkeypatch):
        calls = record_transforms(monkeypatch)
        g = Grid(32, TWO_PI)
        coeffs = _pack(g, make_initial("random_h1", g, seed=6).coeffs)
        out = np.empty(g.packed_shape, dtype=complex)
        threads = []

        def evaluate():
            threads.append(threading.current_thread())
            _advection(g, coeffs, out)

        evaluate()
        worker = threading.Thread(target=evaluate)
        worker.start()
        worker.join()
        assert threads[1] is worker and threads[0] is not worker
        assert [thread for _, thread, _ in calls] == [threads[0]] * 2 + [worker] * 2


class Boom(Exception):
    pass


def record_transforms(monkeypatch):
    """Patch ``spectral._inverse`` and ``spectral._forward`` to record each
    call's (name, thread, shape of the grid values) in the returned list."""
    calls = []

    def watch(name, transform, values_at):
        def watched(*args, **kwargs):
            calls.append((name, threading.current_thread(), args[values_at].shape))
            return transform(*args, **kwargs)
        monkeypatch.setattr(spectral, name, watched)

    watch("_inverse", spectral._inverse, 2)
    watch("_forward", spectral._forward, 1)
    return calls


RUN_IN_CHILD = """
import os, sys, threading
import numpy as np
import sqglab as sq
g = sq.Grid(128, 2 * np.pi)
config = sq.SolverConfig(gamma=1.0)
state = sq.initial_state(sq.make_initial("random_h1", g, seed=3), config)
"""


def run_child(code):
    """Run ``code`` after RUN_IN_CHILD's set-up in a fresh interpreter, with
    a multi-threaded fork an error, and return its standard output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(dynamics.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         RUN_IN_CHILD + textwrap.dedent(code)],
        env=env, timeout=60, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stepping_and_sampling_start_no_thread():
    out = run_child("""
        before = threading.active_count()
        state = sq.run_until(state, 0.05)
        sq.record_norms(state, sq.NormSeries())
        print(before, threading.active_count())
    """)
    before, after = out.split()
    assert after == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_stepping_steps_to_the_same_bits():
    # from Python 3.12 on a fork warns if the process has other threads, and
    # the child runs with that warning an error
    out = run_child("""
        state = sq.step(state, 0.01)
        expected = sq.step(state, 0.01).theta.coeffs
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = np.array_equal(sq.step(state, 0.01).theta.coeffs, expected)
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status))
    """)
    assert out.split() == ["0"]


def test_warm_step_allocates_no_large_temporaries():
    # the cap is twice 532,480 bytes, the size of a (4, 128, 65) complex
    # stack; allocating every temporary afresh peaks at about 4.4 times that
    g = Grid(128, TWO_PI)
    state = initial_state(make_initial("random_h1", g, seed=5), critical_config())
    state = step(state, adapt_dt(state))  # builds this thread's workspace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(state, adapt_dt(state))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1_064_960
