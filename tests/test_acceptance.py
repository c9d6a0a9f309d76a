"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they are produced.
"""

import math
import time

import numpy as np
import pytest

from sqglab import (
    Grid,
    NormSeries,
    RealField,
    SolverConfig,
    SpectralField,
    band_limited_random,
    build_knv_modulus,
    check_boundedness,
    check_modulus,
    convergence_ratio,
    convolution_nonlinearity,
    default_offsets,
    fit_decay_exponent,
    forward_transform,
    initial_state,
    integral_tail_fraction,
    inverse_transform,
    linear_heat_exact,
    make_initial,
    nonlinear_term,
    record_norms,
    run_until,
    scaling_consistency,
    single_mode_exact,
    sobolev_norm,
    step,
    sup_and_gradient_sup,
)
from sqglab.spectral import _pack, _unpack

TWO_PI = 2.0 * math.pi


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def sampled_run(theta0, config, t_end, sample_dt, betas=(), extra_times=()):
    series = NormSeries(betas=betas)
    state = initial_state(theta0, config)
    record_norms(state, series)
    times = sorted({round(i * sample_dt, 12)
                    for i in range(1, int(t_end / sample_dt + 1e-9) + 1)}
                   | set(extra_times) | {t_end})
    state = run_until(state, t_end,
                      callbacks=[lambda st: record_norms(st, series)],
                      callback_times=times)
    return state, series


@pytest.fixture(scope="module")
def cmt_run_10():
    """Criterion 4 run: gamma = kappa = 1, cmt data, n = 128, t in [0, 10]."""
    grid = Grid(128, TWO_PI)
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    t0 = time.perf_counter()
    state, series = sampled_run(make_initial("cmt", grid), config, 10.0, 0.25)
    return state, series, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cmt_run_50():
    grid = Grid(128, TWO_PI)
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    t0 = time.perf_counter()
    state, series = sampled_run(make_initial("cmt", grid), config, 50.0, 0.25)
    return state, series, time.perf_counter() - t0


def log_times(t_end):
    """Criterion 7's log-spaced sample times, 12 a decade from 1e-4, to t_end."""
    return {t for t in (1e-4 * 10 ** (j / 12) for j in range(12 * 6 + 1)) if t <= t_end}


@pytest.fixture(scope="module")
def smoothing_run():
    """Criterion 7 run: rough H^1 data at n = 256 with log-spaced sampling."""
    grid = Grid(256, TWO_PI)
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    t0 = time.perf_counter()
    state, series = sampled_run(make_initial("random_h1", grid, seed=7), config,
                                30.0, 1.0, betas=(0.5, 1.0),
                                extra_times=log_times(30.0))
    return state, series, time.perf_counter() - t0


def test_criterion_01_single_mode_exact():
    t0 = time.perf_counter()
    grid = Grid(64, TWO_PI)
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5)
    state = run_until(initial_state(make_initial("single_mode", grid), config), 1.0)
    err = np.max(np.abs(inverse_transform(state.theta).values
                        - single_mode_exact(grid, 1.0).values)) / math.exp(-1.0)
    wall = time.perf_counter() - t0
    report(1, err <= 1e-8 and wall < 5.0,
           f"single-mode rel Linf error {err:.3e} <= 1e-8, {wall:.2f}s < 5s")


def test_criterion_02_linear_semigroup():
    t0 = time.perf_counter()
    grid = Grid(64, TWO_PI)
    theta0 = make_initial("random_h1", grid, seed=11)
    worst = 0.0
    for gamma in (0.5, 1.0, 1.5, 2.0):
        config = SolverConfig(gamma=gamma, kappa=1.0, nonlinear_enabled=False)
        state = run_until(initial_state(theta0, config), 1.0)
        exact = linear_heat_exact(theta0, gamma, 1.0, 1.0)
        diff = SpectralField(grid, state.theta.coeffs - exact.coeffs)
        worst = max(worst, sobolev_norm(diff, 0.0) / sobolev_norm(exact, 0.0))
    wall = time.perf_counter() - t0
    report(2, worst <= 1e-12 and wall < 5.0,
           f"linear semigroup worst rel L2 error {worst:.3e} <= 1e-12, "
           f"{wall:.2f}s < 5s")


def test_criterion_03_inviscid_conservation():
    t0 = time.perf_counter()
    grid = Grid(128, TWO_PI)
    theta0 = make_initial("cmt", grid)
    config = SolverConfig(gamma=1.0, kappa=0.0, cfl=0.5, dt_max=0.05)
    state = run_until(initial_state(theta0, config), 1.0)
    l2_0 = sobolev_norm(theta0, 0.0)
    drift = abs(sobolev_norm(state.theta, 0.0) - l2_0) / l2_0
    wall = time.perf_counter() - t0
    report(3, drift <= 1e-6 and wall < 60.0,
           f"inviscid L2 drift {drift:.3e} <= 1e-6, {wall:.2f}s < 60s")


def test_criterion_03_inviscid_hamiltonian_conservation():
    # beside criterion 3, on its run: the SQG Hamiltonian ||theta||^2 in
    # H^-1/2 is the inviscid flow's second invariant.  Gate, set before
    # measuring: 1e-10 relative drift
    grid = Grid(128, TWO_PI)
    theta0 = make_initial("cmt", grid)
    config = SolverConfig(gamma=1.0, kappa=0.0, cfl=0.5, dt_max=0.05)
    start = initial_state(theta0, config)
    state = run_until(start, 1.0)
    inv_k = np.zeros_like(grid.kmag)
    np.divide(1.0, grid.kmag, out=inv_k, where=grid.kmag > 0.0)

    def hamiltonian(theta):
        return float(np.sum(grid.weights * inv_k * np.abs(theta.coeffs) ** 2))

    h0 = hamiltonian(start.theta)
    drift = abs(hamiltonian(state.theta) - h0) / h0
    assert drift <= 1e-10, f"inviscid H^-1/2 drift {drift:.3e} > 1e-10"


@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("preset", ["cmt", "random_h1"])
def test_dissipative_l2_budget(preset, gamma):
    # the truncated advection term is L2-orthogonal to theta, so
    # ||theta_0||^2 - ||theta(t)||^2 = 2 kappa int_0^t ||theta||^2_{H^{gamma/2}},
    # up to the time error; the integral is Simpson's rule on samples every
    # 0.01.  Gate, set before measuring: 1e-6 ||theta_0||^2.  gamma = 1.5 is
    # left out: there random_h1's early decay is faster than these samples
    # resolve (4.5e-5)
    grid = Grid(64, TWO_PI)
    amplitude = 3.0 if preset == "random_h1" else 1.0
    theta0 = make_initial(preset, grid, seed=0, amplitude=amplitude)
    kappa = 1.0
    config = SolverConfig(gamma=gamma, kappa=kappa)
    times = [round(0.01 * i, 12) for i in range(1, 101)]
    samples = []

    def sample(st):
        samples.append([sobolev_norm(st.theta, s) ** 2 for s in (0.0, gamma / 2.0)])

    start = initial_state(theta0, config)
    sample(start)
    run_until(start, 1.0, callbacks=[sample], callback_times=times)
    l2_sq, dissipation = np.array(samples).T
    simpson = np.ones(101)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    integral = 0.01 / 3.0 * float(np.dot(simpson, dissipation))
    residual = abs(l2_sq[0] - l2_sq[-1] - 2.0 * kappa * integral)
    assert residual <= 1e-6 * l2_sq[0], (
        f"L2 budget residual {residual / l2_sq[0]:.3e} of ||theta_0||^2 > 1e-6")


def test_criterion_04_maximum_principle_trend(cmt_run_10):
    _, series, wall = cmt_run_10
    linf = series.column("linf")
    worst_rise = float(np.max(np.diff(linf)))
    report(4, worst_rise <= 1e-4 and wall < 300.0,
           f"worst Linf rise between samples {worst_rise:.3e} <= 1e-4, "
           f"run {wall:.1f}s < 300s")


def test_criterion_05_linf_decay_bound(cmt_run_10):
    _, series, _ = cmt_run_10
    t = series.t
    weighted = (1.0 + t) * series.column("linf")
    sup = float(np.max(weighted))
    early = float(np.max(weighted[t <= 1.0]))  # last decade of [0, 10] is t > 1
    stabilized = early >= sup * 0.99
    report(5, np.isfinite(sup) and stabilized,
           f"sup (1+t) Linf = {sup:.4f} finite, last-decade increase "
           f"{(sup - early) / sup:.2e} < 1%")


def test_criterion_06_h1_monotone_and_h32_integrable(cmt_run_10):
    _, series, _ = cmt_run_10
    t = series.t
    linf = series.column("linf")
    h1 = series.column("h1")
    h32 = series.column("h3_2")
    below = np.nonzero(linf <= 0.1 * linf[0])[0]
    assert below.size > 0, "Linf never reached 10% of its initial value"
    i_star = int(below[0])
    t_star = t[i_star]
    rel_rise = float(np.max(np.diff(h1[i_star:]) / h1[i_star:-1]))
    total, tail = integral_tail_fraction(t[i_star:], h32[i_star:] ** 2)
    ok = rel_rise <= 1e-6 and tail < 0.01
    report(6, ok,
           f"t* = {t_star:.2f}; H1 worst rel rise {rel_rise:.3e} <= 1e-6; "
           f"integral of H3/2^2 = {total:.4g} with tail fraction {tail:.2e} < 1%")


def test_criterion_07_smoothing_rates(smoothing_run):
    _, series, wall = smoothing_run
    details = []
    ok = wall < 600.0
    for beta in (0.5, 1.0):
        column = f"h1+{beta:g}"
        fit = fit_decay_exponent(series, column, (1e-3, 1e-1))
        bound = check_boundedness(series, beta, column)
        in_band = -beta - 0.3 <= fit.alpha <= 0.0
        ok = ok and in_band and bound.stabilized and np.isfinite(bound.sup)
        details.append(f"beta={beta}: alpha={fit.alpha:.3f} in "
                       f"[{-beta - 0.3:.2f}, 0], sup={bound.sup:.3f} "
                       f"stabilized={bound.stabilized}")
    report(7, ok, "; ".join(details) + f"; run {wall:.1f}s < 600s")


def test_criterion_07_nested_data_resolves_the_sup_window():
    # beside criterion 7: its data at n = 256 and the same data restricted
    # to n = 128, on its log schedule to t = 1.  The resolved window starts
    # at the first sample from which t^beta ||theta||_{H^{1+beta}} agrees to
    # 1% between the grids at every later sample.  Gates, set before
    # measuring: the window starts by t = 0.1, and the two sups in it agree
    # to 1%
    fine, coarse = Grid(256, TWO_PI), Grid(128, TWO_PI)
    theta_fine = make_initial("random_h1", fine, seed=7)
    theta_coarse = SpectralField(coarse, _unpack(coarse, _pack(coarse, theta_fine.coeffs)))
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    runs = [sampled_run(theta0, config, 1.0, 1.0, betas=(0.5, 1.0),
                        extra_times=log_times(1.0))[1]
            for theta0 in (theta_coarse, theta_fine)]
    t = runs[0].t
    assert np.array_equal(t, runs[1].t)
    pos = t > 0.0
    for beta in (0.5, 1.0):
        column = f"h1+{beta:g}"
        low, high = (t[pos] ** beta * series.column(column)[pos] for series in runs)
        apart = np.abs(low - high) > 0.01 * high
        start = int(np.flatnonzero(apart)[-1]) + 1 if apart.any() else 0
        assert start < low.size, f"beta = {beta}: the grids disagree at t = 1"
        t_w = t[pos][start]
        sup_low, sup_high = low[start:].max(), high[start:].max()
        print(f"beta = {beta}: resolved from t = {t_w:.4g}; sup t^beta H^(1+beta) "
              f"{sup_low:.6g} (n = 128), {sup_high:.6g} (n = 256)")
        assert t_w <= 0.1, f"beta = {beta}: resolved only from t = {t_w:.4g}"
        assert abs(sup_low - sup_high) <= 0.01 * sup_high


def test_criterion_08_higher_norm_decay(cmt_run_50):
    _, series, wall = cmt_run_50
    bound = check_boundedness(series, 0.9, "h2", window=(1.0, 50.0))
    ok = np.isfinite(bound.sup) and bound.stabilized and wall < 600.0
    report(8, ok,
           f"sup t^0.9 H2 over [1, 50] = {bound.sup:.4f} finite, "
           f"stabilized={bound.stabilized}, run {wall:.1f}s < 600s")


def test_criterion_09_modulus_monitor():
    t0 = time.perf_counter()
    grid = Grid(128, TWO_PI)
    # at amplitude 1 no rescaling of cmt can pass: the half-box shift (0, n/2)
    # moves it by its whole oscillation, 2.83, while omega stays below
    # omega(10) = 0.144 on every separation the table reaches
    theta0 = inverse_transform(make_initial("cmt", grid, amplitude=0.04))
    # theta0(2x) on the 4 pi box has theta0's grid values exactly; its
    # largest separation, 4 pi / sqrt 2 = 8.89, is below the table's floor
    field = RealField(Grid(grid.n, 2 * TWO_PI), theta0.values)
    mod = build_knv_modulus(0.05, field.grid)
    offsets = default_offsets(field.grid)
    start = check_modulus(field, mod, offsets)
    # the input holds on every periodic shift, each at its shortest offset
    half = grid.n // 2
    every = [(d1, d2) for d1 in range(1 - half, half + 1)
             for d2 in range(1 - half, half + 1) if (d1, d2) != (0, 0)]
    exhaustive = check_modulus(field, mod, every).worst_ratio
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=1.0)
    state = initial_state(forward_transform(field), config)
    ratios, margins = [], []

    def monitor(st):
        phys = inverse_transform(st.theta)
        ratios.append(check_modulus(phys, mod, offsets).worst_ratio)
        margins.append(mod.omega_prime_at_zero - sup_and_gradient_sup(st.theta)[1])

    monitor(state)
    run_until(state, 10.0, callbacks=[monitor],
              callback_times=[0.5 * i for i in range(1, 21)])
    wall = time.perf_counter() - t0
    ok = (start.worst_ratio <= 0.9 and exhaustive <= 1.0
          and max(ratios) <= 1.0 and min(margins) > 0.0 and wall < 600.0)
    report(9, ok,
           f"C = 2 with ratio {start.worst_ratio:.3f} <= 0.9 "
           f"({exhaustive:.3f} <= 1 on all {len(every)} shifts); "
           f"max ratio along run {max(ratios):.3f} <= 1; min gradient margin "
           f"{min(margins):.3e} > 0; {wall:.1f}s < 600s")


def test_criterion_10_scaling_symmetry():
    t0 = time.perf_counter()
    grid = Grid(128, TWO_PI)
    theta0 = band_limited_random(grid, seed=3, max_mode=grid.n // 6, amplitude=0.5)
    rep = scaling_consistency(theta0, 2, 0.5)
    wall = time.perf_counter() - t0
    report(10, rep.passed and wall < 120.0,
           f"C = 2 scaling discrepancy {rep.max_rel_error:.3e} <= 1e-5, "
           f"{wall:.2f}s < 120s")


def test_criterion_11_nonlinear_term_oracle():
    t0 = time.perf_counter()
    grid = Grid(16, TWO_PI)
    worst = 0.0
    for seed in range(20):
        theta = band_limited_random(grid, seed=seed, max_mode=5, amplitude=1.0)
        direct = convolution_nonlinearity(theta)
        pseudo = nonlinear_term(theta)
        scale = float(np.max(np.abs(direct.coeffs)))
        worst = max(worst, float(np.max(np.abs(direct.coeffs - pseudo.coeffs)))
                    / scale)
    wall = time.perf_counter() - t0
    report(11, worst <= 1e-10 and wall < 60.0,
           f"20-seed convolution mismatch {worst:.3e} <= 1e-10, "
           f"{wall:.2f}s < 60s")


def test_criterion_12_rk4_order():
    t0 = time.perf_counter()
    grid = Grid(64, TWO_PI)
    config = SolverConfig(gamma=1.0, kappa=1.0, dt_max=0.05)
    # the single-mode solution is reproduced exactly (the advection term
    # vanishes identically and the dissipation factor is exact), so assert
    # that first, then measure the dt^4 Richardson ratio on data with an
    # active nonlinear term
    exact = single_mode_exact(grid, 0.1)
    for dt in (0.01, 0.005):
        state = initial_state(make_initial("single_mode", grid), config)
        for _ in range(int(round(0.1 / dt))):
            state = step(state, dt)
        err = np.max(np.abs(inverse_transform(state.theta).values - exact.values))
        assert err <= 1e-12, f"single-mode step error {err:.3e} not at roundoff"
    ratio = convergence_ratio(make_initial("cmt", grid), config, 0.1, 0.01)
    wall = time.perf_counter() - t0
    report(12, 14.0 <= ratio <= 18.0 and wall < 60.0,
           f"Richardson ratio {ratio:.2f} in [14, 18] "
           f"(single-mode exact to 1e-12), {wall:.2f}s < 60s")
