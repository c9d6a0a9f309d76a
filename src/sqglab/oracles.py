"""Closed-form and brute-force reference solutions for validating the solver,
and the oracle suites that ``sqglab oracle`` runs.

Everything here is deliberately independent of the production code paths it
checks: the convolution oracle assembles the advection term by a direct
double sum over mode pairs, and the scaling oracle compares two genuinely
separate solver runs related by the exact rescaling symmetry of the
critical equation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import SolverConfig, initial_state, nonlinear_term, run_until, step
from .errors import BudgetError, ConfigError, ParameterError
from .initial import band_limited_random, make_initial
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    dealias,
    inverse_transform,
    sobolev_norm,
)


@dataclass(frozen=True)
class OracleReport:
    name: str
    max_abs_error: float
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def csv_row(self) -> str:
        return (f"{self.name},{self.max_abs_error:.17g},{self.max_rel_error:.17g},"
                f"{self.tolerance:.17g},{'true' if self.passed else 'false'}")


ORACLE_CSV_HEADER = "name,max_abs_error,max_rel_error,tolerance,pass"


def linear_heat_exact(theta0: SpectralField, gamma: float, kappa: float,
                      t: float) -> SpectralField:
    """Exact fractional heat semigroup: coefficients times exp(-kappa |k|^gamma t)."""
    if t < 0.0:
        raise ParameterError(f"time must be >= 0, got {t}")
    decay = np.exp(-kappa * theta0.grid.kmag_pow(gamma) * t)
    return SpectralField(theta0.grid, decay * theta0.coeffs)


def single_mode_exact(grid: Grid, t: float) -> RealField:
    """exp(-t) sin(x1): exact solution for gamma = kappa = 1 on the 2 pi box.

    The velocity induced by sin(x1) is (0, cos(x1)), orthogonal to the
    gradient, so the advection term vanishes identically and only the
    dissipation acts.
    """
    if not math.isclose(grid.length, 2.0 * math.pi, rel_tol=1e-12):
        raise ConfigError(
            f"single-mode solution requires box length 2*pi, got {grid.length}")
    x1, _ = grid.points()
    return RealField(grid, math.exp(-t) * np.sin(x1))


def convolution_nonlinearity(theta: SpectralField) -> SpectralField:
    """Brute-force convolution sum for u . grad(theta) on small grids.

    Expands the half spectrum to the full lattice by F(-m) = conj(F(m)),
    restricts input and output to the alias-free 2/3 support and evaluates
    out(m) = sum_q uhat(m - q) . (i k(q)) theta(q) directly over the full
    lattice, with the Riesz velocity components written out mode by mode.
    The output has the half-spectrum layout of ``nonlinear_term``.  O(n^4)
    cost; refuses n > 24.
    """
    grid = theta.grid
    n = grid.n
    if n > 24:
        raise BudgetError(f"convolution oracle limited to n <= 24, got {n}")
    scale = 2.0 * math.pi / grid.length

    coeff = dealias(theta).coeffs

    def that(m1: int, m2: int) -> complex:
        if max(abs(m1), abs(m2)) > grid.cutoff:
            return 0.0 + 0.0j
        if m2 < 0:
            return complex(coeff[-m1 % n, -m2]).conjugate()
        return complex(coeff[m1 % n, m2])

    def uhat(m1: int, m2: int):
        kk = scale * math.hypot(m1, m2)
        if kk == 0.0:
            return 0.0 + 0.0j, 0.0 + 0.0j
        th = that(m1, m2)
        return (-1j * scale * m2 / kk) * th, (1j * scale * m1 / kk) * th

    out = np.zeros(grid.spectral_shape, dtype=complex)
    rng = range(-grid.cutoff, grid.cutoff + 1)
    for m1 in rng:
        for m2 in range(grid.cutoff + 1):
            acc = 0.0 + 0.0j
            for q1 in rng:
                for q2 in rng:
                    p1, p2 = m1 - q1, m2 - q2
                    if max(abs(p1), abs(p2)) > grid.cutoff:
                        continue
                    u1, u2 = uhat(p1, p2)
                    acc += (u1 * (1j * scale * q1) + u2 * (1j * scale * q2)) * that(q1, q2)
            out[m1 % n, m2] = acc
    return SpectralField(grid, out)


def scaling_consistency(
    theta0: SpectralField,
    c: int,
    t: float,
    nonlinear: bool = True,
) -> OracleReport:
    """Compare theta(c t, c x) against the run started from theta0(c x).

    Run (a) evolves theta0 on the full box to time c*t and subsamples every
    c-th point; run (b) evolves theta0(c x), whose coefficients on the box
    shrunk by c are theta0's own, on that box's n/c grid to time t.  Both
    run with gamma = 1 and the other ``SolverConfig`` defaults, so they
    represent the same solution, and the reported discrepancy measures
    solver error only.  Requires an integer c dividing n (a float is
    refused, not truncated) and theta0 band-limited to the coarse grid's
    ``cutoff``: run (b) starts from that block, copied on its ``live_rows``.
    The report's tolerance is the scaling oracle's 1e-5, or without
    ``nonlinear`` the linear oracle's 1e-12.
    """
    grid = theta0.grid
    if not (isinstance(c, numbers.Integral) and c >= 1 and grid.n % c == 0):
        raise ConfigError(f"c = {c!r} must be a positive integer dividing n = {grid.n}")
    c = int(c)
    if grid.n // c < 8:
        raise ConfigError(f"coarse grid n/c = {grid.n // c} is below the minimum of 8")
    coarse_grid = Grid(grid.n // c, grid.length / c)
    cutoff = coarse_grid.cutoff
    outside = (np.abs(grid.m1) > cutoff) | (np.abs(grid.m2) > cutoff)
    if float(np.max(np.abs(theta0.coeffs[outside]))) > 1e-13:
        raise ConfigError("theta0 must be band-limited to max|m| <= the coarse "
                          f"grid's cutoff {cutoff}, n/c = {coarse_grid.n}")

    config = SolverConfig(gamma=1.0, nonlinear_enabled=nonlinear)
    fine = run_until(initial_state(theta0, config), c * t)
    fine_vals = inverse_transform(fine.theta).values[::c, ::c]

    coeffs = np.zeros(coarse_grid.spectral_shape, dtype=complex)
    for rows, _ in coarse_grid.live_rows:
        coeffs[rows, :cutoff + 1] = theta0.coeffs[rows, :cutoff + 1]
    coarse0 = SpectralField(coarse_grid, coeffs)
    coarse = run_until(initial_state(coarse0, config), t)
    coarse_vals = inverse_transform(coarse.theta).values

    diff = fine_vals - coarse_vals
    ref = math.sqrt(float(np.sum(coarse_vals ** 2)))
    max_abs = float(np.max(np.abs(diff)))
    rel = math.sqrt(float(np.sum(diff ** 2))) / ref if ref > 0.0 else 0.0
    return OracleReport(f"scaling_c{c}" + ("" if nonlinear else "_linear"),
                        max_abs, float(rel), 1e-5 if nonlinear else 1e-12)


def convergence_ratio(theta0: SpectralField, config: SolverConfig, t_end: float,
                      dt: float) -> float:
    """Richardson self-convergence ratio of the stepper at fixed step sizes.

    Runs the same initial data with steps dt, dt/2 and dt/4 and returns
    ||theta_dt - theta_{dt/2}||_{L^2} / ||theta_{dt/2} - theta_{dt/4}||_{L^2},
    which approaches 2^p for a scheme of order p.
    """
    results = []
    for h in (dt, dt / 2.0, dt / 4.0):
        state = initial_state(theta0, config)
        n_steps = int(round(t_end / h))
        if abs(n_steps * h - t_end) > 1e-12 * max(1.0, t_end):
            raise ParameterError(f"dt = {h} does not divide t_end = {t_end}")
        for _ in range(n_steps):
            state = step(state, h)
        results.append(state.theta)
    e1, e2 = (sobolev_norm(SpectralField(theta0.grid, a.coeffs - b.coeffs), 0.0)
              for a, b in zip(results, results[1:]))
    if e2 == 0.0:
        raise ParameterError("refinement differences vanished; dt too small")
    return float(e1 / e2)


# ---------------------------------------------------------------------------
# oracle suites


def linear_suite():
    reports = []
    grid = Grid(32, 2.0 * math.pi)
    theta0 = make_initial("random_h1", grid)
    for gamma in (0.5, 1.0, 1.5, 2.0):
        config = SolverConfig(gamma=gamma, kappa=1.0, nonlinear_enabled=False)
        state = run_until(initial_state(theta0, config), 1.0)
        exact = linear_heat_exact(theta0, gamma, 1.0, 1.0)
        diff = SpectralField(grid, state.theta.coeffs - exact.coeffs)
        rel = sobolev_norm(diff, 0.0) / sobolev_norm(exact, 0.0)
        max_abs = float(np.max(np.abs(diff.coeffs)))
        reports.append(OracleReport(f"linear_gamma{gamma:g}", max_abs,
                                    float(rel), 1e-12))
    return reports


def single_mode_suite():
    grid = Grid(64, 2.0 * math.pi)
    config = SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5)
    state = run_until(initial_state(make_initial("single_mode", grid), config), 1.0)
    exact = single_mode_exact(grid, 1.0)
    diff = inverse_transform(state.theta).values - exact.values
    max_abs = float(np.max(np.abs(diff)))
    return [OracleReport("single_mode", max_abs, max_abs / math.exp(-1.0), 1e-8)]


def scaling_suite():
    grid = Grid(128, 2.0 * math.pi)
    theta0 = band_limited_random(grid, seed=0, max_mode=grid.n // 6,
                                 amplitude=0.5)
    return [scaling_consistency(theta0, 2, 0.5, nonlinear=nonlinear)
            for nonlinear in (True, False)]


def convolution_suite():
    grid = Grid(16, 2.0 * math.pi)
    reports = []
    for seed in range(5):
        theta0 = band_limited_random(grid, seed=seed, max_mode=5, amplitude=1.0)
        direct = convolution_nonlinearity(theta0)
        pseudo = nonlinear_term(theta0)
        diff = np.max(np.abs(direct.coeffs - pseudo.coeffs))
        scale = np.max(np.abs(direct.coeffs))
        rel = float(diff / scale) if scale > 0 else 0.0
        reports.append(OracleReport(f"convolution_seed{seed}", float(diff),
                                    rel, 1e-10))
    return reports


def rk4_order_suite():
    # criterion 12's Richardson ratio, 2^4 = 16 for a fourth-order stepper,
    # with its gate [14, 18] as a relative error of 1/8
    config = SolverConfig(gamma=1.0, kappa=1.0, dt_max=0.05)
    ratio = convergence_ratio(make_initial("cmt", Grid(64, 2.0 * math.pi)),
                              config, 0.1, 0.01)
    return [OracleReport("rk4_order", abs(ratio - 16.0), abs(ratio / 16.0 - 1.0),
                         0.125)]


# suite name -> suite; ``all`` runs them in this order
SUITES = {
    "linear": linear_suite,
    "single-mode": single_mode_suite,
    "scaling": scaling_suite,
    "convolution": convolution_suite,
    "rk4-order": rk4_order_suite,
}


def run_oracle_suite(name: str) -> list[OracleReport]:
    if name == "all":
        return [report for suite in SUITES.values() for report in suite()]
    if name not in SUITES:
        raise ConfigError(
            f"unknown oracle suite {name!r}; choose all, {', '.join(SUITES)}")
    return SUITES[name]()
