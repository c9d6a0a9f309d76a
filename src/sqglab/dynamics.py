"""Time evolution of the dissipative quasi-geostrophic equation.

The state advances by classical RK4 applied to the integrating-factor
variable phi(t) = exp(kappa |k|^gamma t) theta(t), so the dissipation
semigroup is applied exactly and only the advection term is integrated
numerically.  Advection is assembled pseudo-spectrally with 2/3-rule
dealiasing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpError, BudgetError, ParameterError
from .spectral import SpectralField, _to_grid, dealias


@dataclass(frozen=True)
class SolverConfig:
    """Dynamics parameters.

    kappa = 1 is the dissipative equation; kappa = 0 the inviscid advection
    used by conservation oracles.  nonlinear_enabled = False drops the
    advection term (pure fractional heat flow).
    """

    gamma: float
    kappa: float = 1.0
    cfl: float = 0.5
    dt_max: float = 0.05
    dt_min: float = 1e-10
    dealias_enabled: bool = True
    nonlinear_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.gamma <= 2.0:
            raise ParameterError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.kappa < 0.0:
            raise ParameterError(f"kappa must be >= 0, got {self.kappa}")
        if not 0.0 < self.cfl <= 1.0:
            raise ParameterError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ParameterError(
                f"need 0 < dt_min <= dt_max, got ({self.dt_min}, {self.dt_max})")


@dataclass(frozen=True)
class SolverState:
    """One point on a trajectory: (t, theta, current dt, config, step count)."""

    t: float
    theta: SpectralField
    dt: float
    config: SolverConfig
    step_count: int = 0

    @cached_property
    def stage1(self) -> tuple[np.ndarray, float]:
        """The right-hand side -u . grad(theta) at this state and sup|u|.

        Both come from one batched transform; ``adapt_dt`` reads the speed
        and ``step`` uses the right-hand side as its first RK4 stage.  It is
        computed on first use and is not a field, so ``dataclasses.replace``
        never carries it over to a new state.
        """
        if not self.config.nonlinear_enabled:
            return np.zeros_like(self.theta.coeffs), 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            term, u1, u2 = _advection(self.theta, self.config.dealias_enabled)
            return -term, float(np.sqrt(np.max(u1 * u1 + u2 * u2)))


def initial_state(theta0: SpectralField, config: SolverConfig) -> SolverState:
    theta = dealias(theta0) if config.dealias_enabled else theta0
    return SolverState(t=0.0, theta=theta, dt=config.dt_max, config=config)


def _advection(theta: SpectralField, dealias_enabled: bool):
    """Coefficients of u . grad(theta) and the grid velocity (u1, u2).

    One batched inverse transform gives u1, u2 and both gradient components
    on the grid; the product is formed there, transformed back and truncated
    by the 2/3 rule when enabled.
    """
    grid = theta.grid
    u1, u2, t1, t2 = _to_grid(grid, grid.multipliers * theta.coeffs)
    out = np.fft.rfft2(u1 * t1 + u2 * t2, norm="forward")
    if dealias_enabled:
        out *= grid.dealias_mask
    return out, u1, u2


def nonlinear_term(theta: SpectralField, dealias_enabled: bool = True) -> SpectralField:
    """Spectral coefficients of u . grad(theta), assembled pseudo-spectrally.

    Velocity and gradient are evaluated by multipliers, the product is formed
    in physical space, transformed back, and truncated by the 2/3 rule when
    enabled.  For divergence-free u the mean of the product vanishes, so the
    zero mode of the output is zero up to roundoff.
    """
    return SpectralField(theta.grid, _advection(theta, dealias_enabled)[0])


def _rhs(theta: SpectralField, config: SolverConfig) -> np.ndarray:
    if not config.nonlinear_enabled:
        return np.zeros_like(theta.coeffs)
    return -nonlinear_term(theta, config.dealias_enabled).coeffs


def step(state: SolverState, dt: float) -> SolverState:
    """Advance one integrating-factor RK4 step of size dt."""
    config = state.config
    if not np.isfinite(dt) or dt <= 0.0:
        raise ParameterError(f"step size must be positive, got {dt}")
    if dt > config.dt_max * (1.0 + 1e-12):
        raise ParameterError(f"step size {dt} exceeds dt_max = {config.dt_max}")

    grid = state.theta.grid
    lam = config.kappa * grid.kmag_pow(config.gamma)
    e_full = np.exp(-lam * dt)
    e_half = np.exp(-lam * (0.5 * dt))

    th = state.theta.coeffs
    field = lambda c: SpectralField(grid, c)
    with np.errstate(over="ignore", invalid="ignore"):
        g1 = state.stage1[0]
        g2 = _rhs(field(e_half * (th + (0.5 * dt) * g1)), config)
        g3 = _rhs(field(e_half * th + (0.5 * dt) * g2), config)
        g4 = _rhs(field(e_full * th + dt * (e_half * g3)), config)
        new = e_full * th + (dt / 6.0) * (e_full * g1 + 2.0 * e_half * (g2 + g3) + g4)

    if not np.all(np.isfinite(new)):
        kmag_bad = np.where(np.isfinite(new), -1.0, grid.kmag)
        i, j = np.unravel_index(int(np.argmax(kmag_bad)), new.shape)
        raise BlowUpError(state.t + dt, state.step_count + 1,
                          (grid.m1[i, 0], grid.m2[0, j]))

    return SolverState(
        t=state.t + dt,
        theta=SpectralField(grid, new),
        dt=dt,
        config=config,
        step_count=state.step_count + 1,
    )


def adapt_dt(state: SolverState) -> float:
    """Advective CFL step: clamp(cfl * dx / ||u||_inf, dt_min, dt_max).

    The speed comes from the state's cached first RK4 stage, which the
    following ``step`` reuses.
    """
    config = state.config
    if not config.nonlinear_enabled:
        return config.dt_max
    umax = state.stage1[1]
    if umax == 0.0:
        return config.dt_max
    dt = config.cfl * state.theta.grid.dx / umax
    return float(min(config.dt_max, max(config.dt_min, dt)))


def run_until(
    state: SolverState,
    t_end: float,
    callbacks=(),
    callback_times=None,
    max_steps: int = 1_000_000,
) -> SolverState:
    """Advance to t_end, landing exactly on t_end and every callback time.

    callback_times is an increasing sequence of times in (state.t, t_end];
    every callback is invoked with the state at each of those times (and not
    otherwise).  Steps are chosen by adapt_dt, truncated to hit scheduled
    times exactly, so the trajectory is deterministic for a given schedule.
    """
    if t_end < state.t:
        raise ParameterError(f"t_end = {t_end} precedes current t = {state.t}")
    events = [] if callback_times is None else sorted(
        {float(tc) for tc in callback_times if state.t < tc <= t_end})
    schedule = list(events)
    if not schedule or schedule[-1] < t_end:
        schedule.append(float(t_end))
    event_set = set(events)
    steps_taken = 0
    for target in schedule:
        eps = 1e-14 * max(1.0, abs(target))
        while state.t < target - eps:
            if steps_taken >= max_steps:
                raise BudgetError(
                    f"exceeded {max_steps} steps before reaching t = {t_end}")
            dt = min(adapt_dt(state), target - state.t)
            state = step(state, dt)
            steps_taken += 1
        # snap to the scheduled time so diagnostic stamps are exact
        if state.t != target:
            state = replace(state, t=target)
        if target in event_set:
            for cb in callbacks:
                cb(state)
    return state
