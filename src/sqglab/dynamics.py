"""Time evolution of the dissipative quasi-geostrophic equation.

The state advances by classical RK4 applied to the integrating-factor
variable phi(t) = exp(kappa |k|^gamma t) theta(t), so the dissipation
semigroup is applied exactly and only the advection term
(``sqglab.spectral._advection``) is integrated numerically.  ``step``'s
real scalar factors carry the minus sign of the right-hand side.

A state holds theta's packed 2/3-rule block (``sqglab.spectral._pack``),
4/9 of the half spectrum, and ``step`` takes and gives that block without
unpacking it; ``SolverState.theta`` unpacks it anew for a caller that asks.
The advection term of any theta is that of ``dealias(theta)``.  ``step``'s
in-place operations repeat the operands and the order of the plain
expressions, so trajectories are unchanged bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpError, BudgetError, ParameterError, _check
from .spectral import Grid, SpectralField, _advection, _pack, _sup_norm, _unpack

_MAX_STEPS = 1_000_000  # run_until's step budget
# adapt_dt's floor on the 2 pi box, scaled with the box length L as the CFL
# step is: a speed that overflows to inf or nan still gets a finite step, so
# the run ends in BlowUpError and not in a step-size error, while on a tiny
# box the floor stays far below the CFL step
_DT_MIN = 1e-10
# SolverConfig's rules, field -> (test, what it must do); config reuses them
_RULES = {
    "gamma": (lambda v: 0.0 < v <= 2.0, "lie in (0, 2]"),
    "kappa": (lambda v: v >= 0.0, "be >= 0"),
    "cfl": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "dt_max": (lambda v: v > 0.0, "be > 0"),
}


def _snap_tolerance(t: float) -> float:
    """How close ``run_until`` comes to a scheduled time t before it snaps
    the state's time to t instead of stepping: relative, so times below 1
    stay apart as far as times above it."""
    return 1e-14 * abs(t)


def _event_times(times, t_end: float) -> dict[float, float]:
    """Each of ``times`` mapped to the time of the event it falls on, in
    increasing order.  A time past t_end, or within the snap tolerance below
    it, is t_end exactly, and a time within the snap tolerance of an earlier
    event joins it, so no two events fall on the same state."""
    end = float(t_end)
    near_end = end - _snap_tolerance(end)
    events: dict[float, float] = {}
    last = -math.inf
    for t in sorted({float(t) for t in times}):
        at = t if t < near_end else end
        if at - last > _snap_tolerance(at):
            last = at
        events[t] = last
    return events


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
    nonlinear_enabled: bool = True

    def __post_init__(self):
        for name, rule in _RULES.items():
            _check(rule, name, getattr(self, name))


@dataclass(frozen=True)
class SolverState:
    """One point on a trajectory: (t, grid, packed block, config, step count).

    ``packed`` holds theta's modes that the 2/3 rule keeps, in
    ``grid.packed_shape``; theta is +0.0 past them.  Build a state with
    ``initial_state``, and give it another time with ``dataclasses.replace``.
    """

    t: float
    grid: Grid
    packed: np.ndarray
    config: SolverConfig
    step_count: int = 0

    def __post_init__(self):
        if np.shape(self.packed) != getattr(self.grid, "packed_shape", None):
            raise ParameterError(f"packed must have grid.packed_shape, not {np.shape(self.packed)}")

    @property
    def theta(self) -> SpectralField:
        """theta's half spectrum, unpacked anew on each access and never
        cached, so a kept state holds its block only."""
        return SpectralField(self.grid, _unpack(self.grid, self.packed))

    @cached_property
    def stage1(self) -> tuple[np.ndarray, float]:
        """The packed advection term u . grad(theta) at this state and sup|u|.

        Both come from one batched transform; ``adapt_dt`` reads the speed
        and ``step`` uses the term, negated, as its first RK4 stage.  It is
        computed on first use and is not a field, so ``dataclasses.replace``
        never carries it over to a new state.
        """
        term = np.empty(self.grid.packed_shape, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            velocity = _advection(self.grid, self.packed, term,
                                  self.config.nonlinear_enabled)
            return term, 0.0 if velocity is None else _sup_norm(*velocity)


def initial_state(theta0: SpectralField, config: SolverConfig) -> SolverState:
    """The state at t = 0 of ``dealias(theta0)``: theta0's packed 2/3-rule block."""
    return SolverState(0.0, theta0.grid, _pack(theta0.grid, theta0.coeffs), config)


def nonlinear_term(theta: SpectralField) -> SpectralField:
    """Spectral coefficients of u . grad(theta) for ``dealias(theta)``: the
    packed array the stepper integrates, unpacked, pseudo-spectral and
    truncated by the 2/3 rule.  For divergence-free u the mean of the
    product vanishes, so the zero mode of the output is zero up to roundoff.
    """
    grid = theta.grid
    out = np.empty(grid.packed_shape, dtype=complex)
    _advection(grid, _pack(grid, theta.coeffs), out)
    return SpectralField(grid, _unpack(grid, out))


def step(state: SolverState, dt: float) -> SolverState:
    """Advance one integrating-factor RK4 step of size dt.

    The right-hand side is -a, a = u . grad, and its minus sign rides on the
    real factors, which is exact.  With a1 = ``state.stage1`` (never written
    to) and the stage inputs built in place in x, it computes, in this order
    of operations,

        a2 = a(e_half * (th + (-dt/2) a1))
        a3 = a(e_half * th + (-dt/2) a2)
        a4 = a(e_full * th + (-dt) (e_half a3))
        new = e_full * th + (-dt/6) ((e_full a1 + (2 e_half) (a2 + a3)) + a4)

    on the packed block, with kappa |k|^gamma from the grid's packed cache;
    ``new``, the new state's block, is an array of its own.
    """
    config = state.config
    if not np.isfinite(dt) or dt <= 0.0:
        raise ParameterError(f"step size must be positive, got {dt}")
    if dt > config.dt_max * (1.0 + 1e-12):
        raise ParameterError(f"step size {dt} exceeds dt_max = {config.dt_max}")

    grid = state.grid
    lam = config.kappa * grid._kmag_pow(config.gamma)
    e_full = np.exp(-lam * dt)
    e_half = np.exp(-lam * (0.5 * dt))

    th = state.packed
    x, a2, a3, a4 = np.empty((4,) + th.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = state.stage1[0]
        np.multiply(-0.5 * dt, a1, out=x)
        x += th
        x *= e_half
        _advection(grid, x, a2, config.nonlinear_enabled)
        np.multiply(-0.5 * dt, a2, out=a3)
        np.multiply(e_half, th, out=x)
        x += a3
        _advection(grid, x, a3, config.nonlinear_enabled)
        np.multiply(e_half, a3, out=a4)
        a4 *= -dt
        np.multiply(e_full, th, out=x)
        x += a4
        _advection(grid, x, a4, config.nonlinear_enabled)
        a2 += a3
        e_half *= 2.0
        a2 *= e_half
        np.multiply(e_full, a1, out=x)
        x += a2
        x += a4
        x *= -dt / 6.0
        new = np.multiply(e_full, th)
        new += x

    if not np.all(np.isfinite(new)):
        # the first non-finite mode of largest |k| in row-major order, where
        # the packed rows m1 = 0 .. cutoff, -cutoff .. -1 keep the half
        # spectrum's order
        kmag_bad = np.where(np.isfinite(new), -1.0, grid._kmag_pow(1.0))
        i, j = np.unravel_index(int(np.argmax(kmag_bad)), new.shape)
        raise BlowUpError(state.t + dt, state.step_count + 1,
                          (i if i <= grid.cutoff else i - new.shape[0], j))

    return SolverState(state.t + dt, grid, new, config, state.step_count + 1)


def adapt_dt(state: SolverState) -> float:
    """Advective CFL step: clamp(cfl * dx / ||u||_inf, ``_DT_MIN`` * L / (2 pi),
    dt_max) on a box L long.

    The speed comes from the state's cached first RK4 stage, which the
    following ``step`` reuses.
    """
    config, grid = state.config, state.grid
    umax = state.stage1[1]
    if umax == 0.0:
        return config.dt_max
    dt = config.cfl * grid.dx / umax
    floor = _DT_MIN * (grid.length / (2.0 * math.pi))
    return float(min(config.dt_max, max(floor, dt)))


def run_until(
    state: SolverState,
    t_end: float,
    callbacks=(),
    callback_times=None,
) -> SolverState:
    """Advance to t_end, landing exactly on t_end and every callback time.

    callback_times holds the times in (state.t, t_end] at which every
    callback is invoked with the state (and not otherwise); times that fall
    on one event by ``_event_times`` fire once.  Steps are chosen by
    adapt_dt, truncated to hit scheduled times exactly, so the trajectory is
    deterministic for a given schedule.  It takes at most ``_MAX_STEPS`` steps.
    """
    if not state.t <= t_end < math.inf:
        raise ParameterError(f"t_end = {t_end} must be finite and >= t = {state.t}")
    wanted = () if callback_times is None else [
        tc for tc in callback_times if state.t < tc <= t_end]
    events = set(_event_times(wanted, t_end).values())
    steps_taken = 0
    for target in sorted(events | {float(t_end)}):
        eps = _snap_tolerance(target)
        while state.t < target - eps:
            if steps_taken >= _MAX_STEPS:
                raise BudgetError(
                    f"exceeded {_MAX_STEPS} steps before reaching t = {t_end}")
            dt = min(adapt_dt(state), target - state.t)
            state = step(state, dt)
            steps_taken += 1
        # snap to the scheduled time so diagnostic stamps are exact
        if state.t != target:
            state = replace(state, t=target)
        if target in events:
            for cb in callbacks:
                cb(state)
    return state
