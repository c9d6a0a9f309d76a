"""Run orchestration: set-up, restart, checkpointing, norm recording.

A run is one thread.  At each event the stepper lands on its time, writes
any snapshot or checkpoint, and then takes the sample (``record_norms``,
then the check ``modulus._monitor`` returns) in line, so a failed sample
raises at its own event and no step runs after it; ``norms.csv`` holds
every sample taken before the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, _schedule
from .diagnostics import NormSeries, record_norms
from .dynamics import SolverState, initial_state, run_until
from .errors import ConfigError, ParameterError
from .initial import make_initial
from .modulus import _monitor
from .snapshot import read_snapshot, write_snapshot
from .spectral import Grid, forward_transform, inverse_transform


@dataclass
class RunResult:
    state: SolverState
    series: NormSeries
    breaches: list
    norms_path: Path


def run_simulation(config: RunConfig, restart=None) -> RunResult:
    """Execute a configured run, writing norms.csv, snapshots and checkpoints
    into ``config.directory``.

    When ``restart`` names a snapshot, the run resumes from its field and
    time; a snapshot whose grid, gamma or kappa differs from the config, or
    whose time is past t_end, is rejected with ``ConfigError``.  The
    state starts on the schedule's first event, as ``run_until`` lands on
    its targets (t_end, for a start within the snap tolerance of it), so a
    resumed run samples there only when a sample event merges there, and
    reproduces the uninterrupted trajectory exactly: snapshot writes
    round-trip the in-memory state through the serialized values, and both
    runs pack the 2/3-rule block of their transform, as ``initial_state``
    does.  A sample's monitor check is ``_monitor``'s.  The output directory
    is created only after the set-up, the initial sample included, has
    succeeded.
    """
    out_dir = Path(config.directory)
    grid = Grid(config.n, config.length)
    solver = config.solver
    start = 0.0
    if restart is not None:
        snap = read_snapshot(restart)
        if snap.field.grid.n != grid.n or not math.isclose(
                snap.field.grid.length, grid.length, rel_tol=1e-12):
            raise ConfigError(
                f"snapshot grid ({snap.field.grid.n}, {snap.field.grid.length}) "
                f"does not match config ({grid.n}, {grid.length})")
        if not (math.isclose(snap.gamma, solver.gamma, rel_tol=1e-12)
                and math.isclose(snap.kappa, solver.kappa, rel_tol=1e-12)):
            raise ConfigError(
                f"snapshot physics (gamma {snap.gamma}, kappa {snap.kappa}) "
                f"does not match config (gamma {solver.gamma}, kappa {solver.kappa})")
        if snap.t > config.t_end:
            raise ConfigError(
                f"snapshot t = {snap.t} is past time.t_end = {config.t_end}")
        start, theta0 = snap.t, forward_transform(snap.field)
    else:
        # an amplitude near the float range overflows the preset's grid values
        # (ParameterError) or their transform: a config error, not a blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                theta0 = make_initial(config.preset, grid, seed=config.seed,
                                      amplitude=config.amplitude, sigma=config.sigma)
            except ParameterError:
                theta0 = None
        if theta0 is None or not np.isfinite(theta0.coeffs).all():
            raise ConfigError(f"initial.amplitude = {config.amplitude} makes the "
                              f"initial coefficients non-finite")
    (start, start_kinds), *events = _schedule(config, start).items()
    state = replace(initial_state(theta0, solver), t=start)
    series = NormSeries()
    breach = None
    if config.modulus_enabled:
        try:
            _, _, breach = _monitor(grid, config.delta3, solver.kappa)
        except ParameterError as exc:
            raise ConfigError(
                f"modulus.delta3 = {config.delta3}, dynamics.kappa = {solver.kappa}, "
                f"grid.length = {config.length}: {exc}") from None
    breaches = []

    def observe(st: SolverState):
        values, hi, lo = record_norms(st, series)
        if breach is not None and (report := breach(values, hi, lo)) is not None:
            breaches.append(report)

    def persist(st: SolverState, kinds) -> SolverState:
        phys = inverse_transform(st.theta)
        if "snapshot" in kinds:
            write_snapshot(out_dir / f"snap_{st.t:.6f}.bin", phys, st.t,
                           solver.gamma, solver.kappa)
        if "checkpoint" in kinds:
            write_snapshot(out_dir / "checkpoint.bin", phys, st.t,
                           solver.gamma, solver.kappa)
        # re-project through the stored values so a resumed run continues
        # from bit-identical state
        return replace(st, packed=initial_state(forward_transform(phys), solver).packed)

    # the initial sample is the last of the set-up: a run that fails before
    # its first step leaves no output directory
    if "sample" in start_kinds:
        observe(state)

    out_dir.mkdir(parents=True, exist_ok=True)
    norms_path = out_dir / "norms.csv"
    try:
        for t_ev, kinds in events:
            state = run_until(state, t_ev)
            if "snapshot" in kinds or "checkpoint" in kinds:
                state = persist(state, kinds)
            if "sample" in kinds:
                observe(state)
    finally:
        series.write_csv(norms_path)

    return RunResult(state=state, series=series, breaches=breaches,
                     norms_path=norms_path)
