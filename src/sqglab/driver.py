"""Run orchestration: set-up, restart, checkpointing, norm recording.

After the initial sample, a run's sample diagnostics (``record_norms``, then
the modulus check) run on one background thread, in sample order with at
most one sample waiting, while the stepper goes on; a run uses up to two
cores.  The outputs and the failure behaviour are those of running them in
line: the queue is drained before every snapshot or checkpoint and before
``norms.csv`` is written, and the first diagnostics error is raised in place
of anything the stepper raises after it.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, _schedule
from .diagnostics import NormSeries, record_norms
from .dynamics import SolverState, _event_times, initial_state, run_until
from .errors import ConfigError, ParameterError
from .initial import make_initial
from .modulus import (BreachReport, _lattice_bound, build_knv_modulus,
                      check_modulus, default_offsets)
from .snapshot import read_snapshot, write_snapshot
from .spectral import (Grid, RealField, _workspace, forward_transform,
                       inverse_transform)


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
    whose time is past t_end, is rejected with ``ConfigError``.  The event
    schedule is regenerated from t = 0 and filtered, so a resumed run
    reproduces the uninterrupted trajectory exactly: snapshot writes
    round-trip the in-memory state through the serialized values, and both
    the resumed and the continuing run project them as ``initial_state``
    does, so every state stays exactly zero outside ``dealias_mask``.  The
    output directory is created only after the set-up, the initial sample
    included, has succeeded.
    """
    out_dir = Path(config.directory)
    grid = Grid(config.n, config.length)
    solver = config.solver
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
        state = replace(initial_state(forward_transform(snap.field), solver),
                        t=snap.t)
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
        state = initial_state(theta0, solver)

    events = _schedule(config)
    series = NormSeries(betas=config.betas)
    mod = offsets = safe = None
    if config.modulus_enabled:
        try:
            mod = build_knv_modulus(config.delta3, config.r_max)
            offsets = default_offsets(grid, config.r_max)
        except ParameterError as exc:
            raise ConfigError(f"modulus.delta3 = {config.delta3}, modulus.r_max = "
                              f"{config.r_max}: {exc}") from None
        safe = _lattice_bound(grid, mod, offsets)
    breaches: list[BreachReport] = []

    def observe(st: SolverState):
        record_norms(st, series)
        if mod is not None:
            # theta's grid values, left by record_norms' batched inverse; the
            # exhaustive check runs only where the lattice bound cannot rule
            # a breach out
            values, hi, lo = _workspace.sample
            if not safe(values, hi, lo):
                report = check_modulus(RealField(st.theta.grid, values), mod, offsets)
                if report.breached:
                    breaches.append(report)

    # states are frozen and a step never writes an array it has returned, so
    # the worker reads them without a lock.  Its first error is raised on the
    # run's thread by drain; it skips the samples after it, which the serial
    # order would never have reached.
    pending = queue.Queue(maxsize=1)
    failure: list[BaseException] = []

    def work():
        while (st := pending.get()) is not None:
            if not failure:
                try:
                    observe(st)
                except BaseException as exc:
                    failure.append(exc)
            pending.task_done()

    def drain():
        pending.join()
        if failure:
            raise failure[0]

    def persist(st: SolverState, kinds) -> SolverState:
        drain()
        phys = inverse_transform(st.theta)
        if "snapshot" in kinds:
            write_snapshot(out_dir / f"snap_{st.t:.6f}.bin", phys, st.t,
                           solver.gamma, solver.kappa)
        if "checkpoint" in kinds:
            write_snapshot(out_dir / "checkpoint.bin", phys, st.t,
                           solver.gamma, solver.kappa)
        # re-project through the stored values so a resumed run continues
        # from bit-identical state
        return replace(st, theta=initial_state(forward_transform(phys), solver).theta)

    # the initial sample is the last of the set-up: a run that fails before
    # its first step leaves no output directory.  The start falls on the
    # events that the schedule's rule merges with it.
    start = state.t
    at = _event_times([start, *events], config.t_end)
    if start == 0.0 or any("sample" in kinds for t, kinds in events.items()
                           if at[t] == at[start]):
        observe(state)

    out_dir.mkdir(parents=True, exist_ok=True)
    norms_path = out_dir / "norms.csv"
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        for t_ev, kinds in events.items():
            if at[t_ev] <= at[start]:
                continue
            state = run_until(state, t_ev)
            if "snapshot" in kinds or "checkpoint" in kinds:
                state = persist(state, kinds)
            if "sample" in kinds:
                pending.put(state)
    finally:
        try:
            drain()
        finally:
            pending.put(None)
            worker.join()
            series.write_csv(norms_path)

    return RunResult(state=state, series=series, breaches=breaches,
                     norms_path=norms_path)
