"""Run orchestration: schedules, checkpointing, norm recording.

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

from .config import RunConfig
from .diagnostics import NormSeries, record_norms
from .dynamics import (SolverConfig, SolverState, _event_times, initial_state,
                       run_until)
from .errors import ConfigError, ConstructionError, ParameterError
from .initial import make_initial
from .modulus import BreachReport, build_knv_modulus, check_modulus, default_offsets
from .snapshot import read_snapshot, write_snapshot
from .spectral import Grid, forward_transform, inverse_transform


@dataclass
class RunResult:
    state: SolverState
    series: NormSeries
    breaches: list
    output_dir: Path
    norms_path: Path


def solver_config(config: RunConfig) -> SolverConfig:
    return SolverConfig(
        gamma=config.gamma,
        kappa=config.kappa,
        cfl=config.cfl,
        dt_max=config.dt_max,
        dt_min=config.dt_min,
        nonlinear_enabled=config.nonlinear,
    )


def _cadence_times(dt: float, t_end: float):
    if dt <= 0.0:
        return []
    count = int(math.floor(t_end / dt + 1e-9))
    return [i * dt for i in range(1, count + 1)]


def _log_times(config: RunConfig):
    if not config.log_sampling:
        return []
    per = config.log_per_decade
    decades = math.log10(config.t_end) - math.log10(config.log_min)
    count = int(math.ceil(decades * per)) + 1
    return [config.log_min * 10.0 ** (j / per) for j in range(count + 1)]


def _schedule(config: RunConfig) -> dict[float, set]:
    """Event times in increasing order, each mapped to its kinds: "sample"
    on the sample_dt grid, at the optional log-spaced times and at t_end,
    "snapshot" and "checkpoint" on their cadences.  Times are merged as
    ``run_until`` merges its callback times, so no two events fall on the
    same state and the run ends at t_end.
    """
    end = float(config.t_end)
    wanted = [(t, "sample") for t in
              _cadence_times(config.sample_dt, end) + _log_times(config) + [end]]
    wanted += [(t, "snapshot") for t in _cadence_times(config.snapshot_dt, end)]
    wanted += [(t, "checkpoint")
               for t in _cadence_times(config.checkpoint_dt, end)]
    at = _event_times([t for t, _ in wanted], end)
    events: dict[float, set] = {}
    for t, kind in sorted(wanted):
        events.setdefault(at[t], set()).add(kind)
    return events


def sample_times(config: RunConfig):
    """Diagnostic sample times, in increasing order; the last is t_end."""
    return [t for t, kinds in _schedule(config).items() if "sample" in kinds]


def run_simulation(config: RunConfig, restart=None, output_override=None) -> RunResult:
    """Execute a configured run, writing norms.csv, snapshots and checkpoints.

    When ``restart`` names a snapshot, the run resumes from its field and
    time; a snapshot whose grid, gamma or kappa differs from the config is
    rejected with ``ConfigError``.  The event schedule is regenerated from
    t = 0 and filtered, so a resumed run reproduces the uninterrupted
    trajectory exactly: snapshot writes round-trip the in-memory state
    through the serialized values, and both the resumed and the continuing
    run project them as ``initial_state`` does, so every state stays exactly
    zero outside ``dealias_mask``.  The output directory is created only
    after the set-up, the initial sample included, has succeeded.
    """
    out_dir = Path(config.directory if output_override is None else output_override)
    grid = Grid(config.n, config.length)
    sconfig = solver_config(config)
    if restart is not None:
        snap = read_snapshot(restart)
        if snap.field.grid.n != grid.n or not math.isclose(
                snap.field.grid.length, grid.length, rel_tol=1e-12):
            raise ConfigError(
                f"snapshot grid ({snap.field.grid.n}, {snap.field.grid.length}) "
                f"does not match config ({grid.n}, {grid.length})")
        if not (math.isclose(snap.gamma, config.gamma, rel_tol=1e-12)
                and math.isclose(snap.kappa, config.kappa, rel_tol=1e-12)):
            raise ConfigError(
                f"snapshot physics (gamma {snap.gamma}, kappa {snap.kappa}) "
                f"does not match config (gamma {config.gamma}, kappa {config.kappa})")
        state = replace(initial_state(forward_transform(snap.field), sconfig),
                        t=snap.t)
    else:
        state = initial_state(
            make_initial(config.preset, grid, seed=config.seed,
                         amplitude=config.amplitude, sigma=config.sigma),
            sconfig)

    events = _schedule(config)
    series = NormSeries(betas=config.betas)
    mod = offsets = None
    if config.modulus_enabled:
        try:
            mod = build_knv_modulus(config.delta3, config.r_max)
            offsets = default_offsets(grid, config.r_max)
        except (ParameterError, ConstructionError) as exc:
            raise ConfigError(f"modulus.delta3 = {config.delta3}, modulus.r_max = "
                              f"{config.r_max}: {exc}") from None
    breaches: list[BreachReport] = []

    def observe(st: SolverState):
        record_norms(st, series)
        if mod is not None:
            report = check_modulus(inverse_transform(st.theta), mod, offsets,
                                   t=st.t)
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
                           config.gamma, config.kappa)
        if "checkpoint" in kinds:
            write_snapshot(out_dir / "checkpoint.bin", phys, st.t,
                           config.gamma, config.kappa)
        # re-project through the stored values so a resumed run continues
        # from bit-identical state
        return replace(st, theta=initial_state(forward_transform(phys), sconfig).theta)

    # the initial sample is the last of the set-up: a run that fails before
    # its first step leaves no output directory.  The start falls on the
    # events that the schedule's rule merges with it; a start past t_end is
    # not moved onto t_end.
    start = state.t
    at = _event_times([start, *events], max(start, config.t_end))
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
                     output_dir=out_dir, norms_path=norms_path)
