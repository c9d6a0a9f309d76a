"""Run orchestration: schedules, checkpointing, norm recording.

After the initial sample, a run's sample diagnostics (``record_norms``, then
the modulus check and the gradient bound) run on one background thread, in
sample order with at most one sample waiting, while the stepper goes on; a
run uses up to two cores.  The outputs and the failure behaviour are those
of running them in line: the queue is drained before every snapshot or
checkpoint and before ``norms.csv`` is written, and the first diagnostics
error is raised in place of anything the stepper raises after it.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from .config import RunConfig
from .diagnostics import NormSeries, record_norms
from .dynamics import (SolverConfig, SolverState, _snap_tolerance, initial_state,
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
    gradient_ok: bool
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


def resolve_output_dir(config: RunConfig, override=None) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get("SQG_OUTPUT_DIR")
    return Path(env) if env else Path(config.directory)


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
    "snapshot" and "checkpoint" on their cadences.

    A time past t_end, or within ``run_until``'s snap tolerance below it, is
    t_end exactly, and a time within that tolerance of an earlier event joins
    it, so no two events fall on the same state and the run ends at t_end.
    """
    end = float(config.t_end)
    near_end = end - _snap_tolerance(end)
    wanted = [(t, "sample") for t in
              _cadence_times(config.sample_dt, end) + _log_times(config) + [end]]
    wanted += [(t, "snapshot") for t in _cadence_times(config.snapshot_dt, end)]
    wanted += [(t, "checkpoint")
               for t in _cadence_times(config.checkpoint_dt, end)]
    events: dict[float, set] = {}
    last = -math.inf
    for t, kind in sorted((t if t < near_end else end, kind) for t, kind in wanted):
        if t - last > _snap_tolerance(t):
            last = t
        events.setdefault(last, set()).add(kind)
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
    out_dir = resolve_output_dir(config, output_override)
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
                         amplitude=config.amplitude,
                         sigma=config.sigma if config.sigma > 0 else None),
            sconfig)

    events = _schedule(config)
    series = NormSeries(betas=config.betas)
    mod = offsets = None
    if config.modulus_enabled:
        offsets = default_offsets(grid, config.r_max)
        if not offsets:
            raise ConfigError(
                f"modulus.r_max = {config.r_max} is below one grid cell "
                f"(dx = {grid.dx}); the monitor would check no separation")
        try:
            mod = build_knv_modulus(config.delta3, config.r_max)
        except (ParameterError, ConstructionError) as exc:
            raise ConfigError(
                f"modulus.delta3 = {config.delta3}, modulus.r_max = "
                f"{config.r_max}: no certificate table: {exc}") from None
    breaches: list[BreachReport] = []
    gradient_ok = True

    def observe(st: SolverState):
        # one inverse transform per sample: the gradient bound reuses the
        # sup|grad theta| that record_norms has just appended
        nonlocal gradient_ok
        record_norms(st, series)
        if mod is not None:
            report = check_modulus(inverse_transform(st.theta), mod, offsets,
                                   t=st.t)
            if report.breached:
                breaches.append(report)
            if not series.last("grad_sup") < mod.omega_prime_at_zero:
                gradient_ok = False

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
    # its first step leaves no output directory
    start = state.t
    if start == 0.0 or any(abs(start - t) <= 1e-12 * max(1.0, start)
                           for t, kinds in events.items() if "sample" in kinds):
        observe(state)

    out_dir.mkdir(parents=True, exist_ok=True)
    norms_path = out_dir / "norms.csv"
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        for t_ev, kinds in events.items():
            if t_ev <= start:
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
                     gradient_ok=gradient_ok, output_dir=out_dir,
                     norms_path=norms_path)
