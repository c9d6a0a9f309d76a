"""Run orchestration: schedules, checkpointing, norm recording."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .config import RunConfig
from .diagnostics import NormSeries, record_norms
from .dynamics import SolverConfig, SolverState, initial_state, run_until
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
        dealias_enabled=config.dealias,
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


def sample_times(config: RunConfig):
    """Diagnostic sample times: the uniform sample_dt grid, optional
    log-spaced times, and t_end itself."""
    times = set(_cadence_times(config.sample_dt, config.t_end))
    times.add(float(config.t_end))
    if config.log_sampling:
        per = max(1, int(config.log_per_decade))
        decades = math.log10(config.t_end) - math.log10(config.log_min)
        count = int(math.ceil(decades * per)) + 1
        for j in range(count + 1):
            tj = config.log_min * 10.0 ** (j / per)
            if tj <= config.t_end:
                times.add(float(tj))
    return sorted(times)


def run_simulation(config: RunConfig, restart=None, output_override=None) -> RunResult:
    """Execute a configured run, writing norms.csv, snapshots and checkpoints.

    When ``restart`` names a snapshot, the run resumes from its field and
    time; a snapshot whose grid, gamma or kappa differs from the config is
    rejected with ``ConfigError``.  The event schedule is regenerated from
    t = 0 and filtered, so a resumed run reproduces the uninterrupted
    trajectory exactly: snapshot writes round-trip the in-memory state
    through the serialized values, and both the resumed and the continuing
    run project them as ``initial_state`` does, so with dealiasing on every
    state stays exactly zero outside ``dealias_mask``.
    """
    out_dir = resolve_output_dir(config, output_override)
    out_dir.mkdir(parents=True, exist_ok=True)

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

    samples = sample_times(config)
    snapshots = set(_cadence_times(config.snapshot_dt, config.t_end))
    checkpoints = set(_cadence_times(config.checkpoint_dt, config.t_end))

    events: dict[float, set] = {}
    for t in samples:
        events.setdefault(t, set()).add("sample")
    for t in snapshots:
        events.setdefault(t, set()).add("snapshot")
    for t in checkpoints:
        events.setdefault(t, set()).add("checkpoint")

    series = NormSeries(betas=config.betas)
    mod = offsets = None
    if config.modulus_enabled:
        offsets = default_offsets(grid, config.r_max)
        if not offsets:
            raise ConfigError(
                f"modulus.r_max = {config.r_max} is below one grid cell "
                f"(dx = {grid.dx}); the monitor would check no separation")
        try:
            mod = build_knv_modulus(config.delta3, config.r_max,
                                    table_size=config.table_size)
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

    def persist(st: SolverState, kinds) -> SolverState:
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

    start = state.t
    if start == 0.0 or any(abs(start - t) <= 1e-12 * max(1.0, start) for t in samples):
        observe(state)

    norms_path = out_dir / "norms.csv"
    try:
        for t_ev in sorted(events):
            if t_ev <= start:
                continue
            state = run_until(state, t_ev)
            kinds = events[t_ev]
            if "snapshot" in kinds or "checkpoint" in kinds:
                state = persist(state, kinds)
            if "sample" in kinds:
                observe(state)
        if state.t < config.t_end:
            state = run_until(state, config.t_end)
    finally:
        series.write_csv(norms_path)

    return RunResult(state=state, series=series, breaches=breaches,
                     gradient_ok=gradient_ok, output_dir=out_dir,
                     norms_path=norms_path)
