"""Run one trajectory of one benchmark workload in this (fresh) process.

    python3 perfbench/workload.py WORKLOAD SEED INDEX OUT_DIR T_SPAWN TRACE

``T_SPAWN`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so set-up time counts interpreter start and
``import sqglab``.  With ``TRACE`` = 1 every layer call is recorded as a span
(see ``spans.py``) and the spans are written to ``OUT_DIR/spans.json`` after
the workload ends.  ``INDEX`` numbers the trajectories of one run; the
``cmt128_decay`` trajectory with index 0 runs the untranslated field, which
the translated ones are checked against.

The workload writes its outputs under ``OUT_DIR`` and its timings to
``OUT_DIR/result.json``; the parent, ``run.py``, checks the outputs.
"""

import json
import math
import resource
import sys
import time
from pathlib import Path

TWO_PI = 2.0 * math.pi
CMT_T_END = 25.0
ROUGH_T_END = 3.0
CLI_T_END = 8.0


def sampled_run(sq, theta0, config, t_end, sample_dt, betas=(), extra_times=()):
    """The acceptance fixtures' trajectory: norms at t = 0, on the sample_dt
    grid, at extra_times and at t_end."""
    series = sq.NormSeries(betas=betas)
    state = sq.initial_state(theta0, config)
    sq.record_norms(state, series)
    times = sorted({round(i * sample_dt, 12)
                    for i in range(1, int(t_end / sample_dt + 1e-9) + 1)}
                   | set(extra_times) | {t_end})
    state = sq.run_until(state, t_end,
                         callbacks=[lambda st: sq.record_norms(st, series)],
                         callback_times=times)
    return state, series


def cmt128_decay(sq, seed, index, out):
    import numpy as np

    grid = sq.Grid(128, TWO_PI)
    theta = sq.make_initial("cmt", grid)
    shift = (0, 0) if index == 0 else tuple(
        int(s) for s in np.random.default_rng([seed, index]).integers(0, grid.n, size=2))
    values = np.roll(sq.inverse_transform(theta).values, shift, axis=(0, 1))
    theta0 = sq.forward_transform(sq.RealField(grid, values))
    config = sq.SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    state, series = sampled_run(sq, theta0, config, CMT_T_END, 0.25)
    series.write_csv(out / "norms.csv")
    return {"sim_time": CMT_T_END, "shift": list(shift), "final": state}


def rough256_smoothing(sq, seed, index, out):
    grid = sq.Grid(256, TWO_PI)
    # criterion 7's schedule: 12 log-spaced samples per decade from 1e-4
    log_times = {1e-4 * 10 ** (j / 12) for j in range(12 * 6 + 1)}
    log_times = {t for t in log_times if t <= ROUGH_T_END}
    config = sq.SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
    _, series = sampled_run(sq, sq.make_initial("random_h1", grid, seed=seed),
                            config, ROUGH_T_END, 1.0, betas=(0.5, 1.0),
                            extra_times=log_times)
    series.write_csv(out / "norms.csv")
    return {"sim_time": ROUGH_T_END}


def cli_config(seed):
    """The monitored run's config: every key the run needs except the output
    directory, which is given on the command line."""
    return "\n".join([
        "grid.n = 128",
        f"grid.length = {TWO_PI!r}",
        "dynamics.gamma = 1.0",
        "dynamics.kappa = 1.0",
        "dynamics.cfl = 0.5",
        "dynamics.dt_max = 0.05",
        f"time.t_end = {CLI_T_END!r}",
        "time.sample_dt = 0.05",
        "time.checkpoint_dt = 1.0",
        "initial.preset = random_h1",
        f"initial.seed = {int(seed)}",
        "modulus.enabled = true",
        "modulus.delta3 = 0.05",
        "output.snapshot_dt = 1.0",
        "",
    ])


def monitored128_cli(sq, seed, index, out):
    from sqglab import cli

    config = out / "run.cfg"
    config.write_text(cli_config(seed), encoding="utf-8")
    full = cli.main(["run", "--config", str(config),
                     "--output", str(out / "full")])
    # the restart leg resumes from the snapshot written at mid-run, which
    # holds the same values as the checkpoint written at that time
    snap = out / "full" / f"snap_{CLI_T_END / 2:.6f}.bin"
    resumed = cli.main(["run", "--config", str(config), "--restart", str(snap),
                        "--output", str(out / "restart")])
    return {"sim_time": 1.5 * CLI_T_END, "exit_codes": [full, resumed]}


WORKLOADS = {
    "cmt128_decay": cmt128_decay,
    "rough256_smoothing": rough256_smoothing,
    "monitored128_cli": monitored128_cli,
}


def main(argv):
    name, seed, index, out, t_spawn, trace = argv
    seed, index, out, t_spawn = int(seed), int(index), Path(out), float(t_spawn)

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.patch_fft()
    import sqglab
    from sqglab import dynamics

    if tracer is not None:
        tracer.patch_sqglab()

    # set-up ends at the first dynamics.step call; the hook then removes itself
    marks = {}
    first = dynamics.step

    def first_step(*args, **kwargs):
        marks["first_step"] = time.monotonic()
        dynamics.step = first
        return first(*args, **kwargs)

    dynamics.step = first_step
    info = WORKLOADS[name](sqglab, seed, index, out)
    done = time.monotonic()

    info["setup_s"] = marks["first_step"] - t_spawn
    info["wall_s"] = done - t_spawn
    info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # untimed: the tracing cost within wall_s, as spans x cost per span
        info["trace_cost_s"] = len(tracer.spans) * spans.span_cost()
        tracer.dump(out / "spans.json")

    final = info.pop("final", None)
    if final is not None:
        # untimed, and after the spans are written: the mean is conserved and
        # undamped, so the shift-dependent roundoff in the initial mean
        # (~3e-17) is carried to the end, where it is ~2e-6 of sup|theta|;
        # the translation check compares the sup of the mean-free field
        values = sqglab.inverse_transform(final.theta).values
        info["linf_mean_free"] = float(abs(values - values.mean()).max())
    (out / "result.json").write_text(json.dumps(info), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
