"""End-to-end tests for the run driver and the command-line interface."""

import contextlib
import io
import math
import os
import subprocess
import sys
import textwrap
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqglab import (
    BlowUpError,
    Grid,
    NormSeries,
    RealField,
    SnapshotFormatError,
    build_knv_modulus,
    check_modulus,
    default_offsets,
    inverse_transform,
    parse_config,
    read_snapshot,
    write_snapshot,
)
from sqglab import driver, dynamics, modulus
from sqglab.cli import main
from sqglab.config import _schedule
from sqglab.driver import run_simulation

from full_width import dealias_mask

BASE_CONFIG = """
grid.n = 32
grid.length = 6.283185307179586
dynamics.gamma = 1.0
dynamics.kappa = 1.0
time.t_end = 1.0
time.sample_dt = 0.25
initial.preset = cmt
"""


def write_config(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG + extra)
    return path


class TestDriver:
    def test_run_writes_norm_series(self, tmp_path):
        config = parse_config(BASE_CONFIG + f"output.directory = {tmp_path}/out\n")
        result = run_simulation(config)
        assert result.norms_path.exists()
        series = NormSeries.read_csv(result.norms_path)
        assert list(series.t) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert result.state.t == 1.0

    def test_identical_runs_are_byte_identical(self, tmp_path):
        text = BASE_CONFIG.replace("initial.preset = cmt",
                                   "initial.preset = random_h1\ninitial.seed = 9")
        a = parse_config(text + f"output.directory = {tmp_path}/a\n")
        b = parse_config(text + f"output.directory = {tmp_path}/b\n")
        ra, rb = run_simulation(a), run_simulation(b)
        assert ra.norms_path.read_bytes() == rb.norms_path.read_bytes()

    def test_restart_reproduces_uninterrupted_rows(self, tmp_path):
        text = BASE_CONFIG + "time.checkpoint_dt = 0.5\noutput.snapshot_dt = 0.5\n"
        config = parse_config(text + f"output.directory = {tmp_path}/full\n")
        full = run_simulation(config)
        config_b = parse_config(text + f"output.directory = {tmp_path}/resumed\n")
        resumed = run_simulation(config_b,
                                 restart=tmp_path / "full" / "snap_0.500000.bin")
        full_rows = {t: i for i, t in enumerate(full.series.t)}
        for i, t in enumerate(resumed.series.t):
            j = full_rows[t]
            for col in full.series.columns[1:]:
                assert full.series.column(col)[j] == resumed.series.column(col)[i]

    def test_states_stay_dealiased_across_checkpoint_and_restart(self, tmp_path):
        outside = ~dealias_mask(Grid(32, 2.0 * math.pi))

        def positive_zeros(state):
            # +0.0, as a step writes: masking the transform of the stored
            # values left -0.0 under each negative part
            coeffs = state.theta.coeffs[outside]
            return np.all(coeffs == 0) and not np.any(
                np.signbit(coeffs.real) | np.signbit(coeffs.imag))

        text = BASE_CONFIG + "time.checkpoint_dt = 0.5\noutput.snapshot_dt = 0.5\n"
        full = run_simulation(
            parse_config(text + f"output.directory = {tmp_path}/full\n"))
        # the final state is the one re-projected by the t = 1 checkpoint
        assert positive_zeros(full.state)
        plain = parse_config(BASE_CONFIG + f"output.directory = {tmp_path}/resumed\n")
        # from t = 1 the resumed run takes no step; from t = 0.5 it steps
        for snap, stepped in (("checkpoint.bin", False), ("snap_0.500000.bin", True)):
            resumed = run_simulation(plain, restart=tmp_path / "full" / snap)
            assert (resumed.state.step_count > 0) is stepped
            assert positive_zeros(resumed.state)

    @pytest.mark.parametrize("t_end, sample_dt, rows", [
        ("0.3", "0.1", [0.0, 0.1, 0.2, 0.3]),
        ("2.1", "0.7", [0.0, 0.7, 1.4, 2.1]),
    ])
    def test_one_row_per_sample_time_and_the_run_ends_at_t_end(
            self, tmp_path, t_end, sample_dt, rows):
        # i * sample_dt misses t_end by one ulp here (0.30000000000000004,
        # 2.0999999999999996): the last sample is t_end itself
        text = (BASE_CONFIG.replace("time.t_end = 1.0", f"time.t_end = {t_end}")
                .replace("time.sample_dt = 0.25", f"time.sample_dt = {sample_dt}"))
        config = parse_config(text + f"output.directory = {tmp_path}/out\n")
        result = run_simulation(config)
        assert result.state.t == float(t_end)
        assert list(NormSeries.read_csv(result.norms_path).t) == rows

    def test_coinciding_event_times_are_one_event(self):
        # 3 * 0.1 = 0.30000000000000004 is within run_until's snap tolerance
        # of the snapshot time 0.3
        config = parse_config(BASE_CONFIG.replace("time.sample_dt = 0.25",
                                                  "time.sample_dt = 0.1")
                              + "output.snapshot_dt = 0.3\n")
        events = _schedule(config)
        times = list(events)
        assert times == sorted(times) and times[-1] == 1.0
        assert all(b - a > 1e-14 for a, b in zip(times, times[1:]))
        assert events[0.3] == {"sample", "snapshot"}

    def test_a_fresh_run_samples_at_the_scheduled_sample_times(self, tmp_path):
        # t = 0 is a scheduled sample, merged by the same rule as the others
        config = parse_config(BASE_CONFIG.replace("time.sample_dt = 0.25",
                                                  "time.sample_dt = 0.1")
                              + "output.snapshot_dt = 0.3\n"
                              + f"output.directory = {tmp_path}/out\n")
        events = _schedule(config)
        assert list(events)[0] == 0.0 and "sample" in events[0.0]
        times = [t for t, kinds in events.items() if "sample" in kinds]
        result = run_simulation(config)
        assert list(NormSeries.read_csv(result.norms_path).t) == times

    @pytest.mark.parametrize("start, sampled", [
        (0.5, True),  # a sample time
        (math.nextafter(0.5, 1.0), True),  # within the snap tolerance of one
        (0.3, False),  # a snapshot time, and no sample's
    ])
    def test_a_restart_samples_at_its_start_only_on_a_sample_event(
            self, tmp_path, start, sampled):
        config = parse_config(BASE_CONFIG + "output.snapshot_dt = 0.3\n"
                              + f"output.directory = {tmp_path}/out\n")
        (at, kinds), *_ = _schedule(config, start).items()
        assert at == (0.5 if sampled else start)
        assert ("sample" in kinds) is sampled
        g = Grid(32, 2.0 * math.pi)
        x1, x2 = g.points()
        snap = tmp_path / "start.bin"
        write_snapshot(snap, RealField(g, np.sin(x1) * np.cos(x2)), start, 1.0, 1.0)
        t = NormSeries.read_csv(run_simulation(config, restart=snap).norms_path).t
        later = [t_s for t_s in (0.5, 0.75, 1.0) if t_s > start]
        assert list(t) == ([at] if sampled else []) + later

    @pytest.mark.parametrize("t_end, start, steps, rows", [
        # the snap tolerance is relative, so t = 0 and t_end are two events
        (1e-16, None, 1, [0.0, 1e-16]),
        (1.0, 1.0 - 1e-15, 0, [1.0]),  # a restart within the snap tolerance of t_end
    ])
    def test_a_start_on_the_end_event_runs_from_and_ends_at_t_end(
            self, tmp_path, capsys, t_end, start, steps, rows):
        # as run_until(state, t_end) does, the run ends exactly at t_end
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        config.write_text(config.read_text().replace(
            "time.t_end = 1.0", f"time.t_end = {t_end!r}"))
        argv = ["run", "--config", str(config)]
        if start is not None:
            g = Grid(32, 2.0 * math.pi)
            x1, x2 = g.points()
            write_snapshot(tmp_path / "start.bin",
                           RealField(g, np.sin(x1) * np.cos(x2)), start, 1.0, 1.0)
            argv += ["--restart", str(tmp_path / "start.bin")]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(
            f"completed t = {t_end:.6g} after {steps} steps")
        assert list(NormSeries.read_csv(tmp_path / "out" / "norms.csv").t) == rows

    def test_snapshot_header_matches_run(self, tmp_path):
        text = BASE_CONFIG + "output.snapshot_dt = 0.5\n"
        config = parse_config(text + f"output.directory = {tmp_path}/out\n")
        run_simulation(config)
        snap = read_snapshot(tmp_path / "out" / "snap_1.000000.bin")
        assert snap.t == 1.0
        assert snap.gamma == 1.0


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "norms.csv").exists()
        assert "completed" in capsys.readouterr().out

    def test_output_flag_overrides_output_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        flag = tmp_path / "flag"
        assert main(["run", "--config", str(config), "--output", str(flag)]) == 0
        assert str(flag / "norms.csv") in capsys.readouterr().out
        assert len(NormSeries.read_csv(flag / "norms.csv")) == 5
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_10(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 10

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["run"],
        ["run", "--config", "run.cfg", "--bogus"],
        ["oracle", "--suite", "nope"],
        ["modulus-check", "--field", "snap.bin", "--delta3", "abc"],
        # the table spans the snapshot's box: there is no range to give
        ["modulus-check", "--field", "snap.bin", "--delta3", "0.1", "--r-max", "10"],
    ])
    def test_usage_error_exit_12(self, capsys, argv):
        # 2 is the blow-up code; argparse's usage line is kept
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 12
        err = capsys.readouterr().err
        assert err.startswith("usage: sqglab") and "error: " in err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{dir}"],
        ["run", "--config", "{cfg}", "--restart", "{dir}"],
        ["modulus-check", "--field", "{dir}", "--delta3", "0.1"],
        ["analyze", "--norms", "{dir}", "--column", "linf", "--window", "0:1"],
    ])
    def test_directory_for_a_file_exit_10(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        names = {"dir": str(tmp_path), "cfg": str(cfg)}
        assert main([arg.format(**names) for arg in argv]) == 10
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(tmp_path) in err[0]

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{file}/x"],
        ["run", "--config", "{cfg}", "--restart", "{file}/x"],
        ["modulus-check", "--field", "{file}/x", "--delta3", "0.1"],
        ["analyze", "--norms", "{file}/x", "--column", "linf", "--window", "0:1"],
        ["run", "--config", "{cfg}", "--output", "{file}"],
    ])
    def test_path_under_or_output_onto_a_file_exit_10(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        file = tmp_path / "file"
        file.write_text("a regular file\n")
        names = {"file": str(file), "cfg": str(cfg)}
        assert main([arg.format(**names) for arg in argv]) == 10
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(file) in err[0]
        assert file.read_text() == "a regular file\n"
        assert not (tmp_path / "out").exists()

    # inputs that pass every config rule but not the run
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("lines, code, message", [
        # the first n^2 array passes the address space: allocation fails at once
        (["grid.n = 10000000"], 4, "error: out of memory: "),
        # finite coefficients whose squared norms overflow
        (["initial.amplitude = 1e200"], 2, "error: non-finite norm 'l2' at t = 0 "),
        # initial data whose transform overflows, and grid values that do
        (["initial.amplitude = 1e308"], 12, "error: initial.amplitude = 1e+308 "),
        (["initial.amplitude = -1.7e308"], 12, "error: initial.amplitude = -1.7e+308 "),
        (["initial.preset = gaussian_bump", "initial.amplitude = 1e308"], 12,
         "error: initial.amplitude = 1e+308 "),
    ])
    def test_input_the_run_cannot_take_exits_with_its_code(self, tmp_path, capsys,
                                                            lines, code, message):
        keys = [line.split(" ")[0] for line in lines]
        kept = [line for line in BASE_CONFIG.splitlines()
                if line.split(" ")[0] not in keys]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(kept + lines + [f"output.directory = {tmp_path}/out"])
                        + "\n")
        assert main(["run", "--config", str(path)]) == code
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith(message)
        assert "mode" not in err[0]
        assert not (tmp_path / "out").exists()

    def test_a_grid_too_large_to_hold_touches_no_memory(self, tmp_path):
        # A started process inherits the peak resident size of the one that
        # started it (this test run's); a process it forks starts from its
        # own size, so the run's growth is measured there.
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG.replace("grid.n = 32", "grid.n = 10000000")
                        + f"output.directory = {tmp_path}/out\n")
        code = textwrap.dedent("""
            import os, resource, sys
            from sqglab.cli import main
            if os.fork() == 0:
                peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                before = peak()
                code = main(["run", "--config", sys.argv[1]])
                print(code, (peak() - before) / 1024.0, flush=True)
                os._exit(0)
            os.wait()
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(driver.__file__)))
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             check=True, capture_output=True, text=True).stdout
        exit_code, grown_mib = out.split()
        assert int(exit_code) == 4
        assert float(grown_mib) < 64.0
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_12(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + "grd.n = 8\n")
        assert main(["run", "--config", str(path)]) == 12

    def test_bad_snapshot_exit_11(self, tmp_path):
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK" + bytes(200))
        code = main(["run", "--config", str(config), "--restart", str(bad)])
        assert code == 11
        assert not (tmp_path / "out").exists()

    def test_restart_from_missing_snapshot_exit_10(self, tmp_path, capsys):
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        missing = tmp_path / "none.bin"
        assert main(["run", "--config", str(config), "--restart", str(missing)]) == 10
        assert capsys.readouterr().err == f"error: file not found: {missing}\n"
        assert not (tmp_path / "out").exists()

    def test_restart_physics_mismatch_exit_12(self, tmp_path, capsys):
        config = write_config(tmp_path, (
            "output.snapshot_dt = 0.5\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 0
        snap = tmp_path / "out" / "snap_0.500000.bin"
        capsys.readouterr()
        for key in ("gamma", "kappa"):
            other = write_config(tmp_path, f"output.directory = {tmp_path}/{key}\n",
                                 name=f"{key}.cfg")
            other.write_text(other.read_text().replace(
                f"dynamics.{key} = 1.0", f"dynamics.{key} = 0.5"))
            code = main(["run", "--config", str(other), "--restart", str(snap)])
            assert code == 12
            assert "snapshot physics" in capsys.readouterr().err
            assert not (tmp_path / key).exists()

    def test_restart_past_t_end_exit_12(self, tmp_path, capsys):
        config = write_config(tmp_path, (
            "output.snapshot_dt = 0.5\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        early = write_config(tmp_path, f"output.directory = {tmp_path}/early\n",
                             name="early.cfg")
        early.write_text(early.read_text().replace("time.t_end = 1.0",
                                                   "time.t_end = 0.5"))
        snap = tmp_path / "out" / "snap_1.000000.bin"
        assert main(["run", "--config", str(early), "--restart", str(snap)]) == 12
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "time.t_end = 0.5" in err[0] and "t = 1.0" in err[0]
        assert not (tmp_path / "early").exists()

    def test_restart_grid_mismatch_exit_12(self, tmp_path, capsys):
        config = write_config(tmp_path, (
            "output.snapshot_dt = 0.5\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        coarse = write_config(tmp_path, f"output.directory = {tmp_path}/coarse\n",
                              name="coarse.cfg")
        coarse.write_text(coarse.read_text().replace("grid.n = 32", "grid.n = 16"))
        snap = tmp_path / "out" / "snap_0.500000.bin"
        assert main(["run", "--config", str(coarse), "--restart", str(snap)]) == 12
        err = capsys.readouterr().err
        assert "snapshot grid (32, 6.283185307179586)" in err
        assert "config (16, 6.283185307179586)" in err
        assert not (tmp_path / "coarse").exists()

    def test_snapshots_finer_than_their_file_names_exit_12(self, tmp_path, capsys):
        # at 1e-7 the ten snapshot times to t_end = 1e-6 share two file names
        config = write_config(tmp_path, (
            "output.snapshot_dt = 1e-7\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        config.write_text(config.read_text().replace("time.t_end = 1.0",
                                                     "time.t_end = 1e-6"))
        assert main(["run", "--config", str(config)]) == 12
        assert "output.snapshot_dt must be 0 or >= 1e-6" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_blow_up_exit_2(self, tmp_path, capsys):
        # the speed overflows, so the first step is adapt_dt's floor, 1e-10
        config = tmp_path / "explode.cfg"
        config.write_text(BASE_CONFIG.replace("dynamics.kappa = 1.0",
                                              "dynamics.kappa = 0.0") + (
            "initial.amplitude = 1e100\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 2
        assert "non-finite coefficients at t = 1e-10 (step 1)" in capsys.readouterr().err

    def test_step_budget_exceeded_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 2)
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        assert main(["run", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: exceeded 2 steps")

    def test_modulus_breach_strict_exit_3(self, tmp_path, capsys):
        config = write_config(tmp_path, (
            "modulus.enabled = true\n"
            "modulus.delta3 = 0.01\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config), "--strict"]) == 3
        assert "breach" in capsys.readouterr().out
        # without --strict the same run completes with exit 0
        assert main(["run", "--config", str(config)]) == 0

    def test_removed_r_max_setting_exit_12_citing_its_line(self, tmp_path, capsys):
        config = write_config(tmp_path, (
            "modulus.enabled = true\n"
            "modulus.r_max = 10\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 12
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "unknown key 'modulus.r_max'" in err[0] and "line 10" in err[0]
        assert not (tmp_path / "out").exists()

    def test_monitored_run_on_a_box_wider_than_ten_completes(self, tmp_path, capsys):
        # dx = 19.6: every cell is past the old default r_max = 10, which
        # stopped such a run before its first step; the table now reaches
        # the box's largest separation, 444, and small data holds on it
        text = BASE_CONFIG.replace("grid.length = 6.283185307179586",
                                   "grid.length = 628.3185307179586")
        config = tmp_path / "run.cfg"
        config.write_text(text + "initial.amplitude = 0.04\n"
                          "modulus.enabled = true\n"
                          f"output.directory = {tmp_path}/out\n")
        assert main(["run", "--config", str(config), "--strict"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("completed t = 1 after ") and "breach" not in out

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("key, value", [
        ("modulus.delta3", "1e-320"),
        # the table must reach the box's largest separation, 7.1e153
        ("grid.length", "1e154"),
    ])
    def test_modulus_table_that_cannot_be_built_exit_12(self, tmp_path, capsys,
                                                        key, value):
        lines = [line for line in BASE_CONFIG.splitlines()
                 if not line.startswith(key + " ")]
        lines += [f"{key} = {value}", "modulus.enabled = true",
                  f"output.directory = {tmp_path}/out"]
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(config)]) == 12
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "modulus.delta3" in err[0] and "grid.length" in err[0]
        assert not (tmp_path / "out").exists()

    # values that pass a plain float() or int() but not the solver
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("key, value", [
        ("grid.length", "1e-320"),  # 2 pi / L overflows
        ("grid.length", "1e-307"),  # (2 pi / L) n / sqrt 2 overflows at n = 32
        ("time.t_end", "inf"),
        ("initial.amplitude", "nan"),
        ("dynamics.kappa", "nan"),
        ("dynamics.cfl", "5"),
        ("initial.seed", "-1"),
        ("modulus.delta3", "inf"),
        ("time.sample_dt", "1e-300"),
        ("output.snapshot_dt", "1e-300"),
        ("dynamics.dt_max", "0"),
        ("dynamics.dt_max", "-0.05"),
    ])
    def test_out_of_range_config_value_exit_12(self, tmp_path, capsys, key, value):
        lines = [line for line in BASE_CONFIG.splitlines()
                 if not line.startswith(key + " ")]
        lines += [f"{key} = {value}", f"output.directory = {tmp_path}/out"]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(path)]) == 12
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: line {len(lines) - 1}: ")
        assert key in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("sigma, code", [
        ("1e-170", 12),  # sigma**2 underflows to 0: the bump's centre is 0 / 0
        ("1e-160", 0),   # a subnormal sigma**2 still gives a bump
        ("0", 0),        # the default width
    ])
    def test_bump_width_exits_12_only_when_its_square_underflows(
            self, tmp_path, capsys, sigma, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG.replace("= cmt", "= gaussian_bump")
                       + f"initial.sigma = {sigma}\n"
                       + f"output.directory = {tmp_path}/out\n")
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == [] and (tmp_path / "out" / "norms.csv").exists()
            return
        assert len(err) == 1
        assert err[0].startswith("error: line 9: initial.sigma must ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, line", [
        ("dynamics.gamma", "0.5", 4),
        ("dynamics.kappa", "0.0", 5),
    ])
    def test_monitor_that_no_theorem_backs_exit_12(self, tmp_path, capsys, key,
                                                   value, line):
        # KNV's modulus is preserved for gamma = 1 and kappa > 0 only
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace(f"{key} = 1.0", f"{key} = {value}") + (
            "modulus.enabled = true\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 12
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1
        assert err[0].startswith(f"error: line {line}: {key} must ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_delta3_past_the_float_range_exit_12(self, tmp_path, capsys):
        # the table's second differences would overflow: the error names the
        # range of delta3 that builds, and nothing is written
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG + (
            "modulus.enabled = true\n"
            "modulus.delta3 = 1e306\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 12
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: modulus.delta3 = 1e+306, ")
        assert "delta3 must lie in [" in err[0] and "for r_max = 10, got 1e+306" in err[0]
        assert not (tmp_path / "out").exists()

    def test_delta3_times_kappa_that_underflows_exit_12(self, tmp_path, capsys):
        # the table is built with delta3 kappa = 1e-330, which is 0: the error
        # names kappa beside delta3
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("dynamics.kappa = 1.0",
                                              "dynamics.kappa = 1e-300") + (
            "modulus.enabled = true\n"
            "modulus.delta3 = 1e-30\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 12
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "modulus.delta3 = 1e-30, dynamics.kappa = 1e-300" in err[0]
        assert not (tmp_path / "out").exists()

    def test_oracle_suite_exit_zero_and_csv(self, tmp_path, capsys):
        out = tmp_path / "oracle_report.csv"
        assert main(["oracle", "--suite", "single-mode", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,max_abs_error,max_rel_error,tolerance,pass"
        assert lines[1].startswith("single_mode,")
        assert lines[1].endswith(",true")

    def test_oracle_prints_the_rk4_tolerance_as_it_is(self, tmp_path, capsys):
        # 0.125 printed to one significant digit would read 1e-01
        csv = tmp_path / "oracle_report.csv"
        assert main(["oracle", "--suite", "rk4-order", "--output", str(csv)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pass rk4_order: rel ") and out.endswith(" (tol 0.125)\n")

    def test_modulus_check_command(self, tmp_path, capsys):
        config = write_config(tmp_path, (
            "output.snapshot_dt = 1.0\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        snap = tmp_path / "out" / "snap_1.000000.bin"
        assert main(["modulus-check", "--field", str(snap),
                     "--delta3", "0.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "breached,worst_ratio,worst_offset_d1,worst_offset_d2,time"
        fields = out[1].split(",")
        assert fields[0] in ("true", "false")
        assert float(fields[4]) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, names", [
        (["--delta3", "-1"], "delta3"),
        (["--delta3", "1e-320"], "--delta3"),
        (["--delta3", "inf"], "--delta3"),
        (["--delta3", "nan"], "--delta3"),
    ])
    def test_modulus_check_bad_arguments_exit_12(self, tmp_path, capsys, args, names):
        config = write_config(tmp_path, (
            "output.snapshot_dt = 1.0\n"
            f"output.directory = {tmp_path}/out\n"
        ))
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        snap = tmp_path / "out" / "snap_1.000000.bin"
        assert main(["modulus-check", "--field", str(snap), *args]) == 12
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and names in err[0]

    @pytest.mark.filterwarnings("error")
    def test_modulus_check_on_a_box_too_large_to_tabulate_exit_12(self, tmp_path,
                                                                  capsys):
        # the table must reach the box's largest separation, 7.1e153
        g = Grid(16, 1e154)
        x1, x2 = g.points()
        snap = tmp_path / "snap.bin"
        write_snapshot(snap, RealField(g, np.sin(x1 * 1e-154)), 1.0, 1.0, 1.0)
        assert main(["modulus-check", "--field", str(snap), "--delta3", "0.1"]) == 12
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "grid.length 1e+154" in err[0]

    @pytest.mark.parametrize("gamma, kappa, name", [
        (0.5, 1.0, "gamma"),
        (1.0, 0.0, "kappa"),
    ])
    def test_modulus_check_on_a_snapshot_no_theorem_backs_exit_12(
            self, tmp_path, capsys, gamma, kappa, name):
        g = Grid(32, 2.0 * math.pi)
        x1, x2 = g.points()
        snap = tmp_path / "snap.bin"
        write_snapshot(snap, RealField(g, np.sin(x1) * np.cos(x2)), 1.0, gamma, kappa)
        assert main(["modulus-check", "--field", str(snap), "--delta3", "0.1"]) == 12
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"snapshot {name} must" in err[0]

    def test_modulus_check_compares_with_kappa_omega(self, tmp_path, capsys):
        # theta / kappa solves the kappa = 1 equation, so theta's modulus is
        # kappa omega: a field at 0.75 of omega breaches 0.5 omega
        g = Grid(32, 2.0 * math.pi)
        x1, x2 = g.points()
        values = np.sin(x1) * np.sin(x2) + np.cos(x2)
        ratio = check_modulus(RealField(g, values), build_knv_modulus(0.1, g),
                              default_offsets(g)).worst_ratio
        values *= 0.75 / ratio
        rows = {}
        for kappa in (1.0, 0.5):
            snap = tmp_path / f"snap_{kappa}.bin"
            write_snapshot(snap, RealField(g, values), 1.0, 1.0, kappa)
            assert main(["modulus-check", "--field", str(snap), "--delta3", "0.1"]) == 0
            rows[kappa] = capsys.readouterr().out.splitlines()[1].split(",")
        assert rows[1.0][0] == "false"
        assert float(rows[1.0][1]) == pytest.approx(0.75, rel=1e-12)
        assert rows[0.5][0] == "true"
        assert float(rows[0.5][1]) == pytest.approx(1.5, rel=1e-12)

    def test_a_run_monitors_kappa_omega(self, tmp_path, monkeypatch):
        built = []
        real = modulus.build_knv_modulus

        def build_knv_modulus(delta3, grid):
            built.append((delta3, grid))
            return real(delta3, grid)

        monkeypatch.setattr(modulus, "build_knv_modulus", build_knv_modulus)
        run_simulation(parse_config(
            BASE_CONFIG.replace("dynamics.kappa = 1.0", "dynamics.kappa = 0.5")
            + "modulus.enabled = true\nmodulus.delta3 = 0.1\n"
            + f"output.directory = {tmp_path}/out\n"))
        assert built == [(0.05, Grid(32, 2.0 * math.pi))]

    def test_analyze_power_law(self, tmp_path, capsys):
        path = tmp_path / "norms.csv"
        ts = np.geomspace(0.1, 10.0, 30)
        with open(path, "w") as fh:
            fh.write("t,linf,l2,h1,h3_2,h2,grad_sup\n")
            for t in ts:
                v = 5.0 * t ** -2
                fh.write(",".join(f"{x:.17g}" for x in [t, v, v, v, v, v, v]) + "\n")
        assert main(["analyze", "--norms", str(path), "--column", "linf",
                     "--window", "0.1:10"]) == 0
        out = capsys.readouterr().out.splitlines()
        row = out[1].split(",")
        assert abs(float(row[3]) + 2.0) < 1e-10
        assert abs(float(row[4]) - 5.0) < 1e-9

    def test_analyze_boundedness(self, tmp_path, capsys):
        path = tmp_path / "norms.csv"
        ts = np.geomspace(0.01, 100.0, 50)
        with open(path, "w") as fh:
            fh.write("t,linf,l2,h1,h3_2,h2,grad_sup\n")
            for t in ts:
                v = 1.0 / t
                fh.write(",".join(f"{x:.17g}" for x in [t, v, v, v, v, v, v]) + "\n")
        assert main(["analyze", "--norms", str(path), "--column", "linf",
                     "--window", "0.01:100", "--weight", "1.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        row = out[1].split(",")
        assert abs(float(row[4]) - 1.0) < 1e-12
        assert row[5] == "true"

    @pytest.mark.parametrize("text, args", [
        ("", []),
        ("time,value\n1,2\n", []),
        ("t,linf,l2,h1,h3_2,h2,grad_sup\n0.1,1,1,one,1,1,1\n", []),
        (None, ["--column", "h9"]),
        (None, ["--window", "5:6"]),
        (None, ["--window", "1:0"]),
        (None, ["--window", "1:0", "--weight", "1"]),
        (None, ["--window", "1to2"]),
        (None, ["--weight", "nan"]),
        (None, ["--weight", "inf"]),
        (None, ["--weight", "1e300"]),  # t^1e300 overflows at t = 10
    ])
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_analyze_bad_input_exit_12(self, tmp_path, capsys, text, args):
        path = tmp_path / "norms.csv"
        argv = ["analyze", "--norms", str(path), "--column", "linf",
                "--window", "0.1:10"]
        if text is None:  # a good file, 30 samples of 5 t^-2: only args are bad
            path.write_text("t,linf,l2,h1,h3_2,h2,grad_sup\n" + "".join(
                ",".join([f"{t:.17g}"] + [f"{5.0 * t ** -2:.17g}"] * 6) + "\n"
                for t in np.geomspace(0.1, 10.0, 30)))
            assert main(argv) == 0
            capsys.readouterr()
        else:
            path.write_text(text)
        assert main(argv + args) == 12  # a repeated option takes the last value
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("args", [[], ["--weight", "1"]])
    def test_analyze_window_with_a_time_not_positive_exit_12(self, tmp_path, capsys,
                                                            args):
        # the initial sample's t = 0 and 30 positive times, all in the window
        path = tmp_path / "norms.csv"
        path.write_text("t,linf,l2,h1,h3_2,h2,grad_sup\n0,1,1,1,1,1,1\n" + "".join(
            ",".join([f"{t:.17g}"] + [f"{5.0 * t ** -2:.17g}"] * 6) + "\n"
            for t in np.geomspace(0.1, 10.0, 30)))
        argv = ["analyze", "--norms", str(path), "--column", "linf", "--window"]
        assert main(argv + ["0.1:10"] + args) == 0
        capsys.readouterr()
        assert main(argv + ["0:10"] + args) == 12
        assert "positive times" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        ([], "need t_a < t_b, got (1.0, 0.1)"),
        (["--weight", "1"], "need t_a <= t_b, got window (1.0, 0.1)"),
    ])
    def test_analyze_reversed_window_exit_12(self, tmp_path, capsys, args, message):
        # the fit and the boundedness check name the window, not its samples
        path = tmp_path / "norms.csv"
        path.write_text("t,linf,l2,h1,h3_2,h2,grad_sup\n" + "".join(
            ",".join([f"{t:.17g}"] + [f"{5.0 * t ** -2:.17g}"] * 6) + "\n"
            for t in np.geomspace(0.1, 10.0, 30)))
        assert main(["analyze", "--norms", str(path), "--column", "h2",
                     "--window", "1:0.1"] + args) == 12
        assert capsys.readouterr().err == f"error: analyze: {message}\n"

    def test_analyze_missing_norms_exit_10(self, tmp_path):
        assert main(["analyze", "--norms", str(tmp_path / "nope.csv"),
                     "--column", "linf", "--window", "0:1"]) == 10


# samples every 0.25 to t = 1, snapshots every 0.5 and a checkpoint at 1
EVENTS = (
    "output.snapshot_dt = 0.5\n"
    "time.checkpoint_dt = 1.0\n"
    "modulus.enabled = true\n"
    "modulus.delta3 = 0.1\n"
)
SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)


def fail_record_norms_at(monkeypatch, t_s):
    """Make the driver's record_norms raise BlowUpError at sample time t_s;
    returns the errors raised."""
    raised = []
    real = driver.record_norms

    def record_norms(state, series):
        if state.t == t_s:
            raised.append(BlowUpError(state.t, state.step_count, (0, 0)))
            raise raised[-1]
        return real(state, series)

    monkeypatch.setattr(driver, "record_norms", record_norms)
    return raised


class TestInlineDiagnostics:
    """The sample diagnostics run in line on the calling thread, so a failed
    sample ends the run at its own event."""

    def run_failing(self, tmp_path, capsys):
        config = write_config(tmp_path,
                              EVENTS + f"output.directory = {tmp_path}/out\n")
        threads = threading.active_count()
        code = main(["run", "--config", str(config)])
        assert threading.active_count() == threads  # no thread is left behind
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def assert_stopped_at(self, tmp_path, t_s):
        out = tmp_path / "out"
        rows = NormSeries.read_csv(out / "norms.csv").t
        assert list(rows) == [t for t in SAMPLES if t < t_s]
        snaps = sorted(float(p.name[len("snap_"):-len(".bin")])
                       for p in out.glob("snap_*.bin"))
        assert snaps == [t for t in (0.5, 1.0) if t <= t_s]

    @pytest.mark.parametrize("t_s", SAMPLES[1:])
    def test_diagnostics_failure_ends_the_run_at_its_sample(
            self, tmp_path, capsys, monkeypatch, t_s):
        raised = fail_record_norms_at(monkeypatch, t_s)
        code, err = self.run_failing(tmp_path, capsys)
        assert code == 2
        assert len(raised) == 1  # later samples are skipped
        assert err == f"error: {raised[0]}\n"
        self.assert_stopped_at(tmp_path, t_s)

    def test_diagnostics_failure_wins_over_a_later_stepper_blow_up(
            self, tmp_path, capsys, monkeypatch):
        # the step after the sample at 0.5 would blow up; the sample fails
        # first, so that step never runs and the sample's error is reported
        raised = fail_record_norms_at(monkeypatch, 0.5)
        blown_up = []
        real_step = dynamics.step

        def step(state, dt):
            if state.t >= 0.5:
                blown_up.append(BlowUpError(state.t + dt, state.step_count + 1,
                                            (1, 1)))
                raise blown_up[-1]
            return real_step(state, dt)

        monkeypatch.setattr(dynamics, "step", step)
        code, err = self.run_failing(tmp_path, capsys)
        assert blown_up == []
        assert code == 2
        assert len(raised) == 1
        assert err == f"error: {raised[0]}\n"
        self.assert_stopped_at(tmp_path, 0.5)

    def test_a_failed_sample_ends_the_run_at_its_sample(
            self, tmp_path, capsys, monkeypatch):
        # samples only, so no snapshot or checkpoint event stops the run:
        # the failed sample at 0.25 itself ends it, before any later step
        raised = fail_record_norms_at(monkeypatch, 0.25)
        starts = []
        real_step = dynamics.step

        def step(state, dt):
            starts.append(state.t)
            return real_step(state, dt)

        monkeypatch.setattr(dynamics, "step", step)
        config = write_config(tmp_path, f"output.directory = {tmp_path}/out\n")
        assert main(["run", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(raised) == 1
        assert captured.err == f"error: {raised[0]}\n"
        assert starts and max(starts) < 0.25  # no step runs after the failure
        assert list(NormSeries.read_csv(tmp_path / "out" / "norms.csv").t) == [0.0]

    def test_an_interrupt_leaves_no_worker_behind(self, tmp_path, monkeypatch):
        class Interrupt(BaseException):
            """Not an Exception, as KeyboardInterrupt is not."""

        real_step = dynamics.step

        def step(state, dt):
            if state.t >= 0.5:
                raise Interrupt
            return real_step(state, dt)

        monkeypatch.setattr(dynamics, "step", step)
        config = parse_config(BASE_CONFIG + f"output.directory = {tmp_path}/out\n")
        threads = threading.active_count()
        with pytest.raises(Interrupt):
            run_simulation(config)
        assert threading.active_count() == threads
        rows = NormSeries.read_csv(tmp_path / "out" / "norms.csv").t
        assert list(rows) == [0.0, 0.25, 0.5]

    def test_every_sample_runs_on_the_calling_thread(
            self, tmp_path, monkeypatch):
        seen = []
        real = driver.record_norms

        def record_norms(state, series):
            seen.append((state.t, threading.current_thread()))
            return real(state, series)

        monkeypatch.setattr(driver, "record_norms", record_norms)
        run_simulation(parse_config(BASE_CONFIG + f"output.directory = {tmp_path}/out\n"))
        times, threads = zip(*seen)
        assert times == SAMPLES
        assert set(threads) == {threading.current_thread()}

    def test_concurrent_runs_match_a_lone_run(self, tmp_path):
        # more runs than cores, each stepping and sampling on its own
        # thread, switching often
        def run(name):
            return run_simulation(parse_config(
                BASE_CONFIG + EVENTS + f"output.directory = {tmp_path}/{name}\n"))

        lone = run("lone")
        results = {}
        threads = [threading.Thread(target=lambda k=k: results.update({k: run(k)}))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(results) == list(range(4))
        snaps = sorted(lone.norms_path.parent.glob("*.bin"))
        assert len(snaps) == 3 and lone.breaches
        for result in results.values():
            assert result.norms_path.read_bytes() == lone.norms_path.read_bytes()
            assert result.breaches == lone.breaches
            for snap in snaps:
                assert ((result.norms_path.parent / snap.name).read_bytes()
                        == snap.read_bytes())

    def test_initial_sample_failure_leaves_no_output_directory(
            self, tmp_path, capsys, monkeypatch):
        raised = fail_record_norms_at(monkeypatch, 0.0)
        code, err = self.run_failing(tmp_path, capsys)
        assert code == 2
        assert err == f"error: {raised[0]}\n"
        assert not (tmp_path / "out").exists()


# rough data sampled often, near the breach threshold: of the 21 samples
# the lattice bound rules out a breach at some, and 9 breach
BOUNDED = (BASE_CONFIG.replace("initial.preset = cmt", "initial.preset = random_h1")
           .replace("time.sample_dt = 0.25", "time.sample_dt = 0.05")
           + EVENTS)


class TestModulusBound:
    """Samples that the lattice bound proves safe skip the exhaustive check,
    and nothing else changes."""

    def run(self, tmp_path, name):
        return run_simulation(parse_config(
            BOUNDED + f"output.directory = {tmp_path}/{name}\n"))

    def test_skipping_changes_no_output(self, tmp_path, monkeypatch):
        bounded = self.run(tmp_path, "bounded")
        monkeypatch.setattr(modulus, "_lattice_bound",
                            lambda grid, mod, offsets: lambda values, hi, lo: False)
        exhaustive = self.run(tmp_path, "exhaustive")
        assert len(bounded.breaches) == 9
        assert bounded.breaches == exhaustive.breaches
        files = sorted(p.name for p in bounded.norms_path.parent.iterdir())
        assert files == sorted(p.name for p in exhaustive.norms_path.parent.iterdir())
        assert len(files) == 4  # norms, two snapshots and the checkpoint
        for name in files:
            assert ((tmp_path / "bounded" / name).read_bytes()
                    == (tmp_path / "exhaustive" / name).read_bytes())

    def test_the_exhaustive_check_runs_on_fewer_samples(self, tmp_path, monkeypatch):
        # each check sees the grid values of the sample just recorded
        sampled, checked = [], []
        real_record, real_check = driver.record_norms, modulus.check_modulus

        def record_norms(state, series):
            sampled.append(inverse_transform(state.theta).values)
            return real_record(state, series)

        def check_modulus(field, mod, offsets):
            assert np.array_equal(field.values, sampled[-1])
            checked.append(len(sampled))
            return real_check(field, mod, offsets)

        monkeypatch.setattr(driver, "record_norms", record_norms)
        monkeypatch.setattr(modulus, "check_modulus", check_modulus)
        result = self.run(tmp_path, "spied")
        assert len(sampled) == len(result.series) == 21
        assert len(result.breaches) < len(checked) < len(sampled)


# Command-line vectors for the property test below.  No command can run from
# them: every file is missing, a directory, a path under a regular file, empty
# or malformed, an empty file (a valid all-defaults config) is never a
# --config, and no --suite value names a suite.
CLI_FILES = {
    "missing": None,
    "dir": None,
    "text/x": None,  # under the regular file "text"
    "empty": b"",
    "text": b"not a config, a snapshot or a norms table\n",
    "binary": b"\xff\xfe\x00SQG" + bytes(64),
    "header": b"t,linf,l2,h1,h3_2,h2,grad_sup\n",
    "badvalue": b"grid.n = 7\n",
}
CONFIG_FILES = [f"{{{name}}}" for name in CLI_FILES if name != "empty"]
ANY_FILE = [f"{{{name}}}" for name in CLI_FILES]
NUMBERS = ["0.1", "-1", "0", "64", "32", "nan", "inf", "1e-320", "1e300", "abc", ""]
OPTION_VALUES = {
    "--config": CONFIG_FILES,
    "--restart": ANY_FILE,
    "--output": ["{outdir}"],
    "--suite": ["nope", "ALL", "single_mode", ""],
    "--field": ANY_FILE,
    "--delta3": NUMBERS,
    "--norms": ANY_FILE,
    "--column": ["linf", "h2", "h9", ""],
    "--window": ["0:1", "1:0", "0.1:10", "1to2", ""],
    "--weight": NUMBERS,
}
FLAGS = ["--strict", "--help", "-h", "--bogus"]
STRAYS = ["extra", "{text}", "{dir}", "0.1", "--"]
COMMANDS = ["run", "oracle", "modulus-check", "analyze", "frobnicate"]


@st.composite
def cli_vectors(draw):
    argv = [draw(st.sampled_from(COMMANDS))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["option", "option", "flag", "stray"]))
        if kind == "option":
            option = draw(st.sampled_from(sorted(OPTION_VALUES)))
            argv += [option, draw(st.sampled_from(OPTION_VALUES[option]))]
        else:
            argv.append(draw(st.sampled_from(FLAGS if kind == "flag" else STRAYS)))
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_vectors())
@example(["run", "--config", "{binary}"])
@example(["analyze", "--norms", "{binary}", "--column", "linf", "--window", "0:1"])
@example(["modulus-check", "--field", "{empty}", "--delta3", "0.1"])
def test_any_argument_vector_ends_in_a_documented_exit_code(tmp_path, argv):
    names = {"outdir": str(tmp_path / "out")}
    for name, content in CLI_FILES.items():
        path = tmp_path / name
        names[name] = str(path)
        if name == "dir":
            path.mkdir(exist_ok=True)
        elif content is not None:
            path.write_bytes(content)
    argv = [arg.format(**names) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 10, 11, 12), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not (tmp_path / "out").exists()


def _valid_snapshot_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.bin"
        values = np.random.default_rng(0).standard_normal((8, 8))
        write_snapshot(path, RealField(Grid(8, 2.0 * math.pi), values), 0.5, 1.0, 1.0)
        return path.read_bytes()


SNAPSHOT = _valid_snapshot_bytes()
HEADER_BITS = 8 * 44


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0, max_value=HEADER_BITS - 1)),
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=len(SNAPSHOT) - 1))))
def test_damaged_snapshot_is_read_or_rejected(damage):
    kind, where = damage
    raw = bytearray(SNAPSHOT)
    if kind == "flip":
        raw[where // 8] ^= 1 << (where % 8)
    else:
        del raw[where:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.bin"
        path.write_bytes(bytes(raw))
        try:
            read_snapshot(path)
        except SnapshotFormatError:
            pass
        code = main(["modulus-check", "--field", str(path), "--delta3", "0.1"])
        assert code in (0, 11, 12)
