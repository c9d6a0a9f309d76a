"""Tests for config parsing and snapshot serialization."""

import errno
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import (
    ConfigError,
    Grid,
    ParameterError,
    RealField,
    SnapshotFormatError,
    SolverConfig,
    parse_config,
    read_snapshot,
    write_snapshot,
)
from sqglab.config import _KEYS

MINIMAL = """
grid.n = 64
grid.length = 6.283185307179586
dynamics.gamma = 1.0
time.t_end = 1.0
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        config = parse_config(MINIMAL)
        assert config.n == 64
        assert config.solver == SolverConfig(gamma=1.0)  # its defaults
        assert config.sample_dt == 0.25
        assert config.preset == "single_mode"

    def test_gamma_out_of_range_cites_interval_and_line(self):
        text = MINIMAL.replace("dynamics.gamma = 1.0", "dynamics.gamma = 2.5")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "(0, 2]" in str(err.value)
        assert err.value.line == 4

    def test_unknown_key_with_line_number(self):
        text = MINIMAL + "grd.n = 32\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "grd.n" in str(err.value)
        assert err.value.line == 6

    def test_removed_offsets_key_is_unknown(self):
        text = MINIMAL + "modulus.offsets = default\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "unknown key 'modulus.offsets'" in str(err.value)
        assert err.value.line == 6

    @pytest.mark.parametrize("line", [
        "dynamics.dt_min = 1e-10",  # adapt_dt's floor is fixed at 1e-10
        "output.log_sampling = true",
        "output.log_min = 1e-3",
        "output.log_per_decade = 10",
        "dynamics.nonlinear = false",  # SolverConfig.nonlinear_enabled stays
        "output.betas = 0.5",  # NormSeries(betas=...) stays
    ])
    def test_removed_settings_are_unknown_keys(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        assert f"unknown key {key!r}" in str(err.value)
        assert err.value.line == 6

    def test_dt_max_below_the_step_floor_accepted(self):
        text, _ = with_value("dynamics.dt_max", "1e-12")
        assert parse_config(text).solver.dt_max == 1e-12

    def test_type_mismatch_with_line_number(self):
        text = MINIMAL.replace("grid.n = 64", "grid.n = sixty-four")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 2

    def test_missing_required_key(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith("time.t_end"))
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "time.t_end" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "grid.n = 32\n")
        assert "duplicate" in str(err.value)

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + MINIMAL + "initial.seed = 3  # trailing\n"
        config = parse_config(text)
        assert config.seed == 3

    @pytest.mark.parametrize("value, parsed", [
        ("true", True), ("On", True), ("yes", True), ("1", True),
        ("false", False), ("OFF", False), ("no", False), ("0", False),
    ])
    def test_booleans(self, value, parsed):
        config = parse_config(MINIMAL + f"modulus.enabled = {value}\n")
        assert config.modulus_enabled is parsed

    def test_bad_boolean(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "modulus.enabled = maybe\n")
        assert "boolean" in str(err.value)
        assert err.value.line == 6

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "initial.preset = vortex\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "just some words\n")
        assert err.value.line == 6

    def test_odd_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("grid.n = 64", "grid.n = 63"))

    @pytest.mark.parametrize("key, value, message", [
        ("time.t_end", "inf", "finite number"),
        ("initial.amplitude", "nan", "finite number"),
        ("dynamics.kappa", "nan", "finite number"),
        ("modulus.delta3", "-inf", "finite number"),
        ("modulus.r_max", "inf", "finite number"),
        ("dynamics.cfl", "5", "dynamics.cfl must lie in (0, 1]"),
        ("initial.seed", "-1", "initial.seed must be >= 0"),
        ("initial.sigma", "1e-170", "initial.sigma must be 0 or > 0 with sigma**2 > 0"),
        ("dynamics.dt_max", "0", "dynamics.dt_max must be > 0"),
        ("grid.length", "1e-320", "grid.length must be > 0 with 2 pi / L finite"),
        ("modulus.r_max", "1e-320", "modulus.r_max must be finite, with 1e-4 r_max > 0"),
    ])
    def test_number_out_of_solver_range_cites_its_line(self, key, value, message):
        text, line = with_value(key, value)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert message in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize("key, value, message", [
        ("dynamics.gamma", "0.5", "dynamics.gamma must be 1 for the modulus monitor"),
        ("dynamics.kappa", "0", "dynamics.kappa must be > 0 for the modulus monitor"),
    ])
    def test_monitor_that_no_theorem_backs_cites_its_key_and_line(self, key, value,
                                                                 message):
        # KNV's modulus is preserved for gamma = 1 and kappa > 0 only
        text, line = with_value(key, value)
        parse_config(text)  # valid physics without the monitor
        with pytest.raises(ConfigError) as err:
            parse_config(text + "modulus.enabled = true\n")
        assert message in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line", [
        (MINIMAL.replace("grid.n = 64", "grid.n = 16").replace(
            "grid.length = 6.283185307179586", "grid.length = 1e-307"), 3),
        (MINIMAL.replace("grid.n = 64\n", "").replace(
            "grid.length = 6.283185307179586", "grid.length = 1e-307")
         + "grid.n = 16\n", 5),
    ], ids=["n first", "n last"])
    def test_box_whose_largest_wavenumber_overflows_cites_the_later_key(
            self, text, line):
        # 2 pi / L is finite, but (2 pi / L) n / sqrt 2 is not
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "grid.n and grid.length must give a finite" in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize("lines", [
        ["time.sample_dt = 1e-300"],
        ["time.sample_dt = 1e-7"],
        ["output.snapshot_dt = 5e-7"],
        ["time.checkpoint_dt = 1e-300"],
    ])
    def test_schedule_beyond_the_step_budget_cites_the_later_key(self, lines):
        text = MINIMAL + "\n".join(lines) + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "more than 1000000" in str(err.value)
        assert err.value.line == len(text.splitlines())

    @pytest.mark.parametrize("value", ["1e-7", "9.99e-7"])
    def test_snapshots_finer_than_their_file_names_cite_their_key(self, value):
        # snap_{t:.6f}.bin would name two such snapshots alike; the schedule
        # is well within the step budget
        text = (MINIMAL.replace("time.t_end = 1.0", "time.t_end = 1e-6")
                + f"output.snapshot_dt = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "output.snapshot_dt must be 0 or >= 1e-6" in str(err.value)
        assert err.value.line == len(text.splitlines())
        parse_config(text.replace(value, "1e-6"))

    def test_schedule_bound_cites_t_end_when_it_comes_last(self):
        text = MINIMAL.replace("time.t_end = 1.0",
                               "time.sample_dt = 1e-3\ntime.t_end = 1e300")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "time.t_end, time.sample_dt" in str(err.value)
        assert err.value.line == 6

    @pytest.mark.parametrize("lines", [
        ["time.sample_dt = 1e-6"],  # exactly the budget
    ])
    def test_schedule_within_the_step_budget_accepted(self, lines):
        parse_config(MINIMAL + "\n".join(lines) + "\n")


def with_value(key, value):
    """MINIMAL with ``key = value``, on the key's own line if MINIMAL has it,
    else appended; and that line's number."""
    lines = MINIMAL.splitlines()
    for number, line in enumerate(lines, start=1):
        if line.startswith(key + " "):
            lines[number - 1] = f"{key} = {value}"
            return "\n".join(lines) + "\n", number
    return "\n".join(lines + [f"{key} = {value}"]) + "\n", len(lines) + 1


HOSTILE = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "+inf", "-1", "-3", "0",
                     "1e300", "-1e300", "1e-300", "1e-320", "junk", ""]),
    st.floats().map(repr),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(str),
    st.text(alphabet="abcxyz0123456789.-+e ,", max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_KEYS)), HOSTILE)
def test_any_value_parses_or_cites_its_line(key, value):
    text, line = with_value(key, value)
    try:
        parse_config(text)
    except ConfigError as err:
        assert err.line == line, str(err)


class TestSnapshot:
    def test_round_trip_bit_identical(self, tmp_path):
        g = Grid(16, 2 * math.pi)
        rng = np.random.default_rng(0)
        field = RealField(g, rng.standard_normal((16, 16)))
        path = tmp_path / "snap.bin"
        write_snapshot(path, field, t=0.75, gamma=1.0, kappa=0.5)
        first = path.read_bytes()
        snap = read_snapshot(path)
        assert snap.t == 0.75
        assert snap.gamma == 1.0
        assert snap.kappa == 0.5
        assert snap.field.grid == g
        assert np.array_equal(snap.field.values, field.values)
        write_snapshot(path, snap.field, snap.t, snap.gamma, snap.kappa)
        assert path.read_bytes() == first

    def test_header_layout(self, tmp_path):
        g = Grid(8, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, RealField(g, np.zeros((8, 8))), 0.0, 1.0, 1.0)
        raw = path.read_bytes()
        assert raw[:4] == b"SQG1"
        assert len(raw) == 44 + 8 * 8 * 8

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import sqglab.snapshot

        g = Grid(8, 1.0)
        path = tmp_path / "checkpoint.bin"
        write_snapshot(path, RealField(g, np.ones((8, 8))), 1.0, 1.0, 1.0)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes the header, then fails on the payload."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.fh.tell() > 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(sqglab.snapshot, "open",
                            lambda p, mode: DiskFull(open(p, mode)), raising=False)
        with pytest.raises(OSError):
            write_snapshot(path, RealField(g, np.zeros((8, 8))), 2.0, 1.0, 1.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("shape, fill, t, gamma, message", [
        ((8, 8), 1.0, 0.5, 1.0, "payload has 512 bytes, expected 2048"),
        ((16, 16), math.nan, 0.5, 1.0, "field values are not all finite"),
        ((16, 16), 1.0, -1.0, 1.0, "time -1.0 is negative"),
        ((16, 16), 1.0, math.nan, 1.0, "time is nan"),
        ((16, 16), 1.0, 0.5, math.nan, "gamma is nan"),
    ], ids=["mismatched field", "nan values", "negative time", "nan time",
            "nan gamma"])
    def test_a_write_that_would_read_back_refused_keeps_the_previous_file(
            self, tmp_path, shape, fill, t, gamma, message):
        # the refusal is read_snapshot's, raised before the temporary file
        # is opened
        g = Grid(16, 2 * math.pi)
        path = tmp_path / "snap.bin"
        write_snapshot(path, RealField(g, np.ones((16, 16))), 0.25, 1.0, 1.0)
        before = path.read_bytes()
        with pytest.raises(ParameterError, match=message):
            write_snapshot(path, RealField(g, np.full(shape, fill)), t, gamma, 1.0)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        g = Grid(8, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, RealField(g, np.zeros((8, 8))), 0.0, 1.0, 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_trailing_junk_rejected(self, tmp_path):
        g = Grid(8, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, RealField(g, np.zeros((8, 8))), 0.0, 1.0, 1.0)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @pytest.mark.parametrize("offset, fmt, value", [
        (8, "<I", 9),                     # odd n
        (8, "<I", 6),                     # n below 8
        (8, "<I", 2 ** 31),               # n far beyond the payload
        (12, "<d", 0.0),
        (12, "<d", -1.0),
        (12, "<d", math.inf),
        (12, "<d", math.nan),
        (12, "<d", 5e-324),               # 2 pi / L overflows
        (20, "<d", math.nan),             # t
        (20, "<d", -1.0),                 # t before any run starts
        (28, "<d", math.inf),             # gamma
        (36, "<d", -math.inf),            # kappa
        (44, "<d", math.nan),             # first field value
    ])
    def test_bad_header_or_values_rejected(self, tmp_path, offset, fmt, value):
        path = tmp_path / "snap.bin"
        write_snapshot(path, RealField(Grid(8, 1.0), np.ones((8, 8))), 0.0, 1.0, 1.0)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_subnormal_box_length_rejected(self, tmp_path):
        # zeroing the upper half of L leaves a tiny positive subnormal
        path = tmp_path / "snap.bin"
        write_snapshot(path, RealField(Grid(8, 2 * math.pi), np.ones((8, 8))),
                       0.0, 1.0, 1.0)
        raw = bytearray(path.read_bytes())
        raw[16:20] = bytes(4)
        assert 0.0 < struct.unpack_from("<d", raw, 12)[0] < 1e-300
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="box length"):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_snapshot(tmp_path / "absent.bin")
