"""Tests for config parsing and snapshot serialization."""

import errno
import math
import struct

import numpy as np
import pytest

from sqglab import (
    ConfigError,
    Grid,
    RealField,
    SnapshotFormatError,
    parse_config,
    read_snapshot,
    write_snapshot,
)

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
        assert config.gamma == 1.0
        assert config.kappa == 1.0
        assert config.cfl == 0.5
        assert config.sample_dt == 0.25
        assert config.preset == "single_mode"
        assert config.dealias is True
        assert config.betas == ()

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

    def test_booleans_and_lists(self):
        text = MINIMAL + (
            "dynamics.dealias = off\n"
            "output.log_sampling = true\n"
            "output.betas = 0.5, 1.0\n"
        )
        config = parse_config(text)
        assert config.dealias is False
        assert config.log_sampling is True
        assert config.betas == (0.5, 1.0)

    def test_bad_boolean(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "dynamics.dealias = maybe\n")
        assert "boolean" in str(err.value)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "initial.preset = vortex\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "just some words\n")
        assert err.value.line == 6

    @pytest.mark.parametrize("size, ok", [("32", False), ("63", False), ("64", True)])
    def test_table_size_at_least_64(self, size, ok):
        text = MINIMAL + f"modulus.table_size = {size}\n"
        if ok:
            assert parse_config(text).table_size == 64
        else:
            with pytest.raises(ConfigError, match="table_size") as err:
                parse_config(text)
            assert err.value.line == 6

    def test_odd_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("grid.n = 64", "grid.n = 63"))


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
