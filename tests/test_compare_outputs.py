"""Tests for ``tools/compare_outputs.py``, the ulp comparison of two output
directories."""

import importlib.util
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from sqglab import Grid, NormSeries, RealField, write_snapshot

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_outputs(directory, nudge=None):
    """A norms.csv of three rows and one snapshot, with ``nudge`` = (file,
    index) moved one float64 up from its value, or nothing moved."""
    directory.mkdir()
    rng = np.random.default_rng(3)
    rows = np.column_stack([[0.0, 0.25, 0.5], rng.uniform(0.1, 2.0, size=(3, 6))])
    values = rng.standard_normal((8, 8))
    if nudge is not None:
        target = rows if nudge[0] == "norms.csv" else values
        target.flat[nudge[1]] = np.nextafter(target.flat[nudge[1]], math.inf)
    series = NormSeries()
    for row in rows:
        series.append(row)
    series.write_csv(directory / "norms.csv")
    write_snapshot(directory / "snap_0.500000.bin", RealField(Grid(8, 1.0), values),
                   0.5, 1.0, 1.0)
    return directory


def run(capsys, *argv):
    code = compare_outputs.main([str(a) for a in argv])
    return code, capsys.readouterr().out.splitlines()


def test_identical_directories_are_0_ulp_apart_and_pass(tmp_path, capsys):
    a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
    code, lines = run(capsys, a, b)
    assert code == 0
    columns = NormSeries().columns
    assert lines[:-1] == (
        [f"norms.csv {c} max_ulp 0 max_rel 0" for c in columns]
        + ["snap_0.500000.bin t max_ulp 0 max_rel 0",
           "snap_0.500000.bin values max_ulp 0 max_rel 0"])
    assert lines[-1].startswith("PASS: 9 columns within 0 ulp")


@pytest.mark.parametrize("nudge, line", [
    (("norms.csv", 2 * 7 + 4), "norms.csv h3_2 max_ulp 1"),  # row 3, column h3_2
    (("snap_0.500000.bin", 17), "snap_0.500000.bin values max_ulp 1"),
])
def test_a_one_ulp_nudge_is_reported_exactly(tmp_path, capsys, nudge, line):
    a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b", nudge)
    code, lines = run(capsys, a, b)
    assert code == 1
    moved = [text for text in lines if " max_ulp 1 " in text]
    assert len(moved) == 1 and moved[0].startswith(line + " max_rel ")
    rel = float(moved[0].split()[-1])
    assert 0.0 < rel <= 2.0 ** -52
    assert sum(" max_ulp 0 " in text for text in lines) == 8
    assert lines[-1].startswith("FAIL: 1 of 9 past 0 ulp")
    # a bound of one ulp passes it
    assert run(capsys, a, b, "--ulp", 1)[0] == 0


@pytest.mark.parametrize("pair, ulps", [
    ((1.0, 1.0), 0),
    ((0.0, -0.0), 0),
    ((0.0, 5e-324), 1),
    ((-5e-324, 5e-324), 2),
    ((1.0, np.nextafter(np.nextafter(1.0, 2.0), 2.0)), 2),
    ((-1.0, np.nextafter(-1.0, 0.0)), 1),
    ((math.nan, 1.0), math.inf),
])
def test_ulp_distance_counts_the_floats_between(pair, ulps):
    assert compare_outputs.distances([pair[0]], [pair[1]])[0] == ulps


def test_a_file_on_one_side_only_fails(tmp_path, capsys):
    a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
    shutil.copy(a / "snap_0.500000.bin", a / "checkpoint.bin")
    code, lines = run(capsys, a, b)
    assert code == 1
    assert f"checkpoint.bin: only under {a}" in lines
