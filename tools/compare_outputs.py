"""Compare two sqglab output directories value by value, in ulps.

    python tools/compare_outputs.py DIR_A DIR_B [--ulp N]

Every ``norms.csv`` and every ``.bin`` snapshot under DIR_A is paired with
the file at the same relative path under DIR_B.  For each ``norms.csv``
column, and for each snapshot's time and field values, it prints one line:

    <file> <column> max_ulp <N> max_rel <R>

the largest distance in units in the last place (the count of float64
values between the two, so +0.0 and -0.0 are 0 apart; use ``cmp`` for
bits) and the largest |a - b| / max(|a|, |b|).  The last line is the
verdict.  It exits 0 when every value lies within ``--ulp`` (default 0);
the relative difference is printed for information only.  It exits 1 when
a value lies further apart, or when the two directories do not hold the
same files, headers, row counts or grid sizes.  Snapshots are read with ``sqglab.read_snapshot``, so ``src`` must
be importable (``PYTHONPATH=src``).
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

_SIGN = np.int64(-(2 ** 63))


def _ordered(x: np.ndarray) -> list[int]:
    """float64 values as integers in the order of the floats, one apart
    for neighbours: the bit pattern, mirrored for negative values."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, _SIGN - bits, bits).tolist()


def distances(a, b) -> tuple[float, float]:
    """(largest ulp distance, largest relative difference) of two equally
    shaped float arrays; inf where only one of a pair is NaN."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0, 0.0
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if np.any(nan_a != nan_b):
        return math.inf, math.inf
    a, b = a[~nan_a], b[~nan_b]
    ulp = max((abs(x - y) for x, y in zip(_ordered(a), _ordered(b))), default=0)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(a == b, 0.0, np.abs(a - b) / np.where(scale > 0, scale, 1.0))
    rel = float(np.nan_to_num(rel, nan=math.inf).max(initial=0.0))
    return float(ulp), rel


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def _compare_csv(name, a: Path, b: Path):
    """(file, column, ulp, rel) per column, or a reason they do not pair."""
    (head_a, rows_a), (head_b, rows_b) = _read_csv(a), _read_csv(b)
    if head_a != head_b:
        return f"{name}: headers differ: {head_a} against {head_b}"
    if rows_a.shape != rows_b.shape:
        return f"{name}: {len(rows_a)} rows against {len(rows_b)}"
    return [(name, column, *distances(rows_a[:, j], rows_b[:, j]))
            for j, column in enumerate(head_a)]


def _compare_snapshot(name, a: Path, b: Path):
    from sqglab import read_snapshot

    snap_a, snap_b = read_snapshot(a), read_snapshot(b)
    if snap_a.field.values.shape != snap_b.field.values.shape:
        return (f"{name}: grids of {snap_a.field.grid.n} and "
                f"{snap_b.field.grid.n} points a side")
    return [(name, "t", *distances(snap_a.t, snap_b.t)),
            (name, "values", *distances(snap_a.field.values, snap_b.field.values))]


def compare(dir_a: Path, dir_b: Path):
    """(rows, problems): a (file, column, ulp, rel) row per compared column,
    and a line for each file that cannot be paired."""
    def files(root):
        return {p.relative_to(root).as_posix() for pattern in ("norms.csv", "*.bin")
                for p in root.rglob(pattern)}

    names_a, names_b = files(dir_a), files(dir_b)
    problems = [f"{name}: only under {where}"
                for name, where in sorted([(n, dir_a) for n in names_a - names_b]
                                          + [(n, dir_b) for n in names_b - names_a])]
    if not names_a | names_b:
        problems.append(f"no norms.csv or .bin file under {dir_a} or {dir_b}")
    rows = []
    for name in sorted(names_a & names_b):
        pair = _compare_csv if name.endswith(".csv") else _compare_snapshot
        result = pair(name, dir_a / name, dir_b / name)
        if isinstance(result, str):
            problems.append(result)
        else:
            rows.extend(result)
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sqglab output directories in ulps.")
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--ulp", type=float, default=0.0,
                        help="largest ulp distance allowed (default 0)")
    args = parser.parse_args(argv)

    rows, problems = compare(args.dir_a, args.dir_b)
    failed = list(problems)
    for name, column, ulp, rel in rows:
        print(f"{name} {column} max_ulp {ulp:.0f} max_rel {rel:.3g}")
        if not ulp <= args.ulp:
            failed.append(f"{name} {column}")
    for problem in problems:
        print(problem)
    worst = max((row[2] for row in rows), default=0.0)
    bound = f"{args.ulp:g} ulp"
    if failed:
        print(f"FAIL: {len(failed)} of {len(rows) + len(problems)} past {bound} "
              f"(largest {worst:.0f} ulp)")
        return 1
    print(f"PASS: {len(rows)} columns within {bound} (largest {worst:.0f} ulp)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
