"""sqglab benchmark: seeded trajectory workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Each trajectory runs in a fresh child
process (``workload.py``), one at a time, with BLAS/OpenMP pinned to one
thread.  After ``MIN_TRAJECTORIES`` the harness starts another only while
one of median length still ends within ``--seconds``, and it reports
medians over the trajectories.  With ``--trace 0`` the trajectories are
untraced and the end-to-end metrics are reported; with ``--trace 1`` they
are traced and the per-layer metrics are reported.  The names, units and
order of both come from ``BENCHMARK.json``.

After the timed trajectories, and untimed, the harness checks every
trajectory's outputs and runs the convolution oracle for the seed; the
count of failed checks goes into ``failed`` and ``failed_frac``.  The last
line of standard output is the JSON result; a fuller record, with the
environment and every trajectory, is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_TRAJECTORIES = 3
CHILD_TIMEOUT_S = 60.0
# one process, one thread for BLAS and OpenMP; recorded with every result
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workload  # noqa: E402


def run_trajectory(name, seed, index, out, traced):
    """Run one trajectory in a child process; return its result record, with
    ``error`` set when the child failed."""
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "SQG_OUTPUT_DIR"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    with open(out / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), name, str(seed), str(index),
             str(out), repr(t_spawn), "1" if traced else "0"],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    result_path = out / "result.json"
    if code != 0 or not result_path.exists():
        tail = (out / "child.log").read_text(errors="replace")[-2000:]
        return {"error": f"exit {code}: {tail}", "out": out}
    record = json.loads(result_path.read_text())
    record["out"] = out
    return record


# ---------------------------------------------------------------------------
# correctness checks (untimed)


def read_norms(path):
    lines = Path(path).read_text().splitlines()
    columns = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return columns, rows, lines[1:]


def check_cmt(record, reference):
    columns, rows, _ = read_norms(record["out"] / "norms.csv")
    linf = [row[columns.index("linf")] for row in rows]
    rise = max(b - a for a, b in zip(linf, linf[1:]))
    checks = [("linf_rise", rise <= 1e-4, f"worst Linf rise {rise:.3e} <= 1e-4")]
    if record is reference:
        return checks
    if "error" in reference:
        checks.append(("translation", False, "untranslated trajectory failed"))
        return checks
    _, ref_rows, _ = read_norms(reference["out"] / "norms.csv")
    # t and the grid sup (which includes the roundoff mean) are left out;
    # the sup of the mean-free final field stands in for the latter
    keep = [j for j, c in enumerate(columns) if c not in ("t", "linf")]
    final = [rows[-1][j] for j in keep] + [record["linf_mean_free"]]
    ref = [ref_rows[-1][j] for j in keep] + [reference["linf_mean_free"]]
    rel = max(abs(a - b) / abs(b) for a, b in zip(final, ref))
    checks.append(("translation", len(rows) == len(ref_rows) and rel <= 1e-10,
                   f"final norms vs untranslated: rel {rel:.3e} <= 1e-10"))
    return checks


def check_rough(record, reference):
    from sqglab.diagnostics import NormSeries, fit_decay_exponent

    series = NormSeries.read_csv(record["out"] / "norms.csv")
    checks = []
    for beta in (0.5, 1.0):
        fit = fit_decay_exponent(series, f"h1+{beta:g}", (1e-3, 1e-1))
        ok = -beta - 0.3 <= fit.alpha <= 0.0
        checks.append((f"alpha_beta{beta:g}", ok,
                       f"alpha {fit.alpha:.4f} in [{-beta - 0.3:.2f}, 0]"))
    return checks


def check_cli(record, reference):
    codes = record["exit_codes"]
    checks = [("exit_codes", codes == [0, 0], f"exit codes {codes}")]
    expected = int(round(workload.CLI_T_END / 0.05)) + 1  # time.sample_dt
    _, full, full_lines = read_norms(record["out"] / "full" / "norms.csv")
    checks.append(("row_count", len(full) == expected,
                   f"{len(full)} norms rows, expected {expected}"))
    _, _, resumed_lines = read_norms(record["out"] / "restart" / "norms.csv")
    half = workload.CLI_T_END / 2
    tail = [line for row, line in zip(full, full_lines) if row[0] >= half - 1e-9]
    checks.append(("restart", bool(tail) and resumed_lines == tail,
                   f"restart reproduces {len(tail)} rows bit for bit"))
    return checks


def check_oracle(seed):
    """nonlinear_term against the brute-force convolution sum at n = 16."""
    import numpy as np
    from sqglab import Grid, band_limited_random, convolution_nonlinearity, nonlinear_term

    grid = Grid(16, 2.0 * math.pi)
    theta = band_limited_random(grid, seed=seed, max_mode=5, amplitude=1.0)
    direct = convolution_nonlinearity(theta).coeffs
    pseudo = nonlinear_term(theta).coeffs
    rel = float(np.max(np.abs(direct - pseudo)) / np.max(np.abs(direct)))
    return ("convolution_oracle", rel <= 1e-10, f"rel {rel:.3e} <= 1e-10")


CHECKS = {
    "cmt128_decay": check_cmt,
    "rough256_smoothing": check_rough,
    "monitored128_cli": check_cli,
}


def run_checks(name, seed, records):
    """Every check as (label, passed, detail); a check that raises fails.
    The first trajectory is the reference the cmt translation check uses."""
    checks = []
    reference = records[0]
    for record in records:
        if "error" in record:
            checks.append(("trajectory", False, record["error"]))
            continue
        try:
            checks.extend(CHECKS[name](record, reference))
        except Exception as exc:  # a broken output fails its check
            checks.append(("outputs", False, repr(exc)))
    try:
        checks.append(check_oracle(seed))
    except Exception as exc:
        checks.append(("convolution_oracle", False, repr(exc)))
    return checks


# ---------------------------------------------------------------------------
# environment


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/size")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------


def end_to_end(records):
    ok = [r for r in records if "error" not in r]
    if not ok:
        return {}
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "sim_t_per_s": statistics.median(
            r["sim_time"] / (r["wall_s"] - r["setup_s"]) for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


def per_layer(records):
    ok = [r for r in records if "error" not in r]
    if not ok:
        return {}
    summaries = []
    for r in ok:
        with open(r["out"] / "spans.json", encoding="utf-8") as fh:
            summaries.append(spans.trajectory_summary(json.load(fh), r["wall_s"]))
    # the wrappers' own cost within the traced wall time
    overhead = statistics.median(
        r["trace_cost_s"] / (r["wall_s"] - r["trace_cost_s"]) for r in ok)
    return spans.layer_metrics(summaries, overhead, SPEC["per_layer"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqglab" / "__init__.py").is_file():
        print(f"error: no sqglab sources under {SRC}; run from the source tree root",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    records = []
    start = time.monotonic()
    # after the minimum, start another trajectory only while a typical one
    # still ends within --seconds
    durations = []
    while len(records) < MIN_TRAJECTORIES or (
            time.monotonic() - start + statistics.median(durations) <= args.seconds):
        began = time.monotonic()
        records.append(run_trajectory(args.workload, args.seed, len(records),
                                      work / f"t{len(records)}", bool(args.trace)))
        durations.append(time.monotonic() - began)
    measured_s = time.monotonic() - start

    sys.path.insert(0, str(SRC))
    checks = run_checks(args.workload, args.seed, records)
    failed = sum(not ok for _, ok, _ in checks)
    metrics = per_layer(records) if args.trace else end_to_end(records)
    if not metrics:
        for record in records:
            print(record.get("error", ""), file=sys.stderr)
        print("error: no trajectory completed", file=sys.stderr)
        return 1
    env = environment()

    for label, ok, detail in checks:
        print(f"check {label}: {'pass' if ok else 'FAIL'} ({detail})")
    print(f"{args.workload} seed {args.seed}: {len(records)} trajectories "
          f"in {measured_s:.1f} s")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {failed / len(checks):.6g} ratio")
    print("env " + json.dumps(env, sort_keys=True))

    trajectories = [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()}
                    for r in records]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "trajectories": trajectories,
        "checks": checks, "metrics": metrics,
    }, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
