"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--trace 0|1] [--write perfbench/baseline]

Run from the root of a source tree.  For every workload and seed it runs
``run.py`` (with ``run_seconds`` from BENCHMARK.json), keeps the result line,
and prints, per metric, the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  With ``--write DIR`` it stores one JSON file per workload
(and trace mode) holding every result line, the summary and the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
        }
    return summary


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="directory for the summary files")
    args = parser.parse_args(argv)

    for name in (w["name"] for w in spec["workloads"]):
        results, env = [], None
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), env)
            results.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = summarise(results)
        for metric, s in summary.items():
            print(f"  {metric}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f}")
        if args.write:
            out = Path(args.write)
            out.mkdir(parents=True, exist_ok=True)
            suffix = "-traced" if args.trace else ""
            (out / f"{name}{suffix}.json").write_text(json.dumps({
                "workload": name, "trace": args.trace, "run_seconds": spec["run_seconds"],
                "env": env, "summary": summary, "runs": results,
            }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
