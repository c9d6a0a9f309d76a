"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps, from outside the package, every public function of the
sqglab layers listed in ``LAYERS`` plus ``NormSeries.write_csv``, and the
2-D and real-transform entry points of ``numpy.fft`` and ``scipy.fft``.
Each wrapped call appends one span ``[name, start, end, parent, note]`` to an
in-memory list; ``parent`` is the index of the enclosing span (-1 at top
level) and ``note`` holds the few call details a metric needs.  The list is
written out once, by ``dump``, when the trajectory has finished.

The package binds many names by import (``from .dynamics import step``), so
each wrapper is installed under every name, in every loaded sqglab module,
that refers to the original function.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("dynamics", "spectral", "diagnostics", "modulus", "snapshot",
          "config", "initial", "driver")
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn")
STEPPER = ("dynamics.step", "dynamics.adapt_dt")
MIB = float(1 << 20)


def _fft_bytes(args, kwargs, result):
    # computed, not measured: bytes of the input array plus the output array
    first = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return int(getattr(first, "nbytes", 0)) + int(getattr(result, "nbytes", 0))


def _step_dt(args, kwargs, result):
    dt = args[1] if len(args) > 1 else kwargs.get("dt")
    return float(dt if dt is not None else args[0].dt)


def _adapt_dt(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return [float(result), float(state.config.dt_max)]


def _check_modulus(args, kwargs, result):
    offsets = args[2] if len(args) > 2 else kwargs["offsets"]
    return [len(list(offsets)), bool(result.breached)]


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


NOTES = {
    "dynamics.step": _step_dt,
    "dynamics.adapt_dt": _adapt_dt,
    "modulus.check_modulus": _check_modulus,
    "snapshot.write_snapshot": _file_size,
}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def patch_fft(self):
        """Wrap the FFT entry points; call before sqglab is imported, so that
        names the package binds from them at import are the wrappers."""
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for name in FFT_NAMES:
                fn = getattr(module, name)
                setattr(module, name,
                        self.wrap(f"{module_name}.{name}", fn, _fft_bytes))

    def patch_sqglab(self):
        """Wrap the public functions of every layer under every bound name."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sqglab.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, NOTES.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "sqglab"
                                      or module_name.startswith("sqglab.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        series = importlib.import_module("sqglab.diagnostics").NormSeries
        series.write_csv = self.wrap("diagnostics.write_csv", series.write_csv)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def span_cost(calls=20000, repeats=5):
    """Seconds that recording one span adds to a call: a no-op called through
    a throwaway tracer's wrapper versus called directly, the median of
    ``repeats`` timings.  It leaves out the notes, so it is a lower bound."""
    def noop():
        return None

    wrapped, clock, costs = Tracer().wrap("noop", noop), time.perf_counter, []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            noop()
        middle = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - middle) - (middle - start))
    return max(statistics.median(costs), 0.0) / calls


# ---------------------------------------------------------------------------
# per-layer metrics

# busy_frac metric -> the spans whose time counts as the layer busy
_BUSY = {
    "diagnostics.busy_frac": ("diagnostics.record_norms",),
    "modulus.busy_frac": ("modulus.check_modulus", "modulus.gradient_bound_check"),
}


def _quantile(values, q):
    """Linear-interpolation quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def trajectory_summary(spans, wall_s):
    """Counts, totals and ratios of one traced trajectory, and the span
    durations in ms that a run pools across trajectories for percentiles
    (``dynamics.step.self`` holds the self times of the steps)."""
    calls = collections.Counter()
    total = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    child_time = [0.0] * len(spans)
    in_stepper = [False] * len(spans)
    fft_calls = fft_bytes = 0
    offsets, breaches, written = [], 0, 0
    last_cfl = None
    steps = cfl_limited = truncated = 0

    # a parent's index is below its children's, so one pass sees it first
    for index, (name, start, end, parent, note) in enumerate(spans):
        elapsed = end - start
        calls[name] += 1
        total[name] += elapsed
        durations[name].append(1e3 * elapsed)
        if parent >= 0:
            child_time[parent] += elapsed
            in_stepper[index] = in_stepper[parent]
        if name in STEPPER:
            in_stepper[index] = True
        if name.startswith(FFT_MODULES):
            if in_stepper[index]:
                fft_calls += 1
                fft_bytes += note
        elif name == "modulus.check_modulus":
            offsets.append(note[0])
            breaches += note[1]
        elif name == "snapshot.write_snapshot":
            written += note
        elif name == "dynamics.adapt_dt":
            last_cfl = note
        elif name == "dynamics.step":
            steps += 1
            # run_until steps by min(adapt_dt, time to the next scheduled event)
            if last_cfl is not None:
                dt_cfl, dt_max = last_cfl
                if note < dt_cfl:
                    truncated += 1
                elif dt_cfl < dt_max:
                    cfl_limited += 1
            last_cfl = None

    durations["dynamics.step.self"] = [
        1e3 * (end - start - child_time[index])
        for index, (name, start, end, _, _) in enumerate(spans)
        if name == "dynamics.step"]
    per_step = max(steps, 1)
    metrics = {}
    for name, count in calls.items():
        metrics[f"{name}.calls"] = float(count)
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.ms"] = 1e3 * total[name]
    metrics.update({key: sum(total[span] for span in names) / wall_s
                    for key, names in _BUSY.items()})
    metrics.update({
        "dynamics.cfl_limited_frac": cfl_limited / per_step,
        "dynamics.truncated_step_frac": truncated / per_step,
        "spectral.transforms_per_step": fft_calls / per_step,
        "spectral.transform_mb_per_step": fft_bytes / per_step / MIB,
        "modulus.offsets_per_check": statistics.median(offsets) if offsets else 0.0,
        "modulus.breaches": float(breaches),
        "snapshot.mb_written": written / MIB,
    })
    return metrics, durations


def layer_metrics(summaries, overhead_frac, per_layer):
    """The metrics of ``per_layer`` (BENCHMARK.json's list, in its order) for
    one run: ``ms_p50``/``ms_p90`` are percentiles of span durations pooled
    over the traced trajectories, the rest are medians of per-trajectory
    values.  A layer that never ran reads 0."""
    pooled = collections.defaultdict(list)
    for _, durations in summaries:
        for name, values in durations.items():
            pooled[name].extend(values)
    percentiles = {"ms_p50": 0.5, "ms_p90": 0.9, "self_ms_p50": 0.5}
    out = {}
    for metric in per_layer:
        key = metric["name"]
        span, _, stat = key.rpartition(".")
        if key == "trace.overhead_frac":
            value = overhead_frac
        elif stat in percentiles:
            span += ".self" if stat.startswith("self") else ""
            value = _quantile(pooled[span], percentiles[stat])
        else:
            value = statistics.median(m.get(key, 0.0) for m, _ in summaries)
        out[key] = {"value": value, "unit": metric["unit"]}
    return out
