"""Flat `section.key = value` run configuration with line-exact errors."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import _MAX_STEPS, _RULES, SolverConfig, _event_times
from .errors import ConfigError
from .initial import _SIGMA, PRESETS
from .modulus import _RULES as _MODULUS_RULES, _unbacked
from .spectral import _LENGTH, _SIZE, _SPAN


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "on", "yes", "1", "false", "off", "no", "0"):
        raise ValueError(f"not a boolean: {text!r}")
    return lowered in ("true", "on", "yes", "1")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


@dataclass
class RunConfig:
    # grid
    n: int
    length: float
    # dynamics, with SolverConfig's defaults
    solver: SolverConfig
    # time
    t_end: float
    sample_dt: float = 0.25
    checkpoint_dt: float = 0.0
    # initial
    preset: str = "single_mode"
    seed: int = 0
    amplitude: float = 1.0
    sigma: float = 0.0
    # modulus
    modulus_enabled: bool = False
    delta3: float = 0.1
    # output
    directory: str = "out"
    snapshot_dt: float = 0.0


# value rules: (test, what the key's value must do)
_POSITIVE = (lambda v: v > 0.0, "be > 0")
_NON_NEGATIVE = (lambda v: v >= 0.0, "be >= 0")
_PRESET = (lambda v: v in PRESETS, f"be one of {', '.join(PRESETS)}")


# key -> (attribute, parser, value rule or None, required); the grid,
# dynamics, initial.sigma and modulus keys reuse the rules and attribute
# names of Grid, SolverConfig, make_initial and build_knv_modulus
_KEYS = {
    "grid.n": ("n", int, _SIZE, True),
    "grid.length": ("length", _parse_float, _LENGTH, True),
    "dynamics.gamma": ("gamma", _parse_float, _RULES["gamma"], True),
    "dynamics.kappa": ("kappa", _parse_float, _RULES["kappa"], False),
    "dynamics.cfl": ("cfl", _parse_float, _RULES["cfl"], False),
    "dynamics.dt_max": ("dt_max", _parse_float, _RULES["dt_max"], False),
    "time.t_end": ("t_end", _parse_float, _POSITIVE, True),
    "time.sample_dt": ("sample_dt", _parse_float, _POSITIVE, False),
    "time.checkpoint_dt": ("checkpoint_dt", _parse_float, _NON_NEGATIVE, False),
    "initial.preset": ("preset", str, _PRESET, False),
    "initial.seed": ("seed", int, _NON_NEGATIVE, False),
    "initial.amplitude": ("amplitude", _parse_float, None, False),
    "initial.sigma": ("sigma", _parse_float, _SIGMA, False),
    "modulus.enabled": ("modulus_enabled", _parse_bool, None, False),
    "modulus.delta3": ("delta3", _parse_float, _MODULUS_RULES["delta3"], False),
    "output.directory": ("directory", str, None, False),
    "output.snapshot_dt": ("snapshot_dt", _parse_float, _NON_NEGATIVE, False),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; every failure carries its line number."""
    values, dynamics = {}, {}
    seen = {}  # key -> line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw.strip()!r}",
                              line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        seen[key] = lineno
        attr, parser, rule, _ = _KEYS[key]
        type_name = {int: "integer", _parse_float: "finite number", str: "string",
                     _parse_bool: "boolean"}[parser]
        try:
            parsed = parser(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse {value!r} as {type_name} for key {key!r}",
                line=lineno) from None
        if rule is not None and not rule[0](parsed):
            raise ConfigError(f"{key} must {rule[1]}, got {parsed!r}", line=lineno)
        (dynamics if key.startswith("dynamics.") else values)[attr] = parsed

    missing = [key for key, (_, _, _, required) in _KEYS.items()
               if required and key not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    n, length = values["n"], values["length"]
    if not _SPAN[0](n, length):
        raise ConfigError(
            f"grid.n and grid.length must {_SPAN[1]}, got n = {n}, L = {length!r}",
            line=max(seen["grid.n"], seen["grid.length"]))
    solver = SolverConfig(**dynamics)
    bad = _unbacked(solver.gamma, solver.kappa)
    if bad and values.get("modulus_enabled"):
        raise ConfigError(f"dynamics.{bad[1]}", line=seen[f"dynamics.{bad[0]}"])
    config = RunConfig(solver=solver, **values)
    _check_schedule(config, seen)
    return config


def _cadence_count(dt: float, t_end: float) -> int:
    """How many multiples of dt lie in (0, t_end], forgiving the rounding of
    t_end; 0 when dt is 0 (off).  The count is computed, never listed, and
    capped one past the step budget, so a huge one costs nothing."""
    if dt <= 0.0:
        return 0
    return math.floor(min(t_end / dt + 1e-9, _MAX_STEPS + 1))


def _cadence_times(dt: float, t_end: float) -> list:
    return [i * dt for i in range(1, _cadence_count(dt, t_end) + 1)]


def _schedule(config: RunConfig, start: float = 0.0) -> dict[float, set]:
    """A run's events from ``start`` on, in increasing order, each mapped to
    its kinds: "sample" at 0, on the sample_dt grid and at t_end, "snapshot"
    and "checkpoint" on their cadences.  The times and ``start`` merge as
    ``run_until`` merges callback times, so no two events fall on one state,
    the run ends at t_end, and the first event is the start's own, with the
    kinds merged there (maybe none).
    """
    end = float(config.t_end)
    wanted = [(t, "sample") for t in
              [0.0] + _cadence_times(config.sample_dt, end) + [end]]
    wanted += [(t, "snapshot") for t in _cadence_times(config.snapshot_dt, end)]
    wanted += [(t, "checkpoint")
               for t in _cadence_times(config.checkpoint_dt, end)]
    at = _event_times([start] + [t for t, _ in wanted], end)
    events: dict[float, set] = {at[start]: set()}
    for t, kind in sorted(wanted):
        if at[t] >= at[start]:
            events.setdefault(at[t], set()).add(kind)
    return events


def _check_schedule(config: RunConfig, seen: dict) -> None:
    """Reject a schedule with more events than a run may take steps, before
    ``_schedule`` builds it: each event takes at least one step.  The counts
    are computed, never listed, so a huge one fails at once.  Then reject
    snapshots closer than their file names (``snap_{t:.6f}.bin``) resolve."""
    for what, key, dt in (
        ("samples", "time.sample_dt", config.sample_dt),
        ("snapshots", "output.snapshot_dt", config.snapshot_dt),
        ("checkpoints", "time.checkpoint_dt", config.checkpoint_dt),
    ):
        if _cadence_count(dt, config.t_end) > _MAX_STEPS:
            given = [k for k in ("time.t_end", key) if k in seen]
            raise ConfigError(
                f"{', '.join(given)}: more than {_MAX_STEPS} {what}, the step "
                f"budget of a run", line=max(seen[k] for k in given))
    if 0.0 < config.snapshot_dt < 1e-6:
        raise ConfigError(f"output.snapshot_dt must be 0 or >= 1e-6, the resolution "
                          f"of the snapshot file names, got {config.snapshot_dt!r}",
                          line=seen["output.snapshot_dt"])


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config(text)
