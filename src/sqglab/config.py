"""Flat `section.key = value` run configuration with line-exact errors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import _MAX_STEPS
from .errors import ConfigError
from .initial import PRESETS


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _parse_float_list(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float(part) for part in text.split(","))


@dataclass
class RunConfig:
    # grid
    n: int = 0
    length: float = 0.0
    # dynamics
    gamma: float = 0.0
    kappa: float = 1.0
    cfl: float = 0.5
    dt_max: float = 0.05
    dt_min: float = 1e-10
    dealias: bool = True
    nonlinear: bool = True
    # time
    t_end: float = 0.0
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
    r_max: float = 10.0
    table_size: int = 256
    # output
    directory: str = "out"
    betas: tuple = field(default_factory=tuple)
    snapshot_dt: float = 0.0
    log_sampling: bool = False
    log_min: float = 1e-3
    log_per_decade: int = 10


# value rules: (test, what the key's value must do)
_POSITIVE = (lambda v: v > 0.0, "be > 0")
_NON_NEGATIVE = (lambda v: v >= 0.0, "be >= 0")
_EVEN_GRID = (lambda v: v % 2 == 0 and v >= 8, "be even and >= 8")
_GAMMA = (lambda v: 0.0 < v <= 2.0, "lie in (0, 2]")
_CFL = (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")  # SolverConfig's range
_TABLE_SIZE = (lambda v: v >= 64, "be >= 64")
_PRESET = (lambda v: v in PRESETS, f"be one of {', '.join(PRESETS)}")
# the extra norm orders 1 + beta must be >= 0
_BETAS = (lambda v: all(b >= -1.0 for b in v), "all be >= -1")


# key -> (attribute, parser, value rule or None, required)
_KEYS = {
    "grid.n": ("n", int, _EVEN_GRID, True),
    "grid.length": ("length", _parse_float, _POSITIVE, True),
    "dynamics.gamma": ("gamma", _parse_float, _GAMMA, True),
    "dynamics.kappa": ("kappa", _parse_float, _NON_NEGATIVE, False),
    "dynamics.cfl": ("cfl", _parse_float, _CFL, False),
    "dynamics.dt_max": ("dt_max", _parse_float, _POSITIVE, False),
    "dynamics.dt_min": ("dt_min", _parse_float, _POSITIVE, False),
    "dynamics.dealias": ("dealias", _parse_bool, None, False),
    "dynamics.nonlinear": ("nonlinear", _parse_bool, None, False),
    "time.t_end": ("t_end", _parse_float, _POSITIVE, True),
    "time.sample_dt": ("sample_dt", _parse_float, _POSITIVE, False),
    "time.checkpoint_dt": ("checkpoint_dt", _parse_float, _NON_NEGATIVE, False),
    "initial.preset": ("preset", str, _PRESET, False),
    "initial.seed": ("seed", int, _NON_NEGATIVE, False),
    "initial.amplitude": ("amplitude", _parse_float, None, False),
    "initial.sigma": ("sigma", _parse_float, _NON_NEGATIVE, False),
    "modulus.enabled": ("modulus_enabled", _parse_bool, None, False),
    "modulus.delta3": ("delta3", _parse_float, _POSITIVE, False),
    "modulus.r_max": ("r_max", _parse_float, _POSITIVE, False),
    "modulus.table_size": ("table_size", int, _TABLE_SIZE, False),
    "output.directory": ("directory", str, None, False),
    "output.betas": ("betas", _parse_float_list, _BETAS, False),
    "output.snapshot_dt": ("snapshot_dt", _parse_float, _NON_NEGATIVE, False),
    "output.log_sampling": ("log_sampling", _parse_bool, None, False),
    "output.log_min": ("log_min", _parse_float, _POSITIVE, False),
    "output.log_per_decade": ("log_per_decade", int, None, False),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; every failure carries its line number."""
    config = RunConfig()
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
                     _parse_bool: "boolean",
                     _parse_float_list: "list of finite numbers"}[parser]
        try:
            parsed = parser(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse {value!r} as {type_name} for key {key!r}",
                line=lineno) from None
        if rule is not None and not rule[0](parsed):
            raise ConfigError(f"{key} must {rule[1]}, got {parsed!r}", line=lineno)
        setattr(config, attr, parsed)

    missing = [key for key, (_, _, _, required) in _KEYS.items()
               if required and key not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if config.dt_min > config.dt_max:
        raise ConfigError(
            f"dynamics.dt_min = {config.dt_min} exceeds dt_max = {config.dt_max}",
            line=max(seen.get("dynamics.dt_min", 0), seen.get("dynamics.dt_max", 0)))
    _check_schedule(config, seen)
    return config


def _check_schedule(config: RunConfig, seen: dict) -> None:
    """Reject a schedule with more events than a run may take steps, before
    the driver builds it: each event takes at least one step.  The counts
    are computed, never listed, so a huge one fails at once."""
    over = [(what, keys) for what, keys, dt in (
        ("samples", ("time.t_end", "time.sample_dt"), config.sample_dt),
        ("snapshots", ("time.t_end", "output.snapshot_dt"), config.snapshot_dt),
        ("checkpoints", ("time.t_end", "time.checkpoint_dt"), config.checkpoint_dt),
    ) if dt > 0.0 and config.t_end / dt + 1e-9 >= _MAX_STEPS + 1]
    if config.log_sampling:
        decades = math.log10(config.t_end) - math.log10(config.log_min)
        # decades * per >= budget, without converting a huge per to float
        if decades >= _MAX_STEPS / max(1, config.log_per_decade):
            over.append(("log-spaced samples",
                         ("time.t_end", "output.log_sampling", "output.log_min",
                          "output.log_per_decade")))
    if over:
        what, keys = over[0]
        given = [key for key in keys if key in seen]
        raise ConfigError(
            f"{', '.join(given)}: more than {_MAX_STEPS} {what}, the step "
            f"budget of a run", line=max(seen[key] for key in given))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config(text)
