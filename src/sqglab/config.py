"""Flat `section.key = value` run configuration with line-exact errors."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .initial import PRESETS


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


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


def _gamma_range(value: float):
    if not 0.0 < value <= 2.0:
        raise ValueError(f"gamma must lie in (0, 2], got {value}")


def _positive(name):
    def check(value):
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")
    return check


def _non_negative(name):
    def check(value):
        if value < 0.0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return check


def _even_grid(value: int):
    if value % 2 != 0 or value < 8:
        raise ValueError(f"grid.n must be even and >= 8, got {value}")


def _table_size(value: int):
    if value < 64:
        raise ValueError(f"modulus.table_size must be >= 64, got {value}")


def _known_preset(value: str):
    if value not in PRESETS:
        raise ValueError(
            f"unknown preset {value!r}; choose from {', '.join(PRESETS)}")


# key -> (attribute, parser, validator or None, required)
_KEYS = {
    "grid.n": ("n", int, _even_grid, True),
    "grid.length": ("length", float, _positive("grid.length"), True),
    "dynamics.gamma": ("gamma", float, _gamma_range, True),
    "dynamics.kappa": ("kappa", float, _non_negative("dynamics.kappa"), False),
    "dynamics.cfl": ("cfl", float, _positive("dynamics.cfl"), False),
    "dynamics.dt_max": ("dt_max", float, _positive("dynamics.dt_max"), False),
    "dynamics.dt_min": ("dt_min", float, _positive("dynamics.dt_min"), False),
    "dynamics.dealias": ("dealias", _parse_bool, None, False),
    "dynamics.nonlinear": ("nonlinear", _parse_bool, None, False),
    "time.t_end": ("t_end", float, _positive("time.t_end"), True),
    "time.sample_dt": ("sample_dt", float, _positive("time.sample_dt"), False),
    "time.checkpoint_dt": ("checkpoint_dt", float, _non_negative("time.checkpoint_dt"), False),
    "initial.preset": ("preset", str, _known_preset, False),
    "initial.seed": ("seed", int, None, False),
    "initial.amplitude": ("amplitude", float, None, False),
    "initial.sigma": ("sigma", float, _non_negative("initial.sigma"), False),
    "modulus.enabled": ("modulus_enabled", _parse_bool, None, False),
    "modulus.delta3": ("delta3", float, _positive("modulus.delta3"), False),
    "modulus.r_max": ("r_max", float, _positive("modulus.r_max"), False),
    "modulus.table_size": ("table_size", int, _table_size, False),
    "output.directory": ("directory", str, None, False),
    "output.betas": ("betas", _parse_float_list, None, False),
    "output.snapshot_dt": ("snapshot_dt", float, _non_negative("output.snapshot_dt"), False),
    "output.log_sampling": ("log_sampling", _parse_bool, None, False),
    "output.log_min": ("log_min", float, _positive("output.log_min"), False),
    "output.log_per_decade": ("log_per_decade", int, None, False),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; every failure carries its line number."""
    config = RunConfig()
    seen = set()
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
        seen.add(key)
        attr, parser, validator, _ = _KEYS[key]
        type_name = {int: "integer", float: "number", str: "string",
                     _parse_bool: "boolean", _parse_float_list: "number list"}[parser]
        try:
            parsed = parser(value)
        except ValueError:
            raise ConfigError(
                f"cannot parse {value!r} as {type_name} for key {key!r}",
                line=lineno) from None
        if validator is not None:
            try:
                validator(parsed)
            except ValueError as exc:
                raise ConfigError(str(exc), line=lineno) from None
        setattr(config, attr, parsed)

    missing = [key for key, (_, _, _, required) in _KEYS.items()
               if required and key not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if config.dt_min > config.dt_max:
        raise ConfigError(
            f"dynamics.dt_min = {config.dt_min} exceeds dt_max = {config.dt_max}")
    return config


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
