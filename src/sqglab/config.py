"""Flat `section.key = value` run configuration with line-exact errors."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagnostics import _BETAS
from .dynamics import _MAX_STEPS, _RULES, SolverConfig, _event_times
from .errors import ConfigError, ParameterError
from .initial import _SIGMA, PRESETS
from .modulus import _RULES as _MODULUS_RULES, _unbacked
from .spectral import _LENGTH, _SIZE, _SPAN


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
    r_max: float = 10.0
    # output
    directory: str = "out"
    betas: tuple = ()
    snapshot_dt: float = 0.0
    log_sampling: bool = False
    log_min: float = 1e-3
    log_per_decade: int = 10


# value rules: (test, what the key's value must do)
_POSITIVE = (lambda v: v > 0.0, "be > 0")
_NON_NEGATIVE = (lambda v: v >= 0.0, "be >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "be >= 1")
_PRESET = (lambda v: v in PRESETS, f"be one of {', '.join(PRESETS)}")


# key -> (attribute, parser, value rule or None, required); the grid,
# dynamics, initial.sigma, modulus and output.betas keys reuse the rules and
# attribute names of Grid, SolverConfig, make_initial, build_knv_modulus and
# NormSeries
_KEYS = {
    "grid.n": ("n", int, _SIZE, True),
    "grid.length": ("length", _parse_float, _LENGTH, True),
    "dynamics.gamma": ("gamma", _parse_float, _RULES["gamma"], True),
    "dynamics.kappa": ("kappa", _parse_float, _RULES["kappa"], False),
    "dynamics.cfl": ("cfl", _parse_float, _RULES["cfl"], False),
    "dynamics.dt_max": ("dt_max", _parse_float, _POSITIVE, False),
    "dynamics.dt_min": ("dt_min", _parse_float, _RULES["dt_min"], False),
    "dynamics.nonlinear": ("nonlinear_enabled", _parse_bool, None, False),
    "time.t_end": ("t_end", _parse_float, _POSITIVE, True),
    "time.sample_dt": ("sample_dt", _parse_float, _POSITIVE, False),
    "time.checkpoint_dt": ("checkpoint_dt", _parse_float, _NON_NEGATIVE, False),
    "initial.preset": ("preset", str, _PRESET, False),
    "initial.seed": ("seed", int, _NON_NEGATIVE, False),
    "initial.amplitude": ("amplitude", _parse_float, None, False),
    "initial.sigma": ("sigma", _parse_float, _SIGMA, False),
    "modulus.enabled": ("modulus_enabled", _parse_bool, None, False),
    "modulus.delta3": ("delta3", _parse_float, _MODULUS_RULES["delta3"], False),
    "modulus.r_max": ("r_max", _parse_float, _MODULUS_RULES["r_max"], False),
    "output.directory": ("directory", str, None, False),
    "output.betas": ("betas", _parse_float_list, _BETAS, False),
    "output.snapshot_dt": ("snapshot_dt", _parse_float, _NON_NEGATIVE, False),
    "output.log_sampling": ("log_sampling", _parse_bool, None, False),
    "output.log_min": ("log_min", _parse_float, _POSITIVE, False),
    "output.log_per_decade": ("log_per_decade", int, _AT_LEAST_ONE, False),
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
    try:
        solver = SolverConfig(**dynamics)
    except ParameterError as exc:
        # the value rules leave only the pair dt_min <= dt_max to fail here
        raise ConfigError(f"dynamics.{exc}", line=max(
            seen.get("dynamics.dt_min", 0), seen.get("dynamics.dt_max", 0))) from None
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


def _log_times(config: RunConfig) -> list:
    if not config.log_sampling:
        return []
    per = config.log_per_decade
    decades = math.log10(config.t_end) - math.log10(config.log_min)
    count = int(math.ceil(decades * per)) + 1
    return [config.log_min * 10.0 ** (j / per) for j in range(count + 1)]


def _schedule(config: RunConfig) -> dict[float, set]:
    """Event times in increasing order, each mapped to its kinds: "sample"
    on the sample_dt grid, at the optional log-spaced times and at t_end,
    "snapshot" and "checkpoint" on their cadences.  Times are merged as
    ``run_until`` merges its callback times, so no two events fall on the
    same state and the run ends at t_end.
    """
    end = float(config.t_end)
    wanted = [(t, "sample") for t in
              _cadence_times(config.sample_dt, end) + _log_times(config) + [end]]
    wanted += [(t, "snapshot") for t in _cadence_times(config.snapshot_dt, end)]
    wanted += [(t, "checkpoint")
               for t in _cadence_times(config.checkpoint_dt, end)]
    at = _event_times([t for t, _ in wanted], end)
    events: dict[float, set] = {}
    for t, kind in sorted(wanted):
        events.setdefault(at[t], set()).add(kind)
    return events


def _check_schedule(config: RunConfig, seen: dict) -> None:
    """Reject a schedule with more events than a run may take steps, before
    ``_schedule`` builds it: each event takes at least one step.  The counts
    are computed, never listed, so a huge one fails at once.  Then reject
    snapshots closer than their file names (``snap_{t:.6f}.bin``) resolve."""
    over = [(what, keys) for what, keys, dt in (
        ("samples", ("time.t_end", "time.sample_dt"), config.sample_dt),
        ("snapshots", ("time.t_end", "output.snapshot_dt"), config.snapshot_dt),
        ("checkpoints", ("time.t_end", "time.checkpoint_dt"), config.checkpoint_dt),
    ) if _cadence_count(dt, config.t_end) > _MAX_STEPS]
    if config.log_sampling:
        decades = math.log10(config.t_end) - math.log10(config.log_min)
        # decades * per >= budget, without converting a huge per to float
        if decades >= _MAX_STEPS / config.log_per_decade:
            over.append(("log-spaced samples",
                         ("time.t_end", "output.log_sampling", "output.log_min",
                          "output.log_per_decade")))
    if over:
        what, keys = over[0]
        given = [key for key in keys if key in seen]
        raise ConfigError(
            f"{', '.join(given)}: more than {_MAX_STEPS} {what}, the step "
            f"budget of a run", line=max(seen[key] for key in given))
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
