"""Exception types shared across the package; each extends a builtin error."""


class ParameterError(ValueError):
    """A parameter or data is outside its admissible range or domain: field
    values that are non-finite or misshapen, a lookup outside a table, or an
    object that cannot be built with the required properties."""


def _check(rule, name: str, *values, got=None) -> None:
    """Raise ParameterError "{name} must {what}, got {got}" unless the value
    rule (test, what) holds for ``values``; ``got`` defaults to the value."""
    test, what = rule
    if not test(*values):
        raise ParameterError(f"{name} must {what}, got {values[0] if got is None else got}")


class BlowUpError(ArithmeticError):
    """The solution became non-finite: its coefficients, with ``mode`` the
    largest offending mode, or else (``mode`` None) the norm ``norm``."""

    def __init__(self, t, step_count, mode=None, norm=None):
        self.t = float(t)
        self.step_count = int(step_count)
        self.mode = None if mode is None else tuple(int(m) for m in mode)
        at = f"at t = {self.t:.6g} (step {self.step_count})"
        super().__init__(
            f"non-finite norm {norm!r} {at}" if self.mode is None else
            f"non-finite coefficients {at}, largest offending mode {self.mode}")


class BudgetError(RuntimeError):
    """A run exceeded its step budget."""


class ConfigError(ValueError):
    """Invalid run configuration.

    ``line`` is the 1-based line number in the config text when the error
    can be attributed to a specific line, else None.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SnapshotFormatError(ValueError):
    """A snapshot file is not a whole snapshot: a bad magic number, version
    or payload size, non-finite values, or a grid that cannot be built."""
