"""Exception types shared across the package."""


class SqgError(Exception):
    """Base class for all package errors."""


class ParameterError(SqgError, ValueError):
    """A parameter or data is outside its admissible range or domain: field
    values that are non-finite or misshapen, a lookup outside a table, or an
    object that cannot be built with the required properties."""


class BlowUpError(SqgError, ArithmeticError):
    """The solution developed non-finite coefficients."""

    def __init__(self, t, step_count, mode):
        self.t = float(t)
        self.step_count = int(step_count)
        self.mode = tuple(int(m) for m in mode)
        super().__init__(
            f"non-finite coefficients at t = {self.t:.6g} "
            f"(step {self.step_count}), largest offending mode {self.mode}"
        )


class BudgetError(SqgError, RuntimeError):
    """A step-count or problem-size budget was exceeded."""


class ConfigError(SqgError, ValueError):
    """Invalid run configuration.

    ``line`` is the 1-based line number in the config text when the error
    can be attributed to a specific line, else None.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SnapshotFormatError(SqgError, ValueError):
    """A snapshot file has a bad magic number, version, or payload size."""
