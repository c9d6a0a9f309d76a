"""Norm time series, decay-exponent fits, and boundedness checks.

The series records, at each sample time, the grid sup norm, the L^2 norm,
the homogeneous Sobolev norms of order 1, 3/2 and 2 plus any configured
extra orders 1 + beta, and the sup of |grad theta|.  Serialization is CSV
with full 17-significant-digit decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ParameterError, _check
from .spectral import _sample

BASE_COLUMNS = ("t", "linf", "l2", "h1", "h3_2", "h2", "grad_sup")
# NormSeries' rule, (test, what the betas must do): each extra order 1 + beta
# is finite, >= 0 and names its own column
_BETAS = (lambda betas: all(-1.0 <= b < math.inf for b in betas)
          and len(set(map(beta_column_name, betas))) == len(betas),
          "all be >= -1, finite and distinct to 6 significant digits")


def beta_column_name(beta: float) -> str:
    return f"h1+{beta:g}"


class NormSeries:
    """Time-stamped rows of solution norms with strictly increasing t."""

    def __init__(self, betas=()):
        self.betas = tuple(float(b) for b in betas)
        _check(_BETAS, "betas", self.betas)
        self.columns = BASE_COLUMNS + tuple(beta_column_name(b) for b in self.betas)
        self._rows: list[list[float]] = []

    def __len__(self):
        return len(self._rows)

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise ParameterError(
                f"unknown column {name!r}; have {', '.join(self.columns)}") from None
        return np.array([row[j] for row in self._rows])

    def append(self, row):
        row = [float(x) for x in row]
        if len(row) != len(self.columns):
            raise ParameterError(
                f"row has {len(row)} entries, expected {len(self.columns)}")
        finite = np.isfinite(row)
        if not finite.all():
            column = self.columns[int(np.argmin(finite))]
            raise ParameterError(f"row has a non-finite {column!r}: {row}")
        if self._rows and row[0] <= self._rows[-1][0]:
            raise ParameterError(
                f"sample times must increase: {row[0]} after {self._rows[-1][0]}")
        self._rows.append(row)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self._rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @classmethod
    def read_csv(cls, path) -> "NormSeries":
        """Read a file written by ``write_csv``; the ``h1+<beta>`` columns of
        its header give the betas, and every row is checked by ``append``."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            names = header.split(",")
            try:
                series = cls(betas=[float(name.removeprefix("h1+"))
                                    for name in names[len(BASE_COLUMNS):]])
            except ValueError:
                series = None
            if series is None or tuple(names) != series.columns:
                raise ParameterError(f"{path}: not a norms header: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    try:
                        series.append(line.split(","))
                    except ValueError as exc:
                        raise ParameterError(f"{path}, line {lineno}: {exc}") from None
        return series


def record_norms(state, series: NormSeries):
    """Append one row of norms for the given solver state; a norm that is not
    finite (squares can overflow) raises ``BlowUpError`` naming its column.

    Returns theta's grid values with their max and min, from the row's
    inverse transform of theta: a view into this thread's workspace, valid
    until its next transform.  The row is computed by ``spectral._sample``,
    from one batched inverse transform of theta and its gradient."""
    with np.errstate(over="ignore", invalid="ignore"):
        values, hi, lo, linf, grad_sup, (l2, h1, h3_2, h2, *extra) = _sample(
            state.theta, (0.0, 1.0, 1.5, 2.0) + tuple(1.0 + b for b in series.betas))
    row = [state.t, linf, l2, h1, h3_2, h2, grad_sup, *extra]
    finite = np.isfinite(row)
    if not finite.all():
        raise BlowUpError(state.t, state.step_count,
                          norm=series.columns[int(np.argmin(finite))])
    series.append(row)
    return values, hi, lo


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law ||.|| ~ amplitude * t^alpha on a log-log window."""

    alpha: float
    amplitude: float
    residual_rms: float
    n_samples: int


def fit_decay_exponent(series: NormSeries, column: str, window) -> DecayFit:
    """Fit log(value) = alpha log(t) + log(amplitude) over window = (t_a, t_b)."""
    t_a, t_b = float(window[0]), float(window[1])
    if not t_a < t_b:
        raise ParameterError(f"need t_a < t_b, got ({t_a}, {t_b})")
    t = series.t
    y = series.column(column)
    sel = (t >= t_a) & (t <= t_b)
    if np.count_nonzero(sel) < 10:
        raise ParameterError(
            f"need >= 10 samples in window, have {np.count_nonzero(sel)}")
    if np.any(t[sel] <= 0.0):
        raise ParameterError("window contains non-positive times")
    if np.any(y[sel] <= 0.0):
        raise ParameterError(
            f"column {column!r} has non-positive values in window; shrink it")
    lt, ly = np.log(t[sel]), np.log(y[sel])
    alpha, intercept = np.polyfit(lt, ly, 1)
    resid = ly - (alpha * lt + intercept)
    return DecayFit(
        alpha=float(alpha),
        amplitude=float(np.exp(intercept)),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_samples=int(np.count_nonzero(sel)),
    )


@dataclass(frozen=True)
class BoundednessResult:
    """sup over samples of t^weight * value, with a stabilization flag.

    ``stabilized`` means the samples in the final time-decade of the window
    (t > t_b / 10, or past t_a when the window starts later) raise the
    running sup by less than 1%.
    """

    sup: float
    stabilized: bool


def check_boundedness(series: NormSeries, weight_exponent: float, column: str,
                      window=None) -> BoundednessResult:
    """Weighted-sup boundedness check over positive sample times in window
    = (t_a, t_b), t_a <= t_b.  A weight that is not finite, a reversed
    window, or a weighted sup that overflows, raises ``ParameterError``."""
    weight_exponent = float(weight_exponent)
    if not np.isfinite(weight_exponent):
        raise ParameterError(f"weight must be finite, got {weight_exponent}")
    t = series.t
    y = series.column(column)
    if window is None:
        pos = t > 0.0
        if not np.any(pos):
            raise ParameterError("series has no positive times")
        window = (float(t[pos][0]), float(t[-1]))
    t_a, t_b = float(window[0]), float(window[1])
    if not t_a <= t_b:
        raise ParameterError(f"need t_a <= t_b, got window ({t_a}, {t_b})")
    sel = (t >= t_a) & (t <= t_b)
    if not np.any(sel):
        raise ParameterError("window contains no samples")
    if np.any(t[sel] <= 0.0):
        raise ParameterError("boundedness check requires positive times")
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = t[sel] ** weight_exponent * y[sel]
    sup = float(np.max(weighted))
    if not np.isfinite(sup):
        raise ParameterError(
            f"t^{weight_exponent:g} * {column} is not finite in the window")
    cut = max(t_a, t_b / 10.0)
    early = weighted[t[sel] <= cut]
    stabilized = bool(early.size > 0 and np.max(early) >= sup * (1.0 - 0.01))
    return BoundednessResult(sup=sup, stabilized=stabilized)


def integral_tail_fraction(t, y):
    """Trapezoid integral of y over t and the fraction carried by the final
    tenth of the time window (used for convergence-of-tail checks)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 3:
        raise ParameterError("need at least 3 samples")
    total = float(np.trapezoid(y, t))
    cut = t[-1] - 0.1 * (t[-1] - t[0])
    sel = t <= cut
    head = float(np.trapezoid(y[sel], t[sel]))
    frac = 0.0 if total == 0.0 else (total - head) / total
    return total, frac
