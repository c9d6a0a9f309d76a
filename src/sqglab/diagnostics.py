"""Norm time series, decay-exponent fits, and boundedness checks.

The series records, at each sample time, the grid sup norm, the L^2 norm,
the homogeneous Sobolev norms of order 1, 3/2 and 2 plus any configured
extra orders 1 + beta, and the sup of |grad theta|.  Serialization is CSV
with full 17-significant-digit decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError, ParameterError
from .spectral import sobolev_norms, sup_and_gradient_sup

BASE_COLUMNS = ("t", "linf", "l2", "h1", "h3_2", "h2", "grad_sup")


def beta_column_name(beta: float) -> str:
    return f"h1+{beta:g}"


class NormSeries:
    """Time-stamped rows of solution norms with strictly increasing t."""

    def __init__(self, betas=()):
        self.betas = tuple(float(b) for b in betas)
        self.columns = BASE_COLUMNS + tuple(beta_column_name(b) for b in self.betas)
        self._rows: list[list[float]] = []

    def __len__(self):
        return len(self._rows)

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def _index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ParameterError(
                f"unknown column {name!r}; have {', '.join(self.columns)}") from None

    def column(self, name: str) -> np.ndarray:
        j = self._index(name)
        return np.array([row[j] for row in self._rows])

    def last(self, name: str) -> float:
        """The named column's value in the latest row."""
        if not self._rows:
            raise ParameterError("series has no rows")
        return self._rows[-1][self._index(name)]

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
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise ParameterError(f"{path}: empty norms file")
            columns = tuple(header.split(","))
            series = cls.__new__(cls)
            series.betas = ()
            series.columns = columns
            series._rows = []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                series._rows.append([float(x) for x in line.split(",")])
        return series


def record_norms(state, series: NormSeries) -> NormSeries:
    """Append one row of norms for the given solver state."""
    theta = state.theta
    linf, grad_sup = sup_and_gradient_sup(theta)
    l2, h1, h3_2, h2, *extra = sobolev_norms(
        theta, (0.0, 1.0, 1.5, 2.0) + tuple(1.0 + b for b in series.betas))
    row = [state.t, linf, l2, h1, h3_2, h2, grad_sup, *extra]
    if not all(np.isfinite(row)):
        raise BlowUpError(state.t, state.step_count, (0, 0))
    series.append(row)
    return series


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law ||.|| ~ amplitude * t^alpha on a log-log window."""

    window: tuple[float, float]
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
        raise DomainError("window contains non-positive times")
    if np.any(y[sel] <= 0.0):
        raise DomainError(
            f"column {column!r} has non-positive values in window; shrink it")
    lt, ly = np.log(t[sel]), np.log(y[sel])
    alpha, intercept = np.polyfit(lt, ly, 1)
    resid = ly - (alpha * lt + intercept)
    return DecayFit(
        window=(t_a, t_b),
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
    weight: float
    window: tuple[float, float]


def check_boundedness(series: NormSeries, weight_exponent: float, column: str,
                      window=None) -> BoundednessResult:
    """Weighted-sup boundedness check over positive sample times."""
    t = series.t
    y = series.column(column)
    if window is None:
        pos = t > 0.0
        if not np.any(pos):
            raise ParameterError("series has no positive times")
        window = (float(t[pos][0]), float(t[-1]))
    t_a, t_b = float(window[0]), float(window[1])
    sel = (t >= t_a) & (t <= t_b)
    if not np.any(sel):
        raise ParameterError("window contains no samples")
    if np.any(t[sel] <= 0.0):
        raise DomainError("boundedness check requires positive times")
    weighted = t[sel] ** float(weight_exponent) * y[sel]
    sup = float(np.max(weighted))
    cut = max(t_a, t_b / 10.0)
    early = weighted[t[sel] <= cut]
    stabilized = bool(early.size > 0 and np.max(early) >= sup * (1.0 - 0.01))
    return BoundednessResult(
        sup=sup,
        stabilized=stabilized,
        weight=float(weight_exponent),
        window=(t_a, t_b),
    )


def integral_tail_fraction(t, y, tail: float = 0.1):
    """Trapezoid integral of y over t and the fraction carried by the final
    ``tail`` portion of the time window (used for convergence-of-tail checks)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 3:
        raise ParameterError("need at least 3 samples")
    total = float(np.trapezoid(y, t))
    cut = t[-1] - tail * (t[-1] - t[0])
    sel = t <= cut
    head = float(np.trapezoid(y[sel], t[sel]))
    frac = 0.0 if total == 0.0 else (total - head) / total
    return total, frac
