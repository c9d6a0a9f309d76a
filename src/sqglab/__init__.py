"""sqglab: pseudo-spectral quasi-geostrophic solver and regularity diagnostics.

``import sqglab`` loads the stepping modules only: ``errors``, ``spectral``,
``dynamics``, ``diagnostics`` and ``initial``.  The names of ``config``,
``modulus``, ``oracles`` and ``snapshot`` are in ``__all__`` too, and their
module loads on the first use of one of them (PEP 562).
"""

import importlib

# dynamics (which loads errors and spectral), initial, then diagnostics: the
# order these loaded in when config was imported first.  The import order
# moves where numpy places arrays, which the benchmark's step rate and peak
# RSS can show (see CHANGES.md)
from .dynamics import (
    SolverConfig,
    SolverState,
    adapt_dt,
    initial_state,
    nonlinear_term,
    run_until,
    step,
)
from .initial import band_limited_random, make_initial
from .diagnostics import (
    NormSeries,
    check_boundedness,
    fit_decay_exponent,
    integral_tail_fraction,
    record_norms,
)
from .errors import (
    BlowUpError,
    BudgetError,
    ConfigError,
    ParameterError,
    SnapshotFormatError,
)
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    dealias,
    forward_transform,
    inverse_transform,
    sobolev_norm,
    sup_and_gradient_sup,
)

__version__ = "0.1.0"

# the modules a stepping run never calls, each loaded on first use of a name
_LAZY = {
    "config": ("parse_config",),
    "modulus": ("build_knv_modulus", "check_modulus", "default_offsets"),
    "oracles": ("convergence_ratio", "convolution_nonlinearity",
                "linear_heat_exact", "scaling_consistency", "single_mode_exact"),
    "snapshot": ("read_snapshot", "write_snapshot"),
}

__all__ = [
    "BlowUpError", "BudgetError", "ConfigError", "ParameterError",
    "SnapshotFormatError",
    "Grid", "RealField", "SpectralField", "dealias", "forward_transform",
    "inverse_transform", "sobolev_norm", "sup_and_gradient_sup",
    "SolverConfig", "SolverState", "adapt_dt", "initial_state",
    "nonlinear_term", "run_until", "step",
    "NormSeries", "check_boundedness", "fit_decay_exponent",
    "integral_tail_fraction", "record_norms",
    "band_limited_random", "make_initial",
    "parse_config",
    "build_knv_modulus", "check_modulus", "default_offsets",
    "convergence_ratio", "convolution_nonlinearity", "linear_heat_exact",
    "scaling_consistency", "single_mode_exact",
    "read_snapshot", "write_snapshot",
]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
