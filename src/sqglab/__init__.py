"""sqglab: pseudo-spectral quasi-geostrophic solver and regularity diagnostics.

Every public name is listed once, in ``_PUBLIC`` under the module that
defines it, and is bound from that module on first use (PEP 562).
``import sqglab`` loads the stepping modules, ``errors``, ``spectral``,
``dynamics``, ``initial`` and ``diagnostics``, in that order; ``config``,
``modulus``, ``oracles`` and ``snapshot`` load on the first use of a name.
"""

import importlib

# the load order moves where numpy places arrays, which the benchmark's peak
# RSS shows (see CHANGES.md); dynamics loads errors and spectral
from . import dynamics, initial, diagnostics

__version__ = "0.1.0"

_PUBLIC = {
    "errors": ("BlowUpError", "BudgetError", "ConfigError", "ParameterError",
               "SnapshotFormatError"),
    "spectral": ("Grid", "RealField", "SpectralField", "dealias",
                 "forward_transform", "inverse_transform", "sobolev_norm",
                 "sup_and_gradient_sup"),
    "dynamics": ("SolverConfig", "SolverState", "adapt_dt", "initial_state",
                 "nonlinear_term", "run_until", "step"),
    "diagnostics": ("NormSeries", "check_boundedness", "fit_decay_exponent",
                    "integral_tail_fraction", "record_norms"),
    "initial": ("band_limited_random", "make_initial"),
    "config": ("parse_config",),
    "modulus": ("build_knv_modulus", "check_modulus", "default_offsets"),
    "oracles": ("convergence_ratio", "convolution_nonlinearity",
                "linear_heat_exact", "scaling_consistency", "single_mode_exact"),
    "snapshot": ("read_snapshot", "write_snapshot"),
}

__all__ = [name for names in _PUBLIC.values() for name in names]


def __getattr__(name):
    for module, names in _PUBLIC.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
