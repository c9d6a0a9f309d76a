"""sqglab: pseudo-spectral quasi-geostrophic solver and regularity diagnostics."""

from .config import parse_config
from .diagnostics import (
    NormSeries,
    check_boundedness,
    fit_decay_exponent,
    integral_tail_fraction,
    record_norms,
)
from .dynamics import (
    SolverConfig,
    SolverState,
    adapt_dt,
    initial_state,
    nonlinear_term,
    run_until,
    step,
)
from .errors import (
    BlowUpError,
    BudgetError,
    ConfigError,
    ParameterError,
    SnapshotFormatError,
)
from .initial import band_limited_random, make_initial
from .modulus import (
    build_knv_modulus,
    check_modulus,
    default_offsets,
    find_scaling,
)
from .oracles import (
    convergence_ratio,
    convolution_nonlinearity,
    linear_heat_exact,
    scaling_consistency,
    single_mode_exact,
)
from .snapshot import read_snapshot, write_snapshot
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
