"""Conservative Fourier pseudo-spectral solvers for the generalized KdV equation."""

from .diagnostics import (
    ConvergenceRow,
    ReferenceMismatch,
    attach_breather_columns,
    convergence_study,
    drift_series,
    linf_error,
    make_reference,
    max_drifts,
)
from .integrators import (
    SCHEMES,
    FixedPointError,
    RunLog,
    Scheme,
    SingularStepError,
    StageStats,
    StepperConfig,
    cn_dispersion_step,
    etdrk4_coefficients,
    etdrk4_coefficients_direct,
    evolve,
    make_stepper,
    sav_lf_step_impl,
)
from .sav import (
    AdjustmentRequired,
    C0Policy,
    InvariantRecord,
    SavState,
    adjust_c0,
    init_sav,
    invariants,
    mass_drift_bound,
    rhs_f,
    rhs_g,
)
from .scenarios import (
    BreatherParams,
    Scenario,
    TwoSolitonParams,
    breather,
    breather_diagnostics,
    get_scenario,
    q_soliton_constants,
    scatter_ic,
    two_soliton,
)
from .spectral import (
    SingularModeError,
    SpectralGrid,
    apply_d1,
    apply_d2,
    apply_d3,
    inner_h,
    make_grid,
    norm_h,
)
from .tableaus import ButcherTableau, gauss_legendre_tableau, symplectic_residual

__version__ = "0.1.0"
