"""longwave: a numerical laboratory for long waves in shallow water.

Closed-form solitary (sech^2) and cnoidal (cn^2) steady waves, their
speeds and exact-solution certificates; unidirectional and bidirectional
time evolution on periodic grids; the conserved functionals (mass,
energy, stability moment, Hamiltonian, centroid velocity); and a CLI
that reproduces the classical experiments as named scenarios.
"""

from .elliptic import complete_K, jacobi_cn_sn_dn, sech_sq
from .evolution import (
    BlowUpError,
    DeformationSpec,
    EvolutionResult,
    SchemeConfig,
    SteepeningVerdict,
    boussinesq_rhs,
    crest_position,
    deformation_rate_closed_form,
    evolve,
    factorization_residual,
    fit_speed,
    front_slope_change,
    kdv_rhs,
    stable_dt,
    steepening_verdict,
    step_ifrk4,
    step_rk4,
    unwrap_track,
)
from .invariants import (
    InvariantSet,
    boussinesq_energy,
    canonical_epsilon,
    compute_invariants,
    conservation_drift,
    critical_point_residual,
    hamiltonian_flow_rhs,
    hamiltonian_functional,
    variational_derivative,
)
from .model import (
    WATER,
    PeriodicGrid,
    PhysicalParams,
    WaveField,
    critical_depth,
    dispersion_sigma,
)
from .velocity import (
    BernoulliResidual,
    MaskedSamples,
    VelocityDiagnostics,
    bernoulli_residual,
    mean_velocity_U,
    omega_from_mass_flux,
    omega_pointwise,
    velocity_diagnostics,
)
from .waves import (
    CnoidalSpec,
    SolitarySpec,
    boussinesq_periodic_speed,
    cnoidal_alpha,
    cnoidal_field,
    cnoidal_ode_residual,
    cnoidal_profile,
    cnoidal_wavelength,
    grid_for_cnoidal,
    rayleigh_speed,
    solitary_field,
    solitary_profile,
    solitary_speed,
    steady_ode_residual_solitary,
)

__version__ = "0.1.0"
