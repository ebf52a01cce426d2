"""Energy density attainable in one- and two-mode states of a massless field.

The package has five layers:

* :mod:`subvacuum.fock_oracle` — truncated number-basis states and exact
  ladder-operator moments, the independent reference everything else is
  checked against.
* :mod:`subvacuum.state_families` — closed-form moments (n, R, gamma) for the
  state families of interest.
* :mod:`subvacuum.energy_density` — the density as a function of the moments,
  closed-form minima, and a numeric spacetime minimizer.
* :mod:`subvacuum.optimizer` — multi-start projected gradient ascent on
  F = R - n over a family's parameter box.
* :mod:`subvacuum.verification` — randomized closed-form-vs-oracle comparison
  and the fixed matrix-element identity checks.

:mod:`subvacuum.cli` exposes all of it as the ``subvacuum`` command.
"""

from .energy_density import (
    DensityProfile,
    ModeGeometry,
    SpacetimePoint,
    br_vs_2sq_gap,
    density_profile,
    rho_min_br_closed,
    rho_min_ecs_aligned,
    rho_min_one_mode,
    rho_min_two_mode_numeric,
    rho_one_mode,
    rho_two_mode_standing,
    rho_two_mode_traveling,
    spacetime_average,
)
from .fock_oracle import (
    DegenerateSuperpositionError,
    FockVector,
    OracleMoments,
    TruncationError,
    TwoModeFockVector,
    coherent_cutoff_for,
    coherent_vector,
    inner,
    one_mode_moments,
    squeezed_cutoff_for,
    squeezed_vacuum_vector,
    superpose,
    superpose_two_mode,
    tail_mass,
    two_mode_moments,
    two_mode_squeezed_vector,
)
from .optimizer import (
    AscentFailure,
    Extremum,
    MultiStartReport,
    SearchConfig,
    SearchSpace,
    ascend,
    coherent_pair_space,
    fd_gradient,
    multi_start,
    objective_F,
    vacuum_squeezed_space,
)
from .state_families import (
    BarnettRadmore,
    CoherentPair,
    CoherentSqueezed,
    DegenerateStateError,
    EntangledCoherent,
    ExcessMoments,
    FamilyParams,
    OneModeMoments,
    SqueezedPair,
    TwoModeMoments,
    VacuumSqueezed,
    ZhangReal,
    barnett_radmore_moments,
    coherent_plus_squeezed_moments,
    coherent_superposition_moments,
    entangled_coherent_moments,
    f_sigma,
    squeezed_vacuum_moments,
    superposed_squeezed_moments,
    vacuum_plus_squeezed_moments,
    wrap_angle,
    zhang_moments,
    zhang_small_r_asymptotics,
)
from .verification import (
    FAMILIES,
    IdentityRow,
    VerifyReport,
    appendix_identity_report,
    verify_all,
    verify_family,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fock_oracle
    "FockVector",
    "TwoModeFockVector",
    "OracleMoments",
    "TruncationError",
    "DegenerateSuperpositionError",
    "coherent_vector",
    "squeezed_vacuum_vector",
    "two_mode_squeezed_vector",
    "superpose",
    "superpose_two_mode",
    "inner",
    "one_mode_moments",
    "two_mode_moments",
    "tail_mass",
    "coherent_cutoff_for",
    "squeezed_cutoff_for",
    # state_families
    "DegenerateStateError",
    "OneModeMoments",
    "ExcessMoments",
    "TwoModeMoments",
    "CoherentPair",
    "SqueezedPair",
    "CoherentSqueezed",
    "VacuumSqueezed",
    "BarnettRadmore",
    "ZhangReal",
    "EntangledCoherent",
    "FamilyParams",
    "wrap_angle",
    "coherent_superposition_moments",
    "squeezed_vacuum_moments",
    "superposed_squeezed_moments",
    "coherent_plus_squeezed_moments",
    "vacuum_plus_squeezed_moments",
    "barnett_radmore_moments",
    "zhang_moments",
    "zhang_small_r_asymptotics",
    "entangled_coherent_moments",
    "f_sigma",
    # energy_density
    "ModeGeometry",
    "SpacetimePoint",
    "DensityProfile",
    "rho_one_mode",
    "rho_min_one_mode",
    "rho_two_mode_traveling",
    "rho_two_mode_standing",
    "rho_min_two_mode_numeric",
    "density_profile",
    "rho_min_br_closed",
    "br_vs_2sq_gap",
    "rho_min_ecs_aligned",
    "spacetime_average",
    # optimizer
    "AscentFailure",
    "SearchSpace",
    "SearchConfig",
    "Extremum",
    "MultiStartReport",
    "objective_F",
    "fd_gradient",
    "ascend",
    "multi_start",
    "coherent_pair_space",
    "vacuum_squeezed_space",
    # verification
    "VerifyReport",
    "IdentityRow",
    "FAMILIES",
    "verify_family",
    "verify_all",
    "appendix_identity_report",
]
