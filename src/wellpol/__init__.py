"""Static electric polarizability of a particle bound by a 1-D finite square well.

Closed-form polarizabilities from the ground state alone, limit-case
validations, an analytic hard-wall transition sum, and a brute-force
grid-diagonalization oracle.  The oracle's names live in
``wellpol.grid_oracle`` and are not re-exported here, so that
``import wellpol`` loads neither numpy nor scipy.
"""

from .conventional_sum import (
    InfiniteWellSum,
    calibrate_C,
    infinite_well_alpha,
    infinite_well_term,
)
from .dalgarno_lewis import (
    PhiReduced,
    PolarizabilityBreakdown,
    alpha1_prime,
    alpha2_prime,
    alpha2_prime_hard_wall,
    alpha2_t_prime,
    alpha_apr_prime,
    alpha_via_quadrature,
    breakdown,
    orthogonality,
    phi_eval,
    phi_jump,
    phi_reduced,
    t_ratio,
)
from .errors import (
    ConfigurationError,
    ConvergenceWarning,
    DomainError,
    FieldTooLargeError,
    NumericalError,
)
from .limits import (
    DeltaLimitSequence,
    InfiniteWellLimitReport,
    delta_limit,
    infinite_well_limit,
)
from .well_spectrum import (
    GroundState,
    WellSpec,
    ground_state_from_R,
    ground_state_from_gamma,
    normalization_sq,
    psi0_eval,
)

__version__ = "0.1.0"
