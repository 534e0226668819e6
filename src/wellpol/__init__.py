"""Static electric polarizability of a particle bound by a 1-D finite square well.

Closed-form polarizabilities from the ground state alone, limit-case
validations, an analytic hard-wall transition sum, and a brute-force grid
oracle.  This package re-exports only the ground-state solvers, the
``breakdown`` of the closed forms, the dimensionful ``WellSpec`` adapter and
the error classes; everything else is imported from its module
(``wellpol.dalgarno_lewis``, ``wellpol.limits``, ...).  The oracle lives in
``wellpol.grid_oracle``, so ``import wellpol`` loads neither numpy nor scipy.
``breakdown`` alone gives alpha1', alpha2', alpha2_t' and alpha_apr'.  Result
types take only their independent inputs (a breakdown its state, an oracle
result its config and level count, a limit study none), derive the rest, and
are read-only ``__slots__`` records; none uses ``dataclasses``.
"""

from .dalgarno_lewis import breakdown
from .errors import ConvergenceWarning, DomainError, NumericalError
from .well_spectrum import WellSpec, ground_state_from_R, ground_state_from_gamma

__all__ = [
    "breakdown",
    "ground_state_from_R",
    "ground_state_from_gamma",
    "WellSpec",
    "ConvergenceWarning",
    "DomainError",
    "NumericalError",
]

__version__ = "0.1.0"
