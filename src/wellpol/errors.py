"""Exception and warning types shared across the package.

Every error is a DomainError (the CLI exits 2) or a NumericalError (exit 3).
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy contract."""


class FieldTooLargeError(NumericalError):
    """The Stark probe fields are too large for the curvature route.

    Raised when the ground state found in the well at a probe field is not
    the lowest state of the tilted box (the field has pulled the box's
    ground state out of the well, towards the wall on the low side), and
    when the two Stark quotients -4 (E(eps') - E0) / eps'^2 differ by more
    than 1e-4 relative, i.e. the eps'^4 term is no longer small.
    """


class ConvergenceWarning(UserWarning):
    """A grid-refinement study shows an unexpected convergence order."""
