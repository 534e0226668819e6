"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigurationError(DomainError):
    """A run configuration is structurally invalid (e.g. step underflow)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy contract."""


class FieldTooLargeError(NumericalError):
    """Quadratic fit of the Stark-shifted ground energy is contaminated.

    Raised when the non-quadratic fit residual exceeds 1e-8 of the fitted
    curvature coefficient, which happens when the probe fields are too
    large for the quadratic response regime (or too small to rise above
    eigenvalue noise).  Also raised when the ground state found in the well
    at a probe field is not the lowest state of the tilted box: the field
    has pulled the box's ground state out of the well, towards the wall on
    the low side.
    """


class ConvergenceWarning(UserWarning):
    """A grid-refinement study shows an unexpected convergence order."""
