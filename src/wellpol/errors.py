"""Exception and warning types shared across the package.

Two error classes, one per CLI exit code: a DomainError exits 2 and a
NumericalError exits 3.  No caller tells the failures within a class
apart, so the message carries the detail.
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy contract."""


class ConvergenceWarning(UserWarning):
    """A grid-refinement study shows an unexpected convergence order."""
