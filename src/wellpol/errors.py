"""Exception types shared across the package.

Two error classes, one per CLI exit code: a DomainError exits 2 and a
NumericalError exits 3.  No caller tells the failures within a class
apart, so the message carries the detail.  The package issues no
warning of its own: a check it cannot pass raises one of these.
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy contract."""

