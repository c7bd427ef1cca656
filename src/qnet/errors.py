"""Exception and warning types shared across the package."""
from __future__ import annotations


class QnetError(Exception):
    """Base class for library errors."""


class GraphFormatError(QnetError, ValueError):
    """Malformed graph input (bad edge line, negative weight, bad ids)."""


class SymmetryError(QnetError, ValueError):
    """An operator failed a required symmetry check (e.g. hermiticity)."""


class DisconnectedGraphError(QnetError, ValueError):
    """Operation requires a connected graph and got one with several components."""


class IntegrationInstabilityError(QnetError, RuntimeError):
    """Fixed-step integration left the physical manifold; retry with smaller dt."""


class ConvergenceError(QnetError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class DistributionError(QnetError, RuntimeError):
    """A computed probability distribution drifted off the simplex: its sum or
    its most negative entry is beyond tolerance."""


class SupportViolationWarning(UserWarning):
    """Relative entropy diverged because supp(rho) is not inside supp(sigma)."""
