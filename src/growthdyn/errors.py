"""Exception hierarchy shared by all growthdyn modules.

The split mirrors how the CLI reports failures: bad inputs or parameters
(ValidationError), solver breakdowns (NumericalError), and anything wrong
with reading or writing data files (DataIOError).
"""


class GrowthDynError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GrowthDynError):
    """Invalid parameters, domains, or preconditions. CLI exit code 2."""


class ParameterError(ValidationError):
    """A parameter record violates its constraints."""


class DomainError(ValidationError):
    """An evaluation point lies outside the operation's domain."""


class LogAxisError(ValidationError):
    """A non-positive value was sent to a logarithmic plot axis."""


class NumericalError(GrowthDynError):
    """A solver failed to produce a usable result. CLI exit code 3."""


class NonConvergenceError(NumericalError):
    """An iteration did not converge; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class RootNotFoundError(NumericalError):
    """A bracketing root solve found no sign change."""


class StiffnessError(NumericalError):
    """Adaptive step size underflowed; the problem looks stiff."""


class RankDeficiencyError(NumericalError):
    """The data carry no information about one or more parameters."""


class DataIOError(GrowthDynError):
    """Unreadable, malformed, or unwritable data files. CLI exit code 4."""
