"""Exception types shared across the package."""


class FolkmetricsError(Exception):
    """Base class for all folkmetrics errors."""


class FormatError(FolkmetricsError):
    """Input data does not match the declared format (e.g. wrong delimiter)."""


class DomainError(FolkmetricsError):
    """Arguments are outside the domain of the requested computation."""


class UndefinedCorrelationError(DomainError):
    """Correlation is undefined (constant input or fewer than two points)."""


class ConvergenceWarning(UserWarning):
    """An iterative method stopped at its iteration limit before converging."""


def _check_counts(**counts: int) -> None:
    """Raise DomainError, naming the parameter, for a count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")
