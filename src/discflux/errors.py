"""Exception vocabulary shared across the package."""


class DiscFluxError(Exception):
    """Base class for all package-specific failures."""


class DomainError(DiscFluxError):
    """A state or coordinate fell outside the admissible interval."""


class CompositionError(DiscFluxError):
    """A transform range escaped the domain of the flux it was composed with."""


class ConstructionError(DiscFluxError):
    """A transform builder could not produce an admissible pair.

    ``payload`` carries the best near-miss (builder-specific) so callers can
    report how close the search came.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class StabilityError(DiscFluxError):
    """The explicit update left the invertible range of the state map.

    Almost always cured by a smaller time step (lower the CFL numbers).
    """


class CoverageError(DiscFluxError):
    """Requested data lies outside the sampled coverage of a field."""
