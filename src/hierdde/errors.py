"""Exception types shared across the package.

Grouping them here keeps the command line front end's exit-code mapping in
one place: configuration problems, numerical-range refusals and degenerate
systems are distinguishable without string matching.
"""

__all__ = ["HierDdeError", "ConfigError", "DimensionError",
           "EvaluationRangeError", "BoundaryZeroError", "ResolutionError",
           "TrivialityError", "DegenerateSystemError"]


class HierDdeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HierDdeError):
    """Malformed or inconsistent user input (files, flags, parameters)."""


class DimensionError(ConfigError):
    """Array arguments with incompatible or invalid shapes."""


class EvaluationRangeError(HierDdeError):
    """Evaluation refused because a delay term would overflow.

    Carries the index of the offending delay scale in ``scale``.
    """

    def __init__(self, message, scale=None):
        super().__init__(message)
        self.scale = scale


class BoundaryZeroError(HierDdeError):
    """A root lies (numerically) on a counting-contour after all retries."""


class ResolutionError(HierDdeError):
    """Root isolation failed to converge within its refinement budget."""


class TrivialityError(HierDdeError):
    """An operation was asked for a quantity that is identically trivial."""


class DegenerateSystemError(HierDdeError):
    """The system violates the nondegeneracy condition required downstream."""
