"""Exception types shared across the package.

Every failure a caller can reasonably branch on gets its own class. All of
them inherit from ClarkSpectraError so `except ClarkSpectraError` catches
anything raised deliberately by this package.
"""


class ClarkSpectraError(Exception):
    pass


class DomainError(ClarkSpectraError):
    """Argument outside the mathematical domain (wrong half-plane, s <= 0, ...)."""


class DimensionError(ClarkSpectraError):
    """Array shape does not match the model rank."""


class SingularError(ClarkSpectraError):
    """A matrix that must be inverted is numerically singular."""


class ConvergenceError(ClarkSpectraError):
    """An iterative limit or refinement ran out of levels without settling."""


class DivergenceError(ClarkSpectraError):
    """A closed-form integral does not converge for the given exponents."""


class RankError(ClarkSpectraError):
    """A matrix fails a required rank condition."""


class NonUnitaryError(ClarkSpectraError):
    """A parameter that must be unitary is not, beyond tolerance."""


class ToleranceError(ClarkSpectraError):
    """A consistency condition holds only beyond the allowed tolerance."""
