"""Exception types raised by the algebra, tensor, completion and norm layers.

Every domain failure maps to exactly one class here so that callers (and the
CLI exit-code logic) can dispatch on type rather than message text.
"""


class AlgebraError(Exception):
    """Base class for all domain errors."""


class ShapeMismatch(AlgebraError):
    """Operands belong to different block algebras."""


class TooLarge(AlgebraError):
    """The requested size would exceed a fixed memory budget."""


class NumericalFailure(AlgebraError):
    """An eigensolver or iteration did not converge, criteria that must agree
    disagreed, or a checked residual exceeded its tolerance."""


class NoSuchSpectralValue(AlgebraError):
    """Requested spectral value is not in the nonzero spectrum within tolerance."""


class ContourTooTight(AlgebraError):
    """Neighbouring spectral values are too close to separate by a circle."""


class NotAProjection(AlgebraError):
    """Input fails the idempotency check."""


class DifferentMinimalIdeal(AlgebraError):
    """The two projections generate orthogonal minimal ideals."""


class PathDegenerate(AlgebraError):
    """A path sample could not be moved off the exceptional set."""


class NotShodaComplete(AlgebraError):
    """Operation requires a Shoda-complete (single block) algebra."""


class NotTraceless(AlgebraError):
    """Commutator decomposition requires a traceless input."""


class IllConditioned(AlgebraError):
    """No clean singular-value gap; rank decision would be unreliable."""


class NotAnIdeal(AlgebraError):
    """Candidate radical basis is not closed under multiplication by the algebra."""


class NotSemisimple(AlgebraError):
    """Structure-constant algebra has a nonzero radical."""


class NonSquareComponent(AlgebraError):
    """A simple component dimension is not a perfect square (numerical failure)."""
