"""Exception types raised by the toolkit.

Everything derives from RHCError so callers can catch the whole family.
Every concrete error has exactly one of three kinds, which are also the
`rhc` exit codes:

- InputError (exit 1): the input is not a well-posed problem;
- HypothesisError (exit 2): a hypothesis fails, such as inversion
  symmetry, positivity on the unit circle or a nonvanishing determinant;
- NearSingularOperatorError (exit 3): the discretized operator has a
  kernel, which is what nonzero partial indices produce.

Within a kind, errors are grouped by pipeline stage.
"""


class RHCError(Exception):
    """Base class for all toolkit errors."""


class InputError(RHCError):
    """The input does not describe a well-posed problem."""


class HypothesisError(RHCError):
    """The problem fails a hypothesis of the theory."""


class NearSingularOperatorError(RHCError):
    """Discretized singular-integral operator is near singular."""

    def __init__(self, smallest_singular_value: float, message: str = ""):
        msg = message or (
            "operator near singular: smallest singular value "
            f"{smallest_singular_value:.3e}"
        )
        super().__init__(msg)
        self.smallest_singular_value = smallest_singular_value


# input: geometry / contour construction


class OverlapError(InputError):
    """Two circles of a contour system intersect or touch."""


class OrientationError(InputError):
    """Circle orientations admit no consistent plus/minus side labeling."""


class SingularInversionError(InputError):
    """Circle has no circle image of doubles under inversion: it passes
    through the origin, or its image leaves the double range."""


# input: discretization / evaluation


class TooCloseToContourError(InputError):
    """Evaluation point violates the quadrature safety margin."""


class AlignmentError(InputError):
    """Grid function and operator were built on different contour systems."""


class EvalError(InputError):
    """Expression evaluation produced a non-finite value."""


class ParseError(InputError):
    """Expression text could not be parsed."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


# hypothesis: symmetry and the jump


class NotInversionInvariantContourError(HypothesisError):
    """Contour system is not closed under inversion in the unit circle."""


class SingularJumpError(HypothesisError):
    """Jump matrix is numerically singular at some node."""


# hypothesis: linear algebra / diagnostics


class RankAmbiguityError(HypothesisError):
    """Singular values cluster at the rank threshold; counts unreliable."""


class WindingAmbiguityError(HypothesisError):
    """Accumulated phase is too far from an integer multiple of 2*pi."""


# hypothesis: factorization


class NonConstantCError(HypothesisError):
    """Matching constant of the symmetric factorization is not constant."""


class NonPositiveCError(HypothesisError):
    """Matching constant is not Hermitian positive definite."""


class HypothesisViolationError(HypothesisError):
    """Input jump fails the symmetry/positivity hypotheses of a routine."""


# hypothesis: scattering data


class ReflectionTooLargeError(HypothesisError):
    """Defocusing reflection coefficient reaches modulus one."""


class DegenerateSolitonSystemError(HypothesisError):
    """Closed-form soliton linear system is singular."""
