"""Exception types shared across the library.

Construction failures and parse failures are distinct so the command line
can map them to different exit codes.
"""


class EquicurveError(Exception):
    """Base class for all library errors."""


class ParseError(EquicurveError):
    """Malformed textual input."""


class InputBoundError(ParseError):
    """An input implies more work than a fixed bound allows."""


class ConstructionError(EquicurveError):
    """A construction's preconditions are violated or a search failed."""


class ConductorCapError(ConstructionError):
    """A cyclotomic field grew past the configured degree cap."""


class DegreeMismatchError(ConstructionError):
    """Sum or difference of homogeneous polynomials of unequal degrees."""


class ZeroPolynomialError(ConstructionError):
    """An operation that requires a nonzero polynomial got zero."""


class NotFiniteWithinCapError(ConstructionError):
    """Group closure exceeded the element cap."""


class TooFewPointsError(ConstructionError):
    """Automorphism search needs at least three points."""


class NotInvariantError(ConstructionError):
    """A point set is not invariant under the group; carries a witness."""


class SqrtNotFoundError(ConstructionError):
    """A required square root was not found by the bounded search."""


class RootFieldUnsupportedError(ConstructionError):
    """Roots live outside every cyclotomic field the extension policy reaches."""


class DegeneratePointsError(ConstructionError):
    """Points violate a distinctness precondition."""


class NotSemiInvariantError(ConstructionError):
    """The zero set of a polynomial is not invariant under the group."""


class ConstantTermError(ConstructionError):
    """Splitting rule applied to a nonzero constant."""


class PNotInvariantError(ConstructionError):
    """Reynolds averaging requires the contraction to be group-fixed."""


class DegreeAlignmentError(ConstructionError):
    """Orbit data with inconsistent degrees cannot be combined."""


class OnDiagonalError(ConstructionError):
    """The quadric chart is undefined on the diagonal."""


class NotOnQuadricError(ConstructionError):
    """Inverse chart applied to a point off the quadric yz = x^2 - 1."""


class DegenerateParamsError(ConstructionError):
    """Preset family parameters are degenerate (zero or colliding)."""


class NotSquarefreeError(ConstructionError):
    """A preset form that must be squarefree is not."""


class WitnessNotFoundError(ConstructionError):
    """Bounded-degree subalgebra search found no witness polynomial."""


class PoleConditionError(ConstructionError):
    """No sampled coefficient pair satisfies the pole condition."""


class TrivialAutomorphismError(ConstructionError):
    """The extendability decision needs a nontrivial automorphism."""


class FixedPointInLambdaError(ConstructionError):
    """The involution construction requires fixed points away from Lambda."""
