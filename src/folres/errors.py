"""Exception types shared across the package.

Every precondition violation raises a dedicated class so callers (and the
command line front end) can map failures to stable error codes.
"""


class FolresError(Exception):
    """Base class for all package errors."""


class NonzeroConstantTerm(FolresError):
    """A substituted series has a nonzero constant term."""


class NotDivisible(FolresError):
    """Division by a variable failed; carries a witness term."""

    def __init__(self, variable: str, witness):
        self.variable = variable
        self.witness = witness
        super().__init__(f"term {witness} is not divisible by {variable}")


class NotAUnit(FolresError):
    """Series inversion requested for a series vanishing at the origin."""


class AllZero(FolresError):
    """Vector field is zero at the trusted precision."""


class NonInvertibleLinearPart(FolresError):
    """Coordinate change has a singular linear part."""


class RegularPoint(FolresError):
    """Blow-up of a regular point was refused."""


class CenterNotInvariantOrNotSingular(FolresError):
    """Curve blow-up center is not contained in the singular set."""


class NotInNormalForm(FolresError):
    """Field does not have the nilpotent shape required by the weight-2 map."""


class NotASeparatrix(FolresError):
    """Curve fails the invariance equations at trusted precision."""


class ZeroAlongCurve(FolresError):
    """The field vanishes identically along the curve."""


class Obstructed(FolresError):
    """Degree-by-degree solving hit an inconsistent linear system."""

    def __init__(self, degree: int, witness: str):
        self.degree = degree
        self.witness = witness
        super().__init__(f"obstructed at degree {degree}: {witness}")


class NotGraphParameterizable(FolresError):
    """The system cannot be solved as a graph over z."""


class NotGraph(FolresError):
    """Operation requires a curve parameterized as a graph over z."""


class CurveMissesCenter(FolresError):
    """Curve does not pass through the blow-up center."""


class DivisionObstructed(FolresError):
    """Curve transform requires a division that is not exact."""


class PrecisionExhausted(FolresError):
    """Truncation order too small for the requested operation."""


class PoleOnPath(FolresError):
    """Quadrature path passes through a zero of the denominator."""


class IntegrationFailure(FolresError):
    """Numerical integration did not reach the requested accuracy."""


class ParseError(FolresError):
    """Unparseable input; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")
