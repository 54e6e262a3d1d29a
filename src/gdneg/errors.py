"""Exception types shared across the package."""


class NotSquare(ValueError):
    """Matrix operation received a non-square matrix."""


class NotHermitian(ValueError):
    """Hermiticity defect exceeds the accepted tolerance."""


class DimensionMismatch(ValueError):
    """Matrix shape is inconsistent with the declared subsystem dimensions."""


class InvalidDimension(ValueError):
    """Subsystem dimension outside the supported range."""


class InvalidState(ValueError):
    """Input fails a density-matrix invariant (hermiticity / trace / positivity)."""


class NotAState(InvalidState):
    """Family parameters give non-finite entries, a trace other than 1 or a negative eigenvalue."""


class WrongDimension(ValueError):
    """Operation defined only for qubit-side (m = 2) states."""


class UnknownFamily(ValueError):
    """Family name is not one of the built-in constructors."""


class InvalidRange(ValueError):
    """Parameter or sweep range outside the documented window."""


class ParseError(ValueError):
    """State file is structurally malformed."""


class CapViolation(ArithmeticError):
    """Partial-transpose negative-eigenvalue count exceeded its proven cap.

    This cannot happen for a valid state; it signals a numerical or logic fault.
    """


class BoundViolation(ArithmeticError):
    """A proven bound or identity failed numerically; signals a fault, not physics."""
