"""Exception types shared across the package, and the one walk for the first failing `Check`.

A set of checks is walked once: `failed_states` joins their masks with one `|`
per check, and `first_fault` reads that union with ndarray methods, building
only the error it returns. The module imports no numpy, so the CLI can check
its arguments, family names included, and a state file's entries before
numpy loads.
"""

from typing import Callable, NamedTuple

# The built-in families, in order; `families` defines each one under its name.
FAMILY_NAMES = ("rho1", "rho2", "rho3", "rho4")

# The finiteness failure of a state, from the gate or from a state file.
NON_FINITE_ENTRIES = "finiteness invariant violated: non-finite entries"


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
    """A state file or the command line is structurally malformed."""


class CapViolation(ArithmeticError):
    """Partial-transpose negative-eigenvalue count exceeded its proven cap.

    This cannot happen for a valid state; it signals a numerical or logic fault.
    """


class BoundViolation(ArithmeticError):
    """A proven bound or identity failed numerically; signals a fault, not physics."""


class Check(NamedTuple):
    """One check over a stack of states: which states fail it, and the error for state i."""

    failed: "numpy.ndarray"
    fault: Callable[[int], Exception]


def failed_states(checks) -> "numpy.ndarray":
    """True for each state that fails any of one or more checks over one stack."""
    failed = checks[0].failed
    for check in checks[1:]:
        failed = failed | check.failed
    return failed


def first_fault(checks) -> tuple[int, Exception] | None:
    """The first state failing any check, with the error of its first failing check, or None."""
    failed = failed_states(checks)
    if not failed.any():
        return None
    i = int(failed.argmax())
    return i, next(check.fault(i) for check in checks if check.failed[i])
