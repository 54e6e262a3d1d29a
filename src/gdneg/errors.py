"""Exception types shared across the package, the one walk for the first failing
`Check`, and `Record`, the frozen-record base of gdneg's public records.

A set of checks is walked once: `failed_states` joins their masks with one `|`
per check, and `first_fault` reads that union with ndarray methods, building
only the error it returns. The module imports no numpy, so the CLI can check
its arguments, family names included, and a state file's entries before
numpy loads.

The six records (`DensityMatrix`, `PureState`, `MeasureReport`, `BlochForm`,
`FamilySpec`, `SampleSummary`) subclass `Record`. Their methods are defined
once, here: defining a record builds no function and imports no further
module.
"""

from typing import Callable, NamedTuple

# The built-in families, in order; `families` defines each one under its name.
FAMILY_NAMES = ("rho1", "rho2", "rho3", "rho4")

# The finiteness failure of a state, from the gate or from a state file.
NON_FINITE_ENTRIES = "finiteness invariant violated: non-finite entries"


class NotSquare(ValueError):
    """Matrix operation received a non-square matrix."""


class DimensionMismatch(ValueError):
    """Matrix shape is inconsistent with the declared subsystem dimensions."""


class InvalidDimension(ValueError):
    """Subsystem dimension outside the supported range."""


class InvalidState(ValueError):
    """Input fails a density-matrix invariant (hermiticity / trace / positivity)."""


class NotAState(InvalidState):
    """Family parameters give non-finite entries, a trace other than 1 or a negative eigenvalue."""


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


class Record:
    """A frozen record whose fields are the annotations of its class body, in order.

    A subclass is built by position or keyword in field order, every field
    given. Once the fields are set, the
    subclass's `__post_init__` runs, and it may replace a field's value with
    `object.__setattr__`. Assigning or deleting an attribute raises
    AttributeError. Two records are equal when they are of the same class and
    their tuples of field values are equal, a record hashes as that tuple, and
    it prints as `Name(field=value, ...)`. `vars(record)` is the dict of its
    fields, in field order. `__init__` is an ordinary attribute of the class,
    so it can be wrapped and restored.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        vars(self).update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The values of all fields, in order, from arguments that are not all positional."""
        rest = cls._fields[len(args):]
        if len(args) > len(cls._fields) or kwargs.keys() != set(rest):
            raise TypeError(f"{cls.__qualname__}({', '.join(cls._fields)}) cannot take "
                            f"{len(args)} positional arguments and the keywords {sorted(kwargs)}")
        return args + tuple(map(kwargs.__getitem__, rest))

    def __post_init__(self):
        """Validate or normalise the fields; a record without checks has none."""

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

