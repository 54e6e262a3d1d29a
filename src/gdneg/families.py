"""Built-in families of 2 (x) 3 states with closed-form benchmarks.

All four families share one matrix template: diagonal (p, q, 0, 0, q, p) with
off-diagonal couplings r at positions (0,4), (1,5) and their transposes,
normalized by 2(p + q):

    rho1(a, b): p = a^2,    q = b^2, r = a b      (b > 0)
    rho2(a):    p = 3a + 1, q = a,   r = 2a       (0 < a <= 1)
    rho3(a):    p = 3a + 1, q = a,   r = 2a - 1   (7/4 <= a <= 19/4)
    rho4(a):    p = 3a + 1, q = a,   r = 2a - 2   (7/2 <= a <= 17/2)

For rho1 closed forms for the squared negativity and the geometric discord
are provided in terms of c = a/b. Construction outside the documented
parameter windows is permitted behind an explicit flag; positivity is always
enforced after construction, by one gate per stack of members.
"""

from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import BoundViolation, InvalidRange, NotAState, UnknownFamily
from .states import DensityMatrix, first_invalid_state
from .tolerances import VIOLATES_MARGIN_FLOOR, VIOLATION_EPS

# name: (parameter count, template entries (p, q, r), documented window), on arrays too
_FAMILIES = {
    "rho1": (2, lambda a, b: (a * a, b * b, a * b), lambda a, b: b > 0.0),
    "rho2": (1, lambda a: (3.0 * a + 1.0, a, 2.0 * a), lambda a: (0.0 < a) & (a <= 1.0)),
    "rho3": (1, lambda a: (3.0 * a + 1.0, a, 2.0 * a - 1.0), lambda a: (1.75 <= a) & (a <= 4.75)),
    "rho4": (1, lambda a: (3.0 * a + 1.0, a, 2.0 * a - 2.0), lambda a: (3.5 <= a) & (a <= 8.5)),
}

FAMILY_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: rho1 takes (a, b), the others take (a,)."""

    name: str
    params: tuple

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise UnknownFamily(
                f"unknown family {self.name!r}; expected one of {FAMILY_NAMES}"
            )
        params = tuple(float(p) for p in self.params)
        expected = _FAMILIES[self.name][0]
        if len(params) != expected:
            raise InvalidRange(
                f"{self.name} takes {expected} parameter(s), got {len(params)}"
            )
        object.__setattr__(self, "params", params)


def in_range(spec: FamilySpec) -> bool:
    """Whether the parameters lie in the documented validity window."""
    return _FAMILIES[spec.name][2](*spec.params)


def member_stack(name: str, params, allow_out_of_range: bool = False) -> np.ndarray:
    """The members named by the rows of a (k, arity) array, as a validated (k, 6, 6) stack.

    Raises InvalidRange for the first member outside the documented window,
    unless `allow_out_of_range`, then NotAState for the first that is not a
    state, found by one gate for the stack. That is the order of checking one
    member at a time, as every in-window member is a state (for rho1, unless
    p + q underflows or overflows): its template is two 2 x 2 blocks
    [[p, r], [r, q]] whose determinant pq - r^2 is 0 for rho1, a - a^2 >= 0 for
    rho2 on (0, 1], -a^2 + 5a - 1 > 0 for rho3 on [1.75, 4.75] and
    -a^2 + 9a - 4 > 0 for rho4 on [3.5, 8.5].
    """
    params = np.asarray(params, dtype=float)
    _, entries, window = _FAMILIES[name]
    member = lambda i: f"{name}{tuple(params[i].tolist())}"  # as FamilySpec prints
    if not (allow_out_of_range or (inside := window(*params.T)).all()):
        raise InvalidRange(f"{member(np.argmin(inside))} is outside the documented parameter "
                           "window; pass allow_out_of_range=True to construct anyway")
    # As on floats: p + q = 0 or an overflow gives non-finite entries, which
    # the gate rejects by name, and no numpy warning.
    with np.errstate(all="ignore"):
        p, q, r = entries(*params.T)
        mats = np.zeros((len(params), 6, 6), dtype=complex)
        mats[:, [0, 5], [0, 5]] = p[:, None]
        mats[:, [1, 4], [1, 4]] = q[:, None]
        mats[:, [0, 4, 1, 5], [4, 0, 5, 1]] = r[:, None]
        mats /= 2.0 * (p + q)[:, None, None]
    invalid = first_invalid_state(mats)
    if invalid is not None:
        raise NotAState(f"{member(invalid[0])}: {invalid[1]}") from invalid[1]
    return mats


def build(spec: FamilySpec, allow_out_of_range: bool = False) -> DensityMatrix:
    """Construct the family member as a validated density matrix, else raise NotAState."""
    return DensityMatrix(2, 3, member_stack(spec.name, [spec.params], allow_out_of_range)[0])


def rho1_closed_forms(a: float, b: float) -> tuple[float, float]:
    """Closed-form (squared negativity, geometric discord) for rho1(a, b).

    With c = a/b: N^2 = (4c^2 + 2 - 2 sqrt(4c^2 + 1)) / (c^2 + 1)^2 and
    D = 2c^2/(c^2+1)^2 when c^2 >= 2, else (c^4 + 2c^2) / (2 (c^2 + 1)^2).
    Their difference N^2 - D is positive exactly for
    c^2 in (5 - sqrt 17, 2) union (2, inf) and zero at c^2 = 0, 5 - sqrt 17, 2.
    """
    if b <= 0:
        raise InvalidRange(f"rho1 requires b > 0, got b={b}")
    c2 = (a / b) ** 2
    denom = (c2 + 1.0) ** 2
    neg_sq = (4.0 * c2 + 2.0 - 2.0 * np.sqrt(4.0 * c2 + 1.0)) / denom
    if c2 >= 2.0:
        disc = 2.0 * c2 / denom
    else:
        disc = (c2 * c2 + 2.0 * c2) / (2.0 * denom)
    return float(neg_sq), float(disc)


def violates(spec: FamilySpec, allow_out_of_range: bool = False) -> tuple[bool, float]:
    """Whether the member has N^2 > D, and the margin N^2 - D.

    The margin is the gap of `measures.bounds_check`, and a violation is
    flagged only when it exceeds the noise floor 1e-12 that `sample` and
    `verify` use, so the zeros of the gap do not count. For rho1 the sufficient
    analytic criterion a^2 > 2 b^2 is cross-checked: such parameters are
    guaranteed to violate, so a nonpositive margin there signals a fault.
    (The converse does not hold: rho1 also violates on part of a^2 < 2 b^2.
    Its exact violation region is c^2 = a^2/b^2 in (5 - sqrt 17, 2) union
    (2, inf).)
    """
    margin = measures.bounds_check(build(spec, allow_out_of_range=allow_out_of_range)).gap
    if spec.name == "rho1":
        a, b = spec.params
        if a * a > 2.0 * b * b and margin <= VIOLATES_MARGIN_FLOOR:
            raise BoundViolation(
                f"rho1({a}, {b}) satisfies a^2 > 2b^2 but measured "
                f"N^2 - D = {margin!r}"
            )
    return margin > VIOLATION_EPS, margin
