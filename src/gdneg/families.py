"""Built-in families of 2 (x) 3 states with closed-form benchmarks.

All four families share one matrix template: diagonal (p, q, 0, 0, q, p) with
off-diagonal couplings r at positions (0,4), (1,5) and their transposes,
normalized by 2(p + q):

    rho1(a, b): p = a^2,    q = b^2, r = a b      (b > 0)
    rho2(a):    p = 3a + 1, q = a,   r = 2a       (0 < a <= 1)
    rho3(a):    p = 3a + 1, q = a,   r = 2a - 1   (7/4 <= a <= 19/4)
    rho4(a):    p = 3a + 1, q = a,   r = 2a - 2   (7/2 <= a <= 17/2)

With P, Q, R = p/s, q/s, r/s and s = p + q, every member has the closed forms
N = sqrt(Q^2 + 4R^2) - Q and D = min(2R^2, R^2 + P^2/2), so its gap N^2 - D
is positive exactly when |r| > sqrt(2) q on the branch R^2 <= P^2/2, and
`violates` checks each measured gap against them. Construction outside the
documented parameter windows is permitted behind an explicit flag; positivity
is always enforced after construction, by one gate per stack of members.
"""

import numpy as np

from . import measures
from .errors import FAMILY_NAMES, BoundViolation, InvalidRange, NotAState, Record, UnknownFamily
from .states import DensityMatrix, _gate
from .tolerances import CLOSED_FORM_ATOL, VIOLATION_EPS


def _rho1_entries(a, b):
    """rho1's (p, q, r) after scaling (a, b) by a power of two into [1/2, 1).

    The scaling is exact and rho1 depends on a/b alone, so every member keeps
    its entries while p + q = a^2 + b^2 can no longer underflow or overflow.
    """
    e = np.frexp(np.maximum(np.abs(a), np.abs(b)))[1]
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    return a * a, b * b, a * b


# name: (parameter count, template entries (p, q, r), documented window), on arrays too.
# The names are FAMILY_NAMES (rho1 to rho4), kept in `errors` without numpy for the CLI.
_FAMILIES = dict(zip(FAMILY_NAMES, (
    (2, _rho1_entries, lambda a, b: b > 0.0),
    (1, lambda a: (3.0 * a + 1.0, a, 2.0 * a), lambda a: (0.0 < a) & (a <= 1.0)),
    (1, lambda a: (3.0 * a + 1.0, a, 2.0 * a - 1.0), lambda a: (1.75 <= a) & (a <= 4.75)),
    (1, lambda a: (3.0 * a + 1.0, a, 2.0 * a - 2.0), lambda a: (3.5 <= a) & (a <= 8.5)),
), strict=True))


class FamilySpec(Record):
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


def member_stack(name: str, params, allow_out_of_range: bool = False) -> np.ndarray:
    """The members named by the rows of a (k, arity) array, as a validated (k, 6, 6) stack:
    the Hermitian parts its gate formed.

    Raises InvalidRange for the first member outside the documented window,
    unless `allow_out_of_range`, then NotAState for the first that is not a
    state, found by one gate for the stack. That is the order of checking one
    member at a time, as every in-window member is a state: its template is
    two 2 x 2 blocks [[p, r], [r, q]] whose determinant pq - r^2 is 0 for rho1,
    a - a^2 >= 0 for rho2 on (0, 1], -a^2 + 5a - 1 > 0 for rho3 on
    [1.75, 4.75] and -a^2 + 9a - 4 > 0 for rho4 on [3.5, 8.5].
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
    invalid, h = _gate(mats)
    if invalid is not None:
        raise NotAState(f"{member(invalid[0])}: {invalid[1]}") from invalid[1]
    return h


def build(spec: FamilySpec, allow_out_of_range: bool = False) -> DensityMatrix:
    """Construct the family member as a validated density matrix, else raise NotAState."""
    return DensityMatrix(2, 3, member_stack(spec.name, [spec.params], allow_out_of_range)[0])


def template_closed_forms(p, q, r):
    """Closed-form (squared negativity, geometric discord) of the template (p, q, r), on arrays.

    With P, Q, R = p/s, q/s, r/s and s = p + q, the partial transpose splits
    into two 2 x 2 blocks [[Q, R], [R, 0]] / 2 and their mirror, each with one
    negative eigenvalue, so N = sqrt(Q^2 + 4R^2) - Q, evaluated as
    4R^2 / (sqrt(Q^2 + 4R^2) + Q) for Q > 0 so that no digits cancel when R is
    small. G = diag(3R^2, 3R^2, 3P^2/2), so D = min(2R^2, R^2 + P^2/2). At
    Q = R = 0 both are 0.
    """
    s = p + q
    p, q, r = p / s, q / s, r / s  # P, Q, R
    r2 = r * r
    root = np.sqrt(q * q + 4.0 * r2)
    neg = np.divide(4.0 * r2, root + q, out=np.asarray(root - q), where=q > 0.0)
    return neg * neg, np.minimum(2.0 * r2, r2 + 0.5 * p * p)


def rho1_closed_forms(a: float, b: float) -> tuple[float, float]:
    """Closed-form (squared negativity, geometric discord) for rho1(a, b).

    With c = a/b: N^2 = (4c^2 + 2 - 2 sqrt(4c^2 + 1)) / (c^2 + 1)^2 and
    D = 2c^2/(c^2+1)^2 when c^2 >= 2, else (c^4 + 2c^2) / (2 (c^2 + 1)^2).
    Their difference N^2 - D is positive exactly for
    c^2 in (5 - sqrt 17, 2) union (2, inf) and zero at c^2 = 0, 5 - sqrt 17, 2.
    They are `template_closed_forms` at rho1's entries, which are scaled
    exactly by a power of two, so they depend on a/b alone and no square
    overflows; N keeps its relative precision as c goes to 0. A non-finite a
    or b, or b <= 0, raises InvalidRange.
    """
    a, b = float(a), float(b)
    # Written so that a NaN fails: every comparison with NaN is false.
    if not (abs(a) < np.inf and 0.0 < b < np.inf):
        raise InvalidRange(f"rho1 requires a finite and 0 < b < inf, got a={a}, b={b}")
    neg_sq, disc = template_closed_forms(*_rho1_entries(a, b))
    return float(neg_sq), float(disc)


def violates(spec: FamilySpec, allow_out_of_range: bool = False) -> tuple[bool, float]:
    """Whether the member has N^2 > D, and the margin N^2 - D.

    The margin is the gap of `measures.bounds_check`, and a violation is
    flagged only when it exceeds the noise floor 1e-12 that `sample` and
    `verify` use, so the zeros of the gap do not count. Every member's margin
    is cross-checked against `template_closed_forms` at its entries: a
    difference above CLOSED_FORM_ATOL, or a NaN, raises BoundViolation.
    """
    margin = measures.bounds_check(build(spec, allow_out_of_range=allow_out_of_range)).gap
    neg_sq, disc = template_closed_forms(*_FAMILIES[spec.name][1](*spec.params))
    closed = float(neg_sq - disc)
    if not abs(margin - closed) <= CLOSED_FORM_ATOL:
        raise BoundViolation(
            f"{spec.name}{spec.params}: measured N^2 - D = {margin!r} but the "
            f"closed forms give {closed!r}"
        )
    return margin > VIOLATION_EPS, margin
