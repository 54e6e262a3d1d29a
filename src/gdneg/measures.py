"""Negativity and geometric discord for bipartite states.

Geometric discord here carries the m/(m-1) normalization: m/(m-1) times the
squared Hilbert-Schmidt distance from rho to the nearest classical-quantum
state. Some references scale it by (m-1)/m relative to this convention; only
the m/(m-1)-normalized value is exposed.

For m = 2 the correlation-tensor formula is exact; for m >= 3 it is a lower
bound, flagged by `MeasureReport.discord_exact`. An independent
brute-force minimization over qubit von Neumann measurements cross-checks the
formula. `gd_bruteforce_stack` writes 2 ||rho - Pi_u(rho)||^2 as
Tr rho^2 - u^T M u, with M a 3 x 3 form built once per state from explicit
Pauli products of rho by the two measurement identities, not from Bloch data:
it reads no G matrix and solves no eigenproblem. For a whole stack of
2 (x) n states it climbs the sphere by u <- M u / ||M u|| from the three axes
at once, up to 2^60 steps taken as 10 blocks of 6 squarings of M with one
trace normalisation per block, stops at a block start once a rank-one
certificate proves every state of the stack within 9e-20 of its maximum
(most seeded chunks after 12 squarings), and keeps the best direction.

Every measure is computed by one kernel on a stack of states, shape
(k, mn, mn): one partial-transpose spectrum per state feeds both negativity
expressions and the negative-eigenvalue count, and one spectrum of G per
state gives the discord; each check is one `errors.Check` over the
stack. The CLI runs it on chunks of states and `bounds_check`, the one
single-state entry, on a stack of one, so each formula and check exists once
and a single state's measures come with its first fault raised. The
measurement identities run on stacks the same way. The package needs numpy
alone.

The kernel, `_measure_stack`, takes validated stacks, which are exactly
Hermitian (see `states`), and reads every measure from them as they are.

Pure states need only their Schmidt coefficients. `_measure_pure_stack`
measures a stack of unit vectors from them, with `pure_negativity`, `pure_gd`
at m = 2 and the lower bound's spectrum written in Schmidt weights at m >= 3,
and returns what the kernel would return for their projectors; one kernel
call on the projectors of every c-th state, c given by the caller, is the
cross-check.

At the chunk sizes the CLI runs, much of a chunk's time is fixed cost per
numpy call, so the chunk path calls numpy's C entry points in place of the
Python helpers that wrap them, with the same bytes; README lists them. Each
set of checks is built once and walked once: `errors.first_fault` joins the
failure masks with one `|` per check.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import bloch
from .errors import (
    BoundViolation,
    CapViolation,
    Check,
    DimensionMismatch,
    InvalidDimension,
    Record,
    failed_states,
    first_fault,
)
from .matrixcore import _spectrum, hermitian_part, hs_norm_sq, partial_transpose
from .states import DensityMatrix, PureState
from .su_generators import basis_stack
from .tolerances import (
    BOUND_ATOL,
    DISCORD_CLAMP_FLOOR,
    DUAL_NEGATIVITY_ATOL,
    IDENTITY_ATOL,
    NEGATIVE_EIGENVALUE_CUTOFF,
    PSD_MIN_EIGENVALUE,
    PURE_ROUTE_ATOL,
    RANK_ONE_DEFECT_ATOL,
    SCHMIDT_CUTOFF,
    TWO_PARTY_ATOL,
    negativity_ceiling,
)

class MeasureReport(Record):
    """The measures and bound verdicts of one m (x) n state, from `bounds_check`.

    N = 2/(m-1) times the absolute sum of the negative partial-transpose
    eigenvalues, so its maximum is 1, agreeing with (trace norm - 1)/(m-1)
    within 1e-9. D_lb = 2/(m(m-1)n) times the sum of all but the top m - 1
    eigenvalues of G = B B^T, B = [x, sqrt(2/n) T], clamped at zero within
    -1e-12 of solver noise: the geometric discord of every 2 (x) n state and,
    with no closed formula for m >= 3, a lower bound there (`discord_exact`).
    `pt_negative_count` counts PT eigenvalues below the noise cutoff, provably
    at most `pt_negative_cap` = (m-1)(n-1) for a positive semidefinite state.
    The cap is checked on the count below PSD_MIN_EIGENVALUE plus that cutoff,
    which holds for every state the gate admits.
    """

    negativity: float
    negativity_sq: float
    discord: float
    discord_exact: bool
    gap: float  # N^2 - D
    pt_negative_count: int
    pt_negative_cap: int
    bounds_ok: bool


# ---------------------------------------------------------------------------
# The stack kernel


def _outside(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return ~((lo - BOUND_ATOL <= values) & (values <= hi + BOUND_ATOL))


class _StackMeasures(NamedTuple):
    """Measures of a stack of states and their per-state verdicts."""

    negativity: np.ndarray
    discord: np.ndarray
    gap: np.ndarray  # N^2 - D
    pt_negative_count: np.ndarray
    checks: tuple  # one `Check` per theorem, in the order a state's faults are reported

    @property
    def ok(self) -> np.ndarray:
        """True where every check passed."""
        return ~failed_states(self.checks)


def _interval_checks(neg, disc, gap, m: int, n: int) -> tuple:
    """N in [0, 1], D in [0, m/(m-1)] and N^2 - D in [-m/(m-1), 1], each with BOUND_ATOL
    slack, and with 1 raised to `negativity_ceiling` (squared for N^2 - D)."""
    d_max = m / (m - 1)
    n_max = negativity_ceiling(m, n)
    return (
        Check(
            _outside(neg, 0.0, n_max),
            lambda i: BoundViolation(f"negativity {float(neg[i])!r} outside [0, 1]"),
        ),
        Check(
            _outside(disc, 0.0, d_max),
            lambda i: BoundViolation(f"discord {float(disc[i])!r} outside [0, {d_max}]"),
        ),
        Check(
            _outside(gap, -d_max, n_max * n_max),
            lambda i: BoundViolation(
                f"N^2 - D = {float(gap[i])!r} outside [{-d_max}, 1] for a {m}x{n} state"
            ),
        ),
    )


def _two_party_checks(neg, disc, m: int, n: int) -> tuple:
    """At m = 2, where D is exact: D >= N^2/(n-1), which at 2x2 is Girolami &
    Adesso's D >= N^2, with TWO_PARTY_ATOL slack for the negative eigenvalues
    the gate admits. None at m >= 3, where D is a lower bound. The proof is
    written out in `tests/test_checks.py`.
    """
    if m != 2:
        return ()
    floor = neg * neg / (n - 1)
    return (
        Check(
            ~(disc >= floor - TWO_PARTY_ATOL),
            lambda i: BoundViolation(
                f"D >= N^2/(n-1) failed for a 2x{n} state: D = {float(disc[i])!r} "
                f"is below N^2/{n - 1} = {float(floor[i])!r}"
            ),
        ),
    )


def _measure_stack(h: np.ndarray, m: int, n: int) -> _StackMeasures:
    """Negativity, discord, gap N^2 - D and PT negative count of a validated,
    exactly Hermitian (k, mn, mn) stack `h`.

    The checks, in order: the two negativity expressions agree, the discord
    is not negative beyond solver noise, at most (m-1)(n-1) PT eigenvalues
    lie below PSD_MIN_EIGENVALUE and the noise cutoff, N, D and N^2 - D lie in
    their proven intervals, D is at most m/(m-1) (Tr rho^2 - Tr rho_B^2/m),
    the normalized squared distance to the classical-quantum state
    I/m (x) rho_B, and at m = 2 the lower bound
    of `_two_party_checks`. A failing state raises nothing;
    `errors.first_fault(checks)` gives its error. No hermiticity check is
    made again. m < 2 or n < 2 raises InvalidDimension.
    """
    if m < 2 or n < 2:
        raise InvalidDimension(f"measures require m >= 2 and n >= 2, got a {m}x{n} state")
    w = _spectrum(partial_transpose(h, m, n))
    via_trace_norm = (np.abs(w).sum(axis=1) - 1.0) / (m - 1)
    # The sum of the negative eigenvalues, negated: fmin, like the mask w < 0,
    # drops NaN, and 0.0 - s keeps N = +0.0 where -s would give -0.0.
    neg = 2.0 * (0.0 - np.fmin(w, 0.0).sum(axis=1)) / (m - 1)
    count = (w < NEGATIVE_EIGENVALUE_CUTOFF).sum(axis=1)
    # rho + eps I >= 0 for eps = -PSD_MIN_EIGENVALUE, so the cap holds below -eps.
    capped = (w < NEGATIVE_EIGENVALUE_CUTOFF + PSD_MIN_EIGENVALUE).sum(axis=1)
    cap = (m - 1) * (n - 1)
    lam = np.linalg.eigvalsh(bloch.g_stack(h, m, n))
    raw = (2.0 / (m * (m - 1) * n)) * lam[:, : m * m - m].sum(axis=1)
    disc = np.maximum(raw, 0.0)
    gap = neg * neg - disc
    # I/m (x) rho_B is classical-quantum, so D <= m/(m-1) ||rho - I/m (x) rho_B||^2.
    blocks = h.reshape(len(h), m, n, m, n)
    rho_b = sum(blocks[:, i, :, i] for i in range(m))  # the block trace Tr_A
    distance = (m / (m - 1)) * (hs_norm_sq(h) - hs_norm_sq(rho_b) / m)
    checks = (
        Check(
            ~(np.abs(via_trace_norm - neg) <= DUAL_NEGATIVITY_ATOL),
            lambda i: BoundViolation(
                "the two negativity expressions disagree: "
                f"{float(via_trace_norm[i])!r} vs {float(neg[i])!r}"
            ),
        ),
        Check(
            ~(raw >= DISCORD_CLAMP_FLOOR),
            lambda i: BoundViolation(f"discord lower bound came out negative: {float(raw[i])!r}"),
        ),
        Check(
            capped > cap,
            lambda i: CapViolation(
                f"{capped[i]} negative partial-transpose eigenvalues exceed the cap {cap} "
                f"for a {m}x{n} state"
            ),
        ),
    ) + _interval_checks(neg, disc, gap, m, n) + (
        Check(
            ~(disc <= distance + BOUND_ATOL),
            lambda i: BoundViolation(
                f"classical-quantum distance bound failed: D = {float(disc[i])!r} exceeds "
                f"m/(m-1) (Tr rho^2 - Tr rho_B^2/m) = {float(distance[i])!r}"
            ),
        ),
    ) + _two_party_checks(neg, disc, m, n)
    return _StackMeasures(neg, disc, gap, count, checks)


# ---------------------------------------------------------------------------
# Pure states from their Schmidt data


def _projectors(vs: np.ndarray) -> np.ndarray:
    """|v><v| of each vector of a (..., d) stack: shape (..., d, d)."""
    return vs[..., :, None] * vs.conj()[..., None, :]


@lru_cache(maxsize=None)
def _pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only index arrays (i, j) of every pair i < j of r entries."""
    pairs = np.triu_indices(r, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _pair_products(x: np.ndarray) -> np.ndarray:
    """x_i x_j for every pair i < j of the last axis."""
    i, j = _pairs(x.shape[-1])
    return x[..., i] * x[..., j]


def _schmidt_stack(a: np.ndarray) -> np.ndarray:
    """Schmidt coefficients of each unit (m, n) amplitude matrix of a (k, m, n) stack: (k, m).

    At m >= 3, one batched SVD. At m = 2, no LAPACK call: c1 c2 =
    sqrt(det(a a^dag)) is the root of the sum of the squared 2 x 2 minors on
    the column pairs i < j (Cauchy-Binet), a sum of non-negative terms that
    keeps its digits near product states. Then
    c1 = sqrt((1 + sqrt(1 - 4 c1^2 c2^2))/2) >= 1/sqrt(2) and c2 = c1 c2 / c1,
    so the product, which is all the measures read at m = 2, is kept to
    rounding.
    """
    if a.shape[1] > 2:
        return np.linalg.svd(a, compute_uv=False)
    i, j = _pairs(a.shape[2])
    minors = a[:, 0, i] * a[:, 1, j] - a[:, 0, j] * a[:, 1, i]
    product = np.sqrt((np.abs(minors) ** 2).sum(axis=1))
    c = np.empty((len(a), 2))
    c[:, 0] = np.sqrt((1.0 + np.sqrt(np.maximum(1.0 - 4.0 * product**2, 0.0))) / 2)
    c[:, 1] = product / c[:, 0]
    return c


@lru_cache(maxsize=None)
def _centring(m: int) -> np.ndarray:
    """The read-only centring matrix C = I - J/m."""
    centring = np.eye(m) - 1.0 / m
    centring.setflags(write=False)
    return centring


def _pure_lower_bound(p: np.ndarray) -> np.ndarray:
    """The correlation-tensor lower bound of pure states from their Schmidt weights p = c^2, (k, m).

    For a pure state, G = B B^T of `_measure_stack` has the spectrum m^2 n / 2
    times {p_i p_j : i != j} together with the m eigenvalues of C diag(p^2) C,
    C = I - J/m, less one of those, which is 0. So the bound, 2/(m(m-1)n)
    times G's spectrum less its top m - 1 eigenvalues, is m/(m-1) times
    the sum of these m^2 values less their top m - 1.
    """
    m = p.shape[1]
    pairs = _pair_products(p)
    centring = _centring(m)
    centred = np.linalg.eigvalsh((centring * (p * p)[:, None, :]) @ centring)
    values = np.concatenate([pairs, pairs, centred], axis=1)
    values.sort(axis=1)
    return (m / (m - 1)) * values[:, : m * m - m + 1].sum(axis=1)


def _measure_pure_stack(vs: np.ndarray, m: int, n: int, every: int = 1) -> _StackMeasures:
    """`_measure_stack` of the projectors of a validated (k, mn) stack of unit vectors, m <= n.

    Measured from the Schmidt coefficients c of each (m, n) amplitude matrix:
    N is `pure_negativity(c)`, D is `pure_gd(c)` at m = 2, where the lower
    bound is exact, and `_pure_lower_bound` at m >= 3, and the PT negative
    count is the number of pairs i < j with -c_i c_j below the noise cutoff
    (a pure state's PT spectrum is the p_i, the +-c_i c_j and zeros, so the
    count is at most m(m-1)/2 <= (m-1)(n-1)). As a cross-check, one
    `_measure_stack` call runs on the Hermitian parts of the projectors of
    states 0, `every`, 2 `every`, ...: each of those states gets the kernel's
    checks, the cap check among them, then the check that the two routes agree
    on N and D within PURE_ROUTE_ATOL. The interval checks then apply to every
    state, then the kernel's two-party checks to the cross-checked states and
    the route's own to every state.
    """
    k = len(vs)
    kernel = _measure_stack(hermitian_part(_projectors(vs[::every])), m, n)
    c = _schmidt_stack(vs.reshape(k, m, n))
    neg = pure_negativity(c, m)
    disc = pure_gd(c, m) if m == 2 else _pure_lower_bound(c * c)
    gap = neg * neg - disc
    count = (-_pair_products(c) < NEGATIVE_EIGENVALUE_CUTOFF).sum(axis=1)
    dev = np.maximum(np.abs(neg[::every] - kernel.negativity),
                     np.abs(disc[::every] - kernel.discord))
    cross = Check(
        ~(dev <= PURE_ROUTE_ATOL),
        lambda j: BoundViolation(
            "the Schmidt and projector routes disagree: "
            f"N {float(neg[j * every])!r} vs {float(kernel.negativity[j])!r}, "
            f"D {float(disc[j * every])!r} vs {float(kernel.discord[j])!r}"
        ),
    )
    two_party = _two_party_checks(neg, disc, m, n)
    cut = len(kernel.checks) - len(two_party)  # the kernel's two-party checks come last

    def spread(check):  # the kernel's state j is state j * every of the stack
        failed = np.zeros(k, dtype=bool)
        failed[::every] = check.failed
        return Check(failed, lambda i: check.fault(i // every))

    checks = (tuple(map(spread, kernel.checks[:cut] + (cross,)))
              + _interval_checks(neg, disc, gap, m, n)
              + tuple(map(spread, kernel.checks[cut:])) + two_party)
    return _StackMeasures(neg, disc, gap, count, checks)


# ---------------------------------------------------------------------------
# Measurements, the oracle and the single-state entries


def project_a(mat: np.ndarray, n: int, u) -> np.ndarray:
    """Apply the qubit von Neumann measurement along direction u to side A.

    Returns sum_k (P_k (x) I_n) rho (P_k (x) I_n) for the projectors
    P_+/- = (I +/- u.sigma)/2, computed as (rho + S rho S)/2 with
    S = u.sigma (x) I_n: the cross terms of the two products cancel, so
    this holds for every real u, unit or not. On a (k, 2n, 2n) stack with
    a (k, 3) array of directions, matrix i is measured along u[i].
    """
    s = np.einsum("...a,aij->...ij", np.asarray(u, dtype=float), _side_paulis(n))
    return (mat + s @ mat @ s) / 2


# Each squaring of the form doubles the steps u <- M u / ||M u|| taken from the
# three axes: after p steps from the best axis u^T M u is within 1/(p e) of its
# maximum whatever M's eigengap, so 2^60 steps leave less than 1e-18. They are
# taken as 10 blocks of 6 squarings, one trace normalisation per block: a PSD
# P of unit trace has top eigenvalue at least 1/3 and no entry above 1, so
# after 6 squarings its top eigenvalue is at least 3^-64 (about 3e-31), far
# above the smallest normal float, and no entry overflows.
#
# The climb stops at the start of block b > 0 once the rank-one defect
# eta = 1 - ||P'||_F^2 of each state's unit-trace P' is at most
# RANK_ONE_DEFECT_ATOL, which keeps that promise. After q = 2^(6b) steps, P'
# has M's eigenvectors w_i and weights mu_i = lambda_i^q / sum lambda^q, with
# lambda_1 >= lambda_2 >= lambda_3 >= 0. So delta = 1 - mu_1 <= 2/3,
# ||P'||_F^2 <= (1 - delta)^2 + delta^2 and eta >= 2 delta (1 - delta): eta <
# 4/9 gives delta <= 1/2, and then delta <= eta. Column j of P' is
# sum mu_i (w_i.e_j) w_i; for the axis j with (w_1.e_j)^2 >= 1/3, its Rayleigh
# quotient v_j is a weighted mean of the lambda_i with lambda_1 - v_j <=
# lambda_1 delta^2 / (mu_1^2 / 3) <= 3 lambda_1 eta^2 / (1 - eta)^2. As
# lambda_1 <= Tr M <= 3 Tr rho^2 <= 3, at eta <= 1e-10 the best column is
# within 9e-20 of lambda_1. A near tie stops the climb only once its steps
# resolve the gap; a zero form (eta = 1), a tie within rounding (eta near 1/2)
# or a NaN never does.
_ASCENT_SQUARINGS = 60
_SQUARINGS_PER_NORMALISATION = 6
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _side_paulis(n: int) -> np.ndarray:
    """sigma_a (x) I_n for a = 1, 2, 3, stacked read-only: shape (3, 2n, 2n)."""
    stack = np.stack([np.kron(s, np.eye(n)) for s in basis_stack(2)])
    stack.setflags(write=False)
    return stack


def _form(mats: np.ndarray, n: int) -> np.ndarray:
    """The objective's 3 x 3 form M of each state of a (k, 2n, 2n) stack: shape (k, 3, 3).

    M_ab = Re Tr(rho S_a rho S_b) with S_a = sigma_a (x) I_n. For a unit u,
    S = u.sigma (x) I_n squares to I and Pi_u(rho) = (rho + S rho S)/2, so
    Tr(Pi_u(rho)^2) = Tr(rho Pi_u(rho)) = (Tr rho^2 + u^T M u)/2 and
    2 ||rho - Pi_u(rho)||^2 = 2 (Tr rho^2 - Tr(Pi_u(rho)^2)) = Tr rho^2 - u^T M u.
    M is the Gram matrix of the sqrt(rho) S_a sqrt(rho), so Re drops only rounding.
    """
    products = _side_paulis(n) @ mats[:, None]  # S_a rho
    return np.einsum("kaij,kbji->kab", products, products).real


def _form_values(form: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^T M u of each state's form (k, 3, 3) at each of its directions u (k, g, 3)."""
    return np.einsum("kga,kab,kgb->kg", u, form, u)


def _rank_one(p: np.ndarray) -> bool:
    """True when each unit-trace P' of a (k, 3, 3) stack has 1 - ||P'||_F^2 <= RANK_ONE_DEFECT_ATOL.

    The certificate that stops the oracle's climb; see `_ASCENT_SQUARINGS`.
    A NaN defect fails it.
    """
    return bool((1.0 - (p * p).sum(axis=(1, 2)) <= RANK_ONE_DEFECT_ATOL).all())


def gd_bruteforce_stack(mats: np.ndarray, n: int) -> np.ndarray:
    """Geometric discord of each state of a (k, 2n, 2n) stack by direct minimization.

    Minimizes 2 ||rho - Pi_u(rho)||^2 = Tr rho^2 - u^T M u over all qubit von
    Neumann measurements, unit vectors u, so it maximizes u^T M u; M is the
    3 x 3 form of `_form`, built once per state from explicit Pauli products
    of rho. That is exact algebra on rho's entries and the two measurement
    identities: the search reads no Bloch data, no G matrix and no
    eigenproblem, and shares nothing with the correlation-tensor formula it
    checks, which takes an eigenvalue.

    It climbs the sphere by u <- M u / ||M u||. M is a Gram matrix, so u^T M u
    is convex and each step maximizes its linearization over the sphere: no
    step lowers the value. The climb starts from the three axes at once and
    takes up to 2^60 steps as 10 blocks of 6 squarings P <- P P from
    P = M / Tr M, with one trace normalisation per block, so column j of P is
    axis j climbed; a positive scale changes no direction. It stops at the
    start of a later block once every state's unit-trace P' is rank one to
    within 1 - ||P'||_F^2 <= 1e-10, which puts the best column within 9e-20
    of the maximum; a tie within rounding, a zero form or a NaN runs all 60.
    So a value depends, at rounding, on the other states of its stack. See
    `_ASCENT_SQUARINGS` for the proof of the stop, for why 60 squarings end
    within 1e-18 of the maximum and why 6 squarings of a unit-trace P neither
    underflow (its top eigenvalue stays above 3^-64) nor overflow. Each value
    is Tr rho^2 minus the best u^T M u among the three normalized columns, so
    it is attained by an explicit unit u and never falls below the true
    minimum. n < 2 raises InvalidDimension.
    """
    if n < 2:
        raise InvalidDimension(f"brute-force discord requires n >= 2, got a 2x{n} stack")
    mats = np.asarray(mats, dtype=complex)
    k, d = len(mats), 2 * n
    if mats.shape != (k, d, d):
        raise DimensionMismatch(f"expected a (k, {d}, {d}) stack of 2x{n} states, got {mats.shape}")
    form = _form(mats, n)
    # Every column is 0 when M = 0 (a pure state with a maximally mixed qubit
    # side), and one may decay to 0 or below the square root of the smallest
    # float when M is diagonal. Scaling each column by its largest entry
    # before its norm keeps that norm in [1, sqrt 3] or at 0: a column is
    # never blown up past unit length, and a zero column scores 0.
    p = form
    for block in range(_ASCENT_SQUARINGS // _SQUARINGS_PER_NORMALISATION):
        p = p / np.maximum(p.trace(axis1=1, axis2=2), _TINY)[:, None, None]
        if block and _rank_one(p):
            break
        for _ in range(_SQUARINGS_PER_NORMALISATION):
            p = p @ p
    u = p.transpose(0, 2, 1)
    u = u / np.maximum(np.abs(u).max(axis=2, keepdims=True), _TINY)
    u = u / np.maximum(np.sqrt((u * u).sum(axis=2, keepdims=True)), 1.0)
    return hs_norm_sq(mats) - _form_values(form, u).max(axis=1)


def schmidt(phi: PureState) -> np.ndarray:
    """Schmidt coefficients of a pure state, sorted nonincreasing.

    Singular values of the m x n amplitude matrix, with values at or below
    1e-12 dropped. Squares sum to 1 for a unit vector.
    """
    amp = phi.amplitudes.reshape(phi.m, phi.n)
    c = np.linalg.svd(amp, compute_uv=False)
    return c[c > SCHMIDT_CUTOFF].copy()


def pure_negativity(c, m: int):
    """Negativity of a pure state from its Schmidt coefficients: 2 sum_{i<j} c_i c_j / (m-1).

    A sum of non-negative products, equal to ((sum c)^2 - 1)/(m-1) for unit
    vectors but without its cancellation near product states. On a (..., r)
    array of coefficients, one value per row of the last axis; m < 2 raises InvalidDimension.
    """
    if m < 2:
        raise InvalidDimension(f"pure-state measures require m >= 2, got m={m}")
    return 2.0 * _pair_products(np.asarray(c, dtype=float)).sum(axis=-1) / (m - 1)


def pure_gd(c, m: int):
    """Geometric discord of a pure state from its Schmidt coefficients: m/(m-1) sum_{i!=j} p_i p_j.

    With p = c^2: a sum of non-negative products, equal to m/(m-1) (1 - sum p^2)
    for unit vectors but without its cancellation near product states. On a
    (..., r) array of coefficients, one value per row of the last axis; m < 2 raises
    InvalidDimension.
    """
    if m < 2:
        raise InvalidDimension(f"pure-state measures require m >= 2, got m={m}")
    c = np.asarray(c, dtype=float)
    return (2.0 * m / (m - 1)) * _pair_products(c * c).sum(axis=-1)


def maximal_state(m: int, n: int) -> DensityMatrix:
    """Projector onto (1/sqrt(m)) sum_i |i>|i>, embedded in m (x) n.

    Attains negativity 1 and geometric discord 1.
    """
    if not 2 <= m <= n:
        raise InvalidDimension(f"maximal state requires 2 <= m <= n, got {m}x{n}")
    v = np.zeros(m * n, dtype=complex)
    for i in range(m):
        v[i * n + i] = 1.0 / math.sqrt(m)
    return DensityMatrix(m, n, np.outer(v, v.conj()))


def _identity_checks(mats: np.ndarray, n: int, us) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The measurement identities of a (k, 2n, 2n) stack, state i measured along us[i].

    Returns the checks of Tr((Pi(rho))^2) = Tr(rho Pi(rho)) and ||rho - Pi(rho)||^2 =
    Tr(rho^2) - Tr((Pi(rho))^2), and the two traces per state. A zero direction,
    drawn with probability near 0, gives NaN residuals, which fail the first check.
    """
    units = us / np.sqrt((us * us).sum(axis=-1))[:, None]
    projected = project_a(mats, n, units)
    pi_sq = np.einsum("kij,kji->k", projected, projected).real
    rho_pi = np.einsum("kij,kji->k", mats, projected).real
    distance_sq = hs_norm_sq(mats - projected)
    purity_gap = np.einsum("kij,kji->k", mats, mats).real - pi_sq
    checks = (
        Check(
            ~(np.abs(pi_sq - rho_pi) <= IDENTITY_ATOL),
            lambda i: BoundViolation(
                f"measurement identity failed: Tr(Pi(rho)^2)={float(pi_sq[i])!r} vs "
                f"Tr(rho Pi(rho))={float(rho_pi[i])!r}"
            ),
        ),
        Check(
            ~(np.abs(distance_sq - purity_gap) <= IDENTITY_ATOL),
            lambda i: BoundViolation(
                f"distance identity failed: ||rho-Pi(rho)||^2={float(distance_sq[i])!r} vs "
                f"Tr(rho^2)-Tr(Pi(rho)^2)={float(purity_gap[i])!r}"
            ),
        ),
    )
    return checks, pi_sq, rho_pi


def bounds_check(rho: DensityMatrix) -> MeasureReport:
    """Compute all measures of one state, as `MeasureReport` defines them, and
    verify the proven bounds: the kernel on a stack of one.

    0 <= N <= 1, 0 <= D <= m/(m-1) and -m/(m-1) <= N^2 - D <= 1, each with
    1e-9 slack and with 1 raised to `negativity_ceiling` for the negative
    eigenvalues the gate admits. The state's first fault among all the checks
    is raised, a BoundViolation or a CapViolation: these are theorems, so a
    failure signals a numerical fault.
    """
    measured = _measure_stack(rho.mat[None], rho.m, rho.n)
    fault = first_fault(measured.checks)
    if fault is not None:
        raise fault[1]
    neg = float(measured.negativity[0])
    # By position, in field order: a keyword construction binds its arguments in Python.
    return MeasureReport(neg, neg * neg, float(measured.discord[0]), rho.m == 2,
                         float(measured.gap[0]), int(measured.pt_negative_count[0]),
                         (rho.m - 1) * (rho.n - 1), True)
