"""Negativity and geometric discord for bipartite states.

Geometric discord here carries the m/(m-1) normalization: m/(m-1) times the
squared Hilbert-Schmidt distance from rho to the nearest classical-quantum
state. Some references scale it by (m-1)/m relative to this convention; only
the m/(m-1)-normalized value is exposed.

For m = 2 the correlation-tensor formula is exact; for m >= 3 it is a lower
bound and `geometric_discord` says so via its exactness flag. An independent
brute-force minimization over qubit von Neumann measurements is provided as
`gd_bruteforce_2xn` and is used to cross-check the formula in tests.

Every measure is computed by one kernel on a stack of states, shape
(k, mn, mn): one partial-transpose spectrum per state feeds both negativity
expressions and the negative-eigenvalue count, and one stacked Bloch
extraction feeds the discord. The CLI runs it on chunks of states; the
single-state functions here run it on a stack of one, so each formula and
each check exists once. scipy is imported only when the brute-force oracle
runs, so `import gdneg` does not load it.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bloch
from .errors import BoundViolation, CapViolation, InvalidDimension, InvalidRange, WrongDimension
from .matrixcore import hermitian_eigenvalues, hs_norm_sq, partial_transpose
from .states import DensityMatrix, PureState
from .su_generators import basis_stack
from .tolerances import (
    BOUND_ATOL,
    DISCORD_CLAMP_FLOOR,
    DUAL_NEGATIVITY_ATOL,
    IDENTITY_ATOL,
    IMAG_RESIDUE_ATOL,
    NEGATIVE_EIGENVALUE_CUTOFF,
    ORACLE_FATOL,
    ORACLE_XATOL,
    SCHMIDT_CUTOFF,
)

__all__ = [
    "DensityMatrix",
    "PureState",
    "MeasureReport",
    "negativity",
    "pt_negative_count",
    "gd_lower_bound",
    "geometric_discord",
    "gd_bruteforce_2xn",
    "project_a",
    "schmidt",
    "pure_negativity",
    "pure_gd",
    "maximal_state",
    "bounds_check",
    "measurement_identity_check",
]


@dataclass(frozen=True)
class MeasureReport:
    """Aggregated measures and bound verdicts for one state."""

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


class _Check(NamedTuple):
    """One check over a stack: which states fail it, and the error for state i."""

    failed: np.ndarray
    fault: Callable[[int], Exception]


def _raise_first(checks, i: int) -> None:
    for check in checks:
        if check.failed[i]:
            raise check.fault(i)


def _pt_spectra(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    return hermitian_eigenvalues(partial_transpose(mats, m, n))


def _negativity(w: np.ndarray, m: int) -> tuple[np.ndarray, _Check]:
    # Both expressions from the PT spectra w, rows sorted nonincreasing.
    if m < 2:
        raise InvalidDimension(f"negativity requires m >= 2, got m={m}")
    via_trace_norm = (np.sum(np.abs(w), axis=1) - 1.0) / (m - 1)
    via_negative_part = 2.0 * -np.sum(np.where(w < 0.0, w, 0.0), axis=1) / (m - 1)
    disagree = _Check(
        ~(np.abs(via_trace_norm - via_negative_part) <= DUAL_NEGATIVITY_ATOL),
        lambda i: BoundViolation(
            "the two negativity expressions disagree: "
            f"{float(via_trace_norm[i])!r} vs {float(via_negative_part[i])!r}"
        ),
    )
    return via_negative_part, disagree


def _negative_count(w: np.ndarray, m: int, n: int) -> tuple[np.ndarray, _Check]:
    count = np.sum(w < NEGATIVE_EIGENVALUE_CUTOFF, axis=1)
    cap = (m - 1) * (n - 1)
    over_cap = _Check(
        count > cap,
        lambda i: CapViolation(
            f"{count[i]} negative partial-transpose eigenvalues exceed the cap {cap} "
            f"for a {m}x{n} state"
        ),
    )
    return count, over_cap


def _discord(mats: np.ndarray, m: int, n: int) -> tuple[np.ndarray, _Check, _Check]:
    coeffs, residue = bloch.coefficient_stack(mats, m, n)
    x, t = coeffs[:, 1:, 0], coeffs[:, 1:, 1:]
    lam = np.linalg.eigvalsh(bloch.g_stack(x, t, n))[:, ::-1]
    top = np.sum(lam[:, : m - 1], axis=1)
    raw = (2.0 / (m * (m - 1) * n)) * (
        np.sum(x * x, axis=1) + (2.0 / n) * np.sum(t * t, axis=(1, 2)) - top
    )
    imaginary = _Check(
        ~(residue <= IMAG_RESIDUE_ATOL),
        lambda i: bloch.imag_residue_fault(residue[i]),
    )
    negative = _Check(
        ~(raw >= DISCORD_CLAMP_FLOOR),
        lambda i: BoundViolation(f"discord lower bound came out negative: {float(raw[i])!r}"),
    )
    return np.maximum(raw, 0.0), imaginary, negative


def _outside(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return ~((lo - BOUND_ATOL <= values) & (values <= hi + BOUND_ATOL))


@dataclass(frozen=True)
class _StackMeasures:
    """Measures of a stack of states and their per-state verdicts."""

    negativity: np.ndarray
    discord: np.ndarray
    gap: np.ndarray  # N^2 - D
    pt_negative_count: np.ndarray
    ok: np.ndarray  # True where every check passed
    checks: tuple

    def raise_fault(self, i: int) -> None:
        """Raise the error `bounds_check` raises for state i, if it has one."""
        _raise_first(self.checks, i)


def _measure_stack(mats: np.ndarray, m: int, n: int) -> _StackMeasures:
    """Negativity, discord, gap N^2 - D and PT negative count of a validated (k, mn, mn) stack.

    A state fails when a check fails: the two negativity expressions
    disagree, the Bloch data has an imaginary residue (InvalidState), the
    discord is negative beyond solver noise, the PT negative count exceeds
    (m-1)(n-1), or N, D or N^2 - D leaves its proven interval. Nothing is
    raised for a failing state; `raise_fault` gives the error of the first
    check it fails, in that order.
    """
    w = _pt_spectra(mats, m, n)
    neg, disagree = _negativity(w, m)
    disc, imaginary, negative = _discord(mats, m, n)
    count, over_cap = _negative_count(w, m, n)
    d_max = m / (m - 1)
    gap = neg * neg - disc
    checks = (
        disagree,
        imaginary,
        negative,
        over_cap,
        _Check(
            _outside(neg, 0.0, 1.0),
            lambda i: BoundViolation(f"negativity {float(neg[i])!r} outside [0, 1]"),
        ),
        _Check(
            _outside(disc, 0.0, d_max),
            lambda i: BoundViolation(f"discord {float(disc[i])!r} outside [0, {d_max}]"),
        ),
        _Check(
            _outside(gap, -d_max, 1.0),
            lambda i: BoundViolation(
                f"N^2 - D = {float(gap[i])!r} outside [{-d_max}, 1] for a {m}x{n} state"
            ),
        ),
    )
    ok = ~np.logical_or.reduce([check.failed for check in checks])
    return _StackMeasures(neg, disc, gap, count, ok, checks)


# ---------------------------------------------------------------------------
# Single-state measures: the kernel on a stack of one


def negativity(rho: DensityMatrix) -> float:
    """Negativity of a state, normalized so the maximum value is 1.

    Computed as 2/(m-1) times the absolute sum of negative partial-transpose
    eigenvalues; the equivalent (trace norm - 1)/(m-1) expression is evaluated
    alongside and required to agree within 1e-9.
    """
    neg, disagree = _negativity(_pt_spectra(rho.mat[None], rho.m, rho.n), rho.m)
    _raise_first((disagree,), 0)
    return float(neg[0])


def pt_negative_count(rho: DensityMatrix) -> int:
    """Number of partial-transpose eigenvalues below the noise cutoff.

    Provably at most (m-1)(n-1); exceeding that cap is reported as a fault
    rather than clamped.
    """
    count, over_cap = _negative_count(_pt_spectra(rho.mat[None], rho.m, rho.n), rho.m, rho.n)
    _raise_first((over_cap,), 0)
    return int(count[0])


def gd_lower_bound(rho: DensityMatrix) -> float:
    """Correlation-tensor lower bound on geometric discord.

    (2/(m(m-1)n)) [ ||x||^2 + (2/n)||T||^2 - sum of top m-1 eigenvalues of
    G = x x^T + (2/n) T T^T ]. Nonnegative analytically; clamped at zero only
    within -1e-12 of solver noise.
    """
    disc, imaginary, negative = _discord(rho.mat[None], rho.m, rho.n)
    _raise_first((imaginary, negative), 0)
    return float(disc[0])


def geometric_discord(rho: DensityMatrix) -> tuple[float, bool]:
    """Geometric discord with an exactness flag.

    The value is the correlation-tensor expression, which equals the discord
    for every 2 (x) n state; for m >= 3 no closed formula is available and
    the value is a lower bound, flagged exact=False.
    """
    return gd_lower_bound(rho), rho.m == 2


def _direction(theta, phi) -> np.ndarray:
    # Unit vector(s) at polar angle theta and azimuth phi: shape (3,) for
    # scalars, (k, 3) for arrays of k angles.
    sin_t = np.sin(theta)
    return np.array([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)]).T


def project_a(mat: np.ndarray, n: int, u) -> np.ndarray:
    """Apply the qubit von Neumann measurement along direction u to side A.

    Returns sum_k (P_k (x) I_n) rho (P_k (x) I_n) for the projectors
    P_+/- = (I +/- u.sigma)/2, computed as (rho + S rho S)/2 with
    S = u.sigma (x) I_n: the cross terms of the two products cancel, so
    this holds for every real u, unit or not.
    """
    s = np.einsum("a,aij->ij", np.asarray(u, dtype=float), basis_stack(2))
    r4 = np.asarray(mat).reshape(2, n, 2, n)
    return ((r4 + np.einsum("ab,bicj,cd->aidj", s, r4, s)) / 2).reshape(2 * n, 2 * n)


def gd_bruteforce_2xn(rho: DensityMatrix, resolution: int = 32) -> float:
    """Geometric discord of a 2 (x) n state by direct minimization.

    Minimizes 2 ||rho - Pi(rho)||^2 over all qubit von Neumann measurements,
    parametrized by unit vectors u on the sphere. A resolution x 2*resolution
    (theta, phi) grid localizes the basin; downhill-simplex descent seeded at
    the best grid point with grid-spacing steps refines it. Serves as the
    independent oracle for `geometric_discord`.
    """
    if rho.m != 2:
        raise WrongDimension(f"brute-force discord requires m = 2, got m={rho.m}")
    if resolution < 2:
        raise InvalidRange(f"resolution must be at least 2, got {resolution}")
    # Imported here, not at module level, so that `import gdneg` does not load scipy.
    from scipy.optimize import minimize

    n = rho.n
    r4 = rho.mat.reshape(2, n, 2, n)

    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    grid_t, grid_p = np.meshgrid(thetas, phis, indexing="ij")
    grid_t = grid_t.ravel()
    grid_p = grid_p.ravel()

    u_dot_sigma = np.einsum("ka,aij->kij", _direction(grid_t, grid_p), basis_stack(2))

    best_val = math.inf
    best_idx = 0
    chunk = 8192
    for start in range(0, len(grid_t), chunk):
        # `project_a` at every direction of the chunk.
        s = u_dot_sigma[start : start + chunk]
        projected = (r4 + np.einsum("kab,bicj,kcd->kaidj", s, r4, s, optimize=True)) / 2
        diff = r4[None, ...] - projected
        vals = 2.0 * np.sum(np.abs(diff) ** 2, axis=(1, 2, 3, 4))
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_idx = start + k

    theta = float(grid_t[best_idx])
    phi = float(grid_p[best_idx])
    width_t = math.pi / (resolution - 1)
    width_p = math.pi / resolution

    # The objective is smooth in (theta, phi) for any theta, so the simplex
    # may wander past the poles or the 2*pi seam without harm.
    result = minimize(
        lambda tp: 2.0 * hs_norm_sq(rho.mat - project_a(rho.mat, n, _direction(tp[0], tp[1]))),
        x0=np.array([theta, phi]),
        method="Nelder-Mead",
        options={
            "initial_simplex": np.array(
                [[theta, phi], [theta + width_t, phi], [theta, phi + width_p]]
            ),
            "xatol": ORACLE_XATOL,
            "fatol": ORACLE_FATOL,
            "maxfev": 500,
        },
    )
    return min(best_val, float(result.fun))


def schmidt(phi: PureState) -> np.ndarray:
    """Schmidt coefficients of a pure state, sorted nonincreasing.

    Singular values of the m x n amplitude matrix, with values at or below
    1e-12 dropped. Squares sum to 1 for a unit vector.
    """
    amp = phi.amplitudes.reshape(phi.m, phi.n)
    c = np.linalg.svd(amp, compute_uv=False)
    return c[c > SCHMIDT_CUTOFF].copy()


def pure_negativity(c, m: int) -> float:
    """Negativity of a pure state from its Schmidt coefficients."""
    c = np.asarray(c, dtype=float)
    return (float(np.sum(c)) ** 2 - 1.0) / (m - 1)


def pure_gd(c, m: int) -> float:
    """Geometric discord of a pure state from its Schmidt coefficients."""
    c = np.asarray(c, dtype=float)
    return (m / (m - 1)) * (1.0 - float(np.sum(c**4)))


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


def measurement_identity_check(rho: DensityMatrix, u) -> tuple[float, float]:
    """Evaluate Tr((Pi(rho))^2) and Tr(rho Pi(rho)) for the measurement along u.

    The two traces coincide for every von Neumann measurement, and
    ||rho - Pi(rho)||^2 = Tr(rho^2) - Tr((Pi(rho))^2); both identities are
    verified within 1e-10 and a failure raises, since it can only mean a
    numerical fault. A zero or non-finite u raises InvalidRange.
    """
    if rho.m != 2:
        raise WrongDimension(f"measurement identity requires m = 2, got m={rho.m}")
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u)
    if not 0.0 < norm < math.inf:
        raise InvalidRange(f"measurement direction must be finite and non-zero, got {u}")
    projected = project_a(rho.mat, rho.n, u / norm)
    pi_sq = float(np.trace(projected @ projected).real)
    rho_pi = float(np.trace(rho.mat @ projected).real)
    if not abs(pi_sq - rho_pi) <= IDENTITY_ATOL:
        raise BoundViolation(
            f"measurement identity failed: Tr(Pi(rho)^2)={pi_sq!r} vs "
            f"Tr(rho Pi(rho))={rho_pi!r}"
        )
    distance_sq = hs_norm_sq(rho.mat - projected)
    purity_gap = float(np.trace(rho.mat @ rho.mat).real) - pi_sq
    if not abs(distance_sq - purity_gap) <= IDENTITY_ATOL:
        raise BoundViolation(
            f"distance identity failed: ||rho-Pi(rho)||^2={distance_sq!r} vs "
            f"Tr(rho^2)-Tr(Pi(rho)^2)={purity_gap!r}"
        )
    return pi_sq, rho_pi


def bounds_check(rho: DensityMatrix) -> MeasureReport:
    """Compute all measures and verify the proven bounds.

    0 <= N <= 1, 0 <= D <= m/(m-1) and -m/(m-1) <= N^2 - D <= 1, each with
    1e-9 slack. A violation raises BoundViolation: these are theorems, so a
    failure signals a numerical fault.
    """
    measured = _measure_stack(rho.mat[None], rho.m, rho.n)
    measured.raise_fault(0)
    neg = float(measured.negativity[0])
    return MeasureReport(
        negativity=neg,
        negativity_sq=neg * neg,
        discord=float(measured.discord[0]),
        discord_exact=rho.m == 2,
        gap=float(measured.gap[0]),
        pt_negative_count=int(measured.pt_negative_count[0]),
        pt_negative_cap=(rho.m - 1) * (rho.n - 1),
        bounds_ok=True,
    )
