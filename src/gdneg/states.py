"""Validated containers for bipartite quantum states.

The density-matrix and unit-norm invariants are written once, for stacks of
states (`first_invalid_state`, `first_invalid_vector`), as checks walked by
`errors.first_fault`; the containers run them on a stack of one. Every
residual is tested as `not (residual <= tol)`, so a NaN residual fails.

This is the one place a state's hermiticity defect is computed, and code
that receives validated stacks does not check them again. The gate forms the
Hermitian parts of the states before the first cheap failure (finiteness,
hermiticity, trace) once, and `_gate` hands them on to the measures kernel.
Their positivity is decided first by a screen: one batched Cholesky
factorisation of those Hermitian parts less a cached, read-only
PSD_MIN_EIGENVALUE * I, which succeeds only when every smallest eigenvalue
is above PSD_MIN_EIGENVALUE. When it fails, their spectrum is taken, and it
alone decides the verdict, the index and the message.

Each set of checks is built once and walked once: the gate walks the cheap
checks once per chunk, and builds and walks the positivity check only when
the screen fails. Like the rest of the chunk path (see `measures`), the gate
calls ufuncs, ndarray methods and `np.linalg.cholesky`, and takes a spectrum
with `eigvalsh` only behind a failed screen.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Check, InvalidState, first_fault
from .matrixcore import _spectrum, hermitian_part, hermiticity_defect
from .tolerances import HERMITIAN_ATOL, NORM_ATOL, PSD_MIN_EIGENVALUE, TRACE_ATOL


def _invariant(name: str, residual: np.ndarray, tol: float) -> Check:
    return Check(
        ~(residual <= tol),
        lambda i: InvalidState(f"{name} invariant violated: residual {residual[i]:.6g}"),
    )


@lru_cache(maxsize=None)
def _psd_shift(d: int) -> np.ndarray:
    """The read-only (d, d) matrix PSD_MIN_EIGENVALUE * I."""
    shift = np.diag(np.full(d, PSD_MIN_EIGENVALUE))
    shift.setflags(write=False)
    return shift


def _all_positive(h: np.ndarray) -> bool:
    """True when the Hermitian parts h plus -PSD_MIN_EIGENVALUE * I all have a
    Cholesky factor, so every smallest eigenvalue is above PSD_MIN_EIGENVALUE.

    False when any state fails, or sits within rounding of the bound. Off the
    diagonal the shift subtracts 0.0, which leaves those entries as they are.
    """
    try:
        np.linalg.cholesky(h - _psd_shift(h.shape[-1]))
    except np.linalg.LinAlgError:  # raised for the whole stack when any state fails
        return False
    return True


def _gate(mats: np.ndarray) -> tuple[tuple[int, InvalidState] | None, np.ndarray]:
    """`first_invalid_state` of a (k, d, d) stack, and the Hermitian parts it formed.

    Those are the parts of the states before the first cheap failure, a prefix
    at least as long as the valid one, computed once: the positivity screen
    reads a shifted copy of them, and the measures kernel reads them as they are.
    The cheap checks are walked once; positivity is checked only when the screen
    fails, and only on that prefix, so a positivity failure comes first.
    """
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite state
        defect = hermiticity_defect(mats)
        trace_residual = np.abs(mats.trace(axis1=1, axis2=2) - 1.0)
    invalid = first_fault((
        Check(
            ~np.isfinite(mats).all(axis=(1, 2)),
            lambda i: InvalidState("finiteness invariant violated: non-finite entries"),
        ),
        _invariant("hermiticity", defect, HERMITIAN_ATOL),
        _invariant("trace", trace_residual, TRACE_ATOL),
    ))
    end = len(mats) if invalid is None else invalid[0]
    # Positivity only before the first cheap failure, which may be NaN.
    # Those states passed hermiticity, so their defect is not computed again.
    h = hermitian_part(mats[:end])
    if not _all_positive(h):
        min_eig = _spectrum(h)[:, -1]
        positivity = Check(
            ~(min_eig >= PSD_MIN_EIGENVALUE),
            lambda i: InvalidState(
                f"positivity invariant violated: min eigenvalue {min_eig[i]:.6g}"
            ),
        )
        invalid = first_fault((positivity,)) or invalid
    return invalid, h


def first_invalid_state(mats: np.ndarray) -> tuple[int, InvalidState] | None:
    """The first matrix of a (k, d, d) stack that is not a density matrix, or None.

    Returns its index and an InvalidState naming the broken invariant and its
    residual, checked in the order finiteness, hermiticity, trace, positivity.
    Positivity is screened by one Cholesky factorisation of the states before
    the first cheap failure; only when the screen fails is their spectrum taken,
    and the smallest eigenvalue then decides and is reported.
    """
    return _gate(mats)[0]


def first_invalid_vector(vs: np.ndarray) -> tuple[int, InvalidState] | None:
    """The first vector of a (k, d) stack that is not a finite unit vector, as for states."""
    norms = np.sqrt((vs.conj() * vs).real.sum(axis=1))  # np.linalg.norm's own recipe
    return first_fault((_invariant("norm", np.abs(norms - 1.0), NORM_ATOL),))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator on an m (x) n space.

    Invariants are enforced at construction; the stored matrix is read-only,
    so instances are safe to share between workers.
    """

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if self.m < 1 or self.n < 1:
            raise InvalidState(f"dimensions must be positive, got {self.m}x{self.n}")
        d = self.m * self.n
        if mat.shape != (d, d):
            raise InvalidState(
                f"shape {mat.shape} does not match dimensions {self.m}x{self.n}"
            )
        invalid = first_invalid_state(mat[None])
        if invalid is not None:
            raise invalid[1]
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True)
class PureState:
    """Unit vector on an m (x) n space, stored row-major over the B index."""

    m: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (self.m * self.n,):
            raise InvalidState(
                f"amplitude vector length {amp.size} does not match "
                f"dimensions {self.m}x{self.n}"
            )
        invalid = first_invalid_vector(amp[None])
        if invalid is not None:
            raise invalid[1]
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def projector(self) -> DensityMatrix:
        """The rank-1 density matrix |phi><phi|."""
        return DensityMatrix(self.m, self.n, np.outer(self.amplitudes, self.amplitudes.conj()))
