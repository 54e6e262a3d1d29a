"""Validated containers for bipartite quantum states.

The density-matrix and unit-norm invariants are written once, for stacks of
states (`first_invalid_state`, `first_invalid_vector`); the containers run
them on a stack of one. Every residual is tested as `not (residual <= tol)`,
so a NaN residual fails its check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .matrixcore import hermitian_eigenvalues, hermiticity_defect
from .tolerances import HERMITIAN_ATOL, NORM_ATOL, PSD_MIN_EIGENVALUE, TRACE_ATOL


def first_invalid_state(mats: np.ndarray) -> tuple[int, str] | None:
    """The first matrix of a (k, d, d) stack that is not a density matrix.

    Returns its index and the invariant it breaks with the measured residual,
    checked in the order finiteness, hermiticity, trace, positivity; None
    when every matrix is a density matrix.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite state
        defect = hermiticity_defect(mats)
        trace_residual = np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)
    cheap_ok = finite & (defect <= HERMITIAN_ATOL) & (trace_residual <= TRACE_ATOL)
    end = len(mats) if cheap_ok.all() else int(np.argmin(cheap_ok))
    # Spectra only up to the first state failing a cheaper check, which may be NaN.
    min_eig = hermitian_eigenvalues(mats[:end])[:, -1]
    not_psd = ~(min_eig >= PSD_MIN_EIGENVALUE)
    if not_psd.any():
        i = int(np.argmax(not_psd))
        return i, f"positivity invariant violated: min eigenvalue {min_eig[i]:.6g}"
    if end == len(mats):
        return None
    if not finite[end]:
        return end, "finiteness invariant violated: non-finite entries"
    if not defect[end] <= HERMITIAN_ATOL:
        return end, f"hermiticity invariant violated: residual {defect[end]:.6g}"
    return end, f"trace invariant violated: residual {trace_residual[end]:.6g}"


def first_invalid_vector(vs: np.ndarray) -> tuple[int, str] | None:
    """The first vector of a (k, d) stack that is not a finite unit vector, as for states."""
    norm_residual = np.abs(np.linalg.norm(vs, axis=1) - 1.0)
    ok = norm_residual <= NORM_ATOL
    if ok.all():
        return None
    i = int(np.argmin(ok))
    return i, f"norm invariant violated: residual {norm_residual[i]:.6g}"


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
            raise InvalidState(invalid[1])
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
            raise InvalidState(invalid[1])
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def projector(self) -> DensityMatrix:
        """The rank-1 density matrix |phi><phi|."""
        return DensityMatrix(self.m, self.n, np.outer(self.amplitudes, self.amplitudes.conj()))
