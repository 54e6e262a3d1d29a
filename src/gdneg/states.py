"""Validated containers for bipartite quantum states.

`DensityMatrix` and `PureState` are frozen records (`errors.Record`) whose
`__post_init__` runs the invariants below and stores a read-only validated
matrix or copy of the amplitudes.

The density-matrix and unit-norm invariants are written once, for stacks of
states (`_gate`, `first_invalid_vector`), as checks walked by
`errors.first_fault`; the containers run them on a stack of one. Every
residual is tested as `not (residual <= tol)`, so a NaN residual fails.

The contract of the package: a validated state is its Hermitian part. The
gate, `_gate`, checks a stack's hermiticity and forms the Hermitian parts
H = (rho + rho^dag)/2 of the states before the first cheap failure
(finiteness, hermiticity, trace) once, and those parts are the validated
stack: a `DensityMatrix` stores its H, `families.member_stack` returns them,
the CLI's chunks carry them and the measures kernel reads them as they are,
checking and symmetrizing nothing again. N and D see only H, which is
exactly Hermitian: a partial transpose permutes entries, and
Re Tr(rho X) = Tr(H X) for Hermitian X. A pure draw stays a unit vector.

Positivity is decided first by a screen: one batched Cholesky factorisation
of those Hermitian parts less a cached, read-only PSD_MIN_EIGENVALUE * I,
which passes only when it succeeds with a finite factor, so when every
smallest eigenvalue is above PSD_MIN_EIGENVALUE. When it fails, their
spectrum is taken, and it alone decides the verdict, the index and the
message; a state whose Hermitian part overflowed (finite entries near the
float limit, so eigenvalues beyond float range) fails positivity by name and
is not passed to eigvalsh. Overflow and the NaN it leaves raise no numpy
warning.

Each set of checks is built once and walked once: the gate walks the cheap
checks once per chunk, and builds and walks the positivity check only when
the screen fails. Like the rest of the chunk path (see README), the gate
calls ufuncs, ndarray methods and `np.linalg.cholesky`, and takes a spectrum
with `eigvalsh` only behind a failed screen.
"""

import operator
from functools import lru_cache

import numpy as np

from .errors import NON_FINITE_ENTRIES, Check, InvalidState, Record, first_fault
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
    finite Cholesky factor, so every smallest eigenvalue is above PSD_MIN_EIGENVALUE.

    False when any state fails, or sits within rounding of the bound. Off the
    diagonal the shift subtracts 0.0, which leaves those entries as they are.
    On a Hermitian part that overflowed, LAPACK may return a factor with NaN
    in it instead of raising; a NaN reaches the last diagonal entry of the
    factor, which is read for each state.
    """
    try:
        factor = np.linalg.cholesky(h - _psd_shift(h.shape[-1]))
    except np.linalg.LinAlgError:  # raised for the whole stack when any state fails
        return False
    return bool(np.isfinite(factor[:, -1, -1]).all())


def _gate(mats: np.ndarray) -> tuple[tuple[int, InvalidState] | None, np.ndarray]:
    """The first matrix of a (k, d, d) stack that is not a density matrix, or
    None, and the Hermitian parts the gate formed.

    The first is an index and an InvalidState naming the broken invariant and
    its residual, checked in the order finiteness, hermiticity, trace,
    positivity. The Hermitian parts are those of the states before the first
    cheap failure, a prefix at least as long as the valid one, computed once:
    the positivity screen reads a shifted copy of them, and the valid ones are
    the validated stack. The cheap checks are walked once. Positivity is
    screened by one Cholesky factorisation of that prefix; only when the
    screen fails is its spectrum taken, and the smallest eigenvalue then
    decides and is reported, so a positivity failure comes first. A state
    whose Hermitian part overflows float range (finite entries near the float
    limit) fails positivity as "Hermitian part overflows", without its spectrum.
    """
    # inf - inf in a non-finite state; overflow, and the NaN it leaves in a
    # Hermitian part and its factor, in finite entries near the float limit.
    with np.errstate(invalid="ignore", over="ignore"):
        defect = hermiticity_defect(mats)
        trace_residual = np.abs(mats.trace(axis1=1, axis2=2) - 1.0)
        invalid = first_fault((
            Check(~np.isfinite(mats).all(axis=(1, 2)), lambda i: InvalidState(NON_FINITE_ENTRIES)),
            _invariant("hermiticity", defect, HERMITIAN_ATOL),
            _invariant("trace", trace_residual, TRACE_ATOL),
        ))
        end = len(mats) if invalid is None else invalid[0]
        # Positivity only before the first cheap failure, which may be NaN.
        # Those states passed hermiticity, so their defect is not computed again.
        h = hermitian_part(mats[:end])
        if not _all_positive(h):
            # A Hermitian part that overflowed has eigenvalues beyond float range:
            # it fails positivity by name, and a zero matrix stands in for it in eigvalsh.
            finite = np.isfinite(h).all(axis=(1, 2))
            min_eig = _spectrum(np.where(finite[:, None, None], h, 0.0))[:, -1]
            positivity = Check(
                ~(finite & (min_eig >= PSD_MIN_EIGENVALUE)),
                lambda i: InvalidState(
                    f"positivity invariant violated: min eigenvalue {min_eig[i]:.6g}"
                    if finite[i] else "positivity invariant violated: Hermitian part overflows"
                ),
            )
            invalid = first_fault((positivity,)) or invalid
    return invalid, h


def first_invalid_vector(vs: np.ndarray) -> tuple[int, InvalidState] | None:
    """The first vector of a (k, d) stack that is not a finite unit vector, as for states."""
    # As in the gate: an overflowing or infinite entry gives a residual of inf, no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        norms = np.sqrt((vs.conj() * vs).real.sum(axis=1))  # np.linalg.norm's own recipe
    return first_fault((_invariant("norm", np.abs(norms - 1.0), NORM_ATOL),))


def _check_dimensions(m, n) -> None:
    """InvalidState unless m and n are integers of at least 1, before any numpy work:
    a bool, a float or whatever else `operator.index` rejects is no dimension."""
    try:
        valid = all(not isinstance(v, bool) and operator.index(v) >= 1 for v in (m, n))
    except TypeError:
        valid = False
    if not valid:
        raise InvalidState(f"dimensions must be positive integers, got {m!r}x{n!r}")


class DensityMatrix(Record):
    """Hermitian, positive semidefinite, unit-trace operator on an m (x) n space.

    Invariants are enforced at construction. The stored matrix is the gate's
    Hermitian part of the input, read-only, so instances are safe to share
    between workers.
    """

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        _check_dimensions(self.m, self.n)
        mat = np.asarray(self.mat, dtype=complex)
        d = self.m * self.n
        if mat.shape != (d, d):
            raise InvalidState(
                f"shape {mat.shape} does not match dimensions {self.m}x{self.n}"
            )
        invalid, h = _gate(mat[None])
        if invalid is not None:
            raise invalid[1]
        h = h[0]
        h.setflags(write=False)
        object.__setattr__(self, "mat", h)


class PureState(Record):
    """Unit vector on an m (x) n space, stored row-major over the B index."""

    m: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_dimensions(self.m, self.n)
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
