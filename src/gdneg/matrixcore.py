"""Dense complex matrix arithmetic for small bipartite operators.

All functions are pure and operate on plain ``numpy`` arrays (complex128,
row-major). Spectra are returned as real vectors sorted nonincreasing.
`hermiticity_defect`, `hermitian_part`, `hermitian_eigenvalues`,
`partial_transpose` and `hs_norm_sq` also take a stack of matrices, shape
(..., d, d), and act on each matrix of it.

`hermitian_part` is the one copy of (A + A^dag)/2. State validation forms it
once per stack and hands it on: the positivity screen factors it, because a
Cholesky factorisation reads one triangle, and the measures kernel takes its
spectra from it with `_spectrum`, which neither checks nor symmetrizes again.

`hermitian_eigenvalues` and `trace_norm` check their input against
HERMITIAN_ATOL. Validated stacks are not re-checked.
"""

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotSquare
from .tolerances import HERMITIAN_ATOL


def hermiticity_defect(a: np.ndarray):
    """Max absolute deviation of a square matrix from its conjugate transpose.

    A float for one matrix; an array of one defect per matrix for a stack.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return float(defect) if a.ndim == 2 else defect


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """The Hermitian part (A + A^dag)/2, as a new complex array.

    For finite A it is exactly Hermitian, with a real diagonal, whatever A's
    defect. Halving in place is exact, so it equals (A + A^dag)/2 bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    h = a + a.conj().swapaxes(-1, -2)
    h *= 0.5
    return h


def _spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of exactly Hermitian matrices, sorted nonincreasing, as a view.

    No check and no symmetrization: for Hermitian parts, such as those of
    validated states and their partial transposes.
    """
    return np.linalg.eigvalsh(h)[..., ::-1]


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted nonincreasing.

    The input is checked against HERMITIAN_ATOL and symmetrized to (A + A^dag)/2
    before diagonalization, which stabilizes the iteration for inputs that
    carry float noise.
    """
    defect = np.max(hermiticity_defect(a), initial=0.0)
    if not defect <= HERMITIAN_ATOL:
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITIAN_ATOL:.1e}"
        )
    return _spectrum(hermitian_part(a)).copy()


def partial_transpose(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose on the m-dimensional subsystem only.

    Maps block (i, j) of the m x m block structure to block (j, i); a pure
    entry permutation, so applying it twice returns the input exactly.
    """
    a = np.asarray(a)
    lead = a.shape[:-2]
    if a.shape[-2:] != (m * n, m * n):
        raise DimensionMismatch(
            f"expected shape ({m * n}, {m * n}) for dimensions {m}x{n}, got {a.shape}"
        )
    r = a.reshape(*lead, m, n, m, n).swapaxes(-4, -2)
    return r.reshape(*lead, m * n, m * n).copy()


def partial_trace_b(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Trace out the n-dimensional subsystem, leaving an m x m marginal."""
    a = np.asarray(a)
    if a.shape != (m * n, m * n):
        raise DimensionMismatch(
            f"expected shape ({m * n}, {m * n}) for dimensions {m}x{n}, got {a.shape}"
        )
    return np.einsum("ikjk->ij", a.reshape(m, n, m, n))


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues (Hermitian input)."""
    return float(np.sum(np.abs(hermitian_eigenvalues(a))))


def hs_norm_sq(a: np.ndarray):
    """Squared Hilbert-Schmidt norm: sum of squared entry magnitudes.

    A float for one matrix; an array of one norm per matrix for a stack.
    """
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.vdot(a, a).real)
    return np.einsum("...ij,...ij->...", a.conj(), a).real
