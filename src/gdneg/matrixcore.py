"""Dense complex matrix arithmetic for small bipartite operators.

All functions are pure and operate on plain ``numpy`` arrays (complex128,
row-major) of shape (..., d, d), one matrix or a stack of them, and act on
each matrix: `hermiticity_defect` and `hs_norm_sq` give one value per
matrix, a `numpy.float64` for a single matrix.

`hermitian_part` is the one copy of (A + A^dag)/2, which state validation
forms (see `states`). `_spectrum`, the one spectrum of validated stacks,
sorted nonincreasing, checks and symmetrizes nothing.
"""

import numpy as np

from .errors import DimensionMismatch, NotSquare


def hermiticity_defect(a: np.ndarray):
    """Max absolute deviation of each square matrix from its conjugate transpose."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


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


def partial_transpose(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose on the m-dimensional subsystem only.

    Maps block (i, j) of the m x m block structure to block (j, i); a pure
    entry permutation, so applying it twice returns the input exactly. The
    result is a new array, made by one copy of the swapped view.
    """
    a = np.asarray(a)
    lead = a.shape[:-2]
    if a.shape[-2:] != (m * n, m * n):
        raise DimensionMismatch(
            f"expected shape ({m * n}, {m * n}) for dimensions {m}x{n}, got {a.shape}"
        )
    r = a.reshape(*lead, m, n, m, n).swapaxes(-4, -2).copy()
    return r.reshape(*lead, m * n, m * n)


def hs_norm_sq(a: np.ndarray):
    """Squared Hilbert-Schmidt norm of each matrix: sum of squared entry magnitudes."""
    a = np.asarray(a)
    return np.einsum("...ij,...ij->...", a.conj(), a).real
