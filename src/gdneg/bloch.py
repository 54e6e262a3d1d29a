"""Bloch decomposition of bipartite states.

A state rho on an m (x) n space is expanded as

    rho = (1/mn) [ I + sum_i x_i z_i (x) I + sum_j y_j I (x) w_j
                   + sum_ij T_ij z_i (x) w_j ]

over the SU(m) generators z and SU(n) generators w. The extraction
coefficients follow from Tr(z_i z_j) = 2 delta_ij:

    x_i = (m/2)  Tr(rho (z_i (x) I)),
    y_j = (n/2)  Tr(rho (I (x) w_j)),
    T_ij = (mn/4) Tr(rho (z_i (x) w_j)),

and the round-trip property decompose -> reconstruct -> identity is what
pins them down (see tests).

All of them come from one product per state: with the realigned matrix
R[(i j),(k l)] = rho[(i k),(j l)] and vec(z) the row-major flattening,

    [vec(I_m), (m/2) vec(z_i^T)]^T  R  [vec(I_n), (n/2) vec(w_j^T)]
        = [[Tr rho, y^T], [x, T]],

which `coefficient_stack` evaluates on a whole stack of states at once.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidState
from .states import DensityMatrix
from .su_generators import basis_stack
from .tolerances import IMAG_RESIDUE_ATOL


@dataclass(frozen=True)
class BlochForm:
    m: int
    n: int
    x: np.ndarray  # length m^2 - 1
    y: np.ndarray  # length n^2 - 1
    T: np.ndarray  # (m^2 - 1, n^2 - 1)


@lru_cache(maxsize=None)
def _extraction_maps(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The left (m^2, m^2) and right (n^2, n^2) factors of the product above."""
    left = np.vstack([np.eye(m).reshape(1, m * m), (m / 2) * _vec_transposed(basis_stack(m))])
    right = np.vstack([np.eye(n).reshape(1, n * n), (n / 2) * _vec_transposed(basis_stack(n))]).T
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def _vec_transposed(stack: np.ndarray) -> np.ndarray:
    return stack.transpose(0, 2, 1).reshape(len(stack), -1)


def imag_residue_fault(residue: float) -> InvalidState:
    """The error for Bloch data whose extraction traces carry an imaginary residue."""
    return InvalidState(f"imaginary residue {residue:.3e} in Bloch extraction traces")


def coefficient_stack(mats: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bloch data of a (k, mn, mn) stack and the imaginary residue of each state.

    The data is the real part of the (k, m^2, n^2) product above: x in
    column 0 and T in the rest of rows 1.., y in row 0. The residue is the
    largest imaginary part among x, y and T, which vanishes for Hermitian
    input.
    """
    k = len(mats)
    left, right = _extraction_maps(m, n)
    realigned = mats.reshape(k, m, n, m, n).transpose(0, 1, 3, 2, 4).reshape(k, m * m, n * n)
    coeffs = left @ realigned @ right
    imag = np.abs(coeffs.imag)
    imag[:, 0, 0] = 0.0
    return coeffs.real, np.max(imag, axis=(1, 2))


def decompose(rho: DensityMatrix) -> BlochForm:
    """Local Bloch vectors and correlation matrix of a state."""
    coeffs, residue = coefficient_stack(rho.mat[None], rho.m, rho.n)
    if not residue[0] <= IMAG_RESIDUE_ATOL:
        raise imag_residue_fault(residue[0])
    c = coeffs[0]
    return BlochForm(m=rho.m, n=rho.n, x=c[1:, 0].copy(), y=c[0, 1:].copy(), T=c[1:, 1:].copy())


def reconstruct(bf: BlochForm) -> np.ndarray:
    """The mn x mn matrix determined by Bloch data.

    Hermitian with unit trace by construction; positivity is not implied for
    arbitrary (x, y, T) and is only checked when converting to DensityMatrix.
    """
    m, n = bf.m, bf.n
    if bf.x.shape != (m * m - 1,) or bf.y.shape != (n * n - 1,):
        raise DimensionMismatch(
            f"Bloch vector lengths {bf.x.shape}, {bf.y.shape} inconsistent "
            f"with dimensions {m}x{n}"
        )
    if bf.T.shape != (m * m - 1, n * n - 1):
        raise DimensionMismatch(
            f"correlation matrix shape {bf.T.shape} inconsistent with dimensions {m}x{n}"
        )
    a_stack = basis_stack(m)
    b_stack = basis_stack(n)
    total = np.eye(m * n, dtype=complex)
    total += np.kron(np.einsum("a,aij->ij", bf.x, a_stack), np.eye(n))
    total += np.kron(np.eye(m), np.einsum("b,bkl->kl", bf.y, b_stack))
    total += np.einsum(
        "ab,aij,bkl->ikjl", bf.T, a_stack, b_stack, optimize=True
    ).reshape(m * n, m * n)
    return total / (m * n)


def g_matrix(bf: BlochForm) -> np.ndarray:
    """x x^T + (2/n) T T^T; real symmetric and positive semidefinite."""
    return g_stack(bf.x[None], bf.T[None], bf.n)[0]


def g_stack(x: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """`g_matrix` of each state, from (k, m^2-1) x and (k, m^2-1, n^2-1) T."""
    g = x[:, :, None] * x[:, None, :] + (2.0 / n) * (t @ t.transpose(0, 2, 1))
    return (g + g.transpose(0, 2, 1)) / 2
