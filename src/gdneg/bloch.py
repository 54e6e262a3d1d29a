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

All of them come from one product: with the realigned matrix
R[(i j),(k l)] = rho[(i k),(j l)] and vec(z) the row-major flattening,

    [vec(I_m), (m/2) vec(z_i^T)]^T  R  [vec(I_n), (n/2) vec(w_j^T)]
        = [[Tr rho, y^T], [x, T]],

which `coefficient_stack` evaluates on a whole stack of states as two
chunk-wide products, one per factor; `g_stack` weights its rows [x, T] into
B = [x, sqrt(2/n) T] and returns G = B B^T.

Hermiticity is checked once, when a state is validated. The data here are
the real parts of the traces, and Re Tr(rho X) = Tr(H X) for Hermitian X, so
they are exactly the Bloch data of the Hermitian part H = (rho + rho^dag)/2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .states import DensityMatrix
from .su_generators import basis_stack


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


def coefficient_stack(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """Bloch data of a (k, mn, mn) stack, as a real (k, m^2, n^2) array.

    The real part of the product above: x in column 0 and T in the rest of
    rows 1.., y in row 0; the Bloch data of each matrix's Hermitian part.
    `left` is contracted with the (i, j) block indices of every state at once,
    by one `np.dot`, and `right` with the (k, l) indices by one matmul, in the
    order (left R) right of the per-state product. The first product is
    `np.tensordot`'s own recipe, a transpose and reshape then one `np.dot`,
    without its argument handling.
    """
    k = len(mats)
    left, right = _extraction_maps(m, n)
    # (m^2, k n n): left contracted over (i, j) of rho[(i k),(j l)].
    realigned = mats.reshape(k, m, n, m, n).transpose(1, 3, 0, 2, 4).reshape(m * m, k * n * n)
    full = np.dot(left, realigned).reshape(m * m * k, n * n) @ right
    return full.reshape(m * m, k, n * n).transpose(1, 0, 2).real


def decompose(rho: DensityMatrix) -> BlochForm:
    """Local Bloch vectors and correlation matrix of a validated state."""
    c = coefficient_stack(rho.mat[None], rho.m, rho.n)[0]
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
    """G = B B^T with B = [x, sqrt(2/n) T]; real symmetric and positive semidefinite."""
    return g_stack(np.column_stack([bf.x, bf.T])[None], bf.n)[0]


@lru_cache(maxsize=None)
def _column_weights(columns: int, n: int) -> np.ndarray:
    """The read-only weights sqrt([1, 2/n, ..., 2/n]) that turn the columns [x, T] into B."""
    weights = np.sqrt(np.r_[1.0, np.full(columns - 1, 2.0 / n)])
    weights.setflags(write=False)
    return weights


def g_stack(xt: np.ndarray, n: int) -> np.ndarray:
    """`g_matrix` of each state from its (k, m^2-1, n^2) rows [x, T] of `coefficient_stack`."""
    b = xt * _column_weights(xt.shape[2], n)
    return b @ b.transpose(0, 2, 1)
