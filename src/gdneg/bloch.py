"""Bloch decomposition of bipartite states, and the G matrix of the discord.

A state rho on an m (x) n space is expanded as

    rho = (1/mn) [ I + sum_i x_i z_i (x) I + sum_j y_j I (x) w_j
                   + sum_ij T_ij z_i (x) w_j ]

over the SU(m) generators z and SU(n) generators w. The extraction
coefficients follow from Tr(z_i z_j) = 2 delta_ij:

    x_i = (m/2)  Tr(rho (z_i (x) I)),
    y_j = (n/2)  Tr(rho (I (x) w_j)),
    T_ij = (mn/4) Tr(rho (z_i (x) w_j)),

which `decompose` evaluates as written; the round trip decompose ->
reconstruct -> identity is what pins them down (see tests).

The discord reads only G = B B^T, B = [x, sqrt(2/n) T], and G needs no w.
With the A-side partial traces rho_a = Tr_A((z_a (x) I) rho),
x_a = (m/2) Tr rho_a and T_ab = (mn/4) Tr(rho_a w_b); the completeness of the
w, sum_b Tr(X w_b) Tr(Y w_b) = 2 Tr(XY) - (2/n) Tr X Tr Y, cancels the x x^T
term:

    G_ab = (m^2 n/4) Re Tr(rho_a rho_b).

`g_stack` evaluates that on a whole stack of states: one `np.dot` takes the
(m/2) rho_a of every state, and G = n P P^T with P their real and imaginary
parts. `g_matrix` is B B^T written out, the paper's formula.

Both read validated states, which are exactly Hermitian (see `states`).
"""

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, Record
from .states import DensityMatrix
from .su_generators import basis_stack


class BlochForm(Record):
    """Local Bloch vectors x, y and correlation matrix T of an m (x) n state."""

    m: int
    n: int
    x: np.ndarray  # length m^2 - 1
    y: np.ndarray  # length n^2 - 1
    T: np.ndarray  # (m^2 - 1, n^2 - 1)


def decompose(rho: DensityMatrix) -> BlochForm:
    """Local Bloch vectors and correlation matrix of a validated state, from their traces."""
    m, n = rho.m, rho.n
    r4 = rho.mat.reshape(m, n, m, n)  # r4[i, k, j, l] = rho[(i k), (j l)]
    z, w = basis_stack(m), basis_stack(n)
    x = (m / 2) * np.einsum("ikjk,aji->a", r4, z).real
    y = (n / 2) * np.einsum("ikil,blk->b", r4, w).real
    t = (m * n / 4) * np.einsum("ikjl,aji,blk->ab", r4, z, w, optimize=True).real
    return BlochForm(m, n, x, y, t)


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
    b = np.column_stack([bf.x, np.sqrt(2.0 / bf.n) * bf.T])
    return b @ b.T


@lru_cache(maxsize=None)
def _partial_trace_rows(m: int) -> np.ndarray:
    """The read-only rows (m/2) vec(z_a^T), shape (m^2 - 1, m^2), vec the row-major flattening."""
    z = basis_stack(m)
    rows = (m / 2) * z.transpose(0, 2, 1).reshape(len(z), m * m)
    rows.setflags(write=False)
    return rows


def g_stack(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """G of each state of a (k, mn, mn) stack: shape (k, m^2 - 1, m^2 - 1).

    The rows of `_partial_trace_rows` are contracted with the (i, j) block
    indices of the realigned states R[(i j), (k l)] = rho[(i k), (j l)] of
    every state at once, by one `np.dot`: row a gives (m/2) rho_a. Read as
    (re, im) pairs, those are the rows of P, (k, m^2 - 1, 2 n^2), and G = n P P^T.
    """
    k = len(mats)
    realigned = mats.reshape(k, m, n, m, n).transpose(1, 3, 0, 2, 4).reshape(m * m, k * n * n)
    p = np.dot(_partial_trace_rows(m), realigned).view(float).reshape(m * m - 1, k, 2 * n * n)
    p = p.transpose(1, 0, 2)
    return n * (p @ p.transpose(0, 2, 1))
