"""Ordered generator bases of SU(d).

d = 2 gives the Pauli matrices sigma_1, sigma_2, sigma_3 and d = 3 the
Gell-Mann matrices mu_1 .. mu_8, both in their conventional printed order.
For d >= 4 the generalized Gell-Mann construction is used: index pairs
(j, k) with j < k enumerated lexicographically, emitting the symmetric then
the antisymmetric generator for each pair, followed by the d - 1 diagonal
generators in increasing rank. (For d = 3 that enumeration would interleave
differently from the conventional mu order, so d = 3 reorders it.)

Every basis satisfies Tr(z_i z_j) = 2 delta_ij with traceless Hermitian
elements. Each basis is built once per dimension and cached as one
read-only (d^2 - 1, d, d) array.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidDimension


def _symmetric(d, j, k):
    g = np.zeros((d, d), dtype=complex)
    g[j, k] = 1
    g[k, j] = 1
    return g


def _antisymmetric(d, j, k):
    g = np.zeros((d, d), dtype=complex)
    g[j, k] = -1j
    g[k, j] = 1j
    return g


def _diagonal(d, rank):
    # rank in 1 .. d-1: sqrt(2/(rank*(rank+1))) * diag(1, ..., 1, -rank, 0, ..., 0)
    diag = np.zeros(d)
    diag[:rank] = 1.0
    diag[rank] = -float(rank)
    return np.sqrt(2.0 / (rank * (rank + 1))) * np.diag(diag).astype(complex)


def _generalized(d):
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            mats.append(_symmetric(d, j, k))
            mats.append(_antisymmetric(d, j, k))
    mats.extend(_diagonal(d, rank) for rank in range(1, d))
    return mats


@lru_cache(maxsize=None)
def basis_for(d: int) -> np.ndarray:
    """The d^2 - 1 generators of SU(d) in canonical order, stacked read-only."""
    if d < 2:
        raise InvalidDimension(f"generator basis requires d >= 2, got {d}")
    stack = np.stack(_generalized(d))
    if d == 3:
        # Conventional order: mu_3 sits between the (0,1) and (0,2) pairs and
        # mu_8 closes the list.
        stack = stack[[0, 1, 6, 2, 3, 4, 5, 7]]
    stack.setflags(write=False)
    return stack


# The name the kernels use for the same stack.
basis_stack = basis_for
