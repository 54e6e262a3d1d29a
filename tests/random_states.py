"""Random states for tests that draw them from their own generator.

Each draw of `random_density_matrix` and `random_pure_state` takes from `rng`
what one state of a `sample` or `verify` chunk takes, so a loop of these gives
the states of `io_cli`'s chunked stream. `low_rank_states` draws a stack of
states of a chosen rank.
"""

import numpy as np

from gdneg.io_cli import _hs_stack, _unit_vectors
from gdneg.states import DensityMatrix, PureState


def random_density_matrix(m: int, n: int, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt-distributed state: G G^dag / Tr(G G^dag), G square Ginibre."""
    return DensityMatrix(m, n, _hs_stack(m * n, 1, rng)[0])


def random_pure_state(m: int, n: int, rng: np.random.Generator) -> PureState:
    """Normalized complex Gaussian vector."""
    return PureState(m, n, _unit_vectors(m * n, 1, rng)[0])


def low_rank_states(d: int, rank: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k states G G^dag / Tr(G G^dag) of rank `rank` as a (k, d, d) stack, G d x rank Ginibre."""
    g = rng.standard_normal((k, d, rank)) + 1j * rng.standard_normal((k, d, rank))
    mats = g @ g.conj().transpose(0, 2, 1)
    return mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None]
