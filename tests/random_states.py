"""One random state at a time, for tests that draw states from their own generator.

Each draw takes from `rng` what one state of a `sample` or `verify` chunk
takes, so a loop of these gives the states of `io_cli`'s chunked stream.
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
