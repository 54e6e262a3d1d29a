"""Each chunk array formed once, held to the expression it replaced.

`_hs_stack` writes G part by part and divides the trace out in place,
`hermitian_part` halves its sum in place, and `coefficient_stack` makes two
chunk-wide products where it made one product per state. The old expressions
are kept here: the first two must agree bit for bit, the third to 1e-15.
"""

import numpy as np
import pytest

from gdneg import bloch
from gdneg.io_cli import _chunk_size, _hs_stack
from gdneg.matrixcore import hermitian_part


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def old_hs_stack(d, k, rng):
    z = rng.standard_normal((k, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    mats = g @ g.conj().transpose(0, 2, 1)
    return mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None]


def old_hermitian_part(a):
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def old_coefficients(mat, m, n):
    left, right = bloch._extraction_maps(m, n)
    realigned = mat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    return (left @ realigned @ right).real


@pytest.mark.parametrize("d", [4, 6, 8, 9, 10, 12, 16])
def test_hs_stack_draws_the_old_stream_bit_for_bit(d):
    for seed, k in [(0, _chunk_size(d)), (1, 1), (2, 7)]:
        got = _hs_stack(d, k, np.random.default_rng(seed))
        want = old_hs_stack(d, k, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert bits(got) == bits(want)


@pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4), (227, 6, 6), (3, 2, 9, 9), (32, 16, 16)])
def test_hermitian_part_is_the_old_expression_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    # Entries across many binades, so that the sum rounds and halving it is tested.
    scale = 10.0 ** rng.integers(-300, 300, shape)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    assert bits(hermitian_part(a)) == bits(old_hermitian_part(a))
    # A real input and the HS stream, whose defect is rounding alone.
    assert bits(hermitian_part(a.real)) == bits(old_hermitian_part(a.real))
    d = shape[-1]
    mats = _hs_stack(d, 50, rng)
    assert bits(hermitian_part(mats)) == bits(old_hermitian_part(mats))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (4, 4)])
def test_coefficient_stack_is_the_per_state_product(m, n):
    d = m * n
    mats = _hs_stack(d, _chunk_size(d), np.random.default_rng(10 * m + n))
    got = bloch.coefficient_stack(mats, m, n)
    assert got.shape == (len(mats), m * m, n * n)
    want = np.array([old_coefficients(mat, m, n) for mat in mats])
    assert np.max(np.abs(got - want)) <= 1e-15
    # A stack of one, as `decompose` and `bounds_check` make it.
    assert np.max(np.abs(bloch.coefficient_stack(mats[:1], m, n)[0] - want[0])) <= 1e-15
