"""Each chunk array formed once, and each chunk expression, held to the one it replaced.

`_hs_stack` writes G part by part and divides the trace out in place,
`hermitian_part` halves its sum in place, and `coefficient_stack` makes two
chunk-wide products where it made one product per state. The old expressions
are kept here: the first two must agree bit for bit, the third to 1e-15.

The chunk path then dropped numpy's Python-level helpers for the C entry
points they wrap: `tensordot` for its own transpose, reshape and `np.dot`,
`np.where` in the negativity sum for `np.fmin`, the positivity screen's copy
and fancy-index shift for one subtraction of a cached matrix, the list
`np.logical_or.reduce` of the fault walk for one `|` per check,
`np.linalg.norm` for its own recipe and the oracle's `einsum("kii->k")` for
`trace`. Each old expression is kept below, and the new one must give the
same bytes on seeded stacks at 2x2 to 4x4, PPT states included.
"""

import numpy as np
import pytest

from gdneg import bloch, errors, measures, states
from gdneg.errors import Check
from gdneg.io_cli import _chunk_size, _hs_stack, _unit_vectors
from gdneg.matrixcore import _spectrum, hermitian_part, hs_norm_sq, partial_transpose
from gdneg.tolerances import NORM_ATOL, PSD_MIN_EIGENVALUE


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


# ---------------------------------------------------------------------------
# The chunk path's numpy calls, each against the expression it replaced

DIMS = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]


def old_coefficient_stack(mats, m, n):
    k = len(mats)
    left, right = bloch._extraction_maps(m, n)
    half = np.tensordot(left.reshape(m * m, m, m), mats.reshape(k, m, n, m, n), ([1, 2], [1, 3]))
    full = half.reshape(m * m * k, n * n) @ right
    return full.reshape(m * m, k, n * n).transpose(1, 0, 2).real


def old_negativity(w, m):
    return 2.0 * np.sum(np.where(w < 0.0, -w, 0.0), axis=1) / (m - 1)


def old_shifted(h):
    shifted = h.copy()
    diag = np.arange(h.shape[-1])
    shifted[:, diag, diag] -= PSD_MIN_EIGENVALUE
    return shifted


def old_first_fault(checks):
    failed = np.logical_or.reduce([check.failed for check in checks])
    if not failed.any():
        return None
    i = int(np.argmax(failed))
    return i, next(check.fault(i) for check in checks if check.failed[i])


def old_bruteforce(mats, n):
    form = measures._form(mats, n)
    tiny = np.finfo(float).tiny
    p = form
    for _ in range(10):
        p = p / np.maximum(np.einsum("kii->k", p), tiny)[:, None, None]
        for _ in range(6):
            p = p @ p
    u = p.transpose(0, 2, 1)
    u = u / np.maximum(np.abs(u).max(axis=2, keepdims=True), tiny)
    u = u / np.maximum(np.linalg.norm(u, axis=2, keepdims=True), 1.0)
    return hs_norm_sq(mats) - measures._form_values(form, u).max(axis=1)


def old_identity_traces(mats, n, us):
    norms = np.linalg.norm(us, axis=-1)
    usable = (0.0 < norms) & (norms < np.inf)
    units = np.where(usable[:, None], us, 0.0) / np.where(usable, norms, 1.0)[:, None]
    projected = measures.project_a(mats, n, units)
    pi_sq = np.einsum("kij,kji->k", projected, projected).real
    rho_pi = np.einsum("kij,kji->k", mats, projected).real
    return usable, pi_sq, rho_pi


def ppt_states(m, n):
    """Diagonal product states and the maximally mixed state: a PT spectrum of
    exact non-negative values, so N = +0.0."""
    rng = np.random.default_rng(7 * m + n)
    p, q = rng.random((6, m)), rng.random((6, n))
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    diagonals = np.concatenate([(p[:, :, None] * q[:, None, :]).reshape(6, m * n),
                                np.full((1, m * n), 1.0 / (m * n))])
    mats = diagonals[:, :, None] * np.eye(m * n) + 0j
    return mats, hermitian_part(mats)


def product_states(m, n):
    """Projectors of products of random pure factors: PT eigenvalues near 0 of either sign."""
    rng = np.random.default_rng(9 * m + n)
    a, b = _unit_vectors(m, 12, rng), _unit_vectors(n, 12, rng)
    mats = measures._projectors((a[:, :, None] * b[:, None, :]).reshape(12, m * n))
    return mats, hermitian_part(mats)


def stacks(m, n):
    """A chunk of Hilbert-Schmidt states, the projectors of a chunk of pure draws,
    product states and PPT states."""
    d = m * n
    rng = np.random.default_rng(100 * m + n)
    hs = _hs_stack(d, _chunk_size(d), rng)
    pure = measures._projectors(_unit_vectors(d, _chunk_size(d), rng))
    return [(hs, hermitian_part(hs)), (pure, hermitian_part(pure)), product_states(m, n),
            ppt_states(m, n)]


@pytest.mark.parametrize("m,n", DIMS)
def test_coefficient_stack_is_the_tensordot_map_bit_for_bit(m, n):
    for mats, _ in stacks(m, n):
        for k in (len(mats), 1):
            assert bits(bloch.coefficient_stack(mats[:k], m, n)) == bits(
                old_coefficient_stack(mats[:k], m, n)
            )


@pytest.mark.parametrize("m,n", DIMS)
def test_negativity_is_the_where_sum_bit_for_bit(m, n, monkeypatch):
    for mats, h in stacks(m, n):
        w = _spectrum(partial_transpose(h, m, n))
        measured = measures._measure_parts(mats, h, m, n)
        assert bits(measured.negativity) == bits(old_negativity(w, m))
        assert np.array_equal(measured.pt_negative_count, np.sum(w < -1e-10, axis=1))
    # The PPT states read N = +0.0, not -0.0, which -fmin(w, 0).sum() would give.
    mats, h = ppt_states(m, n)
    neg = measures._measure_parts(mats, h, m, n).negativity
    assert np.all(neg == 0.0) and not np.signbit(neg).any()
    # A NaN eigenvalue drops out of the sum, as w < 0 drops it from the mask.
    mats, h = stacks(m, n)[0]
    spectra = []

    def with_nan(pt):
        w = _spectrum(pt).copy()
        w[:, 1] = np.nan
        spectra.append(w)
        return w

    monkeypatch.setattr(measures, "_spectrum", with_nan)
    neg = measures._measure_parts(mats, h, m, n).negativity
    assert bits(neg) == bits(old_negativity(spectra[0], m))


@pytest.mark.parametrize("m,n", DIMS)
def test_positivity_screen_shifts_as_the_fancy_index_did(m, n):
    d = m * n
    for mats, h in stacks(m, n):
        assert bits(h - states._psd_shift(d)) == bits(old_shifted(h))
        assert states._all_positive(h) is True
    rng = np.random.default_rng(d)
    mats = _hs_stack(d, 20, rng)
    mats[7] = np.diag(np.r_[1.2, -0.2, np.zeros(d - 2)])
    h = hermitian_part(mats)
    assert bits(h - states._psd_shift(d)) == bits(old_shifted(h))
    assert states._all_positive(h) is False
    with pytest.raises(ValueError):
        states._psd_shift(d)[0, 0] = 0.0


def test_fault_walk_is_the_list_reduce():
    rng = np.random.default_rng(3)
    for k in (1, 2, 8, 227):
        for _ in range(50):
            masks = rng.random((int(rng.integers(1, 10)), k)) < rng.choice([0.0, 0.01, 0.3])
            checks = tuple(Check(mask, lambda i, j=j: (j, i)) for j, mask in enumerate(masks))
            assert bits(errors.failed_states(checks)) == bits(np.logical_or.reduce(masks))
            assert errors.first_fault(checks) == old_first_fault(checks)


@pytest.mark.parametrize("m,n", DIMS)
def test_norms_are_np_linalg_norm_bit_for_bit(m, n):
    d = m * n
    rng = np.random.default_rng(30 + d)
    z = rng.standard_normal((_chunk_size(d), 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    want = v / np.linalg.norm(v, axis=1)[:, None]
    assert bits(_unit_vectors(d, len(v), np.random.default_rng(30 + d))) == bits(want)
    # The norm check of pure draws, at vectors off unit length by more than NORM_ATOL.
    vs = want.copy()
    vs[5:] *= 1.0 + 10 * NORM_ATOL
    residual = np.abs(np.linalg.norm(vs, axis=1) - 1.0)
    index, error = states.first_invalid_vector(vs)
    assert index == 5
    assert str(error) == f"norm invariant violated: residual {residual[5]:.6g}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_and_identity_traces_are_the_old_expressions_bit_for_bit(n):
    for mats, _ in stacks(2, n):
        assert bits(measures.gd_bruteforce_stack(mats, n)) == bits(old_bruteforce(mats, n))
        us = np.random.default_rng(n).standard_normal((len(mats), 3))
        us[3] = 0.0  # not usable: the check names it, and its traces are of direction 0
        checks, pi_sq, rho_pi = measures._identity_checks(mats, n, us)
        usable, old_pi_sq, old_rho_pi = old_identity_traces(mats, n, us)
        assert bits(pi_sq) == bits(old_pi_sq) and bits(rho_pi) == bits(old_rho_pi)
        assert np.array_equal(checks[0].failed, ~usable)
