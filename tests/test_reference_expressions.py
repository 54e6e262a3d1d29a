"""Each chunk array formed once, and each chunk expression, held to the one it replaced.

`_hs_stack` writes G part by part and divides the trace out in place, and
`hermitian_part` halves its sum in place. The old expressions are kept here
and must agree bit for bit. The discord's G, now the Gram of the A-side
partial traces, is held to 1e-14 to the two chunk-wide products it replaced,
[vec(I_m), (m/2) vec(z_i^T)]^T R [vec(I_n), (n/2) vec(w_j^T)] weighted into
B = [x, sqrt(2/n) T]; `test_bloch.py` holds it to the paper's B B^T per state.

The chunk path then dropped numpy's Python-level helpers for the C entry
points they wrap: `tensordot` for its own transpose, reshape and `np.dot`,
`np.where` in the negativity sum for `np.fmin`, the positivity screen's copy
and fancy-index shift for one subtraction of a cached matrix, the list
`np.logical_or.reduce` of the fault walk for one `|` per check,
`np.linalg.norm` for its own recipe and the oracle's `einsum("kii->k")` for
`trace`. Each old expression is kept below, and the new one must give the
same bytes on seeded stacks at 2x2 to 4x4, PPT states included. The
identities' unit directions, now scaled by a power of two before the norm,
must keep the bytes of the unscaled ones on the directions `verify` draws.
"""

import numpy as np
import pytest

from gdneg import bloch, errors, measures, states
from gdneg.errors import Check
from gdneg.io_cli import _chunk_size, _hs_stack, _state_chunks, _unit_vectors
from gdneg.matrixcore import _spectrum, hermitian_part, hs_norm_sq, partial_transpose
from gdneg.su_generators import basis_stack
from gdneg.tolerances import NORM_ATOL, PSD_MIN_EIGENVALUE

from random_states import gated


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


# ---------------------------------------------------------------------------
# The chunk path's numpy calls, each against the expression it replaced

DIMS = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]


def old_extraction_map(m):
    z = basis_stack(m)
    return np.vstack([np.eye(m).reshape(1, m * m),
                      (m / 2) * z.transpose(0, 2, 1).reshape(len(z), m * m)])


def old_g_stack(mats, m, n):
    # The left factor over the (i, j) block indices by one np.dot, the right
    # over (k, l) by one matmul, then the rows [x, T] weighted into B.
    k = len(mats)
    left, right = old_extraction_map(m), old_extraction_map(n).T
    realigned = mats.reshape(k, m, n, m, n).transpose(1, 3, 0, 2, 4).reshape(m * m, k * n * n)
    full = np.dot(left, realigned).reshape(m * m * k, n * n) @ right
    xt = full.reshape(m * m, k, n * n).transpose(1, 0, 2).real[:, 1:]
    b = xt * np.sqrt(np.r_[1.0, np.full(n * n - 1, 2.0 / n)])
    return b @ b.transpose(0, 2, 1)


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
    # With the oracle's stop on a rank-one certificate: a later block start
    # ends the climb once every 1 - ||P'||_F^2 is at most 1e-10.
    form = measures._form(mats, n)
    tiny = np.finfo(float).tiny
    p = form
    for block in range(10):
        p = p / np.maximum(np.einsum("kii->k", p), tiny)[:, None, None]
        if block and np.all(1.0 - np.sum(p * p, axis=(1, 2)) <= 1e-10):
            break
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
    return pi_sq, rho_pi


def unscaled_units(us):
    """Each direction over its norm, or zero where that norm is zero or not finite."""
    norms = np.sqrt((us * us).sum(axis=-1))
    usable = (0.0 < norms) & (norms < np.inf)
    return np.divide(us, norms[:, None], out=np.zeros(us.shape), where=usable[:, None])


def ppt_states(m, n):
    """Diagonal product states and the maximally mixed state: a PT spectrum of
    exact non-negative values, so N = +0.0."""
    rng = np.random.default_rng(7 * m + n)
    p, q = rng.random((6, m)), rng.random((6, n))
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    diagonals = np.concatenate([(p[:, :, None] * q[:, None, :]).reshape(6, m * n),
                                np.full((1, m * n), 1.0 / (m * n))])
    return gated(diagonals[:, :, None] * np.eye(m * n) + 0j)


def product_states(m, n):
    """Projectors of products of random pure factors: PT eigenvalues near 0 of either sign."""
    rng = np.random.default_rng(9 * m + n)
    a, b = _unit_vectors(m, 12, rng), _unit_vectors(n, 12, rng)
    return gated(measures._projectors((a[:, :, None] * b[:, None, :]).reshape(12, m * n)))


def stacks(m, n):
    """A chunk of Hilbert-Schmidt states, the projectors of a chunk of pure draws,
    product states and PPT states."""
    d = m * n
    rng = np.random.default_rng(100 * m + n)
    hs = _hs_stack(d, _chunk_size(d), rng)
    pure = measures._projectors(_unit_vectors(d, _chunk_size(d), rng))
    return [gated(hs), gated(pure), product_states(m, n), ppt_states(m, n)]


@pytest.mark.parametrize("m,n", DIMS)
def test_g_stack_is_the_two_factor_product(m, n):
    for mats in stacks(m, n):
        for k in (len(mats), 1):
            got = bloch.g_stack(mats[:k], m, n)
            assert got.shape == (k, m * m - 1, m * m - 1)
            assert np.max(np.abs(got - old_g_stack(mats[:k], m, n))) <= 1e-14


@pytest.mark.parametrize("m", [2, 3, 4])
def test_partial_trace_rows_are_cached_read_only_and_exact(m):
    # Row a against a matrix's row-major flattening is (m/2) Tr(z_a M), and the
    # rows are the left factor they replaced without its row vec(I_m).
    rows = bloch._partial_trace_rows(m)
    assert rows is bloch._partial_trace_rows(m)
    assert bits(rows) == bits(old_extraction_map(m)[1:])
    rng = np.random.default_rng(m)
    mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    traces = (m / 2) * np.einsum("aji,ij->a", basis_stack(m), mat)
    assert np.max(np.abs(rows @ mat.reshape(-1) - traces)) <= 1e-15
    with pytest.raises(ValueError):
        rows[0, 0] = 0


@pytest.mark.parametrize("m,n", DIMS)
def test_negativity_is_the_where_sum_bit_for_bit(m, n, monkeypatch):
    for h in stacks(m, n):
        w = _spectrum(partial_transpose(h, m, n))
        measured = measures._measure_stack(h, m, n)
        assert bits(measured.negativity) == bits(old_negativity(w, m))
        assert np.array_equal(measured.pt_negative_count, np.sum(w < -1e-10, axis=1))
    # The PPT states read N = +0.0, not -0.0, which -fmin(w, 0).sum() would give.
    neg = measures._measure_stack(ppt_states(m, n), m, n).negativity
    assert np.all(neg == 0.0) and not np.signbit(neg).any()
    # A NaN eigenvalue drops out of the sum, as w < 0 drops it from the mask.
    h = stacks(m, n)[0]
    spectra = []

    def with_nan(pt):
        w = _spectrum(pt).copy()
        w[:, 1] = np.nan
        spectra.append(w)
        return w

    monkeypatch.setattr(measures, "_spectrum", with_nan)
    neg = measures._measure_stack(h, m, n).negativity
    assert bits(neg) == bits(old_negativity(spectra[0], m))


@pytest.mark.parametrize("m,n", DIMS)
def test_positivity_screen_shifts_as_the_fancy_index_did(m, n):
    d = m * n
    for h in stacks(m, n):
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
    for mats in stacks(2, n):
        assert bits(measures.gd_bruteforce_stack(mats, n)) == bits(old_bruteforce(mats, n))
        us = np.random.default_rng(n).standard_normal((len(mats), 3))
        _, pi_sq, rho_pi = measures._identity_checks(mats, n, us)
        old_pi_sq, old_rho_pi = old_identity_traces(mats, n, us)
        assert bits(pi_sq) == bits(old_pi_sq) and bits(rho_pi) == bits(old_rho_pi)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_units_are_the_unscaled_ones_on_verify_draws(n, monkeypatch):
    # Directions drawn as `run_verify` draws them are divided by their norm,
    # unscaled, so their unit vectors and traces keep their bytes.
    units = []
    project_a = measures.project_a
    monkeypatch.setattr(measures, "project_a",
                        lambda mats, n, u: units.append(u) or project_a(mats, n, u))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for mats in _state_chunks(2, n, 2 * _chunk_size(2 * n), seed, "hilbert-schmidt"):
            us = rng.standard_normal((len(mats), 3))
            measures._identity_checks(mats, n, us)
            assert bits(units.pop()) == bits(unscaled_units(us))
