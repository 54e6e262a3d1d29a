"""The positivity screen of the state gate, `states._gate`.

The gate settles positivity with one Cholesky factorisation of the states
before the first cheap failure and takes their spectrum only when it fails.
These tests hold it to the `eigvalsh` reference: the same verdict, index and
message near the -1e-9 bound, wherever the failing state sits in a chunk, and
behind a cheap failure the screen never sees. Near both tolerances at once,
the gate and the measures kernel must read the Hermitian part that a
per-state reference forms explicitly. Finite entries near the float limit,
whose Hermitian part or trace overflows, fail by name with no numpy warning,
and so does a pure state whose norm overflows. A validated state is its
Hermitian part, so every stack a chunk source or a record hands the kernel is
exactly Hermitian. The records reject dimensions that no state can have
before any numpy work.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import families, io_cli, matrixcore, measures, states
from gdneg.io_cli import _chunk_size, _hs_stack, run_sample, run_verify
from gdneg.matrixcore import hermiticity_defect, partial_transpose
from gdneg.errors import InvalidState
from gdneg.states import DensityMatrix, PureState
from gdneg.su_generators import basis_stack
from gdneg.tolerances import HERMITIAN_ATOL, NEGATIVE_EIGENVALUE_CUTOFF, PSD_MIN_EIGENVALUE

from random_states import gated

NOT_POSITIVE = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
NOT_POSITIVE_MESSAGE = "positivity invariant violated: min eigenvalue -0.2"


def unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(smallest, rank, d, rng):
    """U diag(w) U^dag, unit trace: `rank` positive eigenvalues, then `smallest`, then zeros."""
    w = np.zeros(d)
    w[:rank] = rng.uniform(0.1, 1.0, rank)
    w[:rank] *= (1.0 - smallest) / w[:rank].sum()
    w[rank] = smallest
    u = unitary(d, rng)
    return (u * w) @ u.conj().T


def reference(mats):
    """The first state whose reference min eigenvalue is below the bound, with its message."""
    min_eig = np.linalg.eigvalsh((mats + mats.conj().swapaxes(1, 2)) / 2)[:, 0]
    bad = np.flatnonzero(min_eig < PSD_MIN_EIGENVALUE)
    if not len(bad):
        return None
    return int(bad[0]), f"positivity invariant violated: min eigenvalue {min_eig[bad[0]]:.6g}"


def forbidden(a):
    raise AssertionError("the spectrum was taken although the screen passed")


def verdict(mats):
    invalid = states._gate(mats)[0]
    return None if invalid is None else (invalid[0], str(invalid[1]))


@pytest.mark.parametrize("d", [4, 6, 9, 16])
@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_states_at_the_bound_get_the_reference_verdict(d, offset, monkeypatch):
    rng = np.random.default_rng(d)
    rho = with_spectrum(PSD_MIN_EIGENVALUE + offset, d - 1, d, rng)
    expected = reference(rho[None])
    assert (expected is None) == (offset > 0)
    if offset > 0:  # the screen alone passes a state just above the bound
        monkeypatch.setattr(states, "_spectrum", forbidden)
    assert verdict(rho[None]) == expected
    # The same state at the end of a chunk of passing states.
    mats = _hs_stack(d, _chunk_size(d), rng)
    mats[-1] = rho
    assert verdict(mats) == reference(mats)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_positive_state_in_a_full_chunk_is_reported_at_its_index(where):
    size = _chunk_size(4)
    index = {"first": 0, "middle": size // 2, "last": size - 1}[where]
    mats = _hs_stack(4, size, np.random.default_rng(3))
    mats[index] = NOT_POSITIVE
    assert verdict(mats) == (index, NOT_POSITIVE_MESSAGE)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("hermiticity", "hermiticity invariant violated: residual 0.125"),
        ("trace", "trace invariant violated: residual 1"),
    ],
)
def test_cheap_failure_hides_a_later_non_positive_state_from_the_screen(
    fault, message, monkeypatch
):
    mats = _hs_stack(4, 8, np.random.default_rng(4))
    if fault == "hermiticity":
        mats[3, 0, 1] += 0.125
    else:
        mats[3] *= 2.0
    mats[5] = NOT_POSITIVE
    screened = []

    def recording(a):
        screened.append(np.array(a))
        return matrixcore.hermitian_part(a)

    monkeypatch.setattr(states, "hermitian_part", recording)
    monkeypatch.setattr(states, "_spectrum", forbidden)
    assert verdict(mats) == (3, message)
    assert len(screened) == 1
    assert np.array_equal(screened[0], mats[:3])


def test_non_finite_first_state_leaves_the_screen_an_empty_head(monkeypatch):
    mats = _hs_stack(4, 6, np.random.default_rng(5))
    mats[0, 2, 2] = np.nan
    mats[4] = NOT_POSITIVE
    screened = []

    def recording(a):
        screened.append(np.shape(a))
        return matrixcore.hermitian_part(a)

    monkeypatch.setattr(states, "hermitian_part", recording)
    assert verdict(mats) == (0, "finiteness invariant violated: non-finite entries")
    assert screened == [(0, 4, 4)]


def near_float_limit(*entries):
    """0.25 I_4 with the given (row, column, value) entries set."""
    mat = np.eye(4, dtype=complex) / 4
    for i, j, value in entries:
        mat[i, j] = value
    return mat


OVERFLOWS = "positivity invariant violated: Hermitian part overflows"

# Finite entries near the float limit, and the verdict on each.
NEAR_FLOAT_LIMIT = {
    # Hermitian with trace 1, but A + A^dag overflows to inf + nan j off the
    # diagonal; its eigenvalues are about +-1e308.
    "hermitian-off-diagonal": (near_float_limit((0, 1, 1e308), (1, 0, 1e308)), OVERFLOWS),
    # The same on the diagonal, which a -1e308 entry balances to trace 1.
    "balanced-diagonal": (
        near_float_limit((0, 0, 1e308), (1, 1, -1e308), (2, 2, 0.5), (3, 3, 0.5)), OVERFLOWS,
    ),
    # A - A^dag overflows.
    "anti-hermitian": (
        near_float_limit((0, 1, 1e308), (1, 0, -1e308)),
        "hermiticity invariant violated: residual inf",
    ),
    # The trace overflows.
    "diagonal": (
        near_float_limit((0, 0, 1e308), (1, 1, 1e308)), "trace invariant violated: residual inf",
    ),
}


@pytest.mark.parametrize("case", NEAR_FLOAT_LIMIT)
def test_entries_near_the_float_limit_fail_by_name_without_a_warning(case, monkeypatch):
    mat, message = NEAR_FLOAT_LIMIT[case]
    spectra = []

    def finite_only(h):
        assert np.isfinite(h).all(), "a non-finite Hermitian part reached eigvalsh"
        spectra.append(len(h))
        return matrixcore._spectrum(h)

    monkeypatch.setattr(states, "_spectrum", finite_only)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verdict(mat[None]) == (0, message)
        with pytest.raises(InvalidState, match=f"^{message}$"):
            DensityMatrix(2, 2, mat)
        # In a chunk of valid states, at the index it sits at.
        mats = _hs_stack(4, 8, np.random.default_rng(6))
        mats[5] = mat
        assert verdict(mats) == (5, message)
    # Only a failed screen takes a spectrum: of the stacks of one and of eight states.
    assert spectra == ([1, 1, 8] if message == OVERFLOWS else [])


@pytest.mark.parametrize("amplitude", [1e200, 1e200j, np.inf])
def test_pure_state_whose_norm_overflows_fails_by_name_without_a_warning(amplitude):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidState, match=r"^norm invariant violated: residual inf$"):
            PureState(2, 2, np.array([amplitude, 0, 0, 0]))


def test_screen_fails_on_a_nan_factor():
    # LAPACK may factor a Hermitian part with NaN in it without raising.
    with np.errstate(all="ignore"):
        h = matrixcore.hermitian_part(NEAR_FLOAT_LIMIT["hermitian-off-diagonal"][0][None])
        assert not np.isfinite(h).all()
        assert not states._all_positive(h)
    assert states._all_positive(matrixcore.hermitian_part(np.eye(4)[None] / 4))


@pytest.mark.parametrize("order", ["overflow-first", "non-positive-first"])
def test_overflow_and_positivity_failures_are_reported_in_state_order(order):
    mats = _hs_stack(4, 8, np.random.default_rng(7))
    first, second = (2, 4) if order == "overflow-first" else (4, 2)
    mats[first] = NEAR_FLOAT_LIMIT["hermitian-off-diagonal"][0]
    mats[second] = NOT_POSITIVE
    message = OVERFLOWS if order == "overflow-first" else NOT_POSITIVE_MESSAGE
    assert verdict(mats) == (2, message)


# Each passing path, and the number of states it validates and measures.
SPECTRUM_PATHS = {
    "sample-hs-2x3": (lambda: run_sample(2, 3, 300, 1, "hilbert-schmidt"), 300),
    "sample-hs-4x4": (lambda: run_sample(4, 4, 40, 1, "hilbert-schmidt"), 40),
    "verify-2x3": (lambda: run_verify(2, 3, 30, 1, oracle_subsample=2), 30),
}


@pytest.mark.parametrize("path", SPECTRUM_PATHS)
def test_passing_chunks_take_only_the_partial_transpose_spectrum(path, tmp_path, monkeypatch):
    # The screen passes every chunk, so the only spectrum of each state is the
    # kernel's partial-transpose spectrum; a positivity spectrum would double it.
    monkeypatch.chdir(tmp_path)
    run, count = SPECTRUM_PATHS[path]
    matrices = []

    def counting(a):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return matrixcore._spectrum(a)

    for module in (states, measures):
        monkeypatch.setattr(module, "_spectrum", counting)
    run()
    assert sum(matrices) == count


@st.composite
def state_stacks(draw):
    d = draw(st.sampled_from([4, 6, 9, 16]))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smallest = st.floats(-1e-8, 1e-8).filter(lambda x: abs(x - PSD_MIN_EIGENVALUE) > 1e-13)
    ranks = st.integers(1, d - 1)
    return np.array([with_spectrum(draw(smallest), draw(ranks), d, rng) for _ in range(k)])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(mats=state_stacks())
def test_first_invalid_state_is_the_first_state_below_the_bound(mats):
    # Low-rank states included: fewer than d - 1 positive eigenvalues leave zeros
    # beside the drawn smallest one.
    assert verdict(mats) == reference(mats)


# Near both tolerances: every state carries anti-Hermitian noise just under
# HERMITIAN_ATOL, which the lower triangle alone would read, and has its
# smallest eigenvalue within 2e-11 of PSD_MIN_EIGENVALUE. Read from the lower
# triangle alone, about a third of these states would land on the other side.
BOUNDARY_DIMS = [(2, 2), (2, 3), (3, 3), (4, 4)]


def anti_hermitian_noise(d, k, rng, size=0.49 * HERMITIAN_ATOL):
    """k anti-Hermitian matrices with a zero diagonal, so the trace is kept, whose
    largest entry is `size`: by default their defect max|E - E^dag| = 2 max|E| is
    0.98 HERMITIAN_ATOL."""
    e = rng.uniform(-1, 1, (k, d, d)) + 1j * rng.uniform(-1, 1, (k, d, d))
    e = e - e.conj().swapaxes(1, 2)
    e[:, np.arange(d), np.arange(d)] = 0.0
    return e * (size / np.abs(e).max(axis=(1, 2), keepdims=True))


def near_boundary_stack(d, k, rng, above=(2e-12, 2e-11), noise=0.49 * HERMITIAN_ATOL):
    """k states whose smallest eigenvalue is PSD_MIN_EIGENVALUE plus a uniform
    draw from `above`, with anti-Hermitian noise of largest entry `noise`."""
    mats = np.array([
        with_spectrum(PSD_MIN_EIGENVALUE + rng.uniform(*above), d - 1, d, rng)
        for _ in range(k)
    ])
    return mats + anti_hermitian_noise(d, k, rng, noise)


def reference_measures(mat, m, n):
    """N, D and the PT negative count of one state, from (A + A^dag)/2 formed here.

    N and the count as the kernel writes them; D from the Bloch data written as
    explicit traces, x_i = (m/2) Tr(H z_i (x) I) and T_ij = (mn/4) Tr(H z_i (x) w_j).
    """
    h = (mat + mat.conj().T) / 2
    w = np.linalg.eigvalsh(partial_transpose(h, m, n))[::-1]
    neg = 2.0 * np.sum(np.where(w < 0.0, -w, 0.0)) / (m - 1)
    count = int(np.sum(w < NEGATIVE_EIGENVALUE_CUTOFF))
    z, v = basis_stack(m), basis_stack(n)
    x = np.array([(m / 2) * np.trace(h @ np.kron(zi, np.eye(n))).real for zi in z])
    t = np.array([[(m * n / 4) * np.trace(h @ np.kron(zi, vj)).real for vj in v] for zi in z])
    g = np.outer(x, x) + (2.0 / n) * t @ t.T
    lam = np.linalg.eigvalsh(g)
    disc = max((2.0 / (m * (m - 1) * n)) * np.sum(lam[: m * m - m]), 0.0)
    return neg, disc, count


@pytest.mark.parametrize("m,n", BOUNDARY_DIMS)
def test_gate_and_kernel_read_the_hermitian_part_near_both_tolerances(m, n, monkeypatch):
    d = m * n
    rng = np.random.default_rng(40 + d)
    mats = near_boundary_stack(d, 12, rng)
    assert np.all(hermiticity_defect(mats) < HERMITIAN_ATOL)
    assert np.all(hermiticity_defect(mats) > 0.9 * HERMITIAN_ATOL)
    # Every state is above the bound, so the screen alone must pass them.
    monkeypatch.setattr(states, "_spectrum", forbidden)
    invalid, h = states._gate(mats)
    assert invalid is None and verdict(mats) is None
    assert np.array_equal(h, (mats + mats.conj().swapaxes(1, 2)) / 2)
    measured = measures._measure_stack(h, m, n)
    assert measured.ok.all()
    for k, mat in enumerate(mats):
        neg, disc, count = reference_measures(mat, m, n)
        assert measured.negativity[k] == neg
        assert measured.pt_negative_count[k] == count
        assert abs(measured.discord[k] - disc) <= 1e-15


@pytest.mark.parametrize("m,n", BOUNDARY_DIMS)
@pytest.mark.parametrize("where", [0, 5, 11])
def test_gate_verdict_near_both_tolerances_is_the_per_state_reference(m, n, where):
    d = m * n
    rng = np.random.default_rng(60 + d + where)
    # One state near both tolerances among Hilbert-Schmidt draws with the same noise.
    mats = _hs_stack(d, 12, rng) + anti_hermitian_noise(d, 12, rng)
    mats[where] = with_spectrum(PSD_MIN_EIGENVALUE - rng.uniform(2e-12, 2e-11), d - 1, d, rng)
    mats[where] += anti_hermitian_noise(d, 1, rng)[0]
    min_eig = [np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0] for mat in mats]
    assert [k for k, e in enumerate(min_eig) if e < PSD_MIN_EIGENVALUE] == [where]
    expected = (where, f"positivity invariant violated: min eigenvalue {min_eig[where]:.6g}")
    assert verdict(mats) == expected
    invalid, h = states._gate(mats)
    assert (invalid[0], str(invalid[1])) == expected
    assert np.array_equal(h, (mats + mats.conj().swapaxes(1, 2)) / 2)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(dims=st.sampled_from([(2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1))
def test_measures_near_the_boundary_are_invariant_under_local_unitaries(dims, seed):
    # Smallest eigenvalue about -5e-10 and anti-Hermitian noise of 1e-11 per
    # entry, which a local unitary spreads without lifting the defect past
    # HERMITIAN_ATOL: both stacks pass the gate, and N, D_lb and the PT
    # negative count do not move.
    m, n = dims
    d = m * n
    rng = np.random.default_rng(seed)
    mats = near_boundary_stack(d, 8, rng, above=(4.9e-10, 5.1e-10), noise=1e-11)
    local = np.kron(unitary(m, rng), unitary(n, rng))
    rotated = local @ mats @ local.conj().T
    results = []
    for stack in (mats, rotated):
        h = gated(stack)
        assert np.all(np.abs(np.linalg.eigvalsh(h)[:, 0] + 5e-10) <= 2e-11)
        results.append(measures._measure_stack(h, m, n))
    before, after = results
    assert before.ok.all() and after.ok.all()
    assert np.max(np.abs(after.negativity - before.negativity)) <= 1e-12
    assert np.max(np.abs(after.discord - before.discord)) <= 1e-12
    assert np.array_equal(after.pt_negative_count, before.pt_negative_count)


# ---------------------------------------------------------------------------
# The contract: a validated state is its Hermitian part, exactly.


def exactly_hermitian(x):
    return np.array_equal(matrixcore.hermitian_part(x), x)


def noisy_state(m, n, seed=5):
    """A Hilbert-Schmidt draw with anti-Hermitian noise of largest entry 4.5e-11: defect 9e-11."""
    rng = np.random.default_rng(seed)
    rho = _hs_stack(m * n, 1, rng)[0]
    return rho + anti_hermitian_noise(m * n, 1, rng, 0.45 * HERMITIAN_ATOL)[0]


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_hilbert_schmidt_chunks_are_exactly_hermitian(m, n):
    # The raw draw G G^dag / Tr need not be exactly Hermitian (BLAS rounds the
    # two triangles apart at these sizes); the chunks are the gate's parts.
    for seed in (1, 2):
        chunks = list(io_cli._state_chunks(m, n, 2 * _chunk_size(m * n) + 3, seed,
                                           "hilbert-schmidt"))
        assert [len(c) for c in chunks] == [_chunk_size(m * n)] * 2 + [3]
        assert all(exactly_hermitian(c) for c in chunks)


def test_member_stacks_and_sampled_states_are_exactly_hermitian():
    params = np.stack([np.linspace(0.0, 6.0, 50), np.ones(50)], axis=1)
    assert exactly_hermitian(families.member_stack("rho1", params))
    for ensemble in ("hilbert-schmidt", "pure"):
        assert all(exactly_hermitian(rho.mat)
                   for rho in io_cli.sample_states(2, 3, 40, 3, ensemble))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_density_matrix_stores_the_hermitian_part_of_a_noisy_input(m, n):
    mat = noisy_state(m, n)
    assert 0.8 * HERMITIAN_ATOL < hermiticity_defect(mat) < HERMITIAN_ATOL
    rho = DensityMatrix(m, n, mat)
    assert np.array_equal(rho.mat, matrixcore.hermitian_part(mat))
    assert exactly_hermitian(rho.mat) and not rho.mat.flags.writeable


# Each path that measures matrices, and what it measures.
KERNEL_PATHS = {
    "sample-hs-2x3": lambda: run_sample(2, 3, 500, 1, "hilbert-schmidt"),
    "sample-hs-3x3": lambda: run_sample(3, 3, 150, 1, "hilbert-schmidt"),
    "sample-pure-3x3": lambda: run_sample(3, 3, 150, 1, "pure"),
    "verify-2x3": lambda: run_verify(2, 3, 30, 1, oracle_subsample=2),
    "sweep-rho2": lambda: list(io_cli.sweep_rows("rho2", 0.01, 1.0, 300)),
    "analyze-noisy": lambda: io_cli.main(["analyze", "noisy.json"]),
}


@pytest.mark.parametrize("path", KERNEL_PATHS)
def test_every_path_hands_the_kernel_an_exactly_hermitian_stack(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    entries = [[float(z.real), float(z.imag)] for z in noisy_state(2, 3).ravel()]
    (tmp_path / "noisy.json").write_text(json.dumps(
        {"format": "gdneg-state/1", "m": 2, "n": 3, "entries": entries}))
    real, stacks = measures._measure_stack, []

    def recording(h, m, n):
        stacks.append(h)
        return real(h, m, n)

    monkeypatch.setattr(measures, "_measure_stack", recording)
    KERNEL_PATHS[path]()
    assert stacks and all(exactly_hermitian(h) for h in stacks)


# ---------------------------------------------------------------------------
# Dimensions: checked before any numpy work, as read_state checks them.

BAD_DIMENSIONS = [(2.0, 2.0), (True, 2), (2, True), (0, 3), (-1, -2), ("2", 2), (None, 2)]


@pytest.mark.parametrize("m,n", BAD_DIMENSIONS)
@pytest.mark.parametrize("record,data", [(DensityMatrix, np.eye(4) / 4), (PureState, [1.0, 0.0])],
                         ids=["DensityMatrix", "PureState"])
def test_records_reject_dimensions_no_state_can_have(record, data, m, n, monkeypatch):
    monkeypatch.setattr(states, "np", None)  # any numpy call would raise AttributeError
    with pytest.raises(InvalidState) as raised:
        record(m, n, data)
    assert str(raised.value) == f"dimensions must be positive integers, got {m!r}x{n!r}"


def test_records_take_integer_dimensions_of_any_integer_type():
    assert DensityMatrix(np.int64(2), 2, np.eye(4) / 4).mat.shape == (4, 4)
    assert PureState(1, np.int32(2), [1.0, 0.0]).amplitudes.shape == (2,)
