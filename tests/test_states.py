"""The positivity screen of `states.first_invalid_state`.

The gate settles positivity with one Cholesky factorisation of the states
before the first cheap failure and takes their spectrum only when it fails.
These tests hold it to the `eigvalsh` reference: the same verdict, index and
message near the -1e-9 bound, wherever the failing state sits in a chunk, and
behind a cheap failure the screen never sees. Near both tolerances at once,
the gate and the measures kernel must read the Hermitian part that a
per-state reference forms explicitly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import matrixcore, measures, states
from gdneg.io_cli import _chunk_size, _hs_stack, run_sample, run_verify
from gdneg.matrixcore import hermiticity_defect, partial_transpose
from gdneg.states import first_invalid_state
from gdneg.su_generators import basis_stack
from gdneg.tolerances import HERMITIAN_ATOL, NEGATIVE_EIGENVALUE_CUTOFF, PSD_MIN_EIGENVALUE

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
    invalid = first_invalid_state(mats)
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
    measured = measures._measure_parts(mats, h, m, n)
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
        invalid, h = states._gate(stack)
        assert invalid is None
        assert np.all(np.abs(np.linalg.eigvalsh(h)[:, 0] + 5e-10) <= 2e-11)
        results.append(measures._measure_parts(stack, h, m, n))
    before, after = results
    assert before.ok.all() and after.ok.all()
    assert np.max(np.abs(after.negativity - before.negativity)) <= 1e-12
    assert np.max(np.abs(after.discord - before.discord)) <= 1e-12
    assert np.array_equal(after.pt_negative_count, before.pt_negative_count)
