import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import bloch
from gdneg.bloch import BlochForm, decompose, g_matrix, reconstruct
from gdneg.errors import DimensionMismatch
from gdneg.families import FamilySpec, build
from gdneg.matrixcore import hermitian_eigenvalues, hs_norm_sq, partial_trace_b
from gdneg.states import DensityMatrix
from gdneg.su_generators import basis_for, basis_stack

from random_states import low_rank_states, random_density_matrix


def rho1(a, b):
    return build(FamilySpec("rho1", (a, b)), allow_out_of_range=True)


def rho1_bloch_expected(a, b):
    """Closed-form Bloch data of rho1(a, b)."""
    s = a * a + b * b
    x = np.zeros(3)
    y = np.zeros(8)
    y[2] = (3 * a * a - 6 * b * b) / (4 * s)
    y[7] = -np.sqrt(3.0) * (a * a - 2 * b * b) / (4 * s)
    t = np.zeros((3, 8))
    t[0, 0] = t[0, 5] = 3 * a * b / (2 * s)
    t[1, 1] = t[1, 6] = -3 * a * b / (2 * s)
    t[2, 2] = 3 * a * a / (4 * s)
    t[2, 7] = 3 * np.sqrt(3.0) * a * a / (4 * s)
    return x, y, t


@pytest.mark.parametrize("a,b", [(5.0, 2.0), (1.0, 1.0), (0.7, 1.9), (3.0, 0.5)])
def test_rho1_decomposition_matches_closed_form(a, b):
    bf = decompose(rho1(a, b))
    x, y, t = rho1_bloch_expected(a, b)
    assert np.max(np.abs(bf.x - x)) <= 1e-12
    assert np.max(np.abs(bf.y - y)) <= 1e-12
    assert np.max(np.abs(bf.T - t)) <= 1e-12


def test_maximally_mixed_has_zero_bloch_data():
    bf = decompose(DensityMatrix(2, 3, np.eye(6) / 6))
    assert np.max(np.abs(bf.x)) <= 1e-14
    assert np.max(np.abs(bf.y)) <= 1e-14
    assert np.max(np.abs(bf.T)) <= 1e-14


def test_round_trip_on_random_states():
    rng = np.random.default_rng(7)
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        for _ in range(20):
            rho = random_density_matrix(m, n, rng)
            rebuilt = reconstruct(decompose(rho))
            assert np.max(np.abs(rebuilt - rho.mat)) <= 1e-10


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    dims_rank=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]).flatmap(
        lambda dims: st.tuples(st.just(dims), st.integers(1, dims[0] * dims[1]))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_reconstruct_inverts_decompose(dims_rank, seed):
    (m, n), rank = dims_rank
    for mat in low_rank_states(m * n, rank, 4, np.random.default_rng(seed)):
        rho = DensityMatrix(m, n, mat)
        assert np.max(np.abs(reconstruct(decompose(rho)) - rho.mat)) <= 1e-12


def test_reconstruct_zero_data_is_maximally_mixed():
    bf = BlochForm(m=2, n=3, x=np.zeros(3), y=np.zeros(8), T=np.zeros((3, 8)))
    assert np.allclose(reconstruct(bf), np.eye(6) / 6, atol=1e-15)


def test_reconstruct_z_polarized_qubit_pair():
    # x = (0,0,1), y = 0, T = 0 at 2x2: (1/4)(I + sigma_3 (x) I)
    bf = BlochForm(m=2, n=2, x=np.array([0.0, 0.0, 1.0]), y=np.zeros(3), T=np.zeros((3, 3)))
    mat = reconstruct(bf)
    assert np.allclose(hermitian_eigenvalues(mat), [0.5, 0.5, 0.0, 0.0], atol=1e-14)


def test_reconstruct_printed_rho1_bloch_data():
    a, b = 5.0, 2.0
    x, y, t = rho1_bloch_expected(a, b)
    mat = reconstruct(BlochForm(m=2, n=3, x=x, y=y, T=t))
    assert np.max(np.abs(mat - rho1(a, b).mat)) <= 1e-14


def test_reconstruct_rejects_inconsistent_sizes():
    with pytest.raises(DimensionMismatch):
        reconstruct(BlochForm(m=2, n=3, x=np.zeros(4), y=np.zeros(8), T=np.zeros((3, 8))))
    with pytest.raises(DimensionMismatch):
        reconstruct(BlochForm(m=2, n=3, x=np.zeros(3), y=np.zeros(8), T=np.zeros((3, 7))))


@pytest.mark.parametrize("a,b", [(5.0, 2.0), (2.0, 1.0), (1.0, 3.0)])
def test_g_matrix_closed_form(a, b):
    s = a * a + b * b
    g = g_matrix(decompose(rho1(a, b)))
    expected = np.diag(
        [3 * a * a * b * b / s**2, 3 * a * a * b * b / s**2, 3 * a**4 / (2 * s**2)]
    )
    assert np.max(np.abs(g - expected)) <= 1e-12


def test_g_matrix_rho1_52_values():
    g = g_matrix(decompose(rho1(5.0, 2.0)))
    assert np.allclose(np.diag(g), [300 / 841, 300 / 841, 1875 / 1682], atol=1e-12)


def test_g_matrix_zero_bloch_data():
    bf = BlochForm(m=2, n=3, x=np.zeros(3), y=np.zeros(8), T=np.zeros((3, 8)))
    assert np.array_equal(g_matrix(bf), np.zeros((3, 3)))


def test_g_matrix_is_psd_on_random_states():
    rng = np.random.default_rng(8)
    for m, n in [(2, 3), (3, 3)]:
        for _ in range(15):
            g = g_matrix(decompose(random_density_matrix(m, n, rng)))
            assert np.allclose(g, g.T, atol=1e-14)
            assert np.linalg.eigvalsh(g).min() >= -1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_g_stack_weights_are_cached_read_only_and_exact(n):
    # B = [x, sqrt(2/n) T]: the cached weights are the ones built inline, bit for bit.
    weights = bloch._column_weights(n * n, n)
    assert weights is bloch._column_weights(n * n, n)
    assert np.array_equal(weights, np.sqrt(np.r_[1.0, np.full(n * n - 1, 2.0 / n)]))
    with pytest.raises(ValueError):
        weights[0] = 0


def test_marginal_consistency():
    # Tr(rho^A z_i) = 2 x_i / m
    rng = np.random.default_rng(9)
    for m, n in [(2, 3), (3, 3)]:
        for _ in range(10):
            rho = random_density_matrix(m, n, rng)
            bf = decompose(rho)
            marginal = partial_trace_b(rho.mat, m, n)
            for i, g in enumerate(basis_for(m)):
                assert abs(np.trace(marginal @ g).real - 2 * bf.x[i] / m) <= 1e-10


def test_local_vector_purity_bound():
    # ||x||^2 <= m(m-1)/2 for any valid state
    rng = np.random.default_rng(10)
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        for _ in range(10):
            bf = decompose(random_density_matrix(m, n, rng))
            assert float(bf.x @ bf.x) <= m * (m - 1) / 2 + 1e-10


def test_generator_reordering_leaves_measures_invariant():
    # A signed permutation of the B-side basis permutes columns of T, which
    # leaves ||T||^2 and the spectrum of G unchanged.
    rng = np.random.default_rng(13)
    rho = random_density_matrix(2, 3, rng)
    bf = decompose(rho)

    perm = rng.permutation(8)
    signs = rng.choice([-1.0, 1.0], size=8)
    permuted = np.stack([signs[k] * basis_stack(3)[perm[k]] for k in range(8)])

    r4 = rho.mat.reshape(2, 3, 2, 3)
    y_alt = (3 / 2) * np.einsum("ikil,blk->b", r4, permuted).real
    t_alt = (6 / 4) * np.einsum("ikjl,aji,blk->ab", r4, basis_stack(2), permuted).real
    g_alt = np.outer(bf.x, bf.x) + (2 / 3) * t_alt @ t_alt.T

    assert abs(hs_norm_sq(t_alt) - hs_norm_sq(bf.T)) <= 1e-12
    assert np.allclose(
        np.linalg.eigvalsh(g_alt), np.linalg.eigvalsh(g_matrix(bf)), atol=1e-12
    )
    assert abs(np.linalg.norm(y_alt) - np.linalg.norm(bf.y)) <= 1e-12
