import numpy as np
import pytest

from gdneg import bloch
from gdneg.errors import DimensionMismatch, NotSquare
from gdneg.families import FamilySpec, build
from gdneg.matrixcore import hermiticity_defect, hs_norm_sq, partial_transpose
from gdneg.su_generators import basis_for

SIGMA = basis_for(2)
MU = basis_for(3)


def rho1(a, b):
    return build(FamilySpec("rho1", (a, b)), allow_out_of_range=True).mat


def random_hermitian(rng, d):
    a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return (a + a.conj().T) / 2


class TestKron:
    """The Kronecker index layout every layer assumes: A's index is the outer one."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        out = np.kron(SIGMA[2], np.eye(3))
        assert np.array_equal(out, np.diag([1, 1, 1, -1, -1, -1]).astype(complex))

    def test_sigma1_mu1_positions(self):
        out = np.kron(SIGMA[0], MU[0])
        expected = np.zeros((6, 6), dtype=complex)
        for i, j in [(0, 4), (1, 3), (3, 1), (4, 0)]:
            expected[i, j] = 1
        assert np.array_equal(out, expected)


class TestHermitianEigenvalues:
    """Spectra of Hermitian matrices by `np.linalg.eigvalsh`, which sorts them ascending."""

    @pytest.mark.parametrize("a,b", [(5.0, 2.0), (1.0, 1.0), (0.3, 2.5), (-2.0, 1.0)])
    def test_rho1_spectrum(self, a, b):
        w = np.linalg.eigvalsh(rho1(a, b))
        assert np.allclose(w, [0, 0, 0, 0, 0.5, 0.5], atol=1e-12)

    def test_maximally_mixed(self):
        w = np.linalg.eigvalsh(np.eye(6) / 6)
        assert np.allclose(w, np.full(6, 1 / 6), atol=1e-14)

    def test_rho1_52_partial_transpose_spectrum(self):
        w = np.linalg.eigvalsh(partial_transpose(rho1(5, 2), 2, 3))
        root = np.sqrt(26.0)
        expected = np.sort(
            [25 / 58, 25 / 58, (1 + root) / 29, (1 + root) / 29, (1 - root) / 29, (1 - root) / 29]
        )
        assert np.allclose(w, expected, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            hermiticity_defect(np.zeros((2, 3)))

    def test_spectrum_sums(self):
        # sum(w) = Tr(a) and sum(w^2) = Tr(a^2) for random Hermitian input
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_hermitian(rng, 8)
            w = np.linalg.eigvalsh(a)
            assert abs(np.sum(w) - np.trace(a).real) <= 1e-9
            assert abs(np.sum(w**2) - np.trace(a @ a).real) <= 1e-9

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_hermitian(rng, 6)
            perm = np.eye(6)[rng.permutation(6)]
            w1 = np.linalg.eigvalsh(a)
            w2 = np.linalg.eigvalsh(perm.T @ a @ perm)
            assert np.allclose(w1, w2, atol=1e-9)


class TestPartialTranspose:
    def test_diagonal_fixed(self):
        d = np.diag(np.arange(6).astype(complex))
        assert np.array_equal(partial_transpose(d, 2, 3), d)

    def test_bell_spectrum(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        w = np.linalg.eigvalsh(partial_transpose(rho, 2, 2))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.array_equal(partial_transpose(partial_transpose(a, 2, 3), 2, 3), a)

    def test_rho1_spectrum_matches_printed(self):
        a, b = 3.0, 1.5
        s = a * a + b * b
        w = np.linalg.eigvalsh(partial_transpose(rho1(a, b), 2, 3))
        pm = b * np.sqrt(b * b + 4 * a * a)
        expected = np.sort(
            [a * a / (2 * s)] * 2 + [(b * b + pm) / (4 * s)] * 2 + [(b * b - pm) / (4 * s)] * 2
        )
        assert np.allclose(w, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_transpose(np.eye(6), 2, 2)

    @pytest.mark.parametrize("m,n", [(1, 4), (4, 1)])
    def test_returns_a_new_array_where_the_swap_is_a_view(self, m, n):
        # With m or n = 1 the swapped view reshapes without a copy.
        a = np.arange(32.0).reshape(2, 4, 4)
        out = partial_transpose(a, m, n)
        assert not np.shares_memory(out, a)
        assert np.array_equal(out, a if m == 1 else a.swapaxes(-1, -2))


class TestNorms:
    def test_trace_norm_rho1_pt(self):
        # ||rho^Gamma||_1 = 1 + (m-1) * negativity with the closed-form value
        expected = 1.0 + (4 * np.sqrt(26.0) - 4) / 29
        pt = partial_transpose(rho1(5, 2), 2, 3)
        assert abs(np.abs(np.linalg.eigvalsh(pt)).sum() - expected) <= 1e-12

    def test_trace_norm_pt_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert np.abs(np.linalg.eigvalsh(partial_transpose(rho, 2, 3))).sum() >= 1.0 - 1e-12

    def test_hs_norm_sq(self):
        assert hs_norm_sq(np.eye(6)) == pytest.approx(6.0)
        assert hs_norm_sq(np.zeros((4, 4))) == 0.0

    def test_hs_norm_sq_of_rho1_correlation_matrix(self):
        from gdneg.measures import DensityMatrix

        a, b = 5.0, 2.0
        s = a * a + b * b
        bf = bloch.decompose(DensityMatrix(2, 3, rho1(a, b)))
        expected = (36 * a * a * b * b + 9 * a**4) / (4 * s * s)
        assert abs(hs_norm_sq(bf.T) - expected) <= 1e-12


def test_hermiticity_defect_reports_max_deviation():
    a = np.eye(3, dtype=complex)
    a[0, 2] = 0.25j
    assert hermiticity_defect(a) == pytest.approx(0.25)
