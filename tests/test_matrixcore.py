import numpy as np
import pytest

from gdneg import bloch
from gdneg.errors import DimensionMismatch, NotHermitian, NotSquare
from gdneg.families import FamilySpec, build
from gdneg.matrixcore import (
    hermitian_eigenvalues,
    hermiticity_defect,
    hs_norm_sq,
    kron,
    partial_trace_b,
    partial_transpose,
    trace_norm,
)
from gdneg.measures import maximal_state
from gdneg.su_generators import basis_for

SIGMA = basis_for(2)
MU = basis_for(3)


def rho1(a, b):
    return build(FamilySpec("rho1", (a, b)), allow_out_of_range=True).mat


def random_hermitian(rng, d):
    a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return (a + a.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        out = kron(SIGMA[2], np.eye(3))
        assert np.array_equal(out, np.diag([1, 1, 1, -1, -1, -1]).astype(complex))

    def test_sigma1_mu1_positions(self):
        out = kron(SIGMA[0], MU[0])
        expected = np.zeros((6, 6), dtype=complex)
        for i, j in [(0, 4), (1, 3), (3, 1), (4, 0)]:
            expected[i, j] = 1
        assert np.array_equal(out, expected)


class TestHermitianEigenvalues:
    @pytest.mark.parametrize("a,b", [(5.0, 2.0), (1.0, 1.0), (0.3, 2.5), (-2.0, 1.0)])
    def test_rho1_spectrum(self, a, b):
        w = hermitian_eigenvalues(rho1(a, b))
        assert np.allclose(w, [0.5, 0.5, 0, 0, 0, 0], atol=1e-12)

    def test_maximally_mixed(self):
        w = hermitian_eigenvalues(np.eye(6) / 6)
        assert np.allclose(w, np.full(6, 1 / 6), atol=1e-14)

    def test_rho1_52_partial_transpose_spectrum(self):
        w = hermitian_eigenvalues(partial_transpose(rho1(5, 2), 2, 3))
        root = np.sqrt(26.0)
        expected = np.sort(
            [25 / 58, 25 / 58, (1 + root) / 29, (1 + root) / 29, (1 - root) / 29, (1 - root) / 29]
        )[::-1]
        assert np.allclose(w, expected, atol=1e-12)

    def test_sorted_nonincreasing(self):
        rng = np.random.default_rng(3)
        w = hermitian_eigenvalues(random_hermitian(rng, 7))
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_hermitian(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(a)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            hermitian_eigenvalues(np.zeros((2, 3)))

    def test_spectrum_sums(self):
        # sum(w) = Tr(a) and sum(w^2) = Tr(a^2) for random Hermitian input
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_hermitian(rng, 8)
            w = hermitian_eigenvalues(a)
            assert abs(np.sum(w) - np.trace(a).real) <= 1e-9
            assert abs(np.sum(w**2) - np.trace(a @ a).real) <= 1e-9

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_hermitian(rng, 6)
            perm = np.eye(6)[rng.permutation(6)]
            w1 = hermitian_eigenvalues(a)
            w2 = hermitian_eigenvalues(perm.T @ a @ perm)
            assert np.allclose(w1, w2, atol=1e-9)


class TestPartialTranspose:
    def test_diagonal_fixed(self):
        d = np.diag(np.arange(6).astype(complex))
        assert np.array_equal(partial_transpose(d, 2, 3), d)

    def test_bell_spectrum(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        w = hermitian_eigenvalues(partial_transpose(rho, 2, 2))
        assert np.allclose(w, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.array_equal(partial_transpose(partial_transpose(a, 2, 3), 2, 3), a)

    def test_rho1_spectrum_matches_printed(self):
        a, b = 3.0, 1.5
        s = a * a + b * b
        w = hermitian_eigenvalues(partial_transpose(rho1(a, b), 2, 3))
        pm = b * np.sqrt(b * b + 4 * a * a)
        expected = np.sort(
            [a * a / (2 * s)] * 2 + [(b * b + pm) / (4 * s)] * 2 + [(b * b - pm) / (4 * s)] * 2
        )[::-1]
        assert np.allclose(w, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_transpose(np.eye(6), 2, 2)


class TestPartialTraceB:
    def test_maximally_mixed(self):
        assert np.allclose(partial_trace_b(np.eye(6) / 6, 2, 3), np.eye(2) / 2, atol=1e-15)

    def test_rho1_marginal(self):
        assert np.allclose(partial_trace_b(rho1(5, 2), 2, 3), np.eye(2) / 2, atol=1e-15)

    def test_maximal_state_marginal(self):
        rho = maximal_state(2, 3)
        assert np.allclose(partial_trace_b(rho.mat, 2, 3), np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            reduced = partial_trace_b(a, 3, 4)
            assert abs(np.trace(reduced) - np.trace(a)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_b(np.eye(5), 2, 3)


class TestNorms:
    def test_trace_norm_of_state_is_one(self):
        assert abs(trace_norm(rho1(5, 2)) - 1.0) <= 1e-12

    def test_trace_norm_diag(self):
        assert trace_norm(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(2.0)

    def test_trace_norm_rho1_pt(self):
        # ||rho^Gamma||_1 = 1 + (m-1) * negativity with the closed-form value
        expected = 1.0 + (4 * np.sqrt(26.0) - 4) / 29
        assert abs(trace_norm(partial_transpose(rho1(5, 2), 2, 3)) - expected) <= 1e-12

    def test_trace_norm_pt_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert trace_norm(partial_transpose(rho, 2, 3)) >= 1.0 - 1e-12

    def test_trace_norm_rejects_non_hermitian(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            trace_norm(a)

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
