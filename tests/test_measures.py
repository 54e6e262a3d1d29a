import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import measures, states
from gdneg.errors import (
    BoundViolation,
    InvalidDimension,
    InvalidState,
    first_fault,
)
from gdneg.families import FamilySpec, build, rho1_closed_forms
from gdneg.matrixcore import hs_norm_sq, partial_transpose
from gdneg.measures import (
    DensityMatrix,
    PureState,
    bounds_check,
    gd_bruteforce_stack,
    maximal_state,
    project_a,
    pure_gd,
    pure_negativity,
    schmidt,
)

from random_states import gated, low_rank_states, random_density_matrix, random_pure_state


def rho1(a, b):
    return build(FamilySpec("rho1", (a, b)), allow_out_of_range=True)


def rho1_negativity_closed(a, b):
    s = a * a + b * b
    return (b * np.sqrt(b * b + 4 * a * a) - b * b) / s


def single_system_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestNegativity:
    @pytest.mark.parametrize("a,b", [(5.0, 2.0), (1.0, 1.0), (0.0, 1.0), (3.0, 0.4)])
    def test_rho1_closed_form(self, a, b):
        assert abs(bounds_check(rho1(a, b)).negativity - rho1_negativity_closed(a, b)) <= 1e-12

    def test_product_state_is_ppt(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            mat = np.kron(single_system_state(2, rng), single_system_state(3, rng))
            assert bounds_check(DensityMatrix(2, 3, mat)).negativity <= 1e-12

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_maximal_state(self, m, n):
        assert abs(bounds_check(maximal_state(m, n)).negativity - 1.0) <= 1e-12

    def test_agrees_with_trace_norm_expression(self):
        rng = np.random.default_rng(31)
        for m, n in [(2, 3), (3, 3)]:
            for _ in range(20):
                rho = random_density_matrix(m, n, rng)
                pt = partial_transpose(rho.mat, m, n)
                via_tn = (np.abs(np.linalg.eigvalsh(pt)).sum() - 1) / (m - 1)
                assert abs(bounds_check(rho).negativity - via_tn) <= 1e-9

    def test_convexity(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            r1 = random_density_matrix(2, 3, rng)
            r2 = random_density_matrix(2, 3, rng)
            t = rng.uniform()
            mix = DensityMatrix(2, 3, t * r1.mat + (1 - t) * r2.mat)
            n_mix, n1, n2 = (bounds_check(rho).negativity for rho in (mix, r1, r2))
            assert n_mix <= t * n1 + (1 - t) * n2 + 1e-9


class TestPtNegativeCount:
    @pytest.mark.parametrize("a,b", [(5.0, 2.0), (1.0, 1.0), (0.1, 3.0)])
    def test_rho1_has_two(self, a, b):
        assert bounds_check(rho1(a, b)).pt_negative_count == 2

    def test_diagonal_state_has_none(self):
        diagonal = DensityMatrix(2, 3, np.diag([0.3, 0.2, 0.1, 0.1, 0.1, 0.2]).astype(complex))
        assert bounds_check(diagonal).pt_negative_count == 0

    def test_maximal_state_counts(self):
        # cap (m-1)(n-1) is attained at 2x2; in 2x3 the maximal state has a
        # single negative PT eigenvalue (spectrum 1/2 x3, 0 x2, -1/2) and the
        # cap of 2 is attained by the rho1 family instead
        assert bounds_check(maximal_state(2, 2)).pt_negative_count == 1
        assert bounds_check(maximal_state(2, 3)).pt_negative_count == 1

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_cap_respected_on_random_states(self, m, n):
        rng = np.random.default_rng(33)
        for _ in range(100):
            count = bounds_check(random_density_matrix(m, n, rng)).pt_negative_count
            assert count <= (m - 1) * (n - 1)


class TestGeometricDiscord:
    def test_maximally_mixed_is_zero(self):
        assert bounds_check(DensityMatrix(2, 3, np.eye(6) / 6)).discord == 0.0

    def test_rho1_52(self):
        report = bounds_check(rho1(5, 2))
        assert abs(report.discord - 200 / 841) <= 1e-12
        assert report.discord_exact

    @pytest.mark.parametrize(
        "a,b",
        [(5.0, 2.0), (3.0, 1.0), (2.0, 1.0), (1.0, 1.0), (0.5, 1.0), (np.sqrt(2.0), 1.0)],
    )
    def test_rho1_piecewise_closed_form(self, a, b):
        _, expected = rho1_closed_forms(a, b)
        value = bounds_check(rho1(a, b)).discord
        assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("c", [1e2, 1e4, 1e6, 1e8])
    def test_small_discord_keeps_its_relative_precision(self, c):
        # D = 2c^2/(c^2+1)^2 is about 2/c^2 here. Summing G's small eigenvalues
        # keeps it to rounding; Tr G less the top one would cancel its digits away.
        _, expected = rho1_closed_forms(c, 1.0)
        value = bounds_check(rho1(c, 1.0)).discord
        assert abs(value / expected - 1) <= 1e-14

    def test_branch_boundary_value(self):
        # both branches give 4/9 at c^2 = 2
        _, d = rho1_closed_forms(np.sqrt(2.0), 1.0)
        assert abs(d - 4 / 9) <= 1e-12

    def test_lower_bound_flag_for_qutrit_side(self):
        rng = np.random.default_rng(34)
        exact = bounds_check(random_density_matrix(3, 3, rng)).discord_exact
        assert not exact

    def test_classical_quantum_states_have_zero_discord(self):
        # sum_k p_k |psi_k><psi_k| (x) rho_k with orthonormal psi_k
        rng = np.random.default_rng(35)
        for m, n in [(2, 3), (3, 3)]:
            for _ in range(10):
                ginibre = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                basis, _ = np.linalg.qr(ginibre)
                probs = rng.uniform(0.1, 1.0, m)
                probs /= probs.sum()
                mat = np.zeros((m * n, m * n), dtype=complex)
                for k in range(m):
                    psi = basis[:, k]
                    mat += probs[k] * np.kron(np.outer(psi, psi.conj()), single_system_state(n, rng))
                assert bounds_check(DensityMatrix(m, n, mat)).discord <= 1e-10


def test_readme_library_block_prints_the_rho1_gap(capsys):
    # README's `## Library` block, run as it stands, so that the documented API cannot go stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    gap, neg, disc, brute = map(float, capsys.readouterr().out.split())
    closed_neg = (4 * np.sqrt(26) - 4) / 29
    assert abs(gap - (closed_neg**2 - 200 / 841)) <= 1e-12
    assert abs(neg - closed_neg) <= 1e-12 and abs(disc - 200 / 841) <= 1e-12
    assert abs(brute - disc) <= 1e-12


class TestBruteForceOracle:
    def test_rho1_52_matches_closed_form(self):
        assert abs(gd_bruteforce_stack(rho1(5, 2).mat[None], 3)[0] - 200 / 841) <= 1e-6

    def test_maximally_mixed(self):
        assert gd_bruteforce_stack(DensityMatrix(2, 3, np.eye(6) / 6).mat[None], 3)[0] <= 1e-9

    def test_matches_formula_on_random_states(self):
        rng = np.random.default_rng(36)
        for n in (3, 4):
            for _ in range(15):
                rho = random_density_matrix(2, n, rng)
                value = bounds_check(rho).discord
                assert abs(gd_bruteforce_stack(rho.mat[None], n)[0] - value) <= 1e-6


class TestSchmidt:
    def test_product_basis_state(self):
        v = np.zeros(6)
        v[0] = 1.0
        assert np.allclose(schmidt(PureState(2, 3, v)), [1.0], atol=1e-14)

    def test_bell_like_in_2x3(self):
        v = np.zeros(6)
        v[0] = v[4] = 1 / np.sqrt(2)  # |0>|0> + |1>|1>
        assert np.allclose(schmidt(PureState(2, 3, v)), [1 / np.sqrt(2)] * 2, atol=1e-14)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4)])
    def test_maximal_state_coefficients(self, m, n):
        v = np.zeros(m * n, dtype=complex)
        for i in range(m):
            v[i * n + i] = 1 / np.sqrt(m)
        assert np.allclose(schmidt(PureState(m, n, v)), np.full(m, 1 / np.sqrt(m)), atol=1e-12)

    def test_coefficients_sorted_and_normalized(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            c = schmidt(random_pure_state(3, 4, rng))
            assert np.all(np.diff(c) <= 0)
            assert abs(np.sum(c**2) - 1.0) <= 1e-10


class TestPureStateFormulas:
    def test_degenerate_cases(self):
        assert pure_negativity([1.0], 2) == 0.0
        assert pure_gd([1.0], 2) == 0.0

    @pytest.mark.parametrize("formula", [pure_negativity, pure_gd])
    @pytest.mark.parametrize("m", [1, 0, -1])
    def test_reject_a_one_dimensional_side(self, formula, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDimension, match=f"require m >= 2, got m={m}"):
                formula([0.6, 0.8], m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_uniform_coefficients_give_one(self, m):
        c = np.full(m, 1 / np.sqrt(m))
        assert abs(pure_negativity(c, m) - 1.0) <= 1e-12
        assert abs(pure_gd(c, m) - 1.0) <= 1e-12

    def test_negativity_cross_check(self):
        rng = np.random.default_rng(39)
        for m, n in [(2, 3), (3, 3)]:
            for _ in range(25):
                phi = random_pure_state(m, n, rng)
                via_schmidt = pure_negativity(schmidt(phi), m)
                via_pt = bounds_check(phi.projector()).negativity
                assert abs(via_schmidt - via_pt) <= 1e-8

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_near_product_states_keep_their_digits(self, eps):
        # v ∝ e_0 + eps e_4 at 2x3: c = (1, eps)/sqrt(1 + eps^2), so
        # N = 2 eps/(1 + eps^2) and D = 4 eps^2/(1 + eps^2)^2, where
        # (sum c)^2 - 1 and 1 - sum c^4 would cancel.
        v = np.zeros(6, dtype=complex)
        v[0], v[4] = 1.0, eps
        c = schmidt(PureState(2, 3, v / np.linalg.norm(v)))
        exact_n = 2 * eps / (1 + eps**2)
        exact_d = 4 * eps**2 / (1 + eps**2) ** 2
        assert abs(pure_negativity(c, 2) - exact_n) <= 1e-12 * exact_n
        assert abs(pure_gd(c, 2) - exact_d) <= 1e-12 * exact_d

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stacks_give_one_value_per_row(self, m):
        rng = np.random.default_rng(41)
        rows = np.stack([schmidt(random_pure_state(m, 4, rng)) for _ in range(5)])
        for formula in (pure_negativity, pure_gd):
            assert np.array_equal(formula(rows, m), [formula(c, m) for c in rows])

    def test_discord_cross_check_for_qubit_side(self):
        rng = np.random.default_rng(40)
        for n in (3, 4):
            for _ in range(25):
                phi = random_pure_state(2, n, rng)
                via_schmidt = pure_gd(schmidt(phi), 2)
                via_formula = bounds_check(phi.projector()).discord
                assert abs(via_schmidt - via_formula) <= 1e-8


class TestMaximalState:
    def test_bell_projector(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        assert np.allclose(maximal_state(2, 2).mat, np.outer(v, v.conj()), atol=1e-15)

    def test_matrix_unit_construction(self):
        # (1/m) sum_ij e_ij (x) f_ij equals the projector
        m, n = 2, 3
        expected = np.zeros((m * n, m * n), dtype=complex)
        for i in range(m):
            for j in range(m):
                e = np.zeros((m, m))
                f = np.zeros((n, n))
                e[i, j] = 1.0
                f[i, j] = 1.0
                expected += np.kron(e, f) / m
        assert np.allclose(maximal_state(m, n).mat, expected, atol=1e-15)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_measures_attain_one(self, m, n):
        report = bounds_check(maximal_state(m, n))
        assert abs(report.negativity - 1.0) <= 1e-12
        assert abs(report.discord - 1.0) <= 1e-12

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimension):
            maximal_state(1, 3)
        with pytest.raises(InvalidDimension):
            maximal_state(3, 2)


def identity_traces(rho, u):
    """`_identity_checks` on a stack of one: its two traces, or its first fault raised."""
    checks, pi_sq, rho_pi = measures._identity_checks(
        rho.mat[None], rho.n, np.asarray(u, dtype=float)[None])
    fault = first_fault(checks)
    if fault is not None:
        raise fault[1]
    return float(pi_sq[0]), float(rho_pi[0])


class TestMeasurementIdentity:
    def test_z_direction_on_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            rho = random_density_matrix(2, 3, rng)
            t1, t2 = identity_traces(rho, (0.0, 0.0, 1.0))
            assert abs(t1 - t2) <= 1e-10

    def test_rho1_random_directions(self):
        rng = np.random.default_rng(42)
        rho = rho1(5, 2)
        for _ in range(20):
            t1, t2 = identity_traces(rho, rng.standard_normal(3))
            assert abs(t1 - t2) <= 1e-10

    def test_maximally_mixed(self):
        rho = DensityMatrix(2, 3, np.eye(6) / 6)
        t1, t2 = identity_traces(rho, (0.0, 1.0, 0.0))
        # Pi(rho) = rho here, so both traces equal Tr(rho^2) = 1/6
        assert abs(t1 - 1 / 6) <= 1e-12
        assert abs(t2 - 1 / 6) <= 1e-12

    def test_measured_distance_bounded_by_one(self):
        # ||rho - Pi(rho)||^2 = Tr(rho^2) - Tr(Pi(rho)^2) <= 1
        rng = np.random.default_rng(44)
        for _ in range(20):
            rho = random_density_matrix(2, 3, rng)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            distance_sq = hs_norm_sq(rho.mat - project_a(rho.mat, 3, u))
            assert distance_sq <= 1.0 + 1e-12

    def test_broken_trace_identity_raises(self, monkeypatch):
        # Pi(rho) = rho/2 gives Tr(Pi^2) = Tr(rho^2)/4 but Tr(rho Pi) = Tr(rho^2)/2.
        monkeypatch.setattr(measures, "project_a", lambda mat, n, u: mat / 2)
        with pytest.raises(BoundViolation, match="measurement identity failed"):
            identity_traces(rho1(5, 2), (0.0, 0.0, 1.0))

    def test_broken_distance_identity_raises(self, monkeypatch):
        monkeypatch.setattr(measures, "hs_norm_sq", lambda a: hs_norm_sq(a) + 1e-6)
        with pytest.raises(BoundViolation, match="distance identity failed"):
            identity_traces(rho1(5, 2), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("u", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (0.0, np.inf, 0.0)])
    def test_rejects_zero_or_non_finite_direction(self, u):
        # Its unit direction is NaN, and so are both residuals: the identity check fails.
        rho = random_density_matrix(2, 3, np.random.default_rng(46))
        with np.errstate(invalid="ignore"):
            with pytest.raises(BoundViolation, match="measurement identity failed: Tr.*=nan"):
                identity_traces(rho, u)


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class TestProjectA:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_sum_over_projectors(self, n):
        # (rho + S rho S)/2 with S = u.sigma (x) I equals sum_k P_k rho P_k
        # for P_+/- = (I +/- u.sigma)/2 for every real u, unit or not.
        rng = np.random.default_rng(47 + n)
        rho = random_density_matrix(2, n, rng).mat
        unit = rng.standard_normal(3)
        unit /= np.linalg.norm(unit)
        for u in (unit, (0.0, 0.0, 1.0), 2.5 * unit, rng.standard_normal(3), (0.3, 0.0, 0.0)):
            u_sigma = sum(c * s for c, s in zip(u, PAULI))
            expected = np.zeros_like(rho)
            for p in ((np.eye(2) + u_sigma) / 2, (np.eye(2) - u_sigma) / 2):
                lift = np.kron(p, np.eye(n))
                expected += lift @ rho @ lift
            assert np.max(np.abs(project_a(rho, n, u) - expected)) <= 1e-14


class TestBoundsCheck:
    def test_rho1_52_report(self):
        report = bounds_check(rho1(5, 2))
        expected_gap = (232 - 32 * np.sqrt(26.0)) / 841
        assert abs(report.negativity_sq - report.discord - expected_gap) <= 1e-12
        assert abs(report.discord - 200 / 841) <= 1e-12
        assert report.discord_exact
        assert report.pt_negative_count == 2
        assert report.pt_negative_cap == 2
        assert report.bounds_ok

    def test_maximally_mixed_report(self):
        report = bounds_check(DensityMatrix(2, 3, np.eye(6) / 6))
        assert report.negativity == 0.0
        assert report.discord == 0.0
        assert report.bounds_ok

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_random_states_pass(self, m, n):
        rng = np.random.default_rng(45)
        for _ in range(200):
            report = bounds_check(random_density_matrix(m, n, rng))
            assert report.bounds_ok
            gap = report.negativity_sq - report.discord
            assert -m / (m - 1) - 1e-9 <= gap <= 1.0 + 1e-9

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
    def test_report_carries_the_gap(self, m, n):
        rng = np.random.default_rng(47)
        for _ in range(20):
            report = bounds_check(random_density_matrix(m, n, rng))
            assert report.gap == report.negativity_sq - report.discord


class TestStateValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState, match="trace"):
            DensityMatrix(2, 3, np.eye(6) / 5)

    def test_rejects_non_hermitian(self):
        mat = np.eye(6, dtype=complex) / 6
        mat[0, 1] = 0.1
        with pytest.raises(InvalidState, match="hermiticity"):
            DensityMatrix(2, 3, mat)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([0.6, 0.5, 0.0, 0.0, 0.0, -0.1]).astype(complex)
        with pytest.raises(InvalidState, match="positivity"):
            DensityMatrix(2, 3, mat)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidState, match="shape"):
            DensityMatrix(2, 3, np.eye(5) / 5)

    def test_pure_state_norm(self):
        with pytest.raises(InvalidState, match="norm"):
            PureState(2, 3, np.ones(6))

    def test_rejects_non_positive_dimension(self):
        with pytest.raises(InvalidState, match="dimensions must be positive integers, got 0x3"):
            DensityMatrix(0, 3, np.zeros((0, 0)))

    def test_pure_state_amplitude_count(self):
        with pytest.raises(InvalidState, match="amplitude vector length 5 does not match"):
            PureState(2, 3, np.ones(5) / np.sqrt(5))


# ---------------------------------------------------------------------------
# Properties of the kernel's N and D = (2/(m(m-1)n)) (sum of all but the top
# m - 1 eigenvalues of G), each over a seeded stack of states.


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def measured(mats, m, n):
    result = measures._measure_stack(gated(mats), m, n)
    assert result.ok.all()
    return result


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    dims_rank=st.sampled_from([(2, 3), (3, 3)]).flatmap(
        lambda dims: st.tuples(st.just(dims), st.integers(1, dims[0] * dims[1]))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_measures_are_invariant_under_local_unitaries(dims_rank, seed):
    # (V (x) W) rho (V (x) W)^dag rotates x, T and so G by orthogonal maps and
    # the PT spectrum by a unitary: N and D do not move.
    (m, n), rank = dims_rank
    rng = np.random.default_rng(seed)
    mats = low_rank_states(m * n, rank, 8, rng)
    local = np.kron(haar_unitary(m, rng), haar_unitary(n, rng))
    rotated = local @ mats @ local.conj().T
    before, after = measured(mats, m, n), measured(rotated, m, n)
    assert np.max(np.abs(after.negativity - before.negativity)) <= 1e-12
    assert np.max(np.abs(after.discord - before.discord)) <= 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    dims_rank=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]).flatmap(
        lambda dims: st.tuples(st.just(dims), st.integers(1, dims[0] * dims[1]))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_discord_is_at_most_the_distance_to_i_over_m_times_rho_b(dims_rank, seed):
    # I/m (x) rho_B is classical-quantum, so D <= m/(m-1) ||rho - I/m (x) rho_B||^2
    # at every rank: the kernel's check of it passes every state (`measured`), and
    # the distance, formed here as a matrix, bounds D.
    (m, n), rank = dims_rank
    mats = low_rank_states(m * n, rank, 32, np.random.default_rng(seed))
    rho_b = np.einsum("kiaib->kab", mats.reshape(-1, m, n, m, n))
    distance = (m / (m - 1)) * hs_norm_sq(mats - np.kron(np.eye(m) / m, rho_b))
    assert np.max(measured(mats, m, n).discord - distance) <= 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_discord_bounds_the_squared_negativity_at_2x2(rank, seed):
    # D >= N^2 for every 2 (x) 2 state (Girolami & Adesso).
    mats = low_rank_states(4, rank, 32, np.random.default_rng(seed))
    assert np.max(measured(mats, 2, 2).gap) <= 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_pure_qubit_states_have_discord_equal_to_squared_negativity(n, seed):
    # Both are 4 c_1^2 c_2^2 for Schmidt coefficients c_1, c_2.
    mats = low_rank_states(2 * n, 1, 16, np.random.default_rng(seed))
    assert np.max(np.abs(measured(mats, 2, n).gap)) <= 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    dims_rank=st.sampled_from([(2, 3), (3, 3)]).flatmap(
        lambda dims: st.tuples(st.just(dims), st.integers(1, dims[0] * dims[1]))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_transpose_has_at_most_the_capped_number_of_negative_eigenvalues(
    dims_rank, seed
):
    # The partial transpose of an m (x) n state has at most (m-1)(n-1) negative
    # eigenvalues (Rana, PRA 87, 054301, 2013). Counted here from a partial
    # transpose made by swapping the two B indices, and compared with the kernel.
    (m, n), rank = dims_rank
    mats = low_rank_states(m * n, rank, 16, np.random.default_rng(seed))
    swapped = mats.reshape(-1, m, n, m, n).transpose(0, 1, 4, 3, 2).reshape(-1, m * n, m * n)
    count = np.sum(np.linalg.eigvalsh(swapped) < -1e-10, axis=1)
    assert count.max() <= (m - 1) * (n - 1)
    assert np.array_equal(measured(mats, m, n).pt_negative_count, count)
