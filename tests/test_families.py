import numpy as np
import pytest

from gdneg.errors import InvalidRange, NotAState, UnknownFamily
from gdneg.families import FamilySpec, build, in_range, rho1_closed_forms, violates
from gdneg.matrixcore import hermitian_eigenvalues
from gdneg.measures import bounds_check, negativity, pt_negative_count

# The squared-negativity/discord gap of rho1(c, 1) vanishes exactly at
# c^2 = 5 - sqrt(17) and at c^2 = 2, and is positive between and beyond:
# the analytic criterion a^2 > 2 b^2 is sufficient but not necessary.
GAP_ZEROS_C2 = (5 - np.sqrt(17.0), 2.0)


def test_rho1_52_is_the_printed_matrix():
    mat = build(FamilySpec("rho1", (5, 2))).mat
    expected = np.zeros((6, 6))
    for i, v in enumerate((25, 4, 0, 0, 4, 25)):
        expected[i, i] = v
    for i, j in ((0, 4), (4, 0), (1, 5), (5, 1)):
        expected[i, j] = 10
    assert np.array_equal(mat, expected.astype(complex) / 58)


def test_rho1_spectrum():
    for a, b in [(5, 2), (1, 1), (0.3, 1.7)]:
        w = hermitian_eigenvalues(build(FamilySpec("rho1", (a, b))).mat)
        assert np.allclose(w, [0.5, 0.5, 0, 0, 0, 0], atol=1e-12)


def test_rho2_degenerate_endpoint_needs_flag():
    spec = FamilySpec("rho2", (0.0,))
    with pytest.raises(InvalidRange):
        build(spec)
    mat = build(spec, allow_out_of_range=True).mat
    assert np.array_equal(mat, np.diag([1, 0, 0, 0, 0, 1]).astype(complex) / 2)


def test_rho3_at_two():
    mat = build(FamilySpec("rho3", (2.0,))).mat
    expected = np.zeros((6, 6))
    for i, v in enumerate((7, 2, 0, 0, 2, 7)):
        expected[i, i] = v
    for i, j in ((0, 4), (4, 0), (1, 5), (5, 1)):
        expected[i, j] = 3
    assert np.array_equal(mat, expected.astype(complex) / 18)


def test_out_of_range_but_positive_builds_with_flag():
    # rho3 stays a state well outside its documented window
    spec = FamilySpec("rho3", (1.0,))
    with pytest.raises(InvalidRange):
        build(spec)
    build(spec, allow_out_of_range=True)


def test_not_a_state_reports_offending_eigenvalue():
    spec = FamilySpec("rho2", (1.2,))
    with pytest.raises(NotAState, match="eigenvalue"):
        build(spec, allow_out_of_range=True)


def test_non_finite_member_is_not_a_state():
    # rho1(0, 0) normalises by zero: every entry is NaN.
    with np.errstate(invalid="ignore"), pytest.raises(NotAState, match="non-finite"):
        build(FamilySpec("rho1", (0.0, 0.0)), allow_out_of_range=True)


def test_unknown_family_and_bad_arity():
    with pytest.raises(UnknownFamily):
        FamilySpec("rho9", (1.0,))
    with pytest.raises(InvalidRange):
        FamilySpec("rho2", (1.0, 2.0))
    with pytest.raises(InvalidRange):
        FamilySpec("rho1", (1.0,))


def test_in_range_windows():
    assert in_range(FamilySpec("rho1", (-3.0, 0.5)))
    assert not in_range(FamilySpec("rho1", (1.0, 0.0)))
    assert in_range(FamilySpec("rho2", (1.0,)))
    assert not in_range(FamilySpec("rho2", (0.0,)))
    assert in_range(FamilySpec("rho3", (1.75,)))
    assert not in_range(FamilySpec("rho3", (4.76,)))
    assert in_range(FamilySpec("rho4", (8.5,)))
    assert not in_range(FamilySpec("rho4", (3.4,)))


class TestClosedForms:
    def test_rho1_52(self):
        neg_sq, disc = rho1_closed_forms(5, 2)
        assert abs(neg_sq - (432 - 32 * np.sqrt(26.0)) / 841) <= 1e-15
        assert abs(disc - 200 / 841) <= 1e-15
        assert abs((neg_sq - disc) - (232 - 32 * np.sqrt(26.0)) / 841) <= 1e-15

    def test_diagonal_case(self):
        assert rho1_closed_forms(0, 1) == (0.0, 0.0)

    def test_branches_agree_at_boundary(self):
        b = 1.3
        a = np.sqrt(2.0) * b
        _, disc = rho1_closed_forms(a, b)
        c2 = 2.0
        low_branch = (c2 * c2 + 2 * c2) / (2 * (c2 + 1) ** 2)
        assert abs(disc - 4 / 9) <= 1e-12
        assert abs(low_branch - 4 / 9) <= 1e-15

    def test_requires_positive_b(self):
        with pytest.raises(InvalidRange):
            rho1_closed_forms(1.0, 0.0)


def test_rho1_numeric_matches_closed_forms_on_grid():
    for a in np.linspace(0.0, 5.0, 11):
        for b in np.linspace(0.4, 3.2, 8):
            rho = build(FamilySpec("rho1", (a, b)))
            neg_sq, disc = rho1_closed_forms(a, b)
            report = bounds_check(rho)
            assert abs(report.negativity_sq - neg_sq) <= 1e-10
            assert abs(report.discord - disc) <= 1e-10
            if a != 0:
                assert pt_negative_count(rho) == 2


class TestViolationRegion:
    def test_rho1_52(self):
        flag, margin = violates(FamilySpec("rho1", (5, 2)))
        assert flag
        assert abs(margin - (232 - 32 * np.sqrt(26.0)) / 841) <= 1e-10

    @pytest.mark.parametrize(
        "c,expected",
        [
            (0.1, False),
            (0.5, False),
            (0.8, False),
            (0.93, False),  # c^2 just below 5 - sqrt(17)
            (0.95, True),   # c^2 just above 5 - sqrt(17)
            (1.0, True),
            (1.2, True),
            (1.41, True),   # still below sqrt(2); gap positive on this side too
            (1.415, True),
            (2.0, True),
            (5.0, True),
        ],
    )
    def test_rho1_region(self, c, expected):
        flag, margin = violates(FamilySpec("rho1", (c, 1.0)))
        assert flag == expected, f"c={c}: margin={margin}"

    def test_gap_vanishes_at_both_zeros(self):
        for c2 in GAP_ZEROS_C2:
            _, margin = violates(FamilySpec("rho1", (np.sqrt(c2), 1.0)))
            assert abs(margin) <= 1e-12

    def test_no_violation_at_gap_zeros(self):
        # Float noise of order 1e-16 at a zero of the gap is not a violation.
        for c2 in GAP_ZEROS_C2:
            flag, margin = violates(FamilySpec("rho1", (np.sqrt(c2), 1.0)))
            assert not flag and abs(margin) <= 1e-12, f"c^2={c2}: margin={margin}"

    def test_margin_matches_closed_forms(self):
        for c in [0.3, 0.95, 1.2, 1.7, 3.0]:
            neg_sq, disc = rho1_closed_forms(c, 1.0)
            _, margin = violates(FamilySpec("rho1", (c, 1.0)))
            assert abs(margin - (neg_sq - disc)) <= 1e-10

    def test_rho2_violates_everywhere_in_window(self):
        for a in np.linspace(0.01, 1.0, 100):
            flag, margin = violates(FamilySpec("rho2", (a,)))
            assert flag, f"a={a}: margin={margin}"

    def test_rho3_violates_everywhere_in_window(self):
        for a in np.linspace(1.75, 4.75, 100):
            flag, margin = violates(FamilySpec("rho3", (a,)))
            assert flag, f"a={a}: margin={margin}"

    def test_rho4_violates_everywhere_in_window(self):
        for a in np.linspace(3.5, 8.5, 100):
            flag, margin = violates(FamilySpec("rho4", (a,)))
            assert flag, f"a={a}: margin={margin}"

    def test_rho2_example_point(self):
        flag, margin = violates(FamilySpec("rho2", (0.5,)))
        assert flag and margin > 0


def test_all_family_members_pass_bounds_check():
    specs = (
        [FamilySpec("rho1", (a, 1.0)) for a in np.linspace(0, 4, 15)]
        + [FamilySpec("rho2", (a,)) for a in np.linspace(0.05, 1.0, 10)]
        + [FamilySpec("rho3", (a,)) for a in np.linspace(1.75, 4.75, 10)]
        + [FamilySpec("rho4", (a,)) for a in np.linspace(3.5, 8.5, 10)]
    )
    for spec in specs:
        report = bounds_check(build(spec))
        assert report.bounds_ok
        assert abs(report.negativity - negativity(build(spec))) <= 1e-15
