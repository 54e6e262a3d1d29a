import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import families, measures
from gdneg.errors import BoundViolation, InvalidRange, NotAState, UnknownFamily
from gdneg.families import (
    FamilySpec,
    build,
    in_range,
    member_stack,
    rho1_closed_forms,
    template_closed_forms,
    violates,
)
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


@pytest.mark.parametrize("a,b", [(0.0, 1e-200), (1e-170, 1e-170), (1e200, 1.0), (-1e300, 1e-300)])
def test_rho1_is_a_state_whatever_the_scale_of_a_and_b(a, b):
    # a^2 + b^2 underflows or overflows here, but rho1 depends on a/b alone.
    rho = build(FamilySpec("rho1", (a, b)))
    assert np.all(np.isfinite(rho.mat))
    assert bounds_check(rho).bounds_ok


def test_rho1_at_a_tiny_scale_is_rho1_at_one():
    tiny = build(FamilySpec("rho1", (1e-170, 1e-170)))
    assert np.array_equal(tiny.mat, build(FamilySpec("rho1", (1.0, 1.0))).mat)
    report = bounds_check(tiny)
    assert report.discord == 0.375
    assert abs(report.gap - (9 - 4 * np.sqrt(5.0)) / 8) <= 1e-15


@pytest.mark.parametrize("a,b", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
                                 (0.0, 0.0)])
def test_rho1_non_finite_or_zero_parameters_are_not_a_state(a, b):
    with pytest.raises(NotAState) as info:
        build(FamilySpec("rho1", (a, b)), allow_out_of_range=True)
    assert str(info.value) == (
        f"rho1({float(a)}, {float(b)}): finiteness invariant violated: non-finite entries"
    )


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

    def test_no_square_overflows(self):
        # N^2 -> 4/c^2 and D -> 2/c^2 as c grows; c^2 itself overflows at c = 1e155.
        assert rho1_closed_forms(1e200, 1.0) == (0.0, 0.0)
        neg_sq, disc = rho1_closed_forms(1e153, 1.0)
        assert abs(neg_sq / 4e-306 - 1) <= 1e-12 and abs(disc / 2e-306 - 1) <= 1e-12
        neg_sq, disc = rho1_closed_forms(1e-150, 1e-300)
        assert abs(neg_sq / 4e-300 - 1) <= 1e-12 and abs(disc / 2e-300 - 1) <= 1e-12

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (3.0, 1.0), (-0.7, 0.4), (0.0, 2.0)])
    def test_depends_on_a_over_b_alone(self, a, b):
        for scale in (2.0**-600, 2.0**600):
            assert rho1_closed_forms(a * scale, b * scale) == rho1_closed_forms(a, b)

    def test_requires_positive_b(self):
        with pytest.raises(InvalidRange):
            rho1_closed_forms(1.0, 0.0)

    @pytest.mark.parametrize("c, expected", [(1e-4, 4e-16 - 16e-24), (1e-8, 4e-32)])
    def test_small_c_keeps_its_relative_precision(self, c, expected):
        # N^2 = 4c^4 - 16c^6 + O(c^8); sqrt(4c^2 + 1) - 1 would cancel its digits away.
        neg_sq, _ = rho1_closed_forms(c, 1.0)
        assert abs(neg_sq / expected - 1) <= 1e-12

    def test_rho2_at_zero_is_zero_not_nan(self):
        # rho2(0) has q = r = 0: a product state, whose N and D vanish.
        assert template_closed_forms(1.0, 0.0, 0.0) == (0.0, 0.0)
        assert violates(FamilySpec("rho2", (0.0,)), allow_out_of_range=True) == (False, 0.0)


# Template entries (p, q, r) with r^2 <= pq: every such member is a state.
TEMPLATE = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(-1.0, 1.0)).filter(
    lambda e: e[0] + e[1] > 0.0
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(entries=st.lists(TEMPLATE, min_size=1, max_size=16))
def test_template_closed_forms_match_the_kernel(entries):
    p, q, t = np.array(entries).T
    r = t * np.sqrt(p * q)
    mats = np.zeros((len(p), 6, 6), dtype=complex)
    for (i, j), v in {(0, 0): p, (5, 5): p, (1, 1): q, (4, 4): q,
                      (0, 4): r, (4, 0): r, (1, 5): r, (5, 1): r}.items():
        mats[:, i, j] = v / (2.0 * (p + q))
    measured = measures._measure_stack(mats, 2, 3)
    neg_sq, disc = template_closed_forms(p, q, r)
    assert np.max(np.abs(measured.negativity**2 - neg_sq)) <= 1e-12
    assert np.max(np.abs(measured.discord - disc)) <= 1e-12


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

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("spec, member", [
        (FamilySpec("rho1", (5, 2)), "rho1(5.0, 2.0)"), (FamilySpec("rho2", (0.5,)), "rho2(0.5,)"),
        (FamilySpec("rho3", (3.0,)), "rho3(3.0,)"), (FamilySpec("rho4", (6.0,)), "rho4(6.0,)"),
    ])
    def test_gap_off_its_closed_forms_is_a_fault(self, monkeypatch, spec, member, which):
        # Closed forms off by 1e-6 in N^2 or in D: the measured gap no longer matches them.
        exact = families.template_closed_forms
        off = lambda p, q, r: tuple(v + 1e-6 * (i == which) for i, v in enumerate(exact(p, q, r)))
        violates(spec)
        monkeypatch.setattr(families, "template_closed_forms", off)
        with pytest.raises(BoundViolation, match=rf"^{re.escape(member)}: measured N\^2 - D = "):
            violates(spec)

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


# Parameter ranges inside each documented window, where every member is a state.
IN_WINDOW = {
    "rho1": (st.floats(-5.0, 5.0), st.floats(0.1, 5.0)),
    "rho2": (st.floats(0.0, 1.0, exclude_min=True),),
    "rho3": (st.floats(1.75, 4.75),),
    "rho4": (st.floats(3.5, 8.5),),
}


@st.composite
def member_params(draw):
    name = draw(st.sampled_from(sorted(IN_WINDOW)))
    rows = st.tuples(*IN_WINDOW[name])
    return name, np.array(draw(st.lists(rows, min_size=1, max_size=8)))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(member=member_params())
def test_member_stack_rows_are_the_members_built_alone(member):
    name, params = member
    mats = member_stack(name, params)
    assert mats.shape == (len(params), 6, 6)
    for i, row in enumerate(params):
        alone = build(FamilySpec(name, tuple(row)), allow_out_of_range=True).mat
        assert np.array_equal(mats[i], alone)
