"""The stack kernel against independent formulas and against per-state order.

The CLI measures states in chunks; these tests pin that down as an
optimization only: the kernel agrees with a realignment formula written
here, chunked runs give what a loop of `bounds_check` over `sample_states`
gives, failures surface at the same state, and bad input ends in a named
error with exit code 1.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdneg
from gdneg import bloch, errors, families, io_cli, matrixcore, measures, states
from gdneg.errors import BoundViolation, CapViolation, InvalidDimension, InvalidRange, InvalidState
from gdneg.families import FamilySpec, build
from gdneg.io_cli import main, run_sample, run_verify, sample_states, sweep_rows, write_state
from gdneg.matrixcore import hermiticity_defect, partial_transpose
from gdneg.measures import DensityMatrix, _measure_stack, bounds_check
from gdneg.tolerances import negativity_ceiling

from random_states import gated, random_pure_state

DIMS = [(2, 2), (2, 3), (3, 3), (4, 4)]


def hs_stack(m, n, k, rng):
    d = m * n
    g = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    rhos = g @ np.conj(np.transpose(g, (0, 2, 1)))
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


def pure_stack(m, n, k, rng):
    d = m * n
    v = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


def realignment_discord(rho, m, n):
    # m/(m-1) (||P R||_F^2 - top m-1 squared singular values of P R), with
    # R[(i j),(k l)] = rho[(i k),(j l)] and P removing the vec(I_m) direction.
    r = rho.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    e = np.eye(m).reshape(m * m) / np.sqrt(m)
    pr = r - np.outer(e, e @ r)
    s2 = np.linalg.svd(pr, compute_uv=False) ** 2
    return m / (m - 1) * (np.sum(s2) - np.sum(s2[: m - 1]))


def pt_spectrum(rho, m, n):
    pt = np.zeros_like(rho)
    for i in range(m):
        for j in range(m):
            pt[i * n : (i + 1) * n, j * n : (j + 1) * n] = rho[j * n : (j + 1) * n, i * n : (i + 1) * n]
    return np.linalg.eigvalsh(pt)


@pytest.mark.parametrize("m,n", DIMS)
@pytest.mark.parametrize("draw", [hs_stack, pure_stack])
def test_kernel_matches_independent_formulas(m, n, draw):
    rng = np.random.default_rng(100 * m + n)
    rhos = gated(draw(m, n, 60, rng))
    measured = _measure_stack(rhos, m, n)
    assert measured.ok.all()
    for k, rho in enumerate(rhos):
        w = pt_spectrum(rho, m, n)
        assert abs(measured.negativity[k] - (np.sum(np.abs(w)) - 1) / (m - 1)) <= 1e-12
        assert measured.pt_negative_count[k] == np.sum(w < -1e-10)
        assert abs(measured.discord[k] - realignment_discord(rho, m, n)) <= 1e-12


@pytest.mark.parametrize("m,n", DIMS)
def test_kernel_matches_single_state_functions(m, n):
    rhos = gated(hs_stack(m, n, 40, np.random.default_rng(7)))
    measured = _measure_stack(rhos, m, n)
    for k, mat in enumerate(rhos):
        rho = DensityMatrix(m, n, mat)
        report = measures.bounds_check(rho)
        assert report.negativity == measured.negativity[k]
        assert report.discord == measured.discord[k]
        assert report.pt_negative_count == measured.pt_negative_count[k]


PURE_DIMS = [(2, 2), (2, 3), (2, 5), (2, 10), (3, 3), (3, 4), (4, 4)]


def schmidt_amplitudes(m, n, kind, k, rng):
    """k unit (m, n) amplitude matrices U diag(c) V^dag: random unitaries, c of the given kind."""
    if kind == "random":
        c = np.abs(rng.standard_normal((k, m)))
    elif kind == "product":
        c = np.zeros((k, m))
        c[:, 0] = 1.0
    elif kind == "near-product":
        c = np.full((k, m), 1e-9)
        c[:, 0] = 1.0
    else:  # maximally entangled
        c = np.ones((k, m))
    c /= np.linalg.norm(c, axis=1)[:, None]
    u = np.linalg.qr(rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m)))[0]
    return (u * c[:, None, :]) @ v.conj().transpose(0, 2, 1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    dims=st.sampled_from(PURE_DIMS),
    kind=st.sampled_from(["random", "product", "near-product", "maximal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pure_route_matches_the_kernel_on_projectors(dims, kind, seed):
    m, n = dims
    vs = schmidt_amplitudes(m, n, kind, 6, np.random.default_rng(seed)).reshape(6, m * n)
    got = measures._measure_pure_stack(vs, m, n)
    want = _measure_stack(gated(measures._projectors(vs)), m, n)
    assert got.ok.all() and want.ok.all()
    for field in ("negativity", "discord", "gap"):
        assert np.max(np.abs(getattr(got, field) - getattr(want, field))) <= 1e-12
    assert np.array_equal(got.pt_negative_count, want.pt_negative_count)


def off_by_1e9(monkeypatch):
    # The Schmidt route's N, scaled by 1 + 1e-9: only the cross-check can see it.
    real = measures.pure_negativity
    monkeypatch.setattr(measures, "pure_negativity", lambda c, m: real(c, m) * (1 + 1e-9))


def test_pure_cross_check_fires_on_every_chunk(monkeypatch, capsys):
    off_by_1e9(monkeypatch)
    chunks = -(-500 // io_cli._chunk_size(6))
    assert run_sample(2, 3, 500, 3, "pure").bound_failures == chunks
    assert main(["sample", "--dims", "2x3", "--ensemble", "pure", "--count", "500",
                 "--seed", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "numerical fault: state 0: the Schmidt and projector routes disagree: N ")


def pure_stream(m, n, count, seed):
    """The unit vectors of a seed's pure stream, each drawn alone."""
    rng = np.random.default_rng(seed)
    return np.array([random_pure_state(m, n, rng).amplitudes for _ in range(count)])


# (m, n): at 5x6, c = 9 < d = 30, so a chunk holds c * c vectors, not c * d.
@pytest.mark.parametrize("m,n", DIMS + [(5, 6)])
def test_pure_chunk_cross_checks_every_c_th_state_in_one_call(m, n, monkeypatch):
    stacks = []
    real = measures._measure_stack

    def recording(mats, m, n):
        stacks.append(mats)
        return real(mats, m, n)

    monkeypatch.setattr(measures, "_measure_stack", recording)
    d = m * n
    c = io_cli._chunk_size(d)
    chunk = c * min(d, c)
    assert chunk * d <= io_cli.CHUNK_ENTRIES
    count = 2 * chunk + 5
    run_sample(m, n, count, 4, "pure")
    vs = pure_stream(m, n, count, 4)

    def checked(vs):  # the Hermitian parts of their projectors, as the gate would form
        return matrixcore.hermitian_part(measures._projectors(vs))

    assert len(stacks) == 3  # two vector chunks and a remainder, one kernel call each
    for i, stack in enumerate(stacks):
        assert np.array_equal(stack, checked(vs[i * chunk:(i + 1) * chunk:c]))
        assert stack.size <= io_cli.CHUNK_ENTRIES
    assert np.array_equal(np.concatenate(stacks), checked(vs[::c]))


def test_kernel_fault_on_the_second_cross_checked_state_is_reported_there(monkeypatch, capsys):
    # The kernel's D scaled by 100 on the second projector it is given in a pure
    # run, state c of the stream: `sample` names state c and the kernel's message.
    c = io_cli._chunk_size(6)
    real = bloch.g_stack
    projector = matrixcore.hermitian_part(measures._projectors(pure_stream(2, 3, c + 1, 3)[c:]))
    monkeypatch.setattr(bloch, "g_stack", lambda h, m, n: 100 * real(h, m, n))
    expected = errors.first_fault(_measure_stack(projector, 2, 3).checks)[1]
    assert re.fullmatch(r"discord \S+ outside \[0, 2\.0\]", str(expected))
    seen = 0

    def second_scaled(h, m, n):
        nonlocal seen
        g = real(h, m, n)
        if seen <= 1 < seen + len(g):
            g[1 - seen] *= 100
        seen += len(g)
        return g

    monkeypatch.setattr(bloch, "g_stack", second_scaled)
    assert main(["sample", "--dims", "2x3", "--ensemble", "pure", "--count", "500",
                 "--seed", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"numerical fault: state {c}: {expected}"]


def test_matrixcore_stacks_act_per_matrix():
    rhos = hs_stack(2, 3, 5, np.random.default_rng(3))
    pts = partial_transpose(rhos, 2, 3)
    defects = hermiticity_defect(rhos)
    assert defects.shape == (5,)
    for k, rho in enumerate(rhos):
        assert np.array_equal(pts[k], partial_transpose(rho, 2, 3))
        assert defects[k] == hermiticity_defect(rho)


def per_state_summary(m, n, count, seed, ensemble):
    gaps, failures = [], 0
    for rho in sample_states(m, n, count, seed, ensemble):
        try:
            report = bounds_check(rho)
        except (measures.BoundViolation, CapViolation):
            failures += 1
            continue
        gaps.append(report.negativity_sq - report.discord)
    gaps = np.array(gaps)
    return sum(gaps > io_cli.VIOLATION_EPS), gaps.max(), gaps.min(), failures


@pytest.mark.parametrize(
    "m,n,count,ensemble,cutoff",
    [
        (2, 2, 1000, "hilbert-schmidt", None),
        (2, 3, 600, "pure", None),
        (3, 3, 250, "hilbert-schmidt", None),
        # A positive cutoff makes some states exceed the PT cap mid-chunk.
        (2, 3, 1000, "hilbert-schmidt", 0.05),
    ],
)
def test_run_sample_matches_per_state_loop(m, n, count, ensemble, cutoff, monkeypatch):
    assert count > io_cli._chunk_size(m * n)
    if cutoff is not None:
        monkeypatch.setattr(measures, "NEGATIVE_EIGENVALUE_CUTOFF", cutoff)
    summary = run_sample(m, n, count, 2, ensemble)
    violations, max_gap, min_gap, failures = per_state_summary(m, n, count, 2, ensemble)
    assert summary.violations == violations
    assert summary.bound_failures == failures
    if ensemble == "pure":
        # Two routes: Schmidt data in the run, projectors in the loop.
        assert abs(summary.max_gap - max_gap) <= 1e-12
        assert abs(summary.min_gap - min_gap) <= 1e-12
    else:
        assert summary.max_gap == max_gap
        assert summary.min_gap == min_gap
    assert (failures > 0) == (cutoff is not None)


def test_verify_failure_mid_chunk_matches_per_state_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(measures, "NEGATIVE_EIGENVALUE_CUTOFF", 0.05)
    first_failure = None
    for index, rho in enumerate(sample_states(2, 3, 800, 3, "hilbert-schmidt")):
        try:
            bounds_check(rho)
        except CapViolation as exc:
            first_failure = (index, rho, str(exc))
            break
    index, rho, message = first_failure
    assert index % io_cli._chunk_size(6) not in (0, io_cli._chunk_size(6) - 1)

    report = run_verify(2, 3, 800, 3, oracle_subsample=2)
    assert report["passed"] is False
    assert report["checked"] == index
    assert report["failure"] == message
    written = io_cli.read_state(report["failure_state_file"])
    assert np.array_equal(written.mat, rho.mat)


def test_verify_oracle_failure_at_state_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(io_cli, "VERIFY_ORACLE_ATOL", -1.0)
    report = run_verify(2, 3, 50, 5)
    assert report["passed"] is False
    assert report["checked"] == 0
    assert report["failure"].startswith("oracle deviation ")
    assert report["failure"].endswith(" exceeds -1.0")
    first = next(sample_states(2, 3, 50, 5, "hilbert-schmidt"))
    assert np.array_equal(io_cli.read_state(report["failure_state_file"]).mat, first.mat)


def test_verify_nan_oracle_deviation_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = measures.gd_bruteforce_stack

    def nan_at_3(mats, n):
        out = real(mats, n)
        out[3:4] = np.nan
        return out

    monkeypatch.setattr(measures, "gd_bruteforce_stack", nan_at_3)
    report = run_verify(2, 3, 50, 5, oracle_subsample=10)
    assert report["passed"] is False
    assert report["checked"] == 3
    assert report["failure"] == f"oracle deviation nan exceeds {io_cli.VERIFY_ORACLE_ATOL}"


def break_projection_of(monkeypatch, target):
    # Halve Pi(rho) for the state `target` alone, however the states are stacked.
    real = measures.project_a

    def broken(mat, n, u):
        out = real(mat, n, u)
        out[np.all(mat == target, axis=(-2, -1))] /= 2
        return out

    monkeypatch.setattr(measures, "project_a", broken)


def test_verify_identity_failure_mid_chunk_matches_per_state_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    size = io_cli._chunk_size(6)
    index = size + size // 2
    rhos = list(sample_states(2, 3, 2 * size, 11, "hilbert-schmidt"))
    rho = rhos[index]
    break_projection_of(monkeypatch, rho.mat)
    # The per-state order: one direction drawn for each state before it and for it,
    # each state checked on a stack of one.
    rng = np.random.default_rng(11)
    faults = [errors.first_fault(measures._identity_checks(state.mat[None], 3,
                                                           rng.standard_normal((1, 3)))[0])
              for state in rhos[:index + 1]]
    assert faults[:index] == [None] * index
    error = faults[index][1]
    assert str(error).startswith("measurement identity failed")

    report = run_verify(2, 3, 2 * size, 11)
    assert report["passed"] is False
    assert report["checked"] == index
    assert report["failure"] == str(error)
    written = io_cli.read_state(report["failure_state_file"])
    assert np.array_equal(written.mat, rho.mat)


def test_verify_identity_failure_comes_before_oracle_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(io_cli, "VERIFY_ORACLE_ATOL", -1.0)
    break_projection_of(monkeypatch, next(sample_states(2, 3, 10, 12, "hilbert-schmidt")).mat)
    report = run_verify(2, 3, 10, 12)
    assert report["checked"] == 0
    assert report["failure"].startswith("measurement identity failed")


def narrowed(interval, window):
    # The kernel's `_outside` with one of its intervals narrowed to `window`,
    # so that some states leave it; the real `_outside` still decides.
    real = measures._outside

    def outside(values, lo, hi):
        return real(values, *window) if (lo, hi) == interval else real(values, lo, hi)

    return outside


# One entry per kernel check, in the kernel's order: the name patched in
# gdneg.measures, its value, and the error each failing state must raise.
# N's interval, and N^2 - D's above, end at the 2x3 ceiling the gate admits.
CEILING = negativity_ceiling(2, 3)
FORCED_CHECKS = {
    "dual-negativity": ("DUAL_NEGATIVITY_ATOL", -1.0, BoundViolation,
                        r"the two negativity expressions disagree: \S+ vs \S+"),
    "discord-floor": ("DISCORD_CLAMP_FLOOR", 0.05, BoundViolation,
                      r"discord lower bound came out negative: \S+"),
    "pt-cap": ("NEGATIVE_EIGENVALUE_CUTOFF", 0.08, CapViolation,
               r"\d+ negative partial-transpose eigenvalues exceed the cap 2 for a 2x3 state"),
    "n-interval": ("_outside", narrowed((0.0, CEILING), (0.0, 0.3)), BoundViolation,
                   r"negativity \S+ outside \[0, 1\]"),
    "d-interval": ("_outside", narrowed((0.0, 2.0), (0.0, 0.18)), BoundViolation,
                   r"discord \S+ outside \[0, 2\.0\]"),
    "gap-interval": ("_outside", narrowed((-2.0, CEILING**2), (-0.12, 1.0)), BoundViolation,
                     r"N\^2 - D = \S+ outside \[-2\.0, 1\] for a 2x3 state"),
}


@pytest.mark.parametrize("check", FORCED_CHECKS)
def test_each_kernel_check_fires_on_every_path(check, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name, value, error, message = FORCED_CHECKS[check]
    monkeypatch.setattr(measures, name, value)
    count, seed = 300, 4
    failures = []
    for index, rho in enumerate(sample_states(2, 3, count, seed, "hilbert-schmidt")):
        try:
            bounds_check(rho)
        except (BoundViolation, CapViolation) as exc:
            failures.append((index, rho, exc))
    assert failures
    assert all(type(exc) is error and re.fullmatch(message, str(exc)) for _, _, exc in failures)
    index, _, first = failures[0]
    assert run_sample(2, 3, count, seed, "hilbert-schmidt").bound_failures == len(failures)
    assert main(["sample", "--dims", "2x3", "--count", str(count), "--seed", str(seed)]) == 2
    report = run_verify(2, 3, count, seed, oracle_subsample=2)
    assert report["passed"] is False
    assert report["checked"] == index
    assert report["failure"] == str(first)


# The CLI's chunks, and chunks of 8 states, which put the first fault (state
# 21) in the third chunk.
@pytest.mark.parametrize("json_flag,chunk_entries", [([], io_cli.CHUNK_ENTRIES),
                                                     (["--json"], 8 * 36)])
def test_sample_names_its_first_fault_on_stderr(json_flag, chunk_entries, monkeypatch, capsys):
    monkeypatch.setattr(io_cli, "CHUNK_ENTRIES", chunk_entries)
    argv = ["sample", "--dims", "2x3", "--count", "300", "--seed", "3", *json_flag]
    assert main(argv) == 0
    passing = capsys.readouterr()
    assert passing.err == ""

    monkeypatch.setattr(measures, "DISCORD_CLAMP_FLOOR", 0.05)
    errors = [check_error(rho) for rho in sample_states(2, 3, 300, 3, "hilbert-schmidt")]
    index, first = next((i, exc) for i, exc in enumerate(errors) if exc is not None)
    assert main(argv) == 2
    failing = capsys.readouterr()
    assert failing.err.splitlines() == [f"numerical fault: state {index}: {first}"]
    assert re.fullmatch(r"discord lower bound came out negative: \S+", str(first))
    if json_flag:
        summary = json.loads(failing.out)
        assert set(summary) == set(json.loads(passing.out))
        assert summary["bound_failures"] > 0


def check_error(rho):
    try:
        bounds_check(rho)
    except (BoundViolation, CapViolation) as exc:
        return exc
    return None


def mixed_stack():
    # Seven 2x2 states: not positive at index 2, a trace of 2 at index 5.
    mats = hs_stack(2, 2, 7, np.random.default_rng(20))
    mats[2] = np.diag([1.2, -0.2, 0.0, 0.0])
    mats[5] *= 2.0
    return mats


def test_first_invalid_state_is_the_earliest_state_not_the_cheapest_check():
    index, error = states._gate(mixed_stack())[0]
    assert index == 2
    assert type(error) is InvalidState
    assert str(error) == "positivity invariant violated: min eigenvalue -0.2"


def test_hermiticity_is_reported_before_trace():
    mat = np.eye(4, dtype=complex) / 2  # trace 2
    mat[0, 1] = 0.125  # not mirrored below the diagonal
    index, error = states._gate(np.array([np.eye(4) / 4, mat]))[0]
    assert index == 1
    assert str(error) == "hermiticity invariant violated: residual 0.125"
    with pytest.raises(InvalidState, match="^hermiticity invariant violated"):
        DensityMatrix(2, 2, mat)


def test_draw_stacks_yields_the_states_before_the_first_invalid_one(monkeypatch):
    monkeypatch.setattr(io_cli, "_hs_stack", lambda d, k, rng: mixed_stack())
    stacks = io_cli._draw_stacks(4, 7, np.random.default_rng(0), "hilbert-schmidt")
    assert np.array_equal(next(stacks), matrixcore.hermitian_part(mixed_stack()[:2]))
    with pytest.raises(InvalidState, match="^positivity invariant violated"):
        next(stacks)


@pytest.mark.parametrize("m,n", DIMS)
def test_pure_chunk_rows_equal_lone_draws(m, n):
    size = io_cli._chunk_size(m * n)
    chunk = io_cli._unit_vectors(m * n, size, np.random.default_rng(30))
    rng = np.random.default_rng(30)
    lone = [random_pure_state(m, n, rng).amplitudes for _ in range(size)]
    assert np.array_equal(chunk, np.array(lone))


@pytest.mark.parametrize("m,n", [(1, 3), (3, 1)])
def test_measures_reject_a_one_dimensional_side(m, n, tmp_path, capsys):
    rho = DensityMatrix(m, n, np.eye(3) / 3)
    expected = f"measures require m >= 2 and n >= 2, got a {m}x{n} state"
    with pytest.raises(InvalidDimension) as raised:
        bounds_check(rho)
    assert str(raised.value) == expected
    path = tmp_path / "thin.json"
    write_matrix(path, rho.mat, m, n)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {expected}"]


def test_passing_verify_builds_no_density_matrix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("a passing state was built as a DensityMatrix")

    monkeypatch.setattr(states, "DensityMatrix", forbidden)
    report = run_verify(2, 3, 300, 13)
    assert report["passed"] is True
    assert report["oracle_states_checked"] == io_cli.VERIFY_ORACLE_SUBSAMPLE
    # The patch is the DensityMatrix run_verify builds: a failing state meets it.
    monkeypatch.setattr(io_cli, "VERIFY_ORACLE_ATOL", -1.0)
    with pytest.raises(AssertionError, match="built as a DensityMatrix"):
        run_verify(2, 3, 300, 13)


def test_sweep_builds_no_density_matrix_and_gates_each_chunk_once(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep member was built as a DensityMatrix")

    gated = []

    def counting(mats):
        gated.append(len(mats))
        return states._gate(mats)

    for module in (states, families):
        monkeypatch.setattr(module, "DensityMatrix", forbidden)
    monkeypatch.setattr(families, "_gate", counting)
    assert len(list(sweep_rows("rho1", 0, 6, 500))) == 501  # the header and 500 rows
    assert gated == [227, 227, 46]
    # Both patches are the DensityMatrix the CLI and the families build.
    with pytest.raises(AssertionError, match="built as a DensityMatrix"):
        next(sample_states(2, 3, 1, 0, "hilbert-schmidt"))
    with pytest.raises(AssertionError, match="built as a DensityMatrix"):
        families.build(families.FamilySpec("rho1", (5, 2)))


def test_gate_walks_its_checks_once_per_chunk(monkeypatch):
    # The cheap checks are walked once per chunk; the positivity check is built
    # and walked only when the Cholesky screen fails, and then once.
    walks = []

    def counting(checks):
        walks.append(checks)
        return errors.first_fault(checks)

    monkeypatch.setattr(states, "first_fault", counting)
    run_sample(2, 3, 1000, 4, "hilbert-schmidt")
    assert [len(checks) for checks in walks] == [3] * 5  # chunks of 227, 227, 227, 227, 92
    walks.clear()
    mats = mixed_stack()
    index, error = states._gate(mats)[0]
    assert (index, str(error)) == (2, "positivity invariant violated: min eigenvalue -0.2")
    assert [len(checks) for checks in walks] == [3, 1]
    walked = [check for checks in walks for check in checks]
    assert len({id(check) for check in walked}) == len(walked)


# Each path and the number of states of each Hermitian part it forms: one per
# chunk of states, the gate's, and one per pure chunk, the cross-check's
# projectors of every c-th state; `analyze` forms one, in its DensityMatrix.
HERMITIAN_PART_PATHS = {
    "sweep-rho1": (lambda: list(sweep_rows("rho1", 0, 6, 500)), [227, 227, 46]),
    "analyze": (lambda: main(["analyze", "rho1.json", "--json"]), [1]),
    "sample-hs-2x3": (lambda: run_sample(2, 3, 300, 1, "hilbert-schmidt"), [227, 73]),
    "verify-2x3": (lambda: run_verify(2, 3, 30, 1, oracle_subsample=2), [30]),
    "sample-pure-2x3": (lambda: run_sample(2, 3, 300, 1, "pure"), [2]),  # states 0 and 227
}


@pytest.mark.parametrize("path", HERMITIAN_PART_PATHS)
def test_each_path_forms_one_hermitian_part_per_chunk(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_state("rho1.json", build(FamilySpec("rho1", (5, 2))))
    run, sizes = HERMITIAN_PART_PATHS[path]
    formed = []
    real = matrixcore.hermitian_part

    def counting(a):
        formed.append(len(a))
        return real(a)

    for module in (matrixcore, states, measures):
        monkeypatch.setattr(module, "hermitian_part", counting)
    run()
    assert formed == sizes


# Each path, the number of states it validates and measures, and how many
# hermiticity defects each state's validation computes: one for a state
# validated as a matrix, none for a pure draw, validated as a unit vector.
DEFECT_PATHS = {
    "sample-hs-2x3": (lambda: run_sample(2, 3, 300, 1, "hilbert-schmidt"), 300, 1),
    "sample-hs-4x4": (lambda: run_sample(4, 4, 40, 1, "hilbert-schmidt"), 40, 1),
    "verify-2x3": (lambda: run_verify(2, 3, 30, 1, oracle_subsample=2), 30, 1),
    "sweep-rho1": (lambda: list(sweep_rows("rho1", 0, 6, 121)), 121, 1),
    "analyze": (lambda: main(["analyze", "rho1.json"]), 1, 1),
    "sample-pure-3x3": (lambda: run_sample(3, 3, 100, 1, "pure"), 100, 0),
}


@pytest.mark.parametrize("path", DEFECT_PATHS)
def test_hermiticity_defect_is_computed_by_the_gate_alone(path, tmp_path, monkeypatch):
    # Neither the positivity check of the gate nor the kernel's partial-
    # transpose spectrum checks hermiticity again.
    monkeypatch.chdir(tmp_path)
    write_state("rho1.json", build(FamilySpec("rho1", (5, 2))))
    run, count, per_state = DEFECT_PATHS[path]
    matrices = []

    def counting(a):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return hermiticity_defect(a)

    for module in (matrixcore, states):
        monkeypatch.setattr(module, "hermiticity_defect", counting)
    run()
    assert sum(matrices) == per_state * count


def test_invalid_state_ends_stream_after_the_states_before_it(monkeypatch):
    real = io_cli._hs_stack

    def with_nan_at_5(d, k, rng):
        mats = real(d, k, rng)
        mats[5, 0, 1] = np.nan
        return mats

    monkeypatch.setattr(io_cli, "_hs_stack", with_nan_at_5)
    seen = []
    with pytest.raises(InvalidState, match="finite"):
        for rho in sample_states(2, 2, 20, 1, "hilbert-schmidt"):
            seen.append(rho)
    assert len(seen) == 5


def test_pure_nan_ends_stream_at_its_index_with_the_norm_message(monkeypatch):
    real = io_cli._unit_vectors

    def with_nan_at_5(d, k, rng):
        vs = real(d, k, rng)
        vs[5, 1] = np.nan
        return vs

    monkeypatch.setattr(io_cli, "_unit_vectors", with_nan_at_5)
    seen = []
    with pytest.raises(InvalidState, match="norm invariant violated: residual nan"):
        for rho in sample_states(2, 2, 20, 1, "pure"):
            seen.append(rho)
    assert len(seen) == 5


@pytest.mark.parametrize("m,n", DIMS)
def test_generated_pure_stacks_are_density_matrices(m, n):
    # Pure draws are validated as vectors alone; their projectors must pass
    # the full density-matrix check all the same. A pure chunk holds c min(d, c)
    # vectors: 2048 at 2x2, 1362 at 2x3, 909 at 3x3 and 512 at 4x4.
    c = io_cli._chunk_size(m * n)
    size = c * min(m * n, c)
    assert size == {4: 2048, 6: 1362, 9: 909, 16: 512}[m * n]
    for seed in (0, 1, 2):
        stacks = list(io_cli._state_chunks(m, n, 3 * size, seed, "pure"))
        assert [len(vs) for vs in stacks] == [size] * 3
        for vs in stacks:
            assert states._gate(measures._projectors(vs))[0] is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    mat = np.eye(6, dtype=complex) / 6
    mat[2, 2] = bad
    with pytest.raises(InvalidState, match="finite"):
        DensityMatrix(2, 3, mat)


def write_matrix(path, mat, m, n):
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(mat).ravel()]
    path.write_text(json.dumps({"format": "gdneg-state/1", "m": m, "n": n, "entries": entries}))


@pytest.mark.parametrize("m,n", DIMS)
def test_state_accepted_near_the_hermiticity_tolerance_is_measured(m, n, tmp_path, capsys):
    # An anti-Hermitian part i 4.5e-11 on every off-diagonal entry: defect 9e-11,
    # inside HERMITIAN_ATOL, so the state is accepted and must then be measured
    # as its Hermitian part, never rejected by a later check.
    d = m * n
    mat = hs_stack(m, n, 1, np.random.default_rng(10 * m + n))[0]
    mat = mat + 4.5e-11j * (np.ones((d, d)) - np.eye(d))
    assert 8e-11 < hermiticity_defect(mat) < 1e-10
    rho = DensityMatrix(m, n, mat)
    hermitian_part = DensityMatrix(m, n, (mat + mat.conj().T) / 2)
    report, expected = bounds_check(rho), bounds_check(hermitian_part)
    fields = ("negativity", "discord", "gap")
    for field in fields:
        assert abs(getattr(report, field) - getattr(expected, field)) <= 1e-12
    got, want = bloch.decompose(rho), bloch.decompose(hermitian_part)
    assert np.allclose(got.T, want.T, rtol=0.0, atol=1e-12)
    path = tmp_path / "near.json"
    write_matrix(path, mat, m, n)
    assert main(["analyze", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    for field in fields:
        assert abs(out[field] - getattr(expected, field)) <= 1e-12


@pytest.mark.parametrize("where,bad", [((0, 1), np.nan), ((0, 0), np.nan), ((0, 0), np.inf)])
def test_analyze_non_finite_state_file_is_a_validation_error(where, bad, tmp_path, capsys):
    mat = np.diag([0.5, 0, 0, 0, 0, 0.5]).astype(complex)
    i, j = where
    mat[i, j] = mat[j, i] = bad
    path = tmp_path / "nan.json"
    write_matrix(path, mat, 2, 3)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--dims", "2x3", "--count", "-5", "--seed", "1"],
        ["sample", "--dims", "2x3", "--count", "10", "--seed", "-1"],
        ["verify", "--dims", "2x3", "--count", "-5", "--seed", "1"],
        ["verify", "--dims", "2x3", "--count", "10", "--seed", "-1"],
    ],
)
def test_negative_count_or_seed_is_rejected(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_library_callers_get_the_range_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InvalidRange, match="count"):
        run_sample(2, 3, -5, 1, "hilbert-schmidt")
    with pytest.raises(InvalidRange, match="seed"):
        run_sample(2, 3, 5, -1, "pure")
    with pytest.raises(InvalidRange, match="count"):
        run_verify(2, 3, -5, 1)
    with pytest.raises(InvalidRange, match="seed"):
        run_verify(2, 3, 5, -1)


def test_import_does_not_load_scipy_optimize(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gdneg.__file__)))
    code = "import sys, gdneg; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
    # Nor does a verify run, oracle included.
    code = ("import sys\n"
            "from gdneg.io_cli import main\n"
            "code = main(['verify', '--dims', '2x3', '--count', '20', '--seed', '7'])\n"
            "print(code, 'scipy' not in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60, cwd=tmp_path)
    assert out.stdout.strip().splitlines()[-1] == "0 True"


# Run in one fresh process after `import gdneg.io_cli`; none of these draws a state.
NO_DRAW_COMMANDS = [
    ["analyze", "rho1.json", "--json"],
    *(["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", "5", "--out", "x.csv"]
      for family, lo, hi in [("rho1", "0", "6"), ("rho2", "0.01", "1"), ("rho3", "1.75", "4.75"),
                             ("rho4", "3.5", "8.5")]),
    ["sample", "--dims", "2x3", "--count", "-5", "--seed", "1"],
    ["sample", "--dims", "2x3", "--count", "10", "--seed", "-1"],
]
NO_DRAW_CODES = [0, 0, 0, 0, 0, 1, 1]


def run_fresh(commands, cwd, probe="'numpy.random' in sys.modules"):
    """Exit code of each command run by `main` in one fresh process, and the value
    of the expression `probe` after it, by default whether `numpy.random` was
    loaded; None when `import numpy` loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gdneg.__file__)))
    code = ("import json, sys\n"
            "import numpy\n"
            "if 'numpy.random' in sys.modules:\n"
            "    print('null'); sys.exit()\n"
            "from gdneg.io_cli import main\n"
            f"print(json.dumps([(main(argv), {probe})\n"
            "                  for argv in json.loads(sys.argv[1])]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True, timeout=60)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    return None if loaded is None else [tuple(entry) for entry in loaded]


def test_commands_that_draw_no_state_do_not_load_numpy_random(tmp_path):
    write_state(tmp_path / "rho1.json", build(FamilySpec("rho1", (5, 2))))
    loaded = run_fresh(NO_DRAW_COMMANDS, tmp_path)
    if loaded is None:
        pytest.skip("this numpy imports numpy.random with numpy")
    assert loaded == [(code, False) for code in NO_DRAW_CODES]
    # The first draw loads it.
    sample = ["sample", "--dims", "2x3", "--count", "5", "--seed", "1"]
    verify = ["verify", "--dims", "2x3", "--count", "5", "--seed", "1"]
    assert run_fresh([sample], tmp_path) == [(0, True)]
    assert run_fresh([verify], tmp_path) == [(0, True)]


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_a_cold_draw_loads_the_measures_before_numpy_random(command, tmp_path):
    # Compiling the measures layer on top of the heap that numpy.random leaves
    # raised the peak RSS of a cold sample or verify by about 0.7 MB.
    argv = [command, "--dims", "2x3", "--count", "5", "--seed", "1"]
    order = run_fresh([argv], tmp_path, probe="list(sys.modules).index('gdneg.measures') "
                                              "< list(sys.modules).index('numpy.random')")
    if order is None:
        pytest.skip("this numpy imports numpy.random with numpy")
    assert order == [(0, True)]
