"""The batched brute-force oracle against the formula it checks.

`gd_bruteforce_stack` minimises 2 ||rho - Pi_u(rho)||^2 over qubit
measurements for a whole stack: a sphere grid, then a compass search per
state. Each value is Tr rho^2 - u^T M u, with M_ab = Re Tr(rho S_a rho S_b)
and S_a = sigma_a (x) I_n, a 3 x 3 form built from rho's entries by explicit
Pauli products; the formula reaches the same optimum through the Bloch
vector, the correlation tensor and an eigenvalue, so the two share no code.
These tests pin the oracle to the single-state oracle, to the
correlation-tensor formula on random and pure states, to the top eigenvalue
of M (so a search error shows apart from a formula error), to itself under
local unitaries, and to the right value where the objective is flat or its
minimiser sits at a pole. They show that it never calls into the formula's
code and solves no eigenproblem. Its form is pinned to the distance
measured with `project_a`, and its multi-scale compass to a one-scale
compass written here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import bloch, measures
from gdneg.errors import DimensionMismatch, InvalidDimension, InvalidRange
from gdneg.io_cli import VERIFY_ORACLE_RESOLUTION, _state_stacks
from gdneg.matrixcore import hs_norm_sq
from gdneg.measures import (
    DensityMatrix,
    _measure_stack,
    gd_bruteforce_2xn,
    gd_bruteforce_stack,
    geometric_discord,
    project_a,
)
from gdneg.tolerances import ORACLE_STEP_ATOL

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def states(n, count, seed, ensemble="hilbert-schmidt"):
    return np.concatenate(list(_state_stacks(2, n, count, seed, ensemble)))


def oracle_in_chunks(mats, n, size=8):
    # As `run_verify` calls it: a chunk of states at a time.
    parts = [gd_bruteforce_stack(mats[i : i + size], n, VERIFY_ORACLE_RESOLUTION)
             for i in range(0, len(mats), size)]
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_oracle_equals_single_state_oracle(n):
    mats = states(n, 24, 60 + n)
    stacked = gd_bruteforce_stack(mats, n, 12)
    for k, mat in enumerate(mats):
        assert abs(stacked[k] - gd_bruteforce_2xn(DensityMatrix(2, n, mat), 12)) <= 1e-15


@pytest.mark.parametrize(
    "n,count,ensemble",
    [(2, 200, "hilbert-schmidt"), (3, 200, "hilbert-schmidt"), (4, 200, "hilbert-schmidt"),
     (3, 100, "pure")],
)
def test_stack_oracle_matches_formula(n, count, ensemble):
    mats = states(n, count, 70 + n, ensemble)
    formula = _measure_stack(mats, 2, n).discord
    assert np.max(np.abs(oracle_in_chunks(mats, n) - formula)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_objective_of_the_maximally_mixed_state(n):
    # Pi_u(I/2n) = I/2n for every u: the grid and the search see a flat zero.
    assert gd_bruteforce_2xn(DensityMatrix(2, n, np.eye(2 * n) / (2 * n)), 8) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_states_have_zero_discord(n):
    rng = np.random.default_rng(80 + n)
    mats = []
    for _ in range(10):
        ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho_a = ga @ ga.conj().T
        rho_b = gb @ gb.conj().T
        mats.append(np.kron(rho_a / np.trace(rho_a), rho_b / np.trace(rho_b)))
    assert np.max(gd_bruteforce_stack(np.array(mats), n, 16)) <= 1e-12


@pytest.mark.parametrize("c", [(0.1, 0.2, 0.6), (-0.3, 0.1, -0.5), (0.0, 0.0, 0.4)])
def test_minimiser_at_the_pole(c):
    # Bell-diagonal (I + sum_i c_i sigma_i (x) sigma_i)/4 with |c_3| largest: the
    # best measurement is along z, theta = 0, and D = (c_1^2 + c_2^2)/2 in the
    # m/(m-1) normalisation.
    mat = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULI))) / 4
    rho = DensityMatrix(2, 2, mat)
    value, _ = geometric_discord(rho)
    assert abs(value - (c[0] ** 2 + c[1] ** 2) / 2) <= 1e-12
    for resolution in (2, 7, 24):
        assert abs(gd_bruteforce_2xn(rho, resolution) - value) <= 1e-12


def test_oracle_does_not_touch_the_formula(monkeypatch):
    mats = states(3, 16, 90)
    formula = _measure_stack(mats, 2, 3).discord

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called into the discord formula")

    for name in ("coefficient_stack", "decompose", "g_stack", "g_matrix"):
        monkeypatch.setattr(bloch, name, forbidden)
    monkeypatch.setattr(measures, "_measure_stack", forbidden)
    monkeypatch.setattr(measures, "geometric_discord", forbidden)
    brute = gd_bruteforce_stack(mats, 3, VERIFY_ORACLE_RESOLUTION)
    assert np.max(np.abs(brute - formula)) <= 1e-12
    assert abs(gd_bruteforce_2xn(DensityMatrix(2, 3, mats[0]), 8) - formula[0]) <= 1e-12


def test_search_stops_on_its_step_tolerance(monkeypatch):
    # A looser stopping step leaves the value further from the minimum.
    mats = states(4, 16, 91)
    formula = _measure_stack(mats, 2, 4).discord
    tight = np.max(np.abs(gd_bruteforce_stack(mats, 4, 8) - formula))
    monkeypatch.setattr(measures, "ORACLE_STEP_ATOL", 1e-2)
    loose = np.max(np.abs(gd_bruteforce_stack(mats, 4, 8) - formula))
    assert tight <= 1e-12 < loose


def test_empty_stack_and_bad_arguments():
    assert gd_bruteforce_stack(np.zeros((0, 6, 6), dtype=complex), 3).shape == (0,)
    with pytest.raises(InvalidRange, match="resolution"):
        gd_bruteforce_stack(states(3, 2, 92), 3, 1)
    with pytest.raises(DimensionMismatch):
        gd_bruteforce_stack(states(3, 2, 92), 4)


@pytest.mark.parametrize("ensemble", ["hilbert-schmidt", "pure"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_objective_is_the_measured_distance(n, ensemble):
    # Tr rho^2 - u^T M u against 2 ||rho - Pi_u(rho)||^2 with Pi_u built by
    # `project_a`'s einsum; M is the Gram matrix of sqrt(rho) S_a sqrt(rho).
    mats = states(n, 40, 100 + n, ensemble)
    u = np.random.default_rng(110 + n).standard_normal((len(mats), 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    form = hs_norm_sq(mats) - measures._form_values(measures._form(mats, n), u[:, None])[:, 0]
    measured = 2 * hs_norm_sq(mats - project_a(mats, n, u))
    assert np.max(np.abs(form - measured)) <= 1e-14


def one_scale_compass(mats, n, resolution, atol=ORACLE_STEP_ATOL):
    # The compass the multi-scale search folds: a round tries theta +/- h and
    # phi +/- h, moves to the best if it raises u^T M u and halves h
    # otherwise, until h falls below atol. Returns the values and the number
    # of rounds, from the oracle's grid start.
    k = len(mats)
    form = measures._form(mats, n)
    grid_t, grid_p, table = measures._grid(resolution)
    vals = form.reshape(k, 9) @ table
    start = np.argmax(vals, axis=1)
    best = vals[np.arange(k), start]
    theta, phi = grid_t[start], grid_p[start]
    h = np.full(k, np.pi / (resolution - 1))
    active = np.arange(k)
    rounds = 0
    while active.size:
        rounds += 1
        t = theta[active, None] + np.array([1.0, -1.0, 0.0, 0.0]) * h[active, None]
        p = phi[active, None] + np.array([0.0, 0.0, 1.0, -1.0]) * h[active, None]
        vals = measures._form_values(form[active], measures._directions(t, p))
        rows = np.arange(active.size)
        j = np.argmax(vals, axis=1)
        highest = vals[rows, j]
        moved = highest > best[active]
        step = active[moved]
        theta[step], phi[step], best[step] = t[rows, j][moved], p[rows, j][moved], highest[moved]
        h[active[~moved]] /= 2
        active = active[h[active] >= atol]
    return hs_norm_sq(mats) - best, rounds


def test_multi_scale_rounds_visit_the_one_scale_points_in_fewer_rounds(monkeypatch):
    mats = states(3, 400, 120)
    chunks = [mats[i : i + 8] for i in range(0, len(mats), 8)]
    references = [one_scale_compass(chunk, 3, 24) for chunk in chunks]
    rounds = []
    form_values = measures._form_values

    def counted(*args):
        rounds[-1] += 1
        return form_values(*args)

    monkeypatch.setattr(measures, "_form_values", counted)
    for chunk, (reference, _) in zip(chunks, references):
        rounds.append(0)
        assert np.max(np.abs(gd_bruteforce_stack(chunk, 3, 24) - reference)) <= 1e-15
    ratios = np.array(rounds) / [reference_rounds for _, reference_rounds in references]
    assert len(ratios) == 50
    assert np.max(ratios) <= 1.0
    assert np.median(ratios) <= 0.6


def test_multi_scale_search_tries_no_step_below_its_tolerance(monkeypatch):
    # At a coarse stopping step, a move at a scale below it would shift the
    # value far above rounding.
    mats = states(3, 80, 121)
    monkeypatch.setattr(measures, "ORACLE_STEP_ATOL", 1e-3)
    for i in range(0, len(mats), 8):
        reference, _ = one_scale_compass(mats[i : i + 8], 3, 24, atol=1e-3)
        assert np.max(np.abs(gd_bruteforce_stack(mats[i : i + 8], 3, 24) - reference)) <= 1e-15


def test_cached_tables_are_read_only():
    for array in (*measures._grid(24), measures._side_paulis(3)):
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_one_dimensional_side_is_rejected():
    with pytest.raises(InvalidDimension, match="n >= 2"):
        gd_bruteforce_stack(np.tile(np.eye(2) / 2, (3, 1, 1)), 1)


def test_oracle_solves_no_eigenproblem(monkeypatch):
    # u^T M u is a Rayleigh quotient, so lambda_max(M) would give the minimum
    # at once: the oracle would then be the formula in disguise.
    mats = states(3, 16, 93)
    formula = _measure_stack(mats, 2, 3).discord
    rho = DensityMatrix(2, 3, mats[0])

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle solved an eigenproblem")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    brute = gd_bruteforce_stack(mats, 3, VERIFY_ORACLE_RESOLUTION)
    assert np.max(np.abs(brute - formula)) <= 1e-12
    assert abs(gd_bruteforce_2xn(rho, 8) - formula[0]) <= 1e-12


@pytest.mark.parametrize("ensemble", ["hilbert-schmidt", "pure"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_reaches_the_top_eigenvalue_of_the_form(n, ensemble):
    # The minimum of Tr rho^2 - u^T M u over unit u is Tr rho^2 - lambda_max(M),
    # with M built here from explicit Kronecker Paulis: a miss is the
    # search's, whatever the formula says.
    mats = states(n, 40, 130 + n, ensemble)
    side = [np.kron(s, np.eye(n)) for s in PAULI]
    form = np.array([[[np.trace(rho @ sa @ rho @ sb).real for sb in side] for sa in side]
                     for rho in mats])
    exact = np.einsum("kij,kji->k", mats, mats).real - np.linalg.eigvalsh(form)[:, -1]
    assert np.max(np.abs(oracle_in_chunks(mats, n) - exact)) <= 1e-12


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), rank=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_oracle_is_invariant_under_local_unitaries(n, rank, seed):
    # (V (x) W) rho (V (x) W)^dag rotates M by the SO(3) image of V and leaves
    # Tr rho^2 alone, but the sphere grid does not rotate with it.
    rng = np.random.default_rng(seed)
    shape = (2 * n, min(rank, 2 * n))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    local = np.kron(haar_unitary(2, rng), haar_unitary(n, rng))
    values = gd_bruteforce_stack(np.array([rho, local @ rho @ local.conj().T]), n)
    assert abs(values[1] - values[0]) <= 1e-12
