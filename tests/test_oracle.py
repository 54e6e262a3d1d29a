"""The batched brute-force oracle against the formula it checks.

`gd_bruteforce_stack` minimises 2 ||rho - Pi_u(rho)||^2 over qubit
measurements for a whole stack. Each value is Tr rho^2 - u^T M u, with
M_ab = Re Tr(rho S_a rho S_b) and S_a = sigma_a (x) I_n, a 3 x 3 form built
from rho's entries by explicit Pauli products, at the best of three
directions climbed from the axes by u <- M u / ||M u||, 2^60 steps taken as
10 blocks of 6 squarings of M, one trace normalisation per block: a PSD form
of unit trace has top eigenvalue at least 1/3, so 6 squarings leave it above
3^-64 and no entry overflows. The formula reaches the same optimum through
the Bloch vector, the correlation tensor and an eigenvalue, so the two share
no code. These tests pin the oracle to a copy of the climb that normalises
after every squaring, to the single-state oracle, to the
correlation-tensor formula on random and pure states, to the top eigenvalue
of M (so a search error shows apart from a formula error), to itself under
local unitaries, and to the right value where the objective is flat, where
M is zero, where its minimiser sits at a pole, where the top two
eigenvalues of M nearly tie, which a search with a stopping step crawls on,
and where a climbed column decays until its square underflows. They show
that it never calls into the formula's code and solves no eigenproblem. Its
form is pinned to the distance measured with `project_a`.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdneg import bloch, measures
from gdneg.errors import DimensionMismatch, InvalidDimension
from gdneg.io_cli import _state_stacks
from gdneg.matrixcore import hs_norm_sq
from gdneg.measures import (
    DensityMatrix,
    _measure_stack,
    _projectors,
    gd_bruteforce_2xn,
    gd_bruteforce_stack,
    geometric_discord,
    maximal_state,
    project_a,
)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def states(n, count, seed, ensemble="hilbert-schmidt"):
    stack = np.concatenate(list(_state_stacks(2, n, count, seed, ensemble)))
    return _projectors(stack) if ensemble == "pure" else stack


def oracle_in_chunks(mats, n, size=8):
    # As `run_verify` calls it: a chunk of states at a time.
    parts = [gd_bruteforce_stack(mats[i : i + size], n) for i in range(0, len(mats), size)]
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_oracle_equals_single_state_oracle(n):
    mats = states(n, 24, 60 + n)
    stacked = gd_bruteforce_stack(mats, n)
    for k, mat in enumerate(mats):
        assert abs(stacked[k] - gd_bruteforce_2xn(DensityMatrix(2, n, mat))) <= 1e-15


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
    # Pi_u(I/2n) = I/2n for every u: the climb sees a flat zero.
    assert gd_bruteforce_2xn(DensityMatrix(2, n, np.eye(2 * n) / (2 * n))) <= 1e-15


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
    assert np.max(gd_bruteforce_stack(np.array(mats), n)) <= 1e-12


@pytest.mark.parametrize("c", [(0.1, 0.2, 0.6), (-0.3, 0.1, -0.5), (0.0, 0.0, 0.4)])
def test_minimiser_at_the_pole(c):
    # Bell-diagonal (I + sum_i c_i sigma_i (x) sigma_i)/4 with |c_3| largest: the
    # best measurement is along z, and D = (c_1^2 + c_2^2)/2 in the m/(m-1)
    # normalisation. M is diagonal, so the x and y axes never leave their axis.
    mat = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULI))) / 4
    rho = DensityMatrix(2, 2, mat)
    value, _ = geometric_discord(rho)
    assert abs(value - (c[0] ** 2 + c[1] ** 2) / 2) <= 1e-12
    assert abs(gd_bruteforce_2xn(rho) - value) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_form_of_a_maximally_entangled_state_is_zero(n):
    # The qubit side is maximally mixed, so M = 0 exactly: every u gives
    # D = Tr rho^2 = 1, and the climb must not divide 0 by 0.
    rho = maximal_state(2, n)
    assert not measures._form(rho.mat[None], n).any()
    assert abs(gd_bruteforce_2xn(rho) - 1.0) <= 1e-12


def test_oracle_does_not_touch_the_formula(monkeypatch):
    mats = states(3, 16, 90)
    formula = _measure_stack(mats, 2, 3).discord

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called into the discord formula")

    for name in ("coefficient_stack", "decompose", "g_stack", "g_matrix"):
        monkeypatch.setattr(bloch, name, forbidden)
    monkeypatch.setattr(measures, "_measure_stack", forbidden)
    monkeypatch.setattr(measures, "geometric_discord", forbidden)
    brute = gd_bruteforce_stack(mats, 3)
    assert np.max(np.abs(brute - formula)) <= 1e-12
    assert abs(gd_bruteforce_2xn(DensityMatrix(2, 3, mats[0])) - formula[0]) <= 1e-12


def test_empty_stack_and_bad_arguments():
    assert gd_bruteforce_stack(np.zeros((0, 6, 6), dtype=complex), 3).shape == (0,)
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


def test_cached_tables_are_read_only():
    with pytest.raises(ValueError):
        measures._side_paulis(3)[0] = 0


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
    brute = gd_bruteforce_stack(mats, 3)
    assert np.max(np.abs(brute - formula)) <= 1e-12
    assert abs(gd_bruteforce_2xn(rho) - formula[0]) <= 1e-12


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
    # Tr rho^2 alone, but the three axes the climb starts from do not rotate with it.
    rng = np.random.default_rng(seed)
    shape = (2 * n, min(rank, 2 * n))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    local = np.kron(haar_unitary(2, rng), haar_unitary(n, rng))
    values = gd_bruteforce_stack(np.array([rho, local @ rho @ local.conj().T]), n)
    assert abs(values[1] - values[0]) <= 1e-12


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 0.0])
def test_top_two_eigenvalues_of_the_form_nearly_tie(eps):
    # Bell-diagonal with c = (0.4, 0.4 - eps, 0.1): u^T M u peaks on a ridge
    # that is flat to eps, where a search that stops on a small step crawls.
    # D = ((0.4 - eps)^2 + 0.01)/2 whatever the local unitary.
    c = (0.4, 0.4 - eps, 0.1)
    mat = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULI))) / 4
    rng = np.random.default_rng(140)
    local = [np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in range(5)]
    start = time.perf_counter()
    values = gd_bruteforce_stack(np.array([v @ mat @ v.conj().T for v in local]), 2)
    assert time.perf_counter() - start < 1.0
    assert np.max(np.abs(values - ((0.4 - eps) ** 2 + 0.01) / 2)) <= 1e-12


@pytest.mark.parametrize("top,near", [(0, 1), (1, 2), (2, 0)])
def test_columns_that_decay_below_the_square_root_of_the_smallest_float(top, near):
    # Unrotated Bell-diagonal states have a diagonal M. With c_near k ulps
    # below c_top, the near axis's column of the squared form decays to
    # around 1e-160 for some k, where its square underflows: normalising it
    # by a floored norm would blow it far past unit length.
    ks = np.arange(1, 400)
    c = np.full((len(ks), 3), 0.1)
    c[:, top] = 0.4
    c[:, near] = 0.4 - ks * np.spacing(0.4)
    mats = np.array([(np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(row, PAULI))) / 4
                     for row in c])
    exact = (c[:, near] ** 2 + 0.01) / 2
    assert np.max(np.abs(gd_bruteforce_stack(mats, 2) - exact)) <= 1e-12


def per_squaring_climb(mats, n):
    # Reference climb: the same 60 squarings, each followed by a trace
    # normalisation, so no entry ever strays far from unit scale.
    form = measures._form(mats, n)
    tiny = np.finfo(float).tiny
    p = form
    for _ in range(60):
        p = p @ p
        p /= np.maximum(np.trace(p, axis1=1, axis2=2), tiny)[:, None, None]
    u = p.transpose(0, 2, 1)
    u = u / np.maximum(np.abs(u).max(axis=2, keepdims=True), tiny)
    u = u / np.maximum(np.linalg.norm(u, axis=2, keepdims=True), 1.0)
    return hs_norm_sq(mats) - measures._form_values(form, u).max(axis=1)


def bell_diagonal_stack(c):
    return np.array([(np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(row, PAULI))) / 4
                     for row in c])


@pytest.mark.parametrize("ensemble", ["hilbert-schmidt", "pure"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_normalised_climb_matches_the_per_squaring_climb(n, ensemble):
    # Scaling by a positive number changes no direction, so normalising once
    # per block moves the values by rounding alone.
    mats = states(n, 200, 150 + n, ensemble)
    assert np.max(np.abs(oracle_in_chunks(mats, n) - per_squaring_climb(mats, n))) <= 1e-15


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 0.0])
def test_block_normalised_climb_matches_on_a_near_tie(eps):
    rng = np.random.default_rng(140)
    local = [np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in range(5)]
    rho = bell_diagonal_stack([(0.4, 0.4 - eps, 0.1)])[0]
    mats = np.array([v @ rho @ v.conj().T for v in local])
    assert np.max(np.abs(gd_bruteforce_stack(mats, 2) - per_squaring_climb(mats, 2))) <= 1e-15


@pytest.mark.parametrize("top,near", [(0, 1), (1, 2), (2, 0)])
def test_block_normalised_climb_matches_where_a_column_underflows(top, near):
    ks = np.arange(1, 400)
    c = np.full((len(ks), 3), 0.1)
    c[:, top] = 0.4
    c[:, near] = 0.4 - ks * np.spacing(0.4)
    mats = bell_diagonal_stack(c)
    assert np.max(np.abs(gd_bruteforce_stack(mats, 2) - per_squaring_climb(mats, 2))) <= 1e-15
