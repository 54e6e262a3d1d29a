"""The batched brute-force oracle against the formula it checks.

`gd_bruteforce_stack` minimises 2 ||rho - Pi_u(rho)||^2 over qubit
measurements for a whole stack: a sphere grid, then a compass search per
state. These tests pin it to the single-state oracle, to the
correlation-tensor formula on random and pure states, to the right value
where the objective is flat or its minimiser sits at a pole, and show that
it never calls into the formula's code.
"""

import numpy as np
import pytest

from gdneg import bloch, measures
from gdneg.errors import DimensionMismatch, InvalidRange
from gdneg.io_cli import VERIFY_ORACLE_RESOLUTION, _state_stacks
from gdneg.measures import (
    DensityMatrix,
    _measure_stack,
    gd_bruteforce_2xn,
    gd_bruteforce_stack,
    geometric_discord,
)

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
