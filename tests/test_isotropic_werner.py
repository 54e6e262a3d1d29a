"""Exact N and D of the isotropic and Werner families of d (x) d states, d = 3 to 5.

With P = |Phi+><Phi+|, |Phi+> = sum_i |ii>/sqrt(d), and V the swap of the two
factors:

    isotropic  rho_F = F P + (1 - F)(I - P)/(d^2 - 1)
    Werner     rho_p = p A/(d(d-1)/2) + (1 - p) S/(d(d+1)/2),  A, S = (I -/+ V)/2

The kernel's normalisations are N = (||rho^T_B||_1 - 1)/(m - 1) and
D = m/(m - 1) min ||rho - Pi(rho)||_2^2 over von Neumann measurements Pi on A,
so that both reach 1 on a maximally entangled state.

N: P^T_B = V/d, whose eigenvalues are +1/d on the symmetric and -1/d on the
antisymmetric subspace; V^T_B = d P. So rho_F^T_B has the eigenvalue
(1 - dF)/(d(d - 1)) with multiplicity d(d - 1)/2 and rho_p^T_B has (1 - 2p)/d
once, the others being positive, and

    N(rho_F) = max(0, dF - 1)/(d - 1),    N(rho_p) = max(0, 2p - 1) 2/(d(d - 1)).

D: Pi is an orthogonal projection of the Hilbert-Schmidt space, so
||rho - Pi(rho)||^2 = Tr rho^2 - Tr Pi(rho)^2. In the computational basis,
with rho_F = a P + b I, a = (d^2 F - 1)/(d^2 - 1), Pi(P) = sum_i |ii><ii|/d
leaves a^2 (d - 1)/d; with rho_p = c I + e V, e = ((1 - p)/(d + 1) - p/(d - 1))/d,
Pi(V) = sum_i |ii><ii| leaves e^2 d(d - 1). rho_F is invariant under U (x) U*
and rho_p under U (x) U, so every basis on A gives the same value, which is
then the minimum:

    D(rho_F) = ((d^2 F - 1)/(d^2 - 1))^2,    D(rho_p) = ((1 - p)/(d + 1) - p/(d - 1))^2.

These are d/(d - 1) times the geometric discord of Luo & Fu (PRA 82, 034302,
2010) for both families. The kernel's discord at m >= 3 is a lower bound, but
here it is exact, and neither family has N^2 > D.
"""

import numpy as np
import pytest

from gdneg import measures
from gdneg.states import first_invalid_state

POINTS = np.linspace(0.0, 1.0, 41)


def phi_plus_projector(d):
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    return np.outer(phi, phi)


def swap(d):
    v = np.zeros((d * d, d * d))
    i, j = np.divmod(np.arange(d * d), d)
    v[i * d + j, j * d + i] = 1.0
    return v


def isotropic(d, f):
    p, eye = phi_plus_projector(d), np.eye(d * d)
    return f[:, None, None] * p + ((1.0 - f) / (d * d - 1))[:, None, None] * (eye - p)


def werner(d, p):
    eye, v = np.eye(d * d), swap(d)
    anti, sym = (eye - v) / 2, (eye + v) / 2
    return (p[:, None, None] * anti / (d * (d - 1) / 2)
            + (1.0 - p)[:, None, None] * sym / (d * (d + 1) / 2))


def isotropic_closed_forms(d, f):
    return np.maximum(0.0, d * f - 1.0) / (d - 1), ((d * d * f - 1.0) / (d * d - 1)) ** 2


def werner_closed_forms(d, p):
    neg = np.maximum(0.0, 2.0 * p - 1.0) * 2.0 / (d * (d - 1))
    return neg, ((1.0 - p) / (d + 1) - p / (d - 1)) ** 2


FAMILIES = {
    "isotropic": (isotropic, isotropic_closed_forms),
    "werner": (werner, werner_closed_forms),
}


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_matches_the_exact_family_values(family, d):
    states, closed_forms = FAMILIES[family]
    mats = states(d, POINTS).astype(complex)
    assert first_invalid_state(mats) is None
    measured = measures._measure_stack(mats, d, d)
    assert measured.ok.all()
    neg, disc = closed_forms(d, POINTS)
    assert np.max(np.abs(measured.negativity - neg)) <= 1e-12
    assert np.max(np.abs(measured.discord - disc)) <= 1e-12
    assert np.max(measured.gap) <= 1e-12


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_any_measurement_basis_gives_the_closed_form_discord(family, d):
    # The definition, m/(m-1) ||rho - Pi(rho)||^2, written out with np.kron at
    # a random basis of A: the same value as the computational basis gives.
    states, closed_forms = FAMILIES[family]
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    projectors = [np.kron(np.outer(u, u.conj()), np.eye(d)) for u in q.T]
    for rho, want in zip(states(d, POINTS[::8]), closed_forms(d, POINTS[::8])[1]):
        measured = sum(p @ rho @ p for p in projectors)
        assert abs(d / (d - 1) * np.sum(np.abs(rho - measured) ** 2) - want) <= 1e-12
