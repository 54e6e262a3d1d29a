"""Each check of a theorem or identity, and a mutation of the program that makes it fire.

A check that no mutation can make fire proves nothing. Each row below breaks
one routine (or one constant) of the program with `monkeypatch`, runs the
command path that holds the check, and asserts that the first fault reported
is that check's. Input checks (finiteness, hermiticity, trace, positivity,
norm) fire on bad input and are tested where states are validated.

Checks without a row: the kernel's "N^2 - D outside [-m/(m-1), 1]" is implied
by the N and D intervals up to their 1e-9 slack, so no mutation was found
that fires it before them.

The check at m = 2, where the kernel's D is exact, and its proof in this
package's normalisation: N = (||rho^G||_1 - 1)/(m - 1), which is 2/(m - 1)
times the sum of the absolute negative eigenvalues of the partial transpose
rho^G, and D = m/(m - 1) min ||rho - Pi(rho)||_2^2 over the qubit bases,
where Pi keeps the diagonal blocks of rho in that basis. For a state this is
the distance to the nearest classical-quantum state; the kernel's G formula
computes it for every Hermitian rho, so the proof needs rho >= 0 nowhere
else. The gate admits Hermitian rho of trace one whose eigenvalues are at
least -eps, eps = -PSD_MIN_EIGENVALUE.

- D >= N^2/(n - 1) at every 2 (x) n, up to 16 eps N; at 2x2 this is
  Girolami & Adesso's D >= N^2. Take a minimizing qubit basis and write
  rho = [[R0, C], [C^dag, R1]] in n x n blocks, so D = 2 * 2 ||C||_2^2 =
  4 ||C||_2^2. A local unitary on A changes rho^G only by a unitary
  conjugation, so its spectrum can be read in that basis. P = rho + eps I is
  positive semidefinite with the same C, and P^G = diag(P0, P1) + K, where
  P0, P1 >= 0 are P's diagonal blocks and K = [[0, C^dag], [C, 0]] has
  eigenvalues +-s_i(C) and zeros. P^G has r <= (m - 1)(n - 1) = n - 1
  negative eigenvalues, the cap that holds for every positive semidefinite
  matrix, and by Ky Fan's inequality their sum is at least -(s_1 + ... +
  s_r)(C) >= -sqrt(n - 1) ||C||_2 = -sqrt((n - 1) D)/2. Now rho^G = P^G -
  eps I, and min(x - eps, 0) >= min(x, 0) - eps for each of the 2n
  eigenvalues, so N <= sqrt((n - 1) D) + delta with delta = 4 n eps. If
  N > delta, (N - delta)^2 <= (n - 1) D; else N^2 <= N delta. Either way
  N^2 - (n - 1) D <= 2 N delta, so N^2/(n - 1) - D <= 8 n eps N/(n - 1) <=
  16 eps N. With N <= 1, checked before it, the check's slack is
  TWO_PARTY_ATOL = BOUND_ATOL + 16 eps. At eps = 0 the same steps with r
  the count of negative eigenvalues of rho^G give D >= N^2/r, so D >= N^2
  whenever rho^G has one negative eigenvalue.

The check runs last in the kernel and in the pure route, so every earlier
first fault is kept; a property below finds no state of any rank that
fails it, and a regression test passes a gate-admitted state that fails it
with BOUND_ATOL slack alone.

Every other check holds on every matrix the gate admits too: Hermitian rho
with |Tr rho - 1| <= tau = TRACE_ATOL and eigenvalues at least -eps. Then
P = rho + eps I is positive semidefinite, and P^G = rho^G + eps I, since the
partial transpose is linear and fixes I. Write d = mn and t = Tr rho.

- The PT cap. A positive semidefinite P^G has at most (m - 1)(n - 1)
  negative eigenvalues (Rana, PRA 87, 2013), so rho^G has at most that many
  below -eps. The kernel checks the cap on the count below
  PSD_MIN_EIGENVALUE + NEGATIVE_EIGENVALUE_CUTOFF = -eps - 1e-10; the 1e-10
  covers the rounding of eigvalsh and of the gate's Cholesky screen, of
  order d u for matrices of norm about 1. The reported `pt_negative_count`
  keeps its cutoff, -1e-10, so it can exceed the cap:
  (1 + e)|00><00| - e|Psi-><Psi-| has two PT eigenvalues of -e/2.
- The N interval. sigma = P / c with c = t + d eps is a state, so
  rho^G = c sigma^G - eps I. The negative eigenvalues of sigma^G sum to at
  least -(m - 1)/2, since N(sigma) <= 1. For each eigenvalue mu of sigma^G,
  min(c mu - eps, 0) >= c min(mu, 0) - eps, so the negative eigenvalues of
  rho^G sum to at least -c (m - 1)/2 - d eps, and N <= c + 2 d eps/(m - 1)
  <= 1 + tau + d (m + 1) eps/(m - 1), `negativity_ceiling`. N >= 0 holds
  by construction. (1 + e)|Phi+><Phi+| - e|01><01| has N = 1 + 2e.
- The D interval needs no slack. D >= 0 by the clamp. D is at most the
  distance bound m/(m - 1) (Tr rho^2 - Tr rho_B^2/m), which holds for every
  Hermitian rho and is checked on its own. Tr rho_B^2 >= t^2/n, and
  Tr rho^2, a convex function of eigenvalues at least -eps that sum to t,
  is at most (t + (d - 1) eps)^2 + (d - 1) eps^2. So m/(m - 1) - D is at
  least m/(m - 1) (1/d - 3 tau - 2.1 d eps - d^2 eps^2), which is positive
  for d below 20,000.
- The gap interval: N^2 - D <= N^2 <= `negativity_ceiling`^2, and
  N^2 - D >= -D >= -m/(m - 1).
- The two-party check above used N <= 1. With N up to the ceiling, 16 eps N
  grows by 16 eps (N - 1) < 1e-16 n at m = 2, inside BOUND_ATOL.
- The rest need no positivity. The two negativity expressions differ by
  (t - 1)/(m - 1). G is a Gram matrix for every Hermitian rho. The distance
  bound and the measurement identities are algebra on Hermitian matrices.

A derandomized property below subtracts e |v><v|, e up to eps, from states
on the boundary (pure, rank 2, products and maximally entangled ones) and
finds no admitted state that `bounds_check` rejects; the two states above
are its examples and regression rows.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gdneg import bloch, io_cli, measures, states
from gdneg.families import FamilySpec, build
from gdneg.io_cli import run_verify

from gdneg.errors import InvalidState, first_fault
from gdneg.tolerances import BOUND_ATOL, PSD_MIN_EIGENVALUE, TWO_PARTY_ATOL

from random_states import gated, low_rank_states, random_density_matrix


def sample_fault(m, n, ensemble="hilbert-schmidt"):
    fault = io_cli._sample(m, n, 300, 3, ensemble)[1]
    return None if fault is None else str(fault[1])


def verify_fault():
    return run_verify(2, 3, 30, 5).get("failure")


def identity_fault():
    rho = random_density_matrix(2, 3, np.random.default_rng(8))
    checks = measures._identity_checks(rho.mat[None], 3, np.array([[0.3, -0.5, 0.8]]))[0]
    fault = first_fault(checks)
    return None if fault is None else str(fault[1])


def analyze_fault(rho):
    try:
        measures.bounds_check(rho)
    except measures.BoundViolation as exc:
        return str(exc)
    return None


def after_the_first(scale):
    # The Schmidt route's D scaled on every state but a chunk's first, whose
    # cross-check against the kernel would otherwise fire first.
    return lambda d: np.concatenate([d[:1], scale * d[1:]])


def wrapped(module, name, change):
    real = getattr(module, name)
    return module, name, lambda *args: change(real(*args))


def shifted_pt_spectrum(w):
    # Move weight 1 from the smallest PT eigenvalue to the largest: the trace
    # and the sign of the smallest one are kept at 2x2, so only N leaves [0, 1].
    w = w.copy()
    w[:, 0] += 1.0
    w[:, -1] -= 1.0
    return w


# (check, mutation as (module, name, replacement), run returning the first fault, message start)
TABLE = [
    ("dual negativity",
     wrapped(measures, "_spectrum", lambda w: w * np.nan),
     lambda: sample_fault(2, 3), "the two negativity expressions disagree: nan"),
    ("negative discord",
     wrapped(bloch, "g_stack", lambda g: -g),
     lambda: sample_fault(2, 3), "discord lower bound came out negative"),
    ("PT cap",
     (measures, "NEGATIVE_EIGENVALUE_CUTOFF", 0.15),
     lambda: sample_fault(2, 3), "4 negative partial-transpose eigenvalues exceed the cap 2"),
    ("N interval",
     wrapped(measures, "_spectrum", shifted_pt_spectrum),
     lambda: sample_fault(2, 2), "negativity "),
    ("D interval",
     wrapped(bloch, "g_stack", lambda g: 100 * g),
     lambda: sample_fault(2, 3), "discord "),
    ("classical-quantum distance bound",
     wrapped(bloch, "g_stack", lambda g: 2 * g),
     lambda: sample_fault(2, 3), "classical-quantum distance bound failed: D = "),
    ("pure cross-check",
     wrapped(measures, "pure_negativity", lambda neg: neg * (1 + 1e-9)),
     lambda: sample_fault(2, 3, "pure"), "the Schmidt and projector routes disagree"),
    # rho1(5, 2) is 2x3: D / 2 = 0.119 against N^2/2 = 0.160.
    ("D >= N^2/(n-1)",
     wrapped(bloch, "g_stack", lambda g: g / 2),
     lambda: analyze_fault(build(FamilySpec("rho1", (5, 2)))),
     "D >= N^2/(n-1) failed for a 2x3 state: D = 0.11"),
    # A pure 2x2 state has D = N^2, so D / 2 fires on every entangled one.
    ("D >= N^2/(n-1), pure route",
     wrapped(measures, "pure_gd", after_the_first(0.5)),
     lambda: sample_fault(2, 2, "pure"), "D >= N^2/(n-1) failed for a 2x2 state: D = "),
    ("oracle",
     wrapped(measures, "gd_bruteforce_stack", lambda d: d + 1e-9),
     verify_fault, "oracle deviation "),
    ("measurement identity",
     (measures, "project_a", lambda mat, n, u: mat / 2),
     identity_fault, "measurement identity failed"),
    ("distance identity",
     wrapped(measures, "hs_norm_sq", lambda v: v + 1e-6),
     identity_fault, "distance identity failed"),
]


@pytest.mark.parametrize("check,mutation,run,message", TABLE, ids=[row[0] for row in TABLE])
def test_check_fires_on_its_mutation(check, mutation, run, message, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # verify writes its failure file here
    assert run() is None
    monkeypatch.setattr(*mutation)
    fault = run()
    assert fault is not None and fault.startswith(message), fault


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    dims_rank=st.sampled_from([(2, 2), (2, 3), (2, 4)]).flatmap(
        lambda dims: st.tuples(st.just(dims), st.integers(1, dims[0] * dims[1]))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_party_check_finds_no_false_positive(dims_rank, seed):
    # D >= N^2/(n-1) on states of every rank, through the kernel and, on rank
    # one, through the pure route.
    (m, n), rank = dims_rank
    rng = np.random.default_rng(seed)
    h = gated(low_rank_states(m * n, rank, 32, rng))
    routes = [measures._measure_stack(h, m, n)]
    if rank == 1:
        routes.append(measures._measure_pure_stack(io_cli._unit_vectors(m * n, 32, rng), m, n))
    for measured in routes:
        assert measured.ok.all()
        assert np.min(measured.discord - measured.negativity ** 2 / (n - 1)) >= -1e-12


def test_two_party_check_admits_what_the_gate_admits():
    # (1 + eps) |psi><psi| - eps |01><01| with psi = cos(pi/6)|00> + sin(pi/6)|11>:
    # its smallest eigenvalue is -eps, inside PSD_MIN_EIGENVALUE, and its
    # N^2 - D is about 1.6e-9, above BOUND_ATOL but within the proof's 16 eps.
    eps = 0.9e-9
    psi = np.array([np.cos(np.pi / 6), 0.0, 0.0, np.sin(np.pi / 6)])
    rho = (1 + eps) * np.outer(psi, psi)
    rho[1, 1] -= eps
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-eps, rel=1e-6)
    report = measures.bounds_check(states.DensityMatrix(2, 2, rho))
    assert report.bounds_ok
    assert BOUND_ATOL < report.gap < TWO_PARTY_ATOL


KET_00 = np.array([1.0, 0.0, 0.0, 0.0])
KET_01 = np.array([0.0, 1.0, 0.0, 0.0])
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)

# (m, n, sigma, v, e) for (1 + e) sigma - e |v><v|: 2x2 states the gate admits
# that the PT cap and the N interval once rejected.
PT_CAP_CASES = [(2, 2, np.outer(KET_00, KET_00), PSI_MINUS, e) for e in (3e-10, 5e-10, 9e-10)]
N_CASE = (2, 2, np.outer(PHI_PLUS, PHI_PLUS), KET_01, 0.9e-9)


def subtracted(sigma, v, e):
    return (1 + e) * sigma - e * np.outer(v, v.conj())


def boundary_state(kind, m, n, rng):
    """A boundary state: pure, of rank 2, a product of pure factors or maximally entangled."""
    if kind == "maximal":
        return measures.maximal_state(m, n).mat
    if kind == "product":
        return np.kron(low_rank_states(m, 1, 1, rng)[0], low_rank_states(n, 1, 1, rng)[0])
    return low_rank_states(m * n, 1 if kind == "pure" else 2, 1, rng)[0]


@st.composite
def boundary_cases(draw):
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 3)]))
    sigma = boundary_state(draw(st.sampled_from(["pure", "rank 2", "product", "maximal"])), m, n,
                           np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    v = io_cli._unit_vectors(m * n, 1, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))[0]
    if draw(st.booleans()):  # v in sigma's kernel: the smallest eigenvalue is then -e
        w, u = np.linalg.eigh(sigma)
        kernel = u[:, w < 1e-12]
        v = kernel @ (kernel.conj().T @ v)
        v /= np.linalg.norm(v)
    return m, n, sigma, v, draw(st.floats(0.0, -PSD_MIN_EIGENVALUE))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=boundary_cases())
@example(case=PT_CAP_CASES[0])
@example(case=PT_CAP_CASES[1])
@example(case=PT_CAP_CASES[2])
@example(case=N_CASE)
def test_bounds_check_passes_every_state_the_gate_admits(case):
    m, n, sigma, v, e = case
    try:
        rho = states.DensityMatrix(m, n, subtracted(sigma, v, e))
    except InvalidState:
        assume(False)
    measures.bounds_check(rho)


@pytest.mark.parametrize("case", PT_CAP_CASES + [N_CASE], ids=["cap-3e-10", "cap-5e-10",
                                                                 "cap-9e-10", "N-0.9e-9"])
def test_analyze_passes_what_the_gate_admits(case, tmp_path, capsys):
    m, n, sigma, v, e = case
    path = str(tmp_path / "state.json")
    io_cli.write_state(path, states.DensityMatrix(m, n, subtracted(sigma, v, e)))
    assert io_cli.main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bounds_ok"]
    if case is N_CASE:
        assert report["negativity"] == pytest.approx(1 + 2 * e, abs=1e-15)
    else:  # reported at the noise cutoff: both PT eigenvalues of -e/2
        assert (report["pt_negative_count"], report["pt_negative_cap"]) == (2, 1)
