"""Each check of a theorem or identity, and a mutation of the program that makes it fire.

A check that no mutation can make fire proves nothing. Each row below breaks
one routine (or one constant) of the program with `monkeypatch`, runs the
command path that holds the check, and asserts that the first fault reported
is that check's. Input checks (finiteness, hermiticity, trace, positivity,
norm) fire on bad input and are tested where states are validated.

Checks without a row: the kernel's "N^2 - D outside [-m/(m-1), 1]" is implied
by the N and D intervals up to their 1e-9 slack, so no mutation was found
that fires it before them.
"""

import numpy as np
import pytest

from gdneg import bloch, io_cli, measures
from gdneg.io_cli import run_verify

from random_states import random_density_matrix


def sample_fault(m, n, ensemble="hilbert-schmidt"):
    fault = io_cli._sample(m, n, 300, 3, ensemble)[1]
    return None if fault is None else str(fault[1])


def verify_fault():
    return run_verify(2, 3, 30, 5).get("failure")


def identity_fault():
    rho = random_density_matrix(2, 3, np.random.default_rng(8))
    try:
        measures.measurement_identity_check(rho, [0.3, -0.5, 0.8])
    except measures.BoundViolation as exc:
        return str(exc)
    return None


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
    ("pure cross-check",
     wrapped(measures, "pure_negativity", lambda neg: neg * (1 + 1e-9)),
     lambda: sample_fault(2, 3, "pure"), "the Schmidt and projector routes disagree"),
    ("oracle",
     wrapped(io_cli, "gd_bruteforce_stack", lambda d: d + 1e-9),
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
