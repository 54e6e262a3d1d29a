"""Fixed-seed results of `sample`, `verify` and `sweep`, recorded at commit 385bc15.

They were recorded before each chunk array of the Hilbert-Schmidt path was
formed once. Counts and verdicts must match exactly, and every number to
1e-12. The pure tallies at m >= 3 count the correlation-tensor lower bound,
as the CLI does.
"""

import numpy as np
import pytest

from gdneg.io_cli import run_sample, run_verify, sweep_rows

TOL = 1e-12
SEED = 2021

# (m, n, count, ensemble): (violations, bound_failures, max_gap, min_gap)
SAMPLES = {
    (2, 2, 600, "hilbert-schmidt"): (0, 0, -0.00487864703118305, -0.20091497481571097),
    (2, 2, 600, "pure"): (0, 0, 2.220446049250313e-16, -2.220446049250313e-16),
    (2, 3, 400, "hilbert-schmidt"): (0, 0, -0.024910732984551685, -0.15325605133008027),
    (2, 3, 400, "pure"): (0, 0, 2.220446049250313e-16, -2.220446049250313e-16),
    (3, 3, 200, "hilbert-schmidt"): (0, 0, -0.02919171019568703, -0.07563151318725865),
    (3, 3, 200, "pure"): (124, 0, 0.10723821084756024, -0.1657736776332534),
    (4, 4, 60, "hilbert-schmidt"): (0, 0, -0.025828986142488124, -0.04090610132911836),
    (4, 4, 60, "pure"): (56, 0, 0.17151700025230365, -0.046857139810871584),
}

# (m, n): (checked, violations, oracle_states_checked, max_oracle_deviation), 250 states
VERIFIES = {
    (2, 3): (250, 0, 20, 1.3877787807814457e-16),
    (2, 4): (250, 0, 20, 1.942890293094024e-16),
}

# family, from, to: rows (param, discord, negativity_sq, gap) of a 5-step sweep
SWEEPS = {
    ("rho1", 0.0, 3.0): [
        (0.0, 0.0, 0.0, 0.0),
        (0.75, 0.29519999999999996, 0.2639661975699499, -0.031233802430050084),
        (1.5, 0.4260355029585797, 0.4426456501456323, 0.01661014718705256),
        (2.25, 0.27548092252099055, 0.3545325346936998, 0.07905161217270923),
        (3.0, 0.18000000000000005, 0.2583447493940358, 0.07834474939403574),
    ],
    ("rho2", 0.1, 1.0): [
        (0.1, 0.040816326530612235, 0.049764228310023854, 0.00894790177941162),
        (0.325, 0.1597353497164461, 0.19475310710553295, 0.03501775738908686),
        (0.55, 0.236328125, 0.2881368258302066, 0.05180870083020661),
        (0.775, 0.28584176085663293, 0.3485050188713137, 0.06266325801468076),
        (1.0, 0.32000000000000006, 0.39015154995058726, 0.0701515499505872),
    ],
    ("rho3", 1.75, 4.75): [
        (1.75, 0.1953125, 0.1966262876896101, 0.001313787689610102),
        (2.5, 0.26446280991735527, 0.2858873013586733, 0.021424491441318028),
        (3.25, 0.30867346938775514, 0.3447425849224286, 0.03606911553467346),
        (4.0, 0.3391003460207612, 0.38587626910557676, 0.04677592308481554),
        (4.75, 0.36125000000000007, 0.41609808868253356, 0.05484808868253349),
    ],
    ("rho4", 3.5, 8.5): [
        (3.5, 0.2222222222222222, 0.2237170206601786, 0.001494798437956385),
        (4.75, 0.28125, 0.3016271742829603, 0.02037717428296032),
        (6.0, 0.32000000000000006, 0.3542922300578349, 0.03429223005783483),
        (7.25, 0.3472222222222222, 0.3918772826229072, 0.04465506040068501),
        (8.5, 0.36734693877551017, 0.4199382023340886, 0.052591263558578405),
    ],
}


@pytest.mark.parametrize("key", SAMPLES, ids=lambda key: f"{key[0]}x{key[1]}-{key[3]}")
def test_sample_matches_the_recorded_run(key):
    m, n, count, ensemble = key
    violations, bound_failures, max_gap, min_gap = SAMPLES[key]
    summary = run_sample(m, n, count, SEED, ensemble)
    assert (summary.violations, summary.bound_failures) == (violations, bound_failures)
    assert abs(summary.max_gap - max_gap) <= TOL
    assert abs(summary.min_gap - min_gap) <= TOL


@pytest.mark.parametrize("dims", VERIFIES, ids=lambda dims: f"{dims[0]}x{dims[1]}")
def test_verify_matches_the_recorded_run(dims, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checked, violations, oracle_checked, max_dev = VERIFIES[dims]
    report = run_verify(*dims, 250, SEED)
    assert report["passed"] is True
    assert (report["checked"], report["violations"], report["oracle_states_checked"]) == (
        checked, violations, oracle_checked)
    assert abs(report["max_oracle_deviation"] - max_dev) <= TOL


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda sweep: sweep[0])
def test_sweep_matches_the_recorded_rows(sweep):
    rows = sweep_rows(*sweep, 5)
    got = np.array([(r.param, r.discord, r.negativity_sq, r.gap) for r in rows])
    want = np.array(SWEEPS[sweep])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL
