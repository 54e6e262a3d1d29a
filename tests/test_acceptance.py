"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time

import numpy as np

from gdneg.bloch import decompose, g_matrix, reconstruct
from gdneg.families import FamilySpec, build, rho1_closed_forms, template_closed_forms, violates
from gdneg.io_cli import main, sample_states, write_state
from gdneg.matrixcore import hermitian_eigenvalues, partial_transpose
from gdneg.measures import (
    gd_bruteforce_2xn,
    geometric_discord,
    maximal_state,
    negativity,
    pure_gd,
    pure_negativity,
    schmidt,
)

from random_states import random_pure_state

ROOT26 = np.sqrt(26.0)
EXACT_GAP_52 = (232 - 32 * ROOT26) / 841

# rho1(a, b) violates D >= N^2 exactly for c^2 = (a/b)^2 in (5 - sqrt(17), 2)
# or above 2. With t = c^2 and u = sqrt(4t + 1), the closed forms give:
#   t < 2:  N^2 - D > 0  iff  (u - 1)(u - 3)(u^2 + 4u - 13) < 0,
#           i.e. u > sqrt(17) - 2, i.e. t > 5 - sqrt(17);
#   t > 2:  N^2 - D > 0  iff  t^2 - 2t > 0.
# The gap is zero at t = 0, 5 - sqrt(17) and 2, so a^2 > 2b^2 is sufficient
# but not necessary.
RHO1_LOWER_ZERO_C2 = 5 - np.sqrt(17.0)
RHO1_REGION = "c^2 in (5 - sqrt(17), 2) or c^2 > 2"


# The template entries (p, q, r) of rho2-rho4 at parameter a, as the paper
# writes their matrices: diagonal (p, q, 0, 0, q, p), couplings r, over 2(p + q).
TEMPLATE_ENTRIES = {
    "rho2": lambda a: (3 * a + 1, a, 2 * a),
    "rho3": lambda a: (3 * a + 1, a, 2 * a - 1),
    "rho4": lambda a: (3 * a + 1, a, 2 * a - 2),
}


def _in_rho1_region(c2):
    return c2 > RHO1_LOWER_ZERO_C2 and c2 != 2.0


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")


def _rho1(a, b):
    return build(FamilySpec("rho1", (a, b)))


def _grid_100():
    return [(a, b) for a in np.linspace(0.5, 5.0, 10) for b in np.linspace(0.3, 2.4, 10)]


def test_criterion_1_rho1_52_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "rho1_52.json"
    write_state(path, _rho1(5, 2))
    code = main(["analyze", str(path), "--json"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)

    gap_ok = abs(out["gap"] - EXACT_GAP_52) <= 1e-10
    disc_ok = abs(out["discord"] - 200 / 841) <= 1e-10
    count_ok = out["pt_negative_count"] == 2
    time_ok = elapsed < 1.0
    ok = code == 0 and gap_ok and disc_ok and count_ok and time_ok
    with capsys.disabled():
        _report(1, "rho1(5,2) end-to-end analyze", ok, f"gap={out['gap']:.6f}, {elapsed:.2f}s")
    assert code == 0
    assert gap_ok, f"gap {out['gap']} vs exact {EXACT_GAP_52}"
    assert disc_ok, f"discord {out['discord']} vs 200/841"
    assert count_ok
    assert time_ok, f"took {elapsed:.3f}s"


def test_criterion_2_rho1_spectra():
    worst_state = 0.0
    worst_pt = 0.0
    for a, b in _grid_100():
        rho = _rho1(a, b)
        w = hermitian_eigenvalues(rho.mat)
        worst_state = max(worst_state, float(np.max(np.abs(w - np.array([0.5, 0.5, 0, 0, 0, 0])))))

        s = a * a + b * b
        pm = b * np.sqrt(b * b + 4 * a * a)
        expected = np.sort(
            [a * a / (2 * s)] * 2 + [(b * b + pm) / (4 * s)] * 2 + [(b * b - pm) / (4 * s)] * 2
        )[::-1]
        w_pt = hermitian_eigenvalues(partial_transpose(rho.mat, 2, 3))
        worst_pt = max(worst_pt, float(np.max(np.abs(w_pt - expected))))
    ok = worst_state <= 1e-10 and worst_pt <= 1e-10
    _report(2, "rho1 spectra and PT spectra over 100-point grid", ok,
            f"max dev state={worst_state:.2e}, pt={worst_pt:.2e}")
    assert worst_state <= 1e-10
    assert worst_pt <= 1e-10


def test_criterion_3_bloch_fidelity():
    worst = 0.0
    for a, b in _grid_100():
        s = a * a + b * b
        bf = decompose(_rho1(a, b))

        y = np.zeros(8)
        y[2] = (3 * a * a - 6 * b * b) / (4 * s)
        y[7] = -np.sqrt(3.0) * (a * a - 2 * b * b) / (4 * s)
        t = np.zeros((3, 8))
        t[0, 0] = t[0, 5] = 3 * a * b / (2 * s)
        t[1, 1] = t[1, 6] = -3 * a * b / (2 * s)
        t[2, 2] = 3 * a * a / (4 * s)
        t[2, 7] = 3 * np.sqrt(3.0) * a * a / (4 * s)
        tt = np.diag(
            [9 * a * a * b * b / (2 * s * s), 9 * a * a * b * b / (2 * s * s), 9 * a**4 / (4 * s * s)]
        )
        g = np.diag([3 * a * a * b * b / s**2, 3 * a * a * b * b / s**2, 3 * a**4 / (2 * s**2)])

        worst = max(
            worst,
            float(np.max(np.abs(bf.x))),
            float(np.max(np.abs(bf.y - y))),
            float(np.max(np.abs(bf.T - t))),
            float(np.max(np.abs(bf.T @ bf.T.T - tt))),
            float(np.max(np.abs(g_matrix(bf) - g))),
        )

    worst_rt = 0.0
    for i, rho in enumerate(sample_states(2, 3, 200, 303, "hilbert-schmidt")):
        worst_rt = max(worst_rt, float(np.max(np.abs(reconstruct(decompose(rho)) - rho.mat))))

    ok = worst <= 1e-10 and worst_rt <= 1e-10
    _report(3, "Bloch data fidelity and round-trip", ok,
            f"max grid dev={worst:.2e}, round-trip={worst_rt:.2e}")
    assert worst <= 1e-10
    assert worst_rt <= 1e-10


def test_criterion_4_closed_form_vs_numeric():
    points = [(a, b) for a in np.linspace(0.0, 5.0, 25) for b in np.linspace(0.2, 4.0, 20)]
    assert len(points) == 500

    worst_neg = 0.0
    worst_disc = 0.0
    predicate_mismatches = []
    for a, b in points:
        rho = _rho1(a, b)
        s = a * a + b * b
        neg_closed = (b * np.sqrt(b * b + 4 * a * a) - b * b) / s
        neg_sq_closed, disc_closed = rho1_closed_forms(a, b)
        neg = negativity(rho)
        disc, _ = geometric_discord(rho)
        worst_neg = max(worst_neg, abs(neg - neg_closed), abs(neg * neg - neg_sq_closed))
        worst_disc = max(worst_disc, abs(disc - disc_closed))

        if abs(a * a - 2 * b * b) > 1e-6 and abs(a * a - RHO1_LOWER_ZERO_C2 * b * b) > 1e-6:
            flag, margin = violates(FamilySpec("rho1", (a, b)))
            if flag != _in_rho1_region((a / b) ** 2):
                predicate_mismatches.append((a, b, margin))

    match_ok = worst_neg <= 1e-10 and worst_disc <= 1e-10
    predicate_ok = not predicate_mismatches
    ok = match_ok and predicate_ok
    detail = f"max dev N={worst_neg:.2e}, D={worst_disc:.2e}"
    if predicate_mismatches:
        a, b, margin = predicate_mismatches[0]
        detail += (
            f"; predicate != ({RHO1_REGION}) at {len(predicate_mismatches)} points, "
            f"e.g. a={a:.4g}, b={b:.4g} with gap={margin:.4g}"
        )
    _report(4, f"rho1 closed forms match numerics; violation predicate is {RHO1_REGION}", ok,
            detail)
    assert match_ok, detail
    assert predicate_ok, (
        f"violation predicate is not equivalent to {RHO1_REGION}: "
        f"{len(predicate_mismatches)} mismatching grid points, first at "
        f"(a, b) = {predicate_mismatches[0][:2]} with gap {predicate_mismatches[0][2]:.6g}"
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for m, n, count, seed in [(2, 3, 200, 505), (2, 4, 100, 506)]:
        for rho in sample_states(m, n, count, seed, "hilbert-schmidt"):
            disc, _ = geometric_discord(rho)
            brute = gd_bruteforce_2xn(rho)
            worst = max(worst, abs(brute - disc))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60.0
    _report(5, "brute-force oracle equals discord formula on 300 random states", ok,
            f"max dev={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_6_pure_state_formulas():
    worst_neg = 0.0
    worst_disc = 0.0
    for m, n, seed in [(2, 3, 606), (3, 3, 607)]:
        rng = np.random.default_rng(seed)
        for _ in range(200):
            phi = random_pure_state(m, n, rng)
            c = schmidt(phi)
            rho = phi.projector()
            worst_neg = max(worst_neg, abs(pure_negativity(c, m) - negativity(rho)))
            if m == 2:
                disc, _ = geometric_discord(rho)
                worst_disc = max(worst_disc, abs(pure_gd(c, m) - disc))

    worst_max = 0.0
    for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        rho = maximal_state(m, n)
        disc, _ = geometric_discord(rho)
        worst_max = max(worst_max, abs(negativity(rho) - 1.0), abs(disc - 1.0))

    ok = worst_neg <= 1e-8 and worst_disc <= 1e-8 and worst_max <= 1e-12
    _report(6, "pure-state formulas and maximal states", ok,
            f"max dev N={worst_neg:.2e}, D={worst_disc:.2e}, maximal={worst_max:.2e}")
    assert worst_neg <= 1e-8
    assert worst_disc <= 1e-8
    assert worst_max <= 1e-12


def test_criterion_7_theorem_suite(capsys):
    codes = {}
    reports = {}
    for dims in ["2x2", "2x3", "3x3"]:
        codes[dims] = main(["verify", "--dims", dims, "--count", "1000", "--seed", "7", "--json"])
        reports[dims] = json.loads(capsys.readouterr().out)
    all_pass = all(code == 0 for code in codes.values())
    no_2x2_violations = reports["2x2"]["violations"] == 0
    ok = all_pass and no_2x2_violations
    with capsys.disabled():
        _report(7, "verify passes on 1000 states in 2x2, 2x3, 3x3", ok,
                f"2x2 violations={reports['2x2']['violations']}, "
                f"2x3 violations={reports['2x3']['violations']}")
    assert all_pass, codes
    assert no_2x2_violations


def test_criterion_8_figure_data(tmp_path):
    sweeps = {
        "rho1": ("0", "6", "600"),
        "rho2": ("0.01", "1", "100"),
        "rho3": ("1.75", "4.75", "100"),
        "rho4": ("3.5", "8.5", "100"),
    }
    rows = {}
    deterministic = True
    for family, (lo, hi, steps) in sweeps.items():
        paths = [tmp_path / f"{family}_{k}.csv" for k in (0, 1)]
        for path in paths:
            code = main(
                ["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", steps,
                 "--out", str(path)]
            )
            assert code == 0
        deterministic &= paths[0].read_bytes() == paths[1].read_bytes()
        lines = paths[0].read_text().strip().split("\n")[1:]
        rows[family] = [tuple(map(float, line.split(","))) for line in lines]

    interior_ok = all(
        all(row[3] > 0 for row in rows[family][1:-1]) for family in ("rho2", "rho3", "rho4")
    )

    # Columns: param, discord, negativity_sq, gap.
    closed_dev = 0.0
    for family, entries in TEMPLATE_ENTRIES.items():
        table = np.array(rows[family])
        neg_sq, disc = template_closed_forms(*entries(table[:, 0]))
        closed_dev = max(closed_dev, np.max(np.abs(table[:, 2] - neg_sq)),
                         np.max(np.abs(table[:, 1] - disc)))
    closed_ok = closed_dev <= 1e-12

    crossing_offenders = [
        (row[0], row[3])
        for row in rows["rho1"]
        if (row[3] > 0) != _in_rho1_region(row[0] ** 2)
    ]
    crossing_ok = not crossing_offenders

    ok = deterministic and interior_ok and closed_ok and crossing_ok
    detail = (f"deterministic={deterministic}, rho2-4 interior gaps positive={interior_ok}, "
              f"max dev from closed forms={closed_dev:.2e}")
    if crossing_offenders:
        c, gap = crossing_offenders[0]
        detail += (
            f"; rho1 gap sign does not follow {RHO1_REGION}: {len(crossing_offenders)} "
            f"offending rows, e.g. c={c:.4f} with gap={gap:.4g}"
        )
    _report(8, f"sweep figure data: determinism, rho2-4 gaps and closed forms, rho1 gap > 0 "
            f"iff {RHO1_REGION}", ok, detail)
    assert deterministic
    assert interior_ok
    assert closed_ok, f"rho2-4 sweep rows are {closed_dev!r} off their closed forms"
    assert crossing_ok, (
        f"rho1 sweep gap is not (> 0 for {RHO1_REGION}, <= 0 elsewhere): "
        f"{len(crossing_offenders)} rows disagree, first at c={crossing_offenders[0][0]!r} "
        f"with gap={crossing_offenders[0][1]!r}"
    )
