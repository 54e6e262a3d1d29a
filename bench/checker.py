"""Independent checks of gdneg's outputs.

Nothing here imports gdneg. The state streams are regenerated from their
seeds with numpy alone, and the measures are computed by other routes than
the program's:

* negativity N from the partial-transpose (PT) spectrum, as the trace norm
  expression (||rho^T_A||_1 - 1)/(m - 1);
* geometric discord D from the realignment formula (Luo & Fu, PRA 82,
  034302, 2010), with no SU(d) generators or Bloch data: R[(i j),(k l)] =
  rho[(i k),(j l)], P removes the vec(I_m) component on the A side, and
  D = m/(m-1) (||P R||_F^2 - sum of the top m-1 squared singular values);
* pure states from their Schmidt coefficients c: N = ((sum c)^2 - 1)/(m-1)
  and D = m/(m-1) (1 - sum c^4), exact for m = 2 and an upper limit on the
  program's m >= 3 lower bound;
* rho1(a, b) from its closed forms in c = a/b.

Every check returns a list of problems; an empty list means the output is
correct.
"""

import json
import math
import os

import numpy as np

import spec

TOL = 1e-9
# Counts and violations use the program's documented thresholds.
NEGATIVE_EIGENVALUE_CUTOFF = -1e-10
VIOLATION_EPS = 1e-12


# ---------------------------------------------------------------------------
# State streams


def hs_states(m, n, count, seed):
    """The Hilbert-Schmidt stream: per state G = N(d,d) + i N(d,d), G G^dag / Tr."""
    d = m * n
    z = np.random.default_rng(seed).standard_normal((count, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    mats = g @ g.conj().transpose(0, 2, 1)
    return mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None]


def pure_vectors(m, n, count, seed):
    """The pure stream: per state v = N(d) + i N(d), normalized."""
    d = m * n
    z = np.random.default_rng(seed).standard_normal((count, 2, d))
    vs = z[:, 0] + 1j * z[:, 1]
    return np.array([v / np.linalg.norm(v) for v in vs])


def projectors(vs):
    return vs[:, :, None] * vs.conj()[:, None, :]


# ---------------------------------------------------------------------------
# Measures


def pt_spectrum(rhos, m, n):
    k = rhos.shape[0]
    pt = rhos.reshape(k, m, n, m, n).transpose(0, 3, 2, 1, 4).reshape(k, m * n, m * n)
    return np.linalg.eigvalsh(pt)


def negativity(w, m):
    return (np.sum(np.abs(w), axis=-1) - 1.0) / (m - 1)


def pt_negative_count(w):
    return np.sum(w < NEGATIVE_EIGENVALUE_CUTOFF, axis=-1)


def discord(rhos, m, n):
    k = rhos.shape[0]
    r = rhos.reshape(k, m, n, m, n).transpose(0, 1, 3, 2, 4).reshape(k, m * m, n * n)
    e = np.eye(m).reshape(m * m) / math.sqrt(m)
    pr = r - e[None, :, None] * np.einsum("a,kab->kb", e, r)[:, None, :]
    s2 = np.linalg.svd(pr, compute_uv=False) ** 2
    return m / (m - 1) * (np.sum(s2, axis=-1) - np.sum(s2[:, : m - 1], axis=-1))


def measures(rhos, m, n):
    """(N, D, PT negative count) per state."""
    w = pt_spectrum(rhos, m, n)
    return negativity(w, m), discord(rhos, m, n), pt_negative_count(w)


def schmidt(vs, m, n):
    return np.linalg.svd(vs.reshape(-1, m, n), compute_uv=False)


def pure_negativity(c, m):
    return (np.sum(c, axis=-1) ** 2 - 1.0) / (m - 1)


def pure_discord(c, m):
    return m / (m - 1) * (1.0 - np.sum(c**4, axis=-1))


def rho1_closed_forms(c):
    """(N^2, D) of rho1 at c = a/b."""
    c2 = c * c
    denom = (c2 + 1.0) ** 2
    neg_sq = (4.0 * c2 + 2.0 - 2.0 * math.sqrt(4.0 * c2 + 1.0)) / denom
    disc = 2.0 * c2 / denom if c2 >= 2.0 else (c2 * c2 + 2.0 * c2) / (2.0 * denom)
    return neg_sq, disc


def family_matrix(family, param):
    """The 2x3 family member; rho1's parameter is c = a/b at b = 1."""
    if family == "rho1":
        p, q, r = param * param, 1.0, param
    else:
        offset = {"rho2": 0.0, "rho3": -1.0, "rho4": -2.0}[family]
        p, q, r = 3.0 * param + 1.0, param, 2.0 * param + offset
    mat = np.diag([p, q, 0.0, 0.0, q, p]).astype(complex)
    for i, j in ((0, 4), (4, 0), (1, 5), (5, 1)):
        mat[i, j] = r
    return mat / (2.0 * (p + q))


def maximal_state(m, n):
    v = np.zeros(m * n, dtype=complex)
    for i in range(m):
        v[i * n + i] = 1.0 / math.sqrt(m)
    return np.outer(v, v.conj())


def write_state(path, mat, m, n):
    """Write a gdneg-state/1 file: dimensions and row-major [re, im] entries."""
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(mat).ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": "gdneg-state/1", "m": m, "n": n, "entries": entries}, fh)
        fh.write("\n")


def write_inputs(workdir):
    """The cli-cold state files: rho1(5, 2), the maximal 3x3 state, a NaN 2x3 file."""
    a, b = 5.0, 2.0
    write_state(os.path.join(workdir, spec.RHO1_FILE), family_matrix("rho1", a / b), 2, 3)
    write_state(os.path.join(workdir, spec.MAXIMAL_FILE), maximal_state(3, 3), 3, 3)
    nan_state = np.diag([0.5, 0, 0, 0, 0, 0.5]).astype(complex)
    nan_state[0, 1] = nan_state[1, 0] = math.nan
    write_state(os.path.join(workdir, spec.NAN_FILE), nan_state, 2, 3)


# ---------------------------------------------------------------------------
# Checks


def _close(a, b, tol=TOL):
    return a is not None and b is not None and abs(a - b) <= tol


def check_state_ranges(label, neg, disc, count, m, n):
    """count <= (m-1)(n-1), N in [0, 1], D in [0, m/(m-1)], each with 1e-9 slack."""
    problems = []
    d_max = m / (m - 1)
    if np.any(count > (m - 1) * (n - 1)):
        problems.append(f"{label}: PT negative count above (m-1)(n-1)")
    if np.any(neg < -TOL) or np.any(neg > 1 + TOL):
        problems.append(f"{label}: N outside [0, 1]")
    if np.any(disc < -TOL) or np.any(disc > d_max + TOL):
        problems.append(f"{label}: D outside [0, {d_max}]")
    return problems


def gap_stats(neg, disc):
    gap = neg * neg - disc
    return int(np.sum(gap > VIOLATION_EPS)), float(np.max(gap)), float(np.min(gap))


def check_sample_call(call):
    """One run_sample call: its summary and its round-0 subsample."""
    m, n, ens, count, seed = call["m"], call["n"], call["ensemble"], call["count"], call["seed"]
    label = f"sample {m}x{n} {ens} seed={seed}"
    problems = []
    s = call["summary"]
    if s["bound_failures"] != 0:
        problems.append(f"{label}: bound_failures={s['bound_failures']}")
    if s["count"] != count or list(s["dims"]) != [m, n]:
        problems.append(f"{label}: summary echoes count/dims {s['count']}/{s['dims']}")
    if ens == "pure":
        vs = pure_vectors(m, n, count, seed)
        rhos = projectors(vs)
    else:
        rhos = hs_states(m, n, count, seed)
    neg, disc, cnt = measures(rhos, m, n)
    problems += check_state_ranges(label + " (independent)", neg, disc, cnt, m, n)
    violations, max_gap, min_gap = gap_stats(neg, disc)
    if s["violations"] != violations:
        problems.append(f"{label}: violations {s['violations']} != independent {violations}")
    if not _close(s["max_gap"], max_gap) or not _close(s["min_gap"], min_gap):
        problems.append(f"{label}: gaps {s['max_gap']}/{s['min_gap']} != "
                        f"independent {max_gap}/{min_gap}")
    sub = call.get("subsample")
    if sub:
        k = len(sub["negativity"])
        p_neg = np.array(sub["negativity"])
        p_disc = np.array(sub["discord"])
        p_cnt = np.array(sub["pt_negative_count"])
        if np.max(np.abs(p_neg - neg[:k])) > TOL or np.max(np.abs(p_disc - disc[:k])) > TOL:
            problems.append(f"{label}: subsample N or D differs from independent values")
        if not np.array_equal(p_cnt, cnt[:k]):
            problems.append(f"{label}: subsample PT counts {p_cnt.tolist()} != {cnt[:k].tolist()}")
        problems += check_state_ranges(label + " (program)", p_neg, p_disc, p_cnt, m, n)
        if ens == "pure":
            c = schmidt(vs[:k], m, n)
            if np.max(np.abs(p_neg - pure_negativity(c, m))) > TOL:
                problems.append(f"{label}: N differs from the Schmidt formula")
            if m == 2 and np.max(np.abs(p_neg**2 - p_disc)) > TOL:
                problems.append(f"{label}: pure 2xn state with N^2 != D")
            if m == 2 and np.max(np.abs(p_disc - pure_discord(c, m))) > TOL:
                problems.append(f"{label}: D differs from the Schmidt formula")
            if m > 2 and np.any(p_disc > pure_discord(c, m) + TOL):
                problems.append(f"{label}: lower bound D above the pure-state discord")
    return problems


def check_verify_report(report, m, n, count, seed, oracle_count):
    label = f"verify {m}x{n} seed={seed}"
    problems = []
    if not report.get("passed"):
        return [f"{label}: not passed ({report.get('failure')})"]
    if report["checked"] != count:
        problems.append(f"{label}: checked {report['checked']} != {count}")
    if report["oracle_states_checked"] != oracle_count:
        problems.append(f"{label}: oracle checked {report['oracle_states_checked']} "
                        f"!= {oracle_count}")
    if not report["max_oracle_deviation"] <= TOL:
        problems.append(f"{label}: max_oracle_deviation {report['max_oracle_deviation']}")
    neg, disc, _ = measures(hs_states(m, n, count, seed), m, n)
    violations = gap_stats(neg, disc)[0]
    if report["violations"] != violations:
        problems.append(f"{label}: violations {report['violations']} != independent {violations}")
    return problems


def _json_output(proc, label):
    try:
        return json.loads(proc["stdout"].strip().splitlines()[-1]), []
    except (ValueError, IndexError):
        return None, [f"{label}: no JSON on stdout: {proc['stdout'][-200:]!r}"]


def check_analyze_rho1(proc):
    doc, problems = _json_output(proc, "analyze rho1(5, 2)")
    if doc is None:
        return problems
    want_d = 200 / 841
    want_gap = (232 - 32 * math.sqrt(26)) / 841
    if not _close(doc["discord"], want_d) or not _close(doc["gap"], want_gap):
        problems.append(f"analyze rho1(5, 2): D={doc['discord']} gap={doc['gap']}, "
                        f"want {want_d} and {want_gap}")
    if doc["pt_negative_count"] != 2:
        problems.append(f"analyze rho1(5, 2): PT count {doc['pt_negative_count']} != 2")
    return problems


def check_analyze_maximal(proc):
    doc, problems = _json_output(proc, "analyze maximal 3x3")
    if doc is None:
        return problems
    if not _close(doc["negativity"], 1.0) or not _close(doc["discord"], 1.0):
        problems.append(f"analyze maximal 3x3: N={doc['negativity']} D={doc['discord']}")
    return problems


def check_sweep_csv(text, family, lo, hi, steps):
    label = f"sweep {family}"
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != steps:
        return [f"{label}: {len(rows)} rows, want {steps}"]
    params = np.array([r[0] for r in rows])
    if np.max(np.abs(params - np.linspace(lo, hi, steps))) > TOL:
        return [f"{label}: parameters are not the requested grid"]
    col = {name: np.array([r[i] for r in rows]) for i, name in enumerate(header)}
    rhos = np.array([family_matrix(family, p) for p in params])
    neg, disc, _ = measures(rhos, 2, 3)
    want_nsq, want_d = neg * neg, disc
    problems = []
    if family == "rho1":
        closed = np.array([rho1_closed_forms(p) for p in params])
        if (np.max(np.abs(closed[:, 0] - neg * neg)) > TOL
                or np.max(np.abs(closed[:, 1] - disc)) > TOL):
            problems.append("rho1 closed forms disagree with the realignment values")
        want_nsq, want_d = closed[:, 0], closed[:, 1]
        if (np.max(np.abs(col["closed_form_negativity_sq"] - want_nsq)) > TOL
                or np.max(np.abs(col["closed_form_discord"] - want_d)) > TOL):
            problems.append(f"{label}: closed-form columns differ from the closed forms")
    if (np.max(np.abs(col["negativity_sq"] - want_nsq)) > TOL
            or np.max(np.abs(col["discord"] - want_d)) > TOL
            or np.max(np.abs(col["gap"] - (want_nsq - want_d))) > TOL):
        problems.append(f"{label}: discord/negativity_sq/gap columns differ")
    return problems


def bad_input_ok(proc):
    """A bad-input command succeeds when it exits 1 with one `error:` line and no traceback."""
    err = proc["stderr"].strip().splitlines()
    return (proc["returncode"] == 1 and len(err) == 1 and err[0].startswith("error:")
            and "Traceback" not in proc["stderr"])


def check_cli_round(procs, workdir, seed, round_index):
    """Outputs of one cli-cold round; `procs` maps label to the finished process.

    Returns (problems, failed labels). A command that exits other than as
    expected is a failed operation; a good command's output is also checked.
    """
    problems, failed = [], []
    for label, proc in procs.items():
        if proc["expect"] == "error":
            if not bad_input_ok(proc):
                failed.append(label)
        elif proc["returncode"] != 0:
            failed.append(label)
            problems.append(f"{label}: exit {proc['returncode']}: {proc['stderr'][-300:]!r}")
    if failed and any(procs[label]["expect"] == "ok" for label in failed):
        return problems, failed

    problems += check_analyze_rho1(procs["analyze-rho1"])
    problems += check_analyze_maximal(procs["analyze-maximal"])
    csv = {}
    for family, lo, hi, steps in spec.SWEEPS:
        copies = ("a", "b") if family == "rho1" else ("a",)
        for copy in copies:
            with open(os.path.join(workdir, f"r{round_index}-{family}-{copy}.csv"),
                      encoding="utf-8") as fh:
                csv[family, copy] = fh.read()
        problems += check_sweep_csv(csv[family, "a"], family, lo, hi, steps)
    if csv["rho1", "a"] != csv["rho1", "b"]:
        problems.append("two identical rho1 sweeps wrote different CSV")

    doc, extra = _json_output(procs["sample"], "cli sample")
    problems += extra
    if doc is not None:
        m, n, count = spec.CLI_SAMPLE
        call = {"m": m, "n": n, "ensemble": "hilbert-schmidt", "count": count,
                "seed": spec.call_seed(seed, round_index, 0), "summary": doc}
        problems += check_sample_call(call)
    doc, extra = _json_output(procs["verify"], "cli verify")
    problems += extra
    if doc is not None:
        m, n, count = spec.CLI_VERIFY
        # The CLI runs the oracle on its first 20 states.
        problems += check_verify_report(doc, m, n, count, spec.call_seed(seed, round_index, 1),
                                        min(count, 20))
    return problems, failed
