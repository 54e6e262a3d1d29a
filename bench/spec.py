"""What each benchmark workload runs, shared by run.py, the worker and the checker.

This module imports neither numpy nor gdneg, so every process of the benchmark
can read it. Each workload is made of rounds; a round makes the same calls in
the same order, with seeds derived from the benchmark seed and the round
index, so every run attempts whole rounds of one fixed mix of operations.
"""

WORKLOADS = ("sample-qubit", "sample-qudit", "verify-oracle", "cli-cold")

# One run_sample call per entry and round: (m, n, ensemble, count).
SAMPLE_CALLS = {
    "sample-qubit": (
        (2, 2, "hilbert-schmidt", 300),
        (2, 3, "hilbert-schmidt", 300),
        (2, 3, "pure", 300),
    ),
    "sample-qudit": (
        (3, 3, "hilbert-schmidt", 200),
        (4, 4, "hilbert-schmidt", 200),
        (3, 3, "pure", 200),
    ),
}

# One run_verify call per entry and round: (m, n, count). The oracle runs on
# every state (oracle_subsample = count) at the CLI's resolution.
VERIFY_CALLS = ((2, 3, 8), (2, 4, 8))

# States per call in the untimed warm-up pass.
WARMUP_COUNT = 4

# States per call of round 0 that are sent through bounds_check one by one
# after the timed loop and compared state by state with the checker.
SUBSAMPLE = 25

# Sweep ranges inside each family's documented window; rho1 sweeps c = a/b.
SWEEPS = (
    ("rho1", 0.0, 6.0, 121),
    ("rho2", 0.01, 1.0, 100),
    ("rho3", 1.75, 4.75, 121),
    ("rho4", 3.5, 8.5, 121),
)
CLI_SAMPLE = (2, 3, 200)
CLI_VERIFY = (2, 3, 20)

# State files written by the checker's own writer into the work directory.
RHO1_FILE = "rho1_5_2.json"
MAXIMAL_FILE = "maximal_3x3.json"
NAN_FILE = "nan_2x3.json"


def call_seed(seed: int, round_index: int, call_index: int) -> int:
    """Non-negative program seed for one call; distinct per round and call."""
    return ((seed & 0xFFFFFFFF) << 24) | ((round_index & 0xFFFFF) << 4) | call_index


def round_rates(calls):
    """States per (scaled) second of each round, from the timings of its calls."""
    per_round = {}
    for c in calls:
        states, secs = per_round.get(c["round"], (0, 0.0))
        per_round[c["round"]] = (states + c["states"], secs + c["seconds"])
    return [states / secs for states, secs in per_round.values()]


def cli_round(seed: int, round_index: int) -> list:
    """The gdneg commands of one cli-cold round.

    Each entry is (label, argv, states, expect): `states` is the number of
    states the command carries through the measures, `expect` is "ok" (exit
    0) or "error" (exit 1 with a one-line error message). The three "error"
    commands do not depend on the seed.
    """
    cmds = [
        ("analyze-rho1", ["analyze", RHO1_FILE, "--json"], 1, "ok"),
        ("analyze-maximal", ["analyze", MAXIMAL_FILE, "--json"], 1, "ok"),
    ]
    for family, lo, hi, steps in SWEEPS:
        copies = ("a", "b") if family == "rho1" else ("a",)
        for copy in copies:
            out = f"r{round_index}-{family}-{copy}.csv"
            argv = ["sweep", "--family", family, "--from", repr(lo), "--to", repr(hi),
                    "--steps", str(steps), "--out", out, "--json"]
            cmds.append((f"sweep-{family}-{copy}", argv, steps, "ok"))
    m, n, count = CLI_SAMPLE
    cmds.append(("sample", ["sample", "--dims", f"{m}x{n}", "--count", str(count), "--seed",
                            str(call_seed(seed, round_index, 0)), "--json"], count, "ok"))
    m, n, count = CLI_VERIFY
    cmds.append(("verify", ["verify", "--dims", f"{m}x{n}", "--count", str(count), "--seed",
                            str(call_seed(seed, round_index, 1)), "--json"], count, "ok"))
    cmds += [
        ("bad-nan-file", ["analyze", NAN_FILE], 0, "error"),
        ("bad-negative-count", ["sample", "--dims", "2x3", "--count", "-5", "--seed", "1"],
         0, "error"),
        ("bad-negative-seed", ["sample", "--dims", "2x3", "--count", "10", "--seed", "-1"],
         0, "error"),
    ]
    return cmds


# Per-layer metrics of the traced run: (metric, unit, span, kind). The span is
# the wrapped function or class named module.attribute; the kind says how the
# spans of that name are reduced (see tracer.layer_metrics).
PER_LAYER = (
    ("io_cli.random_density_matrix.self_us_per_state", "us/state",
     "io_cli.random_density_matrix", "self_us_per_state"),
    ("io_cli.random_pure_state.self_us_per_state", "us/state",
     "io_cli.random_pure_state", "self_us_per_state"),
    ("io_cli.run_sample.self_us_per_state", "us/state", "io_cli.run_sample", "self_us_per_state"),
    ("states.DensityMatrix.self_us_per_state", "us/state",
     "states.DensityMatrix", "self_us_per_state"),
    ("matrixcore.partial_transpose.calls_per_state", "calls/state",
     "matrixcore.partial_transpose", "calls_per_state"),
    ("matrixcore.hermitian_eigenvalues.calls_per_state", "calls/state",
     "matrixcore.hermitian_eigenvalues", "calls_per_state"),
    ("matrixcore.hermitian_eigenvalues.self_us_per_state", "us/state",
     "matrixcore.hermitian_eigenvalues", "self_us_per_state"),
    ("matrixcore.hermiticity_defect.calls_per_state", "calls/state",
     "matrixcore.hermiticity_defect", "calls_per_state"),
    ("su_generators.basis_stack.calls_per_state", "calls/state",
     "su_generators.basis_stack", "calls_per_state"),
    ("bloch.decompose.self_us_per_state", "us/state", "bloch.decompose", "self_us_per_state"),
    ("bloch.g_matrix.self_us_per_state", "us/state", "bloch.g_matrix", "self_us_per_state"),
    ("measures.negativity.self_us_per_state", "us/state",
     "measures.negativity", "self_us_per_state"),
    ("measures.pt_negative_count.self_us_per_state", "us/state",
     "measures.pt_negative_count", "self_us_per_state"),
    ("measures.gd_lower_bound.self_us_per_state", "us/state",
     "measures.gd_lower_bound", "self_us_per_state"),
    ("measures.bounds_check.self_us_per_state", "us/state",
     "measures.bounds_check", "self_us_per_state"),
    ("measures.gd_bruteforce_2xn.ms_per_call", "ms/call",
     "measures.gd_bruteforce_2xn", "ms_per_call"),
    ("measures.gd_bruteforce_2xn.nelder_mead_nfev_per_call", "nfev/call",
     "measures.gd_bruteforce_2xn", "nfev_per_call"),
    ("measures.measurement_identity_check.self_us_per_call", "us/call",
     "measures.measurement_identity_check", "self_us_per_call"),
    ("measures.project_a.calls_per_state", "calls/state", "measures.project_a", "calls_per_state"),
    ("io_cli.run_verify.self_us_per_state", "us/state", "io_cli.run_verify", "self_us_per_state"),
    ("io_cli.main.self_ms_per_call", "ms/call", "io_cli.main", "self_ms_per_call"),
    ("io_cli.read_state.ms_per_call", "ms/call", "io_cli.read_state", "ms_per_call"),
    ("io_cli.sweep_rows.self_ms_per_call", "ms/call", "io_cli.sweep_rows", "self_ms_per_call"),
    ("io_cli.render_sweep_csv.ms_per_call", "ms/call", "io_cli.render_sweep_csv", "ms_per_call"),
    ("families.build.self_us_per_call", "us/call", "families.build", "self_us_per_call"),
    ("families.rho1_closed_forms.us_per_call", "us/call",
     "families.rho1_closed_forms", "us_per_call"),
)

# Per-layer metrics measured outside the spans: the setup layer, from
# `python -X importtime`, and the cost of tracing itself.
IMPORT_METRICS = (
    ("setup.import_gdneg_s", "s", "gdneg"),
    ("setup.import_scipy_optimize_s", "s", "scipy.optimize"),
)
TRACE_METRICS = (
    ("trace.states_per_s_untraced", "states/s"),
    ("trace.states_per_s_traced", "states/s"),
    ("trace.overhead_pct", "%"),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "states_per_s": "states/s",
    "cli_p50_s": "s",
    "peak_rss_mb": "MB",
}
