"""One workload in one fresh Python process, driven through gdneg's public functions.

    python3 bench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 --out FILE
    python3 bench/worker.py WORKLOAD --seed N --probe

The process imports gdneg, makes one untimed warm-up call into the
workload's entry point, prints `ready` and then the reference scale (see
reference.py) and, with --probe, exits there: run.py times process start
to `ready` as set-up. Otherwise it runs the
workload as a closed loop with one caller, in whole rounds, until --seconds
have passed, and writes the program's outputs and its timings as JSON to
--out. With --trace 1 every other round runs traced, so the tracing
overhead is measured in the same process under the same load.

Run it from a work directory: gdneg's verify writes its failure file there.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402


# Seconds of untimed reference work before timing a gdneg process: the
# worker has sat idle while the previous one ran.
PROCESS_WARM = 0.075


def timed(kind, warm, fn, *args, **kwargs):
    """fn's result and timings: seconds scaled by the `kind` reference mix
    (see reference.py), and raw wall seconds."""
    scale = reference.scale(kind, warm)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, {"seconds": wall * scale, "wall": wall}


def sample_round(io_cli, workload, seed, r, count=None):
    calls = []
    for j, (m, n, ensemble, default_count) in enumerate(spec.SAMPLE_CALLS[workload]):
        k = default_count if count is None else count
        s = spec.call_seed(seed, r, j)
        summary, times = timed("compute", 0.0, io_cli.run_sample, m, n, k, s, ensemble)
        calls.append({
            "round": r, "m": m, "n": n, "ensemble": ensemble, "count": k, "seed": s,
            "states": k, **times,
            "summary": {
                "dims": list(summary.dims), "count": summary.count,
                "violations": summary.violations, "max_gap": summary.max_gap,
                "min_gap": summary.min_gap, "bound_failures": summary.bound_failures,
            },
        })
    return calls


def verify_round(io_cli, workload, seed, r, count=None):
    calls = []
    for j, (m, n, default_count) in enumerate(spec.VERIFY_CALLS):
        k = default_count if count is None else count
        s = spec.call_seed(seed, r, j)
        report, times = timed("compute", 0.0, io_cli.run_verify, m, n, k, s,
                              oracle_subsample=k, resolution=io_cli.VERIFY_ORACLE_RESOLUTION)
        calls.append({"round": r, "m": m, "n": n, "count": k, "seed": s,
                      "states": k, "report": report, **times})
    return calls


def cli_round(seed, r, spans_prefix=None):
    """One cli-cold round; with `spans_prefix` each command runs traced through launch.py."""
    calls = []
    for label, argv, states, expect in spec.cli_round(seed, r):
        if spans_prefix is None:
            cmd = [sys.executable, "-m", "gdneg.io_cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launch.py"),
                   f"{spans_prefix}-r{r}-{label}.npz", *argv]
        proc, times = timed("import", PROCESS_WARM, subprocess.run, cmd, capture_output=True,
                            text=True, timeout=120)
        calls.append({"round": r, "label": label, "expect": expect, "states": states,
                      "returncode": proc.returncode, "stdout": proc.stdout,
                      "stderr": proc.stderr, **times})
    return calls


ROUNDS = {"sample-qubit": sample_round, "sample-qudit": sample_round,
          "verify-oracle": verify_round}


def run_rounds(step, seconds, multiple=1):
    """Whole rounds until `seconds` have passed and the count is a multiple of `multiple`."""
    calls = []
    r = 0
    deadline = time.perf_counter() + seconds
    while True:
        calls += step(r)
        r += 1
        if time.perf_counter() >= deadline and r % multiple == 0:
            return calls


def subsample(io_cli, measures, calls):
    """Round-0 prefix of each sample call, measured state by state through bounds_check."""
    for c in calls:
        if c["round"] != 0:
            continue
        reports = [measures.bounds_check(rho) for rho in io_cli.sample_states(
            c["m"], c["n"], spec.SUBSAMPLE, c["seed"], c["ensemble"])]
        c["subsample"] = {
            "negativity": [r.negativity for r in reports],
            "discord": [r.discord for r in reports],
            "pt_negative_count": [r.pt_negative_count for r in reports],
        }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans", help="with --trace 1, where the spans are written")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if not args.probe and (args.seconds is None or args.out is None):
        parser.error("--seconds and --out are required without --probe")

    import gdneg
    from gdneg import io_cli, measures

    src = os.environ.get("BENCH_SRC", "")
    if not src or not os.path.abspath(gdneg.__file__).startswith(src + os.sep):
        print(f"gdneg imported from {gdneg.__file__}, not from {src!r}", file=sys.stderr)
        return 3

    workload, seed = args.workload, args.seed
    if workload == "cli-cold":
        step = lambda r: cli_round(seed, r)  # noqa: E731
    else:
        round_fn = ROUNDS[workload]
        round_fn(io_cli, workload, seed, -1, count=spec.WARMUP_COUNT)
        step = lambda r: round_fn(io_cli, workload, seed, r)  # noqa: E731
    print("ready", flush=True)
    print(f"scale {reference.scale('import')!r}", flush=True)
    if args.probe:
        return 0
    if workload == "cli-cold":
        # The warm-up pass of a process workload: one CLI launch, untimed.
        subprocess.run([sys.executable, "-m", "gdneg.io_cli", "sample", "--dims", "2x2",
                        "--count", "1", "--seed", "0"], capture_output=True, timeout=120)

    result = {"workload": workload, "seed": seed, "trace": args.trace}
    if args.trace:
        # Odd rounds run traced and even rounds not, so both rates see the
        # same machine load.
        t = tracing.Tracer()
        prefix = os.path.join(os.getcwd(), "spans")

        def alternating(r):
            if r % 2 == 0:
                return step(r)
            if workload == "cli-cold":
                return cli_round(seed, r, prefix)
            undo = tracing.install(t)
            try:
                return step(r)
            finally:
                tracing.uninstall(undo)

        calls = run_rounds(alternating, args.seconds, multiple=2)
        traced = [c for c in calls if c["round"] % 2]
        if workload == "cli-cold":
            parts = [tracing.load(f"{prefix}-r{c['round']}-{c['label']}.npz") for c in traced]
            spans, names, counters = tracing.merge(parts)
        else:
            spans, names, counters = t.arrays(), t.names, t.counters
        states = sum(c["states"] for c in traced)
        result["per_layer"] = tracing.layer_metrics(spans, names, counters, states, spec.PER_LAYER)
        untraced = [c for c in calls if c["round"] % 2 == 0]
        result["trace_rates"] = [statistics.median(spec.round_rates(untraced)),
                                 statistics.median(spec.round_rates(traced))]
        tracing.save(args.spans, spans, names, counters)
    else:
        # A cli-cold round is 12 processes of about a second each, and one may
        # outlast --seconds on a slow machine: an even count of rounds keeps
        # cli_p50_s from ever being the median of a single round.
        calls = run_rounds(step, args.seconds, multiple=2 if workload == "cli-cold" else 1)

    if workload.startswith("sample-"):
        subsample(io_cli, measures, calls)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    result["maxrss_kb"] = resource.getrusage(usage).ru_maxrss
    result["calls"] = calls
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
