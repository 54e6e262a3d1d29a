"""gdneg benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gdneg is imported from its `src/`.
Workloads (see README.md): sample-qubit, sample-qudit, verify-oracle,
cli-cold. Each runs in its own fresh process with one BLAS/OpenMP thread.

With --trace 0 the last line carries the end-to-end metrics: setup_s,
states_per_s, cli_p50_s and peak_rss_mb, with every time scaled to a nominal
machine speed (see reference.py). With --trace 1 it carries the
per-layer metrics of a traced run, and the spans are kept under
`.bench_out/`. Either way every output is checked against bench/checker.py,
which does not use gdneg, and `correct`, `attempted` and `failed` report the
result. Exits 2 without a result when the checkout has no gdneg sources.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import spec  # noqa: E402

# Set-up is sampled this many times per run (the workload process and fresh
# probes) and reported as the median.
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Every process this run starts is killed once the run has taken this long.
RUN_TIMEOUT = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["BENCH_SRC"] = SRC
    return env


def remaining(args):
    return max(args.deadline - time.perf_counter(), 0.0)


def start_worker(args, workdir, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    # A process group of its own, so that a kill also reaches the gdneg processes
    # a cli-cold worker has started.
    proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    return proc, t0


def kill(proc, why):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    raise RuntimeError(why)


def read_line(args, proc):
    ready, _, _ = select.select([proc.stdout], [], [], remaining(args))
    line = proc.stdout.readline() if ready else ""
    if not line:
        kill(proc, "worker ended or hung before it was ready")
    return line.split()


def wait_ready(args, proc, t0):
    """Set-up time: launch until the worker prints `ready`, scaled by the
    reference scale the worker measures right after (see reference.py)."""
    while read_line(args, proc) != ["ready"]:
        pass
    seconds = time.perf_counter() - t0
    _, scale = read_line(args, proc)
    return seconds * float(scale)


def finish(args, proc):
    try:
        proc.communicate(timeout=remaining(args))
    except subprocess.TimeoutExpired:
        kill(proc, "worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def probe(args, workdir):
    proc, t0 = start_worker(args, workdir, ["--probe"])
    seconds = wait_ready(args, proc, t0)
    finish(args, proc)
    return seconds


def import_times(args):
    """Median cumulative import time of gdneg and scipy.optimize, from -X importtime.

    A package that `import gdneg` does not load reads 0.
    """
    samples = {pkg: [] for _, _, pkg in spec.IMPORT_METRICS}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gdneg"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=remaining(args), check=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {metric: {"value": statistics.median(samples[pkg] or [0.0]), "unit": unit}
            for metric, unit, pkg in spec.IMPORT_METRICS}


def cli_latencies(workload, calls):
    """Wall times whose median is cli_p50_s.

    On cli-cold, one per gdneg process. In process, one per round: the
    round's mean time per entry-point call, so that the median is not taken
    over a mix of call sizes.
    """
    if workload == "cli-cold":
        return [c["seconds"] for c in calls]
    per_round = {}
    for c in calls:
        per_round.setdefault(c["round"], []).append(c["seconds"])
    return [sum(times) / len(times) for times in per_round.values()]


def check(result, workdir, seed):
    """(problems, attempted, failed) for a worker result."""
    calls = result["calls"]
    problems, failed = [], 0
    if result["workload"].startswith("sample-"):
        for c in calls:
            problems += checker.check_sample_call(c)
            failed += c["summary"]["bound_failures"]
    elif result["workload"] == "verify-oracle":
        for c in calls:
            problems += checker.check_verify_report(c["report"], c["m"], c["n"], c["count"],
                                                    c["seed"], c["count"])
            failed += c["count"] - c["report"]["checked"]
    else:
        for r in sorted({c["round"] for c in calls}):
            procs = {c["label"]: c for c in calls if c["round"] == r}
            round_problems, round_failed = checker.check_cli_round(procs, workdir, seed, r)
            problems += round_problems
            failed += len(round_failed)
        return problems, len(calls), failed
    return problems, sum(c["states"] for c in calls), failed


def run(args, workdir):
    if args.workload == "cli-cold":
        checker.write_inputs(workdir)
    # Untimed: fills __pycache__ and the file cache before anything is timed.
    probe(args, workdir)

    out = os.path.join(workdir, "result.json")
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        extra += ["--spans", os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.npz")]
        metrics = import_times(args)
        setup = []
    else:
        setup = [probe(args, workdir) for _ in range(SETUP_SAMPLES - 1)]
    proc, t0 = start_worker(args, workdir, extra)
    setup.append(wait_ready(args, proc, t0))
    finish(args, proc)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)

    calls = result["calls"]
    if args.trace:
        metrics.update(result["per_layer"])
        untraced, traced = result["trace_rates"]
        units = dict(spec.TRACE_METRICS)
        for name, value in (("trace.states_per_s_untraced", untraced),
                            ("trace.states_per_s_traced", traced),
                            ("trace.overhead_pct", (untraced / traced - 1.0) * 100.0)):
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "states_per_s": statistics.median(spec.round_rates(calls)),
            "cli_p50_s": statistics.median(cli_latencies(result["workload"], calls)),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": spec.END_TO_END_UNITS[k]} for k, v in values.items()}

    problems, attempted, failed = check(result, workdir, args.seed)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_TIMEOUT

    if not os.path.isfile(os.path.join(SRC, "gdneg", "__init__.py")):
        print(f"error: no gdneg sources under {SRC}; run from a gdneg checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        summary = run(args, workdir)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
