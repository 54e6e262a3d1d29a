"""Run every benchmark workload and print its metrics by name, with units.

    python3 bench/suite.py                  # every workload on seeds 301 to 310
    python3 bench/suite.py --trace          # and one traced run per workload
    python3 bench/suite.py --twice          # two sets; do they agree within the bounds?
    python3 bench/suite.py --seeds 1,2,3    # other seeds

Each run is `bench/run.py` in a fresh process, one after another, so runs
never share the machine's two cores. The workloads, the run length and the
bounds come from BENCHMARK.json. For each end-to-end metric and workload the
table gives the median over seeds and the spread, the distance between the
first and third quartiles as a share of the median.

With --twice the suite runs the whole set twice and, for each metric and
workload, says whether the two medians differ by no more than the metric's
bound, in either direction, whether each set's spread (except setup_s's) stays
within the bound, and whether both sets failed the same share of operations.
Exits 1 when any run was incorrect or, with --twice, any pair disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workloads, seeds, seconds):
    """{workload: [result per seed]}, printing progress to stderr."""
    results = {}
    for w in workloads:
        for s in seeds:
            r = run_once(w, s, seconds, 0)
            print(f"  {w} seed {s}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr, flush=True)
            results.setdefault(w, []).append(r)
    return results


def print_set(results, end_to_end):
    ok = True
    for w, runs in results.items():
        correct = all(r["correct"] for r in runs)
        ok &= correct
        print(f"{w}: runs={len(runs)} correct={correct} "
              f"attempted={sum(r['attempted'] for r in runs)} "
              f"failed={sum(r['failed'] for r in runs)}")
        for m in end_to_end:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            print(f"  {m['name']:14s} {statistics.median(values):12.6g} {m['unit']:9s} "
                  f"spread {spread(values):6.1%}  "
                  f"(bound {m['bound']:.0%}, {m['better']} is better)")
    return ok


def compare(first, second, end_to_end):
    """Print whether two sets agree within the bounds; returns True when all do."""
    ok = True
    print("workload        metric          first median  second median  differ by "
          "spread 1  spread 2  bound  verdict")
    for w in first:
        share = {r["failed"] / r["attempted"] for r in first[w] + second[w]}
        for m in end_to_end:
            a = [r["metrics"][m["name"]]["value"] for r in first[w]]
            b = [r["metrics"][m["name"]]["value"] for r in second[w]]
            ma, mb = statistics.median(a), statistics.median(b)
            differ = abs(mb - ma) / ma
            spreads_ok = m["name"] == "setup_s" or max(spread(a), spread(b)) <= m["bound"]
            agree = differ <= m["bound"] and spreads_ok
            ok &= agree
            print(f"{w:15s} {m['name']:14s} {ma:13.6g} {mb:14.6g} {differ:9.1%} "
                  f"{spread(a):9.1%} {spread(b):9.1%} {m['bound']:6.0%}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        same_share = len(share) == 1
        ok &= same_share
        print(f"{w:15s} failed share {'identical' if same_share else 'DIFFERS'}: "
              f"{sorted(share)}")
    return ok


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(301, 311)))
    parser.add_argument("--trace", action="store_true", help="also one traced run per workload")
    parser.add_argument("--twice", action="store_true", help="run two sets and compare them")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    first = run_set(workloads, seeds, seconds)
    ok = print_set(first, bench["end_to_end"])
    if args.twice:
        second = run_set(workloads, seeds, seconds)
        print("second set:")
        ok &= print_set(second, bench["end_to_end"])
        ok &= compare(first, second, bench["end_to_end"])
    if args.trace:
        for w in workloads:
            r = run_once(w, seeds[0], seconds, 1)
            ok &= r["correct"]
            print(f"{w} traced, seed {seeds[0]}: correct={r['correct']}")
            for name, metric in r["metrics"].items():
                print(f"  {name:55s} {metric['value']:12.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
