"""Command-line front end and flat-file formats.

Commands:
    analyze <file>          measures and bound verdicts for a state file
    sweep --family ...      family parameter sweep emitted as CSV figure data
    sample --dims MxN ...   Monte-Carlo sampling with a violation tally
    verify --dims MxN ...   identity/bound verification over random states

State files are JSON documents tagged "gdneg-state/1" holding the dimensions
and the row-major matrix entries as [re, im] pairs. CSV and report numbers
are printed with shortest round-trip formatting, so identical inputs and
seeds give byte-identical output. Randomness comes from numpy's seedable
PCG64 generator; counts are reproducible only under the same generator.

`sample`, `verify` and `sweep` draw, validate and measure states in chunks:
stacks of at most CHUNK_ENTRIES matrix entries, measured by one kernel call
each. A chunk draws its states from the generator in one call, in the same
order as drawing them one at a time, so the state stream of a seed is the
same as with per-state drawing, and so are counts and verdicts. Negative
counts and seeds are rejected as InvalidRange.

Exit codes: 0 success, 1 validation failure, 2 bound/theorem violation
(numerical fault).
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BoundViolation,
    CapViolation,
    InvalidDimension,
    InvalidRange,
    InvalidState,
    ParseError,
    UnknownFamily,
)
from .families import FAMILY_NAMES, FamilySpec, build, rho1_closed_forms
from .measures import (
    DensityMatrix,
    PureState,
    _measure_stack,
    bounds_check,
    gd_bruteforce_2xn,
    measurement_identity_check,
)
from .states import first_invalid_state, first_invalid_vector
from .tolerances import VERIFY_ORACLE_ATOL, VIOLATION_EPS

STATE_FORMAT = "gdneg-state/1"

ENSEMBLES = ("hilbert-schmidt", "pure")

VERIFY_FAILURE_FILE = "gdneg-verify-failure.json"
VERIFY_ORACLE_SUBSAMPLE = 20
VERIFY_ORACLE_RESOLUTION = 24

# States are measured in stacks of at most this many matrix entries: enough
# states to spread the per-call cost of the kernel, few enough to keep the
# working set, and peak memory, flat at every dimension.
CHUNK_ENTRIES = 8192


def _chunk_size(d: int) -> int:
    return max(1, CHUNK_ENTRIES // (d * d))


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# State files


def write_state(path, rho: DensityMatrix) -> None:
    """Serialize a density matrix to a JSON state file."""
    entries = [[float(z.real), float(z.imag)] for z in rho.mat.ravel()]
    doc = {"format": STATE_FORMAT, "m": rho.m, "n": rho.n, "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_state(path) -> DensityMatrix:
    """Parse and validate a state file.

    Structural problems raise ParseError; a well-formed matrix that fails a
    density-matrix invariant raises InvalidState naming the invariant and its
    measured residual.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise ParseError(f"{path}: missing or unrecognized format tag "
                         f"(expected {STATE_FORMAT!r})")
    try:
        m = int(doc["m"])
        n = int(doc["n"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed m/n/entries fields") from exc
    if m < 1 or n < 1:
        raise ParseError(f"{path}: dimensions must be positive, got {m}x{n}")
    d = m * n
    if not isinstance(entries, list) or len(entries) != d * d:
        raise ParseError(
            f"{path}: expected {d * d} entries for a {m}x{n} state, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    try:
        flat = [complex(float(re), float(im)) for re, im in entries]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: entries must be [re, im] number pairs") from exc
    mat = np.array(flat, dtype=complex).reshape(d, d)
    return DensityMatrix(m, n, mat)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepRow:
    """One parameter point of a family sweep."""

    param: float
    discord: float
    negativity_sq: float
    gap: float
    closed_form_discord: float | None = None
    closed_form_negativity_sq: float | None = None


def sweep_rows(
    family: str,
    lo: float,
    hi: float,
    steps: int,
    allow_out_of_range: bool = False,
) -> list[SweepRow]:
    """Measures at uniform parameter steps; closed-form columns for rho1.

    For rho1 the parameter is c = a/b at b = 1.
    """
    if family not in FAMILY_NAMES:
        raise UnknownFamily(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    if steps < 1:
        raise InvalidRange(f"steps must be at least 1, got {steps}")
    if hi < lo:
        raise InvalidRange(f"empty sweep range [{lo}, {hi}]")
    if steps == 1:
        params = [lo]
    else:
        params = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    rows = []
    size = _chunk_size(6)
    for start in range(0, len(params), size):
        chunk = params[start : start + size]
        specs = [FamilySpec(family, (p, 1.0) if family == "rho1" else (p,)) for p in chunk]
        mats = np.array([build(s, allow_out_of_range=allow_out_of_range).mat for s in specs])
        measured = _measure_stack(mats, 2, 3)
        if not measured.ok.all():
            measured.raise_fault(int(np.argmin(measured.ok)))
        columns = zip(chunk, measured.negativity, measured.discord, measured.gap)
        for param, neg, disc, gap in columns:
            cf_disc = cf_neg_sq = None
            if family == "rho1":
                cf_neg_sq, cf_disc = rho1_closed_forms(param, 1.0)
            rows.append(
                SweepRow(
                    param=param,
                    discord=float(disc),
                    negativity_sq=float(neg) * float(neg),
                    gap=float(gap),
                    closed_form_discord=cf_disc,
                    closed_form_negativity_sq=cf_neg_sq,
                )
            )
    return rows


def render_sweep_csv(rows: list[SweepRow]) -> str:
    with_closed = rows and rows[0].closed_form_discord is not None
    header = "param,discord,negativity_sq,gap"
    if with_closed:
        header += ",closed_form_discord,closed_form_negativity_sq"
    lines = [header]
    for row in rows:
        cells = [_fmt(row.param), _fmt(row.discord), _fmt(row.negativity_sq), _fmt(row.gap)]
        if with_closed:
            cells += [_fmt(row.closed_form_discord), _fmt(row.closed_form_negativity_sq)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random state generation


def _hs_stack(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k Hilbert-Schmidt states G G^dag / Tr(G G^dag) as a (k, d, d) stack."""
    z = rng.standard_normal((k, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    mats = g @ g.conj().transpose(0, 2, 1)
    return mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None]


def _unit_vectors(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k normalized complex Gaussian vectors as a (k, d) array."""
    z = rng.standard_normal((k, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    # One norm per vector, so each is rounded exactly as for a lone vector.
    return v / np.array([np.linalg.norm(row) for row in v])[:, None]


def random_density_matrix(m: int, n: int, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt-distributed state: G G^dag / Tr(G G^dag), G square Ginibre."""
    return DensityMatrix(m, n, _hs_stack(m * n, 1, rng)[0])


def random_pure_state(m: int, n: int, rng: np.random.Generator) -> PureState:
    """Normalized complex Gaussian vector."""
    return PureState(m, n, _unit_vectors(m * n, 1, rng)[0])


def _state_stacks(m: int, n: int, count: int, seed: int, ensemble: str):
    """The state stream of a seed as validated (k, mn, mn) stacks.

    Arguments are checked before this returns. A state that fails validation
    ends the stream as it would one drawn and validated alone: the states
    before it are yielded, then its InvalidState is raised.
    """
    if not 2 <= m <= n:
        raise InvalidDimension(f"sampling requires 2 <= m <= n, got {m}x{n}")
    if ensemble not in ENSEMBLES:
        raise InvalidRange(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")
    if count < 0:
        raise InvalidRange(f"count must be non-negative, got {count}")
    if seed < 0:
        raise InvalidRange(f"seed must be non-negative, got {seed}")
    return _draw_stacks(m * n, count, np.random.default_rng(seed), ensemble)


def _draw_stacks(d: int, count: int, rng: np.random.Generator, ensemble: str):
    size = _chunk_size(d)
    for start in range(0, count, size):
        k = min(size, count - start)
        invalid = None
        if ensemble == "pure":
            vs = _unit_vectors(d, k, rng)
            invalid = first_invalid_vector(vs)
            mats = vs[:, :, None] * vs.conj()[:, None, :]
        else:
            mats = _hs_stack(d, k, rng)
        end = k if invalid is None else invalid[0]
        invalid = first_invalid_state(mats[:end]) or invalid
        if invalid is not None:
            if invalid[0]:
                yield mats[: invalid[0]]
            raise InvalidState(invalid[1])
        yield mats


def sample_states(m: int, n: int, count: int, seed: int, ensemble: str):
    """Deterministic stream of `count` random states for the given seed."""
    for mats in _state_stacks(m, n, count, seed, ensemble):
        for mat in mats:
            yield DensityMatrix(m, n, mat)


@dataclass(frozen=True)
class SampleSummary:
    """Aggregates of one sampling run; bound_failures must be 0."""

    dims: tuple
    count: int
    seed: int
    ensemble: str
    violations: int
    max_gap: float | None
    min_gap: float | None
    bound_failures: int


def run_sample(m: int, n: int, count: int, seed: int, ensemble: str) -> SampleSummary:
    violations = 0
    bound_failures = 0
    max_gap = min_gap = None
    for mats in _state_stacks(m, n, count, seed, ensemble):
        measured = _measure_stack(mats, m, n)
        for i in np.flatnonzero(~measured.ok):
            try:
                measured.raise_fault(i)
            except (BoundViolation, CapViolation):
                bound_failures += 1
        gaps = measured.gap[measured.ok]
        if gaps.size == 0:
            continue
        violations += int(np.sum(gaps > VIOLATION_EPS))
        hi, lo = float(gaps.max()), float(gaps.min())
        max_gap = hi if max_gap is None else max(max_gap, hi)
        min_gap = lo if min_gap is None else min(min_gap, lo)
    return SampleSummary(
        dims=(m, n),
        count=count,
        seed=seed,
        ensemble=ensemble,
        violations=violations,
        max_gap=max_gap,
        min_gap=min_gap,
        bound_failures=bound_failures,
    )


# ---------------------------------------------------------------------------
# Verification runs


def run_verify(
    m: int,
    n: int,
    count: int,
    seed: int,
    oracle_subsample: int = VERIFY_ORACLE_SUBSAMPLE,
    resolution: int = VERIFY_ORACLE_RESOLUTION,
) -> dict:
    """Check theorem identities and bounds on `count` Hilbert-Schmidt states.

    Per state: the two negativity expressions must agree, the partial
    transpose negative-eigenvalue count must respect its cap, and the measure
    bounds must hold (all enforced by the measures kernel, a chunk of states
    at a time, and reported at the first failing state). For m = 2
    the measurement trace identity is checked at a random direction, and the
    brute-force discord oracle is compared against the formula on the first
    `oracle_subsample` states.

    Returns a report dict; on failure it carries the failing state serialized
    to a file for reproduction.
    """
    stacks = _state_stacks(m, n, count, seed, "hilbert-schmidt")
    rng = np.random.default_rng(seed)
    run = {"dims": [m, n], "count": count, "seed": seed}
    checked = 0
    violations = 0
    oracle_checked = 0
    max_oracle_dev = 0.0
    for mats in stacks:
        measured = _measure_stack(mats, m, n)
        for i, mat in enumerate(mats):
            try:
                measured.raise_fault(i)
                if m == 2:
                    rho = DensityMatrix(m, n, mat)
                    u = rng.standard_normal(3)
                    measurement_identity_check(rho, u)
                    if oracle_checked < oracle_subsample:
                        brute = gd_bruteforce_2xn(rho, resolution=resolution)
                        dev = abs(brute - float(measured.discord[i]))
                        max_oracle_dev = max(max_oracle_dev, dev)
                        oracle_checked += 1
                        if dev > VERIFY_ORACLE_ATOL:
                            raise BoundViolation(
                                f"oracle deviation {dev!r} exceeds {VERIFY_ORACLE_ATOL}"
                            )
            except (BoundViolation, CapViolation) as exc:
                write_state(VERIFY_FAILURE_FILE, DensityMatrix(m, n, mat))
                return {
                    **run,
                    "checked": checked,
                    "passed": False,
                    "failure": str(exc),
                    "failure_state_file": VERIFY_FAILURE_FILE,
                }
            if measured.gap[i] > VIOLATION_EPS:
                violations += 1
            checked += 1
    return {
        **run,
        "checked": checked,
        "passed": True,
        "violations": violations,
        "oracle_states_checked": oracle_checked,
        "max_oracle_deviation": max_oracle_dev,
    }


# ---------------------------------------------------------------------------
# Commands


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_analyze(args) -> int:
    rho = read_state(args.file)
    report = bounds_check(rho)
    if args.json:
        _print_json({**asdict(report), "m": rho.m, "n": rho.n})
        return 0
    exactness = "exact" if report.discord_exact else "lower bound"
    print(f"state:             {rho.m}x{rho.n} ({args.file})")
    print(f"negativity:        {_fmt(report.negativity)}")
    print(f"negativity_sq:     {_fmt(report.negativity_sq)}")
    print(f"discord:           {_fmt(report.discord)} ({exactness})")
    print(f"gap (N^2 - D):     {_fmt(report.gap)}")
    print(f"pt_negative_count: {report.pt_negative_count} (cap {report.pt_negative_cap})")
    print(f"bounds_ok:         {report.bounds_ok}")
    return 0


def cmd_sweep(args) -> int:
    rows = sweep_rows(
        args.family, args.lo, args.hi, args.steps, allow_out_of_range=args.allow_out_of_range
    )
    csv_text = render_sweep_csv(rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)
    if args.json:
        _print_json({"family": args.family, "rows": len(rows), "out": args.out})
    else:
        print(f"wrote {len(rows)} rows for {args.family} to {args.out}")
    return 0


def cmd_sample(args) -> int:
    m, n = args.dims
    summary = run_sample(m, n, args.count, args.seed, args.ensemble)
    if args.json:
        _print_json(asdict(summary))
    else:
        print(f"dims:           {summary.dims[0]}x{summary.dims[1]}")
        print(f"count:          {summary.count}")
        print(f"seed:           {summary.seed}")
        print(f"ensemble:       {summary.ensemble}")
        print(f"violations:     {summary.violations}")
        print(f"max_gap:        {'n/a' if summary.max_gap is None else _fmt(summary.max_gap)}")
        print(f"min_gap:        {'n/a' if summary.min_gap is None else _fmt(summary.min_gap)}")
        print(f"bound_failures: {summary.bound_failures}")
    return 2 if summary.bound_failures else 0


def cmd_verify(args) -> int:
    m, n = args.dims
    report = run_verify(m, n, args.count, args.seed)
    if args.json:
        _print_json(report)
    else:
        print(f"verify {m}x{n}: count={report['count']} seed={report['seed']}")
        if report["passed"]:
            print(f"  states checked:        {report['checked']}")
            print(f"  gap > 0 states:        {report['violations']}")
            print(f"  oracle states checked: {report['oracle_states_checked']}")
            print(f"  max oracle deviation:  {_fmt(report['max_oracle_deviation'])}")
            print("PASS")
        else:
            print(f"  states checked before failure: {report['checked']}")
            print(f"  failure: {report['failure']}")
            print(f"  failing state written to {report['failure_state_file']}")
            print("FAIL")
    return 0 if report["passed"] else 2


# ---------------------------------------------------------------------------
# Argument parsing


def _dims(text: str) -> tuple:
    try:
        m_text, n_text = text.lower().split("x")
        m, n = int(m_text), int(n_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected MxN, e.g. 2x3, got {text!r}") from exc
    return (m, n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdneg",
        description="Geometric discord and negativity for bipartite quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="measure a state from a state file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="family parameter sweep to CSV")
    p_sweep.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_sweep.add_argument("--from", dest="lo", type=float, required=True)
    p_sweep.add_argument("--to", dest="hi", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--allow-out-of-range", action="store_true")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sample = sub.add_parser("sample", help="Monte-Carlo sampling of random states")
    p_sample.add_argument("--dims", type=_dims, required=True)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--ensemble", choices=ENSEMBLES, default="hilbert-schmidt")
    p_sample.add_argument("--json", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="verify identities/bounds on random states")
    p_verify.add_argument("--dims", type=_dims, required=True)
    p_verify.add_argument("--count", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        InvalidState,
        InvalidRange,
        UnknownFamily,
        InvalidDimension,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BoundViolation, CapViolation) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
