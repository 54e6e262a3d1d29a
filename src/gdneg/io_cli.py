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
`analyze --json` and `sample --json` print the field dict, `vars`, of their
report record, with sorted keys.

`sample`, `verify` and `sweep` draw or build, validate and measure states in
chunks of at most CHUNK_ENTRIES matrix entries, each validated by one gate
and measured by one kernel call. Pure draws stay unit vectors: a pure chunk
holds up to CHUNK_ENTRIES vector entries, c min(d, c) vectors with c =
`_chunk_size(d)`, and is measured from their Schmidt coefficients, with one
kernel call on the projectors of every c-th state as a cross-check. Random
states are drawn in the order of one at a time, so a seed's state stream,
counts and verdicts are as with per-state drawing. A sweep chunk's members
are built from the index of its first row and gated by one `families` call,
and its CSV lines are written once it is measured, so a sweep's memory does
not grow with `--steps` (see `_write_whole`). Negative counts and seeds, and
sweep ranges with a non-finite bound or width or whose steps overflow, a
`--steps` beyond float range included, are rejected as InvalidRange. A state
with m * n > MAX_STATE_DIM (90), which does not fit in one chunk, is
rejected as InvalidDimension by `sample`, `verify` and `read_state` before
numpy loads.

Nothing numeric loads at import: this module and the package `__init__`
import no numpy and no layer, and its records are `errors.Record`s, which
import nothing more. Each command imports numpy and the layers it computes
with only once its numpy-free checks have passed (argparse's, the state
file's structure and size and the range and finiteness of its entries, which
`float()` converts in one pass, a sweep's range, a sample's or a verify's
dimensions, ensemble, count and seed). So `--help`, a usage error, a rejected
argument and a state file nested too deeply, too large or with a NaN,
infinite or out-of-range entry exit before numpy loads; `analyze` loads
numpy, `states` and `measures`, `sweep` those and `families`, which no other
command loads, and `sample` and `verify` load `measures` and, when their
stream of states starts, `numpy.random`, which `analyze` and `sweep` never
load.

A process enters through `entry`: the `gdneg` script and `python -m
gdneg.io_cli` both call it. Once `main` returns, it freezes the heap, so the
full collections CPython makes at exit no longer walk the objects that the
command's imports left (about 22,000 once numpy and gdneg have loaded). No
command makes a full collection before it returns, so one freeze after `main`
covers whatever the command imported, and changes no output, exit code or
file. `main` itself leaves the collector alone.

Exit codes: 0 success, 1 validation failure or usage error, 2 bound/theorem
violation (numerical fault), 130 interrupted (Ctrl-C).
"""

import argparse
import gc
import json
import math
import os
import re
import sys

from .errors import (
    FAMILY_NAMES,
    NON_FINITE_ENTRIES,
    BoundViolation,
    CapViolation,
    Check,
    InvalidDimension,
    InvalidRange,
    InvalidState,
    ParseError,
    Record,
    UnknownFamily,
    first_fault,
)
from .tolerances import VERIFY_ORACLE_ATOL, VIOLATION_EPS

STATE_FORMAT = "gdneg-state/1"

ENSEMBLES = ("hilbert-schmidt", "pure")

VERIFY_FAILURE_FILE = "gdneg-verify-failure.json"
VERIFY_ORACLE_SUBSAMPLE = 20
VERIFY_ORACLE_RESOLUTION = 24  # ignored by the oracle; see `run_verify`

# States are measured in stacks of at most this many matrix entries: enough
# states to spread the per-call cost of the kernel, few enough to keep the
# working set, and peak memory, flat at every dimension. A state that does not
# fit in one chunk, m * n > MAX_STATE_DIM, is rejected before numpy loads.
CHUNK_ENTRIES = 8192
MAX_STATE_DIM = math.isqrt(CHUNK_ENTRIES)  # 90


def _chunk_size(d: int) -> int:
    return CHUNK_ENTRIES // (d * d)


def _check_fits(m: int, n: int) -> None:
    """InvalidDimension unless one m x n state fits in a chunk of CHUNK_ENTRIES entries."""
    if m * n > MAX_STATE_DIM:
        raise InvalidDimension(f"{m}x{n} states do not fit in one chunk of {CHUNK_ENTRIES} "
                               f"entries: m*n must be at most {MAX_STATE_DIM}")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# The chunk loop of sample, verify and sweep


def _measured(chunks, m: int, n: int):
    """For each validated stack: the index of its first state, the stack, and its
    measures, by `_measure_pure_stack` for a (k, mn) stack of unit vectors, which
    cross-checks every `_chunk_size(mn)`-th state, and by `_measure_stack` for a
    (k, mn, mn) stack of states. Each caller walks the checks with its own fault
    policy.

    The measures layer is imported before the first chunk is drawn or built, so
    a cold `sample` or `verify` loads it before `numpy.random` (see `_draw_stacks`).
    """
    from .measures import _measure_pure_stack, _measure_stack

    every = _chunk_size(m * n)
    start = 0
    for stack in chunks:
        measured = (_measure_pure_stack(stack, m, n, every) if stack.ndim == 2
                    else _measure_stack(stack, m, n))
        yield start, stack, measured
        start += len(stack)


class _GapTally:
    """The gaps N^2 - D of passed states: how many exceed VIOLATION_EPS, and the
    largest and the smallest (None before any)."""

    violations = 0
    max_gap = min_gap = None

    def add(self, gaps) -> None:
        self.violations += int((gaps > VIOLATION_EPS).sum())
        if gaps.size:
            hi, lo = float(gaps.max()), float(gaps.min())
            self.max_gap = hi if self.max_gap is None else max(self.max_gap, hi)
            self.min_gap = lo if self.min_gap is None else min(self.min_gap, lo)


# ---------------------------------------------------------------------------
# State files


def write_state(path, rho: "DensityMatrix") -> None:
    """Serialize a density matrix to a JSON state file."""
    entries = [[float(z.real), float(z.imag)] for z in rho.mat.ravel()]
    doc = {"format": STATE_FORMAT, "m": rho.m, "n": rho.n, "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_state(path) -> "DensityMatrix":
    """Parse and validate a state file.

    Structural problems, nesting too deep for the json parser, an integer of
    more digits than it converts (sys.get_int_max_str_digits()) and an integer
    entry beyond float range included, raise ParseError, dimensions with m * n
    > MAX_STATE_DIM raise InvalidDimension and a non-finite entry (NaN,
    Infinity, or a number such as 1e999 that json reads as infinite) raises
    InvalidState, all before numpy loads; a well-formed, finite matrix that
    fails a density-matrix invariant raises InvalidState naming the invariant
    and its measured residual.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: not valid JSON (nested too deeply)") from exc
    except ValueError as exc:  # after its subclasses: a too long integer
        raise ParseError(f"{path}: integer too long to parse ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise ParseError(f"{path}: missing or unrecognized format tag "
                         f"(expected {STATE_FORMAT!r})")
    m, n, entries = doc.get("m"), doc.get("n"), doc.get("entries")
    if type(m) is not int or type(n) is not int:  # bool, float and str are not dimensions
        raise ParseError(f"{path}: m and n must be JSON integers, got {m!r} and {n!r}")
    if m < 1 or n < 1:
        raise ParseError(f"{path}: dimensions must be positive, got {m}x{n}")
    _check_fits(m, n)
    d = m * n
    if not isinstance(entries, list) or len(entries) != d * d:
        raise ParseError(
            f"{path}: expected {d * d} entries for a {m}x{n} state, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    if not all(type(e) is list and len(e) == 2 and {type(x) for x in e} <= {int, float}
               for e in entries):  # json gives bool for true/false, str for "6"
        raise ParseError(f"{path}: entries must be [re, im] pairs of JSON numbers")
    try:  # an integer beyond float range; json reads NaN, Infinity and 1e999 as floats
        values = [float(x) for e in entries for x in e]
    except OverflowError as exc:
        raise ParseError(f"{path}: entry out of float range ({exc})") from exc
    if not all(map(math.isfinite, values)):
        raise InvalidState(NON_FINITE_ENTRIES)
    import numpy as np

    from .states import DensityMatrix

    return DensityMatrix(m, n, np.array(values).view(complex).reshape(d, d))


# ---------------------------------------------------------------------------
# Sweeps


def sweep_rows(family: str, lo: float, hi: float, steps: int, allow_out_of_range: bool = False):
    """The CSV lines of a sweep, header first: the measures at `steps` uniform
    parameter steps from `lo` to `hi`, with closed-form columns for rho1, whose
    parameter is c = a/b at b = 1. The arguments are checked on the call, before
    numpy loads; the lines are then built and measured a chunk at a time as they
    are read, and a failing member ends them with its error.
    """
    if family not in FAMILY_NAMES:
        raise UnknownFamily(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    if steps < 1:
        raise InvalidRange(f"steps must be at least 1, got {steps}")
    if not math.isfinite(hi - lo):  # else the step lo + 0 * (hi - lo) is NaN
        raise InvalidRange(f"sweep range [{lo}, {hi}] has a non-finite bound or width")
    try:
        last = (steps - 1) * (hi - lo)  # the largest product the steps form
    except OverflowError:  # steps - 1 is beyond float range
        last = math.inf
    if not math.isfinite(last):
        raise InvalidRange(f"sweep range [{lo}, {hi}] overflows in {steps} steps")
    if hi < lo:
        raise InvalidRange(f"empty sweep range [{lo}, {hi}]")
    return _sweep_lines(family, lo, hi, steps, allow_out_of_range)


def _sweep_lines(family: str, lo: float, hi: float, steps: int, allow_out_of_range: bool):
    import numpy as np

    from .families import _rho1_entries, member_stack, template_closed_forms

    size = _chunk_size(6)

    def params(start):  # the same IEEE operations, in the same order, as on Python floats
        i = np.arange(start, min(start + size, steps))
        return lo + i * (hi - lo) / (steps - 1) if steps > 1 else np.array([lo])

    closed = ",closed_form_discord,closed_form_negativity_sq" if family == "rho1" else ""
    yield f"param,discord,negativity_sq,gap{closed}\n"
    chunks = (member_stack(family, np.stack([c, np.ones_like(c)] if closed else [c], axis=1),
                           allow_out_of_range) for c in map(params, range(0, steps, size)))
    for start, _, measured in _measured(chunks, 2, 3):
        fault = first_fault(measured.checks)
        if fault is not None:
            raise fault[1]
        c, neg = params(start), measured.negativity
        columns = [c, measured.discord, neg * neg, measured.gap]
        if closed:  # one array call per chunk; (N^2, D) printed as D, N^2
            columns += template_closed_forms(*_rho1_entries(c, np.ones_like(c)))[::-1]
        for row in zip(*(column.tolist() for column in columns)):
            yield ",".join(map(repr, row)) + "\n"


# ---------------------------------------------------------------------------
# Random state generation


def _hs_stack(d: int, k: int, rng: "np.random.Generator") -> "np.ndarray":
    """k Hilbert-Schmidt states G G^dag / Tr(G G^dag) as a (k, d, d) stack.

    G is written part by part and the trace divided out in place, which
    rounds exactly as z[:, 0] + 1j * z[:, 1] and a division would.
    """
    import numpy as np

    z = rng.standard_normal((k, 2, d, d))
    g = np.empty((k, d, d), dtype=complex)
    g.real = z[:, 0]
    g.imag = z[:, 1]
    mats = g @ g.conj().transpose(0, 2, 1)
    mats /= mats.trace(axis1=1, axis2=2).real[:, None, None]
    return mats


def _unit_vectors(d: int, k: int, rng: "np.random.Generator") -> "np.ndarray":
    """k normalized complex Gaussian vectors as a (k, d) array."""
    import numpy as np

    z = rng.standard_normal((k, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    return v / np.sqrt((v.conj() * v).real.sum(axis=1))[:, None]  # np.linalg.norm's recipe


def _state_chunks(m: int, n: int, count: int, seed: int, ensemble: str):
    """The state stream of a seed as validated stacks: (k, mn, mn) density
    matrices, or, for the pure ensemble, (k, mn) unit vectors.

    Arguments are checked before this returns. A state that fails validation
    ends the stream as it would one drawn and validated alone: the states
    before it are yielded, then its InvalidState is raised.
    """
    if not 2 <= m <= n:
        raise InvalidDimension(f"sampling requires 2 <= m <= n, got {m}x{n}")
    _check_fits(m, n)
    if ensemble not in ENSEMBLES:
        raise InvalidRange(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")
    if count < 0:
        raise InvalidRange(f"count must be non-negative, got {count}")
    if seed < 0:
        raise InvalidRange(f"seed must be non-negative, got {seed}")
    return _draw_stacks(m * n, count, seed, ensemble)


def _draw_stacks(d: int, count: int, seed, ensemble: str):
    """Chunks of the stream as validated stacks, each checked by its ensemble's one
    validator: for the Hilbert-Schmidt ensemble, the Hermitian parts its gate
    formed. `seed` is what `np.random.default_rng` takes, a Generator included.

    Pure draws stay vectors, checked as such: a finite unit vector's projector is
    Hermitian to entry rounding, has trace ||v||^2 within TRACE_ATOL of 1 and
    has rank 1. A pure chunk holds c min(d, c) vectors, c = `_chunk_size(d)`, so
    at most CHUNK_ENTRIES vector entries, and the projectors of its every c-th
    state, which `_measured` cross-checks, at most CHUNK_ENTRIES matrix entries.
    Each full pure chunk is a multiple of c states, so a chunk's c-th states are
    the stream's.

    The random generator is made, so `numpy.random` loaded, when the stream
    starts, after the caller has imported the layers it measures with: compiling
    them on top of the heap `numpy.random` leaves raised the peak RSS of a cold
    `sample` or `verify` by about 0.7 MB.
    """
    import numpy as np

    from .states import _gate, first_invalid_vector

    rng = np.random.default_rng(seed)
    size = _chunk_size(d)
    if ensemble == "pure":
        size *= min(d, size)
    for start in range(0, count, size):
        k = min(size, count - start)
        if ensemble == "pure":
            stack = _unit_vectors(d, k, rng)
            invalid = first_invalid_vector(stack)
        else:
            invalid, stack = _gate(_hs_stack(d, k, rng))
        if invalid is not None:
            if invalid[0]:
                yield stack[: invalid[0]]
            raise invalid[1]
        yield stack


def sample_states(m: int, n: int, count: int, seed: int, ensemble: str):
    """Deterministic stream of `count` random states for the given seed.

    Each state is a DensityMatrix; a pure draw is its projector, formed as it is
    yielded.
    """
    from .measures import _projectors
    from .states import DensityMatrix

    for stack in _state_chunks(m, n, count, seed, ensemble):
        for row in stack:
            yield DensityMatrix(m, n, _projectors(row) if ensemble == "pure" else row)


class SampleSummary(Record):
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
    return _sample(m, n, count, seed, ensemble)[0]


def _sample(m: int, n: int, count: int, seed: int, ensemble: str):
    """`run_sample`'s summary, and the first failing state's index and error, or None."""
    chunks = _state_chunks(m, n, count, seed, ensemble)
    tally = _GapTally()
    bound_failures = 0
    fault = None
    for start, _, measured in _measured(chunks, m, n):
        ok = measured.ok
        failures = len(ok) - int(ok.sum())
        if failures and fault is None:
            i, error = first_fault(measured.checks)
            fault = start + i, error
        bound_failures += failures
        tally.add(measured.gap[ok] if failures else measured.gap)
    summary = SampleSummary(dims=(m, n), count=count, seed=seed, ensemble=ensemble,
                            violations=tally.violations, max_gap=tally.max_gap,
                            min_gap=tally.min_gap, bound_failures=bound_failures)
    return summary, fault


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

    Per state, in this order: the checks of the measures kernel (the two
    negativity expressions agree, the PT negative count respects its cap,
    the measure bounds and the classical-quantum distance bound hold); for
    m = 2 the measurement identities at a random direction, and on the first
    `oracle_subsample` states the brute-force oracle within VERIFY_ORACLE_ATOL
    of the formula (a NaN deviation fails). One `errors.first_fault` call per chunk finds the first
    failing state. A state is built as a DensityMatrix only to write the
    failure file.

    The identity directions are drawn from `default_rng(seed)`, the state
    stream's own seed, so direction i is the normals 3i..3i+2 of the draws
    that built the first states. No verdict depends on this: the identities
    hold for every direction.

    Returns a report dict; on failure it carries the failing state serialized
    to a file for reproduction.

    `resolution` is ignored: the oracle climbs the sphere and has no grid. It
    is still accepted, with its default VERIFY_ORACLE_RESOLUTION, because the
    benchmark's worker passes it.
    """
    chunks = _state_chunks(m, n, count, seed, "hilbert-schmidt")
    import numpy as np

    from .measures import _identity_checks, gd_bruteforce_stack

    rng = np.random.default_rng(seed)
    run = {"dims": [m, n], "count": count, "seed": seed}
    tally = _GapTally()
    oracle_checked = 0
    max_oracle_dev = 0.0
    for start, mats, measured in _measured(chunks, m, n):
        checks = measured.checks
        if m == 2:
            # One direction per state, drawn as a state-by-state loop would draw them.
            identity, _, _ = _identity_checks(mats, n, rng.standard_normal((len(mats), 3)))
            todo = min(len(mats), max(0, oracle_subsample - start))
            brute = gd_bruteforce_stack(mats[:todo], n) if todo else np.zeros(0)
            dev = np.abs(brute - measured.discord[:todo])
            failed = np.zeros(len(mats), dtype=bool)
            failed[:todo] = ~(dev <= VERIFY_ORACLE_ATOL)
            oracle = Check(
                failed,
                lambda i: BoundViolation(
                    f"oracle deviation {float(dev[i])!r} exceeds {VERIFY_ORACLE_ATOL}"
                ),
            )
            checks += identity + (oracle,)
            oracle_checked += todo  # both reported on a pass only, when every dev <= atol
            max_oracle_dev = float(dev.max(initial=max_oracle_dev))
        fault = first_fault(checks)
        if fault is not None:
            from .states import DensityMatrix

            i, error = fault
            write_state(VERIFY_FAILURE_FILE, DensityMatrix(m, n, mats[i]))
            return {**run, "checked": start + i, "passed": False, "failure": str(error),
                    "failure_state_file": VERIFY_FAILURE_FILE}
        tally.add(measured.gap)
    return {**run, "checked": count, "passed": True, "violations": tally.violations,
            "oracle_states_checked": oracle_checked, "max_oracle_deviation": max_oracle_dev}


# ---------------------------------------------------------------------------
# Commands


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_analyze(args) -> int:
    rho = read_state(args.file)
    from .measures import bounds_check

    report = bounds_check(rho)
    if args.json:
        _print_json({**vars(report), "m": rho.m, "n": rho.n})
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


def _write_whole(path: str, lines) -> None:
    """Write `lines` to `path`, leaving no file there unless all were written: they
    go to `<file>.<pid>.partial` beside the file `path` names (through a symlink),
    renamed onto it once complete and removed on any exception, Ctrl-C included.
    A device, pipe or directory at `path` is opened as it is, and the file stdout
    writes to (`/dev/stdout` redirected to a file, say) is written through
    `sys.stdout`, so that what the command prints next follows the lines. An
    OSError names `path`, as when the CSV was written in place.
    """
    try:  # a stdout with no descriptor is in memory, or None once descriptor 1 is closed
        to_stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError, AttributeError):  # or there is no file at `path`
        to_stdout = False
    if to_stdout:
        sys.stdout.writelines(lines)
        return
    target = os.path.realpath(path)
    in_place = os.path.exists(path) and not os.path.isfile(path)
    partial = path if in_place else f"{target}.{os.getpid()}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        if not in_place:
            os.replace(partial, target)
    except BaseException as exc:
        if not in_place and os.path.lexists(partial):
            os.remove(partial)
        if isinstance(exc, OSError) and exc.filename == partial:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def cmd_sweep(args) -> int:
    _write_whole(args.out, sweep_rows(args.family, args.lo, args.hi, args.steps,
                                      args.allow_out_of_range))
    if args.json:
        _print_json({"family": args.family, "rows": args.steps, "out": args.out})
    else:
        print(f"wrote {args.steps} rows for {args.family} to {args.out}")
    return 0


def cmd_sample(args) -> int:
    m, n = args.dims
    summary, fault = _sample(m, n, args.count, args.seed, args.ensemble)
    if args.json:
        _print_json(vars(summary))
    else:
        print(f"dims:           {summary.dims[0]}x{summary.dims[1]}")
        print(f"count:          {summary.count}")
        print(f"seed:           {summary.seed}")
        print(f"ensemble:       {summary.ensemble}")
        print(f"violations:     {summary.violations}")
        print(f"max_gap:        {'n/a' if summary.max_gap is None else _fmt(summary.max_gap)}")
        print(f"min_gap:        {'n/a' if summary.min_gap is None else _fmt(summary.min_gap)}")
        print(f"bound_failures: {summary.bound_failures}")
    if fault is not None:
        print(f"numerical fault: state {fault[0]}: {fault[1]}", file=sys.stderr)
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


def _out_path(text: str) -> str:
    if not text:  # realpath('') is the working directory
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token of "-" then a digit or ".digit" is a value, so that -1e-3 and -5. are
        # negative numbers as -1 and -.5 are; sub-parsers are built with this class.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # a usage error is bad input: exit 1 with one line
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_sweep.add_argument("--out", type=_out_path, required=True)
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
    try:
        args = build_parser().parse_args(argv)
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


def entry() -> int:
    """`main`'s exit code, with the heap frozen once it returns (see the module
    docstring); the process entry of the `gdneg` script and of `-m`. A Ctrl-C
    (KeyboardInterrupt, which `main` lets through) prints one `interrupted` line
    and exits 130."""
    try:
        code = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
