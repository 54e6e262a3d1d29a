import argparse
import gc
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gdneg
from gdneg import errors, families, io_cli, matrixcore, measures, states
from gdneg.errors import InvalidRange, ParseError, UnknownFamily
from gdneg.families import FamilySpec, build, rho1_closed_forms
from gdneg.io_cli import (
    build_parser,
    main,
    read_state,
    run_sample,
    run_verify,
    sample_states,
    sweep_rows,
    write_state,
)
from gdneg.measures import DensityMatrix, bounds_check
from gdneg.tolerances import VERIFY_ORACLE_ATOL


def rho1_52():
    return build(FamilySpec("rho1", (5, 2)))


def write_rho1_file(tmp_path, name="rho1_52.json"):
    path = tmp_path / name
    write_state(path, rho1_52())
    return path


def sweep_table(*args, **kwargs):
    """The rows of `sweep_rows(*args, **kwargs)` as dicts of floats, keyed by its CSV header;
    a CSV number is the shortest text that reads back as the float that was measured."""
    header, *lines = sweep_rows(*args, **kwargs)
    assert header.endswith("\n") and all(line.endswith("\n") for line in lines)
    names = header.rstrip("\n").split(",")
    return [dict(zip(names, map(float, line.split(",")), strict=True)) for line in lines]


class TestStateFiles:
    def test_round_trip_is_exact(self, tmp_path):
        path = write_rho1_file(tmp_path)
        loaded = read_state(path)
        assert loaded.m == 2 and loaded.n == 3
        assert np.array_equal(loaded.mat, rho1_52().mat)

    def test_round_trip_preserves_measures(self, tmp_path):
        rho = next(sample_states(2, 3, 1, 99, "hilbert-schmidt"))
        path = tmp_path / "random.json"
        write_state(path, rho)
        before = bounds_check(rho)
        after = bounds_check(read_state(path))
        assert abs(before.negativity - after.negativity) <= 1e-12
        assert abs(before.discord - after.discord) <= 1e-12
        assert before.pt_negative_count == after.pt_negative_count

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ParseError):
            read_state(path)

    def test_rejects_wrong_format_tag(self, tmp_path):
        path = tmp_path / "tagged.json"
        path.write_text(json.dumps({"format": "other/1", "m": 2, "n": 3, "entries": []}))
        with pytest.raises(ParseError, match="format"):
            read_state(path)

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(
            json.dumps({"format": "gdneg-state/1", "m": 2, "n": 3, "entries": [[1.0, 0.0]]})
        )
        with pytest.raises(ParseError, match="entries"):
            read_state(path)


class TestAnalyze:
    def test_json_report_values(self, tmp_path, capsys):
        path = write_rho1_file(tmp_path)
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["discord"] - 200 / 841) <= 1e-12
        assert abs(report["negativity_sq"] - (432 - 32 * np.sqrt(26.0)) / 841) <= 1e-10
        assert abs(report["gap"] - (232 - 32 * np.sqrt(26.0)) / 841) <= 1e-10
        assert report["pt_negative_count"] == 2
        assert report["discord_exact"] is True
        assert report["bounds_ok"] is True

    def test_text_report(self, tmp_path, capsys):
        path = write_rho1_file(tmp_path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "negativity" in out and "discord" in out and "pt_negative_count: 2" in out

    def test_maximally_mixed_all_zero(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        write_state(path, DensityMatrix(2, 3, np.eye(6) / 6))
        assert main(["analyze", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out  # a separable state prints negativity 0.0, not -0.0
        report = json.loads(out)
        assert report["negativity"] == 0.0
        assert report["discord"] == 0.0
        assert report["pt_negative_count"] == 0

    def test_invalid_trace_rejected_with_residual(self, tmp_path, capsys):
        path = tmp_path / "bad_trace.json"
        mat = np.eye(6) * 0.15  # trace 0.9
        entries = [[float(z.real), float(z.imag)] for z in mat.ravel()]
        path.write_text(
            json.dumps({"format": "gdneg-state/1", "m": 2, "n": 3, "entries": entries})
        )
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "trace" in err
        assert "0.1" in err

    def test_missing_file(self, capsys):
        assert main(["analyze", "no-such-file.json"]) == 1
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_rho1_csv_contents(self, tmp_path):
        out = tmp_path / "rho1.csv"
        assert main(
            ["sweep", "--family", "rho1", "--from", "0", "--to", "6", "--steps", "25", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "param,discord,negativity_sq,gap,closed_form_discord,closed_form_negativity_sq"
        assert len(lines) == 26
        for line in lines[1:]:
            param, disc, neg_sq, gap, cf_disc, cf_neg_sq = map(float, line.split(","))
            assert abs(gap - (neg_sq - disc)) <= 1e-12
            assert abs(disc - cf_disc) <= 1e-10
            assert abs(neg_sq - cf_neg_sq) <= 1e-10

    def test_rho1_far_out_sweep(self, tmp_path, capsys):
        # c^2 = 1e400 is past the largest float; N^2 and D are 0 to the last bit.
        out = tmp_path / "far.csv"
        args = ["sweep", "--family", "rho1", "--from", "1e200", "--to", "1e201", "--steps", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.split(",")[1:] == ["0.0"] * 5

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--family", "rho2", "--from", "0.01", "--to", "1", "--steps", "40"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rho2_gaps_positive(self, tmp_path):
        rows = sweep_table("rho2", 0.01, 1.0, 50)
        assert len(rows) == 50
        assert all(row["gap"] > 0 for row in rows)
        assert all("closed_form_discord" not in row for row in rows)

    def test_single_step_at_zero(self):
        rows = sweep_table("rho1", 0.0, 0.0, 1)
        assert len(rows) == 1
        assert rows[0]["discord"] == 0.0
        assert rows[0]["negativity_sq"] == 0.0

    def test_csv_render_handles_plain_families(self):
        text = "".join(sweep_rows("rho3", 2.0, 3.0, 3))
        assert text.startswith("param,discord,negativity_sq,gap\n")
        assert len(text.splitlines()) == 4

    def test_invalid_ranges(self):
        # Raised by the call itself, before any line is read.
        with pytest.raises(InvalidRange):
            sweep_rows("rho1", 0.0, 1.0, 0)
        with pytest.raises(InvalidRange):
            sweep_rows("rho1", 2.0, 1.0, 5)
        with pytest.raises(UnknownFamily):
            sweep_rows("rho7", 0.0, 1.0, 5)

    @pytest.mark.parametrize(
        "lo, hi", [("0", "inf"), ("nan", "1"), ("-inf", "0"), ("0", "nan"), ("-1e308", "1e308")]
    )
    def test_non_finite_range_is_rejected_by_name(self, lo, hi, tmp_path, capsys):
        # The first step lo + 0 * (hi - lo) is NaN when the width is not finite,
        # and a NaN bound passes the `hi < lo` check.
        out = tmp_path / "rows.csv"
        args = ["sweep", "--family", "rho1", f"--from={lo}", f"--to={hi}", "--steps", "3"]
        assert main(args + ["--out", str(out)]) == 1
        expected = f"error: sweep range [{float(lo)}, {float(hi)}] has a non-finite bound or width\n"
        assert capsys.readouterr().err == expected
        assert list(tmp_path.iterdir()) == []  # no CSV, no partial file

    def test_last_step_overflow_is_rejected_by_name(self, tmp_path, capsys):
        # Every bound and the width are finite, but 2 * (hi - lo) is not.
        with pytest.raises(InvalidRange, match=r"overflows in 3 steps"):
            sweep_rows("rho1", 0.0, 1e308, 3)
        out = tmp_path / "rows.csv"
        args = ["sweep", "--family", "rho1", "--from", "0", "--to", "1e308", "--steps", "3"]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sweep range [0.0, 1e+308] overflows in 3 steps\n"
        assert list(tmp_path.iterdir()) == []  # no CSV, no partial file
        # One step forms no product, and the widest finite two-step range keeps its bytes.
        assert [row["param"] for row in sweep_table("rho1", 0.0, 1e308, 1)] == [0.0]
        assert [row["param"] for row in sweep_table("rho1", 0.0, 1e308, 2)] == [0.0, 1e308]

    @pytest.mark.parametrize("lo, hi", [("0", "1"), ("0", "0")])
    def test_steps_beyond_float_range_are_rejected_by_name(self, lo, hi, tmp_path, capsys):
        # (steps - 1) * (hi - lo) converts steps - 1 to float, which overflows even at hi == lo.
        steps = "1" + "0" * 400
        with pytest.raises(InvalidRange, match=r"overflows in 10{400} steps$"):
            sweep_rows("rho1", float(lo), float(hi), int(steps))
        out = tmp_path / "rows.csv"
        args = ["sweep", "--family", "rho1", "--from", lo, "--to", hi, "--steps", steps]
        assert main(args + ["--out", str(out)]) == 1
        expected = f"error: sweep range [{float(lo)}, {float(hi)}] overflows in {steps} steps\n"
        assert capsys.readouterr().err == expected
        assert list(tmp_path.iterdir()) == []  # no CSV, no partial file

    @pytest.mark.parametrize("lo, hi", [("-1e-3", "1e-3"), ("-1E3", "-5."), ("-.5", "-0.25")])
    def test_negative_bounds_in_any_spelling_are_values(self, lo, hi, tmp_path, capsys):
        # argparse before 3.13 reads -1e-3, -1E3 and -5. as option flags after a space.
        texts = []
        for how, bounds in [("space", ["--from", lo, "--to", hi]),
                            ("equals", [f"--from={lo}", f"--to={hi}"])]:
            out = tmp_path / f"{how}.csv"
            argv = ["sweep", "--family", "rho1", *bounds, "--steps", "3", "--out", str(out)]
            assert main(argv) == 0, capsys.readouterr().err
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].decode().splitlines()[1].startswith(f"{float(lo)!r},")

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "rho1.csv"
        args = ["sweep", "--family", "rho1", "--from", "0", "--to", "6", "--steps", "25"]
        assert main(args + ["--out", str(out), "--json"]) == 0
        expected = json.dumps({"family": "rho1", "out": str(out), "rows": 25})
        assert capsys.readouterr().out == expected + "\n"
        assert len(out.read_text().splitlines()) == 26

    def test_out_of_range_sweep_needs_flag(self, tmp_path, capsys):
        out = tmp_path / "oor.csv"
        args = ["sweep", "--family", "rho3", "--from", "1.0", "--to", "2.0", "--steps", "4", "--out", str(out)]
        assert main(args) == 1
        assert "window" in capsys.readouterr().err
        assert main(args + ["--allow-out-of-range"]) == 0

    # 500 steps span three chunks of 227 states at 2x3.
    @pytest.mark.parametrize(
        "family, lo, hi", [("rho1", 0.0, 6.0), ("rho2", 0.01, 1.0), ("rho3", 1.75, 4.75),
                           ("rho4", 3.5, 8.5)]
    )
    def test_rows_are_the_members_measured_alone(self, family, lo, hi):
        rows = sweep_table(family, lo, hi, 500)
        assert len(rows) == 500
        for row in rows:
            params = (row["param"], 1.0) if family == "rho1" else (row["param"],)
            report = bounds_check(build(FamilySpec(family, params)))
            assert row["discord"] == report.discord
            assert row["negativity_sq"] == report.negativity * report.negativity
            assert row["gap"] == report.gap
            if family == "rho1":
                closed = (row["closed_form_negativity_sq"], row["closed_form_discord"])
                assert closed == rho1_closed_forms(row["param"], 1.0)
            else:
                assert len(row) == 4

    # The first failing member of a chunk ends the sweep, named as when members
    # were built one at a time; the rho3 failures sit in the fifth chunk.
    @pytest.mark.parametrize(
        "args, expected",
        [
            (["rho2", "0.5", "2", "31"],
             "rho2(1.05,) is outside the documented parameter window; "
             "pass allow_out_of_range=True to construct anyway"),
            (["rho2", "0.5", "2", "31", "--allow-out-of-range"],
             "rho2(1.05,): positivity invariant violated: min eigenvalue -0.000968906"),
            (["rho3", "1.75", "5", "1000", "--allow-out-of-range"],
             "rho3(4.791791791791791,): positivity invariant violated: "
             "min eigenvalue -2.83934e-06"),
            (["rho3", "1.75", "5", "1000"],
             "rho3(4.752752752752753,) is outside the documented parameter window; "
             "pass allow_out_of_range=True to construct anyway"),
        ],
    )
    def test_failure_inside_a_stack_names_the_first_member(self, args, expected, tmp_path,
                                                            capsys):
        out = tmp_path / "rows.csv"
        family, lo, hi, steps, *flag = args
        argv = ["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", steps, *flag]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert list(tmp_path.iterdir()) == []  # no CSV, no partial file


# Sweep grids (family, from, to, steps): acceptance criterion 8's, the benchmark's
# cli-cold sweeps, CI's (its 200,000 steps in the memory test), a range far out, and
# one and two steps.
SWEEP_GRIDS = [
    ("rho1", 0.0, 6.0, 600), ("rho2", 0.01, 1.0, 100), ("rho3", 1.75, 4.75, 100),
    ("rho4", 3.5, 8.5, 100),
    ("rho1", 0.0, 6.0, 121), ("rho3", 1.75, 4.75, 121), ("rho4", 3.5, 8.5, 121),
    ("rho3", 1.75, 4.75, 31), ("rho2", 0.01, 1.0, 40),
    ("rho1", 1e200, 1e201, 3), ("rho1", 0.0, 1e308, 2), ("rho1", -0.0, 1.0, 2),
    ("rho1", -0.0, -0.0, 1), ("rho2", 0.5, 0.5, 1),
]


def run_sweep(out, steps, family="rho1", lo="0", hi="6"):
    return main(["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", str(steps),
                 "--out", str(out)])


def fail_in_call(monkeypatch, k, error=None):
    """Make the `k`-th call of the measures kernel in this test fail: raise `error`,
    or, when it is None, add a check that the chunk's last state fails."""
    real, calls = measures._measure_stack, []

    def failing(stack, *args):
        calls.append(len(stack))
        measured = real(stack, *args)
        if len(calls) == k:
            if error is not None:
                raise error
            failed = np.zeros(len(stack), dtype=bool)
            failed[-1] = True
            injected = errors.Check(failed, lambda i: errors.BoundViolation(f"injected at {i}"))
            measured = measured._replace(checks=measured.checks + (injected,))
        return measured

    monkeypatch.setattr(measures, "_measure_stack", failing)
    return calls


class TestStreamedSweep:
    """A sweep builds, measures and writes one chunk at a time, through a partial file
    that replaces --out when complete."""

    @staticmethod
    def assert_params_are_the_python_expression(lines, lo, hi, steps):
        """The param column, read back from its shortest repr, is `lo + i * (hi - lo) /
        (steps - 1)` on Python floats, bit for bit (-0.0 and 0.0 apart)."""
        want = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)] if steps > 1 else [lo]
        got = [float(line.split(",", 1)[0]) for line in lines[1:]]
        assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("family, lo, hi, steps", SWEEP_GRIDS)
    def test_params_are_the_python_expression_bit_for_bit(self, family, lo, hi, steps):
        lines = list(sweep_rows(family, lo, hi, steps))
        self.assert_params_are_the_python_expression(lines, lo, hi, steps)

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        run_sweep(tmp_path / "warm.csv", 300)  # imports and first-call caches
        peaks = {}
        for steps in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert run_sweep(tmp_path / f"{steps}.csv", steps) == 0
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        lines = (tmp_path / "200000.csv").read_text().splitlines()
        self.assert_params_are_the_python_expression(lines, 0.0, 6.0, 200_000)
        # The build that held every row and the whole CSV text differed by about 140 MB.
        assert abs(peaks[200_000] - peaks[20_000]) <= 2_000_000, peaks

    def test_fault_in_the_second_chunk_exits_2_and_leaves_no_file(self, tmp_path, capsys,
                                                                 monkeypatch):
        calls = fail_in_call(monkeypatch, 2)
        assert run_sweep(tmp_path / "rows.csv", 500) == 2
        assert calls == [227, 227]  # 500 steps are chunks of 227, 227 and 46
        assert capsys.readouterr().err == "numerical fault: injected at 226\n"
        assert list(tmp_path.iterdir()) == []

    def test_main_lets_ctrl_c_through_and_leaves_no_file(self, tmp_path, monkeypatch):
        fail_in_call(monkeypatch, 2, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tmp_path / "rows.csv", 500)
        assert list(tmp_path.iterdir()) == []

    def test_entry_turns_ctrl_c_into_exit_130(self, tmp_path, capsys, monkeypatch):
        fail_in_call(monkeypatch, 1, KeyboardInterrupt())
        monkeypatch.setattr(sys, "argv", ["gdneg", "sweep", "--family", "rho1", "--from", "0",
                                          "--to", "6", "--steps", "30", "--out",
                                          str(tmp_path / "rows.csv")])
        assert io_cli.entry() == 130
        assert capsys.readouterr() == ("", "interrupted\n")
        assert list(tmp_path.iterdir()) == []

    def test_sigint_during_a_long_sweep(self, tmp_path):
        # Seconds of work, interrupted once its first rows are on disk.
        argv = ["sweep", "--family", "rho1", "--from", "0", "--to", "6", "--steps", "500000",
                "--out", "long.csv"]
        proc = subprocess.Popen([sys.executable, "-m", "gdneg.io_cli", *argv], cwd=tmp_path,
                                env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            # Rows on disk: numpy has loaded and chunks are being measured.
            while not any(p.stat().st_size for p in tmp_path.glob("long.csv.*.partial")):
                assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
                time.sleep(0.02)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, stdout, stderr) == (130, "", "interrupted\n")
        assert list(tmp_path.iterdir()) == []

    def test_errors_name_out_and_no_partial_file_stays(self, tmp_path, capsys):
        (tmp_path / "work").mkdir()
        for out in (tmp_path / "work", tmp_path / "missing" / "rows.csv"):
            assert run_sweep(out, 3) == 1
            message = "Is a directory" if out.name == "work" else "No such file or directory"
            assert capsys.readouterr().err.endswith(f"] {message}: {str(out)!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list((tmp_path / "work").iterdir()) == []

    def test_out_through_a_symlink_and_into_a_pipe(self, tmp_path, capsys):
        assert run_sweep(tmp_path / "direct.csv", 30) == 0
        expected = (tmp_path / "direct.csv").read_bytes()
        (tmp_path / "link.csv").symlink_to("target.csv")
        assert run_sweep(tmp_path / "link.csv", 30) == 0
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "target.csv").read_bytes() == expected
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        assert run_sweep(fifo, 30) == 0
        reader.join(timeout=60)
        assert received == [expected] and stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "direct.csv", "fifo", "link.csv", "target.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_to_dev_stdout_redirected_to_a_file_keeps_the_report(self, tmp_path, capsys):
        # /dev/stdout is then the file itself: the rows are written through stdout,
        # so the report follows them, as it does through a pipe.
        assert run_sweep(tmp_path / "rows.csv", 3, hi="1") == 0
        expected = (tmp_path / "rows.csv").read_text() + "wrote 3 rows for rho1 to /dev/stdout\n"
        argv = ["sweep", "--family", "rho1", "--from", "0", "--to", "1", "--steps", "3",
                "--out", "/dev/stdout"]
        with open(tmp_path / "so.txt", "w") as stdout:
            proc = subprocess.run([sys.executable, "-m", "gdneg.io_cli", *argv], cwd=tmp_path,
                                  env=dict(os.environ, PYTHONPATH=SRC), stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "so.txt").read_text() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "so.txt"]

    @pytest.mark.parametrize("stdout", [None, "in memory"])
    def test_a_stdout_with_no_descriptor_leaves_out_to_the_file(self, stdout, tmp_path,
                                                                monkeypatch):
        # sys.stdout is None once descriptor 1 is closed; an in-memory stream has no fileno.
        out = tmp_path / "rows.csv"
        out.write_text("old\n")
        monkeypatch.setattr(sys, "stdout", None if stdout is None else io.StringIO())
        assert run_sweep(out, 3, hi="1") == 0
        assert out.read_text().startswith("param,") and len(out.read_text().splitlines()) == 4


class TestSample:
    def test_2x2_has_no_violations(self, capsys):
        assert main(["sample", "--dims", "2x2", "--count", "300", "--seed", "42", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        assert summary["bound_failures"] == 0
        assert summary["max_gap"] <= 1e-12

    def test_2x3_summary_shape(self):
        summary = run_sample(2, 3, 200, 42, "hilbert-schmidt")
        assert summary.count == 200
        assert summary.bound_failures == 0
        assert 0 <= summary.violations <= 200
        assert summary.min_gap <= summary.max_gap

    def test_large_runs_match_documented_behavior(self):
        # D >= N^2 is a theorem at 2x2; at 2x3 violations exist but are far
        # too rare for Hilbert-Schmidt sampling to find at this count
        s22 = run_sample(2, 2, 10000, 42, "hilbert-schmidt")
        assert s22.violations == 0
        assert s22.bound_failures == 0
        s23 = run_sample(2, 3, 10000, 42, "hilbert-schmidt")
        assert s23.violations <= 0.01 * s23.count
        assert s23.bound_failures == 0

    def test_pure_ensemble(self):
        summary = run_sample(2, 3, 50, 7, "pure")
        assert summary.bound_failures == 0

    # A pure chunk holds at most CHUNK_ENTRIES vector entries; its draw and
    # validation hold a few complex arrays of that many entries, at most 8 (1.05
    # MB), and a whole chunk's projectors (0.78 MB at 2x3, 2.1 MB at 4x4) are
    # never held at once. At m = 2 the route adds the Schmidt minors, k n^2
    # entries, at most 40,000 (at 2x10), as two products and their difference
    # (1.92 MB).
    PURE_DRAW_BYTES = 8 * io_cli.CHUNK_ENTRIES * 16
    PURE_MINORS_BYTES = 3 * 40_000 * 16

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 4)])
    def test_pure_peak_memory_does_not_grow_with_count(self, m, n, monkeypatch):
        d = m * n
        c = io_cli._chunk_size(d)
        chunk = c * min(d, c)
        # A DensityMatrix validates its state again, about 150 us each; stubbed, the
        # drain holds what `sample_states` draws and the projectors it forms.
        monkeypatch.setattr(states, "DensityMatrix", lambda m, n, mat: mat)
        runs = {
            "run_sample": (lambda k: run_sample(m, n, k, 9, "pure"),
                           self.PURE_DRAW_BYTES + self.PURE_MINORS_BYTES),
            "sample_states": (lambda k: sum(1 for _ in sample_states(m, n, k, 9, "pure")),
                              self.PURE_DRAW_BYTES),
        }
        for name, (run, bound) in runs.items():
            run(5)  # imports and first-call caches
            peaks = {}
            for chunks in (4, 16):
                tracemalloc.start()
                try:
                    run(chunks * chunk)
                    peaks[chunks] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            # Growth below half a chunk's vectors (131 KB) is allocator noise.
            assert peaks[16] <= peaks[4] + 65_536, (name, peaks)
            assert max(peaks.values()) < bound, (name, peaks)

    def test_empty_run(self, capsys):
        assert main(["sample", "--dims", "2x3", "--count", "0", "--seed", "1", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        assert summary["max_gap"] is None

    def test_deterministic(self, capsys):
        args = ["sample", "--dims", "2x3", "--count", "100", "--seed", "5", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_rejects_bad_dims(self, capsys):
        assert main(["sample", "--dims", "1x3", "--count", "5", "--seed", "1"]) == 1
        assert main(["sample", "--dims", "3x2", "--count", "5", "--seed", "1"]) == 1

    def test_rejects_unknown_ensemble(self):
        with pytest.raises(InvalidRange, match="ensemble"):
            run_sample(2, 3, 5, 1, "bogus")


class TestVerify:
    @pytest.mark.parametrize("dims", ["2x2", "2x3", "3x3"])
    def test_passes_on_random_states(self, dims, capsys):
        assert main(["verify", "--dims", dims, "--count", "60", "--seed", "7", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["checked"] == 60

    def test_2x2_no_violations(self):
        report = run_verify(2, 2, 100, 1)
        assert report["passed"]
        assert report["violations"] == 0

    def test_oracle_subsample_runs_for_qubit_side(self):
        report = run_verify(2, 3, 25, 3, oracle_subsample=5)
        assert report["oracle_states_checked"] == 5
        assert report["max_oracle_deviation"] <= VERIFY_ORACLE_ATOL

    def test_no_oracle_for_qutrit_side(self):
        report = run_verify(3, 3, 20, 3)
        assert report["oracle_states_checked"] == 0

    # Byte-exact text reports, captured before validated stacks stopped being
    # checked for hermiticity a second time. The oracle deviations' rounding
    # digits were re-captured when its climb began to stop on a rank-one
    # certificate, and again when G came from the A-side partial traces.
    def test_text_report_on_pass(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--dims", "2x3", "--count", "30", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            "verify 2x3: count=30 seed=7\n"
            "  states checked:        30\n"
            "  gap > 0 states:        0\n"
            "  oracle states checked: 20\n"
            "  max oracle deviation:  1.3877787807814457e-16\n"
            "PASS\n"
        )
        assert not (tmp_path / "gdneg-verify-failure.json").exists()

    def test_text_report_on_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(io_cli, "VERIFY_ORACLE_ATOL", -1.0)
        assert main(["verify", "--dims", "2x3", "--count", "30", "--seed", "7"]) == 2
        assert capsys.readouterr().out == (
            "verify 2x3: count=30 seed=7\n"
            "  states checked before failure: 0\n"
            "  failure: oracle deviation 4.163336342344337e-17 exceeds -1.0\n"
            "  failing state written to gdneg-verify-failure.json\n"
            "FAIL\n"
        )
        first = next(sample_states(2, 3, 1, 7, "hilbert-schmidt"))
        assert np.array_equal(read_state(tmp_path / "gdneg-verify-failure.json").mat, first.mat)


class TestNumericalFault:
    # A forced kernel failure ends `analyze` and `sweep` in exit code 2 with
    # one `numerical fault:` line, and `sweep` writes no CSV.
    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_exits_2_with_one_line(self, command, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rho1.csv"
        argv = {
            "analyze": ["analyze", str(write_rho1_file(tmp_path))],
            "sweep": ["sweep", "--family", "rho1", "--from", "0", "--to", "6", "--steps", "25",
                      "--out", str(out)],
        }[command]
        monkeypatch.setattr(measures, "DUAL_NEGATIVITY_ATOL", -1.0)
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("numerical fault: ")
        assert not list(tmp_path.glob("rho1.csv*"))  # no CSV, no partial file


class TestBadInput:
    def _one_error_line(self, capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_analyze_directory(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        self._one_error_line(capsys)

    def test_analyze_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"format": "gdneg-state/1", "m": 2, "n": 3, "entries": "\xff"}')
        with pytest.raises(ParseError, match="UTF-8"):
            read_state(path)
        assert main(["analyze", str(path)]) == 1
        self._one_error_line(capsys)

    def test_sweep_out_directory(self, tmp_path, capsys):
        args = ["sweep", "--family", "rho1", "--from", "0", "--to", "1", "--steps", "3"]
        assert main(args + ["--out", str(tmp_path)]) == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("m,n", [(2.9, 3.4), (True, 6), (2, "3")])
    def test_dimensions_must_be_json_integers(self, m, n, tmp_path, capsys):
        path = tmp_path / "dims.json"
        entries = [[float(x), 0.0] for x in (np.eye(6) / 6).ravel()]
        path.write_text(json.dumps({"format": "gdneg-state/1", "m": m, "n": n, "entries": entries}))
        with pytest.raises(ParseError, match="JSON integers"):
            read_state(path)
        assert main(["analyze", str(path)]) == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("bad", [["0.5", 0.0], [True, 0.0], [0.5, 0.0, 0.0], "05", None])
    def test_entries_must_be_pairs_of_json_numbers(self, bad, tmp_path, capsys):
        path = tmp_path / "entries.json"
        entries = [[0.5 if i in (0, 3) else 0.0, 0.0] for i in range(4)]
        entries[0] = bad
        path.write_text(json.dumps({"format": "gdneg-state/1", "m": 2, "n": 1, "entries": entries}))
        with pytest.raises(ParseError, match="JSON numbers"):
            read_state(path)
        assert main(["analyze", str(path)]) == 1
        self._one_error_line(capsys)

    def test_dimensions_must_be_positive(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"format": "gdneg-state/1", "m": 0, "n": 3, "entries": []}))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "dimensions must be positive, got 0x3" in err[0]

    def test_integer_entry_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"format": "gdneg-state/1", "m": 2, "n": 2, "entries": [[1%s, 0]'
                        % ("0" * 400) + ", [0, 0]" * 15 + "]}")
        assert main(["analyze", str(path)]) == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("where", ["m", "entry"])
    def test_integer_too_long_to_parse(self, where, tmp_path, capsys):
        # json's int() refuses an integer of more digits than sys.get_int_max_str_digits().
        if LONG_INT_ERROR is None:
            pytest.skip("this Python converts integers of any length")
        path = tmp_path / "long.json"
        path.write_text(state_file_text(LONG_INT) if where == "entry" else
                        f'{{"format": "gdneg-state/1", "m": {LONG_INT}, "n": 2, "entries": []}}')
        with pytest.raises(ParseError, match="integer too long to parse"):
            read_state(path)
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: integer too long to parse ({LONG_INT_ERROR})\n")

    def test_overflow_is_reported_before_a_non_finite_entry(self, tmp_path):
        path = tmp_path / "nan-then-huge.json"
        path.write_text('{"format": "gdneg-state/1", "m": 2, "n": 2, "entries": [[NaN, 0]'
                        + ", [0, 0]" * 14 + ", [1%s, 0]]}" % ("0" * 400))
        with pytest.raises(ParseError, match=r"entry out of float range \(int too large"):
            read_state(path)

    def test_hermitian_part_beyond_float_range(self, tmp_path, capsys):
        # Hermitian, unit trace and finite, but A + A^dag overflows: its
        # eigenvalues are about +-1e308.
        path = tmp_path / "near-limit.json"
        entries = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
        entries[1][0] = entries[4][0] = 1e308
        path.write_text(json.dumps({"format": "gdneg-state/1", "m": 2, "n": 2, "entries": entries}))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: positivity invariant violated: Hermitian part overflows\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--dims", "2x", "--count", "5", "--seed", "1"],
            ["sample", "--dims", "2x3", "--count", "abc", "--seed", "1"],
            ["sample", "--dims", "2x3", "--seed", "1"],
            ["frobnicate"],
        ],
    )
    def test_usage_error_exits_1_with_one_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: gdneg")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gdneg sample")

    def test_sweep_member_with_zero_normalization(self, tmp_path):
        # rho2(-1/4) has p + q = 0. In a fresh process, so that numpy warnings
        # reach stderr instead of pytest's warning capture.
        src = os.path.dirname(os.path.dirname(os.path.abspath(gdneg.__file__)))
        args = ["sweep", "--family", "rho2", "--from", "-0.25", "--to", "-0.25", "--steps", "1",
                "--allow-out-of-range", "--out", "x.csv"]
        out = subprocess.run([sys.executable, "-m", "gdneg.io_cli", *args], cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 1
        err = out.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), out.stderr


# A valid 2x2 state file (the maximally mixed state) and the ways a file can go
# wrong: a value of another type, a missing key, a wrong shape or nesting, huge or
# negative dimensions, non-finite, huge or long number literals, truncated text and
# bytes that are not UTF-8.
VALID_STATE = {"format": "gdneg-state/1", "m": 2, "n": 2,
               "entries": [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]}
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
                 st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
LITERALS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400,
                            "0." + "3" * 1000])


@st.composite
def mutated_state_file(draw):
    doc = json.loads(json.dumps(VALID_STATE))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["type", "drop", "dims", "shape", "entry"]))
        entries = doc.get("entries")
        if kind == "type":
            doc[draw(st.sampled_from(["format", "m", "n", "entries"]))] = draw(JUNK)
        elif kind == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "dims":
            doc[draw(st.sampled_from(["m", "n"]))] = draw(
                st.integers(-(10**30), 10**30) | st.integers(-2, 100))
        elif kind == "shape" and isinstance(entries, list):
            k = draw(st.integers(0, 20))
            doc["entries"] = draw(st.sampled_from([entries[:k], entries + [[0.0, 0.0]] * k,
                                                   [[0.0] * (k % 4)] + entries[1:], [entries]]))
        elif kind == "entry" and isinstance(entries, list) and entries:
            pair = entries[draw(st.integers(0, len(entries) - 1))]
            if isinstance(pair, list) and pair:
                pair[draw(st.integers(0, len(pair) - 1))] = draw(JUNK)
    text = json.dumps(doc)
    if draw(st.booleans()):  # json.dumps writes no 1e999, so literals go in as text
        text = text.replace("0.0", draw(LITERALS), 1)
    data = text.encode()
    cut = draw(st.integers(0, len(data)))
    damage = draw(st.sampled_from(["none", "truncate", "not UTF-8"]))
    if damage == "truncate":
        data = data[:cut]
    elif damage == "not UTF-8":
        data = data[:cut] + b"\xff" + data[cut:]
    return data


class TestMutatedStateFiles:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_state_file())
    def test_analyze_exits_0_or_1_with_one_error_line(self, data, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(data)
        code = main(["analyze", str(path), "--json"])
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and json.loads(out)["bounds_ok"] is True
        else:
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: "), err


# (valid values, bad values) for each option dest of `build_parser()`. Counts and
# steps stop at 40, so that every command drawn runs in milliseconds.
BAD_INTS = st.sampled_from(["", "1.5", "1e3", "ten", "0x10", "--"])
BOUNDS = (st.floats(0.0, 5.0) | st.floats(allow_nan=False, allow_infinity=False)).map(repr)
ARGV_VALUES = {
    "dims": (st.builds("{}x{}".format, st.integers(2, 5), st.integers(2, 5)),
             st.builds("{}x{}".format, st.integers(0, 1), st.integers(0, 5))
             | st.sampled_from(["", "2", "2x", "x3", "2x3x4", "2*3", "axb", "2.5x3", "-2x3"])),
    "count": (st.integers(0, 40).map(str), st.integers(-5, -1).map(str) | BAD_INTS),
    "seed": (st.integers(0, 2**64).map(str), st.integers(-5, -1).map(str) | BAD_INTS),
    "steps": (st.integers(1, 40).map(str), st.integers(-5, 0).map(str) | BAD_INTS),
    "lo": (BOUNDS, st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "abc", ""])),
    "family": (st.sampled_from(errors.FAMILY_NAMES), st.sampled_from(["rho9", ""])),
    "ensemble": (st.sampled_from(io_cli.ENSEMBLES), st.just("mixed")),
    "out": (st.just("out.csv"), st.sampled_from(["missing-dir/out.csv", ".", ""])),
    "file": (st.just("state.json"), st.sampled_from(["bad.json", "missing.json", "."])),
}
ARGV_VALUES["hi"] = ARGV_VALUES["lo"]


@st.composite
def cli_argv(draw):
    """A command of `build_parser()` with its actions but --help, options in a drawn
    order: each required one given a valid value and each optional one left out or
    given a valid value, except for at most one drawn action, which is left out or
    given a bad value."""
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    command = draw(st.sampled_from(sorted(commands)))
    actions = [a for a in commands[command]._actions if not isinstance(a, argparse._HelpAction)]
    bad = draw(st.sampled_from([None, *actions]))
    options, positionals = [], []
    for action in actions:
        if (not action.required or action is bad) and not draw(st.integers(0, 3)):
            continue
        value = [] if action.nargs == 0 else [draw(ARGV_VALUES[action.dest][action is bad])]
        if action.option_strings:
            options.append([draw(st.sampled_from(action.option_strings)), *value])
        else:
            positionals += value
    options = draw(st.permutations(options))
    return [command, *positionals, *(token for option in options for token in option)]


class TestDrawnArgv:
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_argv())
    def test_every_command_exits_cleanly(self, argv, tmp_path, capsys, monkeypatch):
        work = tempfile.mkdtemp(dir=tmp_path)
        monkeypatch.chdir(work)
        Path("state.json").write_text(json.dumps(VALID_STATE))
        Path("bad.json").write_text("{")
        code = main(argv)
        _, err = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        if code != 0:
            assert not [name for name in os.listdir() if "partial" in name], argv
            assert not os.path.exists("out.csv"), argv


class TestGoldenJson:
    # Byte-exact output of the build before the JSON was derived from the
    # report dataclasses; keys are sorted, tuples print as lists. The sample's
    # gaps moved in their last digit when G came from the A-side partial traces.
    def test_analyze_rho1_52(self, tmp_path, capsys):
        assert main(["analyze", str(write_rho1_file(tmp_path)), "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"bounds_ok": true, "discord": 0.23781212841854937, "discord_exact": true, '
            '"gap": 0.0818446796254827, "m": 2, "n": 3, "negativity": 0.565382001874867, '
            '"negativity_sq": 0.31965680804403207, "pt_negative_cap": 2, '
            '"pt_negative_count": 2}\n'
        )

    def test_sample_2x3(self, capsys):
        args = ["sample", "--dims", "2x3", "--count", "300", "--seed", "42", "--json"]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            '{"bound_failures": 0, "count": 300, "dims": [2, 3], '
            '"ensemble": "hilbert-schmidt", "max_gap": -0.02435469727442256, '
            '"min_gap": -0.14555656529583297, "seed": 42, "violations": 0}\n'
        )

    def test_verify_keys_on_pass(self, capsys):
        assert main(["verify", "--dims", "2x3", "--count", "5", "--seed", "1", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "dims", "count", "seed", "checked", "passed",
            "violations", "oracle_states_checked", "max_oracle_deviation",
        }

    def test_verify_keys_on_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # A positive cutoff makes states exceed the PT cap, a numerical fault.
        monkeypatch.setattr(measures, "NEGATIVE_EIGENVALUE_CUTOFF", 0.05)
        assert main(["verify", "--dims", "2x3", "--count", "800", "--seed", "3", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "dims", "count", "seed", "checked", "passed", "failure", "failure_state_file",
        }
        assert report["passed"] is False


SRC = os.path.dirname(os.path.dirname(os.path.abspath(gdneg.__file__)))


def state_file_text(entry):
    """A 2x3 state file whose entry (0, 1) has the JSON text `entry` as real part."""
    entries = [["0.5" if i in (0, 35) else "0.0", "0.0"] for i in range(36)]
    entries[1][0] = entry
    pairs = ", ".join(f"[{re}, {im}]" for re, im in entries)
    return f'{{"format": "gdneg-state/1", "m": 2, "n": 3, "entries": [{pairs}]}}'


# An integer of 5,000 digits, and the error of int() on it, None where it converts:
# past CPython's default limit of 4,300 digits, unless the limit is lifted.
LONG_INT = "1" + "0" * 4999
try:
    int(LONG_INT)
    LONG_INT_ERROR = None
except ValueError as exc:
    LONG_INT_ERROR = str(exc)


def write_nan_file(directory):
    """A 2x3 state file with a NaN entry, as the benchmark's bad input."""
    entries = [[0.0, 0.0] for _ in range(36)]
    entries[0][0] = entries[35][0] = 0.5
    entries[1][0] = entries[6][0] = float("nan")
    doc = {"format": "gdneg-state/1", "m": 2, "n": 3, "entries": entries}
    (directory / "nan_2x3.json").write_text(json.dumps(doc))


def run_python(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


ENTRY_COMMANDS = [
    ["sweep", "--family", "rho1", "--from", "0", "--to", "6", "--steps", "121", "--out", "rho1.csv"],
    ["sample", "--dims", "2x3", "--count", "-5", "--seed", "1"],
    ["analyze", "nan_2x3.json"],
]


class TestProcessEntry:
    """`entry` freezes the import-time heap for the process; `main` leaves it alone."""

    @pytest.mark.parametrize("argv", [
        ENTRY_COMMANDS[0],
        ["sample", "--dims", "2x3", "--count", "20", "--seed", "1"],
        ENTRY_COMMANDS[1],
    ])
    def test_main_leaves_the_collector_alone(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = gc.get_freeze_count(), gc.isenabled()
        main(argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize("how", ["module", "script"])
    def test_entry_freezes_the_heap_once_the_layers_load(self, how, tmp_path):
        # Spy on gc.freeze: entry freezes once, after the command has printed its
        # report, when numpy, numpy.random and the layers have loaded. After the run
        # none of those modules is among the objects the collector tracks.
        run = {
            "module": "runpy.run_module('gdneg.io_cli', run_name='__main__', alter_sys=True)",
            "script": "from gdneg.io_cli import entry; sys.exit(entry())",  # the script's wrapper
        }[how]
        layers = ["numpy", "numpy.random", "gdneg.states", "gdneg.measures"]
        code = (
            "import gc, runpy, sys\n"
            "freeze = gc.freeze\n"
            "def spy():\n"
            "    freeze()\n"
            f"    print('freeze', *(name in sys.modules for name in {layers!r}))\n"
            "gc.freeze = spy\n"
            "sys.argv[1:] = ['sample', '--dims', '2x2', '--count', '3', '--seed', '1', '--json']\n"
            "try:\n"
            f"    {run}\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "tracked = {id(o) for o in gc.get_objects()}\n"
            f"print('tracked', *(id(sys.modules[name]) in tracked for name in {layers!r}))\n"
        )
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert json.loads(lines[0])["count"] == 3
        assert lines[1:] == ["freeze True True True True", "tracked False False False False"]

    def test_console_script_runs_the_entry(self):
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
            assert 'gdneg = "gdneg.io_cli:entry"\n' in fh.read()

    @pytest.mark.parametrize("argv", ENTRY_COMMANDS)
    def test_module_run_matches_main_in_process(self, argv, tmp_path, monkeypatch, capsys):
        inside, outside = tmp_path / "in", tmp_path / "out"
        for directory in (inside, outside):
            directory.mkdir()
            write_nan_file(directory)
        monkeypatch.chdir(inside)
        code = main(argv)
        captured = capsys.readouterr()
        out = run_python(["-m", "gdneg.io_cli", *argv], outside)
        assert (out.returncode, out.stdout, out.stderr) == (code, captured.out, captured.err)
        assert sorted(p.name for p in inside.iterdir()) == sorted(p.name for p in outside.iterdir())
        for path in inside.iterdir():
            assert path.read_bytes() == (outside / path.name).read_bytes()


# Commands rejected before any numeric work: (argv, exit code, start of stderr); the
# list of choices is left out, as its format is argparse's and varies by Python version.
EARLY_EXITS = [
    (["sample", "--dims", "2x3", "--count", "-5", "--seed", "1"], 1,
     "error: count must be non-negative, got -5\n"),
    (["sample", "--dims", "2x3", "--count", "10", "--seed", "-1"], 1,
     "error: seed must be non-negative, got -1\n"),
    (["sample", "--dims", "5x2", "--count", "10", "--seed", "1"], 1,
     "error: sampling requires 2 <= m <= n, got 5x2\n"),
    (["sweep", "--family", "nope", "--from", "0", "--to", "1", "--steps", "3", "--out", "x.csv"], 1,
     "error: gdneg sweep: argument --family: invalid choice: 'nope' (choose from "),
    # realpath('') is the working directory: the partial file went beside it.
    (["sweep", "--family", "rho1", "--from", "0", "--to", "1", "--steps", "3", "--out", ""], 1,
     "error: gdneg sweep: argument --out: expected a file path, got ''\n"),
    (["--help"], 0, ""),
    # States too large for one chunk; numpy would try to allocate hundreds of GiB.
    (["sample", "--dims", "2x100000", "--count", "1", "--seed", "1"], 1,
     "error: 2x100000 states do not fit in one chunk of 8192 entries: m*n must be at most 90\n"),
    (["verify", "--dims", "2x100000", "--count", "1", "--seed", "1"], 1,
     "error: 2x100000 states do not fit in one chunk of 8192 entries: m*n must be at most 90\n"),
]


# State files rejected before numpy loads: (file text, stderr). The first five
# differ from a valid state in entry (0, 1) and give the stderr of the build
# that converted the entries with numpy. Before the last three were rejected,
# json ended in a RecursionError or a ValueError traceback and the 2x46 state
# was measured.
EARLY_FILE_EXITS = [
    (state_file_text("NaN"), "error: finiteness invariant violated: non-finite entries\n"),
    (state_file_text("Infinity"), "error: finiteness invariant violated: non-finite entries\n"),
    (state_file_text("-Infinity"), "error: finiteness invariant violated: non-finite entries\n"),
    (state_file_text("1e999"), "error: finiteness invariant violated: non-finite entries\n"),
    (state_file_text("1" + "0" * 400),
     "error: state.json: entry out of float range (int too large to convert to float)\n"),
    ("[" * 100_000 + "]" * 100_000, "error: state.json: not valid JSON (nested too deeply)\n"),
    pytest.param(state_file_text(LONG_INT),
                 f"error: state.json: integer too long to parse ({LONG_INT_ERROR})\n",
                 marks=pytest.mark.skipif(LONG_INT_ERROR is None,
                                          reason="this Python converts integers of any length")),
    (json.dumps({"format": "gdneg-state/1", "m": 2, "n": 46,
                 "entries": [[1 / 92 if i % 93 == 0 else 0.0, 0.0] for i in range(92 * 92)]}),
     "error: 2x46 states do not fit in one chunk of 8192 entries: m*n must be at most 90\n"),
]


# Modules no early exit imports once gdneg starts loading: `dataclasses` loads
# `inspect`, about 8 ms of a rejected command.
NOT_LOADED = ("dataclasses", "inspect")


def loaded_after_gdneg(imports):
    """The modules an import log names after gdneg's package, which loads first, or
    None when `site` imported a NOT_LOADED module before it, which the log then
    cannot show again."""
    names = [line.rsplit("|", 1)[1].strip() for line in imports]
    start = names.index("gdneg")
    return None if set(names[:start]) & set(NOT_LOADED) else names[start + 1:]


def import_log(argv, cwd):
    """Exit code, stdout, the stderr lines that are not the import log, and the
    modules that log names, of one `-X importtime` run of the CLI."""
    out = run_python(["-X", "importtime", "-m", "gdneg.io_cli", *argv], cwd)
    lines = out.stderr.splitlines(keepends=True)
    imports = [line for line in lines if line.startswith("import time:")]
    rest = "".join(line for line in lines if line not in imports)
    return out.returncode, out.stdout, rest, imports


class TestColdImport:
    """The package and the CLI load numpy and the numeric layers on first use; each
    test runs in a fresh process."""

    def test_import_loads_no_numpy(self, tmp_path):
        code = ("import json, sys\n"
                f"preloaded = [m for m in {NOT_LOADED} if m in sys.modules]\n"
                "from gdneg import io_cli\n"
                "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('gdneg')))\n"
                "names = ['run_sample', 'run_verify', 'sweep_rows', 'read_state', 'main']\n"
                "print(*{getattr(io_cli, name).__module__ for name in names})\n"
                f"print(json.dumps([preloaded, [m for m in {NOT_LOADED} if m in sys.modules]]))\n")
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        *lines, modules = out.stdout.splitlines()
        assert lines == [
            "False ['gdneg', 'gdneg.errors', 'gdneg.io_cli', 'gdneg.tolerances']", "gdneg.io_cli"]
        preloaded, loaded = json.loads(modules)
        if preloaded:
            pytest.skip("site imported dataclasses or inspect before gdneg")
        assert loaded == []

    def test_exported_names_resolve_to_their_module_objects(self, tmp_path):
        code = (
            "import importlib, json, gdneg\n"
            "same = [name for module, names in gdneg._EXPORTS.items() for name in names\n"
            "        if getattr(gdneg, name) is getattr(importlib.import_module(f'gdneg.{module}'),\n"
            "                                           name)]\n"
            "try:\n"
            "    gdneg.not_a_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps([same, gdneg.__all__, dir(gdneg), unknown]))\n"
        )
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        same, exported, listed, unknown = json.loads(out.stdout)
        assert len(exported) == 33 and same == exported
        assert set(exported) <= set(listed) and "__version__" in listed
        assert unknown == "module 'gdneg' has no attribute 'not_a_name'"
        # The names the package exported when it imported every layer eagerly, less
        # the one-field measure wrappers and `kron`, which `bounds_check` and `np.kron` replace,
        # `trace_norm`, `partial_trace_b` and `in_range`, which nothing called,
        # `measurement_identity_check`, which only tests called, and the single-state
        # forks `gd_bruteforce_2xn` and `hermitian_eigenvalues` with the errors only
        # they raised, `WrongDimension` and `NotHermitian`.
        assert set(exported) == {
            "BlochForm", "decompose", "g_matrix", "reconstruct", "BoundViolation", "CapViolation",
            "DimensionMismatch", "InvalidDimension", "InvalidRange", "InvalidState", "NotAState",
            "NotSquare", "ParseError", "UnknownFamily",
            "FAMILY_NAMES", "FamilySpec", "build", "rho1_closed_forms", "violates",
            "hermiticity_defect", "hs_norm_sq", "partial_transpose",
            "DensityMatrix", "MeasureReport", "PureState",
            "bounds_check", "gd_bruteforce_stack", "maximal_state",
            "project_a", "pure_gd", "pure_negativity", "schmidt",
            "basis_for",
        }

    def test_removed_names_are_gone(self):
        removed = ("negativity", "pt_negative_count", "gd_lower_bound", "geometric_discord", "kron",
                   "trace_norm", "partial_trace_b", "in_range", "measurement_identity_check",
                   "gd_bruteforce_2xn", "hermitian_eigenvalues", "first_invalid_state",
                   "NotHermitian", "WrongDimension")
        for module in (gdneg, measures, matrixcore, families, states, errors):
            assert [name for name in removed if hasattr(module, name)] == [], module
        assert not hasattr(measures, "__all__")

    def test_a_record_loads_only_its_module(self, tmp_path):
        code = ("import sys\n"
                "from gdneg import DensityMatrix\n"
                "print(DensityMatrix.__module__, sorted(m for m in sys.modules if m.startswith('gdneg')))\n")
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout == ("gdneg.states ['gdneg', 'gdneg.errors', 'gdneg.matrixcore', "
                              "'gdneg.states', 'gdneg.tolerances']\n")

    @pytest.mark.parametrize("argv, code, err", EARLY_EXITS, ids=[" ".join(e[0]) for e in EARLY_EXITS])
    def test_early_exit_imports_no_numpy(self, argv, code, err, tmp_path):
        returncode, stdout, rest, imports = import_log(argv, tmp_path)
        assert returncode == code and rest.startswith(err) and rest.count("\n") == (code == 1)
        assert len(imports) > 10 and not [line for line in imports if "numpy" in line]
        assert stdout.startswith("usage: gdneg") if argv == ["--help"] else stdout == ""
        assert list(tmp_path.iterdir()) == []
        assert not list(tmp_path.parent.glob(f"{tmp_path.name}.*"))
        loaded = loaded_after_gdneg(imports)
        if loaded is None:
            pytest.skip("site imported dataclasses or inspect before gdneg")
        assert not set(loaded) & set(NOT_LOADED), loaded

    @pytest.mark.parametrize("text, err", EARLY_FILE_EXITS, ids=[
        "NaN", "Infinity", "-Infinity", "1e999", "400-digit-integer", "deep-nesting",
        "5000-digit-integer", "2x46"])
    def test_bad_state_file_exits_before_numpy(self, text, err, tmp_path):
        (tmp_path / "state.json").write_text(text)
        returncode, stdout, rest, imports = import_log(["analyze", "state.json"], tmp_path)
        assert (returncode, stdout, rest) == (1, "", err)
        assert len(imports) > 10 and not [line for line in imports if "numpy" in line]

    def test_finite_non_hermitian_file_reaches_the_gate(self, tmp_path):
        (tmp_path / "state.json").write_text(state_file_text("0.3"))
        returncode, stdout, rest, imports = import_log(["analyze", "state.json"], tmp_path)
        assert (returncode, stdout, rest) == (
            1, "", "error: hermiticity invariant violated: residual 0.3\n")
        assert [line for line in imports if "gdneg.states" in line]
