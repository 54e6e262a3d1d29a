import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gdneg
from gdneg import io_cli, measures
from gdneg.errors import InvalidRange, ParseError, UnknownFamily
from gdneg.families import FamilySpec, build, rho1_closed_forms
from gdneg.io_cli import (
    main,
    read_state,
    render_sweep_csv,
    run_sample,
    run_verify,
    sample_states,
    sweep_rows,
    write_state,
)
from gdneg.measures import DensityMatrix, bounds_check


def rho1_52():
    return build(FamilySpec("rho1", (5, 2)))


def write_rho1_file(tmp_path, name="rho1_52.json"):
    path = tmp_path / name
    write_state(path, rho1_52())
    return path


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
        rows = sweep_rows("rho2", 0.01, 1.0, 50)
        assert all(row.gap > 0 for row in rows)
        assert all(row.closed_form_discord is None for row in rows)

    def test_single_step_at_zero(self):
        rows = sweep_rows("rho1", 0.0, 0.0, 1)
        assert len(rows) == 1
        assert rows[0].discord == 0.0
        assert rows[0].negativity_sq == 0.0

    def test_csv_render_handles_plain_families(self):
        rows = sweep_rows("rho3", 2.0, 3.0, 3)
        text = render_sweep_csv(rows)
        assert text.startswith("param,discord,negativity_sq,gap\n")

    def test_invalid_ranges(self):
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
        assert not out.exists()

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
        rows = sweep_rows(family, lo, hi, 500)
        assert len(rows) == 500
        for row in rows:
            params = (row.param, 1.0) if family == "rho1" else (row.param,)
            report = bounds_check(build(FamilySpec(family, params)))
            assert row.discord == report.discord
            assert row.negativity_sq == report.negativity * report.negativity
            assert row.gap == report.gap
            if family == "rho1":
                closed = (row.closed_form_negativity_sq, row.closed_form_discord)
                assert closed == rho1_closed_forms(row.param, 1.0)

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
        assert not out.exists()


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
        assert report["max_oracle_deviation"] <= 1e-5

    def test_no_oracle_for_qutrit_side(self):
        report = run_verify(3, 3, 20, 3)
        assert report["oracle_states_checked"] == 0

    # Byte-exact text reports, captured before validated stacks stopped being
    # checked for hermiticity a second time.
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
            "  failure: oracle deviation 1.1102230246251565e-16 exceeds -1.0\n"
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
        assert not out.exists()


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


class TestGoldenJson:
    # Byte-exact output of the build before the JSON was derived from the
    # report dataclasses; keys are sorted, tuples print as lists.
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
            '"ensemble": "hilbert-schmidt", "max_gap": -0.02435469727442255, '
            '"min_gap": -0.145556565295833, "seed": 42, "violations": 0}\n'
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
