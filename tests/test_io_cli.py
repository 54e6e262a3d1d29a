import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gdneg
from gdneg import measures
from gdneg.errors import InvalidRange, ParseError, UnknownFamily
from gdneg.families import FamilySpec, build
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
        report = json.loads(capsys.readouterr().out)
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

    def test_out_of_range_sweep_needs_flag(self, tmp_path, capsys):
        out = tmp_path / "oor.csv"
        args = ["sweep", "--family", "rho3", "--from", "1.0", "--to", "2.0", "--steps", "4", "--out", str(out)]
        assert main(args) == 1
        assert "window" in capsys.readouterr().err
        assert main(args + ["--allow-out-of-range"]) == 0


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
        report = run_verify(2, 3, 25, 3, oracle_subsample=5, resolution=12)
        assert report["oracle_states_checked"] == 5
        assert report["max_oracle_deviation"] <= 1e-5

    def test_no_oracle_for_qutrit_side(self):
        report = run_verify(3, 3, 20, 3)
        assert report["oracle_states_checked"] == 0


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
            '{"bounds_ok": true, "discord": 0.2378121284185494, "discord_exact": true, '
            '"gap": 0.08184467962548267, "m": 2, "n": 3, "negativity": 0.565382001874867, '
            '"negativity_sq": 0.31965680804403207, "pt_negative_cap": 2, '
            '"pt_negative_count": 2}\n'
        )

    def test_sample_2x3(self, capsys):
        args = ["sample", "--dims", "2x3", "--count", "300", "--seed", "42", "--json"]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            '{"bound_failures": 0, "count": 300, "dims": [2, 3], '
            '"ensemble": "hilbert-schmidt", "max_gap": -0.02435469727442253, '
            '"min_gap": -0.14555656529583288, "seed": 42, "violations": 0}\n'
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
