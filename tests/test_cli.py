"""Tests for the command-line front-end: parsing, formats, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

import scorerlib.airy
from scorerlib.cli import _CSV_HEADER, main, parse_phase
from scorerlib.engine import gi, hi


class TestPhaseParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("2pi/3", 2.0 * math.pi / 3.0),
            ("5pi/6", 5.0 * math.pi / 6.0),
            ("0.5pi", 0.5 * math.pi),
            ("-pi/2", -math.pi / 2.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_phase(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["junk", "pi/", "2pi/0x3", "", "pipi"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_phase(text)


class TestEvalCommand:
    def test_text_output_and_exit_code(self, capsys):
        rc = main(["eval", "--fn", "gi", "--re", "1", "--im", "0.2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "value_re = " in out
        assert "method = series" in out

    def test_digits_flag_controls_precision(self, capsys):
        main(["eval", "--fn", "hi", "--r", "1", "--phase", "5pi/6", "--digits", "9"])
        out = capsys.readouterr().out
        assert "value_re = 0.223315665" in out
        assert "value_im = 0.0621330207" in out

    def test_csv_output_has_stable_header(self, capsys):
        rc = main(["eval", "--fn", "gi", "--re", "1", "--im", "0.2", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == _CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == len(_CSV_HEADER.split(","))
        assert fields[2] == "gi"
        # %.15e numeric formatting throughout
        assert "e+" in fields[0] or "e-" in fields[0]

    def test_json_round_trip_is_bit_exact(self, capsys):
        rc = main(["eval", "--fn", "hi", "--re", "-2", "--im", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        ref = hi(complex(-2.0, 1.0))
        assert payload["value_re"] == ref.value.real
        assert payload["value_im"] == ref.value.imag
        assert payload["method"] == ref.method
        assert payload["n_evaluations"] == ref.n_evaluations
        assert payload["abs_error_estimate"] == ref.abs_error_estimate
        assert payload["z_re"] == -2.0 and payload["z_im"] == 1.0

    def test_polar_and_cartesian_agree_exactly(self, capsys):
        r, phase = 2.0, 0.5
        main(["eval", "--fn", "gi", "--r", str(r), "--phase", str(phase), "--format", "json"])
        polar = capsys.readouterr().out
        main(
            [
                "eval",
                "--fn",
                "gi",
                "--re",
                repr(r * math.cos(phase)),
                "--im",
                repr(r * math.sin(phase)),
                "--format",
                "json",
            ]
        )
        cartesian = capsys.readouterr().out
        assert polar == cartesian

    def test_negative_phase_as_separate_token(self, capsys):
        base = ["eval", "--fn", "hi", "--r", "3", "--format", "json"]
        assert main([*base, "--phase", "-5pi/6"]) == 0
        separate = json.loads(capsys.readouterr().out)
        assert main([*base, "--phase=-5pi/6"]) == 0
        joined = json.loads(capsys.readouterr().out)
        assert separate == joined
        assert separate["z_im"] < 0.0

    def test_negative_cartesian_parts_as_separate_tokens(self, capsys):
        base = ["eval", "--fn", "gi", "--format", "json"]
        assert main([*base, "--re", "-1e3", "--im", "-2"]) == 0
        separate = json.loads(capsys.readouterr().out)
        assert main([*base, "--re=-1e3", "--im=-2"]) == 0
        joined = json.loads(capsys.readouterr().out)
        assert separate == joined
        assert (separate["z_re"], separate["z_im"]) == (-1e3, -2.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fn", "gi", "--re", "0", "--im", "1e200"],
            ["--fn", "gi", "--re", "0", "--im", "1e250"],
            ["--fn", "ai", "--re", "0", "--im", "1e250"],
            ["--fn", "hi", "--re", "200", "--im", "0"],
            ["--fn", "gi", "--re=-1e300", "--im", "0"],
            ["--fn", "gi", "--r", "1e6", "--phase", "2pi/3"],
        ],
    )
    def test_overflow_is_a_numerical_failure(self, argv, capsys):
        # No traceback: one diagnostic line and exit code 2.
        assert main(["eval", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorerlib: ")
        assert captured.err.count("\n") == 1

    def test_ai_underflow_is_a_result(self, capsys):
        argv = ["eval", "--fn", "ai", "--re", "1e250", "--im", "0", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["value_re"], payload["value_im"]) == (0.0, 0.0)
        assert payload["method"] == "integral"

    def test_airy_non_convergence_exits_2(self, monkeypatch, capsys):
        rule = scorerlib.airy._ai_laguerre
        monkeypatch.setattr(
            scorerlib.airy,
            "_ai_laguerre",
            lambda z: dataclasses.replace(rule(z), converged=False),
        )
        assert main(["eval", "--fn", "ai", "--re", "5", "--im", "0"]) == 2
        capsys.readouterr()

    def test_polar_snaps_axis_points(self, capsys):
        main(["eval", "--fn", "gi", "--r", "1", "--phase", "pi", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["z_im"] == 0.0
        assert payload["z_re"] == -1.0
        assert payload["value_im"] == 0.0

    def test_airy_functions_available(self, capsys):
        rc = main(["eval", "--fn", "ai", "--re", "0", "--im", "0", "--digits", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.355028053888" in out
        rc = main(["eval", "--fn", "bi", "--re", "0", "--im", "0", "--digits", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.614926627446" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--fn", "gi"],  # no coordinates
            ["eval", "--fn", "gi", "--re", "1"],  # half a cartesian pair
            ["eval", "--fn", "gi", "--r", "1"],  # half a polar pair
            ["eval", "--fn", "gi", "--re", "1", "--im", "0", "--r", "1", "--phase", "0"],
            ["eval", "--fn", "gi", "--re", "1", "--im", "0", "--digits", "0"],
            ["eval", "--fn", "gi", "--re", "1", "--im", "0", "--digits", "16"],
            ["eval", "--fn", "gi", "--r", "1", "--phase", "junk"],
            ["eval", "--fn", "nosuch", "--re", "1", "--im", "0"],
            ["eval", "--fn", "gi", "--re", "nan", "--im", "0"],
            ["eval", "--fn", "ai", "--re", "nan", "--im", "0"],
            ["eval", "--fn", "bi", "--re", "0", "--im", "inf"],
            ["nosuchcommand"],
            [],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        capsys.readouterr()


class TestArcCommand:
    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "arc.csv"
        rc = main(
            [
                "arc",
                "--fn",
                "gi",
                "--radius",
                "1",
                "--start",
                "0",
                "--stop",
                "pi",
                "--samples",
                "181",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "phase,re_value,im_value"
        assert len(lines) == 182
        assert "\r" not in text

    def test_endpoints_match_direct_evaluation(self, tmp_path):
        out = tmp_path / "arc.csv"
        main(["arc", "--fn", "gi", "--radius", "1", "--start", "0", "--stop", "pi",
              "--samples", "5", "--out", str(out)])
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        first = [float(f) for f in rows[0].split(",")]
        last = [float(f) for f in rows[-1].split(",")]
        assert first[0] == 0.0
        assert last[0] == pytest.approx(math.pi, rel=1e-15)
        # %.15e keeps 16 significant digits; allow the final ulp.
        assert first[1] == pytest.approx(gi(1 + 0j).value.real, rel=1e-14)
        assert last[1] == pytest.approx(gi(-1 + 0j).value.real, rel=1e-14)
        assert last[2] == pytest.approx(0.0, abs=1e-300)

    def test_stdout_when_no_path_given(self, capsys):
        rc = main(["arc", "--fn", "hi", "--radius", "1", "--samples", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("phase,re_value,im_value")
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("start", [["--start", "-pi"], ["--start=-pi"]])
    def test_negative_start_phase(self, start, capsys):
        rc = main(["arc", "--fn", "gi", "--radius", "2", *start, "--stop", "pi",
                   "--samples", "3"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rc == 0
        assert float(rows[0].split(",")[0]) == -math.pi
        assert rows[0].split(",")[1:] == rows[-1].split(",")[1:]

    def test_negative_stop_phase(self, capsys):
        rc = main(["arc", "--fn", "hi", "--radius", "1", "--start", "0", "--stop",
                   "-pi/2", "--samples", "2"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rc == 0
        assert float(rows[-1].split(",")[0]) == pytest.approx(-math.pi / 2.0, rel=1e-15)

    def test_rejects_single_sample(self, capsys):
        assert main(["arc", "--fn", "gi", "--radius", "1", "--samples", "1"]) == 1
        capsys.readouterr()

    def test_unwritable_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "arc.csv"
        rc = main(["arc", "--fn", "gi", "--radius", "1", "--samples", "2",
                   "--out", str(target)])
        assert rc == 1
        capsys.readouterr()


class TestGoldenTableCommand:
    def test_all_cells_match(self, capsys):
        rc = main(["table41"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out
        # Spot-check one printed reference value per radius row.
        assert "2.2066961e-01" in out
        assert "3.1768535e-02" in out
        assert "3.1830925e-03" in out

    def test_reports_large_argument_comparison(self, capsys):
        main(["table41"])
        out = capsys.readouterr().out
        assert "Large-argument expansion" in out
        # The two tables disagree in the eighth digit at the middle radius.
        assert "3.1768529e-02" in out and "3.1768535e-02" in out


class TestSelftestCommand:
    def test_battery_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10
        assert all(ln.startswith("PASS") for ln in lines)


class TestBenchCommand:
    def test_cost_pattern_holds(self, capsys):
        rc = main(["bench", "--radii", "1,10", "--phases", "pi,5pi/6,2pi/3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_negative_phases_as_separate_token(self, capsys):
        # Conjugate phases cost the same, and a separate token whose parts
        # all parse is the option's value, not an unknown option.
        rc = main(["bench", "--radii", "1,10", "--phases", "-5pi/6,5pi/6,-2pi/3,2pi/3"])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines()[2:4]:
            counts = [int(tok) for tok in re.findall(r"(\d+) \(", line)]
            assert counts[0] == counts[1] and counts[2] == counts[3]
            assert counts[2] > counts[0]

    def test_rejects_bad_radius_list(self, capsys):
        assert main(["bench", "--radii", "1,zebra"]) == 1
        capsys.readouterr()
